"""Pair analyses built on the polynomial encoding.

Given two equations, the 2x2 determinants of their coefficient vectors
classify the common solutions whose occurrence-count space is a
hyperplane: every such solution class contributes an irreducible
pure-difference divisor of every nonzero determinant, that of its normal
(which ``search.verify_bounds`` checks). Factoring a determinant
therefore yields the candidate hyperplanes (as length constraints), and
the degrees and minimal-monomial counts of the determinant yield size
bounds on the number of classes.

One :class:`PairAnalysis` holds one pair and computes each of these
results once, when it is first read; ``solution_hyperplanes``,
``bounds``, ``cofactor_3vars`` and ``pair_report_json`` are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .encode import SVector, is_balanced, minor, s_vector, t_det
from .poly import (
    BinomialFactorization,
    MultiPoly,
    binomial_factors,
    divide_by_binomial,
    format_poly,
    minimal_monomials,
    pure_difference,
    pure_difference_divisors,
)
from .words import Equation, InternalError, LambdaVector, unknown_names

STATUS_OK = "ok"
STATUS_ALL_ZERO = "all-determinants-zero"


@dataclass(frozen=True)
class PairDeterminant:
    """A nonzero determinant for one index pair, with its factorization."""

    pair: tuple[int, int]
    determinant: MultiPoly
    factorization: BinomialFactorization


def _erasing_note(lam: LambdaVector, names: Sequence[str]) -> str:
    emptied = ", ".join(f"|h({nm})| = 0" for nm, v in zip(names, lam) if v)
    return f"factor {format_poly(pure_difference(lam))}: only erasing solutions with {emptied}"


class PairAnalysis:
    """Everything read off one equation pair, each computed on first read.

    ``primary`` is the lexicographically first index pair with a nonzero
    determinant, with its factorization; ``hyperplanes`` lists the
    mixed-sign factor directions of that determinant and ``constraints``
    their rendered length equalities. Factors with all entries of one sign
    cannot be met by a non-erasing length type and are reported in
    ``erasing_notes`` instead. ``sum_bound`` is the total length of the two
    equations; ``pair_bounds`` maps each index pair with a nonzero
    determinant to twice the occurrence count of the pair in ``E``;
    ``best`` is the minimum applicable bound. Identical or linearly
    dependent coefficient vectors, and fewer than two unknowns, give the
    all-zero ``status`` rather than an error. ``names`` has one entry per
    unknown, else ValueError, and defaults to ``x, y, z, ...``.
    """

    def __init__(self, E: Equation, Ep: Equation, names: Sequence[str] = ()):
        if E.n != Ep.n:
            raise ValueError("equations must share the unknown count")
        self.E, self.Ep = E, Ep
        self.names = tuple(unknown_names(E.n, names or None))
        self._minors: dict[tuple[int, int], MultiPoly] = {}  # built so far, each once

    @cached_property
    def s_vectors(self) -> tuple[SVector, SVector]:
        return s_vector(self.E), s_vector(self.Ep)

    def _minor(self, pair: tuple[int, int]) -> MultiPoly:
        det = self._minors.get(pair)
        if det is None:
            det = self._minors[pair] = minor(*self.s_vectors, *pair)
        return det

    @cached_property
    def grid(self) -> dict[tuple[int, int], MultiPoly]:
        """Every determinant ``t_jk`` with ``j < k``, in lexicographic order."""
        return {pair: self._minor(pair) for pair in combinations(range(self.E.n), 2)}

    @cached_property
    def status(self) -> str:
        """Read off ``pair_bounds``, so that the bounds never factor."""
        return STATUS_OK if self.pair_bounds else STATUS_ALL_ZERO

    @cached_property
    def primary(self) -> PairDeterminant | None:
        """Builds the determinants only up to the first nonzero one."""
        for pair in combinations(range(self.E.n), 2):
            if det := self._minor(pair):
                return PairDeterminant(pair, det, binomial_factors(det))
        return None

    @cached_property
    def hyperplanes(self) -> tuple[LambdaVector, ...]:
        return self.primary.factorization.hyperplane_factors() if self.primary else ()

    @cached_property
    def constraints(self) -> tuple[str, ...]:
        return tuple(lam.constraint_text(self.names) for lam in self.hyperplanes)

    @cached_property
    def erasing_notes(self) -> tuple[str, ...]:
        factors = self.primary.factorization.factors if self.primary else ()
        return tuple(_erasing_note(lam, self.names) for lam, _ in factors if lam.is_erasing_constraint())

    @cached_property
    def sum_bound(self) -> int:
        return self.E.size + self.Ep.size

    @cached_property
    def pair_bounds(self) -> tuple[tuple[tuple[int, int], int], ...]:
        occ = self.E.occurrences
        return tuple(((j, k), 2 * (occ(j) + occ(k))) for (j, k), det in self.grid.items() if det)

    @cached_property
    def best(self) -> int:
        return min([self.sum_bound] + [b for _, b in self.pair_bounds])

    @cached_property
    def cofactor(self) -> MultiPoly:
        """For balanced equations in three unknowns the determinant triple
        ``(t_23, t_31, t_12)`` is ``t * (X-1, Y-1, Z-1)``; this is ``t``.

        ``t`` comes from one exact division, of the first nonzero entry by
        its ``X_i - 1``, and is checked against all three determinants.
        Zero when the two coefficient vectors are linearly dependent.
        """
        if self.E.n != 3:
            raise ValueError("cofactor is defined for exactly three unknowns")
        for E in (self.E, self.Ep):
            if not is_balanced(E):
                raise ValueError(f"equation {E} is not balanced")
        units = [LambdaVector(int(j == i) for j in range(3)) for i in range(3)]
        triple = (self.grid[(1, 2)], -self.grid[(0, 2)], self.grid[(0, 1)])
        i = next((i for i, det in enumerate(triple) if det), 0)
        t = divide_by_binomial(triple[i], units[i])
        if t is None or any(t * pure_difference(u) != det for u, det in zip(units, triple)):
            raise InternalError("determinant triple of a balanced pair is not t * (X-1, Y-1, Z-1)")
        return t

    def system_size_bound(self, has_rank_n1_solution: bool = False) -> int:
        """Size bound for a system whose first two equations are this pair,
        assumed, not checked, to be strongly independent: ``best`` plus 2,
        or plus 1 when the system is declared to have a rank-(n-1) solution."""
        return self.best + (1 if has_rank_n1_solution else 2)

    def bounds_json(self) -> dict:
        """The bounds as JSON, with 1-based index pairs."""
        return {
            "sum": self.sum_bound,
            "pairs": [{"pair": [j + 1, k + 1], "bound": b} for (j, k), b in self.pair_bounds],
            "best": self.best,
        }

    def to_json(self) -> dict:
        """The pair report: status, bounds, and the primary determinant
        with its factorization, hyperplane constraints and erasing notes."""
        out: dict = {
            "status": self.status,
            "bounds": self.bounds_json(),
            "hyperplane_constraints": list(self.constraints),
            "erasing_notes": list(self.erasing_notes),
        }
        if self.primary is None:
            none = dict.fromkeys(("pair", "determinant", "content", "residual"))
            return {**out, **none, "factors": []}
        pair, det, fac = self.primary.pair, self.primary.determinant, self.primary.factorization
        return {**out, "pair": [pair[0] + 1, pair[1] + 1], "determinant": format_poly(det), **fac.to_json()}


def solution_hyperplanes(E: Equation, Ep: Equation, names: Sequence[str] | None = None) -> PairAnalysis:
    """Classify the possible rank-(n-1) common solutions of two equations
    by factoring the first nonzero coefficient determinant. The factoring
    is done inside the call."""
    pa = PairAnalysis(E, Ep, names or ())
    _ = pa.constraints, pa.erasing_notes
    return pa


def bounds(E: Equation, Ep: Equation) -> PairAnalysis:
    """Bounds for a pair of equations, computed inside the call; nothing
    is factored."""
    pa = PairAnalysis(E, Ep)
    _ = pa.status, pa.best
    return pa


def cofactor_3vars(E1: Equation, E2: Equation) -> MultiPoly:
    """The cofactor ``t`` of a balanced pair in three unknowns; see
    :attr:`PairAnalysis.cofactor`."""
    return PairAnalysis(E1, E2).cofactor


def minimal_count_bounds(
    E: Equation, Ep: Equation, j: int, k: int
) -> tuple[int, int, int]:
    """Count the minimal monomials of the (j, k) determinant and check it
    against both proved bounds.

    Returns ``(count, upper, lower)`` where ``upper`` is twice the
    occurrence count of the pair in ``E`` and ``lower`` is one more than
    the number of distinct mixed-sign pure-difference divisors, found by
    the line-sum test alone.
    """
    det = t_det(E, Ep, j, k)
    if not det:
        raise ValueError(f"determinant for pair ({j}, {k}) is zero")
    count = len(minimal_monomials(det))
    upper = 2 * (E.occurrences(j) + E.occurrences(k))
    lower = 1 + sum(not lam.is_erasing_constraint() for lam in pure_difference_divisors(det))
    if not lower <= count <= upper:
        raise InternalError(
            f"minimal-monomial count {count} outside [{lower}, {upper}] "
            f"for pair ({j}, {k})"
        )
    return count, upper, lower


def pair_report_json(
    E: Equation, Ep: Equation, names: Sequence[str] | None = None
) -> dict:
    """JSON-ready report for an equation pair: primary determinant,
    factorization, hyperplane constraints and bounds."""
    return PairAnalysis(E, Ep, names or ()).to_json()
