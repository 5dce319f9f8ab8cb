"""Pair analyses built on the polynomial encoding.

Given two equations, the 2x2 determinants of their coefficient vectors
classify the common solutions whose occurrence-count space is a
hyperplane: every such solution class contributes an irreducible
pure-difference divisor of every nonzero determinant. Factoring a
determinant therefore yields the candidate hyperplanes (as length
constraints), and the degrees and minimal-monomial counts of the
determinant yield size bounds on the number of classes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .encode import DetGrid, _det_grid, is_balanced, s_vector, t_det
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
from .words import EqSystem, Equation, InternalError, LambdaVector, unknown_names

STATUS_OK = "ok"
STATUS_ALL_ZERO = "all-determinants-zero"

# The private ``_hyperplanes``, ``_bounds`` and ``_cofactor`` take the
# determinant grid of the pair, so a caller that needs several analyses of
# one pair builds the grid once.


@dataclass(frozen=True)
class PairDeterminant:
    """A nonzero determinant for one index pair, with its factorization."""

    pair: tuple[int, int]
    determinant: MultiPoly
    factorization: BinomialFactorization


@dataclass(frozen=True)
class HyperplaneReport:
    """Hyperplane classification of rank-(n-1) common solutions.

    ``primary`` is the lexicographically first index pair with a nonzero
    determinant; ``hyperplanes`` lists the mixed-sign factor directions of
    its determinant and ``constraints`` their rendered length equalities.
    Factors with all entries of one sign cannot be met by a non-erasing
    length type and are reported in ``erasing_notes`` instead.
    """

    status: str
    primary: PairDeterminant | None
    hyperplanes: tuple[LambdaVector, ...]
    constraints: tuple[str, ...]
    erasing_notes: tuple[str, ...]


def _erasing_note(lam: LambdaVector, names: Sequence[str]) -> str:
    emptied = ", ".join(f"|h({nm})| = 0" for nm, v in zip(names, lam.entries) if v)
    return f"factor {format_poly(pure_difference(lam))}: only erasing solutions with {emptied}"


def solution_hyperplanes(
    E: Equation, Ep: Equation, names: Sequence[str] | None = None
) -> HyperplaneReport:
    """Classify the possible rank-(n-1) common solutions of two equations
    by factoring the first nonzero coefficient determinant."""
    names = list(names) if names is not None else unknown_names(E.n)
    return _hyperplanes(_det_grid(s_vector(E), s_vector(Ep)), names)


def _hyperplanes(grid: DetGrid, names: Sequence[str]) -> HyperplaneReport:
    pair = next((pair for pair, det in grid.items() if det), None)
    if pair is None:
        return HyperplaneReport(STATUS_ALL_ZERO, None, (), (), ())
    fac = binomial_factors(grid[pair])
    hyperplanes = fac.hyperplane_factors()
    constraints = tuple(lam.constraint_text(names) for lam in hyperplanes)
    notes = tuple(_erasing_note(lam, names) for lam, _ in fac.factors if lam.is_erasing_constraint())
    primary = PairDeterminant(pair, grid[pair], fac)
    return HyperplaneReport(STATUS_OK, primary, hyperplanes, constraints, notes)


@dataclass(frozen=True)
class BoundReport:
    """Size bounds for linearly nonequivalent rank-(n-1) common solutions.

    ``sum_bound`` is the total length of the two equations;
    ``pair_bounds`` maps each index pair with a nonzero determinant to
    twice the occurrence count of the pair in the first equation;
    ``best`` is the minimum applicable bound. ``system_size_bound`` is set
    by :func:`system_bounds` only: it bounds the size of a system that is
    assumed, not checked, to be strongly independent, and it is computed
    from the system's first two equations alone.
    """

    sum_bound: int
    pair_bounds: tuple[tuple[tuple[int, int], int], ...]
    best: int
    status: str
    system_size_bound: int | None = None

    def to_json(self) -> dict:
        """The bounds as JSON, with 1-based index pairs; ``status`` is left
        to the caller."""
        out: dict = {
            "sum": self.sum_bound,
            "pairs": [{"pair": [j + 1, k + 1], "bound": b} for (j, k), b in self.pair_bounds],
            "best": self.best,
        }
        if self.system_size_bound is not None:
            out["system_size_bound"] = self.system_size_bound
        return out


def bounds(E: Equation, Ep: Equation) -> BoundReport:
    """Bounds for a pair of equations; identical or linearly dependent
    coefficient vectors are reported via ``status`` rather than an error.
    With fewer than two unknowns there is no determinant, so the status is
    all-zero."""
    return _bounds(E, Ep, _det_grid(s_vector(E), s_vector(Ep)))


def _bounds(E: Equation, Ep: Equation, grid: DetGrid) -> BoundReport:
    sum_bound = E.size + Ep.size
    pair_bounds = tuple(
        ((j, k), 2 * (E.occurrences(j) + E.occurrences(k))) for (j, k), det in grid.items() if det
    )
    status = STATUS_OK if pair_bounds else STATUS_ALL_ZERO
    best = min([sum_bound] + [b for _, b in pair_bounds])
    return BoundReport(sum_bound, pair_bounds, best, status)


def system_bounds(T: EqSystem, *, has_rank_n1_solution: bool = False) -> BoundReport:
    """Size bound for a system assumed, not checked, to be strongly
    independent: the bound of its first two equations plus 2, or plus 1
    when the system is declared to have a rank-(n-1) solution. Only the
    first two equations are read."""
    if len(T) < 2:
        raise ValueError("system bounds need at least two equations")
    E1, E2 = T.equations[0], T.equations[1]
    base = bounds(E1, E2)
    slack = 1 if has_rank_n1_solution else 2
    return replace(base, system_size_bound=base.best + slack)


def cofactor_3vars(E1: Equation, E2: Equation) -> MultiPoly:
    """For balanced equations in three unknowns the determinant triple
    ``(t_23, t_31, t_12)`` is ``t * (X-1, Y-1, Z-1)``; returns ``t``.

    Zero when the two coefficient vectors are linearly dependent.
    """
    if E1.n != 3 or E2.n != 3:
        raise ValueError("cofactor is defined for exactly three unknowns")
    for E in (E1, E2):
        if not is_balanced(E):
            raise ValueError(f"equation {E} is not balanced")
    return _cofactor(_det_grid(s_vector(E1), s_vector(E2)))


def _cofactor(grid: DetGrid) -> MultiPoly:
    dets = [(grid[(1, 2)], 0), (-grid[(0, 2)], 1), (grid[(0, 1)], 2)]
    quotients = []
    for det, i in dets:
        if not det:
            continue
        q = divide_by_binomial(det, LambdaVector(tuple(1 if j == i else 0 for j in range(3))))
        if q is None:
            raise InternalError("determinant of balanced pair not divisible by X_i - 1")
        quotients.append(q)
    if not quotients:
        return MultiPoly.zero(3)
    if len(quotients) != 3 or any(q != quotients[0] for q in quotients):
        raise InternalError("inconsistent cofactors across the determinant triple")
    return quotients[0]


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
    names = list(names) if names is not None else unknown_names(E.n)
    grid = _det_grid(s_vector(E), s_vector(Ep))
    hr = _hyperplanes(grid, names)
    br = _bounds(E, Ep, grid)
    out: dict = {
        "status": hr.status,
        "bounds": br.to_json(),
    }
    if hr.primary is None:
        out.update(
            {
                "pair": None,
                "determinant": None,
                "content": None,
                "factors": [],
                "residual": None,
                "hyperplane_constraints": [],
                "erasing_notes": [],
            }
        )
        return out
    out.update(
        {
            "pair": [hr.primary.pair[0] + 1, hr.primary.pair[1] + 1],
            "determinant": format_poly(hr.primary.determinant),
            **hr.primary.factorization.to_json(),
            "hyperplane_constraints": list(hr.constraints),
            "erasing_notes": list(hr.erasing_notes),
        }
    )
    return out
