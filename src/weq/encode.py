"""Polynomial encoding of word equations.

An equation over n unknowns turns into a vector of n polynomials in
Z[X_1,...,X_n]: the component for unknown j collects, with sign per
side, one prefix-product monomial for every occurrence of that unknown.
Substituting a length type beta (via ``X_i -> x^(beta_i)``) yields a
homogeneous linear condition over Z[x], the one-variable case of the
same ring, whose solutions are exactly the digit polynomials of the
solutions with that length type. The solution test evaluates that
condition exactly at x = 2^w, with plain integers in place of Z[x].
"""

from __future__ import annotations

from operator import mul
from typing import Iterable

from .poly import MultiPoly, _add_product
from .words import Equation, Morphism

SVector = tuple[MultiPoly, ...]


def _columns(E: Equation, cols: Iterable[int]) -> list[MultiPoly | None]:
    """``S_j`` in slot ``j`` for each ``j`` in ``cols``, None in the other
    slots, in one scan of the equation."""
    acc: list[dict[tuple[int, ...], int] | None] = [None] * E.n
    for j in cols:
        acc[j] = {}
    for side, sign in ((E.left, 1), (E.right, -1)):
        prefix = [0] * E.n
        for sym in side:
            terms = acc[sym]
            if terms is not None:
                key = tuple(prefix)
                nc = terms.get(key, 0) + sign
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
            prefix[sym] += 1
    return [None if terms is None else MultiPoly._from_terms(E.n, terms) for terms in acc]


def s_vector(E: Equation) -> SVector:
    """All coefficient polynomials ``(S_1, ..., S_n)`` in one scan."""
    return tuple(_columns(E, range(E.n)))


def check_solution_poly(E: Equation, h: Morphism) -> bool:
    """Solution test through the encoding: the dot product of the
    coefficient vector at the length type of ``h`` with the digit
    polynomials of ``h`` must vanish in Z[x]. The digit polynomial of an
    image has the coefficient ``letter + 1`` at the power of x of each
    position.

    The dot product is evaluated at x = B = 2^w (Kronecker substitution)
    in one scan of each side: an occurrence of unknown j after a prefix
    of length d under the length type adds ``P_j(B) << w*d`` to its
    side, and the dot product is the left sum minus the right one.

    This is exact. Each occurrence adds +-x^d times a digit polynomial
    whose coefficients lie in 1..k, k = ``h.target_alphabet_size``,
    because ``Morphism`` keeps every letter below k. So every coefficient
    of the dot product is at most C = k(|u| + |v|) in absolute value, and
    w is the least with 2^w > C. A nonzero integer polynomial with that
    bound is nonzero at any integer B > C: its leading term has absolute
    value at least B^m, and the others sum to at most
    C(B^m - 1)/(B - 1) < B^m.
    """
    if h.domain_size != E.n:
        raise ValueError(f"morphism has {h.domain_size} images, equation has {E.n} unknowns")
    w = (h.target_alphabet_size * (len(E.left) + len(E.right))).bit_length()
    digits, shifts = [], []
    for im in h.images:
        value = 0
        for s in reversed(im):
            value = (value << w) + s + 1
        digits.append(value)
        shifts.append(w * len(im))
    sides = []
    for side in (E.left, E.right):
        value = d = 0
        for sym in side:
            value += digits[sym] << d
            d += shifts[sym]
        sides.append(value)
    return sides[0] == sides[1]


def minor(S: SVector, Sp: SVector, j: int, k: int) -> MultiPoly:
    """The 2x2 minor ``S_j Sp_k - Sp_j S_k`` of two coefficient vectors in
    columns (j, k); antisymmetric in (j, k). The one spelling of a pair
    determinant, read by ``t_det`` and ``PairAnalysis.grid``. Both products
    are summed into one term map, with no intermediate polynomial."""
    terms = _add_product(_add_product({}, S[j], Sp[k]), Sp[j], S[k], -1)
    return MultiPoly._from_terms(S[j].n, terms)


def t_det(E: Equation, Ep: Equation, j: int, k: int) -> MultiPoly:
    """2x2 determinant ``S(E)_j S(Ep)_k - S(Ep)_j S(E)_k`` of the two
    coefficient vectors, their ``minor`` in columns (j, k); only these two
    columns are built."""
    if E.n != Ep.n:
        raise ValueError("equations must share the unknown count")
    for idx in (j, k):
        if not 0 <= idx < E.n:
            raise IndexError(f"unknown index {idx} out of range for n={E.n}")
    return minor(_columns(E, (j, k)), _columns(Ep, (j, k)), j, k)


def balanced_residual(E: Equation) -> MultiPoly:
    """Dot product of the coefficient vector with ``(X_1-1, ..., X_n-1)``.

    Telescoping leaves the difference of the two full side prefix
    products, so the result is zero exactly for balanced equations.
    """
    shifts = (MultiPoly.variable(E.n, j) - 1 for j in range(E.n))
    return sum(map(mul, s_vector(E), shifts), MultiPoly.zero(E.n))


def is_balanced(E: Equation) -> bool:
    """Whether the two sides are the same letters in another order."""
    return sorted(E.left) == sorted(E.right)
