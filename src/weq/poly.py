"""Sparse integer polynomials and binomial factor extraction.

Multivariate polynomials over Z are stored as a map from exponent
vectors to nonzero arbitrary-precision coefficients, so two polynomials
are equal exactly when their term maps are. On top of the ring
operations this module provides:

* the canonical text form, whose variables are named X, Y, Z, X4, ...,
* exact division by a pure difference ``X^(lam+) - X^(lam-)`` with
  coprime ``lam`` (every such difference is irreducible),
* the directions of all irreducible pure-difference divisors, and the
  complete extraction of the monomial content and of those divisors
  with multiplicities,
* the minimal monomials of the support under the componentwise order.

Division uses the single rewriting rule ``X^(lam+) -> X^(lam-)``. Each
monomial ``X^e`` admits the rule exactly ``min over {i : lam_i > 0} of
floor(e_i / lam_i)`` times, so its normal form is strategy-independent.
The normal form is the one point of the lam-line ``e + Z*lam`` inside
the orthant that admits no rewrite, so it names the line. The remainder
is the sum of the normal forms, and therefore vanishes exactly when the
coefficients on every lam-line of the support sum to zero. The code
names a line without rewriting: ``lam`` is primitive, so two exponents
lie on one lam-line exactly when their cross products with ``lam``
(``li*e_j - e_i*lam_j``, for the first nonzero ``li = lam_i``) agree.

The cross products are packed into one integer: each polynomial packs its
exponents once as ``pack(e) = sum of e_j*B^j``, ``B = 4D^2 + 1`` for its
largest exponent entry ``D``, and a term's line key is
``li*pack(e) - e_i*pack(lam)``, two integer operations. While no entry of
``lam`` exceeds ``D`` in absolute value, each cross product is at most
``2D^2 < B/2`` in absolute value, so the packing has no carries and the key
is exact. A longer direction puts no two support monomials on one line, so
it divides no nonzero polynomial, and the test returns at once.

Factor extraction rests on three consequences of that line-sum rule:

* **Anchor candidates.** A line with zero coefficient sum that holds one
  support monomial holds a second. So if ``X^(lam+) - X^(lam-)`` divides
  a polynomial, the first support monomial ``e0`` shares a lam-line with
  another support monomial ``e``, and ``lam`` is the normalization of
  ``e - e0``; likewise for the last support monomial. The divisors are
  among the directions common to both anchors whose lines through them
  sum to zero: ``2(m-1)`` normalized differences for ``m`` terms, not
  the ``m(m-1)/2`` of all support pairs. The first anchor is the
  lexicographically least, so every difference from it is
  lexicographically positive, and every difference to the last anchor
  is too; each costs one gcd of known sign, and no division when the
  gcd is 1.
* **One pass.** A pure-difference divisor of a quotient divides the
  input, and Z[X] has unique factorization, so one sweep over the input's
  candidates that divides out each direction while it divides finds
  every factor with its multiplicity.
* **Test before dividing.** The line sums decide divisibility in one
  pass over the terms that builds nothing else. The divisor directions
  come from this test alone: the lines and the anchor differences do not
  change when the polynomial is shifted by a monomial, and distinct
  irreducible pure differences are coprime to each other and to every
  monomial, so a direction divides the input exactly when it divides its
  quotient by the content and the other factors. The test hands its line
  keys to the division, so each candidate is keyed once and only a divisor
  gets its lines built, as coefficient lists from each line's lowest
  support point; the multiplicity is counted on those lists, and one
  quotient is built per factor. Each polynomial keeps its own packing,
  made when a candidate first tests it, so a quotient starts unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from math import gcd
from operator import add, le, mul, sub
from typing import Mapping, Sequence

from .words import InternalError, LambdaVector, unknown_names

# The most terms a quotient by a pure difference may have. A determinant of
# equations of total length m has degree at most m, so it never comes near.
MAX_QUOTIENT_TERMS = 100_000


def poly_var_names(n: int) -> list[str]:
    """Display names X, Y, Z, X4, X5, ... for ``n`` ring variables."""
    return [nm.upper() for nm in unknown_names(n)]


def _grlex_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exps), exps)


class MultiPoly:
    """Element of Z[X_1,...,X_n] in sparse canonical form (no zero terms)."""

    __slots__ = ("n", "_terms", "_packing")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if n < 0:
            raise ValueError("negative variable count")
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n or any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for {n} variables")
            if not isinstance(coeff, int):
                raise ValueError(f"coefficients must be integers: {coeff!r}")
            if coeff:
                clean[exps] = int(coeff)
        self._terms = clean
        self._packing = None

    @classmethod
    def _from_terms(cls, n: int, terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        """Wrap terms that are already clean (n-vectors of non-negative
        exponents, no zero coefficient) without validating them again."""
        res = cls.__new__(cls)
        res.n = n
        res._terms = terms
        res._packing = None
        return res

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: int) -> "MultiPoly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def one(cls, n: int) -> "MultiPoly":
        return cls.constant(n, 1)

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coeff: int = 1) -> "MultiPoly":
        return cls(n, {tuple(exps): coeff})

    @classmethod
    def variable(cls, n: int, i: int) -> "MultiPoly":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range")
        return cls(n, {tuple(1 if j == i else 0 for j in range(n)): 1})

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n == other.n
            and self._terms == other._terms
        )

    def _check_same_ring(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.n, other)
        self._check_same_ring(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return MultiPoly._from_terms(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_terms(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            terms = {e: c * other for e, c in self._terms.items()} if other else {}
            return MultiPoly._from_terms(self.n, terms)
        self._check_same_ring(other)
        return MultiPoly._from_terms(self.n, _add_product({}, self, other))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        res = MultiPoly.one(self.n)
        base = self
        while k:
            if k & 1:
                res = res * base
            k >>= 1
            if k:
                base = base * base
        return res

    def __str__(self) -> str:
        return format_poly(self)

    __repr__ = __str__


def _add_product(
    out: dict[tuple[int, ...], int], p: MultiPoly, q: MultiPoly, sign: int = 1
) -> dict[tuple[int, ...], int]:
    """Add ``sign * p * q`` into the term map ``out`` in place, keeping no
    zero term, and return it. ``p`` and ``q`` share the ring of ``out``."""
    q_terms = q._terms
    for e1, c1 in p._terms.items():
        c1 *= sign
        for e2, c2 in q_terms.items():
            e = tuple(map(add, e1, e2))
            nc = out.get(e, 0) + c1 * c2
            if nc:
                out[e] = nc
            else:
                del out[e]
    return out


def format_poly(p: MultiPoly) -> str:
    """Canonical text form: terms in descending graded lexicographic order."""
    if not p:
        return "0"
    names = poly_var_names(p.n)
    parts = []
    for e in sorted(p._terms, key=_grlex_key, reverse=True):
        c = p._terms[e]
        vars_ = "*".join(
            nm if ei == 1 else f"{nm}^{ei}" for nm, ei in zip(names, e) if ei
        )
        mag = abs(c)
        if not vars_:
            body = str(mag)
        elif mag == 1:
            body = vars_
        else:
            body = f"{mag}*{vars_}"
        parts.append((c < 0, body))
    first_neg, first_body = parts[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def pure_difference(lam: LambdaVector) -> MultiPoly:
    """The pure difference ``X^(lam+) - X^(lam-)``.

    ``lam`` is coprime with disjoint positive/negative parts by
    construction, which makes the difference irreducible in Z[X].
    """
    return MultiPoly._from_terms(len(lam), {lam.plus: 1, lam.minus: -1})


def _packed(p: MultiPoly) -> tuple[int, list[int], list[int]]:
    """``(D, powers, packs)``: the largest exponent entry ``D`` of the
    support of ``p`` (0 when it has none), the powers ``B^j`` of
    ``B = 4D^2 + 1``, and ``pack(e) = sum of e_j*B^j`` for each term of
    ``p`` in term order (see the module docstring). Built on the first
    call and kept on ``p``, whose terms never change once it is built."""
    if p._packing is None:
        D = max(chain.from_iterable(p._terms), default=0)
        powers = [(4 * D * D + 1) ** j for j in range(p.n)]
        p._packing = D, powers, [sum(map(mul, e, powers)) for e in p._terms]
    return p._packing


def _line_keys(p: MultiPoly, lam: LambdaVector) -> tuple[int, int, list[int] | None]:
    """``(i, li, keys)``: the pivot of ``lam``, its first nonzero entry
    ``li = lam_i > 0``, and the lam-line key ``li*pack(e) - e_i*pack(lam)``
    of each term of ``p`` in term order, by the packing that ``p`` keeps.
    ``keys`` is None when an entry of ``lam`` exceeds ``D`` and ``p`` is
    nonzero, as then no two support monomials share a line. ``ValueError``
    when ``lam`` does not have one entry per variable of ``p``."""
    if p.n != len(lam):
        raise ValueError(f"variable count mismatch: {p.n} vs {len(lam)}")
    li = next(filter(None, lam))
    i = lam.index(li)
    D, powers, packs = _packed(p)
    if packs and max(map(abs, lam)) > D:
        return i, li, None
    pl = sum(map(mul, lam, powers))
    return i, li, [li * q - e[i] * pl for q, e in zip(packs, p._terms)]


def _divisor_keys(p: MultiPoly, lam: LambdaVector) -> tuple[int, int, list[int]] | None:
    """The triple of ``_line_keys`` when ``X^(lam+) - X^(lam-)`` divides
    ``p``, that is when the coefficients on every lam-line of the support
    sum to zero (see the module docstring); None otherwise."""
    _, _, keys = found = _line_keys(p, lam)
    if keys is None:
        return None
    sums: dict[int, int] = {}
    for key, c in zip(keys, p._terms.values()):
        sums[key] = sums.get(key, 0) + c
    return None if any(sums.values()) else found


def _divide_out(p: MultiPoly, lam: LambdaVector, once: bool) -> tuple[int, MultiPoly]:
    """``(m, p / b^m)`` for the pure difference ``b`` of ``lam``, with ``m``
    its multiplicity in ``p``, or at most 1 when ``once``. One call of
    ``_divisor_keys`` decides whether ``b`` divides, and its keys group the
    support into lines; the quotient starts unpacked.

    Each lam-line of the support holds the points ``low + t*lam`` for
    ``t = 0..T``, from its lowest support point ``low``, with coefficients
    ``c_t``. Dividing by ``b`` divides ``sum c_t z^t`` by ``z - 1`` on every
    line: the quotient holds ``-(c_0 + ... + c_t)`` at ``low + t*lam - lam-``
    for ``t = 0..T-1``, and the division is exact while every line's sum is
    zero. So ``m`` is read off the lines' coefficient lists by repeated
    prefix sums, and one quotient is built at the end. A first quotient of
    more than ``MAX_QUOTIENT_TERMS`` terms is refused with ``ValueError``
    before it is built.
    """
    found = _divisor_keys(p, lam)
    if found is None:
        return 0, p
    i, li, keys = found
    terms = p._terms
    lines: dict[int, dict[int, tuple[int, ...]]] = {}
    for key, e in zip(keys, terms):
        lines.setdefault(key, {})[e[i]] = e
    spans = [(line, min(line), max(line)) for line in lines.values()]
    size = sum(hi - lo for _, lo, hi in spans) // li
    if size > MAX_QUOTIENT_TERMS:
        by = format_poly(pure_difference(lam))
        raise ValueError(f"the quotient by {by} could have {size} terms, more than {MAX_QUOTIENT_TERMS}")
    lows, quot = [], []
    for line, lo, hi in spans:
        coeffs = [0] * ((hi - lo) // li + 1)
        for ei, e in line.items():
            coeffs[(ei - lo) // li] = terms[e]
        lows.append(line[lo])
        quot.append(coeffs)
    m = 0
    while True:
        # up to the sign (-1)^m, the quotient lines are repeated prefix sums
        prefix = [list(accumulate(q)) for q in quot]
        if any(q[-1] for q in prefix):
            break
        for q in prefix:
            q.pop()
        quot, m = prefix, m + 1
        if once:
            break
    sign, shift = (-1) ** m, tuple([m * v for v in lam.minus])
    out: dict[tuple[int, ...], int] = {}
    for low, q in zip(lows, quot):
        e = tuple(map(sub, low, shift))
        for c in q:
            if c:
                out[e] = sign * c
            e = tuple(map(add, e, lam))
    return m, MultiPoly._from_terms(p.n, out)


def divide_by_binomial(p: MultiPoly, lam: LambdaVector) -> MultiPoly | None:
    """Exact quotient ``p / (X^(lam+) - X^(lam-))``, or None when the
    division leaves a remainder.

    The line-sum test runs first and its keys group the lines, so each
    direction is keyed once and a quotient is built only for a divisor
    (see ``_divide_out``). A quotient of more than
    ``MAX_QUOTIENT_TERMS`` terms is refused with ``ValueError`` before it
    is built.
    """
    m, q = _divide_out(p, lam, once=True)
    return q if m else None


@dataclass(frozen=True)
class BinomialFactorization:
    """``sign * X^content * product(binomial^multiplicity) * residual``.

    The residual carries all remaining coefficients; it has no monomial
    content, no pure-difference divisor, and a positive leading
    coefficient in graded lexicographic order.
    """

    sign: int
    content: tuple[int, ...]
    factors: tuple[tuple[LambdaVector, int], ...]
    residual: MultiPoly

    def expand(self) -> MultiPoly:
        """Multiply the factorization back out: the residual times each
        binomial in turn, each a shift by ``lam+`` minus a shift by
        ``lam-``, then shifted by the content and times the sign."""
        terms = self.residual._terms
        for lam, mult in self.factors:
            plus, minus = lam.plus, lam.minus
            for _ in range(mult):
                out = {tuple(map(add, e, plus)): c for e, c in terms.items()}
                for e, c in terms.items():
                    e = tuple(map(add, e, minus))
                    nc = out.get(e, 0) - c
                    if nc:
                        out[e] = nc
                    else:
                        del out[e]
                terms = out
        mu, sign = self.content, self.sign
        return MultiPoly._from_terms(self.residual.n, {tuple(map(add, e, mu)): sign * c for e, c in terms.items()})

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "content": list(self.content),
            "factors": [{"lambda": list(lam), "multiplicity": m} for lam, m in self.factors],
            "residual": format_poly(self.residual),
        }

    def hyperplane_factors(self) -> tuple[LambdaVector, ...]:
        """Directions of the factors whose positive and negative parts are
        both nonzero (the ones meeting the positive orthant)."""
        return tuple(lam for lam, _ in self.factors if not lam.is_erasing_constraint())


def _content(terms: Mapping[tuple[int, ...], int]) -> tuple[int, ...]:
    return tuple(map(min, zip(*terms)))


def _shift_down(p: MultiPoly, mu: tuple[int, ...]) -> MultiPoly:
    shifted = {tuple(map(sub, e, mu)): c for e, c in p._terms.items()}
    return MultiPoly._from_terms(p.n, shifted)


def _primitive(d: tuple[int, ...]) -> tuple[int, ...]:
    """``d`` over the gcd of its entries. For a lexicographically positive
    ``d`` that is its canonical direction, with no sign to settle."""
    g = gcd(*d)
    return d if g == 1 else tuple([v // g for v in d])


def _anchor_candidates(terms: Mapping[tuple[int, ...], int]) -> list[LambdaVector]:
    """The directions, in sorted order, through both the first and
    the last support monomial whose lines through these two anchors have
    zero coefficient sum: a divisor's line through an anchor holds a
    second support monomial, so the divisor is the normalized difference
    of the two, and its line sums vanish. Each sum map is keyed by the
    canonical direction of the line through its anchor; ``e - lo`` and
    ``hi - e`` are lexicographically positive, so ``_primitive`` gives it."""
    lo, hi = min(terms), max(terms)
    first: dict[tuple[int, ...], int] = {}
    last: dict[tuple[int, ...], int] = {}
    for e, c in terms.items():
        if e != lo:
            d = _primitive(tuple(map(sub, e, lo)))
            first[d] = first.get(d, terms[lo]) + c
        if e != hi:
            d = _primitive(tuple(map(sub, hi, e)))
            last[d] = last.get(d, terms[hi]) + c
    return sorted(LambdaVector(d) for d, total in first.items() if not total and last.get(d) == 0)


def pure_difference_divisors(p: MultiPoly) -> tuple[LambdaVector, ...]:
    """The directions of the distinct irreducible pure-difference divisors
    of ``p`` in sorted order, which are the factor directions of
    :func:`binomial_factors`, found by the line-sum test alone with no
    quotient (see the module docstring)."""
    if not p:
        raise ValueError("every pure difference divides the zero polynomial")
    return tuple(lam for lam in _anchor_candidates(p._terms) if _divisor_keys(p, lam) is not None)


def binomial_factors(p: MultiPoly) -> BinomialFactorization:
    """Extract the monomial content and every irreducible pure-difference
    divisor of ``p`` with multiplicities.

    One sweep over the anchor candidates of the content-free part, in
    sorted order, divides out each direction with its whole multiplicity,
    since every pure-difference divisor of a quotient divides ``p``. A
    quotient keeps zero content, as a monomial dividing it would divide
    ``p``.
    """
    if not p:
        raise ValueError("the zero polynomial has no factorization")
    content = _content(p._terms)
    cur = _shift_down(p, content) if any(content) else p
    factors: list[tuple[LambdaVector, int]] = []
    for lam in _anchor_candidates(cur._terms):
        mult, cur = _divide_out(cur, lam, once=False)
        if mult:
            factors.append((lam, mult))
    sign = 1
    lead = max(cur._terms, key=_grlex_key)
    if cur._terms[lead] < 0:
        sign = -1
        cur = -cur
    result = BinomialFactorization(sign, content, tuple(factors), cur)
    if result.expand() != p:
        raise InternalError("factorization failed to multiply back")
    return result


def minimal_monomials(p: MultiPoly) -> set[tuple[int, ...]]:
    """Minimal elements of the support under the componentwise order.

    One sweep in order of total degree: a monomial strictly below ``e``
    has a smaller total degree and comes first, and every non-minimal
    ``e`` lies above some minimal one, so ``e`` is kept exactly when no
    monomial kept before it lies below it.
    """
    if not p:
        raise ValueError("the zero polynomial has no minimal monomials")
    kept: list[tuple[int, ...]] = []
    for e in sorted(p._terms, key=sum):
        if not any(all(map(le, f, e)) for f in kept):
            kept.append(e)
    return set(kept)
