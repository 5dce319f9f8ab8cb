import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import weq.poly
from weq.analysis import PairAnalysis
from weq.poly import (
    MAX_QUOTIENT_TERMS,
    BinomialFactorization,
    MultiPoly,
    binomial_factors,
    divide_by_binomial,
    format_poly,
    minimal_monomials,
    pure_difference,
    pure_difference_divisors,
    _anchor_candidates,
    _divide_out,
    _divisor_keys,
    _line_keys,
    _packed,
)
from weq.search import random_equation_solved_by
from weq.textio import parse_system
from weq.words import LambdaVector, Word, _eliminate

from conftest import direction, evaluate, nonerasing_morphism, word_poly


def P(n, terms):
    return MultiPoly(n, terms)


# ---------------------------------------------------------------------------
# Test-only references: full quotient-and-remainder division, and
# factorization by trial division over every pairwise support direction,
# restarting the scan after each factor found.


def reference_divide(p: MultiPoly, lam: LambdaVector) -> MultiPoly | None:
    """Quotient by rewriting every monomial to its normal form, or None
    when the remainder (the sum of the normal forms) is nonzero."""
    plus, lam = lam.plus, lam.entries
    pos = [(i, l) for i, l in enumerate(lam) if l > 0]
    quotient: dict[tuple[int, ...], int] = {}
    remainder: dict[tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        k = min(e[i] // l for i, l in pos)
        for j in range(k):
            qe = tuple(ei - j * li - pi for ei, li, pi in zip(e, lam, plus))
            quotient[qe] = quotient.get(qe, 0) + c
        nf = tuple(ei - k * li for ei, li in zip(e, lam))
        remainder[nf] = remainder.get(nf, 0) + c
    if any(remainder.values()):
        return None
    return MultiPoly(p.n, quotient)


def reference_multiplicity(p: MultiPoly, lam: LambdaVector) -> tuple[int, MultiPoly]:
    """The multiplicity ``m`` of ``X^(lam+) - X^(lam-)`` in a nonzero ``p``
    and the quotient by its m-th power, by ``reference_divide`` until it
    leaves a remainder."""
    m = 0
    while (q := reference_divide(p, lam)) is not None:
        m, p = m + 1, q
    return m, p


def reference_shift_down(p: MultiPoly) -> tuple[tuple[int, ...], MultiPoly]:
    """The monomial content of ``p`` and ``p`` divided by it."""
    mins = tuple(min(e[i] for e in p.terms) for i in range(p.n))
    return mins, MultiPoly(p.n, {tuple(a - b for a, b in zip(e, mins)): c for e, c in p.terms.items()})


def reference_binomial_factors(p: MultiPoly) -> BinomialFactorization:
    content, cur = reference_shift_down(p)
    factors: dict[LambdaVector, int] = {}
    progressed = True
    while progressed:
        progressed = False
        support = sorted(cur.terms)
        cands = {
            direction(tuple(a - b for a, b in zip(e1, e2)))
            for i, e1 in enumerate(support)
            for e2 in support[i + 1 :]
        }
        for lam in sorted(cands, key=lambda lv: lv.entries):
            while (q := reference_divide(cur, lam)) is not None:
                factors[lam] = factors.get(lam, 0) + 1
                cur = q
                progressed = True
            if progressed:
                break
    extra, cur = reference_shift_down(cur)
    content = tuple(a + b for a, b in zip(content, extra))
    lead = max(cur.terms, key=lambda e: (sum(e), e))
    sign = -1 if cur.terms[lead] < 0 else 1
    return BinomialFactorization(
        sign,
        content,
        tuple(sorted(factors.items(), key=lambda kv: kv[0].entries)),
        cur * sign,
    )


def solved_pair_determinants(rng: random.Random, unknowns: int, max_side: int, count: int) -> list[MultiPoly]:
    """The first ``count`` nonzero determinants of random pairs of equations
    that share a non-erasing solution, over ``unknowns`` and ``unknowns + 1``
    unknowns in turn, with sides of at most ``max_side`` letters."""
    dets, draws = [], 0
    while len(dets) < count:
        h = nonerasing_morphism(rng, unknowns + draws % 2, 2, 3)
        draws += 1
        A, B = random_equation_solved_by(rng, h, max_side), random_equation_solved_by(rng, h, max_side)
        dets += filter(None, PairAnalysis(A, B).grid.values())
    return dets[:count]


def factorization_claims(dets: list[MultiPoly]) -> tuple[dict, list[str]]:
    """Each nonzero polynomial of ``dets`` against the references: it must
    factor as ``reference_binomial_factors`` says, its divisor directions
    must be its factor directions, and each single division by one of its
    anchor candidates must be ``reference_divide``'s quotient, or None for
    both when the candidate does not divide. Returns the sizes of the check
    and the claims that failed."""
    sizes = {"determinants": len(dets), "with_factor": 0, "divisions": 0, "exact": 0}
    failed = []
    for det in dets:
        fac = binomial_factors(det)
        if fac != reference_binomial_factors(det):
            failed.append(f"binomial_factors disagrees with the reference on {det}")
        if pure_difference_divisors(det) != tuple(lam for lam, _ in fac.factors):
            failed.append(f"the divisor directions of {det} are not its factor directions")
        sizes["with_factor"] += bool(fac.factors)
        for lam in _anchor_candidates(det._terms):
            q = divide_by_binomial(det, lam)
            sizes["divisions"] += 1
            sizes["exact"] += q is not None
            if q != reference_divide(det, lam):
                failed.append(f"divide_by_binomial disagrees with the reference on {det} by {lam}")
    return sizes, failed


def shift_claims(dets: list[MultiPoly], rng: random.Random) -> tuple[dict, list[str]]:
    """Each nonzero polynomial of ``dets`` times a monomial X^mu whose
    entries ``rng`` draws up to 10^6, so that the packed line keys of
    ``weq.poly`` run to about 200 bits: the divisor directions, factors and
    residual must not change, the content must grow by mu, and each
    quotient by a factor direction must be the unshifted one times X^mu.
    Returns the sizes of the check and the claims that failed."""
    sizes = {"determinants": len(dets), "quotients": 0}
    failed = []
    for det in dets:
        mu = tuple(rng.randint(0, 10**6) for _ in range(det.n))
        x_mu = MultiPoly.monomial(det.n, mu)
        big = det * x_mu
        fac, big_fac = binomial_factors(det), binomial_factors(big)
        shifted = BinomialFactorization(fac.sign, tuple(map(add, fac.content, mu)), fac.factors, fac.residual)
        if pure_difference_divisors(big) != pure_difference_divisors(det) or big_fac != shifted:
            failed.append(f"the factorization of {det} changes under the shift by X^{mu}")
        for lam, _ in fac.factors:
            sizes["quotients"] += 1
            q = divide_by_binomial(det, lam)
            if q is None or divide_by_binomial(big, lam) != q * x_mu:
                failed.append(f"the quotient of {det} by the direction {lam} changes under the shift by X^{mu}")
    return sizes, failed


def reference_minimal_monomials(p: MultiPoly) -> set[tuple[int, ...]]:
    """Minimal monomials by comparing every pair of support monomials."""
    supp = p.terms
    return {
        e
        for e in supp
        if not any(f != e and all(fi <= ei for fi, ei in zip(f, e)) for f in supp)
    }


def factor_directions(p: MultiPoly) -> tuple[LambdaVector, ...]:
    return tuple(lam for lam, _ in binomial_factors(p).factors)


def random_poly(rng, n, max_terms=5, max_exp=4, max_coeff=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        terms[e] = terms.get(e, 0) + c
    return MultiPoly(n, terms)


def random_mixed_lambda(rng, n, bound=3):
    """Coprime direction with nonempty positive and negative parts."""
    while True:
        vec = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v > 0 for v in vec) and any(v < 0 for v in vec):
            return direction(vec)


def directions(n: int):
    """Nonzero integer vectors with entries in -3..3."""
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)


def sparse_polys(n: int, max_terms: int = 3, max_exp: int = 3):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * n),
        st.sampled_from((-2, -1, 1, 2)),
        min_size=1,
        max_size=max_terms,
    ).map(lambda terms: MultiPoly(n, terms))


@st.composite
def binomial_products(draw):
    """``c * X^mu * product(pure difference^mult) * sparse residual`` over
    1-4 unknowns, at most five pure differences counted with multiplicity
    so the reference factorization stays fast."""
    n = draw(st.integers(1, 4))
    p = MultiPoly.monomial(
        n, draw(st.tuples(*[st.integers(0, 2)] * n)), draw(st.sampled_from((-2, -1, 1, 3)))
    )
    factors = draw(
        st.lists(st.tuples(directions(n), st.integers(1, 3)), max_size=3).filter(
            lambda fs: sum(m for _, m in fs) <= 5
        )
    )
    for vec, mult in factors:
        p = p * pure_difference(direction(vec)) ** mult
    return p * draw(sparse_polys(n))


def positive_kernel_point(lam: LambdaVector) -> tuple[int, ...]:
    """A strictly positive integer point on the hyperplane of ``lam``."""
    a = sum(v for v in lam.entries if v > 0)
    b = -sum(v for v in lam.entries if v < 0)
    assert a > 0 and b > 0
    return tuple(b if v > 0 else a if v < 0 else 1 for v in lam.entries)


def nonneg_kernel_basis(lam: LambdaVector) -> list[tuple[int, ...]]:
    """n-1 linearly independent non-negative points on the hyperplane."""
    n = len(lam)
    p = next(i for i, v in enumerate(lam.entries) if v)
    raw = []
    for i in range(n):
        if i == p:
            continue
        vec = [0] * n
        vec[i] = lam.entries[p]
        vec[p] = -lam.entries[i]
        raw.append(vec)
    v = positive_kernel_point(lam)
    c = 1 + max(abs(x) for vec in raw for x in vec)
    while True:
        basis = [tuple(x + c * vi for x, vi in zip(vec, v)) for vec in raw]
        if all(x >= 0 for b in basis for x in b) and len(_eliminate(basis, n)[0]) == n - 1:
            return basis
        c += 1


class TestArithmetic:
    def test_difference_of_squares(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert (x - y) * (x + y) == x * x - y * y

    def test_additive_inverse(self, rng):
        p = random_poly(rng, 3)
        assert not (p + (-p))

    def test_worked_determinant_expansion(self):
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        lhs = x * (x * x * y - z) * (x - 1)
        rhs = P(3, {(4, 1, 0): 1, (3, 1, 0): -1, (2, 0, 1): -1, (1, 0, 1): 1})
        assert lhs == rhs

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 0) * MultiPoly.variable(3, 0)

    def test_negative_power_rejected(self):
        # without the check the loop never ends, since -1 >> 1 is -1
        with pytest.raises(ValueError, match="^negative power$"):
            MultiPoly.variable(2, 0) ** -1

    def test_negative_variable_count_and_index_out_of_range(self):
        with pytest.raises(ValueError, match="^negative variable count$"):
            MultiPoly(-1)
        with pytest.raises(ValueError, match="^variable index 2 out of range$"):
            MultiPoly.variable(2, 2)

    @pytest.mark.parametrize(
        "terms",
        [{(0,): 0.5}, {(0,): Fraction(1, 2)}, {(1.0,): 2}, {(1,): 2, (Fraction(2),): 1}],
        ids=["half coefficient", "fraction coefficient", "float exponent", "fraction exponent"],
    )
    def test_non_integers_rejected(self, terms):
        with pytest.raises(ValueError):
            MultiPoly(1, terms)

    @given(st.integers(0, 6), st.integers(0, 6))
    def test_power_matches_repeated_product(self, a, b):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = x + 2 * y - 1
        q = MultiPoly.one(2)
        for _ in range(a):
            q = q * p
        assert p**a == q

    def test_power_takes_a_product_per_bit(self, monkeypatch):
        products = []
        mul = MultiPoly.__mul__

        def counted(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counted)
        p = MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1)
        assert p**0 == MultiPoly.one(2) and not products
        for k in range(1, 70):
            products.clear()
            p**k
            # one product per set bit, one square per bit after the first
            assert len(products) == k.bit_count() + k.bit_length() - 1, k


class TestEvaluate:
    def test_monomial_rule(self, rng):
        for _ in range(100):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(0, 5) for _ in range(n))
            gamma = tuple(rng.randint(0, 5) for _ in range(n))
            got = evaluate(MultiPoly.monomial(n, alpha), gamma)
            want = MultiPoly.monomial(1, (sum(a * g for a, g in zip(alpha, gamma)),))
            assert got == want

    def test_line_substitution(self):
        p = P(3, {(0, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): -1, (1, 1, 1): -1})
        assert evaluate(p, (1, 1, 1)) == P(1, {(0,): 1, (2,): 1, (1,): -1, (3,): -1})

    def test_zero_vector_sums_coefficients(self, rng):
        p = random_poly(rng, 3)
        total = sum(p.terms.values())
        assert evaluate(p, (0, 0, 0)) == MultiPoly.constant(1, total)

    def test_homomorphism(self, rng):
        for _ in range(100):
            n = rng.randint(1, 3)
            p, q = random_poly(rng, n), random_poly(rng, n)
            gamma = tuple(rng.randint(0, 4) for _ in range(n))
            assert evaluate(p * q, gamma) == evaluate(p, gamma) * evaluate(q, gamma)
            assert evaluate(p + q, gamma) == evaluate(p, gamma) + evaluate(q, gamma)


class TestWordPoly:
    def test_two_letters(self):
        assert word_poly(Word.from_letters("ab")) == P(1, {(0,): 1, (1,): 2})

    def test_empty_word(self):
        assert word_poly(Word(())) == MultiPoly.zero(1)

    def test_three_letters(self):
        assert word_poly(Word.from_letters("aba")) == P(1, {(0,): 1, (1,): 2, (2,): 1})

    def test_length_recoverable(self, rng):
        for _ in range(50):
            w = Word(tuple(rng.randrange(3) for _ in range(rng.randint(0, 6))))
            assert max(word_poly(w).terms, default=(-1,)) == (len(w) - 1,)


class TestDivision:
    def test_difference_of_squares(self):
        p = P(2, {(2, 0): 1, (0, 2): -1})
        q = divide_by_binomial(p, LambdaVector((1, -1)))
        assert q == P(2, {(1, 0): 1, (0, 1): 1})

    def test_worked_example_quotient(self):
        p = P(3, {(4, 1, 0): 1, (3, 1, 0): -1, (2, 0, 1): -1, (1, 0, 1): 1})
        q = divide_by_binomial(p, LambdaVector((2, 1, -1)))
        assert q == P(3, {(2, 0, 0): 1, (1, 0, 0): -1})

    def test_not_divisible(self):
        p = P(3, {(2, 1, 0): 1, (0, 0, 0): -1})
        assert divide_by_binomial(p, LambdaVector((2, 1, -1))) is None

    def test_exactness_fuzz(self, rng):
        for _ in range(200):
            n = rng.randint(2, 4)
            lam = random_mixed_lambda(rng, n)
            q = random_poly(rng, n)
            p = pure_difference(lam) * q
            got = divide_by_binomial(p, lam)
            if p:
                assert got is not None and got * pure_difference(lam) == p
            # a remainder-free division of a perturbed polynomial must
            # still multiply back exactly
            p2 = p + MultiPoly.monomial(n, tuple(rng.randint(0, 3) for _ in range(n)))
            got2 = divide_by_binomial(p2, lam)
            if got2 is not None:
                assert got2 * pure_difference(lam) == p2

    @given(st.data())
    def test_line_sum_verdict_matches_remainder(self, data):
        n = data.draw(st.integers(1, 4))
        lam = direction(data.draw(directions(n)))
        p = data.draw(sparse_polys(n, max_terms=6, max_exp=5))
        if data.draw(st.booleans()):
            p = p * pure_difference(lam)
        if data.draw(st.booleans()):
            p = p + data.draw(sparse_polys(n, max_terms=1, max_exp=5))
        assert divide_by_binomial(p, lam) == reference_divide(p, lam)

    def test_divide_zero(self):
        assert divide_by_binomial(MultiPoly.zero(2), LambdaVector((1, -1))) == MultiPoly.zero(2)

    def test_quotient_size_is_bounded(self):
        x_minus_1 = LambdaVector((1,))
        q = divide_by_binomial(P(1, {(MAX_QUOTIENT_TERMS,): 1, (0,): -1}), x_minus_1)
        assert len(q.terms) == MAX_QUOTIENT_TERMS
        with pytest.raises(ValueError, match="more than 100000"):
            divide_by_binomial(P(1, {(MAX_QUOTIENT_TERMS + 1,): 1, (0,): -1}), x_minus_1)
        # the bound is on the sum over lines: two lines of 60,000 terms each
        two_lines = P(2, {(60_000, 1): 1, (0, 1): -1, (60_000, 0): 1, (0, 0): -1})
        with pytest.raises(ValueError, match="could have 120000 terms"):
            divide_by_binomial(two_lines, LambdaVector((1, 0)))


@st.composite
def line_key_cases(draw):
    """A direction over 1-4 unknowns with entries up to 3 in absolute
    value, and a sparse polynomial times 0-3 powers of its pure difference,
    sometimes times the pure difference of k times the direction (a line of
    k + 1 points), shifted by a monomial with one exponent that may be in
    the thousands. The reference rewrites each monomial once per step
    along its line, so k and the other exponents stay small."""
    n = draw(st.integers(1, 4))
    lam = direction(draw(directions(n)))
    p = draw(sparse_polys(n, max_terms=4)) * pure_difference(lam) ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        k = draw(st.integers(2, 50))
        p = p * P(n, {tuple(k * v for v in lam.plus): 1, tuple(k * v for v in lam.minus): -1})
    shift = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    shift[draw(st.integers(0, n - 1))] += draw(st.sampled_from((0, 1000)))
    return lam, p * MultiPoly.monomial(n, shift)


@st.composite
def long_direction_cases(draw):
    """A sparse polynomial over 1-4 unknowns and a direction with an entry
    larger than every exponent entry of its support."""
    n = draw(st.integers(1, 4))
    p = draw(sparse_polys(n, max_terms=6))
    D = max(map(max, p.terms))
    vec = draw(directions(n))
    vec[draw(st.integers(0, n - 1))] = draw(st.sampled_from((1, -1))) * draw(st.integers(D + 1, 3 * D + 3))
    lam = direction(vec)
    assume(max(map(abs, lam)) > D)  # the gcd may bring every entry back within D
    return lam, p


@st.composite
def extreme_key_cases(draw):
    """Support exponents and direction entries drawn towards 0 and the
    largest exponent entry D (up to 10^6), where the cross products of the
    line keys reach 2D^2 in absolute value."""
    n = draw(st.integers(1, 4))
    top = draw(st.integers(1, 3) | st.integers(1, 10**6))
    entry = st.sampled_from((0, 1, top - 1, top)) | st.integers(0, top)
    exps = draw(st.lists(st.tuples(*[entry] * n), min_size=2, max_size=12, unique=True))
    D = max(map(max, exps))
    assume(D > 0)
    vec = draw(st.lists(st.sampled_from((1, -1, D, -D, D - 1, 1 - D)) | st.integers(-D, D), min_size=n, max_size=n))
    assume(any(vec))
    return direction(vec), MultiPoly(n, dict.fromkeys(exps, 1))


class TestLineKey:
    """Divisibility, multiplicity and quotient, read off the lines of the
    support keyed by their cross products with the direction, against the
    normal-form rewriting of ``reference_divide``."""

    @given(line_key_cases())
    @example((LambdaVector((1,)), P(1, {(1003,): 1, (1000,): -1}) ** 2 * P(1, {(1,): 1, (0,): 2})))
    @example((LambdaVector((3, -1, 0)), P(3, {(3, 0, 0): 1, (0, 1, 0): -1}) ** 2 * P(3, {(1, 0, 0): 1, (0, 0, 1): 1})))
    @example((LambdaVector((3, -1, 0)), P(3, {(3, 0, 2500): 1, (0, 1, 2500): -1}) * P(3, {(0, 1, 2500): 1, (0, 0, 0): 1})))
    @example((LambdaVector((0, 2, -3)), P(3, {(1, 2, 0): 1, (1, 0, 3): -1}) * P(3, {(0, 2, 0): 1, (0, 0, 3): 1})))
    # exponents near 10^6 on short lines: multi-word packed keys, where the
    # reference rewrites each monomial only a few times
    @example((LambdaVector((10**6, -1)), P(2, {(10**6, 0): 1, (0, 1): -1})))
    @example((LambdaVector((999_983, -1)), P(2, {(999_983, 0): 1, (0, 1): -1}) * P(2, {(1, 0): 1, (0, 999_000): 3})))
    @example((LambdaVector((2, -3, 0)), P(3, {(2, 0, 0): 1, (0, 3, 0): -1}) ** 2 * P(3, {(1, 0, 0): 1, (0, 0, 999_999): -1}) * P(3, {(0, 0, 1000): 1})))
    @example((LambdaVector((1, 999_999, -10**6)), P(3, {(1, 999_999, 0): 1, (0, 0, 10**6): -1}) * P(3, {(0, 1, 0): 1, (2, 0, 0): 1})))
    @example((LambdaVector((1, 0, -1, 0)), P(4, {(1, 0, 0, 10**6): 1, (0, 0, 1, 10**6): -1, (0, 10**6 - 1, 0, 0): 2})))
    # n = 1, with one line or several
    @example((LambdaVector((1,)), P(1, {(5,): 1, (0,): -1}) * P(1, {(7,): 1, (1,): 1})))
    @example((LambdaVector((1,)), P(1, {(1,): 1, (0,): -1}) ** 3 * P(1, {(1,): 2, (0,): 1}) * P(1, {(40,): 1})))
    def test_matches_repeated_reference(self, case):
        lam, p = case
        m, q = reference_multiplicity(p, lam)
        assert (_divisor_keys(p, lam) is not None) == (m > 0)
        assert _divide_out(p, lam, once=False) == (m, q)
        assert divide_by_binomial(p, lam) == reference_divide(p, lam)

    @given(long_direction_cases())
    @example((LambdaVector((10**6 + 1, -1)), P(2, {(10**6, 0): 1, (0, 1): -1})))
    @example((LambdaVector((1, -2)), P(2, {(1, 0): 1, (0, 1): -1})))
    def test_direction_longer_than_every_exponent(self, case):
        """An entry of the direction past the largest exponent entry puts
        no two support monomials on one line, so nothing divides."""
        lam, p = case
        assert reference_divide(p, lam) is None
        assert _divisor_keys(p, lam) is None
        assert _divide_out(p, lam, once=False) == (0, p)
        assert divide_by_binomial(p, lam) is None

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("c", [1, -3])
    def test_constants(self, n, c):
        """D = 0: every direction is longer than every exponent."""
        p = MultiPoly.constant(n, c)
        assert _packed(p) == (0, [1] * n, [0])
        for vec in ((1,) + (0,) * (n - 1), (1,) + (-1,) * (n - 1), (0,) * (n - 1) + (1,)):
            lam = LambdaVector(vec)
            assert reference_divide(p, lam) is None
            assert _divisor_keys(p, lam) is None
            assert _divide_out(p, lam, once=False) == (0, p)
            assert divide_by_binomial(p, lam) is None
        assert pure_difference_divisors(p) == ()
        assert binomial_factors(p) == reference_binomial_factors(p)

    def test_constant_over_no_variables(self):
        p = MultiPoly.constant(0, -5)
        assert _packed(p) == (0, [], [0])
        assert pure_difference_divisors(p) == ()
        fac = binomial_factors(p)
        assert fac == reference_binomial_factors(p) == BinomialFactorization(-1, (), (), MultiPoly.constant(0, 5))

    @given(extreme_key_cases())
    # a base of 2D + 1 in place of 4D^2 + 1 would give these two lines one key
    @example((LambdaVector((1, -2, 0)), P(3, {(2, 1, 0): 1, (0, 0, 1): 1})))
    def test_keys_are_exact(self, case):
        """Two terms get one packed key exactly when their cross products
        with the direction agree, that is when they share a line."""
        lam, p = case
        li = next(filter(None, lam))
        i = lam.index(li)
        cross = [tuple(li * a - e[i] * b for a, b in zip(e, lam)) for e in p.terms]
        keys = _line_keys(p, lam)[2]
        assert [[x == y for y in keys] for x in keys] == [[x == y for y in cross] for x in cross]

    def test_variable_count_mismatch(self):
        p = P(3, {(2, 0, 0): 1, (0, 1, 0): -1})
        for lam in (LambdaVector((2, -1)), LambdaVector((2, -1, 0, 0))):
            with pytest.raises(ValueError, match="variable count mismatch"):
                divide_by_binomial(p, lam)
            with pytest.raises(ValueError, match="variable count mismatch"):
                _divisor_keys(p, lam)


# (X - Y)^2 * (X^2 - Y) * (X + Y + 1): three anchor candidates, of which the
# last, (5, -3), divides nothing
SEVERAL_CANDIDATES = (
    pure_difference(LambdaVector((1, -1))) ** 2
    * pure_difference(LambdaVector((2, -1)))
    * P(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
)


class TestPacking:
    """Each polynomial keeps its own packing, made when a candidate first
    tests it, so a polynomial that no candidate reaches is never packed."""

    @pytest.mark.parametrize(
        "p",
        [MultiPoly.constant(2, 5), P(2, {(2, 1): 3}), P(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})],
        ids=["constant", "monomial", "no-candidate"],
    )
    def test_unreached_polynomial_stays_unpacked(self, p):
        assert _anchor_candidates(p._terms) == []
        assert pure_difference_divisors(p) == ()
        binomial_factors(p)
        assert p._packing is None

    def test_each_polynomial_is_packed_once(self, monkeypatch):
        built = []
        real = weq.poly._packed

        def counting(q):
            if q._packing is None:
                built.append(q)
            return real(q)

        monkeypatch.setattr(weq.poly, "_packed", counting)
        p = MultiPoly(2, SEVERAL_CANDIDATES.terms)
        assert len(_anchor_candidates(p._terms)) == 3
        for _ in range(2):
            assert pure_difference_divisors(p) == (LambdaVector((1, -1)), LambdaVector((2, -1)))
        assert len(built) == 1 and built[0] is p
        # the input, then the quotient by (X - Y)^2 and the one by X^2 - Y,
        # each tested by the next candidate
        fresh = MultiPoly(2, SEVERAL_CANDIDATES.terms)
        built.clear()
        binomial_factors(fresh)
        assert len(built) == len(set(map(id, built))) == 3
        assert built[0] is fresh

    def test_quotient_starts_unpacked(self):
        p = MultiPoly(2, SEVERAL_CANDIDATES.terms)
        m, q = _divide_out(p, LambdaVector((1, -1)), once=False)
        assert m == 2
        assert p._packing is not None
        assert q._packing is None
        assert divide_by_binomial(p, LambdaVector((2, -1)))._packing is None


class TestKeyedOnce:
    """The line-sum test hands its keys to the division, so each candidate
    direction of each polynomial is keyed once, whether it divides or not."""

    def test_no_candidate_is_keyed_twice(self, monkeypatch):
        keyed = []
        real = weq.poly._line_keys

        def counting(q, lam):
            keyed.append((q, lam))
            return real(q, lam)

        monkeypatch.setattr(weq.poly, "_line_keys", counting)
        candidates = _anchor_candidates(SEVERAL_CANDIDATES._terms)
        assert candidates == [LambdaVector((1, -1)), LambdaVector((2, -1)), LambdaVector((5, -3))]
        runs = [binomial_factors, pure_difference_divisors]
        runs += [lambda p, lam=lam: divide_by_binomial(p, lam) for lam in candidates]
        for run in runs:
            keyed.clear()
            run(MultiPoly(2, SEVERAL_CANDIDATES.terms))
            pairs = [(id(q), lam) for q, lam in keyed]
            assert pairs and len(pairs) == len(set(pairs))


class TestEvaluationIdentities:
    def test_difference_evaluation_formula(self, rng):
        # [X^a - X^b](g) == x^(b.g) * (x^((a-b).g) - 1) when (a-b).g >= 0
        for _ in range(200):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(0, 4) for _ in range(n))
            beta = tuple(rng.randint(0, 4) for _ in range(n))
            gamma = tuple(rng.randint(0, 4) for _ in range(n))
            d = sum((a - b) * g for a, b, g in zip(alpha, beta, gamma))
            if d < 0:
                alpha, beta = beta, alpha
                d = -d
            p = MultiPoly.monomial(n, alpha) - MultiPoly.monomial(n, beta)
            bg = sum(b * g for b, g in zip(beta, gamma))
            want = MultiPoly.monomial(1, (bg,)) * (MultiPoly.monomial(1, (d,)) - MultiPoly.one(1))
            assert evaluate(p, gamma) == want

    def test_vanishing_iff_orthogonal(self, rng):
        for _ in range(200):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(0, 4) for _ in range(n))
            beta = tuple(rng.randint(0, 4) for _ in range(n))
            gamma = tuple(rng.randint(0, 4) for _ in range(n))
            p = MultiPoly.monomial(n, alpha) - MultiPoly.monomial(n, beta)
            d = sum((a - b) * g for a, b, g in zip(alpha, beta, gamma))
            assert (not evaluate(p, gamma)) == (d == 0)

    def test_power_telescope(self, rng):
        # X^(ca) - X^(cb) == (X^a - X^b) * sum_i X^(i*a + (c-1-i)*b)
        for _ in range(100):
            n = rng.randint(1, 4)
            c = rng.randint(1, 5)
            alpha = tuple(rng.randint(0, 4) for _ in range(n))
            beta = tuple(rng.randint(0, 4) for _ in range(n))
            lhs = MultiPoly.monomial(n, tuple(c * a for a in alpha)) - MultiPoly.monomial(
                n, tuple(c * b for b in beta)
            )
            series = MultiPoly.zero(n)
            for i in range(c):
                series = series + MultiPoly.monomial(
                    n, tuple(i * a + (c - 1 - i) * b for a, b in zip(alpha, beta))
                )
            rhs = (MultiPoly.monomial(n, alpha) - MultiPoly.monomial(n, beta)) * series
            assert lhs == rhs


class TestDivisibilityVsVanishing:
    def test_binomial_difference_exact_criterion(self, rng):
        # for pure differences, vanishing at n-1 independent hyperplane
        # points decides divisibility exactly
        for _ in range(150):
            n = rng.randint(2, 4)
            lam = random_mixed_lambda(rng, n)
            basis = nonneg_kernel_basis(lam)
            mu = tuple(rng.randint(0, 2) for _ in range(n))
            m = rng.randint(1, 3)
            if rng.random() < 0.5:
                alpha = tuple(x + m * p for x, p in zip(mu, lam.plus))
                beta = tuple(x + m * q for x, q in zip(mu, lam.minus))
            else:
                alpha = tuple(rng.randint(0, 5) for _ in range(n))
                beta = tuple(rng.randint(0, 5) for _ in range(n))
            p = MultiPoly.monomial(n, alpha) - MultiPoly.monomial(n, beta)
            vanishes = all(not evaluate(p, g) for g in basis)
            divisible = divide_by_binomial(p, lam) is not None if p else True
            assert vanishes == divisible

    def test_general_polynomials(self, rng):
        for _ in range(100):
            n = rng.randint(2, 4)
            lam = random_mixed_lambda(rng, n)
            basis = nonneg_kernel_basis(lam)
            pos = positive_kernel_point(lam)
            samples = list(basis) + [pos]
            for _ in range(8):
                coeffs = [rng.randint(0, 2) for _ in basis]
                samples.append(
                    tuple(sum(c * g[i] for c, g in zip(coeffs, basis)) for i in range(n))
                )
            p = random_poly(rng, n)
            if not p:
                continue
            if divide_by_binomial(p, lam) is not None:
                assert all(not evaluate(p, g) for g in samples)
            else:
                # seeded: some sampled hyperplane point must witness it
                assert any(evaluate(p, g) for g in samples)


class TestBinomialFactors:
    def test_worked_determinant(self):
        p = P(3, {(4, 1, 0): 1, (3, 1, 0): -1, (2, 0, 1): -1, (1, 0, 1): 1})
        fac = binomial_factors(p)
        assert fac.sign == 1
        assert fac.content == (1, 0, 0)
        assert [(lam.entries, m) for lam, m in fac.factors] == [
            ((1, 0, 0), 1),
            ((2, 1, -1), 1),
        ]
        assert fac.residual == MultiPoly.one(3)
        assert fac.expand() == p

    def test_difference_of_squares_residual(self):
        p = P(2, {(2, 0): 1, (0, 2): -1})
        fac = binomial_factors(p)
        assert [(lam.entries, m) for lam, m in fac.factors] == [((1, -1), 1)]
        assert fac.residual == P(2, {(1, 0): 1, (0, 1): 1})

    def test_pure_monomial(self):
        fac = binomial_factors(P(2, {(2, 1): 3}))
        assert fac.content == (2, 1)
        assert fac.factors == ()
        assert fac.residual == MultiPoly.constant(2, 3)
        assert fac.sign == 1

    def test_negative_unit(self):
        fac = binomial_factors(P(1, {(0,): 1, (1,): -1}))  # 1 - X = -(X - 1)
        assert fac.sign == -1
        assert [(lam.entries, m) for lam, m in fac.factors] == [((1,), 1)]
        assert fac.residual == MultiPoly.one(1)

    def test_multiplicity(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = (x - y) * (x - y) * (x + y)
        fac = binomial_factors(p)
        assert [(lam.entries, m) for lam, m in fac.factors] == [((1, -1), 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^the zero polynomial has no factorization$"):
            binomial_factors(MultiPoly.zero(2))

    @pytest.mark.parametrize(
        "n, build, sign, factors",
        [
            (3, lambda x, y, z: 5 + 0 * x, 1, []),
            (3, lambda x, y, z: -3 + 0 * x, -1, []),
            (3, lambda x, y, z: -4 * x * x * z, -1, []),
            (1, lambda x: x**6 - 1, 1, [((1,), 1)]),
            (1, lambda x: (x - 1) ** 3 * x * x * (x + 2), 1, [((1,), 3)]),
            (3, lambda x, y, z: (x * x - y) ** 3 * (x + y), 1, [((2, -1, 0), 3)]),
            (3, lambda x, y, z: (y - x**3) * (x + z), -1, [((3, -1, 0), 1)]),
            (
                3,
                lambda x, y, z: (x**3 * y - z * z) * (x * x - y**3) * (x + z),
                1,
                [((2, -3, 0), 1), ((3, 1, -2), 1)],
            ),
        ],
        ids=[
            "constant",
            "negative-constant",
            "single-term",
            "n1",
            "n1-multiplicity",
            "multiplicity",
            "negative-lead",
            "large-entries",
        ],
    )
    def test_edge_cases_match_reference(self, n, build, sign, factors):
        p = build(*(MultiPoly.variable(n, i) for i in range(n)))
        fac = binomial_factors(p)
        assert fac == reference_binomial_factors(p)
        assert fac.sign == sign
        assert [(lam.entries, m) for lam, m in fac.factors] == factors

    @given(st.data())
    def test_expand_is_the_ring_expression(self, data):
        n = data.draw(st.integers(1, 5))
        content = data.draw(st.tuples(*[st.integers(0, 3)] * n).filter(any))
        vecs = data.draw(st.lists(directions(n), max_size=3))
        factors = tuple({direction(v): data.draw(st.integers(1, 3)) for v in vecs}.items())
        fac = BinomialFactorization(
            data.draw(st.sampled_from((1, -1))), content, factors, data.draw(sparse_polys(n, max_terms=4))
        )
        want = MultiPoly.monomial(n, content, fac.sign)
        for lam, m in factors:
            want = want * pure_difference(lam) ** m
        assert fac.expand() == want * fac.residual

    @given(binomial_products())
    def test_matches_reference_on_binomial_products(self, p):
        assert binomial_factors(p) == reference_binomial_factors(p)

    def test_normalizes_only_anchor_differences(self, monkeypatch):
        import weq.poly

        calls = []

        def counted(vec):
            calls.append(vec)
            return primitive(vec)

        primitive = weq.poly._primitive
        monkeypatch.setattr(weq.poly, "_primitive", counted)
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        p = (x * x - y) ** 2 * (x * y - z) * (x + y + z + 1)
        # p has zero content, so binomial_factors searches p's own support;
        # each difference is taken so that it is lexicographically positive
        support = p.terms
        lo, hi = min(support), max(support)
        anchored = {tuple(a - b for a, b in zip(e, lo)) for e in support} | {
            tuple(a - b for a, b in zip(hi, e)) for e in support
        }
        fac = binomial_factors(p)
        assert [(lam.entries, m) for lam, m in fac.factors] == [((1, 1, -1), 1), ((2, -1, 0), 2)]
        m = len(p.terms)
        assert 0 < len(calls) <= 2 * (m - 1) < m * (m - 1) // 2
        assert set(calls) <= anchored
        assert all(vec > (0,) * 3 for vec in calls)
        calls.clear()
        assert [lam.entries for lam in pure_difference_divisors(p)] == [(1, 1, -1), (2, -1, 0)]
        assert 0 < len(calls) <= 2 * (m - 1)
        assert set(calls) <= anchored

    def test_matches_reference_on_solved_pair_determinants(self, rng):
        # CI runs the same check on 2,000 determinants over 4 and 5 unknowns
        # with sides of at most 8 letters
        sizes, failed = factorization_claims(solved_pair_determinants(rng, 3, 6, 1000))
        assert failed == []
        assert sizes == {"determinants": 1000, "with_factor": 579, "divisions": 1444, "exact": 657}

    def test_factorization_is_shift_invariant(self, rng):
        # CI runs the same check on the first 500 determinants of its draw
        sizes, failed = shift_claims(solved_pair_determinants(rng, 3, 6, 100), random.Random(34))
        assert failed == []
        assert sizes == {"determinants": 100, "quotients": 79}

    def test_roundtrip_fuzz(self, rng):
        for _ in range(200):
            n = rng.randint(2, 4)
            lams = []
            while len(lams) < rng.randint(1, 3):
                lam = random_mixed_lambda(rng, n)
                if lam not in lams:
                    lams.append(lam)
            p = MultiPoly.monomial(n, tuple(rng.randint(0, 2) for _ in range(n)))
            for lam in lams:
                p = p * pure_difference(lam)
            sparse = MultiPoly(
                n,
                {
                    tuple(rng.randint(0, 5) for _ in range(n)): rng.choice((-1, 1))
                    for _ in range(rng.randint(1, 4))
                },
            )
            if not sparse:
                continue
            p = p * sparse
            fac = binomial_factors(p)
            assert fac.expand() == p
            for lam, _m in fac.factors:
                # canonical direction vectors are coprime with split parts
                LambdaVector(lam.entries)
                assert sum(x * y for x, y in zip(lam.plus, lam.minus)) == 0


class TestPureDifferenceDivisors:
    @given(binomial_products(), st.integers(0, 3))
    def test_match_factor_directions(self, p, shift):
        # binomial_products() carries monomial content; shift it further
        assert pure_difference_divisors(p) == factor_directions(p)
        q = p * MultiPoly.monomial(p.n, (shift,) * p.n)
        assert pure_difference_divisors(q) == factor_directions(q) == factor_directions(p)

    def test_worked_determinant(self):
        p = P(3, {(4, 1, 0): 1, (3, 1, 0): -1, (2, 0, 1): -1, (1, 0, 1): 1})
        assert [lam.entries for lam in pure_difference_divisors(p)] == [(1, 0, 0), (2, 1, -1)]

    def test_multiplicity_listed_once(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = x * (x - y) ** 3 * (x + y)
        assert [lam.entries for lam in pure_difference_divisors(p)] == [(1, -1)]

    def test_monomial_has_none(self):
        assert pure_difference_divisors(P(2, {(2, 1): -3})) == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^every pure difference divides the zero polynomial$"):
            pure_difference_divisors(MultiPoly.zero(2))


def assert_matches_sympy(sympy, p: MultiPoly, fac: BinomialFactorization) -> None:
    """A general-purpose factorizer finds exactly the same pure-difference
    factors and monomial content, and a residual with no such factor left."""
    import math

    n = p.n
    syms = sympy.symbols(f"v0:{n}")

    def to_sympy(q):
        expr = sympy.Integer(0)
        for e, c in q.terms.items():
            t = sympy.Integer(c)
            for s, ei in zip(syms, e):
                t *= s**ei
            expr += t
        return sympy.expand(expr)

    coeff, sfactors = sympy.factor_list(to_sympy(p))
    mine = {lam.entries: m for lam, m in fac.factors}
    theirs = {}
    content = [0] * n
    flips = 0
    others = sympy.Integer(1)
    for f, mult in sfactors:
        terms = sympy.Poly(f, *syms).terms()
        if len(terms) == 1 and abs(terms[0][1]) == 1:
            for i, ei in enumerate(terms[0][0]):
                content[i] += ei * mult
            if terms[0][1] == -1:
                flips += mult
            continue
        if len(terms) == 2 and sorted(int(c) for _, c in terms) == [-1, 1]:
            pos = next(e for e, c in terms if c == 1)
            neg = next(e for e, c in terms if c == -1)
            delta = tuple(a - b for a, b in zip(pos, neg))
            g = 0
            for v in delta:
                g = math.gcd(g, abs(v))
            if g == 1:
                lam = direction(delta)
                if next(v for v in delta if v) < 0:
                    flips += mult
                theirs[lam.entries] = theirs.get(lam.entries, 0) + mult
                continue
        others *= f**mult
    assert mine == theirs
    assert list(fac.content) == content
    lhs = to_sympy(fac.residual * fac.sign)
    rhs = sympy.expand(sympy.Integer(coeff) * sympy.Integer(-1) ** flips * others)
    assert sympy.expand(lhs - rhs) == 0


# Three-unknown pairs with 12-15-letter sides that share a solution; the
# first nonzero determinant of each has 190-203 terms.
LARGE_PAIRS = [
    "zzxxxyzyxxxxz = xxxxxxxxxxxxxzy\nzyzyxyzyzxzyxxz = xxxxxxxxyzxyyyy",
    "yzyzxzyyyyyxyxx = xzxzxzxxxyyyyyy\nyzxxyxzxxxzxyy = xzxxxxzxxxzxyx",
    "yyxyyzxyxxzxxxx = xxxxxzxxxxzxxxy\nyxyzzxyyzxyxzyx = xxxzzxxxzyyxzyy",
]


class TestAgainstGeneralFactorizer:
    def test_matches_sympy_irreducible_factorization(self, rng):
        import sympy
        for _ in range(40):
            n = rng.randint(2, 3)
            p = MultiPoly.monomial(
                n, tuple(rng.randint(0, 2) for _ in range(n)), rng.choice((-2, -1, 1, 3))
            )
            for _ in range(rng.randint(1, 3)):
                vec = [rng.randint(-2, 2) for _ in range(n)]
                if any(vec):
                    p = p * pure_difference(direction(vec))
            sparse = MultiPoly(
                n,
                {
                    tuple(rng.randint(0, 3) for _ in range(n)): rng.choice((-1, 1))
                    for _ in range(rng.randint(1, 3))
                },
            )
            if not sparse:
                continue
            p = p * sparse
            assert_matches_sympy(sympy, p, binomial_factors(p))

    @pytest.mark.parametrize("text", LARGE_PAIRS)
    def test_large_determinant_matches_sympy(self, text):
        import sympy
        system, _ = parse_system(text)
        E, Ep = system
        det = next(d for d in PairAnalysis(E, Ep).grid.values() if d)
        assert len(det.terms) >= 190
        assert_matches_sympy(sympy, det, binomial_factors(det))


class TestMinimalMonomials:
    def test_two_incomparable(self):
        assert minimal_monomials(P(3, {(2, 1, 0): 1, (0, 0, 1): -1})) == {
            (2, 1, 0),
            (0, 0, 1),
        }

    def test_worked_determinant(self):
        p = P(3, {(4, 1, 0): 1, (3, 1, 0): -1, (2, 0, 1): -1, (1, 0, 1): 1})
        assert minimal_monomials(p) == {(3, 1, 0), (1, 0, 1)}

    def test_constant(self):
        assert minimal_monomials(MultiPoly.constant(2, 5)) == {(0, 0)}

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^the zero polynomial has no minimal monomials$"):
            minimal_monomials(MultiPoly.zero(2))

    def test_oracle_agreement(self, rng):
        for _ in range(100):
            p = random_poly(rng, 3, max_terms=8)
            if not p:
                continue
            assert minimal_monomials(p) == reference_minimal_monomials(p)

    @given(sparse_polys(3, max_terms=12, max_exp=3))
    def test_matches_reference(self, p):
        assert minimal_monomials(p) == reference_minimal_monomials(p)

    @given(st.integers(1, 4), st.integers(0, 4), st.data())
    def test_matches_reference_with_degree_ties(self, n, degree, data):
        # a support spread over two total degrees, so that ties abound
        exps = st.lists(st.integers(0, degree + 1), min_size=n, max_size=n).filter(
            lambda e: sum(e) in (degree, degree + 1)
        )
        terms = data.draw(st.dictionaries(exps.map(tuple), st.sampled_from((-1, 1)), min_size=1))
        p = MultiPoly(n, terms)
        assert minimal_monomials(p) == reference_minimal_monomials(p)

    def test_equal_degree_support_is_all_minimal(self):
        p = P(3, {(2, 0, 0): 1, (1, 1, 0): -1, (0, 1, 1): 2, (0, 0, 2): 1})
        assert minimal_monomials(p) == set(p.terms)


class TestLowerBound:
    def test_factor_count_bounds_minimal_monomials(self, rng):
        # products of k distinct mixed-sign irreducible differences have
        # at least k+1 minimal monomials
        for _ in range(150):
            n = rng.randint(2, 4)
            lams = []
            while len(lams) < rng.randint(1, 3):
                lam = random_mixed_lambda(rng, n)
                if lam not in lams:
                    lams.append(lam)
            p = MultiPoly.one(n)
            for lam in lams:
                p = p * pure_difference(lam)
            sparse = MultiPoly(
                n,
                {
                    tuple(rng.randint(0, 4) for _ in range(n)): rng.choice((-1, 1))
                    for _ in range(rng.randint(1, 3))
                },
            )
            if not sparse:
                continue
            p = p * sparse
            k = len(binomial_factors(p).hyperplane_factors())
            assert len(minimal_monomials(p)) >= k + 1


class TestFormatting:
    def test_canonical_order(self):
        p = P(3, {(4, 1, 0): 1, (3, 1, 0): -1, (2, 0, 1): -1, (1, 0, 1): 1})
        assert str(p) == "X^4*Y - X^3*Y - X^2*Z + X*Z"

    def test_units_and_constants(self):
        assert str(MultiPoly.zero(2)) == "0"
        assert str(MultiPoly.constant(2, -7)) == "-7"
        assert format_poly(P(2, {(1, 1): -2, (0, 0): 1})) == "-2*X*Y + 1"
