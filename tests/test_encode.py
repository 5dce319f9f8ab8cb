from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weq import encode
from weq.encode import balanced_residual, check_solution_poly, is_balanced, minor, s_vector, t_det
from weq.poly import MultiPoly, divide_by_binomial
from weq.search import (
    random_equation,
    random_equation_solved_by,
    random_morphism,
    verify_encoding,
)
from weq.words import EqSystem, Equation, Morphism, Word, gamma_normal, is_solution

from conftest import classes_of, delta_k, eq, eq_n, evaluate, morph, word_poly

E1 = eq("xyxz", "zxyx")
E2 = eq("xyxxz", "zxxyx")


def T(mapping, n=3):
    return MultiPoly(n, mapping)


def reference_s_poly(E, j):
    """One coefficient polynomial on its own scan: the signed prefix-product
    monomials of the occurrences of unknown ``j`` only."""
    terms = {}
    for side, sign in ((E.left, 1), (E.right, -1)):
        prefix = [0] * E.n
        for sym in side:
            if sym == j:
                key = tuple(prefix)
                nc = terms.get(key, 0) + sign
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
            prefix[sym] += 1
    return MultiPoly(E.n, terms)


def specialized(E, beta):
    """The coefficient vector at a length type: ``S(E)`` under ``X_i -> x^(beta_i)``."""
    return tuple(evaluate(p, beta) for p in s_vector(E))


class TestSPoly:
    def test_first_unknown(self):
        assert s_vector(E1)[0] == T({(0, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): -1, (1, 1, 1): -1})

    def test_last_unknown(self):
        assert s_vector(E1)[2] == T({(2, 1, 0): 1, (0, 0, 0): -1})

    def test_trivial_equation_all_zero(self):
        E = eq("xyx", "xyx")
        assert not any(s_vector(E))


class TestSVector:
    def test_printed_triple_first(self):
        assert s_vector(E1) == (
            T({(0, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): -1, (1, 1, 1): -1}),
            T({(1, 0, 0): 1, (1, 0, 1): -1}),
            T({(2, 1, 0): 1, (0, 0, 0): -1}),
        )

    def test_printed_triple_second(self):
        assert s_vector(E2) == (
            T(
                {
                    (0, 0, 0): 1,
                    (1, 1, 0): 1,
                    (2, 1, 0): 1,
                    (0, 0, 1): -1,
                    (1, 0, 1): -1,
                    (2, 1, 1): -1,
                }
            ),
            T({(1, 0, 0): 1, (2, 0, 1): -1}),
            T({(3, 1, 0): 1, (0, 0, 0): -1}),
        )

    def test_matches_componentwise_construction(self, rng):
        for _ in range(100):
            E = random_equation(rng, rng.randint(1, 4), 8)
            assert s_vector(E) == tuple(reference_s_poly(E, j) for j in range(E.n))

    def test_eval_of_zero_vector(self):
        E = eq("xy", "xy")
        assert specialized(E, (3, 5)) == (MultiPoly.zero(1), MultiPoly.zero(1))

    def test_eval_matches_substituted_vector(self, rng):
        # substituted, the prefix monomial of an occurrence is x^d, where d
        # is the length of the prefix under beta
        for _ in range(300):
            E = random_equation(rng, rng.randint(1, 4), 8)
            beta = tuple(rng.randint(0, 3) for _ in range(E.n))
            want = [MultiPoly.zero(1)] * E.n
            for side, sign in ((E.left, 1), (E.right, -1)):
                d = 0
                for sym in side:
                    want[sym] += MultiPoly.monomial(1, (d,), sign)
                    d += beta[sym]
            assert specialized(E, beta) == tuple(want)

    @pytest.mark.parametrize("beta", [(1,), (1, 2, 3), (1, -1)])
    def test_eval_rejects_bad_length_type(self, beta):
        with pytest.raises(ValueError):
            specialized(eq("xy", "yx"), beta)

    def test_zero_only_for_trivial(self, rng):
        for _ in range(200):
            E = random_equation(rng, rng.randint(1, 4), 8)
            vanishes = all(not p for p in s_vector(E))
            assert vanishes == (E.left == E.right)

    def test_eval_zero_needs_two_zero_coordinates(self, rng):
        # exhaustive over small length types for nontrivial equations
        count = 0
        while count < 40:
            E = random_equation(rng, 3, 7)
            if E.left == E.right:
                continue
            count += 1
            for beta in product(range(3), repeat=3):
                if any(specialized(E, beta)):
                    continue
                assert sum(1 for b in beta if b == 0) >= 2, (E, beta)


class TestPVector:
    def test_conjugacy_digits(self):
        h = morph("ab", "ba", "aba")
        assert tuple(map(word_poly, h.images)) == (
            MultiPoly(1, {(0,): 1, (1,): 2}),
            MultiPoly(1, {(0,): 2, (1,): 1}),
            MultiPoly(1, {(0,): 1, (1,): 2, (2,): 1}),
        )

    def test_all_empty(self):
        assert word_poly(Word(())) == MultiPoly.zero(1)

    def test_single_letters_are_constants(self):
        h = morph("a", "b")
        assert tuple(map(word_poly, h.images)) == (MultiPoly.constant(1, 1), MultiPoly.constant(1, 2))


def reference_check_solution_poly(E, h):
    """The encoding's solution test in Z[x]: the dot product of the coefficient
    vector at the length type of ``h`` with its digit polynomials vanishes."""
    digits = map(word_poly, h.images)
    return not sum(map(mul, specialized(E, h.length_type()), digits), MultiPoly.zero(1))


@st.composite
def check_cases(draw):
    """(E, h) over 1-4 unknowns and 1-30 letters, so the base 2^w of the
    check varies, with erasing images allowed and sides of up to about 12
    letters. Besides random pairs it draws solutions, solutions with one
    letter of one image changed (a non-solution of the same length type),
    and equations with an empty side."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 30))
    image = st.lists(st.integers(0, k - 1), max_size=5).map(Word)
    h = Morphism(tuple(draw(st.lists(image, min_size=n, max_size=n))), k)
    side = st.lists(st.integers(0, n - 1), max_size=12).map(Word)
    kind = draw(st.sampled_from(["random", "empty side", "solution", "mutated"]))
    if kind == "random":
        return Equation(draw(side), draw(side), n), h
    if kind == "empty side":
        u = draw(side)
        return (Equation(u, Word(()), n) if draw(st.booleans()) else Equation(Word(()), u, n)), h
    E = random_equation_solved_by(draw(st.randoms(use_true_random=False)), h, 12)
    if kind == "mutated":
        j = draw(st.integers(0, n - 1))
        im = list(h.images[j])
        if im and k > 1:
            i = draw(st.integers(0, len(im) - 1))
            im[i] = (im[i] + draw(st.integers(1, k - 1))) % k
            h = Morphism(h.images[:j] + (Word(im),) + h.images[j + 1 :], k)
    return E, h


class TestCheckSolutionPoly:
    def test_conjugacy_positive(self):
        E = eq("xz", "zy")
        assert check_solution_poly(E, morph("ab", "ba", "aba"))

    def test_conjugacy_negative(self):
        E = eq("xz", "zy")
        assert not check_solution_poly(E, morph("a", "b", "a"))

    def test_trivial_equation(self):
        assert check_solution_poly(eq("xy", "xy"), morph("abb", "ba"))

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            check_solution_poly(eq("xy", "yx"), morph("a", "b", "c"))

    def test_agrees_with_word_level(self, rng):
        for i in range(400):
            n = rng.randint(1, 4)
            k = rng.randint(1, 3)
            if i % 2 == 0:
                E = random_equation(rng, n, 10)
                h = random_morphism(rng, n, k, 6)
            else:
                h = random_morphism(rng, n, k, 6)
                E = random_equation_solved_by(rng, h, 5)
            assert check_solution_poly(E, h) == is_solution(h, EqSystem((E,)))

    @settings(max_examples=400)
    @given(check_cases())
    # the digit polynomials 1 + 2x and 1 + x of "ab" and "aa" equal the 3 of
    # "c" at x = 1 and x = 2, so a base of at most k(|u| + |v|) can be fooled
    @example((eq("x", "y"), morph("ab", "c")))
    @example((eq("x", "y"), morph("aa", "c")))
    @example((eq_n("", "", 1), morph("", k=1)))
    @example((eq_n("xx", "", 2), morph("", "ab")))
    @example((eq_n("", "xyx", 2), morph("", "b")))
    def test_matches_polynomial_reference(self, case):
        E, h = case
        assert check_solution_poly(E, h) == reference_check_solution_poly(E, h) == is_solution(h, EqSystem((E,)))

    def test_matches_reference_on_the_encoding_fuzz(self, monkeypatch):
        compared = []

        def both(E, h):
            got = check_solution_poly(E, h)
            compared.append(got == reference_check_solution_poly(E, h))
            return got

        monkeypatch.setattr(encode, "check_solution_poly", both)
        report = verify_encoding(10_000, seed=2024)
        assert len(compared) == 10_000 and all(compared)
        assert report["discrepancies"] == [] and 0 < report["positives"] < report["cases"]


@st.composite
def equation_pairs(draw):
    """Two equations over 1-5 unknowns, sides of 0-7 letters, each side
    starting with a prefix the two sides share, so that the first
    occurrences cancel in the coefficient vector."""
    n = draw(st.integers(1, 5))
    word = st.lists(st.integers(0, n - 1), max_size=4)

    def equation():
        prefix = draw(word)
        return Equation(Word(prefix + draw(word)), Word(prefix + draw(word)), n)

    return equation(), equation()


class TestDeterminants:
    @given(equation_pairs(), st.data())
    def test_minor_is_the_ring_expression(self, pair, data):
        S, Sp = map(s_vector, pair)
        j, k = (data.draw(st.integers(0, len(S) - 1)) for _ in range(2))
        det = minor(S, Sp, j, k)
        assert det == S[j] * Sp[k] - Sp[j] * S[k]
        assert minor(S, Sp, k, j) == -det
        assert not minor(S, Sp, j, j)
        assert not minor(S, S, j, k)

    @given(equation_pairs())
    def test_t_det_is_the_minor_of_the_s_vectors(self, pair):
        E, Ep = pair
        S, Sp = s_vector(E), s_vector(Ep)
        for j, k in product(range(E.n), repeat=2):
            assert t_det(E, Ep, j, k) == minor(S, Sp, j, k)
        for (j, k), bad in (((-1, 0), -1), ((0, E.n), E.n), ((E.n, -1), E.n)):
            with pytest.raises(IndexError, match=f"^unknown index {bad} out of range for n={E.n}$"):
                t_det(E, Ep, j, k)
        with pytest.raises(ValueError, match="^equations must share the unknown count$"):
            t_det(E, Equation(Ep.left, Ep.right, E.n + 1), 0, 0)

    def test_worked_example(self):
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        t = x * (x * x * y - z)
        assert t_det(E1, E2, 1, 2) == t * (x - 1)
        assert t_det(E1, E2, 2, 0) == t * (y - 1)
        assert t_det(E1, E2, 0, 1) == t * (z - 1)

    def test_same_index_zero(self):
        assert not t_det(E1, E2, 1, 1)

    def test_identical_equations_zero(self):
        for j, k in ((0, 1), (0, 2), (1, 2)):
            assert not t_det(E1, E1, j, k)

    def test_antisymmetry(self, rng):
        for _ in range(50):
            n = rng.randint(2, 4)
            A = random_equation(rng, n, 8)
            B = random_equation(rng, n, 8)
            j, k = rng.sample(range(n), 2)
            assert t_det(A, B, j, k) == -t_det(A, B, k, j)

    def test_row_linearity_under_shared_factor(self, rng):
        # determinant against itself vanishes; shared rows collapse
        for _ in range(30):
            n = rng.randint(2, 4)
            A = random_equation(rng, n, 8)
            j, k = rng.sample(range(n), 2)
            assert not t_det(A, A, j, k)

    def test_common_hyperplane_solution_divides_all_determinants(self):
        h = morph("a", "b", "aba")
        assert is_solution(h, EqSystem((E1, E2)))
        lam = gamma_normal(h)
        for j in range(3):
            for k in range(3):
                det = t_det(E1, E2, j, k)
                if det:
                    assert divide_by_binomial(det, lam) is not None

    def test_divisibility_on_searched_solutions(self, rng):
        # fuzzed pairs with exhaustively found hyperplane-rank common solutions
        from weq.search import SearchConfig, enumerate_solutions

        found = 0
        while found < 10:
            A = random_equation(rng, 3, 8)
            B = random_equation(rng, 3, 8)
            if A.left == A.right or B.left == B.right or A == B:
                continue
            normals = classes_of(enumerate_solutions(EqSystem((A, B)), SearchConfig(6, 2)))
            if not normals:
                continue
            found += 1
            for normal in normals:
                for j in range(3):
                    for k in range(j + 1, 3):
                        det = t_det(A, B, j, k)
                        if det:
                            assert divide_by_binomial(det, normal) is not None, (A, B, normal)


class TestBalanced:
    def test_worked_equation_balanced(self):
        assert is_balanced(E1)
        assert not balanced_residual(E1)

    def test_unbalanced_residual(self):
        E = eq("xy", "x")
        assert not is_balanced(E)
        assert balanced_residual(E) == MultiPoly(2, {(1, 1): 1, (1, 0): -1})

    def test_trivial_is_balanced(self):
        E = eq("xyx", "xyx")
        assert is_balanced(E) and not balanced_residual(E)

    def test_residual_is_difference_of_side_products(self, rng):
        for _ in range(300):
            n = rng.randint(1, 4)
            E = random_equation(rng, n, 10)
            left = tuple(E.left.count(j) for j in range(n))
            right = tuple(E.right.count(j) for j in range(n))
            expected = MultiPoly(n, {left: 1}) - MultiPoly(n, {right: 1})
            assert balanced_residual(E) == expected
            assert (not expected) == is_balanced(E)


class TestDeltaK:
    def test_erasing_z_makes_trivial(self):
        d = delta_k(E1, 2)
        assert d.n == 2
        assert d.left == d.right == Word((0, 1, 0))

    def test_reindexing(self):
        E = eq("xz", "zy")
        d = delta_k(E, 0)
        assert d.n == 2 and d.left == Word((1,)) and d.right == Word((1, 0))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            delta_k(E1, 3)
