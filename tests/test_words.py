import copy
import dataclasses
import json
import pickle
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weq.principal import principal_decompose
from weq.search import (
    SearchConfig,
    count_solutions,
    enumerate_solutions,
    random_equation,
    random_equation_solved_by,
    random_morphism,
)
from weq.words import (
    EqSystem,
    Equation,
    LambdaVector,
    Morphism,
    Word,
    _canonical_entries,
    _eliminate,
    _rank_and_normal,
    compose,
    gamma_matrix,
    gamma_normal,
    is_solution,
    rank,
)

from conftest import direction, eq, linear_equivalent, morph, reference_is_solution, theta_alpha


def reference_rank(rows) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
    return rank


def reference_normal(rows, n: int) -> tuple[int, ...] | None:
    """Canonical entries of the nullspace direction of ``rows`` (``n``
    columns) when the nullspace is one-dimensional, else None: a kernel
    vector by rational Gauss-Jordan elimination, scaled by the lcm of its
    denominators."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for row, pc in zip(m, pivots):
        v[pc] = -row[free]
    denom = lcm(*(x.denominator for x in v))
    return direction(int(x * denom) for x in v).entries


@st.composite
def integer_matrices(draw):
    """0-5 rows of 1-5 columns with entries -4..4, and the column count."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=5))
    return rows, n


@st.composite
def count_morphisms(draw):
    """Morphisms of 1-5 unknowns into 1-4 letters, images of length <= 6,
    whose occurrence-count matrices are non-negative."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    image = st.lists(st.integers(0, k - 1), max_size=6).map(lambda s: Word(tuple(s)))
    return Morphism(tuple(draw(st.lists(image, min_size=n, max_size=n))), k)


@st.composite
def systems_with_morphisms(draw):
    """A system of 1-3 equations over 1-4 unknowns and a morphism into 1-3
    letters. Each equation is drawn at random or among those the morphism
    solves, so both truth values of ``is_solution`` come up."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    word = lambda m, size: st.lists(st.integers(0, m - 1), max_size=size).map(Word)
    h = Morphism(tuple(draw(st.lists(word(k, 4), min_size=n, max_size=n))), k)
    rng = draw(st.randoms(use_true_random=False))
    equations = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            equations.append(random_equation_solved_by(rng, h, 5))
        else:
            equations.append(Equation(draw(word(n, 5)), draw(word(n, 5)), n))
    return EqSystem(tuple(equations)), h


CONJ = EqSystem((eq("xz", "zy"),))
H_CONJ = morph("ab", "ba", "aba")


class TestWord:
    def test_from_letters(self):
        assert Word.from_letters("aba") == Word((0, 1, 0))
        assert Word.from_letters("") == Word(())

    def test_concat_and_count(self):
        w = Word.from_letters("ab") + Word.from_letters("ba")
        assert str(w) == "abba"
        assert w.count(0) == 2 and w.count(1) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Word((-1,))

    @pytest.mark.parametrize("letters", [[-1], "a", [1.5], (0, None)])
    def test_rejects_non_letters(self, letters):
        with pytest.raises(ValueError):
            Word(letters)

    def test_is_the_tuple_of_its_letters(self):
        w = Word((0, 1, 0))
        assert w == (0, 1, 0) and hash(w) == hash((0, 1, 0))
        assert {(0, 1, 0): "t"}[w] == "t"
        assert type(w[1:]) is tuple and w[1:] == (1, 0)
        assert type(w.symbols) is tuple and w.symbols == (0, 1, 0)
        assert repr(w) == "Word((0, 1, 0))"

    def test_concatenation_is_a_word(self):
        w = Word((0,)) + Word((1, 1))
        assert type(w) is Word and w == (0, 1, 1)

    def test_pickle_round_trip(self):
        w = Word((2, 0, 1))
        back = pickle.loads(pickle.dumps(w))
        assert type(back) is Word and back == w

    def test_only_the_tuple_holds_the_letters(self):
        assert issubclass(Word, tuple) and Word.__slots__ == ()
        inherited = ("__len__", "__iter__", "__getitem__", "__bool__", "count", "letters")
        assert not set(inherited) & set(vars(Word))

    def test_str_spells_every_letter_by_number_past_z(self):
        assert str(Word((0, 1))) == "ab"
        assert str(Word((0, 25))) == "az"
        assert str(Word((0, 26))) == "<0><26>"
        assert str(Word((26, 0))) == "<26><0>"
        assert str(Word()) == ""


class TestLettersCheckedAtConstruction:
    """Equations and morphisms store checked ``Word``s, so the code that
    reads their letters never meets a letter out of range."""

    def test_equation_rejects_a_negative_unknown(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            Equation((-1, 0), (0, -1), 2)

    def test_morphism_rejects_a_negative_letter(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            Morphism(((-1,), (0,)), 2)

    def test_morphism_rejects_a_fractional_letter(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            Morphism(((0,), (0.5,)), 2)

    def test_apply_rejects_a_negative_letter(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            morph("a", "b").apply((-1,))

    def test_sides_and_images_are_stored_as_words(self):
        E = Equation((0, 1), (1, 0), 2)
        h = Morphism(((0, 1), ()), 2)
        assert all(type(w) is Word for w in (E.left, E.right, *h.images))
        assert E == eq("xy", "yx") and h == morph("ab", "", k=2)
        assert str(h.apply((1, 0))) == "ab"

    def test_a_word_argument_is_kept(self):
        u, v = Word((0, 1)), Word((1, 0))
        E, h = Equation(u, v, 2), Morphism((u, v), 2)
        assert E.left is u and E.right is v
        assert h.images[0] is u and h.images[1] is v

    # the images a caller may pass besides a tuple of Words: one checked
    # path turns each form into a tuple of Words
    IMAGE_FORMS = {
        "list": list,
        "tuples": tuple,
        "mixed": lambda ims: tuple(im if i % 2 else Word(im) for i, im in enumerate(ims)),
    }

    @pytest.mark.parametrize("form", IMAGE_FORMS.values(), ids=IMAGE_FORMS.keys())
    def test_every_image_form_builds_the_same_value(self, form):
        images = ((0, 1), (), (1, 1, 0))
        h, words = Morphism(form(images), 2), Morphism(tuple(map(Word, images)), 2)
        assert h == words and hash(h) == hash(words)
        assert type(h.images) is tuple and all(type(im) is Word for im in h.images)

    @pytest.mark.parametrize("form", IMAGE_FORMS.values(), ids=IMAGE_FORMS.keys())
    @pytest.mark.parametrize("bad,match", [((1, -1), "non-negative"), ((1, 2), "outside alphabet")])
    def test_every_image_form_checks_its_letters(self, form, bad, match):
        # the bad image is the middle one, a plain tuple in the mixed form too
        with pytest.raises(ValueError, match=match):
            Morphism(form(((0, 1), bad, (1, 1, 0))), 2)

    def test_equation_rejects_a_negative_count_and_an_unknown_out_of_range(self):
        with pytest.raises(ValueError, match="^number of unknowns must be non-negative$"):
            Equation(Word(()), Word(()), -1)
        with pytest.raises(ValueError, match=r"^unknown index out of range in \(2,\) \(n=2\)$"):
            Equation(Word((2,)), Word(()), 2)

    def test_morphism_rejects_a_negative_alphabet_size(self):
        with pytest.raises(ValueError, match="non-negative"):
            Morphism((Word(()),), -3)
        with pytest.raises(ValueError, match="non-negative"):
            Morphism((), -1)

    @pytest.mark.parametrize("images,k", [(((0, 2),), 2), (((), (1,)), 1), (((0,),), 0)])
    def test_morphism_rejects_a_letter_outside_its_alphabet(self, images, k):
        with pytest.raises(ValueError, match="outside alphabet"):
            Morphism(images, k)
        with pytest.raises(ValueError, match="outside alphabet"):
            Morphism(tuple(map(Word, images)), k)


class TestMorphismValue:
    """A ``Morphism`` is a slotted frozen dataclass: no per-instance
    ``__dict__``, and the checked and the trusted constructor build equal
    values."""

    H = Morphism((Word((0, 1)), Word(()), Word((1, 1, 0))), 2)

    def test_has_no_instance_dict(self):
        assert not hasattr(self.H, "__dict__")
        assert Morphism.__slots__ == ("images", "target_alphabet_size")
        assert not hasattr(Morphism._trusted(self.H.images, 2), "__dict__")

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.H.images = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.H.target_alphabet_size = 3

    @pytest.mark.parametrize(
        "clone",
        [lambda h: pickle.loads(pickle.dumps(h)), copy.deepcopy, copy.copy, dataclasses.replace],
        ids=["pickle", "deepcopy", "copy", "replace"],
    )
    def test_round_trips(self, clone):
        back = clone(self.H)
        assert back == self.H and hash(back) == hash(self.H)
        assert type(back) is Morphism and all(type(im) is Word for im in back.images)

    def test_replace_checks_the_new_fields(self):
        assert dataclasses.replace(self.H, target_alphabet_size=3) == Morphism(self.H.images, 3)
        with pytest.raises(ValueError, match="outside alphabet"):
            dataclasses.replace(self.H, target_alphabet_size=1)
        with pytest.raises(ValueError, match="non-negative"):
            dataclasses.replace(self.H, target_alphabet_size=-1)

    def test_trusted_equals_checked(self):
        trusted = Morphism._trusted(self.H.images, 2)
        assert type(trusted) is Morphism and trusted == self.H and hash(trusted) == hash(self.H)
        assert trusted.images is self.H.images and str(trusted) == str(self.H)


class TestApply:
    def test_conjugacy_image(self):
        # x z under x->ab, z->aba
        assert str(H_CONJ.apply(Word((0, 2)))) == "ababa"

    def test_empty_word(self):
        assert H_CONJ.apply(Word(())) == Word(())

    def test_plain_concatenation(self):
        h = morph("aa", "aa")
        assert str(h.apply(Word((0, 1)))) == "aaaa"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            H_CONJ.apply(Word((3,)))
        # the first letter is inside the domain, a later one is not
        with pytest.raises(ValueError):
            H_CONJ.apply(Word((0, 1, 3, 2)))


class TestIsSolution:
    def test_conjugacy_solution(self):
        assert is_solution(H_CONJ, CONJ)

    def test_trivial_system(self):
        h = morph("a", "b")
        assert is_solution(h, EqSystem((eq("xy", "xy"),)))

    def test_non_solution(self):
        assert not is_solution(morph("a", "b", "a"), CONJ)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_solution(morph("a", "b"), CONJ)


class TestIsSolutionAgainstReference:
    """``is_solution`` compares plain letter lists; the reference builds
    every image by concatenating checked ``Word``s."""

    @given(systems_with_morphisms())
    @example((CONJ, H_CONJ))
    @example((CONJ, morph("a", "b", "a")))
    def test_matches_the_concatenation_reference(self, case):
        T, h = case
        assert is_solution(h, T) == reference_is_solution(h, T)
        for E in T:
            one = EqSystem((E,))
            assert is_solution(h, one) == reference_is_solution(h, one)

    def test_seeded_solutions_and_non_solutions(self, rng):
        seen = Counter()
        for i in range(2000):
            n, k = rng.randint(1, 4), rng.randint(1, 3)
            if i % 2:
                h = random_morphism(rng, n, k, 4)
                E = random_equation_solved_by(rng, h, 4)
            else:
                E, h = random_equation(rng, n, 8), random_morphism(rng, n, k, 4)
            T = EqSystem((E,))
            expected = reference_is_solution(h, T)
            assert is_solution(h, T) == expected, (E, h)
            seen[expected] += 1
        assert min(seen.values()) > 500, seen

    def test_reference_rejects_a_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reference_is_solution(morph("a", "b"), CONJ)


class TestEqSystem:
    """A system is the tuple of its equations, checked where it is built,
    and the one argument type of every solver."""

    PAIR = (eq("xyxz", "zxyx"), eq("xyxxz", "zxxyx"))

    def test_is_the_tuple_of_its_equations(self):
        T = EqSystem(self.PAIR)
        assert T == self.PAIR and hash(T) == hash(self.PAIR)
        assert {self.PAIR: 1}[T] == 1
        assert type(T[:1]) is tuple and T[:1] == self.PAIR[:1]
        assert type(T.equations) is tuple and T.equations == self.PAIR
        assert EqSystem(list(self.PAIR)) == EqSystem(E for E in self.PAIR) == T
        assert T.n == 3 and len(T) == 2 and list(T) == list(self.PAIR)
        assert not hasattr(T, "__dict__")

    # each refused tuple of equations, with its message
    REFUSED = [
        ((), "a system needs at least one equation"),
        ((eq("x", "x"), eq("xy", "yx")), "all equations of a system must share the unknown count"),
    ]

    @pytest.mark.parametrize("equations, message", REFUSED, ids=["empty", "mixed-counts"])
    def test_refusals_keep_their_messages(self, equations, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EqSystem(equations)

    @pytest.mark.parametrize(
        "copy_of", [lambda T: pickle.loads(pickle.dumps(T)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_copies_go_through_the_checks(self, copy_of):
        T = EqSystem(self.PAIR)
        copied = copy_of(T)
        assert copied == T and type(copied) is EqSystem
        # a system built around the checks is refused when it is copied
        for equations, message in self.REFUSED:
            with pytest.raises(ValueError, match=f"^{message}$"):
                copy_of(tuple.__new__(EqSystem, equations))

    @pytest.mark.parametrize(
        "solve",
        [
            lambda E: is_solution(morph("a", "a"), E),
            lambda E: enumerate_solutions(E, SearchConfig(4, 2)),
            lambda E: count_solutions(E, SearchConfig(4, 2)),
            lambda E: principal_decompose(morph("a", "a"), E),
        ],
        ids=["is_solution", "enumerate_solutions", "count_solutions", "principal_decompose"],
    )
    def test_solvers_refuse_a_bare_equation(self, solve):
        E = eq("xy", "yx")
        assert solve(EqSystem((E,)))
        with pytest.raises(TypeError):
            solve(E)


class TestGammaMatrix:
    def test_conjugacy_counts(self):
        assert gamma_matrix(H_CONJ) == ((1, 1, 2), (1, 1, 1))

    def test_all_erasing(self):
        h = Morphism((Word(), Word()), 2)
        assert gamma_matrix(h) == ((0, 0), (0, 0))

    def test_single_letter(self):
        assert gamma_matrix(morph("aa")) == ((2,),)


class TestRank:
    def test_conjugacy_rank_two(self):
        assert rank(H_CONJ) == 2

    def test_zero_for_empty(self):
        assert rank(Morphism((Word(), Word(), Word()), 1)) == 0

    def test_identity_full_rank(self):
        assert rank(morph("a", "b", "c")) == 3

    def test_bareiss_matches_fraction_elimination(self, rng):
        def fraction_rank(rows):
            m = [[Fraction(v) for v in r] for r in rows]
            r = 0
            for c in range(len(m[0]) if m else 0):
                piv = next((i for i in range(r, len(m)) if m[i][c]), None)
                if piv is None:
                    continue
                m[r], m[piv] = m[piv], m[r]
                for i in range(len(m)):
                    if i != r and m[i][c]:
                        f = m[i][c] / m[r][c]
                        m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                r += 1
            return r

        for _ in range(300):
            rows = [
                [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))
            ]
            width = max(len(r) for r in rows)
            rows = [r + [0] * (width - len(r)) for r in rows]
            assert len(_eliminate(rows, width)[0]) == fraction_rank(rows)


class TestEliminationAgainstReference:
    @given(integer_matrices())
    @example(([], 1))
    @example(([[2, 4, 0], [0, -3, 6]], 3))
    @example(([[0, 0], [0, 0]], 2))
    def test_integer_matrices(self, matrix):
        rows, n = matrix
        assert len(_eliminate(rows, n)[0]) == reference_rank(rows)
        assert _rank_and_normal(rows, n) == (reference_rank(rows), reference_normal(rows, n))

    @given(count_morphisms())
    def test_count_matrices(self, h):
        rows = gamma_matrix(h)
        assert rank(h) == reference_rank(rows)
        expected = reference_normal(rows, h.domain_size)
        if expected is None:
            with pytest.raises(ValueError):
                gamma_normal(h)
        else:
            assert gamma_normal(h).entries == expected


class TestLinearEquivalent:
    def test_conjugacy_family(self):
        g2 = morph("ab", "ba", "ababa")
        assert linear_equivalent(H_CONJ, g2)

    def test_reflexive(self):
        assert linear_equivalent(H_CONJ, H_CONJ)

    def test_different_spans(self):
        assert not linear_equivalent(morph("a", "a", "a"), morph("a", "aa", "a"))

    def test_symmetric_and_transitive_on_powers(self, rng):
        for _ in range(50):
            n, k = rng.randint(1, 3), rng.randint(1, 3)
            h = Morphism(
                tuple(
                    Word(tuple(rng.randrange(k) for _ in range(rng.randint(0, 4))))
                    for _ in range(n)
                ),
                k,
            )
            a = theta_alpha([rng.randint(1, 3) for _ in range(k)], k)
            b = theta_alpha([rng.randint(1, 3) for _ in range(k)], k)
            ha, hb = compose(a, h), compose(b, h)
            assert linear_equivalent(h, ha) and linear_equivalent(ha, h)
            assert linear_equivalent(ha, hb)
            assert linear_equivalent(h, hb)


class TestGammaNormal:
    def test_conjugacy_normal(self):
        assert gamma_normal(H_CONJ).entries == (1, -1, 0)

    def test_worked_example_constraint(self):
        h = morph("a", "b", "aab")
        assert gamma_normal(h).entries == (2, 1, -1)

    def test_two_unknowns(self):
        assert gamma_normal(morph("a", "a")).entries == (1, -1)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            gamma_normal(morph("a", "b", "c"))

    def test_orthogonal_to_power_length_types(self, rng):
        lam = gamma_normal(H_CONJ)
        for _ in range(30):
            alpha = [rng.randint(1, 4), rng.randint(1, 4)]
            lt = compose(theta_alpha(alpha, 2), H_CONJ).length_type()
            assert sum(map(mul, lam.entries, lt)) == 0


class TestThetaAlpha:
    def test_identity(self):
        ident = theta_alpha((1, 1), 2)
        assert compose(ident, H_CONJ) == H_CONJ

    def test_letter_powers(self):
        t = theta_alpha((2, 3), 2)
        assert str(t.apply(Word.from_letters("ab"))) == "aabbb"

    def test_length_type_of_composition(self):
        t = theta_alpha((2, 1), 2)
        assert compose(t, H_CONJ).length_type() == (3, 3, 5)

    def test_solutions_closed_under_letter_powers(self, rng):
        for _ in range(50):
            alpha = [rng.randint(0, 3), rng.randint(0, 3)]
            assert is_solution(compose(theta_alpha(alpha, 2), H_CONJ), CONJ)

    def test_rank_preserved_by_positive_powers(self, rng):
        for _ in range(30):
            alpha = [rng.randint(1, 4), rng.randint(1, 4)]
            assert rank(compose(theta_alpha(alpha, 2), H_CONJ)) == rank(H_CONJ)


class TestLambdaVector:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            LambdaVector((0, 0))

    def test_rejects_non_coprime(self):
        for entries in ((2, 4), (-1, 2)):
            with pytest.raises(ValueError):
                LambdaVector(entries)

    def test_normalization(self):
        assert direction((0, -2, 4)).entries == (0, 1, -2)

    def test_is_the_tuple_of_its_entries(self):
        lam = LambdaVector((2, 1, -1))
        assert lam == (2, 1, -1) and hash(lam) == hash((2, 1, -1))
        assert {(2, 1, -1): 1}[lam] == 1
        assert sorted([LambdaVector((1, 0)), (0, 1)]) == [(0, 1), (1, 0)]
        assert json.dumps(lam) == "[2, 1, -1]"
        for copied in (pickle.loads(pickle.dumps(lam)), copy.deepcopy(lam)):
            assert copied == lam and type(copied) is LambdaVector
        assert LambdaVector([2, 1, -1]) == LambdaVector(v for v in (2, 1, -1)) == lam
        assert type(lam.entries) is tuple and lam.entries == lam
        assert not hasattr(lam, "__dict__")

    def test_every_normal_the_library_returns_is_one(self):
        pair = EqSystem((eq("xyxz", "zxyx"), eq("xyxxz", "zxxyx")))
        cfg = SearchConfig(8, 2)
        catalog = enumerate_solutions(pair, cfg)
        normals = [
            _rank_and_normal(gamma_matrix(H_CONJ), 3)[1],
            gamma_normal(H_CONJ),
            *count_solutions(pair, cfg).class_sizes,
            *catalog.counts.class_sizes,
            *(c.normal for c in catalog.classes),
        ]
        assert len(normals) == 5 and all(type(v) is LambdaVector for v in normals)

    def test_split_parts(self):
        lam = LambdaVector((2, 1, -1))
        assert lam.plus == (2, 1, 0)
        assert lam.minus == (0, 0, 1)
        assert sum(p * m for p, m in zip(lam.plus, lam.minus)) == 0

    def test_constraint_text(self):
        assert LambdaVector((2, 1, -1)).constraint_text() == "2|h(x)| + |h(y)| = |h(z)|"
        assert LambdaVector((1, 0, 0)).constraint_text() == "|h(x)| = 0"
        assert LambdaVector((2, 1, -1)).constraint_text("uvw") == "2|h(u)| + |h(v)| = |h(w)|"

    @pytest.mark.parametrize("names", [["x"], ["x", "y", "z", "w"]])
    def test_constraint_text_needs_one_name_per_entry(self, names):
        with pytest.raises(ValueError, match="expected 3 unknown names"):
            LambdaVector((2, 1, -1)).constraint_text(names)

    def test_erasing_constraint_flag(self):
        assert LambdaVector((1, 0, 0)).is_erasing_constraint()
        assert not LambdaVector((2, 1, -1)).is_erasing_constraint()

    @given(st.lists(st.just(0) | st.integers(-10**6, 10**6), min_size=1, max_size=6).map(tuple))
    @example((0, -2, 4))
    @example((0, 0, 0))
    def test_canonical_entries_match_slow_reference(self, vec):
        # zeros, leading ones included, make up about half of the entries
        if not any(vec):
            with pytest.raises(ValueError):
                _canonical_entries(vec)
            return
        g = reduce(gcd, vec, 0)
        for v in vec:
            if v:
                break
        expected = tuple(e // (g if v > 0 else -g) for e in vec)
        got = _canonical_entries(vec)
        assert type(got) is tuple and type(expected) is tuple
        assert got == expected

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda v: any(v)))
    def test_from_vector_canonical(self, vec):
        # the constructor accepts exactly the coprime vectors whose first
        # nonzero entry is positive
        canonical = gcd(*vec) == 1 and next(v for v in vec if v) > 0
        if canonical:
            assert LambdaVector(tuple(vec)).entries == tuple(vec)
        else:
            with pytest.raises(ValueError):
                LambdaVector(tuple(vec))
        # every nonzero vector is an integer multiple of a canonical one
        lam = direction(vec)
        nz = next(i for i, v in enumerate(vec) if v)
        c = vec[nz] // lam.entries[nz]
        assert all(v == c * e for v, e in zip(vec, lam.entries))

