import pytest

from weq.analysis import (
    STATUS_ALL_ZERO,
    STATUS_OK,
    PairAnalysis,
    PairDeterminant,
    bounds,
    cofactor_3vars,
    minimal_count_bounds,
    pair_report_json,
    solution_hyperplanes,
)
from weq.encode import is_balanced, minor, s_vector, t_det
from weq.poly import MultiPoly, binomial_factors, divide_by_binomial
from weq.search import SearchConfig, enumerate_solutions, random_equation
from weq.words import EqSystem, Equation, InternalError, Word, is_solution, unknown_names

from conftest import classes_of, eq, eq_n, linear_equivalent

E1 = eq("xyxz", "zxyx")
E2 = eq("xyxxz", "zxxyx")


class TestSolutionHyperplanes:
    def test_worked_example(self):
        report = solution_hyperplanes(E1, E2)
        assert report.status == STATUS_OK
        assert report.primary.pair == (0, 1)
        assert [lam.entries for lam in report.hyperplanes] == [(2, 1, -1)]
        assert report.constraints == ("2|h(x)| + |h(y)| = |h(z)|",)
        # the unit-direction factor of t12 is reported as an erasing diagnostic
        assert any("|h(z)| = 0" in note for note in report.erasing_notes)

    def test_identical_equations(self):
        report = solution_hyperplanes(E1, E1)
        assert report.status == STATUS_ALL_ZERO
        assert report.primary is None

    def test_equivalent_commutation_pair(self):
        # xy = yx and xxy = yxx have the same solutions, so every
        # determinant vanishes and no hyperplane report is possible;
        # the brute-force search confirms several classes exist.
        A, B = eq("xy", "yx"), eq("xxy", "yxx")
        report = solution_hyperplanes(A, B)
        assert report.status == STATUS_ALL_ZERO
        catalog = enumerate_solutions(EqSystem((A, B)), SearchConfig(6, 2))
        assert len(classes_of(catalog)) > 2

    def test_every_hyperplane_divides_primary_determinant(self, rng):
        seen = 0
        while seen < 20:
            A = random_equation(rng, 3, 8)
            B = random_equation(rng, 3, 8)
            report = solution_hyperplanes(A, B)
            if report.status != STATUS_OK:
                continue
            seen += 1
            for lam in report.hyperplanes:
                assert divide_by_binomial(report.primary.determinant, lam)


class TestCofactor:
    def test_worked_example(self):
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        assert cofactor_3vars(E1, E2) == x * (x * x * y - z)

    def test_dependent_rows_give_zero(self):
        assert cofactor_3vars(E1, E1) == MultiPoly.zero(3)

    def test_two_commutation_equations(self):
        A = eq_n("xy", "yx", 3)
        B = eq_n("xz", "zx", 3)
        t = cofactor_3vars(A, B)
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        triple = (t_det(A, B, 1, 2), t_det(A, B, 2, 0), t_det(A, B, 0, 1))
        assert triple == (t * (x - 1), t * (y - 1), t * (z - 1))

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            cofactor_3vars(eq_n("xy", "x", 3), E2)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            cofactor_3vars(eq("xy", "yx"), eq("xy", "yx"))

    def test_consistency_fuzz(self, rng):
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        units = (x - 1, y - 1, z - 1)
        seen = 0
        while seen < 60:
            A = random_equation(rng, 3, 8)
            B = random_equation(rng, 3, 8)
            if not (is_balanced(A) and is_balanced(B)):
                continue
            seen += 1
            t = cofactor_3vars(A, B)
            triple = (t_det(A, B, 1, 2), t_det(A, B, 2, 0), t_det(A, B, 0, 1))
            assert triple == tuple(t * u for u in units)


class TestMinimalCountBounds:
    def test_worked_example_pair(self):
        count, upper, lower = minimal_count_bounds(E1, E2, 1, 2)
        assert (count, upper, lower) == (2, 8, 2)

    def test_zero_determinant_rejected(self):
        with pytest.raises(ValueError, match=r"^determinant for pair \(1, 2\) is zero$"):
            minimal_count_bounds(E1, E1, 1, 2)

    def test_count_outside_the_bounds_is_an_internal_error(self, monkeypatch):
        # no determinant found so far breaks the bounds, so the count is forced to 0
        import weq.analysis

        monkeypatch.setattr(weq.analysis, "minimal_monomials", lambda p: set())
        with pytest.raises(InternalError) as raised:
            minimal_count_bounds(E1, E2, 1, 2)
        assert str(raised.value) == "minimal-monomial count 0 outside [2, 8] for pair (1, 2)"

    def test_fuzz_pairs(self, rng):
        checked = 0
        while checked < 60:
            n = rng.randint(2, 4)
            A = random_equation(rng, n, 10)
            B = random_equation(rng, n, 10)
            for j in range(n):
                for k in range(j + 1, n):
                    if t_det(A, B, j, k):
                        count, upper, lower = minimal_count_bounds(A, B, j, k)
                        assert lower <= count <= upper
                        checked += 1


class TestBounds:
    def test_worked_example(self):
        report = bounds(E1, E2)
        assert report.sum_bound == 18
        assert dict(report.pair_bounds)[(1, 2)] == 8
        assert report.best == 8
        assert report.status == STATUS_OK

    def test_pair_bound_uses_first_equation_occurrences(self):
        report = bounds(E1, E2)
        assert dict(report.pair_bounds)[(0, 1)] == 2 * (4 + 2)

    def test_identical_equations_status(self):
        report = bounds(E1, E1)
        assert report.status == STATUS_ALL_ZERO
        assert report.pair_bounds == ()
        assert report.best == report.sum_bound == 16

    def test_system_bounds_plus_two(self):
        assert PairAnalysis(E1, E2).system_size_bound() == bounds(E1, E2).best + 2 == 10

    def test_system_bounds_with_solution_flag(self):
        assert PairAnalysis(E1, E2).system_size_bound(has_rank_n1_solution=True) == bounds(E1, E2).best + 1 == 9


def balanced_equation(rng, n, max_side):
    left = [rng.randrange(n) for _ in range(rng.randint(1, max_side))]
    right = rng.sample(left, len(left))
    return Equation(Word(tuple(left)), Word(tuple(right)), n)


def pair_corpus(rng, count):
    """Seeded pairs in turn: random over 3 and over 4 unknowns, balanced
    over 3 unknowns, and identical (every determinant zero)."""
    pairs = []
    for i in range(count):
        kind = i % 4
        n = 4 if kind == 1 or (kind == 3 and i % 8 == 7) else 3
        if kind == 2:
            pairs.append((balanced_equation(rng, 3, 6), balanced_equation(rng, 3, 6)))
        else:
            A = random_equation(rng, n, 10)
            pairs.append((A, A if kind == 3 else random_equation(rng, n, 10)))
    return pairs


REPORT_KEYS = {
    "status", "bounds", "pair", "determinant", "content", "factors", "residual",
    "hyperplane_constraints", "erasing_notes",
}


def refuse_call(*args):
    raise AssertionError("computed after the call returned, or factored where no factor is read")


class TestPairAnalysis:
    def test_fields_match_direct_computation(self, rng):
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        kinds = set()
        for E, Ep in pair_corpus(rng, 200):
            n = E.n
            pa = PairAnalysis(E, Ep)
            assert pa.s_vectors == (s_vector(E), s_vector(Ep))
            grid = {(j, k): t_det(E, Ep, j, k) for j in range(n) for k in range(j + 1, n)}
            assert list(pa.grid.items()) == list(grid.items())
            nonzero = [pr for pr, det in grid.items() if det]
            occ = E.occurrences
            assert pa.sum_bound == E.size + Ep.size
            assert pa.pair_bounds == tuple(((j, k), 2 * (occ(j) + occ(k))) for j, k in nonzero)
            assert pa.best == min([E.size + Ep.size] + [b for _, b in pa.pair_bounds])
            assert pa.status == (STATUS_OK if nonzero else STATUS_ALL_ZERO)
            if nonzero:
                fac = binomial_factors(grid[nonzero[0]])
                assert pa.primary == PairDeterminant(nonzero[0], grid[nonzero[0]], fac)
                mixed = tuple(lam for lam, _ in fac.factors if not lam.is_erasing_constraint())
                assert pa.hyperplanes == mixed
                assert pa.constraints == tuple(lam.constraint_text(unknown_names(n)) for lam in mixed)
                assert len(pa.erasing_notes) == len(fac.factors) - len(mixed)
                assert set(pa.to_json()) == REPORT_KEYS | {"sign"}
            else:
                assert pa.primary is None
                assert pa.hyperplanes == pa.constraints == pa.erasing_notes == ()
                assert set(pa.to_json()) == REPORT_KEYS
            assert pa.to_json() == pair_report_json(E, Ep) == solution_hyperplanes(E, Ep).to_json()
            balanced = n == 3 and is_balanced(E) and is_balanced(Ep)
            if balanced:
                t = pa.cofactor
                assert (grid[(1, 2)], -grid[(0, 2)], grid[(0, 1)]) == (t * (x - 1), t * (y - 1), t * (z - 1))
                assert cofactor_3vars(E, Ep) == t
            else:
                with pytest.raises(ValueError):
                    pa.cofactor
            kinds.add((n, bool(nonzero), balanced))
        assert kinds >= {(3, True, True), (3, True, False), (4, True, False), (3, False, False), (4, False, False)}

    def test_solution_hyperplanes_factors_inside_the_call(self, monkeypatch):
        report = solution_hyperplanes(E1, E2)
        monkeypatch.setattr("weq.analysis.binomial_factors", refuse_call)
        assert report.primary.pair == (0, 1)
        assert [lam.entries for lam in report.hyperplanes] == [(2, 1, -1)]
        assert report.constraints == ("2|h(x)| + |h(y)| = |h(z)|",)
        assert len(report.erasing_notes) == 1

    def test_bounds_never_factor(self, monkeypatch):
        monkeypatch.setattr("weq.analysis.binomial_factors", refuse_call)
        report = bounds(E1, E2)
        assert (report.status, report.best) == (STATUS_OK, 8)
        assert bounds(E1, E1).status == STATUS_ALL_ZERO

    def test_bounds_are_computed_inside_the_call(self, monkeypatch):
        report = bounds(E1, E2)
        monkeypatch.setattr("weq.analysis.s_vector", refuse_call)
        assert dict(report.pair_bounds)[(1, 2)] == 8
        assert (report.status, report.sum_bound, report.best) == (STATUS_OK, 18, 8)

    def test_each_minor_is_built_once_and_primary_stops_at_the_first_nonzero(self, monkeypatch):
        built = []

        def counted(S, Sp, j, k):
            built.append((j, k))
            return minor(S, Sp, j, k)

        monkeypatch.setattr("weq.analysis.minor", counted)
        pa = PairAnalysis(E1, E2)
        assert pa.hyperplanes and built == [(0, 1)]
        assert list(pa.grid) == built == [(0, 1), (0, 2), (1, 2)]
        built.clear()
        same = PairAnalysis(E1, E1)
        assert same.primary is None and built == [(0, 1), (0, 2), (1, 2)]
        assert not any(same.grid.values()) and len(built) == 3

    def test_construction_computes_nothing(self, monkeypatch):
        for name in ("s_vector", "minor", "binomial_factors"):
            monkeypatch.setattr(f"weq.analysis.{name}", refuse_call)
        assert PairAnalysis(E1, E2).names == ("x", "y", "z")

    def test_unknown_counts_must_match(self):
        with pytest.raises(ValueError, match="^equations must share the unknown count$"):
            PairAnalysis(E1, eq("xy", "yx"))

    def test_names_default_to_unknown_names(self):
        assert PairAnalysis(E1, E2).names == ("x", "y", "z")
        assert PairAnalysis(E1, E2, ["u", "v", "w"]).constraints == ("2|h(u)| + |h(v)| = |h(w)|",)

    @pytest.mark.parametrize("names", [("x",), ("x", "y"), ("x", "y", "z", "w")])
    def test_names_of_the_wrong_length_are_refused(self, names):
        with pytest.raises(ValueError, match="expected 3 unknown names"):
            PairAnalysis(E1, E2, names)


class TestExclusiveSolutionSeparation:
    def test_common_and_exclusive_solutions_not_equivalent(self):
        # h solves both worked equations, h' solves only the first; both
        # have hyperplane rank, so they cannot be linearly equivalent
        cfg = SearchConfig(8, 2)
        common = enumerate_solutions(EqSystem((E1, E2)), cfg)
        only_first = enumerate_solutions(EqSystem((E1,)), cfg)
        exclusive = [
            h
            for members in classes_of(only_first).values()
            for h in members
            if not is_solution(h, EqSystem((E2,)))
        ]
        common_classes = classes_of(common)
        assert common_classes and exclusive
        for members in common_classes.values():
            for h in members[:3]:
                for hp in exclusive[:10]:
                    assert not linear_equivalent(h, hp)


class TestReportJson:
    def test_schema_keys(self):
        payload = pair_report_json(E1, E2)
        assert set(payload) >= {
            "status",
            "pair",
            "determinant",
            "content",
            "factors",
            "residual",
            "hyperplane_constraints",
            "bounds",
        }
        assert payload["pair"] == [1, 2]
        assert payload["bounds"]["best"] == 8
        assert payload["factors"] == [
            {"lambda": [0, 0, 1], "multiplicity": 1},
            {"lambda": [2, 1, -1], "multiplicity": 1},
        ]
