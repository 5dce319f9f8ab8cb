import pytest

from weq import (
    EqSystem,
    MultiPoly,
    SearchConfig,
    bounds,
    cofactor_3vars,
    divide_by_binomial,
    enumerate_solutions,
    is_balanced,
    is_solution,
    linear_equivalent,
    minimal_count_bounds,
    pair_report_json,
    solution_hyperplanes,
    system_bounds,
    t_det,
)
from weq.analysis import STATUS_ALL_ZERO, STATUS_OK
from weq.search import random_equation

from conftest import eq, eq_n

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
        assert len(catalog.classes) > 2

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

    def test_search_classes_are_subset_of_reported(self, rng):
        # soundness at desk scale: every hyperplane class found by
        # exhaustive search appears among the factor directions
        seen = 0
        while seen < 12:
            A = random_equation(rng, 3, 8)
            B = random_equation(rng, 3, 8)
            if A == B:
                continue
            report = solution_hyperplanes(A, B)
            if report.status != STATUS_OK:
                continue
            seen += 1
            catalog = enumerate_solutions(EqSystem((A, B)), SearchConfig(6, 2))
            reported = set(report.hyperplanes) | {
                lam for lam, _ in report.primary.factorization.factors
            }
            for cls in catalog.classes:
                assert cls.normal in reported, (A, B, cls.normal)


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
        with pytest.raises(ValueError):
            minimal_count_bounds(E1, E1, 1, 2)

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
        T = EqSystem((E1, E2))
        report = system_bounds(T)
        assert report.system_size_bound == report.best + 2 == 10

    def test_system_bounds_with_solution_flag(self):
        T = EqSystem((E1, E2))
        report = system_bounds(T, has_rank_n1_solution=True)
        assert report.system_size_bound == report.best + 1 == 9

    def test_system_bounds_needs_two_equations(self):
        with pytest.raises(ValueError):
            system_bounds(EqSystem((E1,)))


class TestExclusiveSolutionSeparation:
    def test_common_and_exclusive_solutions_not_equivalent(self):
        # h solves both worked equations, h' solves only the first; both
        # have hyperplane rank, so they cannot be linearly equivalent
        cfg = SearchConfig(8, 2)
        common = enumerate_solutions(EqSystem((E1, E2)), cfg)
        only_first = enumerate_solutions(EqSystem((E1,)), cfg)
        exclusive = [
            h
            for cls in only_first.classes
            for h in cls.members
            if not is_solution(h, E2)
        ]
        assert common.classes and exclusive
        for cls in common.classes:
            for h in cls.members[:3]:
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
