"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from collections import defaultdict
from itertools import combinations, product

from weq.analysis import STATUS_OK, PairAnalysis, cofactor_3vars
from weq.encode import balanced_residual, is_balanced, s_vector, t_det
from weq.poly import MultiPoly, binomial_factors, minimal_monomials, pure_difference
from weq.principal import principal_decompose
from weq.search import (
    BoundCheckReport,
    SearchConfig,
    count_solutions,
    random_equation,
    random_equation_solved_by,
    verify_bounds,
    verify_encoding,
)
from weq.textio import parse_system
from weq.words import EqSystem, Equation, LambdaVector, Morphism, Word, compose, gamma_normal, is_solution, rank
from test_principal import solved_system_instances
from test_poly import random_mixed_lambda

from conftest import evaluate, is_trivial, linear_equivalent, nonerasing_morphism

SYSTEM, NAMES = parse_system("xyxz = zxyx\nxyxxz = zxxyx")
E1, E2 = SYSTEM


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_printed_s_vectors():
    P = lambda terms: MultiPoly(3, terms)
    expected1 = (
        P({(0, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): -1, (1, 1, 1): -1}),
        P({(1, 0, 0): 1, (1, 0, 1): -1}),
        P({(2, 1, 0): 1, (0, 0, 0): -1}),
    )
    expected2 = (
        P({(0, 0, 0): 1, (1, 1, 0): 1, (2, 1, 0): 1, (0, 0, 1): -1, (1, 0, 1): -1, (2, 1, 1): -1}),
        P({(1, 0, 0): 1, (2, 0, 1): -1}),
        P({(3, 1, 0): 1, (0, 0, 0): -1}),
    )
    assert s_vector(E1) == expected1
    assert s_vector(E2) == expected2
    elapsed = best_time(lambda: (s_vector(E1), s_vector(E2)))
    assert elapsed < 0.001, f"s_vector took {elapsed * 1e3:.3f} ms"
    report(1, f"coefficient vectors match the printed triples exactly ({elapsed * 1e6:.0f} us)")


def test_criterion_02_determinants_and_cofactor():
    def work():
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        t = x * (x * x * y - z)
        units = {0: x - 1, 1: y - 1, 2: z - 1}
        triple = {
            0: t_det(E1, E2, 1, 2),
            1: t_det(E1, E2, 2, 0),
            2: t_det(E1, E2, 0, 1),
        }
        for i in range(3):
            assert triple[i] == t * units[i]
            fac = binomial_factors(triple[i])
            assert fac.sign == 1
            assert fac.content == (1, 0, 0)
            unit = tuple(1 if j == i else 0 for j in range(3))
            assert sorted((lam.entries, m) for lam, m in fac.factors) == sorted(
                [(unit, 1), ((2, 1, -1), 1)]
            )
            assert fac.residual == MultiPoly.one(3)
        assert cofactor_3vars(E1, E2) == t

    work()
    elapsed = best_time(work)
    assert elapsed < 0.010, f"determinant pipeline took {elapsed * 1e3:.3f} ms"
    report(2, f"determinant triple, factorizations and cofactor exact ({elapsed * 1e3:.2f} ms)")


def test_criterion_03_encoding_equivalence():
    t0 = time.perf_counter()
    result = verify_encoding(10_000, seed=2024)
    elapsed = time.perf_counter() - t0
    assert result["cases"] == 10_000
    assert result["discrepancies"] == [], result["discrepancies"][:3]
    assert elapsed < 60
    report(
        3,
        f"word-level and polynomial-level solution tests agree on 10^4 cases "
        f"({result['positives']} positives, {elapsed:.1f} s)",
    )


def test_criterion_04_balancedness_formula():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    for _ in range(10_000):
        n = rng.randint(1, 4)
        E = random_equation(rng, n, 10)
        assert (not balanced_residual(E)) == is_balanced(E), E
    elapsed = time.perf_counter() - t0
    report(4, f"residual formula matches letter-count balance on 10^4 equations ({elapsed:.1f} s)")


def test_criterion_05_principal_decompositions():
    rng = random.Random(99)
    t0 = time.perf_counter()
    count = 0
    for T, h in solved_system_instances(rng, 1000):
        dec = principal_decompose(h, T)
        assert compose(dec.theta, dec.g) == h
        assert rank(dec.g) == len(set().union(*dec.g.images))
        if not is_trivial(T):
            assert len(set().union(*dec.g.images)) < T.n
        k = dec.theta.target_alphabet_size
        if k >= 2 and count % 3 == 0:
            perm = list(range(k))
            rng.shuffle(perm)
            theta2 = Morphism(
                tuple(Word(tuple(perm[s] for s in im)) for im in dec.theta.images), k
            )
            h2 = compose(theta2, dec.g)
            assert h2.length_type() == h.length_type()
            dec2 = principal_decompose(h2, T)
            assert dec2.g == dec.g
            assert dec2.theta.length_type() == dec.theta.length_type()
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 1000 and elapsed < 60
    report(5, f"10^3 decompositions: exact roundtrip, rank law, determinism ({elapsed:.1f} s)")


def _factor_corpus(rng, count):
    for _ in range(count):
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
                tuple(rng.randint(0, 5) for _ in range(n)): rng.choice((-1, 1))
                for _ in range(rng.randint(1, 4))
            },
        )
        if not sparse:
            continue
        yield p * sparse, lams


def test_criterion_06_factorization_roundtrip():
    rng = random.Random(1234)
    t0 = time.perf_counter()
    cases = 0
    for p, _lams in _factor_corpus(rng, 1000):
        fac = binomial_factors(p)
        assert fac.expand() == p
        for lam, _m in fac.factors:
            LambdaVector(lam.entries)  # re-validates coprimality and sign
            assert sum(x * y for x, y in zip(lam.plus, lam.minus)) == 0
        cases += 1
    elapsed = time.perf_counter() - t0
    assert cases >= 990
    report(6, f"{cases} factorizations multiply back exactly ({elapsed:.1f} s)")


def test_criterion_07_minimal_monomial_bounds():
    rng = random.Random(1234)
    lower_checked = 0
    for p, _lams in _factor_corpus(rng, 1000):
        k = len(binomial_factors(p).hyperplane_factors())
        assert len(minimal_monomials(p)) >= k + 1, p
        lower_checked += 1

    upper_checked = 0
    rng2 = random.Random(777)
    while upper_checked < 400:
        n = rng2.randint(2, 4)
        A = random_equation(rng2, n, 10)
        B = random_equation(rng2, n, 10)
        for j in range(n):
            for k in range(j + 1, n):
                det = t_det(A, B, j, k)
                if det:
                    bound = 2 * (A.occurrences(j) + A.occurrences(k))
                    assert len(minimal_monomials(det)) <= bound, (A, B, j, k)
                    upper_checked += 1
    report(
        7,
        f"minimal monomials: lower bound on {lower_checked} products, "
        f"upper bound on {upper_checked} determinants",
    )


def bound_check_pairs(rng: random.Random, cfg: SearchConfig):
    """Equation pairs over 3 unknowns of size at most 10, without end:
    first a pair sharing a constructed hyperplane-rank solution inside the
    search budget, so common classes exist whenever the pair counts, then
    a random pair, and so on."""
    while True:
        h = nonerasing_morphism(rng, 3, 2, 3)
        if rank(h) == 2 and sum(h.length_type()) <= cfg.max_total_image_length:
            A, B = random_equation_solved_by(rng, h, 5), random_equation_solved_by(rng, h, 5)
            if A.size <= 10 and B.size <= 10:
                yield A, B
                yield random_equation(rng, 3, 10), random_equation(rng, 3, 10)


def pair_claims(A: Equation, B: Equation, cfg: SearchConfig, sizes: dict, failed: list[str]) -> BoundCheckReport:
    """The paper's two pair claims on one pair within ``cfg``, as
    ``verify_bounds`` checks them: the pair has at most ``best`` classes,
    and each class normal divides every nonzero determinant of the pair. A
    failed claim is a line of ``failed``. A pair that ``verify_bounds``
    does not skip counts in ``sizes``: in ``pairs``, in ``with_class`` if
    it has a class, and in ``checks`` once for each (class normal, nonzero
    determinant) pair. Returns the report."""
    result = verify_bounds(A, B, cfg)
    if not result.ok:
        failed.append(f"{A}, {B}: {result}")
    if result.status == STATUS_OK:
        sizes["pairs"] += 1
        sizes["with_class"] += bool(result.classes)
        if result.classes:
            sizes["checks"] += result.classes * len(PairAnalysis(A, B).pair_bounds)
    return result


def bound_claims(cfg: SearchConfig, pairs: int) -> tuple[dict, list[str]]:
    """The paper's two pair claims (see ``pair_claims``) on the pairs of
    ``bound_check_pairs`` (seed 31337) within ``cfg``, until ``pairs`` of
    them are not skipped. Returns the sizes of the check and the claims
    that failed."""
    sizes = {"draws": 0, "pairs": 0, "with_class": 0, "most_classes": 0, "checks": 0}
    failed = []
    for A, B in bound_check_pairs(random.Random(31337), cfg):
        sizes["draws"] += 1
        result = pair_claims(A, B, cfg, sizes, failed)
        if result.status == STATUS_OK:
            sizes["most_classes"] = max(sizes["most_classes"], result.classes)
            if sizes["pairs"] == pairs:
                return sizes, failed


def test_criterion_08_bound_verification_at_desk_scale():
    # CI runs the same check on 500 pairs at L = 16
    t0 = time.perf_counter()
    sizes, failed = bound_claims(SearchConfig(10, 2), 50)
    elapsed = time.perf_counter() - t0
    assert failed == []
    assert sizes == {"draws": 80, "pairs": 50, "with_class": 10, "most_classes": 1, "checks": 24}
    assert elapsed < 600
    report(
        8,
        f"class counts within bounds and class normals dividing every determinant on {sizes['pairs']} "
        f"independent pairs ({sizes['with_class']} with classes, max {sizes['most_classes']}, "
        f"{sizes['checks']} divisor checks, {sizes['draws']} attempts, {elapsed:.1f} s)",
    )


def test_criterion_09_conjugacy_family():
    t0 = time.perf_counter()
    T, _ = parse_system("xz = zy")
    family = []
    for i in range(5):
        g = Morphism.from_images("ab", "ba", "ab" * i + "a")
        assert is_solution(g, T)
        assert gamma_normal(g).entries == (1, -1, 0)
        family.append(g)
    for a, b in combinations(family, 2):
        assert linear_equivalent(a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    report(9, f"five conjugacy solutions share the hyperplane (1, -1, 0) ({elapsed * 1e3:.0f} ms)")


def test_criterion_10_evaluation_identities():
    rng = random.Random(4242)
    for _ in range(1000):
        n = rng.randint(1, 5)
        alpha = tuple(rng.randint(0, 5) for _ in range(n))
        beta = tuple(rng.randint(0, 5) for _ in range(n))
        gamma = tuple(rng.randint(0, 5) for _ in range(n))
        c = rng.randint(1, 5)

        # (1) monomial evaluation is the dot-product power
        assert evaluate(MultiPoly.monomial(n, alpha), gamma) == MultiPoly.monomial(
            1, (sum(a * g for a, g in zip(alpha, gamma)),)
        )

        # (2) difference evaluation factors through the smaller exponent
        a2, b2 = alpha, beta
        d = sum((a - b) * g for a, b, g in zip(a2, b2, gamma))
        if d < 0:
            a2, b2, d = b2, a2, -d
        diff = MultiPoly.monomial(n, a2) - MultiPoly.monomial(n, b2)
        base = sum(b * g for b, g in zip(b2, gamma))
        assert evaluate(diff, gamma) == MultiPoly.monomial(1, (base,)) * (
            MultiPoly.monomial(1, (d,)) - MultiPoly.one(1)
        )

        # (3) the evaluation vanishes exactly on the orthogonal hyperplane
        full_diff = MultiPoly.monomial(n, alpha) - MultiPoly.monomial(n, beta)
        dot = sum((a - b) * g for a, b, g in zip(alpha, beta, gamma))
        assert (not evaluate(full_diff, gamma)) == (dot == 0)

        # (4) the c-th power telescopes
        lhs = MultiPoly.monomial(n, tuple(c * a for a in alpha)) - MultiPoly.monomial(
            n, tuple(c * b for b in beta)
        )
        series = MultiPoly.zero(n)
        for i in range(c):
            series = series + MultiPoly.monomial(
                n, tuple(i * a + (c - 1 - i) * b for a, b in zip(alpha, beta))
            )
        assert lhs == full_diff * series
    report(10, "evaluation identities (1)-(4) hold on 10^3 random instances")


def reduced_equations(max_side: int):
    """Every reduced equation over x, y, z in which each unknown occurs, with
    sides of 1 to ``max_side`` unknowns, each equation once: its sides differ
    in their first and in their last unknown, so no unknown cancels off
    either end."""
    sides = [w for length in range(1, max_side + 1) for w in product(range(3), repeat=length)]
    for u, v in combinations(sides, 2):
        if u[0] != v[0] and u[-1] != v[-1] and len(set(u + v)) == 3:
            yield Equation(Word(u), Word(v), 3)


def pair_claims_in_scope(max_side: int, cfg: SearchConfig) -> tuple[dict, list[str]]:
    """The paper's two pair claims (see ``pair_claims``) on every pair of
    ``reduced_equations`` within ``cfg``. Returns the sizes of the scope
    and the claims that failed.

    A common solution solves each equation with the same count matrix, so a
    pair has a class of normal v only if each of its equations alone has
    one. So each equation is counted alone, and only the pairs that share a
    class normal are checked; every other pair has no class and meets both
    claims. As in ``verify_bounds``, a pair whose determinants are all zero
    has no bound and is skipped."""
    equations = list(reduced_equations(max_side))
    holders = defaultdict(list)
    for i, E in enumerate(equations):
        for normal in count_solutions(EqSystem((E,)), cfg).class_sizes:
            holders[normal].append(i)
    sharing = sorted({pair for held in holders.values() for pair in combinations(held, 2)})
    sizes = {"equations": len(equations), "sharing": len(sharing), "pairs": 0, "with_class": 0, "checks": 0}
    failed = []
    for i, j in sharing:
        pair_claims(equations[i], equations[j], cfg, sizes, failed)
    return sizes, failed


def test_criterion_11_pair_claims_in_a_small_scope():
    t0 = time.perf_counter()
    sizes, failed = pair_claims_in_scope(3, SearchConfig(10, 2))
    elapsed = time.perf_counter() - t0
    assert failed == []
    assert sizes == {"equations": 264, "sharing": 543, "pairs": 543, "with_class": 36, "checks": 84}
    report(
        11,
        f"bound and divisor claims on every pair of {sizes['equations']} reduced equations with sides "
        f"of at most 3 unknowns ({sizes['pairs']} pairs counted, {sizes['with_class']} with a class, "
        f"{sizes['checks']} divisor checks, {elapsed:.1f} s)",
    )
