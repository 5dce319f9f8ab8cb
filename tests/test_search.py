import dataclasses
import gc
import random
from collections import Counter
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weq.analysis import PairAnalysis
from weq.encode import check_solution_poly, t_det
from weq.principal import principal_decompose
from weq.search import (
    BoundCheckReport,
    MAX_CANDIDATES,
    SearchConfig,
    SearchSpaceError,
    SolutionCounts,
    _KIND_CACHE_SIZE,
    _columns,
    _feasible_length_types,
    _kind,
    _position_templates,
    _preimages,
    count_solutions,
    enumerate_solutions,
    random_equation,
    random_morphism,
    random_word,
    search_space_size,
    verify_bounds,
    verify_encoding,
)
from weq.words import (
    EqSystem,
    Equation,
    Morphism,
    Word,
    compose,
    gamma_matrix,
    gamma_normal,
    is_solution,
    rank,
)

from conftest import (
    against_defect_theorem,
    classes_of,
    defect_theorem_sweep,
    delta_k,
    direction,
    eq,
    eq_n,
    is_trivial,
    morph,
    theta_alpha,
    two_unknown_system,
)
from test_poly import reference_divide
from test_words import reference_normal, reference_rank

CONJ = EqSystem((eq("xz", "zy"),))
PAIR = EqSystem((eq("xyxz", "zxyx"), eq("xyxxz", "zxxyx")))


def _words_of_length(k: int, length: int) -> list[bytes]:
    return [bytes(p) for p in product(range(k), repeat=length)]


def reference_length_type(sides, k: int, lt) -> list[tuple[tuple[int, ...], ...]]:
    """Every image tuple of length type ``lt`` whose sides agree, found by
    comparing the concatenated images of each equation as byte strings."""
    found = []
    for images in product(*(_words_of_length(k, l) for l in lt)):
        if all(b"".join(images[s] for s in u) == b"".join(images[s] for s in v) for u, v in sides):
            found.append(tuple(tuple(b) for b in images))
    return found


def reference_position_templates(sides, lt) -> tuple[int, list[list[int]]]:
    """The position classes of one length type by a union-find over cell
    generators, numbered by their first cell; oracle for
    ``_position_templates``."""
    starts = [0]
    for l in lt:
        starts.append(starts[-1] + l)
    parent = list(range(starts[-1]))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def cells(word):
        for s in word:
            yield from range(starts[s], starts[s + 1])

    for u, v in sides:
        for a, b in zip(cells(u), cells(v)):
            parent[find(a)] = find(b)
    number: dict[int, int] = {}
    of_cell = [number.setdefault(find(c), len(number)) for c in range(starts[-1])]
    return len(number), [of_cell[starts[j] : starts[j + 1]] for j in range(len(lt))]


def reference_length_types(system: EqSystem, cfg: SearchConfig) -> list[tuple[int, ...]]:
    """Every length type within budget that balances each equation's side
    lengths, by a filter over all of them, by total and then lexicographically."""
    n, L = system.n, cfg.max_total_image_length
    minimum = 0 if cfg.allow_erasing else 1
    lts = [
        lt
        for lt in product(range(minimum, L + 1), repeat=n)
        if sum(lt) <= L
        and all(sum(l * (e.left.count(j) - e.right.count(j)) for j, l in enumerate(lt)) == 0 for e in system)
    ]
    return sorted(lts, key=lambda lt: (sum(lt), lt))


def reference_catalog(system: EqSystem, cfg: SearchConfig):
    """Solutions by the product scan, with the kinds and counts read off
    the rank and normal of every solution by the reference eliminations
    of ``test_words``."""
    sides = tuple((e.left.symbols, e.right.symbols) for e in system)
    solutions = [
        Morphism(tuple(Word(im) for im in images), cfg.alphabet_size)
        for lt in _feasible_length_types(system, cfg)
        for images in reference_length_type(sides, cfg.alphabet_size, lt)
    ]
    return (tuple(solutions),) + reference_kinds(solutions, system.n, cfg)


def reference_kinds(solutions, n: int, cfg: SearchConfig):
    """The kinds and counts of a list of solutions, with the classes
    numbered by their sorted normals."""
    ranks = [reference_rank(gamma_matrix(h)) for h in solutions]
    normals = [reference_normal(gamma_matrix(h), n) if r == n - 1 else None for h, r in zip(solutions, ranks)]
    class_sizes = dict(sorted(Counter(v for v in normals if v is not None).items()))
    index = {v: i for i, v in enumerate(class_sizes)}
    kinds = tuple((r, -1 if v is None else index[v]) for r, v in zip(ranks, normals))
    counts = SolutionCounts(n, cfg, len(solutions), dict(sorted(Counter(ranks).items())), class_sizes)
    return kinds, counts


def assert_matches_reference(system: EqSystem, cfg: SearchConfig) -> None:
    catalog = enumerate_solutions(system, cfg)
    solutions, kinds, counts = reference_catalog(system, cfg)
    assert all(type(im) is Word for h in catalog.solutions for im in h.images)
    assert catalog.solutions == solutions
    assert catalog.kinds == kinds
    assert catalog.counts == counts
    assert list(catalog.counts.class_sizes) == list(counts.class_sizes)
    assert catalog.by_rank == {
        r: tuple(h for h, (s, _) in zip(solutions, kinds) if s == r) for r in counts.rank_counts
    }
    assert [(c.normal, c.members) for c in catalog.classes] == [
        (normal, tuple(h for h, (_, c) in zip(solutions, kinds) if c == i))
        for i, normal in enumerate(counts.class_sizes)
    ]
    examples = [solutions[kinds.index((system.n - 1, i))] for i in range(len(counts.class_sizes))]
    assert [c["example"] for c in catalog.summary()["classes"]] == [[str(im) for im in h.images] for h in examples]


@st.composite
def small_searches(draw):
    """Systems of 1-3 equations over 1-4 unknowns, searched over 1-4
    letters up to total image length 6, or 5 over 4 letters, which keeps
    the largest product scan below that of 3 letters at length 6."""
    n = draw(st.integers(1, 4))
    word = st.lists(st.integers(0, n - 1), max_size=5).map(lambda s: Word(tuple(s)))
    equations = draw(st.lists(st.builds(Equation, word, word, st.just(n)), min_size=1, max_size=3))
    k = draw(st.integers(1, 4))
    cfg = SearchConfig(draw(st.integers(0, 6 if k < 4 else 5)), k, allow_erasing=draw(st.booleans()))
    return EqSystem(tuple(equations)), cfg


def assert_complement_order(system: EqSystem, cfg: SearchConfig) -> None:
    """Within each length type of the catalog, whose N = k^c solutions are
    the assignments to its c position classes, solution N-1-i is solution i
    with each letter l renamed k-1-l, and has the same kind; and listing
    each type classifies at most ceil(N/2) keys."""
    from weq import search

    k = cfg.alphabet_size
    sides = tuple((e.left, e.right) for e in system)
    real_templates, real_kind, calls = search._position_templates, search._kind, []
    with pytest.MonkeyPatch.context() as mp:
        # a type's keys are classified after its templates are built and before the next type's
        mp.setattr(search, "_position_templates", lambda sides, lt: calls.append([]) or real_templates(sides, lt))
        mp.setattr(search, "_kind", lambda rows, n: calls[-1].append(rows) or real_kind(rows, n))
        catalog = enumerate_solutions(system, cfg)
    lts = _feasible_length_types(system, cfg)
    assert len(calls) == len(lts)
    start = 0
    for lt, classified in zip(lts, calls):
        size = k ** _position_templates(sides, lt)[0]
        group, kinds = catalog.solutions[start : start + size], catalog.kinds[start : start + size]
        assert [h.length_type() for h in group] == [lt] * size
        for i in range(size):
            complement = tuple(tuple(k - 1 - a for a in im) for im in group[i].images)
            assert group[size - 1 - i].images == complement, (lt, i)
            assert kinds[size - 1 - i] == kinds[i], (lt, i)
        assert len(classified) <= (size + 1) // 2, lt
        start += size
    assert start == len(catalog.solutions)


class TestEnumeration:
    def test_conjugacy_catalog(self):
        catalog = enumerate_solutions(CONJ, SearchConfig(7, 2))
        assert morph("ab", "ba", "aba") in catalog.solutions
        [(normal, members)] = classes_of(catalog).items()
        assert normal.entries == (1, -1, 0)
        assert morph("ab", "ba", "aba") in members

    def test_trivial_system_accepts_everything(self):
        T = EqSystem((eq("xy", "xy"),))
        cfg = SearchConfig(4, 2)
        catalog = enumerate_solutions(T, cfg)
        assert len(catalog.solutions) == search_space_size(2, cfg)

    def test_worked_pair_classes(self):
        catalog = enumerate_solutions(PAIR, SearchConfig(10, 2))
        classes = classes_of(catalog)
        assert classes
        for normal, members in classes.items():
            assert normal.entries == (2, 1, -1)
            for h in members:
                lt = h.length_type()
                assert 2 * lt[0] + lt[1] == lt[2]

    def test_no_erasing_flag(self):
        catalog = enumerate_solutions(CONJ, SearchConfig(6, 2, allow_erasing=False))
        assert all(not h.is_erasing() for h in catalog.solutions)

    def test_deterministic_order(self):
        a = enumerate_solutions(CONJ, SearchConfig(6, 2))
        b = enumerate_solutions(CONJ, SearchConfig(6, 2))
        assert a.solutions == b.solutions
        lens = [sum(h.length_type()) for h in a.solutions]
        assert lens == sorted(lens)

    @given(small_searches())
    # x = x over 3 letters: an odd number of assignments, the middle one its own complement
    @example((EqSystem((eq("x", "x"),)), SearchConfig(3, 3)))
    # no unknowns: the one length type has one assignment, over no class
    @example((EqSystem((Equation(Word(), Word(), 0),)), SearchConfig(2, 3)))
    def test_solutions_come_in_complements(self, search):
        assert_complement_order(*search)

    @pytest.mark.parametrize("k", [2, 3])
    def test_paper_pair_solutions_come_in_complements(self, k):
        assert_complement_order(PAIR, SearchConfig(10, k))

    def test_parallel_matches_serial(self):
        # eps = eps (no unknowns) and x = x at length 0 are passes of one
        # length type each
        no_unknowns, one_unknown = EqSystem((eq("eps", "eps"),)), EqSystem((eq("x", "x"),))
        for system, max_len in ((CONJ, 6), (PAIR, 8), (no_unknowns, 6), (one_unknown, 0)):
            serial = enumerate_solutions(system, SearchConfig(max_len, 2), workers=1)
            parallel = enumerate_solutions(system, SearchConfig(max_len, 2), workers=2)
            assert serial.solutions == parallel.solutions
            assert serial.to_json() == parallel.to_json()
            assert serial.csv_rows() == parallel.csv_rows()

    def test_large_alphabet_needs_few_eliminations(self):
        # the cache key is the sorted nonzero count rows, so the letters of
        # a solution do not matter, only how often each occurs
        _kind.cache_clear()
        catalog = enumerate_solutions(EqSystem((eq("x", "x"),)), SearchConfig(2, 100))
        assert len(catalog.solutions) == 1 + 100 + 100**2
        assert _kind.cache_info().misses <= 4

    def test_large_alphabet_keeps_listing_small(self):
        # a listed solution's memory does not grow with the alphabet: here
        # a count vector over all 3,000 letters kept per distinct image
        # would take about 24 KB per solution
        import tracemalloc

        tracemalloc.start()
        try:
            catalog = enumerate_solutions(EqSystem((eq("x", "x"),)), SearchConfig(1, 3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(catalog.solutions) == 1 + 3000
        assert peak < 1024 * len(catalog.solutions)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_kept(self, enabled):
        # the listing pauses the cyclic collector, and turns it back on only
        # if it was on when the listing began
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert enumerate_solutions(PAIR, SearchConfig(8, 2)).counts.solution_count == 1923
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_kept_when_the_listing_raises(self, monkeypatch, enabled):
        from weq import search

        real, seen = search._position_templates, []

        def fail_second(sides, lt):
            # the length types are listed with the collector paused
            seen.append(gc.isenabled())
            if len(seen) == 2:
                raise RuntimeError("the second length type")
            return real(sides, lt)

        monkeypatch.setattr(search, "_position_templates", fail_second)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with pytest.raises(RuntimeError, match="the second length type"):
                enumerate_solutions(PAIR, SearchConfig(8, 2))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert seen == [False, False]

    @given(small_searches())
    @example((PAIR, SearchConfig(8, 2)))
    def test_each_distinct_image_is_one_word(self, search):
        # one record per distinct image: equal images of one catalog are one object
        images = [im for h in enumerate_solutions(*search).solutions for im in h.images]
        assert len({id(im) for im in images}) == len(set(images))

    def test_space_guard(self):
        with pytest.raises(SearchSpaceError):
            enumerate_solutions(CONJ, SearchConfig(30, 3))

    def test_refusal_agrees_with_the_size(self, monkeypatch):
        # x1 x1 x2 x2 ... = x1 x2 ... erases every unknown, so listing is cheap
        # and each budget tests the refusal alone, on both sides of the size;
        # a refused search builds no position class first
        from weq import search

        real, built = search._position_templates, []
        monkeypatch.setattr(search, "_position_templates", lambda sides, lt: built.append(lt) or real(sides, lt))
        for n, k, allow_erasing, L in product(range(4), (1, 2, 3), (True, False), range(7)):
            system = EqSystem((Equation(Word(j for j in range(n) for _ in "xx"), Word(range(n)), n),))
            cfg = SearchConfig(L, k, allow_erasing)
            size = search_space_size(n, cfg)
            for budget in {0, 50, size - 1, size} - {-1}:
                monkeypatch.setattr("weq.search.MAX_CANDIDATES", budget)
                for run in (enumerate_solutions, count_solutions):
                    built.clear()
                    if size > budget:
                        with pytest.raises(SearchSpaceError):
                            run(system, cfg)
                        assert built == [], run
                    else:
                        run(system, cfg)

    def test_space_size_matches_enumeration(self):
        for n, k, allow_erasing, L in product((0, 1, 3), (1, 2, 3), (True, False), (0, 2, 5)):
            minimum = 0 if allow_erasing else 1
            count = 0
            # every length type within budget whose entries reach the minimum image length
            for lt in product(range(minimum, L + 1), repeat=n):
                if sum(lt) <= L:
                    prod = 1
                    for l in lt:
                        prod *= len(_words_of_length(k, l))
                    count += prod
            assert count == search_space_size(n, SearchConfig(L, k, allow_erasing)), (n, k, allow_erasing, L)


class TestAgainstProductScan:
    @given(small_searches())
    @example((EqSystem((Equation(Word((0, 1)), Word(), 3),)), SearchConfig(4, 2)))
    @example((EqSystem((eq("xz", "zy"), Equation(Word((0,)), Word((0,)), 3))), SearchConfig(5, 3)))
    @example((EqSystem((Equation(Word((0, 0)), Word((1,)), 4),)), SearchConfig(6, 2, allow_erasing=False)))
    # xx = yy forces x = y, so no solution uses more than 3 of the 4 letters
    @example((EqSystem((Equation(Word((0, 0)), Word((1, 1)), 2),)), SearchConfig(6, 4)))
    def test_catalog_matches_reference(self, search):
        assert_matches_reference(*search)

    @given(small_searches())
    @example((EqSystem((Equation(Word(), Word(), 0),)), SearchConfig(3, 2)))
    @example((EqSystem((eq("xy", "yx"),)), SearchConfig(4, 3)))
    def test_listed_solutions_equal_checked_morphisms(self, search):
        # each solution is built without checks; the checking constructor,
        # fed fresh words, must build an equal value with the same hash
        system, cfg = search
        for h in enumerate_solutions(system, cfg).solutions:
            checked = Morphism(tuple(Word(tuple(im)) for im in h.images), cfg.alphabet_size)
            assert h == checked and hash(h) == hash(checked)
            assert type(h.images) is tuple and all(type(im) is Word for im in h.images)

    @given(small_searches())
    @example((PAIR, SearchConfig(10, 2)))
    @example((EqSystem((Equation(Word(), Word(), 0),)), SearchConfig(3, 2)))
    # x = yy: with |h(x)| = 1 the balance 1 = 2|h(y)| has no integer solution
    @example((EqSystem((eq("x", "yy"),)), SearchConfig(4, 2)))
    # three non-empty images need a budget of at least 3
    @example((EqSystem((eq("xyz", "zyx"),)), SearchConfig(2, 2, allow_erasing=False)))
    # repeated and parallel balance vectors: xy = z, yx = z and xxyy = zz are rank 1
    @example((EqSystem((eq_n("xy", "z", 3), eq_n("yx", "z", 3), eq_n("xxyy", "zz", 3))), SearchConfig(10, 2)))
    # the reversed balance vectors (-1, 0, 2) and (1, -2, 2) combine to (0, 2, -4),
    # divided by 2: |h(z)| = 2|h(x)| and |h(y)| = 2|h(x)|
    @example((EqSystem((eq_n("xxy", "yz", 3), eq_n("xxz", "yy", 3))), SearchConfig(10, 2)))
    # rank 3 over 3 unknowns: only the empty length type balances, and none without erasing
    @example((EqSystem((eq_n("xxy", "yz", 3), eq_n("xxz", "yy", 3), eq_n("x", "zz", 3))), SearchConfig(10, 2)))
    @example(
        (EqSystem((eq_n("xxy", "yz", 3), eq_n("xxz", "yy", 3), eq_n("x", "zz", 3))), SearchConfig(10, 2, False))
    )
    # no condition at all: both equations of the paper pair are balanced
    @example((PAIR, SearchConfig(10, 2, allow_erasing=False)))
    def test_length_types_match_reference(self, search):
        system, cfg = search
        lts = _feasible_length_types(system, cfg)
        assert lts == reference_length_types(system, cfg)
        if not cfg.allow_erasing and cfg.max_total_image_length < system.n:
            assert lts == []

    def test_length_types_of_seeded_systems_match_reference(self, rng):
        ranks = Counter()
        for i in range(60):
            system = EqSystem(tuple(random_equation(rng, 5, 8) for _ in range(rng.randint(1, 4))))
            cfg = SearchConfig(rng.randint(0, 10), 2, allow_erasing=bool(i % 2))
            assert _feasible_length_types(system, cfg) == reference_length_types(system, cfg)
            ranks[reference_rank([[e.left.count(j) - e.right.count(j) for j in range(5)] for e in system])] += 1
        # every rank of one to four balance conditions is met
        assert set(ranks) >= {1, 2, 3, 4}, ranks

    def test_paper_pair_every_length_type(self):
        cfg = SearchConfig(10, 2)
        sides = tuple((e.left.symbols, e.right.symbols) for e in PAIR)
        lts = _feasible_length_types(PAIR, cfg)
        assert len(lts) == 286
        for lt in lts:
            assert list(zip(*_columns(2, _position_templates(sides, lt)))) == reference_length_type(sides, 2, lt), lt
        assert_matches_reference(PAIR, cfg)

    @given(small_searches())
    # xy = yx at length 2: (0, 2) has an empty image and (1, 1) two one-cell images
    @example((EqSystem((eq("xy", "yx"),)), SearchConfig(2, 3)))
    # x = yy without erasing: (2, 1) has a one-cell image beside a two-cell one
    @example((EqSystem((eq("x", "yy"),)), SearchConfig(5, 2, allow_erasing=False)))
    # one letter: each length type has one assignment, over no class if it is all empty
    @example((EqSystem((eq("xyz", "zyx"),)), SearchConfig(4, 1)))
    def test_columns_match_reference(self, search):
        # one column per image, each entry a tuple of that image's length,
        # even of one cell or none; read across, the columns are the images
        # of the product scan, in its order
        system, cfg = search
        sides = tuple((e.left.symbols, e.right.symbols) for e in system)
        for lt in _feasible_length_types(system, cfg):
            columns = _columns(cfg.alphabet_size, _position_templates(sides, lt))
            reference = reference_length_type(sides, cfg.alphabet_size, lt)
            assert len(columns) == system.n
            for length, column in zip(lt, columns):
                assert len(column) == len(reference)
                assert all(type(im) is tuple and len(im) == length for im in column)
            assert list(zip(*columns)) == reference, lt

    @given(small_searches())
    @example((PAIR, SearchConfig(10, 2)))
    @example((EqSystem((eq("xy", "yx"),)), SearchConfig(6, 2)))
    def test_position_templates_match_reference(self, search):
        system, cfg = search
        sides = tuple((e.left, e.right) for e in system)
        for lt in _feasible_length_types(system, cfg):
            assert _position_templates(sides, lt) == reference_position_templates(sides, lt), lt

    def test_position_templates_of_the_paper_pair(self):
        sides = tuple((e.left, e.right) for e in PAIR)
        lts = _feasible_length_types(PAIR, SearchConfig(12, 2))
        assert len(lts) == 455
        for lt in lts:
            assert _position_templates(sides, lt) == reference_position_templates(sides, lt), lt

    def test_catalog_from_groups(self):
        """A catalog built from its groups, with solutions dropped, reads
        its kinds and counts off the groups; an emptied class is dropped
        and the later classes renumbered."""
        catalog = enumerate_solutions(EqSystem((eq("xyz", "zyx"),)), SearchConfig(6, 2))
        assert len(catalog.classes) >= 2
        assert dataclasses.replace(catalog, by_rank=catalog.by_rank, classes=catalog.classes) == catalog
        for dropped in ({catalog.solutions[-1]}, set(catalog.classes[0].members), set(catalog.by_rank[0])):
            keep = lambda ms: tuple(h for h in ms if h not in dropped)  # noqa: E731
            built = dataclasses.replace(
                catalog,
                solutions=keep(catalog.solutions),
                by_rank={r: keep(ms) for r, ms in catalog.by_rank.items()},
                classes=tuple(dataclasses.replace(c, members=keep(c.members)) for c in catalog.classes),
            )
            assert len(built.solutions) == len(catalog.solutions) - len(dropped)
            assert (built.kinds, built.counts) == reference_kinds(built.solutions, 3, catalog.counts.config)
        with pytest.raises(TypeError):
            dataclasses.replace(catalog, by_rank=catalog.by_rank)


def assert_principal_matches_position_classes(system: EqSystem, cfg: SearchConfig) -> int:
    """Check the position classes of every feasible length type against the
    principal solution g of the unary solution h = (a^l_1, ..., a^l_n), and
    return the number of length types checked.

    The reduction to g is driven by image lengths alone, and every solution
    of a length type is theta . g for that g. So letter c of g gives
    |theta(c)| classes, each with c's occurrences in g's images as its cell
    counts per image.
    """
    sides = tuple((e.left, e.right) for e in system)
    lts = _feasible_length_types(system, cfg)
    for lt in lts:
        dec = principal_decompose(Morphism(tuple(Word((0,) * l) for l in lt), 1), system)
        from_principal = Counter()
        for c, im in enumerate(dec.theta.images):
            from_principal[tuple(gi.count(c) for gi in dec.g.images)] += len(im)
        classes, templates = _position_templates(sides, lt)
        cells = [[0] * len(lt) for _ in range(classes)]
        for j, template in enumerate(templates):
            for c in template:
                cells[c][j] += 1
        assert sum(map(len, dec.theta.images)) == classes, lt
        assert from_principal == Counter(map(tuple, cells)), lt
    return len(lts)


@st.composite
def unary_searches(draw):
    """Systems of 1-3 equations over 1-4 unknowns with a budget of total
    image length up to 12 and either erasing setting; one letter, as the
    position classes do not depend on the alphabet."""
    n = draw(st.integers(1, 4))
    word = st.lists(st.integers(0, n - 1), max_size=5).map(lambda s: Word(tuple(s)))
    equations = draw(st.lists(st.builds(Equation, word, word, st.just(n)), min_size=1, max_size=3))
    cfg = SearchConfig(draw(st.integers(0, 12)), 1, allow_erasing=draw(st.booleans()))
    return EqSystem(tuple(equations)), cfg


class TestPrincipalAgreesWithPositionClasses:
    """``principal_decompose`` and ``_position_templates`` check each other."""

    @given(unary_searches())
    @example((PAIR, SearchConfig(12, 1)))
    @example((EqSystem((eq("xyz", "zyx"),)), SearchConfig(12, 1, allow_erasing=False)))
    def test_property(self, search):
        assert_principal_matches_position_classes(*search)

    def test_seeded_sweep(self):
        rng = random.Random(1616)
        checked = 0
        for i in range(3000):
            n = rng.randint(1, 4)
            system = EqSystem(tuple(random_equation(rng, n, 8) for _ in range(rng.randint(1, 2))))
            cfg = SearchConfig(rng.randint(0, 12), 1, allow_erasing=bool(i % 2))
            checked += assert_principal_matches_position_classes(system, cfg)
        # 15,561 length types at the time of writing
        assert checked >= 15_000

    @pytest.mark.parametrize(
        "system, length_types",
        [
            (PAIR, 680),
            (EqSystem((eq("xy", "yx"),)), 120),
            (EqSystem((eq("xyz", "zyx"),)), 680),
            (EqSystem((eq_n("xxy", "yxx", 3), eq("xyz", "zyx"))), 680),
        ],
        ids=["paper-pair", "xy=yx", "xyz=zyx", "xxy=yxx,xyz=zyx"],
    )
    def test_named_systems(self, system, length_types):
        assert assert_principal_matches_position_classes(system, SearchConfig(14, 1)) == length_types


class TestCounting:
    """``count_solutions`` against the catalog of ``enumerate_solutions`` and
    against the closed forms of ``xy = yx`` and ``x = x``."""

    @given(small_searches())
    @example((EqSystem((eq("x", "x"),)), SearchConfig(2, 100)))
    @example((PAIR, SearchConfig(10, 2)))
    @example((CONJ, SearchConfig(6, 1)))
    @example((EqSystem((eq("xy", "yx"),)), SearchConfig(5, 1, allow_erasing=False)))
    @example((EqSystem((eq("xy", "yx"),)), SearchConfig(12, 2)))
    def test_counts_match_the_catalog(self, search):
        import weq.search

        # both read one pass: each feasible length type's classes are built
        # once, in catalog order, by the listing and, over two or more
        # letters, by the count
        real, built = weq.search._position_templates, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weq.search, "_position_templates", lambda sides, lt: built.append(lt) or real(sides, lt))
            listed = enumerate_solutions(*search).counts
            listing_built = built[:]
            built.clear()
            counted = count_solutions(*search)
        assert listed == counted
        # dict equality ignores order, and the order numbers the classes
        assert list(listed.class_sizes) == list(counted.class_sizes)
        system, cfg = search
        assert listing_built == _feasible_length_types(system, cfg)
        assert built == (listing_built if cfg.alphabet_size > 1 else [])

    @pytest.mark.parametrize("k, L", [(2, 20), (3, 12), (1, 40), (4, 9)])
    def test_commuting_pair_closed_form(self, k, L):
        # two words commute iff they are powers of one word (Lyndon-Schützenberger), so
        # length type (a, b) has k^gcd(a, b) solutions, with gcd(0, b) = b; those of the
        # length types t(p, q), (p, q) coprime, make up the class of normal (q, -p)
        total = sum(k ** gcd(a, b) for a in range(L + 1) for b in range(L + 1 - a))
        classes = {
            direction((q, -p)).entries: sum(k**t for t in range(1, L // (p + q) + 1))
            for p in range(L + 1)
            for q in range(L + 1 - p)
            if gcd(p, q) == 1
        }
        counts = count_solutions(EqSystem((eq("xy", "yx"),)), SearchConfig(L, k))
        assert counts.solution_count == total
        assert counts.rank_counts == {0: 1, 1: total - 1}
        assert counts.class_sizes == classes

    @pytest.mark.parametrize("k, L", [(2, 20), (3, 12), (1, 40), (4, 9)])
    def test_one_unknown_closed_form(self, k, L):
        # every image solves x = x; only the empty one has rank 0, and it is the one class
        counts = count_solutions(EqSystem((eq("x", "x"),)), SearchConfig(L, k))
        assert counts.solution_count == sum(k**s for s in range(L + 1))
        assert counts.rank_counts == {0: 1, 1: sum(k**s for s in range(1, L + 1))}
        assert counts.class_sizes == {(1,): 1}

    def test_summary_is_the_catalog_summary_without_examples(self):
        catalog = enumerate_solutions(PAIR, SearchConfig(8, 2))
        summary = catalog.summary(("u", "v", "w"))
        for cls in summary["classes"]:
            assert cls.pop("example")
        assert count_solutions(PAIR, SearchConfig(8, 2)).summary(("u", "v", "w")) == summary

    def test_builds_no_morphism_or_word(self, monkeypatch):
        from weq import search

        expected = enumerate_solutions(PAIR, SearchConfig(10, 2)).counts

        def refuse(*args, **kwargs):
            raise AssertionError("count_solutions built a morphism or a word")

        monkeypatch.setattr(search, "Morphism", refuse)
        monkeypatch.setattr(search, "Word", refuse)
        assert count_solutions(PAIR, SearchConfig(10, 2)) == expected

    def test_large_alphabet_needs_few_eliminations(self):
        _kind.cache_clear()
        counts = count_solutions(EqSystem((eq("x", "x"),)), SearchConfig(2, 100))
        assert counts.solution_count == 1 + 100 + 100**2
        # each state is classified once: no key missed the cache twice
        info = _kind.cache_info()
        assert info.misses == info.currsize <= 4

    def test_one_letter_builds_no_templates(self, monkeypatch):
        # over one letter each length type has one assignment, whose count
        # row is the length type, so no position classes are needed
        from weq import search

        def refuse(*args, **kwargs):
            raise AssertionError("count_solutions built position templates over one letter")

        monkeypatch.setattr(search, "_position_templates", refuse)
        counts = count_solutions(EqSystem((eq("x", "x"),)), SearchConfig(100_000, 1))
        assert counts.solution_count == 100_001
        assert counts.rank_counts == {0: 1, 1: 100_000}
        assert counts.class_sizes == {(1,): 1}

    def test_space_guard(self):
        with pytest.raises(SearchSpaceError):
            count_solutions(CONJ, SearchConfig(30, 3))


class TestTwoUnknownsAgainstDefectTheorem:
    """The counts of random systems over x and y against the closed form
    of ``conftest.against_defect_theorem``: the dynamic program at every
    budget the candidate limit admits, and the listing on small spaces."""

    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(0, 14), st.booleans())
    @example(random.Random(0), 3, 13, True)
    @example(random.Random(1), 3, 14, False)
    @example(random.Random(2), 2, 6, False)
    def test_counts_match_the_closed_form(self, rng, k, L, allow_erasing):
        # CI sweeps 300 systems at L = 21 over two letters
        cfg = SearchConfig(L, k, allow_erasing)
        if search_space_size(2, cfg) > MAX_CANDIDATES:
            with pytest.raises(SearchSpaceError):
                count_solutions(two_unknown_system(rng), cfg)
            return
        assert defect_theorem_sweep(rng, cfg, 1, listing=L <= 6) == []

    @pytest.mark.parametrize(
        "sides",
        [("xy", "yx"), ("xxy", "yxx"), ("xyy", "yx"), ("xy", "xy"), ("xy", "yx", "xxy", "yxx"), ("xy", "yx", "x", "y")],
        ids=["commuting", "balanced", "one-class", "trivial", "two-balanced", "equal-lengths"],
    )
    def test_named_systems_at_the_largest_budget(self, sides):
        # length 21 is the largest the candidate limit admits for two unknowns over two letters
        system = EqSystem(tuple(eq_n(u, v, 2) for u, v in zip(sides[::2], sides[1::2])))
        got, want = against_defect_theorem(count_solutions(system, SearchConfig(21, 2)), system)
        assert got == want


class TestKindCache:
    """The one cache that classifies count matrices for the listing and the count."""

    def test_classified_states_are_not_eliminated_again(self, monkeypatch):
        # the elimination itself is counted, so the test does not rest on the cache's own statistics
        from weq import words

        cfg = SearchConfig(8, 2)
        first = count_solutions(PAIR, cfg)
        calls = []
        eliminate = words._eliminate
        monkeypatch.setattr(words, "_eliminate", lambda rows, n: calls.append(rows) or eliminate(rows, n))
        assert count_solutions(PAIR, cfg) == first
        assert calls == []
        # the listing reduces its solutions to the same states
        assert enumerate_solutions(PAIR, cfg).counts == first
        assert calls == []

    def test_warm_cache_changes_nothing(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            system = EqSystem(tuple(random_equation(rng, n, 6) for _ in range(rng.randint(1, 2))))
            cfg = SearchConfig(rng.randint(0, 6), rng.randint(1, 3), allow_erasing=rng.random() < 0.5)
            _kind.cache_clear()
            catalog = enumerate_solutions(system, cfg)
            _kind.cache_clear()
            counts = count_solutions(system, cfg)
            assert enumerate_solutions(system, cfg) == catalog
            assert count_solutions(system, cfg) == counts == catalog.counts
            assert list(counts.class_sizes) == list(catalog.counts.class_sizes)

    def test_cache_is_bounded(self):
        maxsize = _kind.cache_parameters()["maxsize"]
        assert maxsize == _KIND_CACHE_SIZE
        assert isinstance(maxsize, int) and maxsize > 0


def listing_claims(system: EqSystem, cfg: SearchConfig) -> tuple[dict, list[str]]:
    """The catalog of ``system`` within ``cfg`` against the count and a scan
    of its solutions. Its counts must be those of ``count_solutions``. Each
    solution's rank and class, in the kinds, the JSON and the csv rows, must
    be the ones that ``rank`` and ``gamma_normal`` give it, with the classes
    numbered by their sorted normals. The solutions must be distinct and
    strictly increasing in (total length, length type, images), which is
    the catalog order, and each csv row must give its solution's length
    type. Returns the sizes of the catalog and the claims that failed."""
    catalog = enumerate_solutions(system, cfg)
    ranks = [rank(h) for h in catalog.solutions]
    normals = [gamma_normal(h).entries if r == system.n - 1 else None for h, r in zip(catalog.solutions, ranks)]
    number = {v: i for i, v in enumerate(sorted(set(normals) - {None}))}
    expected = [(r, number.get(v, -1)) for r, v in zip(ranks, normals)]
    order = [(sum(h.length_type()), h.length_type(), h.images) for h in catalog.solutions]
    entries = [(entry["rank"], entry["class"]) for entry in catalog.to_json()["solutions"]]
    rows = catalog.csv_rows()
    lengths = [" ".join(map(str, lt)) for _, lt, _ in order]
    broken = {
        "the listing's counts are not those of the count": catalog.counts != count_solutions(system, cfg),
        "a kind is not the scan's rank and class": list(catalog.kinds) != expected,
        "a JSON entry is not the scan's rank and class": entries != expected,
        "a csv row is not the scan's rank and class": [row[1:] for row in rows] != expected,
        "the solutions are not distinct": len(set(catalog.solutions)) != len(order),
        "the solutions are not in catalog order": any(a >= b for a, b in zip(order, order[1:])),
        "a csv row does not give the length type of its solution": [row[0] for row in rows] != lengths,
    }
    sizes = {"solutions": len(order), "in_a_class": sum(c >= 0 for _, c in expected)}
    return sizes, [claim for claim, fails in broken.items() if fails]


class TestCatalogInvariants:
    def test_oracle_agreement_on_enumerated(self):
        catalog = enumerate_solutions(CONJ, SearchConfig(5, 2))
        for h in catalog.solutions:
            for E in CONJ:
                assert is_solution(h, EqSystem((E,))) == check_solution_poly(E, h)

    def test_defect_effect_on_found_solutions(self):
        catalog = enumerate_solutions(CONJ, SearchConfig(5, 2))
        n = CONJ.n
        for h in catalog.solutions[:100]:
            dec = principal_decompose(h, CONJ)
            assert rank(dec.g) == len(set().union(*dec.g.images))
            if not is_trivial(CONJ):
                assert len(set().union(*dec.g.images)) <= n - 1

    def test_closure_under_letter_powers_spot_check(self, rng):
        cfg = SearchConfig(7, 2)
        catalog = enumerate_solutions(CONJ, cfg)
        budget = cfg.max_total_image_length
        for h in rng.sample(list(catalog.solutions), 25):
            alpha = [rng.randint(1, 2), rng.randint(1, 2)]
            powered = compose(theta_alpha(alpha, 2), h)
            if sum(powered.length_type()) <= budget:
                assert powered in catalog.solutions

    def test_class_members_share_normal(self):
        catalog = enumerate_solutions(PAIR, SearchConfig(9, 2))
        for normal, members in classes_of(catalog).items():
            for h in members:
                assert gamma_normal(h) == normal

    def test_json_is_summary_and_solutions(self):
        catalog = enumerate_solutions(PAIR, SearchConfig(8, 2))
        summary, payload = catalog.summary(("u", "v", "w")), catalog.to_json(("u", "v", "w"))
        assert list(payload) == [*summary, "solutions"]
        assert {key: payload[key] for key in summary} == summary
        assert "u" in summary["classes"][0]["constraint"]

    def test_json_and_csv_shapes(self):
        catalog = enumerate_solutions(CONJ, SearchConfig(4, 2))
        payload = catalog.to_json()
        assert payload["solution_count"] == len(catalog.solutions)
        assert len(payload["solutions"]) == len(catalog.solutions)
        rows = catalog.csv_rows()
        assert len(rows) == len(catalog.solutions)
        assert all(len(r) == 3 for r in rows)

    def test_json_and_csv_match_rank_and_class_scan(self):
        # CI runs the same check at L = 12 and 14
        sizes, failed = listing_claims(PAIR, SearchConfig(8, 2))
        assert failed == []
        assert sizes == {"solutions": 1923, "in_a_class": 14}


class TestSearchConfig:
    @pytest.mark.parametrize("max_len,alphabet", [(-1, 2), (-3, 2), (4, 0), (4, -1)])
    def test_rejects_empty_search_spaces(self, max_len, alphabet):
        with pytest.raises(ValueError):
            SearchConfig(max_len, alphabet)

    def test_accepts_smallest_space(self):
        assert search_space_size(2, SearchConfig(0, 1)) == 1


def reference_verify_bounds(E: Equation, Ep: Equation, cfg: SearchConfig) -> BoundCheckReport:
    """The pair claims read off the full catalog: its classes are counted,
    each class normal divides each nonzero determinant by the rewriting
    division, and when a claim fails each class's first member is the
    example."""
    if E == Ep:
        return BoundCheckReport("identical-equations", True)
    pa = PairAnalysis(E, Ep)
    if pa.status != "ok":
        return BoundCheckReport("no-nonzero-determinant", True)
    classes = classes_of(enumerate_solutions(EqSystem((E, Ep)), cfg))
    m = len(classes)
    erasing = sum(normal.is_erasing_constraint() for normal in classes)
    if erasing >= 2:
        # two erasing classes force both equations to be trivial after
        # deleting either erased unknown, so the pair has no nonzero
        # determinant (defect theorem) and was skipped above
        raise AssertionError(f"{E} and {Ep} have {erasing} erasing classes and a nonzero determinant")
    dets = {(j, k): det for j, k in combinations(range(E.n), 2) if (det := t_det(E, Ep, j, k))}
    undivided = [
        {"normal": list(normal.entries), "pair": [j + 1, k + 1]}
        for normal in classes
        for (j, k), det in dets.items()
        if reference_divide(det, normal) is None
    ]
    if m <= pa.best and not undivided:
        return BoundCheckReport("ok", True, m, erasing)
    counterexample = {
        "limit": pa.best,
        "classes": [
            {"normal": list(normal.entries), "example": [str(im) for im in members[0].images]}
            for normal, members in classes.items()
        ],
        "undivided": undivided,
    }
    return BoundCheckReport("ok", False, m, erasing, counterexample)


class TestVerifyBounds:
    def test_worked_pair_ok(self):
        report = verify_bounds(*PAIR, SearchConfig(10, 2))
        assert report.status == "ok"
        assert report.ok
        assert report.classes == 1
        pa = PairAnalysis(*PAIR)
        assert report.classes <= min(pa.sum_bound, pa.best) == 8

    def test_violation_reports_counterexample(self, monkeypatch):
        # no pair breaks a proved bound, so force one: a limit of 0 classes
        monkeypatch.setattr(PairAnalysis, "best", 0)
        report = verify_bounds(*PAIR, SearchConfig(8, 2))
        assert report.status == "ok" and not report.ok
        assert report.counterexample == {
            "limit": 0,
            "classes": [{"normal": [2, 1, -1], "example": ["a", "b", "aba"]}],
            "undivided": [],
        }

    def test_undivided_normal_reports_counterexample(self, monkeypatch):
        # no class normal found so far misses a determinant, so force one:
        # the line-sum test finds no divisor
        import weq.poly

        monkeypatch.setattr(weq.poly, "_divisor_keys", lambda p, lam: None)
        report = verify_bounds(*PAIR, SearchConfig(8, 2))
        assert report.status == "ok" and not report.ok
        assert report.classes == 1
        assert report.counterexample == {
            "limit": 8,
            "classes": [{"normal": [2, 1, -1], "example": ["a", "b", "aba"]}],
            "undivided": [{"normal": [2, 1, -1], "pair": pair} for pair in ([1, 2], [1, 3], [2, 3])],
        }

    def test_identical_pair_skipped(self):
        E = PAIR[0]
        report = verify_bounds(E, E, SearchConfig(6, 2))
        assert report.status == "identical-equations"
        assert report.ok

    def test_commutation_like_pair_skipped(self):
        A, B = eq("xyz", "zyx"), eq("xzy", "yzx")
        report = verify_bounds(A, B, SearchConfig(6, 2))
        assert report.ok
        assert report.status == "ok"
        assert report.classes == 0

    def test_single_erasing_class_is_counted(self):
        # x commutes with y and with z: the only hyperplane-rank common
        # solutions erase x, and that class still counts against the bound
        from conftest import eq_n

        A, B = eq_n("xy", "yx", 3), eq_n("xz", "zx", 3)
        report = verify_bounds(A, B, SearchConfig(8, 2))
        assert report.status == "ok" and report.ok
        assert report.classes == 1
        assert report.erasing_classes == 1
        catalog = enumerate_solutions(EqSystem((A, B)), SearchConfig(8, 2))
        assert [normal.entries for normal in classes_of(catalog)] == [(1, 0, 0)]

    @pytest.mark.parametrize("best", [None, 0, 1])
    def test_matches_reference(self, monkeypatch, rng, best):
        # with best = 0 every pair with a class fails, so the counterexamples
        # are compared too; best = 1 puts the one-class pairs on the bound
        from conftest import eq_n

        if best is not None:
            monkeypatch.setattr(PairAnalysis, "best", best)
        pairs = [
            PAIR,
            (eq("xy", "yx"), eq("yx", "xy")),
            (eq("xyz", "zyx"), eq("xzy", "yzx")),
            (eq_n("xy", "yx", 3), eq_n("xz", "zx", 3)),
            *((random_equation(rng, 3, 8), random_equation(rng, 3, 8)) for _ in range(40)),
        ]
        statuses = set()
        for A, B in pairs:
            for cfg in (SearchConfig(6, 2), SearchConfig(5, 3, allow_erasing=False)):
                report = verify_bounds(A, B, cfg)
                assert report == reference_verify_bounds(A, B, cfg), (A, B, cfg)
                statuses.add((report.status, report.ok))
        expected = {("no-nonzero-determinant", True), ("ok", best != 0)}
        assert expected <= statuses

    def test_fuzz_random_pairs(self, rng):
        checked = 0
        attempts = 0
        while checked < 12 and attempts < 300:
            attempts += 1
            A = random_equation(rng, 3, 8)
            B = random_equation(rng, 3, 8)
            report = verify_bounds(A, B, SearchConfig(7, 2))
            assert report.ok, report.counterexample
            if report.status == "ok":
                checked += 1
        assert checked == 12


class TestErasingStructure:
    def test_erasing_hyperplane_solutions_have_unit_normals(self, rng):
        # an erasing solution of hyperplane rank erases exactly one
        # unknown, deleting that unknown trivializes the equation, and the
        # class normal is the corresponding unit vector
        seen = 0
        tries = 0
        while seen < 8 and tries < 400:
            tries += 1
            E = random_equation(rng, 3, 8)
            if E.left == E.right:
                continue
            catalog = enumerate_solutions(EqSystem((E,)), SearchConfig(6, 2))
            for normal, members in classes_of(catalog).items():
                if not normal.is_erasing_constraint():
                    continue
                seen += 1
                assert sum(normal.entries) == 1  # unit vector
                k = normal.entries.index(1)
                d = delta_k(E, k)
                assert d.left == d.right, (E, k)
                for h in members[:5]:
                    empties = [i for i, im in enumerate(h.images) if not im]
                    assert empties == [k]
        assert seen >= 8


class TestVerifyEncoding:
    def test_small_campaign_clean(self):
        report = verify_encoding(500, seed=7)
        assert report["discrepancies"] == []
        assert report["cases"] == 500
        assert report["positives"] > 100

    def test_deterministic_given_seed(self):
        a = verify_encoding(100, seed=3)
        b = verify_encoding(100, seed=3)
        assert a == b


def reference_preimages(h: Morphism, target: Word, max_len: int) -> list[Word]:
    """Every word of at most ``max_len`` unknowns with nonempty images that
    ``h`` maps onto ``target``, by brute force, sorted lexicographically."""
    letters = [j for j, im in enumerate(h.images) if im]
    return sorted(
        Word(w)
        for length in range(max_len + 1)
        for w in product(letters, repeat=length)
        if h.apply(Word(w)) == target
    )


@st.composite
def preimage_cases(draw):
    """A morphism over 1-3 unknowns into 1-2 letters with images of at most
    3 letters, a target that is half the time its image of a word, a side
    budget of 0-5 unknowns and a cap of 1-4."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    word = lambda m, size: st.lists(st.integers(0, m - 1), max_size=size).map(Word)
    h = Morphism(tuple(draw(st.lists(word(k, 3), min_size=n, max_size=n))), k)
    max_len = draw(st.integers(0, 5))
    target = h.apply(draw(word(n, max_len))) if draw(st.booleans()) else draw(word(k, 6))
    return h, target, max_len, draw(st.integers(1, 4))


class TestPreimages:
    @given(preimage_cases())
    # the one spelling of abab is xx, max_len unknowns of the longest image,
    # so a bound that leaves one unknown out finds none
    @example((morph("ab", "a"), Word.from_letters("abab"), 2, 4))
    def test_matches_the_brute_force(self, case):
        h, target, max_len, cap = case
        assert _preimages(h, target, max_len, cap) == reference_preimages(h, target, max_len)[:cap]

    def test_first_cap_of_the_sorted_brute_force(self):
        """Depth first over nonempty images is lexicographic order, so the
        generator's first ``cap`` words are those of the sorted list."""
        rng = random.Random(23)
        truncated = several = 0
        for _ in range(300):
            n, k = rng.randint(1, 3), rng.randint(1, 2)
            h = random_morphism(rng, n, k, 3)
            max_len, cap = rng.randint(0, 5), rng.randint(1, 4)
            if rng.random() < 0.7:
                target = h.apply(random_word(rng, n, max_len))
            else:
                target = random_word(rng, k, 6)
            want = reference_preimages(h, target, max_len)
            assert _preimages(h, target, max_len, cap) == want[:cap], (h, target, max_len, cap)
            truncated += len(want) > cap
            several += min(len(want), cap) > 1
        assert truncated >= 10 and several >= 15
