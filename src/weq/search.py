"""Exhaustive enumeration of solutions at desk scale.

Lists every solution of an ``EqSystem`` within a total-image-length
budget, one length type at a time. For a fixed length type the equations
identify positions of the images; the solutions of that type are exactly
the letter assignments to the resulting position classes, so the search
costs the size of its output rather than one word comparison per
candidate. A length type's images come as columns, one per unknown, read
off the assignments by ``itemgetter``, and the solutions and their keys
are built from the columns by ``map`` and ``zip``, with no Python loop
per solution and with the cyclic collector paused: the listing makes
only words, tuples and morphisms of ints, which form no cycle. Only the
first half of a length type's keys is looked up; ``enumerate_solutions``
says why the second half is the first's letter complement.

A catalog is its counts (solutions, rank counts, and the sizes of the
linear-equivalence classes of rank-(n-1) solutions, keyed by their
hyperplane normals), its solutions, and each solution's kind: its rank
and its class index. Its solutions grouped by rank and by class are
views of the kinds.

The counts alone come without listing from a dynamic program over
count-row multisets: the letters are assigned to the position classes
one class at a time, and the state is the multiset of nonzero rows of
the partial occurrence-count matrix. Both paths read one pass over the
length types, ``_position_classes``, whose source ``_feasible_length_types``
row-reduces the equations' length balance conditions, draws only the
free lengths and solves each pivot length by an exact division: the
reduction keeps the rational solutions, so no length type is lost or
gained. Both reduce their solutions to these sorted nonzero count rows,
classify each through one cache for the whole process, ``_kind``, and
count ranks and classes in one function, ``_tally``. The cache is
bounded, so that a process that searches many systems does not keep
every matrix it met. Only ``_feasible_length_types``, the source of the
pass, checks the candidate budget.

Also hosts the seeded fuzz generators used to cross-check the polynomial
encoding against the word-level definitions.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product, repeat
from math import comb
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from .words import (
    EqSystem,
    Equation,
    LambdaVector,
    Morphism,
    Word,
    _eliminate,
    _rank_and_normal,
    is_solution,
)


# The largest search space, in candidate morphisms, that a search accepts.
MAX_CANDIDATES = 100_000_000


class SearchSpaceError(ValueError):
    """The configured search, a listing (``enumerate_solutions``) or a count
    (``count_solutions``), would exceed the candidate budget."""


@dataclass(frozen=True)
class SearchConfig:
    """Finite search space: all morphisms with total image length at most
    ``max_total_image_length`` over ``alphabet_size`` letters."""

    max_total_image_length: int
    alphabet_size: int = 2
    allow_erasing: bool = True

    def __post_init__(self) -> None:
        if self.max_total_image_length < 0:
            raise ValueError(f"the length budget must be non-negative, got {self.max_total_image_length}")
        if self.alphabet_size < 1:
            raise ValueError(f"the alphabet needs at least one letter, got {self.alphabet_size}")


class _Memo(dict):
    """Each key's value, made by ``make`` on the key's first lookup only."""

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass(frozen=True)
class SolutionCounts:
    """How many solutions a search space holds, in all, by rank and by
    class (keyed by the class normal, in catalog order; the divisor test
    of ``verify_bounds`` reads these keys as they are), without
    the solutions themselves."""

    n: int
    config: SearchConfig
    solution_count: int
    rank_counts: dict[int, int]
    class_sizes: dict[LambdaVector, int]

    def summary(self, names: Sequence[str] | None = None) -> dict:
        """The counts as JSON, with the unknowns of the constraints named ``names``."""
        return {
            "n": self.n,
            "max_total_image_length": self.config.max_total_image_length,
            "alphabet_size": self.config.alphabet_size,
            "solution_count": self.solution_count,
            "rank_counts": {str(r): c for r, c in self.rank_counts.items()},
            "classes": [
                {"normal": list(normal), "constraint": normal.constraint_text(names), "size": size}
                for normal, size in self.class_sizes.items()
            ],
        }


@dataclass(frozen=True)
class SolutionClass:
    """One class of rank-(n-1) solutions: its hyperplane normal and its
    members in catalog order, as ``SolutionCatalog.classes`` reads them."""

    normal: LambdaVector
    members: tuple[Morphism, ...]


@dataclass(frozen=True, init=False)
class SolutionCatalog:
    """All solutions found within a search space, in enumeration order
    (total image length, then length type, then images lexicographically),
    their counts, and each solution's kind: its rank and its class index,
    -1 below rank n-1, with the classes numbered in the order of
    ``counts.class_sizes``.

    ``by_rank`` and ``classes`` group the solutions by kind. A catalog
    may also be built from such groups, given together, as in
    ``dataclasses.replace(catalog, solutions=..., by_rank=..., classes=...)``:
    its kinds and counts are then read off them, empty classes dropped."""

    counts: SolutionCounts
    solutions: tuple[Morphism, ...]
    kinds: tuple[tuple[int, int], ...]

    def __init__(self, counts, solutions, kinds, by_rank=None, classes=None) -> None:
        if (by_rank is None) != (classes is None):
            raise TypeError("by_rank and classes are given together")
        if by_rank is not None:
            classes = [c for c in classes if c.members]
            kind = {h: (r, -1) for r, ms in by_rank.items() for h in ms}
            kind.update((h, (counts.n - 1, i)) for i, c in enumerate(classes) for h in c.members)
            kinds = tuple(map(kind.__getitem__, solutions))
            ranks = {r: len(ms) for r, ms in by_rank.items() if ms}
            sizes = {c.normal: len(c.members) for c in classes}
            counts = SolutionCounts(counts.n, counts.config, len(solutions), ranks, sizes)
        for name, value in (("counts", counts), ("solutions", solutions), ("kinds", kinds)):
            object.__setattr__(self, name, value)

    @property
    def by_rank(self) -> dict[int, tuple[Morphism, ...]]:
        """The solutions of each rank, ranks ascending."""
        return {
            r: tuple(h for h, (s, _) in zip(self.solutions, self.kinds) if s == r) for r in self.counts.rank_counts
        }

    @property
    def classes(self) -> tuple[SolutionClass, ...]:
        """Each class's normal and members, in class order."""
        return tuple(
            SolutionClass(normal, tuple(h for h, (_, c) in zip(self.solutions, self.kinds) if c == i))
            for i, normal in enumerate(self.counts.class_sizes)
        )

    def summary(self, names: Sequence[str] | None = None) -> dict:
        """The counts' summary with each class's first member as its
        example: the catalog as JSON without its per-solution list."""
        out = self.counts.summary(names)
        first: dict[int, Morphism] = {}
        for h, (_, c) in zip(self.solutions, self.kinds):
            if len(first) == len(out["classes"]):
                break
            if c >= 0:
                first.setdefault(c, h)
        for i, entry in enumerate(out["classes"]):
            entry["example"] = [str(im) for im in first[i].images]
        return out

    def to_json(self, names: Sequence[str] | None = None) -> dict:
        """The summary and every solution's images, rank and class."""
        text = _Memo(str)
        return {
            **self.summary(names),
            "solutions": [
                {"images": list(map(text.__getitem__, h.images)), "rank": r, "class": c}
                for h, (r, c) in zip(self.solutions, self.kinds)
            ],
        }

    def csv_rows(self) -> list[tuple[str, int, int]]:
        """Rows (length type, rank, class id) for every solution."""
        text = _Memo(lambda lt: " ".join(map(str, lt)))
        return [(text[tuple(map(len, h.images))], r, c) for h, (r, c) in zip(self.solutions, self.kinds)]


def _running_space_sizes(n: int, cfg: SearchConfig) -> Iterator[int]:
    """Running totals of the candidate count over the total image lengths
    up to L, so the last is the exact size of the space. With no unknowns
    or over one letter the sum has the closed form comb(L - m*n + n, n),
    m the minimum image length, and only that total is given."""
    minimum = 0 if cfg.allow_erasing else 1
    L, k = cfg.max_total_image_length, cfg.alphabet_size
    if n == 0 or k == 1:
        yield comb(L - minimum * n + n, n)
        return
    total = 0
    for s in range(minimum * n, L + 1):
        total += comb(s - minimum * n + n - 1, n - 1) * k**s
        yield total


def search_space_size(n: int, cfg: SearchConfig) -> int:
    """Exact number of candidate morphisms the configuration spans: the largest running total."""
    return max(_running_space_sizes(n, cfg), default=0)


def _feasible_length_types(system: EqSystem, cfg: SearchConfig) -> list[tuple[int, ...]]:
    """Length types within budget whose images could balance every
    equation's side lengths, by total length and then lexicographically.

    The balance condition of an equation u = v is linear in the length
    type l: d·l = 0, with d_j = |u|_j - |v|_j. The distinct balance
    vectors are row-reduced by ``_eliminate``, fraction-free over the
    integers, each combined row divided by the gcd of its entries, with the
    columns reversed so that the pivots are picked from the last length
    down. The echelon rows have the same rational solutions as the
    conditions, so a length type balances exactly when it solves them.

    With rank r, the n - r free lengths are drawn by stars and bars: n - r
    bars among the length left over the n minimum lengths. An echelon row
    is zero on every length after its pivot, so back-substitution from the
    lowest pivot up meets each row with only its pivot length unknown and
    solves it by one exact division. A type is kept only if every pivot
    length is an integer, at least the minimum length, and the total is
    within budget. So there are C(L - m*n + n - r, n - r) draws, m the
    minimum length, rather than the C(L - m*n + n - 1, n - 1) heads of the
    first n - 1 lengths: one power of L fewer at r = 2, the same at r = 1.
    With no condition every length is free, and the draws are the length
    types within budget; with no unknowns there is no row, and the one
    empty draw is the one length type, ().
    """
    n, L = system.n, cfg.max_total_image_length
    # refuse before any length type is built, and stop summing once the budget is passed
    if any(size > MAX_CANDIDATES for size in _running_space_sizes(n, cfg)):
        raise SearchSpaceError(f"the search space exceeds the budget of {MAX_CANDIDATES} candidate morphisms")
    rows = {tuple(e.left.count(j) - e.right.count(j) for j in reversed(range(n))) for e in system}
    pivots, reduced = _eliminate(sorted(rows), n)
    # each pivot length with its row, in the order of the lengths, lowest pivot first
    solved = [(n - 1 - p, row[::-1]) for p, row in zip(reversed(pivots), reversed(reduced))]
    free = [j for j in range(n) if n - 1 - j not in pivots]
    minimum = 0 if cfg.allow_erasing else 1
    out = []
    # stars and bars: the free lengths of at least the minimum, leaving the others their minimum within budget
    for bars in combinations(range(L - minimum * n + len(free)), len(free)):
        lt = [0] * n
        for j, a, b in zip(free, (-1,) + bars, bars):
            lt[j] = b - a - 1 + minimum
        for c, row in solved:
            q, rem = divmod(-sum(map(mul, row, lt)), row[c])
            if rem or q < minimum:
                break
            lt[c] = q
        else:
            if sum(lt) <= L:
                out.append(tuple(lt))
    out.sort(key=lambda lt: (sum(lt), lt))
    return out


def _position_templates(
    sides: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], lt: tuple[int, ...]
) -> tuple[int, list[list[int]]]:
    """Position classes of one length type: their number, and for each
    image the class of each of its cells.

    Image j holds the cells ``spans[j]`` of one cell vector, and each
    equation identifies cell i of ``h(u)`` with cell i of ``h(v)``. The
    classes are numbered by their first cell.

    A union-find with path halving joins the cells, always linking the
    larger root under the smaller, so every cell's parent is at most the
    cell itself and each root is the first cell of its class. One pass in
    cell order then numbers the classes: a root opens the next class, and
    any other cell takes the class of its parent, numbered before it.
    """
    spans, start = [], 0
    for l in lt:
        spans.append(range(start, start + l))
        start += l
    parent = list(range(start))
    for u, v in sides:
        for a, b in zip([c for s in u for c in spans[s]], [c for s in v for c in spans[s]]):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    of_cell: list[int] = []
    classes = 0
    for c, p in enumerate(parent):
        if p == c:
            of_cell.append(classes)
            classes += 1
        else:
            of_cell.append(of_cell[p])
    return classes, [of_cell[span.start : span.stop] for span in spans]


def _position_classes(system: EqSystem, cfg: SearchConfig) -> Iterator[tuple[int, list[list[int]]]]:
    """Each feasible length type's position classes, in catalog order: a map, so the refusal comes at the call."""
    sides = tuple((e.left, e.right) for e in system)
    return map(_position_templates, repeat(sides), _feasible_length_types(system, cfg))


def _columns(k: int, position_classes: tuple[int, list[list[int]]]) -> list[list[tuple[int, ...]]]:
    """Images of every solution of one length type, one column per image:
    entry i of column j is image j under the i-th letter assignment to the
    position classes, the assignments in lexicographic order. A one-cell
    image is still a tuple, and an empty one is ``()``."""
    classes, templates = position_classes
    assignments = list(product(range(k), repeat=classes))
    # an itemgetter of one index gives the letter, not a 1-tuple, and one of none cannot be built
    return [
        list(map(itemgetter(*t), assignments)) if len(t) > 1
        else list(zip(map(itemgetter(*t), assignments))) if t
        else [()] * len(assignments)
        for t in templates
    ]


# One round of the benchmark's sweep (seed 1) meets 229 distinct keys and
# one of its catalog 1,169, so a round's keys stay in the cache.
_KIND_CACHE_SIZE = 4096
_kind = lru_cache(maxsize=_KIND_CACHE_SIZE)(_rank_and_normal)


def enumerate_solutions(
    system: EqSystem, cfg: SearchConfig, workers: int = 1
) -> SolutionCatalog:
    """Catalog every solution of ``system`` within the configured space.

    The solutions of a length type are the letter assignments to its
    position classes (``_position_templates``), taken in lexicographic
    order: two assignments first differ on some class, and the first cell
    of that class is the first cell where their images differ, so the
    images come out in lexicographic order too. ``_columns`` gives each type
    of the pass ``_position_classes``, whose source ``_feasible_length_types``
    checks the candidate budget, as one column per unknown, read across
    by ``zip``. Through ``words``, each distinct image becomes one ``Word``,
    built once and shared by every solution that uses it, and each row of
    words one ``Morphism``, built by ``_trusted`` without checks, since the
    letters were made here in range. Through ``multiset``, each image
    becomes its multiset of letters (its sorted letters), and each row of
    multisets the solution's key, numbered by ``ids``. These three are
    ``_Memo`` dicts, so a solution costs its ``_trusted`` call and C-level
    lookups, and no Python loop of its own. The listing and its tally run
    with the cyclic collector paused, and turn it back on only if it was
    on: the words, image tuples, morphisms and kinds hold only ints, words
    and normals, so they form no cycle, and the collector would only walk
    them again and again as they pile up.

    Rank and hyperplane normal depend only on the occurrence-count matrix
    up to the order of its rows and its zero rows, and that matrix is fixed
    by the multisets of letters of the images. So a key is classified only
    for the first solution that has it: its sorted nonzero count rows, one
    per letter that occurs, go to ``_kind``, the cache the count shares,
    and two keys with the same rows are one cache entry. Within a length
    type, the N = k^c assignments to its c position classes come in
    ``product`` order, so assignment N-1-i, whose digits in base k are
    those of i each taken from k-1, is assignment i with each letter l
    renamed k-1-l. A renaming of letters only reorders the count rows, so
    it keeps the rank and the normal: only the first ceil(N/2) solutions of
    each type are looked up through ``multiset`` and ``ids``, and the rest
    take their keys in reverse, the middle one of an odd N being its own
    complement. Every solution is still built, with its exact kind. A listed
    solution's cost depends on n, L and the letters it uses, not on the
    alphabet size, and ``x = x`` at length budget 2 needs 4 eliminations at
    any k. The counts are tallied from the kinds of the keys, and each
    solution's kind is read off its key's number, so rendering the catalog
    hashes no morphism.

    With ``workers > 1`` the columns are built in parallel processes and
    merged back in the serial order, so the catalog is identical. The pool
    costs more than it saves: each column is pickled back to the parent.
    On the paper pair at L = 8, 12 and 14 (1,923, 26,155 and 100,947
    solutions), the serial listing took 0.010, 0.071 and 0.250 s and
    ``workers=2`` took 0.044, 0.204 and 0.699 s, 4.5, 2.9 and 2.8 times as
    long (medians of 5 interleaved runs, 2 vCPUs, CPython 3.11.7).
    """
    n, k = system.n, cfg.alphabet_size
    position_classes = _position_classes(system, cfg)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(_columns, repeat(k), position_classes))
    else:
        found = map(_columns, repeat(k), position_classes)

    # a key is a solution's tuple of image multisets, each its sorted letters;
    # keys are numbered by first appearance, and ``kinds`` holds each one's
    # rank and normal
    kinds: list[tuple[int, LambdaVector | None]] = []

    def classify(multisets: tuple[tuple[int, ...], ...]) -> int:
        rows = tuple(sorted([tuple([m.count(a) for m in multisets]) for a in set().union(*multisets)]))
        kinds.append(_kind(rows, n))
        return len(kinds) - 1

    words, multiset, ids = _Memo(Word._trusted), _Memo(lambda im: tuple(sorted(im))), _Memo(classify)
    solutions: list[Morphism] = []
    keys: list[int] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for columns in found:
            word_columns = [map(words.__getitem__, c) for c in columns]
            # with no unknowns the one length type has one solution, and no column
            solutions += map(Morphism._trusted, zip(*word_columns) if n else [()], repeat(k))
            size = len(columns[0]) if n else 1
            multiset_columns = [map(multiset.__getitem__, islice(c, (size + 1) // 2)) for c in columns]
            first = list(map(ids.__getitem__, zip(*multiset_columns) if n else [()]))
            keys += first
            keys += reversed(first[: size // 2])
        counts = _tally(n, cfg, ((kinds[i], ways) for i, ways in Counter(keys).items()))
        index = {normal: i for i, normal in enumerate(counts.class_sizes)}
        kind = [(r, -1 if normal is None else index[normal]) for r, normal in kinds]
        return SolutionCatalog(counts, tuple(solutions), tuple(map(kind.__getitem__, keys)))
    finally:
        if enabled:
            gc.enable()


def _tally(n: int, cfg: SearchConfig, kinds: Iterable[tuple[tuple, int]]) -> SolutionCounts:
    """The counts of a search space from the kind, a rank and a normal or
    None, of each distinct count matrix of its solutions, paired with how
    many solutions have that matrix."""
    rank_counts: Counter = Counter()
    class_sizes: Counter = Counter()
    for (r, normal), ways in kinds:
        rank_counts[r] += ways
        if normal is not None:
            class_sizes[normal] += ways
    ranks, normals = dict(sorted(rank_counts.items())), dict(sorted(class_sizes.items()))
    return SolutionCounts(n, cfg, sum(ranks.values()), ranks, normals)


def _assign_class(
    states: dict[tuple[tuple[int, ...], ...], int], occurrences: tuple[int, ...], k: int
) -> dict[tuple[tuple[int, ...], ...], int]:
    """The states after one more position class, with ``occurrences``
    cells in each image, takes each of the ``k`` letters.

    A state is the sorted tuple of the nonzero count rows, one per letter
    used so far, and its value the number of letter assignments that reach
    it. The class goes to one of the ``k - len(state)`` unused letters, or
    adds its occurrences to a used letter's row, once for each letter that
    has that row.
    """
    out: dict[tuple[tuple[int, ...], ...], int] = {}
    for state, ways in states.items():
        if len(state) < k:
            key = tuple(sorted(state + (occurrences,)))
            out[key] = out.get(key, 0) + ways * (k - len(state))
        for i, row in enumerate(state):
            if i and row == state[i - 1]:
                continue
            grown = state[:i] + (tuple(map(add, row, occurrences)),) + state[i + 1 :]
            key = tuple(sorted(grown))
            out[key] = out.get(key, 0) + ways * state.count(row)
    return out


def count_solutions(system: EqSystem, cfg: SearchConfig) -> SolutionCounts:
    """The solution count, the rank counts and the size of each class of
    ``system`` within the configured space, as ``enumerate_solutions`` would
    catalog them, built without a ``Morphism``, ``Word`` or image.

    The position classes of each length type of the pass ``_position_classes`` are
    assigned letters one class at a time by ``_assign_class``, so a final
    state is the sorted nonzero count rows of a solution: the key that
    ``enumerate_solutions`` classifies by. Permuting the letters permutes
    those rows, which leaves the rank and the normal unchanged, so counting
    the assignments up to that permutation is exact. Each distinct final
    state is classified by the same cache as the listing's keys, once per
    process while the cache holds it. The candidate budget of
    ``_feasible_length_types`` applies, with the listing's ``SearchSpaceError``.
    """
    n, k = system.n, cfg.alphabet_size
    if k == 1:
        # the one assignment gives every cell the one letter, whose count row is the length type
        finals = Counter((lt,) if any(lt) else () for lt in _feasible_length_types(system, cfg))
    else:
        finals = Counter()
        for classes, templates in _position_classes(system, cfg):
            occurrences = [[0] * n for _ in range(classes)]
            for j, template in enumerate(templates):
                for c in template:
                    occurrences[c][j] += 1
            states = {(): 1}
            for row in occurrences:
                states = _assign_class(states, tuple(row), k)
            finals.update(states)
    return _tally(n, cfg, ((_kind(state, n), ways) for state, ways in finals.items()))


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of checking the paper's two pair claims on one equation pair.
    A counterexample holds the limit, each class's normal and example, and
    each (normal, index pair) whose determinant the normal does not divide."""

    status: str  # ok | identical-equations | no-nonzero-determinant
    ok: bool
    classes: int | None = None
    erasing_classes: int = 0
    counterexample: dict | None = None


def verify_bounds(E: Equation, Ep: Equation, cfg: SearchConfig) -> BoundCheckReport:
    """Count the linear-equivalence classes of rank-(n-1) common solutions
    within the configured space and check the paper's two claims on them:
    there are at most ``best`` classes, and each class normal is the
    direction of a pure-difference divisor of every nonzero determinant.

    The classes are counted by ``count_solutions``, and each normal is
    tested against each determinant by the line-sum test, which builds no
    quotient. The solutions are listed only when a claim fails, to build
    the counterexample from each class's first member. Pairs that cannot
    be independent are skipped with a status: identical equations and
    pairs with no nonzero determinant.
    """
    from .analysis import STATUS_OK, PairAnalysis
    from .poly import _divisor_keys

    if E == Ep:
        return BoundCheckReport("identical-equations", True)
    pa = PairAnalysis(E, Ep)
    if pa.status != STATUS_OK:
        return BoundCheckReport("no-nonzero-determinant", True)
    system = EqSystem((E, Ep))
    normals = count_solutions(system, cfg).class_sizes
    m = len(normals)
    erasing = sum(1 for normal in normals if normal.is_erasing_constraint())
    undivided = [
        {"normal": list(normal), "pair": [j + 1, k + 1]}
        for normal in normals
        for (j, k), det in pa.grid.items()
        if det and _divisor_keys(det, normal) is None
    ]
    if m <= pa.best and not undivided:
        return BoundCheckReport(STATUS_OK, True, m, erasing)
    counterexample = {
        "limit": pa.best,
        "classes": [
            {"normal": c["normal"], "example": c["example"]}
            for c in enumerate_solutions(system, cfg).summary()["classes"]
        ],
        "undivided": undivided,
    }
    return BoundCheckReport(STATUS_OK, False, m, erasing, counterexample)


# ---------------------------------------------------------------------------
# Seeded fuzz generators and the encoding cross-check.


def random_word(rng: random.Random, n: int, max_len: int, min_len: int = 0) -> Word:
    return Word(rng.randrange(n) for _ in range(rng.randint(min_len, max_len)))


def random_equation(rng: random.Random, n: int, max_size: int) -> Equation:
    lu = rng.randint(0, max_size)
    lv = rng.randint(0, max_size - lu)
    return Equation(random_word(rng, n, lu, lu), random_word(rng, n, lv, lv), n)


def random_morphism(rng: random.Random, n: int, k: int, max_image_len: int) -> Morphism:
    return Morphism(tuple(random_word(rng, k, max_image_len) for _ in range(n)), k)


def _preimages(h: Morphism, target: Word, max_len: int, cap: int) -> list[Word]:
    """The first ``cap`` words, at most ``max_len`` long and over the
    unknowns with nonempty images, that ``h`` maps onto ``target``, in
    lexicographic order: depth first is that order, since no spelling of
    ``target`` is a prefix of another. A prefix grows only while the unknowns
    left, at the longest image each, can still cover the rest of ``target``."""
    longest = max(map(len, h.images), default=0)

    def spell(pos: int, acc: list[int]) -> Iterator[Word]:
        if pos == len(target):
            yield Word(acc)
        elif len(target) - pos <= (max_len - len(acc)) * longest:
            for j, im in enumerate(h.images):
                if im and target[pos : pos + len(im)] == im:
                    yield from spell(pos + len(im), [*acc, j])

    return list(islice(spell(0, []), cap))


def random_equation_solved_by(rng: random.Random, h: Morphism, max_side: int) -> Equation:
    """A random equation that ``h`` solves: a drawn left side u, and a right
    side among the spellings of h(u) within the side budget. That list is
    never empty, since it holds u less its unknowns with empty images."""
    n = h.domain_size
    u = random_word(rng, n, max_side, 1)
    target = h.apply(u)
    vs = _preimages(h, target, max_side, cap=64)
    # unknowns with empty images may be sprinkled anywhere
    empties = [j for j in range(n) if not h.images[j]]
    if empties:
        padded = []
        for v in vs[:8]:
            syms = list(v)
            for _ in range(rng.randint(0, 2)):
                syms.insert(rng.randint(0, len(syms)), rng.choice(empties))
            padded.append(Word(syms))
        vs = vs + padded
    return Equation(u, rng.choice(vs), n)


# the space each fuzz case draws from: unknowns, equation size, letters, image length
_FUZZ_MAX_UNKNOWNS = 4
_FUZZ_MAX_EQ_SIZE = 10
_FUZZ_ALPHABET_SIZE = 3
_FUZZ_MAX_IMAGE_LEN = 6


def verify_encoding(cases: int, seed: int = 0) -> dict:
    """Fuzz the polynomial solution test against the direct word test.

    Half of the cases are random (equation, morphism) pairs; the other
    half are constructed so the morphism solves the equation, keeping
    both truth values well represented. Returns the case count, how many
    cases are solutions, and the list of cases on which the two tests
    disagree. A negative ``cases`` raises ``ValueError``.
    """
    from .encode import check_solution_poly

    if cases < 0:
        raise ValueError(f"the case count must be non-negative, got {cases}")
    rng = random.Random(seed)
    positives = 0
    discrepancies = []
    for i in range(cases):
        n = rng.randint(1, _FUZZ_MAX_UNKNOWNS)
        k = rng.randint(1, _FUZZ_ALPHABET_SIZE)
        if i % 2 == 0:
            E = random_equation(rng, n, _FUZZ_MAX_EQ_SIZE)
            h = random_morphism(rng, n, k, _FUZZ_MAX_IMAGE_LEN)
        else:
            h = random_morphism(rng, n, k, _FUZZ_MAX_IMAGE_LEN)
            E = random_equation_solved_by(rng, h, _FUZZ_MAX_EQ_SIZE // 2)
        word_level = is_solution(h, EqSystem((E,)))
        poly_level = check_solution_poly(E, h)
        if word_level:
            positives += 1
        if word_level != poly_level:
            discrepancies.append(
                {
                    "equation": str(E),
                    "morphism": str(h),
                    "word_level": word_level,
                    "poly_level": poly_level,
                }
            )
    return {"cases": cases, "positives": positives, "discrepancies": discrepancies}
