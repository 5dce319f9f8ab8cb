import random
from collections import Counter
from functools import reduce
from math import gcd
from operator import add, mul

import pytest
from hypothesis import settings

from weq.poly import MultiPoly
from weq.search import SearchConfig, SolutionCounts, count_solutions, enumerate_solutions, random_word
from weq.textio import parse_system
from weq.words import EqSystem, Equation, LambdaVector, Morphism, Word, rank

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


def eq(left: str, right: str) -> Equation:
    """Single equation from unknown letters (x, y, z, ... ordering)."""
    system, _ = parse_system(f"{left} = {right}")
    return system[0]


def eq_n(left: str, right: str, n: int) -> Equation:
    """Equation with an explicit unknown count (letters x=0, y=1, z=2)."""
    order = "xyz"
    mk = lambda s: Word(tuple(order.index(c) for c in s))
    return Equation(mk(left), mk(right), n)


def morph(*images: str, k: int | None = None) -> Morphism:
    """``Morphism.from_images``, over ``k`` letters when given."""
    h = Morphism.from_images(*images)
    return h if k is None else Morphism(h.images, k)


def nonerasing_morphism(rng: random.Random, n: int, k: int, max_image_len: int) -> Morphism:
    """``random_morphism`` with every image at least one letter long."""
    return Morphism(tuple(random_word(rng, k, max_image_len, 1) for _ in range(n)), k)


def classes_of(catalog) -> dict[LambdaVector, list[Morphism]]:
    """The classes of a catalog in class order: each normal with its
    members, read off the solutions' kinds."""
    classes = {normal: [] for normal in catalog.counts.class_sizes}
    members = list(classes.values())
    for h, (_, c) in zip(catalog.solutions, catalog.kinds):
        if c >= 0:
            members[c].append(h)
    return classes


# Tools from the paper's proofs that the library does not need. The tests
# of its lemmas run through them. Those that take drawn arguments check
# them, so that a malformed draw fails instead of testing nothing.


def direction(entries) -> LambdaVector:
    """The canonical ``LambdaVector`` parallel to a nonzero integer vector:
    its entries divided by their gcd, negated when the first nonzero entry
    is negative. It does not call the library's normalization it checks."""
    vec = tuple(entries)
    g = reduce(gcd, vec, 0)
    if not g:
        raise ValueError("the zero vector is not a direction")
    if next(v for v in vec if v) < 0:
        g = -g
    return LambdaVector(tuple(v // g for v in vec))


def evaluate(p: MultiPoly, gamma) -> MultiPoly:
    """``p`` under ``X_i -> x^(gamma_i)``: a ring homomorphism into Z[x],
    whose elements are the one-variable ``MultiPoly``s."""
    if len(gamma) != p.n or any(g < 0 for g in gamma):
        raise ValueError(f"expected {p.n} non-negative exponents, got {gamma!r}")
    out = {}
    for e, c in p.terms.items():
        d = (sum(map(mul, e, gamma)),)
        out[d] = out.get(d, 0) + c
    return MultiPoly(1, out)


def word_poly(w: Word) -> MultiPoly:
    """Digit polynomial in Z[x] of a word: position i contributes
    ``(letter_i + 1) * x^i``, so the length of the word can be read back."""
    return MultiPoly(1, {(i,): s + 1 for i, s in enumerate(w)})


def theta_alpha(alpha, k: int) -> Morphism:
    """Power endomorphism of a k-letter alphabet: letter i maps to its
    alpha[i]-th power."""
    return Morphism(tuple(Word((i,) * a) for i, a in enumerate(alpha)), k)


def linear_equivalent(h: Morphism, g: Morphism) -> bool:
    """Whether the occurrence-count row spaces of ``h`` and ``g`` coincide
    over Q: both ranks equal the rank of the stacked rows, which are the
    rows of ``h`` with ``g``'s letters shifted past ``h``'s."""
    kh = h.target_alphabet_size
    joint = Morphism(
        tuple(a + Word(s + kh for s in b) for a, b in zip(h.images, g.images)),
        kh + g.target_alphabet_size,
    )
    return rank(h) == rank(g) == rank(joint)


def delta_k(E: Equation, k: int) -> Equation:
    """The equation over n-1 unknowns obtained by erasing unknown ``k``
    everywhere and shifting higher indices down."""
    if not 0 <= k < E.n:
        raise IndexError(f"unknown index {k} out of range for n={E.n}")
    strip = lambda w: Word(s - (s > k) for s in w if s != k)
    return Equation(strip(E.left), strip(E.right), E.n - 1)


def reference_is_solution(h: Morphism, system: EqSystem) -> bool:
    """Whether ``h`` maps both sides of every equation of ``system`` to the
    same word, each image built by concatenating checked ``Word``s with
    ``Word.__add__``; oracle for ``is_solution``."""
    if h.domain_size != system.n:
        raise ValueError(f"morphism has {h.domain_size} images but the system uses {system.n} unknowns")
    image = lambda w: reduce(add, (h.images[s] for s in w), Word())
    return all(image(e.left) == image(e.right) for e in system)


def is_trivial(system: EqSystem) -> bool:
    """Whether every equation of the system has identical sides."""
    return all(e.left == e.right for e in system)


def two_unknown_system(rng: random.Random, max_side: int = 6) -> EqSystem:
    """One or two random equations over x and y, each side at most
    ``max_side`` long. Each right side is, with even odds, a shuffle of its
    left side, so that balanced systems, whose solutions fall in many
    classes, occur often."""
    equations = []
    for _ in range(rng.randint(1, 2)):
        u = random_word(rng, 2, max_side)
        v = Word(rng.sample(u, len(u))) if rng.random() < 0.5 else random_word(rng, 2, max_side)
        equations.append(Equation(u, v, 2))
    return EqSystem(equations)


def against_defect_theorem(counts: SolutionCounts, system: EqSystem) -> tuple[tuple, tuple]:
    """``counts``, the counts of a system over two unknowns within
    ``counts.config``, and their closed form, as two tuples to compare:
    the solution count, the rank counts and the class sizes in class order.

    The closed form is the defect theorem (Lothaire 1983, ch. 1): two
    words that solve a nontrivial equation are powers of one word. Of
    length type (a, b), with d = gcd(a, b) and gcd(0, b) = b, there are
    k^d such pairs, and they solve u = v exactly when
    (|u|_x - |v|_x) a + (|u|_y - |v|_y) b = 0. The empty pair has rank 0
    and every other rank 1, in the class of normal (b/d, -a/d) in
    canonical sign. An equation with identical sides imposes nothing, and
    a system of only such equations is solved by all k^(a+b) candidates,
    whose ranks the theorem does not give: its tuples hold the solution
    count alone.
    """
    if system.n != 2:
        raise ValueError(f"expected a system over two unknowns, got {system.n}")
    cfg, k = counts.config, counts.config.alphabet_size
    low, L = (0 if cfg.allow_erasing else 1), cfg.max_total_image_length
    types = [(a, b) for a in range(low, L + 1) for b in range(low, L - a + 1)]
    diffs = [(e.left.count(0) - e.right.count(0), e.left.count(1) - e.right.count(1)) for e in system if e.left != e.right]
    got = (counts.solution_count, counts.rank_counts, list(counts.class_sizes.items()))
    if not diffs:
        return got[:1], (sum(k ** (a + b) for a, b in types),)
    ranks, classes = Counter(), Counter()
    for a, b in types:
        if all(dx * a + dy * b == 0 for dx, dy in diffs):
            ways = k ** gcd(a, b)
            if a + b:
                ranks[1] += ways
                classes[direction((b, -a))] += ways
            else:
                ranks[0] += ways
    return got, (sum(ranks.values()), dict(sorted(ranks.items())), sorted(classes.items()))


def defect_theorem_sweep(rng: random.Random, cfg: SearchConfig, systems: int, listing: bool = False) -> list[str]:
    """``systems`` systems of ``two_unknown_system(rng)``, each counted
    within ``cfg`` by ``count_solutions``, and listed by
    ``enumerate_solutions`` too when ``listing`` is set, against the closed
    form of ``against_defect_theorem``. Returns a line for each search
    whose counts differ from the closed form."""
    failed = []
    for _ in range(systems):
        system = two_unknown_system(rng)
        searches = [count_solutions(system, cfg)] + ([enumerate_solutions(system, cfg).counts] if listing else [])
        for counts in searches:
            got, want = against_defect_theorem(counts, system)
            if got != want:
                failed.append(f"{list(map(str, system))}: counted {got}, closed form {want}")
    return failed


def is_letter_renaming(h: Morphism) -> bool:
    """Whether every image is a single letter and no two images coincide."""
    return all(len(im) == 1 for im in h.images) and len(set(h.images)) == len(h.images)


def render_morphism(h: Morphism, names) -> str:
    """Bindings ``x = ab``, one per line, as ``parse_morphism`` reads them."""
    return "\n".join(f"{nm} = {im if im else 'eps'}" for nm, im in zip(names, h.images))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
