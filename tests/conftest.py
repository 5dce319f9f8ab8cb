import random
from functools import reduce
from math import gcd
from operator import add, mul

import pytest
from hypothesis import settings

from weq.poly import MultiPoly
from weq.search import random_word
from weq.textio import parse_system
from weq.words import Equation, LambdaVector, Morphism, Word, as_system, rank

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


def eq(left: str, right: str) -> Equation:
    """Single equation from unknown letters (x, y, z, ... ordering)."""
    system, _ = parse_system(f"{left} = {right}")
    return system.equations[0]


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


def reference_is_solution(h: Morphism, T) -> bool:
    """Whether ``h`` maps both sides of every equation of ``T`` to the same
    word, each image built by concatenating checked ``Word``s with
    ``Word.__add__``; oracle for ``is_solution``."""
    system = as_system(T)
    if h.domain_size != system.n:
        raise ValueError(f"morphism has {h.domain_size} images but the system uses {system.n} unknowns")
    image = lambda w: reduce(add, (h.images[s] for s in w), Word())
    return all(image(e.left) == image(e.right) for e in system)


def is_trivial(T) -> bool:
    """Whether every equation of the system has identical sides."""
    return all(e.left == e.right for e in as_system(T))


def is_letter_renaming(h: Morphism) -> bool:
    """Whether every image is a single letter and no two images coincide."""
    return all(len(im) == 1 for im in h.images) and len(set(h.images)) == len(h.images)


def render_morphism(h: Morphism, names) -> str:
    """Bindings ``x = ab``, one per line, as ``parse_morphism`` reads them."""
    return "\n".join(f"{nm} = {im if im else 'eps'}" for nm, im in zip(names, h.images))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
