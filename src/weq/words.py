"""Words over indexed alphabets, morphisms between them, and equations.

Letters are small non-negative integers indexing an alphabet. The
default display names live here too: ``str``, ``Equation.text`` and
``constraint_text`` name unknowns by ``unknown_names`` (x, y, z, x4, ...),
the latter two unless given other names, and ``str`` of a ``Word`` spells
letters a, b, c.
A ``Word`` is the tuple of its letters: it equals and hashes as the
plain tuple, and a slice of it is a plain tuple. A ``LambdaVector``, the
one type of a hyperplane normal, is likewise the tuple of its entries: the
divisor test of ``search.verify_bounds`` hands the search's class normals to
the line-sum test as they are. An ``EqSystem`` is the tuple of
its equations, checked to be nonempty and to share one unknown count. Every
solver takes one, so one equation E goes in as ``EqSystem((E,))``; a solver
given a bare ``Equation`` raises rather than answer, ``TypeError`` once it
iterates it.
Everything in this module is an immutable value and every operation is a
pure function, so instances can be shared freely across threads.

Letters are checked once, where values are built: ``Word()`` checks
each letter, ``Equation`` and ``Morphism`` store their sides and images
as checked ``Word``s (a ``Word`` argument is kept, anything else goes
through ``Word()``) and check them against their alphabets, and
``textio`` builds ``Word``s from its input. Code past that boundary
trusts those letters: ``apply``, ``compose`` and ``is_solution`` work
on plain letter lists, and the private ``Word._trusted`` wraps letters
taken from checked ``Word``s, or ints the caller made in range itself,
without checking them again. The private ``Morphism._trusted`` likewise
builds a morphism without its checks: its caller passes a tuple of
``Word``s whose letters are below the alphabet size it passes, either
because they come from such a morphism's images or because the caller
made them in that range itself.

Letter-count linear algebra (the occurrence-count rows of a morphism,
their rank over the rationals, hyperplane normals) is exact: one
fraction-free integer forward elimination gives the rank, and
back-substitution on its echelon rows gives the nullspace direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterable, Sequence


class InternalError(RuntimeError):
    """A computation broke one of its own invariants: a bug, never bad input."""


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def unknown_names(n: int, names: Sequence[str] | None = None) -> list[str]:
    """Display names for ``n`` unknowns: ``names``, which must have exactly
    ``n`` entries, or by default x, y, z, x4, x5, ..."""
    if names is None:
        return ["x", "y", "z"][:n] + [f"x{i}" for i in range(4, n + 1)]
    if len(names) != n:
        raise ValueError(f"expected {n} unknown names, got {len(names)}")
    return list(names)


def _checked(letters: Iterable[int]) -> "Word":
    """``letters`` as a ``Word``: kept if it already is one, checked otherwise."""
    return letters if type(letters) is Word else Word(letters)


class Word(tuple):
    """Finite sequence of letters of an indexed alphabet; may be empty."""

    __slots__ = ()

    def __new__(cls, symbols: Iterable[int] = ()) -> "Word":
        self = super().__new__(cls, symbols)
        for s in self:
            if not isinstance(s, int) or s < 0:
                raise ValueError(f"letters must be non-negative integers: {tuple(self)!r}")
        return self

    @classmethod
    def _trusted(cls, letters: Iterable[int]) -> "Word":
        """A word of letters known to be valid, unchecked: only for letters
        taken from checked ``Word``s or made in range by the caller."""
        return tuple.__new__(cls, letters)

    @classmethod
    def from_letters(cls, text: str) -> "Word":
        """Build a word from lowercase letters, mapping a->0, b->1, ..."""
        syms = []
        for ch in text:
            if not ("a" <= ch <= "z"):
                raise ValueError(f"expected a lowercase letter, got {ch!r}")
            syms.append(ord(ch) - ord("a"))
        return cls(syms)

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self)

    def __add__(self, other: "Word") -> "Word":
        return Word(tuple.__add__(self, other))

    def __repr__(self) -> str:
        return f"Word({tuple(self)!r})"

    def __str__(self) -> str:
        try:
            return "".join([_LETTERS[s] for s in self])
        except IndexError:  # a letter past z: spell every letter as <s>
            return "".join(f"<{s}>" for s in self)


@dataclass(frozen=True)
class Equation:
    """A pair of words over the unknowns ``0..n-1``; solved by morphisms
    that map both sides to the same word."""

    left: Word
    right: Word
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("number of unknowns must be non-negative")
        for name in ("left", "right"):
            side = _checked(getattr(self, name))
            object.__setattr__(self, name, side)
            if side and max(side) >= self.n:
                raise ValueError(f"unknown index out of range in {tuple(side)!r} (n={self.n})")

    @property
    def size(self) -> int:
        """Total length |left| + |right|."""
        return len(self.left) + len(self.right)

    def occurrences(self, j: int) -> int:
        """Number of occurrences of unknown ``j`` on both sides."""
        return self.left.count(j) + self.right.count(j)

    def text(self, names: Sequence[str] | None = None) -> str:
        """Render as ``xyxz = zxyx``, ``eps`` for an empty side; the names are
        separated by spaces when one of them has more than one letter."""
        names = unknown_names(self.n, names)
        sep = "" if all(len(nm) == 1 for nm in names) else " "
        fmt = lambda w: sep.join(names[s] for s in w) if w else "eps"
        return f"{fmt(self.left)} = {fmt(self.right)}"

    __str__ = text


class EqSystem(tuple):
    """Nonempty finite tuple of equations sharing the same unknowns."""

    __slots__ = ()

    def __new__(cls, equations: Iterable[Equation]) -> "EqSystem":
        self = super().__new__(cls, equations)
        if not self:
            raise ValueError("a system needs at least one equation")
        if any(e.n != self[0].n for e in self):
            raise ValueError("all equations of a system must share the unknown count")
        return self

    @property
    def n(self) -> int:
        return self[0].n

    @property
    def equations(self) -> tuple[Equation, ...]:
        """The equations as a plain tuple, as the benchmark reads them."""
        return tuple(self)


@dataclass(frozen=True, slots=True)
class Morphism:
    """Monoid morphism determined by the images of letters ``0..domain_size-1``."""

    images: tuple[Word, ...]
    target_alphabet_size: int

    def __post_init__(self) -> None:
        if self.target_alphabet_size < 0:
            raise ValueError("target alphabet size must be non-negative")
        images = tuple(map(_checked, self.images))
        object.__setattr__(self, "images", images)
        for im in images:
            if im and max(im) >= self.target_alphabet_size:
                raise ValueError(
                    f"image {tuple(im)!r} uses letters outside alphabet of size "
                    f"{self.target_alphabet_size}"
                )

    @classmethod
    def _trusted(cls, images: tuple[Word, ...], target_alphabet_size: int) -> "Morphism":
        """A morphism of images known to be valid, unchecked: only for a
        tuple of ``Word``s over letters below ``target_alphabet_size``."""
        self = object.__new__(cls)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "target_alphabet_size", target_alphabet_size)
        return self

    @classmethod
    def from_images(cls, *images: str) -> "Morphism":
        """Build a morphism from letter strings, e.g. ``from_images("ab", "ba", "aba")``,
        over the letters up to the last one the images use."""
        words = tuple(Word.from_letters(s) for s in images)
        return cls(words, 1 + max((s for w in words for s in w), default=-1))

    @property
    def domain_size(self) -> int:
        return len(self.images)

    def apply(self, w: Word) -> Word:
        w = _checked(w)
        if w and max(w) >= self.domain_size:
            raise ValueError(f"letter {max(w)} outside domain of size {self.domain_size}")
        images = self.images
        return Word._trusted([c for s in w for c in images[s]])

    def length_type(self) -> tuple[int, ...]:
        """Vector of image lengths."""
        return tuple(len(im) for im in self.images)

    def is_erasing(self) -> bool:
        return any(not im for im in self.images)

    def __str__(self) -> str:
        names = unknown_names(self.domain_size)
        return ", ".join(
            f"{nm} -> {im if im else 'eps'}" for nm, im in zip(names, self.images)
        )


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The morphism ``outer . inner`` (apply ``inner`` first)."""
    images = tuple(outer.apply(im) for im in inner.images)
    return Morphism(images, outer.target_alphabet_size)


def is_solution(h: Morphism, system: EqSystem) -> bool:
    """Whether ``h`` maps both sides of every equation to the same word."""
    if h.domain_size != system.n:
        raise ValueError(
            f"morphism has {h.domain_size} images but the system uses {system.n} unknowns"
        )
    # Equation and Morphism checked the letters, so every index is in range.
    images = h.images
    return all(
        [c for s in e.left for c in images[s]] == [c for s in e.right for c in images[s]] for e in system
    )


def gamma_matrix(h: Morphism) -> tuple[tuple[int, ...], ...]:
    """Occurrence-count matrix: row per target letter, column per domain letter.

    Entry (i, j) counts occurrences of target letter i in the image of
    domain letter j.
    """
    k, n = h.target_alphabet_size, h.domain_size
    rows = [[0] * n for _ in range(k)]
    for j, im in enumerate(h.images):
        for s in im:
            rows[s][j] += 1
    return tuple(tuple(r) for r in rows)


def _eliminate(rows: Sequence[Sequence[int]], n: int) -> tuple[list[int], list[list[int]]]:
    """Fraction-free forward elimination of integer rows of width ``n``.

    Returns the pivot columns and the echelon rows, one per pivot: row i
    is nonzero in pivot column ``pivots[i]`` and zero in every column
    before it. Each pivot row clears only the rows below it, and each
    combined row is divided by the gcd of its entries, so the entries
    stay small and no division is ever inexact.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                combined = [p[c] * a - f * b for a, b in zip(m[i], p)]
                g = gcd(*combined)
                m[i] = [v // g for v in combined] if g else combined
        pivots.append(c)
    return pivots, m[: len(pivots)]


def _rank_and_normal(
    counts: Sequence[Sequence[int]], n: int
) -> tuple[int, LambdaVector | None]:
    """Rank of an integer matrix with ``n`` columns and, when its nullspace
    is one-dimensional (rank n-1), the canonical ``LambdaVector`` of the
    nullspace direction; None otherwise.

    The direction is read off the echelon rows by fraction-free
    back-substitution: the free column starts at 1, and each pivot row,
    from the last one up, scales the vector just enough for its pivot
    column's value to be an integer.
    """
    pivots, reduced = _eliminate(counts, n)
    if len(pivots) != n - 1:
        return len(pivots), None
    free = next(c for c in range(n) if c not in pivots)
    v = [0] * n
    v[free] = 1
    for row, pc in zip(reversed(reduced), reversed(pivots)):
        s = sum(map(mul, row, v))
        g = gcd(row[pc], s)
        scale = row[pc] // g
        v = [x * scale for x in v]
        v[pc] = -s // g
    return len(pivots), LambdaVector(_canonical_entries(tuple(v)))


def rank(h: Morphism) -> int:
    """Dimension over Q of the row space of the occurrence-count matrix."""
    return len(_eliminate(gamma_matrix(h), h.domain_size)[0])


def _canonical_entries(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Entries of the canonical ``LambdaVector`` parallel to ``vec``. Tuples
    compare up to the first entry that differs, so ``vec`` is below the zero
    vector exactly when its first nonzero entry is negative."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("the zero vector is not a direction")
    if vec < (0,) * len(vec):
        g = -g
    return vec if g == 1 else tuple([v // g for v in vec])


class LambdaVector(tuple):
    """Integer hyperplane normal: the tuple of its coprime entries.

    Canonical form: entries share no common factor and the first nonzero
    entry is positive. ``plus`` and ``minus`` give the componentwise
    split ``entries = plus - minus`` with disjoint supports.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> "LambdaVector":
        self = super().__new__(cls, entries)
        if _canonical_entries(self) != self:
            raise ValueError(f"{self!r} is not coprime with a positive first entry")
        return self

    @property
    def entries(self) -> tuple[int, ...]:
        """The entries as a plain tuple, as the benchmark reads them."""
        return tuple(self)

    @property
    def plus(self) -> tuple[int, ...]:
        return tuple(max(v, 0) for v in self)

    @property
    def minus(self) -> tuple[int, ...]:
        return tuple(max(-v, 0) for v in self)

    def is_erasing_constraint(self) -> bool:
        """True when the hyperplane meets the non-negative orthant only at
        vectors that vanish on the support (all entries non-negative)."""
        return all(v >= 0 for v in self)

    def constraint_text(self, names: Sequence[str] | None = None) -> str:
        """Render as a length constraint, e.g. ``2|h(x)| + |h(y)| = |h(z)|``."""
        names = unknown_names(len(self), names)

        def side(part: tuple[int, ...]) -> str:
            terms = []
            for c, nm in zip(part, names):
                if c:
                    terms.append(f"{'' if c == 1 else c}|h({nm})|")
            return " + ".join(terms) if terms else "0"

        return f"{side(self.plus)} = {side(self.minus)}"


def gamma_normal(h: Morphism) -> LambdaVector:
    """Canonical integer normal of the occurrence-count row space.

    Defined exactly when that space is a hyperplane, i.e. rank(h) equals
    domain_size - 1; raises ValueError otherwise.
    """
    n = h.domain_size
    normal = _rank_and_normal(gamma_matrix(h), n)[1]
    if normal is None:
        raise ValueError(f"morphism has rank != {n - 1}; its row space is not a hyperplane")
    return normal
