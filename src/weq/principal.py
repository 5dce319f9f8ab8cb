"""Reduction of a solution to the principal solution dividing it.

Every solution ``h`` of a system factors as ``h = theta . g`` where ``g``
is a principal solution (minimal in the divisibility order on solutions)
and ``theta`` is non-erasing on the letters of ``g``. The reduction works
by elementary transformations driven purely by image lengths:

* unknowns with empty images are stripped first;
* while some equation has distinct sides, compare the images of the two
  unknowns ``x != y`` at the first mismatching position: the shorter
  image is a prefix of the longer, so either substitute the longer
  unknown by ``shorter . longer`` and cut the prefix off its image, or,
  on equal lengths, merge the two unknowns.

The three cases (shorter, longer, equal) are handled explicitly. The
letters of ``g`` are renamed to 0, 1, 2, ... by first occurrence in
``g(x_0) g(x_1) ...``, so equal-length-type inputs produce literally
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    InternalError,
    Morphism,
    SystemLike,
    Word,
    _first_occurrence_order,
    as_system,
    is_solution,
)


def is_trivial(T: SystemLike) -> bool:
    """Whether every equation of the system has identical sides."""
    return all(e.left == e.right for e in as_system(T))


@dataclass(frozen=True)
class PrincipalDecomposition:
    """Result of the reduction: ``compose(theta, g)`` equals the input.

    ``trace`` records the elementary steps as tuples:
    ``("erase", i)`` unknown i had an empty image,
    ``("expand", s, t)`` unknown t was replaced by s t,
    ``("merge", t, s)`` unknown t was identified with s.
    """

    g: Morphism
    theta: Morphism
    trace: tuple[tuple, ...]


def _require(ok: bool, invariant: str) -> None:
    if not ok:
        raise InternalError(f"principal decomposition: {invariant}")


def principal_decompose(h: Morphism, T: SystemLike) -> PrincipalDecomposition:
    """Split a solution ``h`` of ``T`` into a principal solution and a
    non-erasing letter substitution.

    Raises ValueError when ``h`` does not solve ``T``.
    """
    system = as_system(T)
    n = system.n
    if h.domain_size != n:
        raise ValueError(f"morphism has {h.domain_size} images, system has {n} unknowns")
    if not is_solution(h, system):
        raise ValueError("the morphism is not a solution of the system")

    trace: list[tuple] = []
    # Letters of the intermediate principal solution are the unknown
    # indices that are still alive; g_imgs maps original unknowns to
    # words over those letters.
    g_imgs: list[list[int]] = [[i] for i in range(n)]
    h_img: dict[int, Word] = {}
    alive: set[int] = set()
    for i in range(n):
        if h.images[i]:
            h_img[i] = h.images[i]
            alive.add(i)
        else:
            g_imgs[i] = []
            trace.append(("erase", i))
    sides: list[tuple[list[int], list[int]]] = [
        (
            [s for s in e.left if s in alive],
            [s for s in e.right if s in alive],
        )
        for e in system
    ]

    def measure() -> int:
        return len(alive) + sum(len(w) for w in h_img.values())

    def substitute(letter: int, replacement: list[int]) -> None:
        for idx, (u, v) in enumerate(sides):
            sides[idx] = (
                [c for s in u for c in (replacement if s == letter else [s])],
                [c for s in v for c in (replacement if s == letter else [s])],
            )
        for idx, gi in enumerate(g_imgs):
            g_imgs[idx] = [c for s in gi for c in (replacement if s == letter else [s])]

    while True:
        mismatch = next(((u, v) for u, v in sides if u != v), None)
        if mismatch is None:
            break
        before = measure()
        u, v = mismatch
        j = next(i for i in range(min(len(u), len(v)) + 1) if i >= len(u) or i >= len(v) or u[i] != v[i])
        # A non-erasing solution cannot make one side a proper prefix of
        # the other.
        _require(j < len(u) and j < len(v), "side exhausted under a non-erasing solution")
        x, y = u[j], v[j]
        hx, hy = h_img[x], h_img[y]
        if len(hx) < len(hy):
            _require(hy.symbols[: len(hx)] == hx.symbols, "shorter image is not a prefix")
            h_img[y] = Word(hy.symbols[len(hx):])
            substitute(y, [x, y])
            trace.append(("expand", x, y))
        elif len(hx) > len(hy):
            _require(hx.symbols[: len(hy)] == hy.symbols, "shorter image is not a prefix")
            h_img[x] = Word(hx.symbols[len(hy):])
            substitute(x, [y, x])
            trace.append(("expand", y, x))
        else:
            _require(hx == hy, "equal-length images differ")
            del h_img[y]
            alive.discard(y)
            substitute(y, [x])
            trace.append(("merge", y, x))
        _require(measure() < before, "termination measure failed to decrease")

    order = _first_occurrence_order(g_imgs)
    _require(set(order) == alive, "letters of g differ from the surviving unknowns")
    remap = {old: new for new, old in enumerate(order)}
    g = Morphism(tuple(Word(tuple(remap[c] for c in gi)) for gi in g_imgs), len(order))
    theta = Morphism(tuple(h_img[c] for c in order), h.target_alphabet_size)
    return PrincipalDecomposition(g, theta, tuple(trace))
