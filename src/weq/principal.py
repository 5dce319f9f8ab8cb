"""Reduction of a solution to the principal solution dividing it.

Every solution ``h`` of an ``EqSystem`` factors as ``h = theta . g``
where ``g`` is a principal solution (minimal in the divisibility order on
solutions) and ``theta`` is non-erasing on the letters of ``g``. The reduction works
by elementary transformations driven purely by image lengths:

* unknowns with empty images are stripped first;
* the equations are then solved in order, one at a time: while ``g``
  does not solve ``u = v``, take the letters ``s != t`` at the first
  position where ``g(u)`` and ``g(v)`` differ, ``s`` the one with the
  shorter image. That image is a prefix of the image of ``t``, so there
  are two cases: *expand* substitutes ``t`` by ``s t`` and cuts the
  prefix off the image of ``t``; on equal lengths, *merge* identifies
  ``t`` with ``s``. An equation that ``g`` solves stays solved under
  every later substitution.

Throughout, ``g`` maps each unknown to a word over the unknowns still
alive, whose remaining images compose with ``g`` to ``h``; it starts as
the identity on the non-erased unknowns. Inside the reduction unknown
``i`` is the character ``chr(i)`` and g's images are ``str``, so each
substitution is one ``str.replace``; the trace holds unknown indices.
The letters of ``g`` are then renamed to 0, 1, 2, ... by first
occurrence in ``g(x_0) g(x_1) ...``, so equal-length-type inputs produce
literally identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from os.path import commonprefix

from .words import EqSystem, InternalError, Morphism, Word, is_solution


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


def principal_decompose(h: Morphism, system: EqSystem) -> PrincipalDecomposition:
    """Split a solution ``h`` of ``system`` into a principal solution and a
    non-erasing letter substitution.

    Raises ValueError when ``h`` does not solve ``system`` or has another domain.
    """
    if not is_solution(h, system):
        raise ValueError("the morphism is not a solution of the system")

    trace: list[tuple] = [("erase", i) for i, im in enumerate(h.images) if not im]
    # The letters of g are the unknowns still keyed in h_img, unknown i
    # spelled chr(i); g_imgs holds the original unknowns' images over them.
    g_imgs = [chr(i) if im else "" for i, im in enumerate(h.images)]
    h_img = {chr(i): im for i, im in enumerate(h.images) if im}

    # An equation that g solves stays solved under every substitution, so
    # the equations are solved in order, each until g solves it.
    for e in system:
        while (u := "".join([g_imgs[x] for x in e.left])) != (v := "".join([g_imgs[x] for x in e.right])):
            before = len(h_img) + sum(map(len, h_img.values()))
            j = len(commonprefix((u, v)))
            # A non-erasing solution cannot make one side a proper prefix of
            # the other.
            _require(j < len(u) and j < len(v), "side exhausted under a non-erasing solution")
            # s has the shorter image (the left one on a tie), a prefix of t's.
            s, t = (u[j], v[j]) if len(h_img[u[j]]) <= len(h_img[v[j]]) else (v[j], u[j])
            hs, ht = h_img[s], h_img[t]
            if len(hs) < len(ht):
                _require(ht[: len(hs)] == hs, "shorter image is not a prefix")
                h_img[t] = ht[len(hs):]
                g_imgs = [gi.replace(t, s + t) for gi in g_imgs]
                trace.append(("expand", ord(s), ord(t)))
            else:
                _require(hs == ht, "equal-length images differ")
                del h_img[t]
                g_imgs = [gi.replace(t, s) for gi in g_imgs]
                trace.append(("merge", ord(t), ord(s)))
            after = len(h_img) + sum(map(len, h_img.values()))
            _require(after < before, "termination measure failed to decrease")

    order = list(dict.fromkeys("".join(g_imgs)))
    _require(set(order) == h_img.keys(), "letters of g differ from the surviving unknowns")
    # the remapped letters are 0..len(order)-1 and the images of theta are
    # slices of h's checked images, so neither needs checking again
    remap = {old: new for new, old in enumerate(order)}
    g = Morphism._trusted(tuple([Word._trusted([remap[c] for c in gi]) for gi in g_imgs]), len(order))
    theta = Morphism._trusted(tuple([Word._trusted(h_img[c]) for c in order]), h.target_alphabet_size)
    return PrincipalDecomposition(g, theta, tuple(trace))
