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
``i`` is the character ``chr(i)`` and words over the unknowns are
``str``, so each substitution is one ``str.replace``; the trace holds
unknown indices. Two things keep the cost down:

* the sides: ``g(u)`` and ``g(v)`` are spelled once per equation, and
  from then on only the parts past their common prefix are kept and
  substituted into (the free monoid is cancellative, so cutting a common
  prefix off both sides changes no step);
* runs: consecutive expand steps of one pair ``(s, t)`` are held as a
  pending run of ``q`` steps, during which the image of ``t`` is read at
  the offset ``q |h(s)|``; the run is applied to ``g`` (``t -> s^q t``)
  and to the image of ``t`` (one slice) at once when another pair or a
  merge comes. This is Euclid's algorithm with quotients, and the trace
  still holds one tuple per step. An expand step is injective, so the
  step that solves an equation is always a merge, and no run is left
  pending when the next equation starts.

On ``xy = yx`` with ``h = (a^N, a)`` (N - 1 expand steps of one run,
then a merge) the cost is linear in N.

The letters of ``g`` are then renamed to 0, 1, 2, ... by first
occurrence in ``g(x_0) g(x_1) ...``, so equal-length-type inputs produce
literally identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    measure = len(h_img) + sum(map(len, h_img.values()))
    # The pending run: q expand steps t -> s t taken on the sides but not yet
    # applied to g_imgs and h_img; the image of t is h_img[t][cut:], where
    # cut = q * len(h_img[s]). Only a merge solves an equation, and it applies
    # the run first, so no run is pending from one equation to the next.
    s = t = ""
    q = cut = 0

    # An equation that g solves stays solved under every substitution, so
    # the equations are solved in order, each until g solves it.
    for e in system:
        u = "".join([g_imgs[x] for x in e.left])
        v = "".join([g_imgs[x] for x in e.right])
        while u != v:
            # only the sides past their common prefix are kept, and each step
            # substitutes into them in place of g
            n = min(len(u), len(v))
            j = 0
            while j < n and u[j] == v[j]:
                j += 1
            # A non-erasing solution cannot make one side a proper prefix of
            # the other.
            _require(j < n, "side exhausted under a non-erasing solution")
            u, v = u[j:], v[j:]
            a, b = u[0], v[0]
            la = len(h_img[a]) - (cut if a == t else 0)
            lb = len(h_img[b]) - (cut if b == t else 0)
            # the letter with the shorter image (the left one on a tie) comes first
            if la > lb:
                a, b, la, lb = b, a, lb, la
            if q and (la == lb or a != s or b != t):
                # a merge or another pair ends the run: t -> s^q t in g, and
                # one slice of h's image of t
                h_img[t] = Word._trusted(h_img[t][cut:])
                g_imgs = [gi.replace(t, s * q + t) for gi in g_imgs]
                q = cut = 0
            s, t = a, b
            if la != lb:
                hs = h_img[s]
                _require(h_img[t][cut : cut + len(hs)] == hs, "shorter image is not a prefix")
                q += 1
                cut += len(hs)
                st = s + t
                u, v = u.replace(t, st), v.replace(t, st)
                trace.append(("expand", ord(s), ord(t)))
            else:
                _require(h_img[s] == h_img[t], "equal-length images differ")
                del h_img[t]
                g_imgs = [gi.replace(t, s) for gi in g_imgs]
                u, v = u.replace(t, s), v.replace(t, s)
                trace.append(("merge", ord(t), ord(s)))
            after = len(h_img) + sum(map(len, h_img.values())) - cut
            _require(after < measure, "termination measure failed to decrease")
            measure = after

    order = list(dict.fromkeys("".join(g_imgs)))
    _require(set(order) == h_img.keys(), "letters of g differ from the surviving unknowns")
    # the remapped letters are 0..len(order)-1 and the images of theta are
    # h's checked images or trusted slices of them, so neither needs checking again
    remap = {old: new for new, old in enumerate(order)}
    g = Morphism._trusted(tuple([Word._trusted([remap[c] for c in gi]) for gi in g_imgs]), len(order))
    theta = Morphism._trusted(tuple([h_img[c] for c in order]), h.target_alphabet_size)
    return PrincipalDecomposition(g, theta, tuple(trace))
