"""Text formats: equations, morphisms, and polynomials.

Equations: one per line, ``xyxz = zxyx``; unknowns are single lowercase
letters, whitespace is ignored, ``#`` starts a comment. The unknown
order is x, y, z first, then any other letters alphabetically.

Morphisms: one binding per line, ``x = ab``; image letters a..z map to
target letters 0..25. In both formats a side or image written ``eps`` is
the empty word, so one spelled with the letters e, p, s reads as empty.

Polynomials: canonical form as printed, e.g. ``X^4*Y - X^3*Y + 2``;
variables are X, Y, Z, X4, X5, ... (X1, X2, X3 are accepted aliases).
"""

from __future__ import annotations

import re
from typing import Sequence

from .poly import MultiPoly
from .words import EqSystem, Equation, Morphism, Word, unknown_names


class ParseError(ValueError):
    pass


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_system(text: str) -> tuple[EqSystem, list[str]]:
    """Parse equations; returns the system and the unknown display names."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("no equations found")
    sides = []
    letters: set[str] = set()
    for line in lines:
        if line.count("=") != 1:
            raise ParseError(f"expected exactly one '=' in {line!r}")
        l, r = ("".join(part.split()) for part in line.split("="))
        l, r = ("" if side == "eps" else side for side in (l, r))
        for ch in l + r:
            if not ("a" <= ch <= "z"):
                raise ParseError(f"unknowns must be lowercase letters, got {ch!r}")
            letters.add(ch)
        sides.append((l, r))
    names = [c for c in "xyz" if c in letters] + sorted(letters - set("xyz"))
    index = {c: i for i, c in enumerate(names)}
    n = len(names)
    eqs = tuple(
        Equation(
            Word(tuple(index[c] for c in l)),
            Word(tuple(index[c] for c in r)),
            n,
        )
        for l, r in sides
    )
    return EqSystem(eqs), names


def render_equation(E: Equation, names: Sequence[str]) -> str:
    fmt = lambda w: "".join(names[s] for s in w) if w else "eps"
    return f"{fmt(E.left)} = {fmt(E.right)}"


def parse_morphism(text: str, names: Sequence[str]) -> Morphism:
    """Parse bindings like ``x = ab`` for exactly the given unknown names."""
    lines = _content_lines(text)
    index = {nm: i for i, nm in enumerate(names)}
    images: dict[int, Word] = {}
    for line in lines:
        if line.count("=") != 1:
            raise ParseError(f"expected exactly one '=' in {line!r}")
        lhs, rhs = (part.strip() for part in line.split("="))
        if lhs not in index:
            raise ParseError(f"unexpected unknown {lhs!r}; known: {', '.join(names)}")
        if index[lhs] in images:
            raise ParseError(f"duplicate binding for {lhs!r}")
        if rhs == "eps":
            images[index[lhs]] = Word()
        else:
            images[index[lhs]] = Word.from_letters("".join(rhs.split()))
    missing = [nm for nm in names if index[nm] not in images]
    if missing:
        raise ParseError(f"missing bindings for: {', '.join(missing)}")
    words = tuple(images[i] for i in range(len(names)))
    k = 1 + max((s for w in words for s in w), default=-1)
    return Morphism(words, k)


def render_morphism(h: Morphism, names: Sequence[str] | None = None) -> str:
    names = list(names) if names is not None else unknown_names(h.domain_size)
    return "\n".join(
        f"{nm} = {im if im else 'eps'}" for nm, im in zip(names, h.images)
    )


_VAR_RE = re.compile(r"([A-Z])(\d*)")
_INT_RE = re.compile(r"\d+")


def _var_index(letter: str, digits: str) -> int:
    if digits:
        if letter != "X":
            raise ParseError(f"numbered variables use X, got {letter}{digits}")
        idx = int(digits)
        if idx < 1:
            raise ParseError(f"variable index must be positive: X{digits}")
        return idx - 1
    if letter in "XYZ":
        return "XYZ".index(letter)
    raise ParseError(f"unknown variable {letter!r} (use X, Y, Z, X4, ...)")


def parse_poly(text: str, n: int | None = None) -> MultiPoly:
    """Parse the canonical polynomial text form back into a polynomial."""
    if m := re.search(r"\*(?!\s*[A-Z])", text):
        raise ParseError(f"expected a variable after '*' at position {m.start()} in {text!r}")
    s = text
    i, L = 0, len(s)

    def skip() -> None:
        nonlocal i
        while i < L and s[i].isspace():
            i += 1

    collected: list[tuple[int, dict[int, int]]] = []
    maxvar = -1
    skip()
    if i >= L:
        raise ParseError("empty polynomial")
    first = True
    while i < L:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
            skip()
        elif not first:
            raise ParseError(f"expected '+' or '-' at position {i} in {text!r}")
        first = False
        coeff = None
        m = _INT_RE.match(s, i)
        if m:
            coeff = int(m.group())
            i = m.end()
            skip()
            if i < L and s[i] == "*":
                i += 1
                skip()
        exps: dict[int, int] = {}
        while True:
            m = _VAR_RE.match(s, i)
            if not m:
                break
            i = m.end()
            var = _var_index(m.group(1), m.group(2))
            maxvar = max(maxvar, var)
            e = 1
            skip()
            if i < L and s[i] == "^":
                i += 1
                skip()
                m2 = _INT_RE.match(s, i)
                if not m2:
                    raise ParseError(f"expected an exponent at position {i} in {text!r}")
                e = int(m2.group())
                i = m2.end()
                skip()
            exps[var] = exps.get(var, 0) + e
            if i < L and s[i] == "*":
                i += 1
                skip()
                continue
            break
        if coeff is None and not exps:
            raise ParseError(f"expected a term at position {i} in {text!r}")
        collected.append((sign * (coeff if coeff is not None else 1), exps))
        skip()
    nvars = n if n is not None else maxvar + 1
    if maxvar >= nvars:
        raise ParseError(f"variable X{maxvar + 1} exceeds the declared count {nvars}")
    acc: dict[tuple[int, ...], int] = {}
    for c, exps in collected:
        key = tuple(exps.get(v, 0) for v in range(nvars))
        acc[key] = acc.get(key, 0) + c
    return MultiPoly(nvars, acc)
