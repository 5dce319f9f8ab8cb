"""Text formats: equations, morphisms, and polynomials.

Equations: one per line, ``xyxz = zxyx``; unknowns are single lowercase
letters, whitespace is ignored, ``#`` starts a comment. The unknown
order is x, y, z first, then any other letters alphabetically.

Morphisms: one binding per line, ``x = ab``; image letters a..z map to
target letters 0..25. In both formats a side or image written ``eps`` is
the empty word, so one spelled with the letters e, p, s reads as empty.

Polynomials: canonical form as printed, e.g. ``X^4*Y - X^3*Y + 2``, in
this grammar, with whitespace allowed between tokens::

    poly     := [sign] term (sign term)*
    term     := number | [number ['*']] factor ('*' factor)*
    factor   := variable ['^' number]
    variable := X | Y | Z | X1 ... X26

A number is a run of digits 0-9. X, Y, Z are X1, X2, X3; a numbered
variable has no leading zero. The ring has at most ``MAX_VARS`` = 26
variables, one per lowercase unknown, so an index past 26 and a
declared ring size outside 0..26 are parse errors.
"""

from __future__ import annotations

import re
from typing import Sequence

from .poly import MultiPoly, poly_var_names
from .words import EqSystem, Equation, Morphism, Word


# The most ring variables a polynomial can have: one per unknown letter.
MAX_VARS = 26


class ParseError(ValueError):
    pass


def _sides(text: str) -> list[tuple[str, str]]:
    """The ``lhs = rhs`` lines of ``text`` as side pairs: comments and blank
    lines dropped, whitespace removed, a side written ``eps`` read as empty."""
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("=") != 1:
            raise ParseError(f"expected exactly one '=' in {line!r}")
        l, r = ("".join(part.split()) for part in line.split("="))
        pairs.append(("" if l == "eps" else l, "" if r == "eps" else r))
    return pairs


def parse_system(text: str) -> tuple[EqSystem, list[str]]:
    """Parse equations; returns the system and the unknown display names."""
    sides = _sides(text)
    if not sides:
        raise ParseError("no equations found")
    letters = "".join(l + r for l, r in sides)
    if bad := re.search("[^a-z]", letters):
        raise ParseError(f"unknowns must be lowercase letters, got {bad.group()!r}")
    names = [c for c in "xyz" if c in letters] + sorted(set(letters) - set("xyz"))
    index = {c: i for i, c in enumerate(names)}
    word = lambda side: Word(index[c] for c in side)
    return EqSystem(Equation(word(l), word(r), len(names)) for l, r in sides), names


def parse_morphism(text: str, names: Sequence[str]) -> Morphism:
    """Parse bindings like ``x = ab`` for exactly the given unknown names."""
    images: dict[str, str] = {}
    for lhs, rhs in _sides(text):
        if lhs not in names:
            raise ParseError(f"unexpected unknown {lhs!r}; known: {', '.join(names)}")
        if lhs in images:
            raise ParseError(f"duplicate binding for {lhs!r}")
        images[lhs] = rhs
    missing = [nm for nm in names if nm not in images]
    if missing:
        raise ParseError(f"missing bindings for: {', '.join(missing)}")
    return Morphism.from_images(*(images[nm] for nm in names))


# A term: an optional sign, then a coefficient and/or '*'-joined factors,
# where a '*' after the coefficient is taken only when a factor follows.
# Groups 1-3 are the sign, the coefficient and the factors.
_FACTOR = r"([A-Z])([0-9]*)(?:\s*\^\s*([0-9]+))?"
_FACTOR_RE = re.compile(_FACTOR, re.ASCII)
_TERM_RE = re.compile(
    rf"\s*([+-]?)\s*([0-9]+)?(?:(?(2)\s*\*?)\s*({_FACTOR}(?:\s*\*\s*{_FACTOR})*))?\s*", re.ASCII
)


def _int(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int-string conversion limit
        raise ParseError(f"{what} with {len(digits)} digits is too long") from None


def _var_index(letter: str, digits: str) -> int:
    if not digits:
        if letter in "XYZ":
            return "XYZ".index(letter)
        raise ParseError(f"unknown variable {letter!r} (use X, Y, Z, X4, ...)")
    if letter != "X":
        raise ParseError(f"numbered variables use X, got {letter}{digits}")
    if digits[0] == "0":
        raise ParseError(f"variable index must be positive, with no leading zero: X{digits}")
    if len(digits) > 2 or int(digits) > MAX_VARS:
        raise ParseError(f"variable X{digits} is past X{MAX_VARS}, the last ring variable")
    return int(digits) - 1


def parse_poly(text: str, n: int | None = None) -> MultiPoly:
    """Parse the polynomial text form into a polynomial over ``n`` ring
    variables, by default as many as the largest variable index read."""
    if n is not None and not 0 <= n <= MAX_VARS:
        raise ParseError(f"the ring size must be 0..{MAX_VARS}, got {n}")
    if not text.strip():
        raise ParseError("empty polynomial")
    terms: list[tuple[int, dict[int, int]]] = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        sign, coeff, factors = m.group(1, 2, 3)
        if pos and not sign:
            raise ParseError(f"expected '+' or '-' at position {pos} in {text!r}")
        if not (coeff or factors):
            raise ParseError(f"expected a term at position {m.end()} in {text!r}")
        exps: dict[int, int] = {}
        for letter, digits, e in _FACTOR_RE.findall(factors or ""):
            var = _var_index(letter, digits)
            exps[var] = exps.get(var, 0) + (_int(e, "an exponent") if e else 1)
        c = _int(coeff, "a coefficient") if coeff else 1
        terms.append((-c if sign == "-" else c, exps))
        pos = m.end()
    maxvar = max((v for _, exps in terms for v in exps), default=-1)
    nvars = n if n is not None else maxvar + 1
    if maxvar >= nvars:
        raise ParseError(f"variable {poly_var_names(maxvar + 1)[maxvar]} exceeds the declared count {nvars}")
    acc: dict[tuple[int, ...], int] = {}
    for c, exps in terms:
        key = tuple(exps.get(v, 0) for v in range(nvars))
        acc[key] = acc.get(key, 0) + c
    return MultiPoly(nvars, acc)
