"""Seeded input generators for the benchmark.

Everything here works on plain strings, so the workloads do not move when
the library's own fuzz generators change. Unknowns are the letters x, y, z,
w (the order ``weq.textio`` gives them) and image letters are a, b, c.
"""

from __future__ import annotations

import random

UNKNOWNS = "xyzw"

PAPER_PAIR = "xyxz = zxyx\nxyxxz = zxxyx"


def random_word(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def apply(h: dict[str, str], word: str) -> str:
    return "".join(h[c] for c in word)


def preimages(h: dict[str, str], target: str, max_len: int) -> list[str]:
    """Up to 64 words of at most ``max_len`` unknowns that the non-erasing
    ``h`` maps onto ``target`` (bounded depth-first search)."""
    out: list[str] = []

    def extend(pos: int, acc: list[str]) -> None:
        if len(out) >= 64:
            return
        if pos == len(target):
            out.append("".join(acc))
            return
        if len(acc) >= max_len:
            return
        for c, image in h.items():
            if target.startswith(image, pos):
                acc.append(c)
                extend(pos + len(image), acc)
                acc.pop()

    extend(0, [])
    return out


def solved_pair(
    rng: random.Random, n: int, side_lo: int, side_hi: int, balanced: bool = False
) -> tuple[str, dict[str, str]]:
    """Two distinct reduced equations over ``n`` unknowns that share the
    non-erasing solution returned with them, whose images have 1 to 3
    letters over a and b.

    Reduced means the sides differ in their first and in their last
    unknown, so no common prefix or suffix cancels; a pair that cancels
    down to ``x = y`` has a solution catalog orders of magnitude larger
    than its neighbours. Every one of the ``n`` unknowns occurs.
    With ``balanced`` both sides of each equation hold every unknown
    equally often. Independence is checked by the caller through
    ``weq.analysis.bounds``.
    """
    unknowns = UNKNOWNS[:n]
    while True:
        h = {c: random_word(rng, "ab", 1, 3) for c in unknowns}
        eqs: list[tuple[str, str]] = []
        for _ in range(20):
            u = random_word(rng, unknowns, side_lo, side_hi)
            vs = [
                v
                for v in preimages(h, apply(h, u), side_hi)
                if len(v) >= side_lo and v[0] != u[0] and v[-1] != u[-1]
                and (not balanced or sorted(v) == sorted(u))
            ]
            if vs:
                e = (u, rng.choice(vs))
                if e not in eqs and e[::-1] not in eqs:
                    eqs.append(e)
            if len(eqs) == 2:
                break
        if len(eqs) == 2 and set("".join(a + b for a, b in eqs)) == set(unknowns):
            return "\n".join(f"{a} = {b}" for a, b in eqs), h


def substitution(rng: random.Random) -> dict[str, str]:
    """A non-erasing substitution of a and b by words of 1 or 2 letters
    over a, b, c."""
    return {c: random_word(rng, "abc", 1, 2) for c in "ab"}


def morphism_text(h: dict[str, str], unknowns: str) -> str:
    return "\n".join(f"{c} = {h[c]}" for c in unknowns)


def scanned_candidates(text: str, max_len: int, k: int = 2) -> list[int]:
    """For each L up to ``max_len``, the number of candidates an exhaustive
    search up to total image length L over ``k`` letters tests on the pair
    ``text``: those whose length type balances the side lengths of both
    equations."""
    (u1, v1), (u2, v2) = (line.split(" = ") for line in text.splitlines())
    # (total length, length difference in each equation) -> length types
    states = {(0, 0, 0): 1}
    for c in UNKNOWNS:
        if c not in text:
            continue
        d1, d2 = u1.count(c) - v1.count(c), u2.count(c) - v2.count(c)
        states_next: dict[tuple[int, int, int], int] = {}
        for (total, a, b), ways in states.items():
            for l in range(max_len - total + 1):
                key = (total + l, a + d1 * l, b + d2 * l)
                states_next[key] = states_next.get(key, 0) + ways
        states = states_next
    by_total = [0] * (max_len + 1)
    for (total, a, b), ways in states.items():
        if a == b == 0:
            by_total[total] += ways * k**total
    out, running = [], 0
    for count in by_total:
        running += count
        out.append(running)
    return out
