"""The suite's own checks at the sizes that only CI runs, by name.

    python tests/at_scale.py                # every check, from the repository root
    python tests/at_scale.py NAME [NAME..]  # the named checks

Each check calls a claim function of the suite, or runs ``python -m
weq.cli`` on this checkout's ``src/`` through ``weq``, at a fixed size and
seed, against pinned counts. The script prints one line per check and the
claims that failed under it, and exits 1 when a check fails and 2 on an
unknown name. CI runs each check as a step of its own, and
``test_source_rules.py`` ties the table to the workflow; it imports this
file, so a stale name of a claim function fails the suite too.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    # the library of this checkout, as PYTHONPATH=src gives the suite
    sys.path.insert(1, str(SRC))

from conftest import defect_theorem_sweep  # noqa: E402
from test_acceptance import bound_claims, pair_claims_in_scope  # noqa: E402
from test_poly import factorization_claims, shift_claims, solved_pair_determinants  # noqa: E402
from test_principal import reference_principal  # noqa: E402
from test_search import PAIR, listing_claims  # noqa: E402

from weq.search import SearchConfig  # noqa: E402
from weq.textio import parse_morphism, parse_system  # noqa: E402

def weq(*args: str, timeout: float | None = None) -> str:
    """The standard output of ``python -m weq.cli ARGS`` on this checkout's
    ``src/``, killed after ``timeout`` seconds; any exit but 0 raises."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "weq.cli", *args]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout, check=True).stdout


def _pinned(got, want, failed=()) -> tuple[str, list[str]]:
    return str(got), [*failed, *([f"expected {want}"] if got != want else [])]


def factorization() -> tuple[str, list[str]]:
    """``factorization_claims`` on 2,000 seeded nonzero pair determinants over
    4 and 5 unknowns with sides up to 8 letters (TestBinomialFactors checks
    1,000 with sides up to 6): each must factor as the trial-division
    reference does, with its factor directions as its divisor directions,
    and each single division by one of its anchor candidates must be
    ``reference_divide``'s quotient, or None for both (2,491 candidates, 787
    of which divide). Took 3.6 to 5 s on 2 shared vCPUs, 0.2 s of it the
    single divisions."""
    sizes, failed = factorization_claims(solved_pair_determinants(random.Random(33), 4, 8, 2000))
    return _pinned(sizes, {"determinants": 2000, "with_factor": 713, "divisions": 2491, "exact": 787}, failed)


def shift() -> tuple[str, list[str]]:
    """``shift_claims`` on the first 500 determinants of ``factorization``
    (TestBinomialFactors checks 100), each times a seeded monomial X^mu with
    entries up to 10^6, so that the packed line keys of ``weq.poly`` run to
    about 200 bits (about 40 in ``factorization``): the divisor directions,
    factors and residual must not change, the content must grow by mu, and
    each quotient by a factor direction must be the unshifted one times
    X^mu. Took about 1 s on 2 shared vCPUs."""
    sizes, failed = shift_claims(solved_pair_determinants(random.Random(33), 4, 8, 500), random.Random(34))
    return _pinned(sizes, {"determinants": 500, "quotients": 210}, failed)


def counting() -> tuple[str, list[str]]:
    """Text-mode ``weq search`` counts the solutions without listing them.
    The paper pair at length 16 has 398,059, and the expected lines are the
    output of the listing search. ``xy = yx`` at length 20 has the closed
    form sum over a + b <= 20 of 2^gcd(a, b) = 4,197,183 solutions, all but
    the empty one of rank 1, in 129 classes (the coprime (p, q))."""
    pair = weq("search", "xyxz = zxyx\nxyxxz = zxxyx", "--max-len", "16", timeout=30).splitlines()
    commuting = weq("search", "xy = yx", "--max-len", "20", timeout=30).splitlines()
    got = [*pair, *commuting[:3], f"{sum(line.startswith('class ') for line in commuting)} classes"]
    want = ["solutions within budget: 398059", "rank 0: 1", "rank 1: 397428", "rank 2: 630"]
    want += ["class 0: normal (2, 1, -1) (2|h(x)| + |h(y)| = |h(z)|), 630 members"]
    return _pinned(got, [*want, "solutions within budget: 4197183", "rank 0: 1", "rank 1: 4197182", "129 classes"])


def defect_theorem() -> tuple[str, list[str]]:
    """``defect_theorem_sweep``, which TestTwoUnknownsAgainstDefectTheorem
    runs one system at a time, on 300 seeded systems of one or two equations
    over x and y at length 21, the largest the budget of 10^8 candidates
    admits for two unknowns (88,080,385 candidates; 184,549,377 at length
    22). Half the equations have a right side that is a shuffle of the left
    one, so that systems with many classes occur; the counts must be the
    closed form of ``conftest.against_defect_theorem``."""
    failed = defect_theorem_sweep(random.Random(32), SearchConfig(21, 2), 300)
    return f"300 systems over two unknowns, {len(failed)} disagreeing with the defect theorem", failed


def listing() -> tuple[str, list[str]]:
    """``listing_claims``, which TestCatalogInvariants runs at length 8, on the
    paper pair at lengths 12 and 14 over two letters (26,155 and 100,947
    solutions) and at length 11 over three (800,086), where each length type
    has an odd number of assignments and so a middle one that is its own
    complement: the counts must be the dynamic program's; each solution must
    have the rank and class that ``rank`` and ``gamma_normal`` give it, in
    the kinds, the JSON and the csv rows, with the classes numbered by their
    sorted normals; the solutions must be distinct and strictly increasing
    in the catalog order (total length, length type, images), and each csv
    row must give its length type. The three took 2, 2 and 13 s on 2 shared
    vCPUs under CPython 3.11; length 12 over three letters (2,397,943
    solutions) took 39-43 s and 1.9 GB, too close to the step's timeout for
    the slower CPython 3.10."""
    want = {(12, 2): {"solutions": 26155, "in_a_class": 112}, (14, 2): {"solutions": 100947, "in_a_class": 284},
            (11, 3): {"solutions": 800086, "in_a_class": 516}}
    runs = {key: listing_claims(PAIR, SearchConfig(*key)) for key in want}
    sizes = {key: sizes for key, (sizes, _) in runs.items()}
    return _pinned(sizes, want, [claim for _, failed in runs.values() for claim in failed])


def listing_without_repeats() -> tuple[str, list[str]]:
    """``x = x`` at length 1 over 100,000 letters lists 100,001 solutions,
    each with an image no other solution has, inside the candidate budget.
    A count vector over the whole alphabet per distinct image would need
    about 80 GB here, and the listing's cost must not grow with the
    alphabet."""
    p = json.loads(weq("search", "x = x", "--max-len", "1", "--alphabet", "100000", "--json", timeout=60))
    images = {tuple(s["images"]) for s in p["solutions"]}
    sizes = {"solution_count": p["solution_count"], "listed": len(p["solutions"]), "distinct": len(images)}
    return _pinned(sizes, dict.fromkeys(sizes, 100001))


def bounds() -> tuple[str, list[str]]:
    """``bound_claims``, which acceptance criterion 8 runs on 50 pairs at
    length 10, on the pairs of its generator at length 16 until 500 pairs
    are verified (908 draws): ``verify_bounds`` checks, with one count per
    pair, that no pair has more classes than its bound and that the normal
    of each counted class divides every nonzero determinant of the pair,
    which is the paper's divisor claim; 63 pairs have a class, and there are
    144 divisor checks."""
    sizes, failed = bound_claims(SearchConfig(16, 2), 500)
    return _pinned(sizes, {"draws": 908, "pairs": 500, "with_class": 63, "most_classes": 1, "checks": 144}, failed)


def scope() -> tuple[str, list[str]]:
    """The pair claims on every reduced equation over x, y, z in which each
    unknown occurs, sides of at most 4 unknowns (2,862 equations; the suite
    runs sides of at most 3), at length 10 over two letters. Each equation
    is counted alone, and each of the 6,312 pairs that share a class normal
    goes through ``verify_bounds``, which skips the 6 whose determinants are
    all zero, counts the other 6,306 together and checks that none has more
    classes than its bound and that each class normal divides every nonzero
    determinant of its pair (2,223 pairs with a class, 6,399 divisor
    checks). Took 17-21 s on 2 shared vCPUs."""
    sizes, failed = pair_claims_in_scope(4, SearchConfig(10, 2))
    want = {"equations": 2862, "sharing": 6312, "pairs": 6306, "with_class": 2223, "checks": 6399}
    return _pinned(sizes, want, failed)


def principal() -> tuple[str, list[str]]:
    """``xy = yx`` under x = a^N, y = a takes one expand step per letter
    cut off x's image, N = 1600 and 3200; the payload must be the g, theta
    and trace of the test oracle ``reference_principal``, which takes about
    2.4 s at N = 3200 on 2 shared vCPUs."""
    system, names = parse_system("xy = yx")
    got = {}
    for N in (1600, 3200):
        h = f"x = {'a' * N}\ny = a"
        p = json.loads(weq("principal", "xy = yx", h, "--json", timeout=30))
        ref = reference_principal(parse_morphism(h, names), system)
        want = {"g": [str(im) for im in ref.g.images], "theta": [str(im) for im in ref.theta.images],
                "trace": [list(step) for step in ref.trace]}
        got[N] = {"steps": len(p["trace"]), "as the reference": p == want}
    return _pinned(got, {N: {"steps": N, "as the reference": True} for N in got})


def principal_linear() -> tuple[str, list[str]]:
    """``xy = yx`` under x = a^N, y = a, N = 10^5 and 2*10^5: N - 1 expand
    steps of one run, then a merge; the payload must be the closed form
    g = (a^N, a), theta = (a). h is passed in a file, since one argument is
    limited to 128 KB. Each N took 0.7 and 1.2 s on 2 shared vCPUs, where
    the reduction without runs took over a minute at N = 10^5."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for N in (100000, 200000):
            h = Path(tmp) / f"h{N}.txt"
            h.write_text(f"x = {'a' * N}\ny = a\n")
            p = json.loads(weq("principal", "xy = yx", str(h), "--json", timeout=30))
            want = {"g": ["a" * N, "a"], "theta": ["a"], "trace": [["expand", 1, 0]] * (N - 1) + [["merge", 1, 0]]}
            got[N] = {"steps": len(p["trace"]), "closed form": p == want}
    return _pinned(got, {N: {"steps": N, "closed form": True} for N in got})


def encoding_fuzz() -> tuple[str, list[str]]:
    """The encoding fuzz exits 1 on any case where the encoding's solution
    check and the word-level check disagree; the --json run reads the same
    payload."""
    shown = weq("search", "--verify-encoding", "20000", "--seed", "1").strip()
    p = json.loads(weq("search", "--verify-encoding", "20000", "--seed", "1", "--json"))
    return shown, [] if p["cases"] == 20000 and p["discrepancies"] == [] else [f"the --json payload is {p}"]


CHECKS = {
    check.__name__.replace("_", "-"): check
    for check in (factorization, shift, counting, defect_theorem, listing, listing_without_repeats, bounds, scope,
                  principal, principal_linear, encoding_fuzz)
}


def main(names: list[str]) -> int:
    unknown = set(names) - set(CHECKS)
    if unknown:
        print(f"no such check: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failures = 0
    for name, check in CHECKS.items():
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            shown, failed = check()
        except subprocess.TimeoutExpired as error:
            shown, failed = "weq failed", [str(error)]
        except subprocess.CalledProcessError as error:
            shown, failed = "weq failed", [f"{error}\n{error.stderr}".rstrip()]
        failures += bool(failed)
        line = f"{name}: {'FAILED ' if failed else ''}{shown} ({time.perf_counter() - t0:.1f} s)"
        print(line, *(f"  {claim}" for claim in failed), sep="\n", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
