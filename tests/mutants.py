"""Named mutants of the library, each of which a named test file must kill.

Run from the repository root (pytest does not collect this file, whose
name does not start with ``test_``):

    python tests/mutants.py                # every mutant
    python tests/mutants.py NAME [NAME..]  # the named mutants

Each mutant is a file of ``src/weq``, a snippet that must occur in it
exactly once, the snippet's replacement, and a test file. For each
mutant, ``src/`` is copied to a temporary directory, the snippet is
replaced there, and the test file runs with ``-x`` against the copy. The
mutant is killed when that run fails. The script prints one line per
mutant and exits 1 when a mutant survives or its snippet does not occur
exactly once, so that the list cannot go stale without notice.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# the address space of each test run, so that a mutant that removes a size
# guard fails with MemoryError rather than filling the machine's memory
MEMORY_LIMIT = 3 << 30


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: str


MUTANTS = (
    Mutant(
        "minimal-count-check-off",
        "analysis.py",
        "    if not lower <= count <= upper:\n",
        "    if False:\n",
        "tests/test_analysis.py",
    ),
    Mutant(
        "termination-check-off",
        "principal.py",
        '_require(after < measure, "termination measure failed to decrease")',
        '_require(True, "termination measure failed to decrease")',
        "tests/test_cli.py",
    ),
    Mutant(
        "letters-of-g-check-off",
        "principal.py",
        '_require(set(order) == h_img.keys(), "letters of g differ from the surviving unknowns")',
        '_require(True, "letters of g differ from the surviving unknowns")',
        "tests/test_cli.py",
    ),
    Mutant(
        "refusal-dropped",
        "search.py",
        "    if any(size > MAX_CANDIDATES for size in _running_space_sizes(n, cfg)):\n",
        "    if False:\n",
        # tests/test_search.py lists a space of 10^15 candidates without the
        # refusal; the CLI's text-mode count of xy = yx at length 100 takes
        # under a second without it, and returns 0 where 2 is expected
        "tests/test_cli.py",
    ),
    Mutant(
        "one-letter-count-builds-classes",
        "search.py",
        "    if k == 1:\n        # the one assignment gives every cell the one letter",
        "    if False:\n        # the one assignment gives every cell the one letter",
        "tests/test_search.py",
    ),
    Mutant(
        "collector-left-on",
        "search.py",
        "    gc.disable()\n",
        "",
        "tests/test_search.py",
    ),
    Mutant(
        "pool-merge-reversed",
        "search.py",
        "found = list(pool.map(_columns, repeat(k), position_classes))",
        "found = list(pool.map(_columns, repeat(k), position_classes))[::-1]",
        "tests/test_search.py",
    ),
    Mutant(
        "classify-rows-unsorted",
        "search.py",
        "rows = tuple(sorted([tuple([m.count(a) for m in multisets]) for a in set().union(*multisets)]))",
        "rows = tuple([tuple([m.count(a) for m in multisets]) for a in set().union(*multisets)])",
        "tests/test_search.py",
    ),
    Mutant(
        "no-unknowns-no-length-type",
        "search.py",
        "if sum(lt) <= L:",
        "if sum(lt) <= L and lt:",
        "tests/test_search.py",
    ),
    Mutant(
        "pivot-integrality-off",
        "search.py",
        "if rem or q < minimum:",
        "if q < minimum:",
        "tests/test_search.py",
    ),
    Mutant(
        "complement-order-off",
        "search.py",
        "keys += reversed(first[: size // 2])",
        "keys += first[: size // 2]",
        "tests/test_search.py",
    ),
    Mutant(
        "minor-sign-flipped",
        "encode.py",
        "_add_product(_add_product({}, S[j], Sp[k]), Sp[j], S[k], -1)",
        "_add_product(_add_product({}, S[j], Sp[k]), Sp[j], S[k], 1)",
        "tests/test_encode.py",
    ),
    Mutant(
        "divide-out-once",
        "poly.py",
        "_divide_out(cur, lam, once=False)",
        "_divide_out(cur, lam, once=True)",
        "tests/test_poly.py",
    ),
    Mutant(
        "divisor-check-off",
        "search.py",
        "if det and _divisor_keys(det, normal) is None",
        "if det and False",
        "tests/test_search.py",
    ),
    # without each refusal below, a later step on the empty support raises a
    # ValueError of its own, so only the pinned message tells them apart
    Mutant(
        "zero-factorization-refusal-off",
        "poly.py",
        '    if not p:\n        raise ValueError("the zero polynomial has no factorization")',
        '    if False:\n        raise ValueError("the zero polynomial has no factorization")',
        "tests/test_poly.py",
    ),
    Mutant(
        "zero-divisors-refusal-off",
        "poly.py",
        '    if not p:\n        raise ValueError("every pure difference divides the zero polynomial")',
        '    if False:\n        raise ValueError("every pure difference divides the zero polynomial")',
        "tests/test_poly.py",
    ),
    Mutant(
        "zero-determinant-refusal-off",
        "analysis.py",
        "    if not det:\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
        "tests/test_analysis.py",
    ),
)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED``, or why the mutant could not be run."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "weq" / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return f"STALE: the snippet occurs {text.count(mutant.snippet)} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        check = "import sys, weq, pathlib; sys.exit(pathlib.Path(weq.__file__).parent != pathlib.Path(sys.argv[1]))"
        if subprocess.run([sys.executable, "-c", check, str(src / "weq")], env=env).returncode:
            return "NOT RUN: the tests do not import the mutated copy"
        # the run's cwd is the copy, so the run writes no cache or example database into the repository
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(ROOT / mutant.tests)]
        code = subprocess.run(
            command, env=env, cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=_limit_memory
        ).returncode
        # pytest exits 1 when a test failed; any other code (no tests, a collection or usage error) kills nothing
        return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exited {code}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        t0 = time.perf_counter()
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{mutant.name}: {outcome} ({mutant.tests}, {time.perf_counter() - t0:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
