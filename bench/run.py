"""Benchmark of the in-tree ``weq`` package.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 12 --trace 0

or, for every workload (one process each, so that peak memory stays per
workload):

    for w in catalog factor sweep cli; do
        python3 bench/run.py --workload $w --seed 1 --seconds 12; done

Workloads (see ``workloads.py``): ``catalog``, ``factor``, ``sweep``,
``cli``. Each runs as a closed loop in one process: the next op starts when
the previous one has finished, and ``cli`` keeps at most one ``weq``
subprocess alive. Each run makes the number of whole rounds that take about
``--seconds`` of op time at the reference speed on the seed commit, so
every run of a workload does the same work; every op's output is checked
outside the timed region (``catalog`` checks the paper catalog in a forked
child). The set-up samples run after the ops, one fresh process at a time.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``: ``setup_s`` (median of three set-ups, each a fresh
process timed from its start until it is ready for the first op: interpreter
start, imports of the benchmark and of ``weq``, seeded input generation and
``textio`` parsing), ``ops_per_s``, ``op_p50_ms``, ``op_tail_ms`` (the
highest percentile with at least ten ops beyond it) and ``peak_rss_mb`` (of
the ``weq`` subprocesses for ``cli``). Times are scaled to a reference
machine speed measured during the ops (see ``speed.py``): by a pure-Python
kernel for the in-process workloads, by the start of a bare interpreter
for ``cli``. The line above the result carries the wall-clock values under
``wall``. ``failed_ratio`` (failed / attempted, 0 when all is well) is
printed above it and carried by the ``failed`` and ``attempted`` fields,
since a metric that is 0 on every healthy run cannot take a relative bound.

With ``--trace 1`` the workload runs untraced, traced, and untraced again
over the same rounds; the last line carries the per-layer metrics, taken
from spans recorded around the benchmark's own calls into each module, and
the spans are written to ``bench/out/``.

The run exits non-zero without a result line when the library sources are
missing or an unexpected error occurs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
MODULES = ("words", "poly", "encode", "analysis", "principal", "search", "textio", "cli")


class NoTrace:
    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value) -> None:
        pass


class Tracer:
    """Spans ``(name, start, end, parent, op id, failed)`` and counts, kept in
    memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(idx)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, failed)

    def count(self, name, value) -> None:
        self.counts[name] += value

    def layers(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.s`` (self time: duration minus the
        time covered by child spans) and ``<span>.failed``."""
        child_time = Counter()
        for name, start, end, parent, _op, _failed in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _parent, _op, failed) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start - child_time[idx]
            out[f"{name}.failed"] += failed
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "failed": failed}) + "\n")


def load_weq() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"weq.{m}") for m in MODULES})


def setup(workload: str, seed: int, tiny: bool, tr):
    import workloads

    return workloads.WORKLOADS[workload](load_weq(), seed, tiny, tr)


def rounds_for(w, seconds: float) -> int:
    """The number of rounds that take about ``seconds`` of op time at the
    reference speed on the seed commit. Every run of a workload with the
    same ``seconds`` does the same work, whatever the machine's speed."""
    return max(1, round(seconds / w.ROUND_S))


def measure(w, tr, rounds: int, after_op=None) -> tuple[list[tuple[float, float]], int]:
    """Closed loop over ``rounds`` rounds. Returns the wall-clock interval
    of every op and the number of failed ops. ``after_op`` runs after each
    op and its check."""
    intervals: list[tuple[float, float]] = []
    failed = 0
    for r in range(rounds):
        for item in w.round(r):
            tr.op_id = len(intervals)
            error = None
            t0 = time.perf_counter()
            try:
                out = tr.call("op", w.op, item, tr)
            except Exception as exc:  # a failing op is counted, not fatal
                error = exc
            intervals.append((t0, time.perf_counter()))
            if error is None:
                try:
                    w.check(item, out)
                except Exception as exc:
                    error = exc
            if error is not None:
                failed += 1
                print(f"op {tr.op_id} failed: {error!r}", file=sys.stderr)
            out = None  # the next op does not run next to this one's output
            if after_op is not None:
                after_op()
    return intervals, failed


def durations(intervals: list[tuple[float, float]]) -> list[float]:
    return [t1 - t0 for t0, t1 in intervals]


def setup_samples(workload: str, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """``SETUP_SAMPLES`` set-ups, each in a fresh process and timed from its
    start until it is ready for the first op: interpreter start, the
    benchmark's and ``weq``'s imports, input generation and parsing. The
    process times the kernel during its set-up (``speed.Scaler``) and
    reports the time that took and the kernel's mean, which scales the rest.
    Returns the times scaled to the reference speed, and the unscaled ones."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--setup-only"] + (["--tiny"] if tiny else [])
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        words = line.split()
        if len(words) != 3 or words[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        seconds = dt - float(words[1])
        wall.append(seconds)
        scaled.append(seconds * speed.REFERENCE_MS / float(words[2]))
    return scaled, wall


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it
    (the maximum when there are ten ops or fewer), the percentile, and the
    number of ops beyond it."""
    xs = sorted(latencies)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "weq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns ``(result, info)`` where ``result`` is the
    final JSON object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "source_sha256": source_digest(),
    }
    if trace:
        values, attempted, failed = run_traced(workload, seed, seconds, tiny, info)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed = run_plain(workload, seed, seconds, tiny, info)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def run_plain(workload, seed, seconds, tiny, info):
    w = setup(workload, seed, tiny, NoTrace())
    rounds = rounds_for(w, seconds)
    try:
        with w.scaler() as scaler:
            intervals, failed = measure(w, NoTrace(), rounds, scaler.after_op)
        latencies, wall = scaler.scale(intervals)
    finally:
        w.close()
    # Read before the set-up processes run, which would count for ``cli``.
    rss = peak_rss_mb(workload)
    setups, setups_wall = setup_samples(workload, seed, tiny)
    value, pct, beyond = tail(latencies)
    n = len(latencies)
    info.update(
        rounds=rounds, op_p50_samples=n, op_tail_percentile=round(pct, 2), op_tail_beyond=beyond,
        failed_ratio=failed / n, setup_samples=len(setups),
        reference_ms=statistics.median(scaler.kernel()),
        wall={
            "setup_s": statistics.median(setups_wall),
            "ops_per_s": (n - failed) / sum(wall),
            "op_p50_ms": 1000 * statistics.median(wall),
            "op_tail_ms": 1000 * tail(wall)[0],
        },
    )
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (n - failed) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * value,
        "peak_rss_mb": rss,
    }
    return values, n, failed


def run_traced(workload, seed, seconds, tiny, info):
    tr = Tracer()
    w = setup(workload, seed, tiny, tr)
    try:
        # The first pass warms the process; the overhead compares the traced
        # pass with the untraced one after it.
        rounds = rounds_for(w, seconds)
        cold, failed_cold = measure(w, NoTrace(), rounds)
        traced, failed_traced = measure(w, tr, rounds)
        plain, failed_plain = measure(w, NoTrace(), rounds)
        extras = w.extras(tr, rounds)
    finally:
        w.close()
    tr.write(OUT / f"trace-{workload}-{seed}.jsonl")
    values = {**tr.layers(), **tr.counts, **extras}
    values["search.solution_ratio"] = (
        tr.counts["search.solutions"] / tr.counts["search.candidates"]
        if tr.counts["search.candidates"] else 0
    )
    values["trace.overhead_s"] = sum(durations(traced)) - sum(durations(plain))
    info.update(rounds=rounds, ops_per_pass=len(plain))
    return values, len(cold) + len(traced) + len(plain), failed_cold + failed_traced + failed_plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "factor", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # --tiny shrinks every workload (smoke test); --setup-only builds the
    # workload, prints "ready", the seconds its kernel timings took and
    # their mean in ms, and exits (one set-up sample of setup_s).
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "weq" / "__init__.py").is_file():
        print(f"error: no weq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        with speed.Scaler() as scaler:
            setup(args.workload, args.seed, args.tiny, NoTrace()).close()
        spent = sum(end - start for start, end, _ in scaler.samples)
        print("ready", spent, statistics.fmean(scaler.kernel()), flush=True)
        return 0
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    notes = {}
    if not args.trace:
        notes = {
            "op_p50_ms": f"(n={info['op_p50_samples']})",
            "op_tail_ms": f"(p{info['op_tail_percentile']:g}, {info['op_tail_beyond']} ops beyond)",
        }
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} {notes.get(name, '')}".rstrip())
    if not args.trace:
        print(f"{args.workload} failed_ratio = {info['failed_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']})")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
