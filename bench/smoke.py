"""Smoke test of the benchmark at a tiny size.

    python3 bench/smoke.py

Runs every workload untraced and traced at a tiny size and checks that each
metric of ``BENCHMARK.json`` is printed with its unit, that the workloads
separate the layers as designed, and that each output check flags a
deliberately corrupted result. Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def run_printed(workload: str, trace: int) -> tuple[dict, dict[str, str]]:
    """Run through ``run.main`` and return the result line and the printed
    ``name = value unit`` lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(SEED), "--seconds", "0.05", "--trace", str(trace), "--tiny"]
        )
    assert code == 0, f"{workload}: exit code {code}"
    lines = out.getvalue().splitlines()
    printed = {}
    for line in lines[:-2]:
        _w, name, eq, _value, *unit = line.split()
        if eq == "=" and unit:
            printed[name] = unit[0]
    return json.loads(lines[-1]), printed


def check_metrics(spec: dict) -> None:
    layer_seen = set()
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, printed = run_printed(workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            names = [m["name"] for m in spec[key]]
            assert list(result["metrics"]) == names, (workload, trace)
            for m in spec[key]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and printed[m["name"]] == m["unit"], (workload, m)
                assert isinstance(got["value"], (int, float)), (workload, m)
                if trace and got["value"]:
                    layer_seen.add(m["name"])
                if not trace:
                    assert got["value"] > 0, (workload, m["name"], got)
            if not trace:
                assert "failed_ratio" in printed, workload
            else:
                calls = {n: v["value"] for n, v in result["metrics"].items()}
                assert (calls["poly.binomial_factors.calls"] == 0) == (workload != "factor"), workload
                assert (calls["search.enumerate_solutions.calls"] > 0) == (workload == "catalog"), workload
                assert (calls["principal.principal_decompose.calls"] > 0) == (workload == "sweep"), workload
            print(f"ok   {workload} trace={trace}")
    idle = {m["name"] for m in spec["per_layer"]} - layer_seen
    idle = {n for n in idle if not n.endswith(".failed") and n != "trace.overhead_s"}
    assert not idle, f"per-layer metrics never measured: {sorted(idle)}"


def expect_flagged(label: str, check, *args) -> None:
    try:
        check(*args)
    except workloads.CheckFailed as exc:
        print(f"ok   {label} flagged: {exc}")
        return
    raise AssertionError(f"{label}: the check passed a corrupted result")


def check_corruptions() -> None:
    tr = run.NoTrace()

    w = run.setup("catalog", SEED, True, tr)
    item = w.paper
    catalog, payload, rows = w.op(item, tr)
    w.check_catalog(item, catalog, payload, rows)
    dropped = catalog.solutions[-1]
    keep = lambda ms: tuple(h for h in ms if h != dropped)  # noqa: E731
    bad = dataclasses.replace(
        catalog,
        solutions=keep(catalog.solutions),
        by_rank={r: keep(ms) for r, ms in catalog.by_rank.items()},
        classes=tuple(dataclasses.replace(c, members=keep(c.members)) for c in catalog.classes),
    )
    expect_flagged("catalog with one solution dropped", w.check_catalog, item, bad, bad.to_json(), bad.csv_rows())

    w = run.setup("factor", SEED, True, tr)
    system, names = w.lib.textio.parse_system(inputs.PAPER_PAIR)
    item = (system, names, True)
    svecs, dets, per_det, report, hyper, cofactor = out = w.op(item, tr)
    w.check(item, out)
    fac, mins, counts = per_det[(1, 2)]
    assert fac.factors, "the paper pair's t23 has binomial factors"
    per_det = {**per_det, (1, 2): (dataclasses.replace(fac, factors=fac.factors[1:]), mins, counts)}
    expect_flagged("factorization with one factor removed", w.check, item, (svecs, dets, per_det, report, hyper, cofactor))

    w = run.setup("sweep", SEED, True, tr)
    item = w.items[0]
    vb, results = out = w.op(item, tr)
    w.check(item, out)
    h, dec, word, polys = results[0]
    images = (dec.theta.images[0] + w.lib.words.Word((0,)),) + dec.theta.images[1:]
    bad = dataclasses.replace(dec, theta=dataclasses.replace(dec.theta, images=images))
    expect_flagged("decomposition with theta altered", w.check, item, (vb, [(h, bad, word, polys)] + results[1:]))


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_corruptions()
    check_metrics(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
