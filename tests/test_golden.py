"""Byte-for-byte golden outputs of every CLI command, text and ``--json``.

Each case runs ``weq.cli.main`` in-process and compares its stdout, its
exit code and, for ``search --csv``, the written CSV file with the files
under ``tests/golden/``. Regenerate them (only when an output change is
intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from weq.cli import main

GOLDEN = Path(__file__).parent / "golden"
CSV = "<csv>"  # replaced by a temporary path

PAIR = "xyxz = zxyx\nxyxxz = zxxyx\n"
ZERO_PAIR = "xy = yx\nxxy = yxx\n"
TRIPLE = PAIR + "xzy = zxy\n"

CASES = {
    "encode": ["encode", PAIR],
    "det": ["det", PAIR],
    "det_zero_pair": ["det", ZERO_PAIR],
    "det_one_equation": ["det", "xy = yx"],
    "factor": ["factor", "X^2*Y - Y"],
    "factor_negative": ["factor", "-X^3*Y*Z + X^3*Y + X*Z^2 - X*Z"],
    "factor_square": ["factor", "X^4 - 2*X^2 + 1"],
    "factor_constant_residual": ["factor", "2*X - 2"],
    "factor_constant": ["factor", "6"],
    "balanced": ["balanced", "xy = x\nxyxz = zxyx"],
    "check": ["check", "xz = zy", "x = ab\ny = ba\nz = aba"],
    "check_non_solution": ["check", "xz = zy", "x = a\ny = b\nz = a"],
    "principal": ["principal", "xy = yx", "x = abab\ny = ab"],
    "principal_conjugacy": ["principal", "xz = zy", "x = ab\ny = ba\nz = aba"],
    "principal_erasing": ["principal", "uv = vu", "u = eps\nv = ab"],
    "hyperplanes": ["hyperplanes", PAIR],
    "hyperplanes_all_zero": ["hyperplanes", ZERO_PAIR],
    "paper_example": ["paper-example"],
    "bounds_pair": ["bounds", PAIR],
    "bounds_system": ["bounds", TRIPLE],
    "bounds_system_assume": ["bounds", TRIPLE, "--assume-rank-solution"],
    "search_catalog": ["search", "xz = zy", "--max-len", "5", "--csv", CSV],
    "search_catalog_pair": ["search", PAIR, "--max-len", "8", "--csv", CSV],
    "search_named_unknowns": ["search", "uv = vu", "--max-len", "4"],
    "search_no_erasing": ["search", "xz = zy", "--max-len", "6", "--no-erasing", "--alphabet", "3"],
    "search_verify_bounds": ["search", PAIR, "--verify-bounds", "--max-len", "8"],
    "search_verify_encoding": ["search", "--verify-encoding", "50"],
    "parse_error": ["encode", "xy yx"],
}


def run(argv: list[str], csv_path: Path) -> tuple[int, bytes, bytes | None]:
    """Exit code, stdout and CSV file contents of one in-process run."""
    argv = [str(csv_path) if a == CSV else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    csv = csv_path.read_bytes() if csv_path.exists() else None
    return code, out.getvalue().encode("utf-8"), csv


def variants():
    for name, argv in CASES.items():
        yield name, argv
        yield f"{name}_json", argv + ["--json"]


@pytest.mark.parametrize("name,argv", list(variants()), ids=[n for n, _ in variants()])
def test_golden(name, argv, tmp_path):
    code, stdout, csv = run(argv, tmp_path / "out.csv")
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exit_codes[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    expected_csv = GOLDEN / f"{name}.csv"
    assert csv == (expected_csv.read_bytes() if expected_csv.exists() else None)


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    exit_codes = {}
    for name, argv in variants():
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, csv = run(argv, Path(tmp) / "out.csv")
        exit_codes[name] = code
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        if csv is not None:
            (GOLDEN / f"{name}.csv").write_bytes(csv)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(exit_codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    regenerate()
