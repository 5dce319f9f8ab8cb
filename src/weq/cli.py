"""Command-line front end.

Exit codes: 0 on success, 1 when an analysis finds a violation or a
mismatch, 2 on parse or usage errors, 3 on an internal error (a
computation broke one of its own invariants; one line on stderr), and
141, the code a shell gives a process killed by SIGPIPE, when stdout is
closed before the output is written, as in ``weq ... | head -1``.
Inputs that look like existing paths are read as files, anything else
is treated as literal text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, search
from .encode import balanced_residual, check_solution_poly, is_balanced, s_vector
from .poly import MultiPoly, binomial_factors, format_poly, pure_difference
from .principal import principal_decompose
from .textio import (
    ParseError,
    parse_morphism,
    parse_poly,
    parse_system,
    render_equation,
)
from .words import InternalError, LambdaVector, is_solution


def _read_text(arg: str) -> str:
    if os.path.exists(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {arg}: {exc.strerror}") from None
    return arg


def _read_pair_system(arg: str, too_few_equations: str):
    """Read a system for the determinant commands, which need two
    equations and two unknowns."""
    system, names = parse_system(_read_text(arg))
    if len(system) < 2:
        raise ParseError(too_few_equations)
    if system.n < 2:
        raise ParseError("determinants need two unknowns")
    return system, names


def _factorization_text(fac: dict) -> str:
    """Render the JSON form of a binomial factorization as a product."""
    parts = []
    if fac["sign"] < 0:
        parts.append("-1")
    if any(fac["content"]):
        parts.append(format_poly(MultiPoly.monomial(len(fac["content"]), fac["content"])))
    for f in fac["factors"]:
        m = f["multiplicity"]
        factor = format_poly(pure_difference(LambdaVector(tuple(f["lambda"]))))
        parts.append(f"({factor})" + (f"^{m}" if m > 1 else ""))
    residual = fac["residual"]
    if residual != "1":
        # format_poly separates terms by spaces and puts none inside a term
        parts.append(f"({residual})" if " " in residual else residual)
    if not parts:
        parts.append("1")
    return " * ".join(parts)


# Every ``cmd_*`` returns ``(exit code, payload, render)``: ``main`` prints
# the payload as JSON under ``--json`` and the lines of ``render(payload)``
# otherwise, so the text form is always derived from the JSON one.


def cmd_encode(args):
    system, names = parse_system(_read_text(args.input))
    rows = [
        {"equation": render_equation(E, names), "s_vector": [format_poly(p) for p in s_vector(E)]}
        for E in system
    ]

    def render(rows):
        for i, row in enumerate(rows, 1):
            yield f"E{i}: {row['equation']}"
            yield f"S(E{i}) = ({', '.join(row['s_vector'])})"

    return 0, rows, render


def cmd_det(args):
    system, names = _read_pair_system(args.input, "determinants need two equations")
    grid = analysis.PairAnalysis(system.equations[0], system.equations[1]).grid
    rows = [{"pair": [j + 1, k + 1], "determinant": format_poly(det)} for (j, k), det in grid.items()]
    return 0, rows, lambda rows: (f"t{r['pair'][0]}{r['pair'][1]} = {r['determinant']}" for r in rows)


def cmd_factor(args):
    p = parse_poly(_read_text(args.poly).strip(), args.nvars)
    if not p:
        raise ParseError("cannot factor the zero polynomial")
    payload = {"input": format_poly(p), **binomial_factors(p).to_json()}
    return 0, payload, lambda f: [f"{f['input']} = {_factorization_text(f)}"]


def cmd_balanced(args):
    system, names = parse_system(_read_text(args.input))
    rows = [
        {
            "equation": render_equation(E, names),
            "balanced": is_balanced(E),
            "residual": format_poly(balanced_residual(E)),
        }
        for E in system
    ]
    return 0, rows, lambda rows: (
        f"{r['equation']}: {'balanced' if r['balanced'] else 'not balanced'} (residual {r['residual']})"
        for r in rows
    )


def cmd_check(args):
    system, names = parse_system(_read_text(args.equations))
    h = parse_morphism(_read_text(args.morphism), names)
    rows = []
    for E in system:
        word_level = is_solution(h, E)
        poly_level = check_solution_poly(E, h)
        rows.append(
            {
                "equation": render_equation(E, names),
                "word_check": word_level,
                "poly_check": poly_level,
                "agree": word_level == poly_level,
            }
        )
    code = 0 if all(r["agree"] for r in rows) else 1
    return code, rows, lambda rows: (
        f"{r['equation']}: word={r['word_check']} poly={r['poly_check']} agree={r['agree']}"
        for r in rows
    )


def cmd_principal(args):
    system, names = parse_system(_read_text(args.equations))
    h = parse_morphism(_read_text(args.morphism), names)
    dec = principal_decompose(h, system)
    payload = {
        "g": [str(im) for im in dec.g.images],
        "theta": [str(im) for im in dec.theta.images],
        "trace": [list(step) for step in dec.trace],
    }

    def render(p):
        letter_names = [chr(ord("a") + i) for i in range(len(p["theta"]))]
        yield "principal solution g:"
        yield from (f"{nm} = {im or 'eps'}" for nm, im in zip(names, p["g"]))
        yield "letter substitution theta:"
        yield from (f"{nm} = {im or 'eps'}" for nm, im in zip(letter_names, p["theta"]))
        yield f"trace: {', '.join('/'.join(str(x) for x in step) for step in p['trace']) or '(none)'}"

    return 0, payload, render


def cmd_hyperplanes(args):
    system, names = _read_pair_system(args.input, "hyperplane analysis needs two equations")
    pa = analysis.PairAnalysis(system.equations[0], system.equations[1], names)

    def render(p):
        yield f"status: {p['status']}"
        if p["pair"] is not None:
            yield f"primary pair: t{p['pair'][0]}{p['pair'][1]} = {p['determinant']}"
            yield from (f"hyperplane: {c}" for c in p["hyperplane_constraints"])
            yield from p["erasing_notes"]
        yield f"bounds: sum={p['bounds']['sum']} best={p['bounds']['best']}"

    return 0, pa.to_json(), render


def cmd_bounds(args):
    system, names = _read_pair_system(args.input, "bounds need at least two equations")
    pa = analysis.PairAnalysis(system.equations[0], system.equations[1])
    payload = {"status": pa.status, **pa.bounds_json()}
    if len(system) > 2 or args.assume_rank_solution:
        payload["system_size_bound"] = analysis.system_size_bound(
            system, has_rank_n1_solution=args.assume_rank_solution
        )

    def render(p):
        yield f"status: {p['status']}"
        yield f"sum bound: {p['sum']}"
        yield from (f"pair ({q['pair'][0]}, {q['pair'][1]}): {q['bound']}" for q in p["pairs"])
        yield f"best: {p['best']}"
        if "system_size_bound" in p:
            yield f"system size bound: {p['system_size_bound']}"

    return 0, payload, render


def cmd_search(args):
    if args.verify_encoding is not None:
        mode = "--verify-encoding"
        if args.input is not None:
            raise ParseError("--verify-encoding takes no equations")
    else:
        mode = "--verify-bounds" if args.verify_bounds else "a catalog search"
    reads = {
        "--verify-encoding": {"seed"},
        "--verify-bounds": {"max_len", "alphabet", "no_erasing", "verify_bounds"},
        "a catalog search": {"max_len", "alphabet", "no_erasing", "csv"},
    }[mode]
    for dest in ("max_len", "alphabet", "no_erasing", "csv", "verify_bounds", "seed"):
        if dest not in reads and getattr(args, dest) is not None:
            raise ParseError(f"--{dest.replace('_', '-')} is not used by {mode}")
    if mode == "--verify-encoding":
        report = search.verify_encoding(args.verify_encoding, args.seed or 0)
        payload = {
            "cases": report.cases,
            "positives": report.positives,
            "discrepancies": list(report.discrepancies),
        }

        def render(p):
            yield (
                f"checked {p['cases']} cases ({p['positives']} solutions), "
                f"{len(p['discrepancies'])} discrepancies"
            )
            yield from (f"  counterexample: {d}" for d in p["discrepancies"])

        return 0 if report.ok else 1, payload, render

    if args.input is None:
        raise ParseError("search needs equations (or --verify-encoding N)")
    system, names = parse_system(_read_text(args.input))
    cfg = search.SearchConfig(
        max_total_image_length=6 if args.max_len is None else args.max_len,
        alphabet_size=2 if args.alphabet is None else args.alphabet,
        allow_erasing=not args.no_erasing,
    )
    if args.verify_bounds:
        if len(system) < 2:
            raise ParseError("--verify-bounds needs two equations")
        report = search.verify_bounds(system.equations[0], system.equations[1], cfg)
        payload = {
            "status": report.status,
            "ok": report.ok,
            "classes": report.class_count,
            "erasing_classes": report.erasing_class_count,
            "counterexample": report.counterexample,
        }

        def render(p):
            yield f"status: {p['status']} ok: {p['ok']} classes: {p['classes']}"
            if p["counterexample"]:
                yield f"counterexample: {p['counterexample']}"

        return 0 if report.ok else 1, payload, render

    if not args.csv:
        catalog = search.enumerate_solutions(system, cfg)
    else:
        # Open the file first, so that an unwritable path fails before the search.
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                catalog = search.enumerate_solutions(system, cfg)
                fh.write("length_type,rank,class\n")
                for lt, r, cid in catalog.csv_rows():
                    fh.write(f"{lt},{r},{cid}\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.csv}: {exc.strerror}") from None

    def render(p):
        yield f"solutions within budget: {p['solution_count']}"
        yield from (f"rank {r}: {c}" for r, c in p["rank_counts"].items())
        for i, cls in enumerate(p["classes"]):
            normal = ", ".join(map(str, cls["normal"]))
            yield f"class {i}: normal ({normal}) ({cls['constraint']}), {cls['size']} members"

    # the text names no solution, so it renders from the summary alone
    return 0, catalog.to_json(names) if args.json else catalog.summary(names), render


_EXAMPLE_INPUT = "xyxz = zxyx\nxyxxz = zxxyx\n"

_EXAMPLE_EXPECTED = {
    "S(E1)": "(-X*Y*Z + X*Y - Z + 1, -X*Z + X, X^2*Y - 1)",
    "S(E2)": "(-X^2*Y*Z + X^2*Y + X*Y - X*Z - Z + 1, -X^2*Z + X, X^3*Y - 1)",
    "t23": "X^4*Y - X^3*Y - X^2*Z + X*Z",
    "t31": "X^3*Y^2 - X^3*Y - X*Y*Z + X*Z",
    "t12": "X^3*Y*Z - X^3*Y - X*Z^2 + X*Z",
    "t23 factored": "X * (X - 1) * (X^2*Y - Z)",
    "cofactor t": "X^3*Y - X*Z",
    "cofactor t factored": "X * (X^2*Y - Z)",
    "constraint": "2|h(x)| + |h(y)| = |h(z)|",
    "sum bound": "18",
    "best bound": "8",
}


def cmd_paper_example(args):
    system, names = parse_system(_EXAMPLE_INPUT)
    pa = analysis.PairAnalysis(*system.equations, names)
    (S1, S2), grid, t = pa.s_vectors, pa.grid, pa.cofactor
    got = {
        "S(E1)": "(" + ", ".join(format_poly(p) for p in S1) + ")",
        "S(E2)": "(" + ", ".join(format_poly(p) for p in S2) + ")",
        "t23": format_poly(grid[(1, 2)]),
        "t31": format_poly(-grid[(0, 2)]),
        "t12": format_poly(grid[(0, 1)]),
        "t23 factored": _factorization_text(binomial_factors(grid[(1, 2)]).to_json()),
        "cofactor t": format_poly(t),
        "cofactor t factored": _factorization_text(binomial_factors(t).to_json()),
        "constraint": "; ".join(pa.constraints),
        "sum bound": str(pa.sum_bound),
        "best bound": str(pa.best),
    }
    rows = [
        {"item": key, "value": got[key], "expected": expected, "ok": got[key] == expected}
        for key, expected in _EXAMPLE_EXPECTED.items()
    ]

    def render(rows):
        yield from (f"E{i}: {line}" for i, line in enumerate(_EXAMPLE_INPUT.splitlines(), 1))
        for row in rows:
            mark = "ok" if row["ok"] else f"MISMATCH (expected {row['expected']})"
            yield f"{row['item']} = {row['value']}  [{mark}]"

    return 0 if all(row["ok"] for row in rows) else 1, rows, render


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weq",
        description="Word equations through exact integer polynomial encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("encode", help="print the coefficient vector of each equation")
    p.add_argument("input", help="equations (file or literal)")
    add_json(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("det", help="print the determinant grid of the first two equations")
    p.add_argument("input")
    add_json(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("factor", help="binomial factorization of a polynomial")
    p.add_argument("poly", help="polynomial (file or literal)")
    p.add_argument("--nvars", type=int, default=None, help="number of ring variables")
    add_json(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("balanced", help="balancedness test per equation")
    p.add_argument("input")
    add_json(p)
    p.set_defaults(func=cmd_balanced)

    p = sub.add_parser("check", help="word-level vs polynomial-level solution check")
    p.add_argument("equations")
    p.add_argument("morphism")
    add_json(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("principal", help="principal decomposition of a solution")
    p.add_argument("equations")
    p.add_argument("morphism")
    add_json(p)
    p.set_defaults(func=cmd_principal)

    p = sub.add_parser("hyperplanes", help="hyperplane classification for an equation pair")
    p.add_argument("input")
    add_json(p)
    p.set_defaults(func=cmd_hyperplanes)

    p = sub.add_parser("bounds", help="class-count bounds for a pair or a system")
    p.add_argument("input")
    p.add_argument(
        "--assume-rank-solution",
        action="store_true",
        help="assume, without checking, a strongly independent system with a rank-(n-1) "
        "solution; the system size bound reads only the first two equations",
    )
    add_json(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="exhaustive solution search and verifications")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--max-len", type=int, help="total image length budget (default 6)")
    p.add_argument("--alphabet", type=int, help="target alphabet size (default 2)")
    p.add_argument("--no-erasing", action="store_true", default=None, help="skip erasing morphisms")
    p.add_argument("--csv", default=None, help="also write (length type, rank, class) rows")
    p.add_argument(
        "--verify-bounds",
        action="store_true",
        default=None,
        help="check the class-count bounds for the first two equations",
    )
    p.add_argument(
        "--verify-encoding",
        type=int,
        metavar="CASES",
        help="fuzz the polynomial encoding against the word-level check",
    )
    p.add_argument("--seed", type=int, help="seed for --verify-encoding (default 0)")
    add_json(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("paper-example", help="reproduce the built-in worked example")
    add_json(p)
    p.set_defaults(func=cmd_paper_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, render = args.func(args)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in render(payload):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
