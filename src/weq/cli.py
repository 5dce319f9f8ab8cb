"""Command-line front end.

Exit codes: 0 on success, 1 when an analysis finds a violation or a
mismatch, 2 on parse or usage errors, 3 on an internal error (a
computation broke one of its own invariants; one line on stderr), and
141, the code a shell gives a process killed by SIGPIPE, when stdout is
closed before the output is written, as in ``weq ... | head -1``.
Inputs that look like existing paths are read as files (UTF-8, a leading
byte-order mark dropped), anything else is treated as literal text.

Start-up is dominated by compiling modules, since no bytecode cache is
written where ``PYTHONDONTWRITEBYTECODE`` is set. So this module imports
at its top only ``weq.textio`` and what it loads (``weq.poly`` and
``weq.words``), which every command reads, and each command imports the
rest where it runs. ``json`` is imported only under ``--json``. The one
table of the modules each command loads is ``IMPORTED_BY`` in
``tests/test_cli.py``, which ``TestImportCost`` checks.
"""

from __future__ import annotations

import argparse
import os
import sys

from .poly import MultiPoly, binomial_factors, format_poly, pure_difference
from .textio import ParseError, parse_morphism, parse_poly, parse_system
from .words import EqSystem, InternalError, LambdaVector, Word, is_solution


def _read_text(arg: str) -> str:
    if os.path.exists(arg):
        try:
            with open(arg, encoding="utf-8-sig") as fh:
                return fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {arg}: {exc.strerror}") from None
    return arg


def _require_pair(system, too_few_equations: str) -> None:
    """Refuse a system without the two equations and two unknowns that a
    pair determinant needs."""
    if len(system) < 2:
        raise ParseError(too_few_equations)
    if system.n < 2:
        raise ParseError("determinants need two unknowns")


def _read_pair(arg: str, too_few_equations: str):
    """Read a system for the determinant commands, and the analysis of its
    first pair."""
    from .analysis import PairAnalysis

    system, names = parse_system(_read_text(arg))
    _require_pair(system, too_few_equations)
    return system, PairAnalysis(*system[:2], names)


def _factorization_text(fac: dict) -> str:
    """Render the JSON form of a binomial factorization as a product."""
    parts = []
    if fac["sign"] < 0:
        parts.append("-1")
    if any(fac["content"]):
        parts.append(format_poly(MultiPoly.monomial(len(fac["content"]), fac["content"])))
    for f in fac["factors"]:
        m = f["multiplicity"]
        factor = format_poly(pure_difference(LambdaVector(f["lambda"])))
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
    from .encode import s_vector

    system, names = parse_system(_read_text(args.input))
    rows = [
        {"equation": E.text(names), "s_vector": [format_poly(p) for p in s_vector(E)]}
        for E in system
    ]

    def render(rows):
        for i, row in enumerate(rows, 1):
            yield f"E{i}: {row['equation']}"
            yield f"S(E{i}) = ({', '.join(row['s_vector'])})"

    return 0, rows, render


def cmd_det(args):
    _, pa = _read_pair(args.input, "determinants need two equations")
    rows = [{"pair": [j + 1, k + 1], "determinant": format_poly(det)} for (j, k), det in pa.grid.items()]
    return 0, rows, lambda rows: (f"t{r['pair'][0]}{r['pair'][1]} = {r['determinant']}" for r in rows)


def cmd_factor(args):
    p = parse_poly(_read_text(args.poly).strip(), args.nvars)
    if not p:
        raise ParseError("cannot factor the zero polynomial")
    payload = {"input": format_poly(p), **binomial_factors(p).to_json()}
    return 0, payload, lambda f: [f"{f['input']} = {_factorization_text(f)}"]


def cmd_balanced(args):
    from .encode import balanced_residual, is_balanced

    system, names = parse_system(_read_text(args.input))
    rows = [
        {
            "equation": E.text(names),
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
    from .encode import check_solution_poly

    system, names = parse_system(_read_text(args.equations))
    h = parse_morphism(_read_text(args.morphism), names)
    rows = []
    for E in system:
        word_level = is_solution(h, EqSystem((E,)))
        poly_level = check_solution_poly(E, h)
        rows.append(
            {
                "equation": E.text(names),
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
    from .principal import principal_decompose

    system, names = parse_system(_read_text(args.equations))
    h = parse_morphism(_read_text(args.morphism), names)
    dec = principal_decompose(h, system)
    payload = {
        "g": [str(im) for im in dec.g.images],
        "theta": [str(im) for im in dec.theta.images],
        "trace": [list(step) for step in dec.trace],
    }

    def render(p):
        letter_names = [str(Word((i,))) for i in range(len(p["theta"]))]
        yield "principal solution g:"
        yield from (f"{nm} = {im or 'eps'}" for nm, im in zip(names, p["g"]))
        yield "letter substitution theta:"
        yield from (f"{nm} = {im or 'eps'}" for nm, im in zip(letter_names, p["theta"]))
        yield f"trace: {', '.join('/'.join(str(x) for x in step) for step in p['trace']) or '(none)'}"

    return 0, payload, render


def cmd_hyperplanes(args):
    _, pa = _read_pair(args.input, "hyperplane analysis needs two equations")

    def render(p):
        yield f"status: {p['status']}"
        if p["pair"] is not None:
            yield f"primary pair: t{p['pair'][0]}{p['pair'][1]} = {p['determinant']}"
            yield from (f"hyperplane: {c}" for c in p["hyperplane_constraints"])
            yield from p["erasing_notes"]
        yield f"bounds: sum={p['bounds']['sum']} best={p['bounds']['best']}"

    return 0, pa.to_json(), render


def cmd_bounds(args):
    system, pa = _read_pair(args.input, "bounds need at least two equations")
    payload = {"status": pa.status, **pa.bounds_json()}
    if len(system) > 2 or args.assume_rank_solution:
        payload["system_size_bound"] = pa.system_size_bound(args.assume_rank_solution)

    def render(p):
        yield f"status: {p['status']}"
        yield f"sum bound: {p['sum']}"
        yield from (f"pair ({q['pair'][0]}, {q['pair'][1]}): {q['bound']}" for q in p["pairs"])
        yield f"best: {p['best']}"
        if "system_size_bound" in p:
            yield f"system size bound: {p['system_size_bound']}"

    return 0, payload, render


_VERIFY_ENCODING, _VERIFY_BOUNDS, _CATALOG = "--verify-encoding", "--verify-bounds", "a catalog search"
_SEARCHES = {_VERIFY_BOUNDS, _CATALOG}

# One row per ``search`` option: its flag, its argparse keywords, the value
# it takes when not given (None: no value) and the modes that read it.
_SEARCH_OPTIONS = (
    ("--max-len", dict(type=int, help="total image length budget"), 6, _SEARCHES),
    ("--alphabet", dict(type=int, help="target alphabet size"), 2, _SEARCHES),
    ("--no-erasing", dict(action="store_true", help="skip erasing morphisms"), None, _SEARCHES),
    ("--csv", dict(help="also write (length type, rank, class) rows"), None, {_CATALOG}),
    (
        "--verify-bounds",
        dict(action="store_true", help="check the class-count bounds for the first two equations"),
        None,
        {_VERIFY_BOUNDS},
    ),
    (
        "--verify-encoding",
        dict(type=int, metavar="CASES", help="fuzz the polynomial encoding against the word-level check"),
        None,
        {_VERIFY_ENCODING},
    ),
    ("--seed", dict(type=int, help="seed for --verify-encoding"), 0, {_VERIFY_ENCODING}),
)


def _search_to_csv(path: str, system, cfg):
    """Run the catalog search, write its rows to ``path``, followed through
    symbolic links, and return the catalog. Opening the path for appending
    first makes an unwritable one fail before the search; a file that this
    opening created is removed at once, so a search that does not finish
    leaves the path as it was. The search does no I/O, so every ``OSError``
    here is the path's."""
    from .search import enumerate_solutions

    try:
        created = not os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if created:
            os.remove(os.path.realpath(path))  # a dangling link keeps its link
        catalog = enumerate_solutions(system, cfg)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("length_type,rank,class\n")
            fh.writelines(f"{lt},{r},{cid}\n" for lt, r, cid in catalog.csv_rows())
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None
    return catalog


def cmd_search(args):
    from . import search

    if args.verify_encoding is not None:
        mode = _VERIFY_ENCODING
        if args.input is not None:
            raise ParseError("--verify-encoding takes no equations")
    else:
        mode = _VERIFY_BOUNDS if args.verify_bounds else _CATALOG
    for flag, _, default, modes in _SEARCH_OPTIONS:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif mode not in modes:
            raise ParseError(f"{flag} is not used by {mode}")
    if mode == _VERIFY_ENCODING:
        payload = search.verify_encoding(args.verify_encoding, args.seed)

        def render(p):
            yield (
                f"checked {p['cases']} cases ({p['positives']} solutions), "
                f"{len(p['discrepancies'])} discrepancies"
            )
            yield from (f"  counterexample: {d}" for d in p["discrepancies"])

        return 1 if payload["discrepancies"] else 0, payload, render

    if args.input is None:
        raise ParseError("search needs equations (or --verify-encoding N)")
    system, names = parse_system(_read_text(args.input))
    cfg = search.SearchConfig(args.max_len, args.alphabet, allow_erasing=not args.no_erasing)
    if mode == _VERIFY_BOUNDS:
        from dataclasses import asdict

        _require_pair(system, "--verify-bounds needs two equations")
        payload = asdict(search.verify_bounds(*system[:2], cfg))
        if payload["counterexample"]:
            equations = [E.text(names) for E in system[:2]]
            payload["counterexample"] = {"equations": equations, **payload["counterexample"]}

        def render(p):
            yield f"status: {p['status']} ok: {p['ok']} classes: {p['classes']}"
            if p["counterexample"]:
                yield f"counterexample: {p['counterexample']}"

        return 0 if payload["ok"] else 1, payload, render

    if args.json or args.csv is not None:
        catalog = (
            search.enumerate_solutions(system, cfg) if args.csv is None else _search_to_csv(args.csv, system, cfg)
        )
        payload = catalog.to_json(names) if args.json else catalog.counts.summary(names)
    else:
        # the text names no solution, so the counts alone render it
        payload = search.count_solutions(system, cfg).summary(names)

    def render(p):
        yield f"solutions within budget: {p['solution_count']}"
        yield from (f"rank {r}: {c}" for r, c in p["rank_counts"].items())
        for i, cls in enumerate(p["classes"]):
            normal = ", ".join(map(str, cls["normal"]))
            yield f"class {i}: normal ({normal}) ({cls['constraint']}), {cls['size']} members"

    return 0, payload, render


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
    from .analysis import PairAnalysis

    system, names = parse_system(_EXAMPLE_INPUT)
    pa = PairAnalysis(*system, names)
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

    def command(name, func, help, *positionals):
        """Add one subcommand; each positional is a (name, argparse keywords) pair."""
        p = sub.add_parser(name, help=help)
        for arg, kwargs in positionals:
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
        return p

    equations = {"help": "equations (file or literal)"}
    input_arg, equations_arg = ("input", equations), ("equations", equations)
    morphism_arg = ("morphism", {"help": "one binding such as x = ab per unknown (file or literal)"})
    poly_arg = ("poly", {"help": "polynomial (file or literal)"})
    command("encode", cmd_encode, "print the coefficient vector of each equation", input_arg)
    command("det", cmd_det, "print the determinant grid of the first two equations", input_arg)
    command("factor", cmd_factor, "binomial factorization of a polynomial", poly_arg).add_argument(
        "--nvars", type=int, help="number of ring variables"
    )
    command("balanced", cmd_balanced, "balancedness test per equation", input_arg)
    command("check", cmd_check, "word-level vs polynomial-level solution check", equations_arg, morphism_arg)
    command("principal", cmd_principal, "principal decomposition of a solution", equations_arg, morphism_arg)
    command("hyperplanes", cmd_hyperplanes, "hyperplane classification for an equation pair", input_arg)
    command("bounds", cmd_bounds, "class-count bounds for a pair or a system", input_arg).add_argument(
        "--assume-rank-solution",
        action="store_true",
        help="assume, without checking, a strongly independent system with a rank-(n-1) "
        "solution; the system size bound reads only the first two equations",
    )
    p = command(
        "search",
        cmd_search,
        "exhaustive solution search and verifications",
        ("input", {**equations, "nargs": "?"}),
    )
    for flag, kwargs, default, _ in _SEARCH_OPTIONS:
        # every option parses to None when not given; cmd_search fills in the default
        suffix = "" if default is None else f" (default {default})"
        p.add_argument(flag, **{**kwargs, "default": None, "help": kwargs["help"] + suffix})
    command("paper-example", cmd_paper_example, "reproduce the built-in worked example")
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit JSON")
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
            import json

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
