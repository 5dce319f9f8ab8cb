import argparse
import contextlib
import io
import itertools
import json
import os
import re
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weq.encode
import weq.poly
import weq.search
from weq.analysis import PairAnalysis
from weq.cli import build_parser, main
from weq.poly import MultiPoly, format_poly, poly_var_names
from weq.textio import MAX_VARS, ParseError, parse_morphism, parse_poly, parse_system
from weq.words import Equation, InternalError, Morphism, Word

from conftest import morph, render_morphism


PAIR_TEXT = "xyxz = zxyx\nxyxxz = zxxyx\n"
UNKNOWN_NAMES = st.lists(st.sampled_from(string.ascii_lowercase), min_size=1, max_size=5, unique=True)


_REF_VAR_RE = re.compile(r"([A-Z])(\d*)")
_REF_INT_RE = re.compile(r"\d+")


def _reference_var_index(letter: str, digits: str) -> int:
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


def reference_parse_poly(text: str, n: int | None = None) -> MultiPoly:
    """The hand-written scanner that parse_poly replaced, kept as an oracle.

    It sizes the ring by the largest index read and accepts leading zeros,
    so only inputs whose indices are 1..26 without leading zero are compared.
    """
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
        m = _REF_INT_RE.match(s, i)
        if m:
            coeff = int(m.group())
            i = m.end()
            skip()
            if i < L and s[i] == "*":
                i += 1
                skip()
        exps: dict[int, int] = {}
        while True:
            m = _REF_VAR_RE.match(s, i)
            if not m:
                break
            i = m.end()
            var = _reference_var_index(m.group(1), m.group(2))
            maxvar = max(maxvar, var)
            e = 1
            skip()
            if i < L and s[i] == "^":
                i += 1
                skip()
                m2 = _REF_INT_RE.match(s, i)
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
        raise ParseError(f"variable {poly_var_names(maxvar + 1)[maxvar]} exceeds the declared count {nvars}")
    acc: dict[tuple[int, ...], int] = {}
    for c, exps in collected:
        key = tuple(exps.get(v, 0) for v in range(nvars))
        acc[key] = acc.get(key, 0) + c
    return MultiPoly(nvars, acc)


# Tokens of random polynomial texts: valid and invalid variables, numbers,
# operators and spaces.
POLY_TOKENS = ["X", "Y", "Z", "X1", "X4", "X02", "X27", "W", "0", "1", "2", "3", "12", "+", "-", "*", "^", " "]




class TestTextRoundTrips:
    def test_equation_roundtrip(self):
        system, names = parse_system("xyxz = zxyx")
        assert system[0].text(names) == "xyxz = zxyx"

    def test_system_parsing_with_comments(self):
        system, names = parse_system("# two equations\nxy = yx\n\nxz = zx # tail\n")
        assert len(system) == 2
        assert names == ["x", "y", "z"]

    def test_unknown_ordering(self):
        system, names = parse_system("ab = ba\nxa = ax")
        assert names == ["x", "a", "b"]

    def test_morphism_roundtrip(self):
        names = ["x", "y", "z"]
        text = "x = ab\ny = ba\nz = aba"
        h = parse_morphism(text, names)
        assert h == morph("ab", "ba", "aba")
        assert render_morphism(h, names) == text.replace(" = ", " = ")

    def test_morphism_eps(self):
        h = parse_morphism("x = eps\ny = a", ["x", "y"])
        assert h.images == (Word(()), Word((0,)))
        assert "eps" in render_morphism(h, ["x", "y"])

    def test_morphism_spaced_eps(self):
        # whitespace is removed before an image is compared with eps, as for equation sides
        assert parse_morphism("x = e p s", ["x"]).images == (Word(()),)

    @given(st.data())
    def test_equation_render_parse_render(self, data):
        """Parsing a rendered system gives back its sides, so rendering
        again reproduces the text."""
        names = data.draw(UNKNOWN_NAMES)
        n = len(names)
        words = st.lists(st.integers(0, n - 1), max_size=5).map(lambda s: Word(tuple(s)))
        sides = data.draw(st.lists(st.tuples(words, words), min_size=1, max_size=3))
        spell = lambda w, nms: "".join(nms[c] for c in w)
        # a nonempty side spelled e, p, s is indistinguishable from eps
        assume(all(spell(w, names) != "eps" for pair in sides for w in pair))
        text = "\n".join(Equation(u, v, n).text(names) for u, v in sides)
        system, parsed = parse_system(text)
        assert [(spell(E.left, parsed), spell(E.right, parsed)) for E in system] == [
            (spell(u, names), spell(v, names)) for u, v in sides
        ]

    @given(st.data())
    def test_morphism_render_parse_render(self, data):
        """Parsing a rendered morphism gives it back, so rendering again
        reproduces the text."""
        names = data.draw(UNKNOWN_NAMES)
        words = st.lists(st.integers(0, 25), max_size=5).map(lambda s: Word(tuple(s)))
        images = data.draw(st.lists(words, min_size=len(names), max_size=len(names)))
        # a nonempty image spelled e, p, s is indistinguishable from eps
        assume(all(str(w) != "eps" for w in images))
        h = Morphism(tuple(images), 1 + max((c for w in images for c in w), default=-1))
        text = render_morphism(h, names)
        assert parse_morphism(text, names) == h

    def test_equation_text_needs_one_name_per_unknown(self):
        system, _ = parse_system(PAIR_TEXT)
        with pytest.raises(ValueError, match="expected 3 unknown names, got 1"):
            system[0].text(["x"])

    def test_morphism_missing_binding(self):
        with pytest.raises(ParseError):
            parse_morphism("x = a", ["x", "y"])

    def test_poly_roundtrip_fixed(self):
        for text in (
            "X^4*Y - X^3*Y - X^2*Z + X*Z",
            "-2*X*Y + 1",
            "X4 - X5",
            "0",
            "7",
            "-X",
        ):
            p = parse_poly(text)
            assert format_poly(p) == text

    def test_poly_roundtrip_random(self, rng):
        for _ in range(150):
            n = rng.randint(1, MAX_VARS)
            terms = {
                tuple(rng.randint(0, 4) for _ in range(n)): rng.randint(-5, 5)
                for _ in range(rng.randint(1, 5))
            }
            p = MultiPoly(n, terms)
            if not p:
                continue
            assert parse_poly(format_poly(p), n) == p

    def test_poly_rejects_garbage(self):
        for bad in ("X +", "* X", "X^", "q", "2 ** X", "X*+Y", "2*-X", "X^2 - 1*", "2*", "X*"):
            with pytest.raises(ParseError):
                parse_poly(bad)

    @pytest.mark.parametrize(
        "text, n",
        [
            ("X0322", None),
            ("X27", None),
            ("X1000000 - 1", None),
            ("X - 1", MAX_VARS + 1),
        ],
    )
    def test_poly_ring_is_bounded(self, text, n):
        with pytest.raises(ParseError):
            parse_poly(text, n)

    @pytest.mark.parametrize("text, name", [("X*Y", "Y"), ("Z - 1", "Z"), ("X4^2 + X", "X4")])
    def test_undeclared_variable_named_as_printed(self, capsys, text, name):
        assert main(["factor", "--nvars", "1", text]) == 2
        assert capsys.readouterr().err == f"error: variable {name} exceeds the declared count 1\n"

    @pytest.mark.parametrize("template", ["{} * X", "X^{} - 1"])
    def test_poly_overlong_number(self, template):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError, match="digits is too long"):
            parse_poly(template.format(digits))

    @given(
        st.lists(st.sampled_from(POLY_TOKENS), max_size=12).map("".join),
        st.sampled_from([None, 3, 5]),
    )
    def test_poly_matches_reference_parser(self, text, n):
        """The grammar accepts what the hand scanner accepted, with the same
        polynomial, except for an index with a leading zero or past X26."""
        indices = re.findall(r"X(\d+)", text)
        if any(d.startswith("0") or len(d) > 2 or int(d) > MAX_VARS for d in indices):
            with pytest.raises(ParseError):
                parse_poly(text, n)
            return
        try:
            expected = reference_parse_poly(text, n)
        except ParseError:
            with pytest.raises(ParseError):
                parse_poly(text, n)
        else:
            assert parse_poly(text, n) == expected

    def test_equation_rejects_garbage(self):
        for bad in ("xy yx", "xy = yx = xx", "xY = yx"):
            with pytest.raises(ParseError):
                parse_system(bad)


class TestCommands:
    def test_paper_example_passes(self, capsys):
        assert main(["paper-example"]) == 0
        out = capsys.readouterr().out
        assert "2|h(x)| + |h(y)| = |h(z)|" in out
        assert "MISMATCH" not in out

    def test_encode(self, capsys):
        assert main(["encode", "xyxz = zxyx"]) == 0
        out = capsys.readouterr().out
        assert "S(E1) = (-X*Y*Z + X*Y - Z + 1, -X*Z + X, X^2*Y - 1)" in out

    def test_det(self, capsys):
        assert main(["det", PAIR_TEXT]) == 0
        out = capsys.readouterr().out
        assert "t23 = X^4*Y - X^3*Y - X^2*Z + X*Z" in out

    def test_factor(self, capsys):
        assert main(["factor", "X^2 - Y^2"]) == 0
        assert capsys.readouterr().out.strip() == "X^2 - Y^2 = (X - Y) * (X + Y)"

    def test_balanced(self, capsys):
        assert main(["balanced", "xy = x"]) == 0
        out = capsys.readouterr().out
        assert "not balanced" in out

    def test_check(self, tmp_path, capsys):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("xz = zy\n")
        mor = tmp_path / "h.txt"
        mor.write_text("x = ab\ny = ba\nz = aba\n")
        assert main(["check", str(eqs), str(mor)]) == 0
        out = capsys.readouterr().out
        assert "word=True poly=True agree=True" in out

    def test_principal(self, tmp_path, capsys):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("xy = yx\n")
        mor = tmp_path / "h.txt"
        mor.write_text("x = abab\ny = ab\n")
        assert main(["principal", str(eqs), str(mor)]) == 0
        out = capsys.readouterr().out
        assert "x = aa" in out and "y = a" in out

    def test_principal_rejects_non_solution(self, tmp_path, capsys):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("xy = yx\n")
        mor = tmp_path / "h.txt"
        mor.write_text("x = a\ny = b\n")
        assert main(["principal", str(eqs), str(mor)]) == 2

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["det", "{}"], PAIR_TEXT),
            (["check", "xz = zy", "{}"], "x = ab\ny = ba\nz = aba\n"),
            (["factor", "{}"], "X^2 - Y^2\n"),
        ],
        ids=["equations", "morphism", "polynomial"],
    )
    def test_a_file_reads_the_same_with_a_byte_order_mark(self, tmp_path, capsys, argv, text):
        results = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.txt"
            path.write_bytes(text.encode(encoding))
            code = main([arg.format(path) for arg in argv])
            results.append((code, capsys.readouterr().out))
        assert results[0][0] == 0
        assert results[1] == results[0]

    def test_bounds_pair_and_system(self, capsys):
        assert main(["bounds", PAIR_TEXT]) == 0
        out = capsys.readouterr().out
        assert "sum bound: 18" in out and "best: 8" in out
        assert main(["bounds", PAIR_TEXT + "xzy = zxy\n"]) == 0
        out = capsys.readouterr().out
        assert "system size bound: 10" in out

    def test_search_catalog(self, capsys, tmp_path):
        csv = tmp_path / "catalog.csv"
        assert main(["search", "xz = zy", "--max-len", "6", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "class 0: normal (1, -1, 0)" in out
        header, *rows = csv.read_text().splitlines()
        assert header == "length_type,rank,class"
        assert rows

    def test_search_without_unknowns(self, capsys):
        # The empty morphism is the only candidate, and it solves eps = eps.
        assert main(["search", "="]) == 0
        captured = capsys.readouterr()
        assert captured.out == "solutions within budget: 1\nrank 0: 1\n"
        assert captured.err == ""

    def test_search_verify_bounds(self, capsys):
        assert main(["search", PAIR_TEXT, "--verify-bounds", "--max-len", "8"]) == 0
        out = capsys.readouterr().out
        assert "ok: True" in out

    def test_search_verify_encoding(self, capsys):
        assert main(["search", "--verify-encoding", "200", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "0 discrepancies" in out
        assert main(["search", "--verify-encoding", "0"]) == 0
        assert capsys.readouterr().out == "checked 0 cases (0 solutions), 0 discrepancies\n"

    def test_search_verify_encoding_reports_each_discrepancy(self, capsys, monkeypatch):
        # a poly check that answers each case wrongly makes every case a discrepancy
        check = weq.encode.check_solution_poly
        monkeypatch.setattr(weq.encode, "check_solution_poly", lambda E, h: not check(E, h))
        report = weq.search.verify_encoding(4)
        entries = report["discrepancies"]
        assert len(entries) == 4
        for d in entries:
            assert set(d) == {"equation", "morphism", "word_level", "poly_level"}
            assert d["word_level"] != d["poly_level"]
        assert main(["search", "--verify-encoding", "4"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"checked 4 cases ({report['positives']} solutions), 4 discrepancies",
            *(f"  counterexample: {d}" for d in entries),
        ]
        assert main(["search", "--verify-encoding", "4", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["discrepancies"] == entries

    def test_parse_error_exit_code(self, capsys):
        assert main(["encode", "xy yx"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


GOLDEN_HYPERPLANES = {
    "bounds": {
        "best": 8,
        "pairs": [
            {"bound": 12, "pair": [1, 2]},
            {"bound": 12, "pair": [1, 3]},
            {"bound": 8, "pair": [2, 3]},
        ],
        "sum": 18,
    },
    "content": [1, 0, 0],
    "determinant": "X^3*Y*Z - X^3*Y - X*Z^2 + X*Z",
    "erasing_notes": [
        "factor Z - 1: only erasing solutions with |h(z)| = 0"
    ],
    "factors": [
        {"lambda": [0, 0, 1], "multiplicity": 1},
        {"lambda": [2, 1, -1], "multiplicity": 1},
    ],
    "hyperplane_constraints": ["2|h(x)| + |h(y)| = |h(z)|"],
    "pair": [1, 2],
    "residual": "1",
    "sign": 1,
    "status": "ok",
}


class TestJsonStability:
    def test_hyperplanes_golden(self, capsys):
        assert main(["hyperplanes", PAIR_TEXT, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == GOLDEN_HYPERPLANES

    def test_encode_json(self, capsys):
        assert main(["encode", "xz = zy", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [
            {"equation": "xz = zy", "s_vector": ["1", "-Z", "X - 1"]}
        ]

    def test_factor_json(self, capsys):
        # X^2*Y - Y == Y * (X - 1) * (X + 1); the sum factor stays residual
        assert main(["factor", "X^2*Y - Y", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "input": "X^2*Y - Y",
            "sign": 1,
            "content": [0, 1],
            "factors": [{"lambda": [1, 0], "multiplicity": 1}],
            "residual": "X + 1",
        }

    def test_search_json_schema(self, capsys):
        assert main(["search", "xz = zy", "--max-len", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "n",
            "max_total_image_length",
            "alphabet_size",
            "solution_count",
            "rank_counts",
            "classes",
            "solutions",
        }

    def test_search_json_names_the_unknowns_as_the_text_does(self, capsys):
        assert main(["search", "uv = vu", "--max-len", "4", "--json"]) == 0
        constraints = [cls["constraint"] for cls in json.loads(capsys.readouterr().out)["classes"]]
        assert main(["search", "uv = vu", "--max-len", "4"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("class ")]
        assert constraints and len(lines) == len(constraints)
        assert all(f"({c})," in line for c, line in zip(constraints, lines))
        assert all("h(x)" not in c and "h(y)" not in c for c in constraints)

    def test_stable_across_runs(self, capsys):
        assert main(["hyperplanes", PAIR_TEXT, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["hyperplanes", PAIR_TEXT, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second


def count_calls(monkeypatch, *names):
    """Count calls of the named weq functions, wherever a weq module binds them."""
    import sys
    from collections import Counter

    counts = Counter()
    modules = [m for key, m in sys.modules.items() if key.startswith("weq.")]
    for name in names:
        # the one module that defines the function, not one that imports it
        (original,) = [
            vars(m)[name] for m in modules if getattr(vars(m).get(name), "__module__", None) == m.__name__
        ]

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


JSON_FLAG = (("--json",), "json", False, None, 0, None, "emit JSON")

# Every subcommand in --help order: its help line and, per argument in
# declaration order, (option strings, dest, default, type, nargs, metavar, help).
DECLARED_INTERFACE = {
    "encode": (
        "print the coefficient vector of each equation",
        [((), "input", None, None, None, None, "equations (file or literal)"), JSON_FLAG],
    ),
    "det": (
        "print the determinant grid of the first two equations",
        [((), "input", None, None, None, None, "equations (file or literal)"), JSON_FLAG],
    ),
    "factor": (
        "binomial factorization of a polynomial",
        [
            ((), "poly", None, None, None, None, "polynomial (file or literal)"),
            (("--nvars",), "nvars", None, int, None, None, "number of ring variables"),
            JSON_FLAG,
        ],
    ),
    "balanced": (
        "balancedness test per equation",
        [((), "input", None, None, None, None, "equations (file or literal)"), JSON_FLAG],
    ),
    "check": (
        "word-level vs polynomial-level solution check",
        [
            ((), "equations", None, None, None, None, "equations (file or literal)"),
            ((), "morphism", None, None, None, None, "one binding such as x = ab per unknown (file or literal)"),
            JSON_FLAG,
        ],
    ),
    "principal": (
        "principal decomposition of a solution",
        [
            ((), "equations", None, None, None, None, "equations (file or literal)"),
            ((), "morphism", None, None, None, None, "one binding such as x = ab per unknown (file or literal)"),
            JSON_FLAG,
        ],
    ),
    "hyperplanes": (
        "hyperplane classification for an equation pair",
        [((), "input", None, None, None, None, "equations (file or literal)"), JSON_FLAG],
    ),
    "bounds": (
        "class-count bounds for a pair or a system",
        [
            ((), "input", None, None, None, None, "equations (file or literal)"),
            (
                ("--assume-rank-solution",),
                "assume_rank_solution",
                False,
                None,
                0,
                None,
                "assume, without checking, a strongly independent system with a rank-(n-1) solution; "
                "the system size bound reads only the first two equations",
            ),
            JSON_FLAG,
        ],
    ),
    "search": (
        "exhaustive solution search and verifications",
        [
            ((), "input", None, None, "?", None, "equations (file or literal)"),
            (("--max-len",), "max_len", None, int, None, None, "total image length budget (default 6)"),
            (("--alphabet",), "alphabet", None, int, None, None, "target alphabet size (default 2)"),
            (("--no-erasing",), "no_erasing", None, None, 0, None, "skip erasing morphisms"),
            (("--csv",), "csv", None, None, None, None, "also write (length type, rank, class) rows"),
            (
                ("--verify-bounds",),
                "verify_bounds",
                None,
                None,
                0,
                None,
                "check the class-count bounds for the first two equations",
            ),
            (
                ("--verify-encoding",),
                "verify_encoding",
                None,
                int,
                None,
                "CASES",
                "fuzz the polynomial encoding against the word-level check",
            ),
            (("--seed",), "seed", None, int, None, None, "seed for --verify-encoding (default 0)"),
            JSON_FLAG,
        ],
    ),
    "paper-example": ("reproduce the built-in worked example", [JSON_FLAG]),
}


def _subcommands():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return sub.choices, helps


class TestDeclaredInterface:
    """The commands, their arguments and their defaults, as the parser declares them."""

    def test_commands_in_order(self):
        parsers, helps = _subcommands()
        assert list(parsers) == list(DECLARED_INTERFACE)
        assert helps == {name: help for name, (help, _) in DECLARED_INTERFACE.items()}

    @pytest.mark.parametrize("command", list(DECLARED_INTERFACE))
    def test_arguments(self, command):
        parser = _subcommands()[0][command]
        declared = [
            (tuple(a.option_strings), a.dest, a.default, a.type, a.nargs, a.metavar, a.help)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert declared == DECLARED_INTERFACE[command][1]
        assert parser.get_default("func").__name__ == "cmd_" + command.replace("-", "_")

    @pytest.mark.parametrize("command", list(DECLARED_INTERFACE))
    def test_every_command_accepts_json(self, command):
        positionals = {"check": ["x = x", "x = a"], "principal": ["x = x", "x = a"], "paper-example": []}
        args = build_parser().parse_args([command, *positionals.get(command, ["x"]), "--json"])
        assert args.json is True


class TestComputeOnce:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["hyperplanes", PAIR_TEXT], {"s_vector": 2, "binomial_factors": 1}),
            (["paper-example"], {"s_vector": 2, "binomial_factors": 3}),
            (["bounds", PAIR_TEXT + "xy = yx\n"], {"s_vector": 2}),
            (["bounds", PAIR_TEXT, "--assume-rank-solution"], {"s_vector": 2}),
        ],
    )
    def test_call_counts(self, monkeypatch, capsys, argv, expected):
        counts = count_calls(monkeypatch, *expected)
        assert main(argv) == 0
        assert {name: counts[name] for name in expected} == expected

    def test_check_builds_no_polynomial(self, monkeypatch, capsys):
        # the solution check evaluates the encoding at an integer, never in Z[x]
        built = []
        init, from_terms = MultiPoly.__init__, MultiPoly._from_terms.__func__

        def counted_init(self, *args, **kwargs):
            built.append("__init__")
            init(self, *args, **kwargs)

        def counted_from_terms(cls, *args):
            built.append("_from_terms")
            return from_terms(cls, *args)

        monkeypatch.setattr(MultiPoly, "__init__", counted_init)
        monkeypatch.setattr(MultiPoly, "_from_terms", classmethod(counted_from_terms))
        assert main(["check", PAIR_TEXT, "x = a\ny = b\nz = aba"]) == 0
        assert capsys.readouterr().out.count("agree=True") == 2
        assert built == []


class TestCountsWithoutListing:
    """Text-mode search and a passing ``--verify-bounds`` read only the
    counts; ``--json``, ``--csv`` and a failing ``--verify-bounds`` list."""

    @pytest.fixture(autouse=True)
    def no_listing(self, monkeypatch):
        def listing(*args, **kwargs):
            raise InternalError("the solutions were listed")

        monkeypatch.setattr(weq.search, "enumerate_solutions", listing)

    @pytest.mark.parametrize("name", ["search_named_unknowns", "search_no_erasing", "search_verify_bounds"])
    def test_golden_output_without_listing(self, tmp_path, name):
        from test_golden import CASES, GOLDEN, run

        assert run(CASES[name], tmp_path / "out.csv") == (0, (GOLDEN / f"{name}.stdout").read_bytes(), None)

    # a limit of 0 classes makes --verify-bounds fail and build its counterexample
    @pytest.mark.parametrize("extra, best", [(["--json"], None), (["--csv", "<csv>"], None), (["--verify-bounds"], 0)])
    def test_listing_modes_list(self, capsys, monkeypatch, tmp_path, extra, best):
        if best is not None:
            monkeypatch.setattr(PairAnalysis, "best", best)
        csv = str(tmp_path / "out.csv")
        assert main(["search", PAIR_TEXT, "--max-len", "6", *(csv if a == "<csv>" else a for a in extra)]) == 3
        assert capsys.readouterr().err == "internal error: the solutions were listed\n"

    def test_oversized_count_exits_2(self, capsys):
        assert main(["search", "xy = yx", "--max-len", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the search space exceeds the budget of 100000000 candidate morphisms\n"


class TestRejectedInput:
    @pytest.mark.parametrize(
        "extra",
        [["--max-len", "-3"], ["--alphabet", "0"]],
    )
    def test_search_exits_2(self, capsys, extra):
        assert main(["search", "xy = yx", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("flag", ["", "--json"])
    def test_negative_verify_encoding_exits_2(self, capsys, flag):
        assert main(["search", "--verify-encoding", "-5", *filter(None, [flag])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the case count must be non-negative, got -5\n"

    @pytest.mark.parametrize("command", ["det", "hyperplanes", "bounds", "search --verify-bounds"])
    @pytest.mark.parametrize("flag", ["", "--json"])
    def test_determinants_need_two_unknowns(self, capsys, command, flag):
        assert main([*command.split(), "x = x\nxx = xx", *filter(None, [flag])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: determinants need two unknowns\n"

    @pytest.mark.parametrize("command", ["det", "hyperplanes", "bounds", "search --verify-bounds"])
    @pytest.mark.parametrize("flag", ["", "--json"])
    def test_determinants_need_two_equations(self, capsys, command, flag):
        message = {
            "det": "determinants need two equations",
            "hyperplanes": "hyperplane analysis needs two equations",
            "bounds": "bounds need at least two equations",
            "search --verify-bounds": "--verify-bounds needs two equations",
        }[command]
        assert main([*command.split(), "xy = yx", *filter(None, [flag])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["", "--json"])
    def test_bounds_assumption_needs_two_unknowns(self, capsys, flag):
        argv = ["bounds", "x = x\nxx = xx\nxxx = xxx", "--assume-rank-solution"]
        assert main([*argv, *filter(None, [flag])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: determinants need two unknowns\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["encode", "# nothing here"], "no equations found"),
            (["check", "x = x", "y = a"], "unexpected unknown 'y'; known: x"),
            (["check", "x = x", "x = a\nx = b"], "duplicate binding for 'x'"),
            (["check", "x = x", "x = A"], "expected a lowercase letter, got 'A'"),
        ],
        ids=["no equations", "unknown binding", "duplicate binding", "image letter"],
    )
    def test_unreadable_text_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unreadable_input_exits_2(self, capsys, tmp_path):
        assert main(["encode", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "name, reason", [("", "Is a directory"), ("missing/out.csv", "No such file or directory")]
    )
    def test_unwritable_csv_exits_2(self, capsys, monkeypatch, tmp_path, name, reason):
        path = tmp_path / name
        assert main(["search", "xy = yx", "--max-len", "2", "--csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {reason}\n"

        def no_search(*args, **kwargs):
            raise InternalError("the search ran before the path was checked")

        # the path is opened before the search runs
        monkeypatch.setattr(weq.search, "enumerate_solutions", no_search)
        assert main(["search", "xy = yx", "--max-len", "2", "--csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {reason}\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_empty_csv_path_exits_2(self, capsys, json_flag):
        assert main(["search", "xy = yx", "--max-len", "2", "--csv", "", *json_flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write : No such file or directory\n"

    # "link": keep.csv is a symbolic link to a target.csv that does not exist
    @pytest.mark.parametrize("existing", [b"old rows\n", None, "link"])
    def test_unfinished_search_leaves_the_csv_path_as_it_was(self, capsys, monkeypatch, tmp_path, existing):
        path, target = tmp_path / "keep.csv", tmp_path / "target.csv"
        if existing == "link":
            path.symlink_to(target)
        elif existing is not None:
            path.write_bytes(existing)

        def unchanged():
            if existing == "link":
                return os.readlink(path) == str(target) and not target.exists()
            return path.read_bytes() == existing if existing is not None else not path.exists()

        # refused: the search space is over the budget
        assert main(["search", "xy = yx", "--max-len", "100", "--csv", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert unchanged()

        def broken(*args, **kwargs):
            raise InternalError("broken search")

        monkeypatch.setattr(weq.search, "enumerate_solutions", broken)
        assert main(["search", "xy = yx", "--max-len", "2", "--csv", str(path)]) == 3
        assert capsys.readouterr().err == "internal error: broken search\n"
        assert unchanged()

    def test_csv_through_a_link_writes_its_target(self, tmp_path):
        plain, link, target = tmp_path / "plain.csv", tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to(target)
        for path in (plain, link):
            assert main(["search", "xz = zy", "--max-len", "5", "--csv", str(path)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == plain.read_bytes()
        assert plain.read_bytes().startswith(b"length_type,rank,class\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([PAIR_TEXT, "--verify-bounds", "--csv", "<csv>"], "--csv is not used by --verify-bounds"),
            (["xy = yx", "--verify-encoding", "3"], "--verify-encoding takes no equations"),
            (
                ["--verify-encoding", "3", "--verify-bounds"],
                "--verify-bounds is not used by --verify-encoding",
            ),
            (["--verify-encoding", "3", "--csv", "<csv>"], "--csv is not used by --verify-encoding"),
            (
                ["--verify-encoding", "3", "--max-len", "99", "--alphabet", "7", "--no-erasing"],
                "--max-len is not used by --verify-encoding",
            ),
            (["--verify-encoding", "3", "--alphabet", "7"], "--alphabet is not used by --verify-encoding"),
            (["--verify-encoding", "3", "--no-erasing"], "--no-erasing is not used by --verify-encoding"),
            (["xy = yx", "--seed", "5", "--max-len", "2"], "--seed is not used by a catalog search"),
            (["xy = yx", "--seed", "0"], "--seed is not used by a catalog search"),
            ([PAIR_TEXT, "--verify-bounds", "--seed", "5"], "--seed is not used by --verify-bounds"),
            (["xy = yx", "--verify-encoding", "0", "--max-len", "2"], "--verify-encoding takes no equations"),
            ([], "search needs equations (or --verify-encoding N)"),
        ],
        ids=[f"argv{i}" for i in range(12)],
    )
    def test_search_modes_that_ignore_an_input_exit_2(self, capsys, tmp_path, argv, message):
        csv = tmp_path / "out.csv"
        assert main(["search", *(str(csv) if a == "<csv>" else a for a in argv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not csv.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "X1000000 - 1"],
            ["factor", "X - 1", "--nvars", "100000000"],
            ["search", "xy = yx", "--max-len", "1000000"],
            ["search", "xy = yx", "--max-len", "1000000", "--alphabet", "1"],
            ["factor", "X^99999999999 - 1"],
            ["factor", "X^9999999*Y - X*Y^9999999"],
        ],
    )
    def test_oversized_input_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert len(captured.err) < 200


# The ``weq`` modules each command loads beyond ``weq.textio`` and the two it
# loads, ``weq.poly`` and ``weq.words``, which every command reads.
IMPORTED_BY = {
    ("--help",): set(),
    ("factor", "X^2 - Y^2"): set(),
    ("principal", "xy = yx", "x = a\ny = a"): {"weq.principal"},
    ("encode", "xy = yx"): {"weq.encode"},
    ("balanced", "xy = x"): {"weq.encode"},
    ("check", "xy = yx", "x = a\ny = a"): {"weq.encode"},
    ("det", PAIR_TEXT): {"weq.analysis", "weq.encode"},
    ("hyperplanes", PAIR_TEXT): {"weq.analysis", "weq.encode"},
    ("bounds", PAIR_TEXT): {"weq.analysis", "weq.encode"},
    ("paper-example",): {"weq.analysis", "weq.encode"},
    ("search", "xy = yx", "--max-len", "4"): {"weq.search"},
    ("search", PAIR_TEXT, "--verify-bounds", "--max-len", "4"): {"weq.search", "weq.analysis", "weq.encode"},
    ("search", "--verify-encoding", "4"): {"weq.search", "weq.encode"},
}


class TestImportCost:
    def test_cli_import_leaves_out_multiprocessing(self):
        src = str(Path(weq.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, weq.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(
                argv, flag, id=" ".join([argv[0], *(a for a in argv if a.startswith("--verify")), flag]).strip()
            )
            for argv in IMPORTED_BY
            for flag in ("", "--json")
            if argv[0] != "--help" or not flag
        ],
    )
    def test_each_command_loads_only_the_modules_it_runs(self, argv, flag):
        """Run as the benchmark runs the command line, each command imports
        only what it calls, and ``json`` only under ``--json``: without a
        bytecode cache every module it loads is compiled on each run.
        ``weq.cli`` runs as ``__main__``, so it is not listed."""
        src = str(Path(weq.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        command = [sys.executable, "-X", "importtime", "-m", "weq.cli", *argv, *filter(None, [flag])]
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        loaded = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
        assert {m for m in loaded if m.startswith("weq.")} == {"weq.words", "weq.poly", "weq.textio", *IMPORTED_BY[argv]}
        assert ("json" in loaded) == bool(flag)


class TestClosedStdout:
    def test_closed_pipe_exits_141_without_a_traceback(self):
        src = str(Path(weq.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        # about 119 KB of JSON, more than a pipe buffers
        argv = [sys.executable, "-m", "weq.cli", "search", "xy = yx", "--max-len", "8", "--json"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""


@st.composite
def equations_text(draw):
    """1-3 equations of at most 6 letters over x, y, z."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.text("xyz", max_size=6))
        cut = draw(st.integers(0, len(word)))
        lines.append(f"{word[:cut]} = {word[cut:]}")
    return "\n".join(lines)


@st.composite
def poly_text(draw):
    """At most 4 terms over X, Y, Z, X4, exponents <= 30, coefficients <= 12."""
    terms = []
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "-"] if i == 0 else ["+", "-"]))
        factors = [
            var + (f"^{e}" if (e := draw(st.integers(0, 30))) != 1 else "")
            for var in draw(st.lists(st.sampled_from(["X", "Y", "Z", "X4"]), max_size=3, unique=True))
        ]
        coeff = draw(st.integers(0, 12))
        terms.append(sign + "*".join(([str(coeff)] if coeff != 1 or not factors else []) + factors))
    return draw(st.sampled_from([" ", ""])).join(terms)


@st.composite
def short_commands(draw):
    """An argument list for one command whose input sizes are all fixed:
    no search passes 2,815 candidates."""
    eqs = draw(equations_text())
    search = ["--max-len", str(draw(st.integers(0, 6))), "--alphabet", str(draw(st.integers(1, 2)))]
    names = [c for c in "xyz" if c in eqs]
    images = st.text("ab", max_size=4).map(lambda im: im or "eps")
    morphism = "\n".join(f"{nm} = {draw(images)}" for nm in names)
    argv = draw(
        st.sampled_from(
            [
                ["factor", draw(poly_text())],
                ["det", eqs],
                ["bounds", eqs],
                ["search", eqs, *search],
                ["search", eqs, "--verify-bounds", *search],
                ["principal", eqs, morphism],
            ]
        )
    )
    return argv + draw(st.sampled_from([[], ["--json"]]))


class TestBoundedWork:
    @settings(max_examples=200)
    @given(short_commands())
    def test_short_input_ends_in_a_documented_exit_code(self, argv):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse, e.g. a polynomial read as an option
                code = exc.code
        assert code in (0, 1, 2)
        assert time.perf_counter() - start < 10


class TestBoundsAssumption:
    def test_flag_applies_to_two_equations(self, capsys):
        assert main(["bounds", PAIR_TEXT, "--assume-rank-solution"]) == 0
        out = capsys.readouterr().out
        assert "best: 8" in out and "system size bound: 9" in out
        assert main(["bounds", PAIR_TEXT, "--assume-rank-solution", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["system_size_bound"] == 9


class TestBoundViolation:
    # no pair breaks a proved bound, so each test forces a limit of 0 classes
    def test_exit_1_with_counterexample(self, monkeypatch, capsys):
        monkeypatch.setattr(PairAnalysis, "best", 0)
        assert main(["search", PAIR_TEXT, "--verify-bounds", "--max-len", "8"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "status: ok ok: False classes: 1",
            "counterexample: {'equations': ['xyxz = zxyx', 'xyxxz = zxxyx'], 'limit': 0, "
            "'classes': [{'normal': [2, 1, -1], 'example': ['a', 'b', 'aba']}], 'undivided': []}",
        ]

    def test_exit_1_with_counterexample_json(self, monkeypatch, capsys):
        monkeypatch.setattr(PairAnalysis, "best", 0)
        assert main(["search", PAIR_TEXT, "--verify-bounds", "--max-len", "8", "--json"]) == 1
        example = '[\n          "a",\n          "b",\n          "aba"\n        ]'
        assert capsys.readouterr().out == (
            "{\n"
            '  "classes": 1,\n'
            '  "counterexample": {\n'
            '    "classes": [\n'
            "      {\n"
            f'        "example": {example},\n'
            '        "normal": [\n          2,\n          1,\n          -1\n        ]\n'
            "      }\n"
            "    ],\n"
            '    "equations": [\n      "xyxz = zxyx",\n      "xyxxz = zxxyx"\n    ],\n'
            '    "limit": 0,\n'
            '    "undivided": []\n'
            "  },\n"
            '  "erasing_classes": 0,\n'
            '  "ok": false,\n'
            '  "status": "ok"\n'
            "}\n"
        )

    # no class normal found so far misses a determinant, so these force one
    def test_exit_1_with_undivided_normal(self, monkeypatch, capsys):
        monkeypatch.setattr(weq.poly, "_divisor_keys", lambda p, lam: None)
        assert main(["search", PAIR_TEXT, "--verify-bounds", "--max-len", "8"]) == 1
        undivided = ", ".join(f"{{'normal': [2, 1, -1], 'pair': {pair}}}" for pair in ("[1, 2]", "[1, 3]", "[2, 3]"))
        assert capsys.readouterr().out.splitlines() == [
            "status: ok ok: False classes: 1",
            "counterexample: {'equations': ['xyxz = zxyx', 'xyxxz = zxxyx'], 'limit': 8, "
            f"'classes': [{{'normal': [2, 1, -1], 'example': ['a', 'b', 'aba']}}], 'undivided': [{undivided}]}}",
        ]

    def test_exit_1_with_undivided_normal_json(self, monkeypatch, capsys):
        monkeypatch.setattr(weq.poly, "_divisor_keys", lambda p, lam: None)
        assert main(["search", PAIR_TEXT, "--verify-bounds", "--max-len", "8", "--json"]) == 1
        example = '[\n          "a",\n          "b",\n          "aba"\n        ]'
        normal = '"normal": [\n          2,\n          1,\n          -1\n        ]'
        undivided = ",\n".join(
            f'      {{\n        {normal},\n        "pair": [\n          {j},\n          {k}\n        ]\n      }}'
            for j, k in ((1, 2), (1, 3), (2, 3))
        )
        assert capsys.readouterr().out == (
            "{\n"
            '  "classes": 1,\n'
            '  "counterexample": {\n'
            '    "classes": [\n'
            "      {\n"
            f'        "example": {example},\n'
            f"        {normal}\n"
            "      }\n"
            "    ],\n"
            '    "equations": [\n      "xyxz = zxyx",\n      "xyxxz = zxxyx"\n    ],\n'
            '    "limit": 8,\n'
            '    "undivided": [\n'
            f"{undivided}\n"
            "    ]\n"
            "  },\n"
            '  "erasing_classes": 0,\n'
            '  "ok": false,\n'
            '  "status": "ok"\n'
            "}\n"
        )

    def test_counterexample_names_the_input_unknowns(self, monkeypatch, capsys):
        monkeypatch.setattr(PairAnalysis, "best", 0)
        argv = ["search", "uvuw = wuvu\nuvuuw = wuuvu\n", "--verify-bounds", "--max-len", "8", "--json"]
        assert main(argv) == 1
        counterexample = json.loads(capsys.readouterr().out)["counterexample"]
        assert counterexample["equations"] == ["uvuw = wuvu", "uvuuw = wuuvu"]


class _ForgetfulDict(dict):
    """A ``dict`` whose ``fromkeys`` forgets every key."""

    @classmethod
    def fromkeys(cls, iterable, value=None):
        return {}


class TestInternalError:
    @pytest.mark.parametrize(
        "fake",
        [
            lambda real: lambda p, b: None,
            # wrong in the same way on every determinant, so only the identity catches it
            lambda real: lambda p, b: real(p, b) + 1,
        ],
        ids=["no-quotient", "quotient-plus-one"],
    )
    def test_exit_3_without_traceback(self, monkeypatch, capsys, fake):
        import weq.analysis

        monkeypatch.setattr(weq.analysis, "divide_by_binomial", fake(weq.analysis.divide_by_binomial))
        assert main(["paper-example"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_factorization_that_does_not_multiply_back(self, monkeypatch, capsys):
        """A wrong quotient in the factor kernel is caught by the
        multiply-back check of ``binomial_factors``."""
        import weq.poly

        real = weq.poly._divide_out

        def plus_one(p, lam, once):
            m, q = real(p, lam, once)
            return m, q + 1

        monkeypatch.setattr(weq.poly, "_divide_out", plus_one)
        assert main(["factor", "X^2 - 1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: factorization failed to multiply back\n"

    @pytest.mark.parametrize(
        "system, h, invariant",
        [
            ("xy = yx", "x = a\ny = b", "equal-length images differ"),
            ("xy = yx", "x = ab\ny = b", "shorter image is not a prefix"),
            ("xy = x", "x = a\ny = b", "side exhausted under a non-erasing solution"),
            ("x = xy", "x = a\ny = b", "side exhausted under a non-erasing solution"),
            ("xy = yx", "x = a\ny = bb", "shorter image is not a prefix"),
            # two expand steps cut aa off x's image in one pending run; the
            # third finds b where y's image a should be
            ("xy = yx", "x = aaba\ny = a", "shorter image is not a prefix"),
            ("x = y", "x = a\ny = b", "equal-length images differ"),
        ],
    )
    def test_principal_invariants(self, monkeypatch, capsys, system, h, invariant):
        """With the up-front solution check passed by force, each step
        invariant of the reduction still stops it, in process with an
        ``InternalError`` and through the CLI with exit code 3."""
        import weq.principal

        monkeypatch.setattr(weq.principal, "is_solution", lambda h, system: True)
        T, names = parse_system(system)
        with pytest.raises(InternalError) as raised:
            weq.principal.principal_decompose(parse_morphism(h, names), T)
        assert str(raised.value) == f"principal decomposition: {invariant}"
        assert main(["principal", system, h]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: principal decomposition: {invariant}\n"

    @pytest.mark.parametrize(
        "name, fake, invariant",
        [
            # every measure read is larger than the one before
            ("sum", lambda: lambda values, reads=itertools.count(): 10 * next(reads), "termination measure failed to decrease"),
            ("dict", lambda: _ForgetfulDict, "letters of g differ from the surviving unknowns"),
        ],
        ids=["measure-grows", "letters-of-g-forgotten"],
    )
    def test_principal_checks_no_solution_breaks(self, monkeypatch, capsys, name, fake, invariant):
        """Two checks of the reduction hold on every solution, so a builtin
        that each reads is shadowed in ``weq.principal``; each then stops
        the reduction with its own message, in process and through the CLI."""
        import weq.principal

        monkeypatch.setattr(weq.principal, name, fake(), raising=False)
        T, names = parse_system("xy = yx")
        with pytest.raises(InternalError) as raised:
            weq.principal.principal_decompose(parse_morphism("x = aaa\ny = a", names), T)
        assert str(raised.value) == f"principal decomposition: {invariant}"
        assert main(["principal", "xy = yx", "x = aaa\ny = a"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: principal decomposition: {invariant}\n"
