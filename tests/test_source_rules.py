"""Rules every module of the library keeps, checked on its syntax tree.

The library is exact and stdlib-only: no true division and no floating
point anywhere, and no import from outside the standard library.
Invariants raise, because ``python -O`` strips ``assert``. A word is the
tuple of its letters, so the library never reads ``.symbols`` to get
them. The command line reads only the public names of the other modules.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "weq").glob("*.py"))


def violations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Assert):
            found.append((line, "assert"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((line, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((line, f"float constant {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((line, "use of float"))
        elif isinstance(node, ast.Attribute) and node.attr == "symbols":
            found.append((line, f"read of {ast.unparse(node)}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] not in sys.stdlib_module_names:
                    found.append((line, f"import of {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.partition(".")[0] not in sys.stdlib_module_names:
                found.append((line, f"import from {node.module}"))
    return sorted(found)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"words.py", "search.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_keeps_the_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert violations(tree) == []


@pytest.mark.parametrize(
    "source",
    [
        "assert x",
        "y = x / 2",
        "x /= 2",
        "y = 0.5",
        "y = float(x)",
        "import numpy",
        "from sympy import Poly",
        "u = [c for s in e.left.symbols for c in g[s]]",
    ],
)
def test_each_rule_is_detected(source):
    assert len(violations(ast.parse(source))) == 1


@pytest.mark.parametrize(
    "source",
    [
        "u = [c for s in e.left for c in g[s]]",
        "@property\ndef symbols(self):\n    return tuple(self)",
    ],
)
def test_allowed_source_passes(source):
    assert violations(ast.parse(source)) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """Underscore names imported from a ``weq`` module, or read as an
    attribute of a name imported from one (dunder names aside)."""
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "weq"):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"import of {alias.name}"))
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            imported.update(
                alias.asname or "weq" for alias in node.names if alias.name.partition(".")[0] == "weq"
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append((node.lineno, f"use of {ast.unparse(node)}"))
    return sorted(found)


def test_cli_uses_only_public_names():
    path = SOURCES[0].parent / "cli.py"
    assert private_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


@pytest.mark.parametrize(
    "source, count",
    [
        ("from .encode import _det_grid, s_vector", 1),
        ("from . import analysis\nt = analysis._cofactor(grid)", 1),
        ("import weq.analysis\nt = weq.analysis._cofactor(grid)", 1),
        ("from . import analysis\nt = analysis.PairAnalysis(E, Ep).cofactor\nargs._x, args.__dict__", 0),
    ],
)
def test_private_use_is_detected(source, count):
    assert len(private_uses(ast.parse(source))) == count
