"""Rules every module of the library keeps, checked on its syntax tree.

The library is exact and stdlib-only: no true division and no floating
point anywhere, and no import from outside the standard library.
Invariants raise, because ``python -O`` strips ``assert``. A word is the
tuple of its letters, so the library never reads ``.symbols`` to get
them. The command line reads only the public names of the other modules.
A polynomial's term map never changes once it is built, since the
polynomial keeps the packing made from it: no module stores into or
deletes from a ``._terms`` map, or calls a method on one that changes it.

The library keeps only what runs. Every public top-level function or
class of a module, and every public method of those classes, is named
somewhere other than in its own definition: as a name, an attribute or
an imported name, in a library module (the command line included) or in
a file of the benchmark. The tests do not count. The rule matches by
name, so it misses a method whose name is also used for something else.

Each name has one import path: the module that defines it. The package
root ``weq/__init__`` imports nothing and binds nothing but
``__version__``, so it re-exports nothing.

Every field of a library class is read: each field of a dataclass, and
each attribute that a class's ``__init__`` assigns on ``self``. Its name
is read as an attribute in a library module or a file of the benchmark,
or the class goes whole through ``dataclasses.asdict``, called on the
class or on a function whose return annotation names it. The tests do
not count here either.

The layout table of the README names only what exists: each backticked
identifier in the row of a ``weq`` module is an attribute of that module,
or an attribute or dataclass field of one of its classes. The output its
example shows is what that command prints.
"""

import ast
import dataclasses
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from weq.cli import main

import at_scale

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "weq").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TERMS_MUTATORS = {"pop", "update", "clear", "setdefault", "popitem"}


def _is_terms(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_terms"


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
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) and _is_terms(node.value):
            found.append((line, f"change of {ast.unparse(node)}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TERMS_MUTATORS
            and _is_terms(node.func.value)
        ):
            found.append((line, f"change of {ast.unparse(node.func.value)}"))
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
        "p._terms[e] = 1",
        "p._terms[e] += c",
        "del self._terms[e]",
        "p._terms.pop(e, None)",
        "q._terms.update(terms)",
        "p._terms.clear()",
        "p._terms.setdefault(e, 0)",
        "p._terms.popitem()",
    ],
)
def test_each_rule_is_detected(source):
    assert len(violations(ast.parse(source))) == 1


@pytest.mark.parametrize(
    "source",
    [
        "u = [c for s in e.left for c in g[s]]",
        "@property\ndef symbols(self):\n    return tuple(self)",
        "c = p._terms[e]\nout = dict(p._terms)\nout[e] = c\nout.pop(e)\nres._terms = out",
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


def definitions(tree: ast.Module):
    """``(qualified name, node)`` of the public top-level functions and
    classes of a module and of the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield f"{node.name}.{method.name}", method


def names_read(tree: ast.AST) -> Counter:
    """How often each name occurs as a name, an attribute or an imported name."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unreached(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The definitions of ``modules`` (module name -> source) whose name
    occurs in no module and no reader source but inside the definition
    itself. The module ``__init__`` is skipped, so a re-export there, which
    ``test_package_root_reexports_nothing`` forbids, would not count either."""
    trees = {name: ast.parse(source) for name, source in modules.items() if name != "__init__"}
    read = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        read += names_read(tree)
    return [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, node in definitions(tree)
        if read[node.name] == names_read(node)[node.name]
    ]


def test_every_public_definition_is_reached():
    assert BENCH
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreached(modules, [path.read_text(encoding="utf-8") for path in BENCH]) == []


@pytest.mark.parametrize(
    "modules, readers, flagged",
    [
        ({"m": "def f():\n    pass"}, [], ["m.f"]),
        ({"m": "def f():\n    pass"}, ["import weq.m\nweq.m.f()"], []),
        ({"__init__": "from .m import f", "m": "def f():\n    pass"}, [], ["m.f"]),
        ({"m": "def f(n):\n    return f(n - 1) if n else 0"}, [], ["m.f"]),
        ({"m": "class C:\n    def g(self):\n        pass", "n": "from .m import C"}, [], ["m.C.g"]),
        ({"m": "def _f():\n    pass\n\nclass C:\n    def __len__(self):\n        return 0\n\nC()"}, [], []),
    ],
    ids=["unused function", "read by the benchmark", "only re-exported", "only recursive", "unused method", "private"],
)
def test_unreached_definition_is_detected(modules, readers, flagged):
    assert unreached(modules, readers) == flagged


def root_bindings(tree: ast.Module) -> list[str]:
    """The imports of a package root, and the names it binds or defines
    other than ``__version__``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id != "__version__":
            found.append(f"binding of {node.id}")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(f"definition of {node.name}")
    return found


def test_package_root_reexports_nothing():
    path = ROOT / "src" / "weq" / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert ast.get_docstring(tree)
    assert root_bindings(tree) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ('"""Doc."""\n\n__version__ = "0.1.0"', []),
        ("from .words import Word", ["from .words import Word"]),
        ("import weq.words", ["import weq.words"]),
        ('__all__ = ["Word"]', ["binding of __all__"]),
        ("def __getattr__(name):\n    return name", ["definition of __getattr__"]),
    ],
    ids=["version only", "re-export", "submodule import", "__all__", "lazy __getattr__"],
)
def test_root_binding_is_detected(source, flagged):
    assert root_bindings(ast.parse(source)) == flagged


def class_fields(tree: ast.Module):
    """``(class name, field name)`` of the classes of a module: the
    annotated names of a dataclass body, ``ClassVar``s aside, and the
    attributes that a class's ``__init__`` assigns on its first argument."""
    for node in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                ):
                    yield node.name, stmt.target.id
        for init in node.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                for target in ast.walk(init):
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.ctx, ast.Store)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == init.args.args[0].arg
                    ):
                        yield node.name, target.attr


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The class fields of ``modules`` (module name -> source) that no
    module and no reader source reads as an attribute, and whose class no
    ``asdict`` call takes whole."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    everything = [*trees.values(), *map(ast.parse, readers)]
    returns = {
        node.name: ast.unparse(node.returns)
        for tree in everything
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.returns is not None
    }
    read, whole = set(), set()
    for node in (node for tree in everything for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and _callee(node) == "asdict":
            argument = node.args[0] if node.args else None
            if isinstance(argument, ast.Call):
                whole.add(returns.get(_callee(argument), _callee(argument)))
    return [
        f"{module}.{cls}.{field}"
        for module, tree in trees.items()
        for cls, field in class_fields(tree)
        if field not in read and cls not in whole
    ]


def test_every_dataclass_field_is_read():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert any(dict(class_fields(ast.parse(source))) for source in modules.values())
    fields = set(class_fields(ast.parse(modules["analysis"])))
    assert {("PairAnalysis", name) for name in ("E", "Ep", "names", "_minors")} <= fields
    assert unread_fields(modules, [path.read_text(encoding="utf-8") for path in BENCH]) == []


_DATACLASS = "from dataclasses import dataclass\n\n@dataclass\nclass R:\n    a: int\n    b: int = 0\n\n"


@pytest.mark.parametrize(
    "source, readers, flagged",
    [
        (_DATACLASS + "R(1).a", [], ["m.R.b"]),
        (_DATACLASS + "R(1).a", ["r.b"], []),
        (_DATACLASS + "R(1).a\nr.b = 2", [], ["m.R.b"]),
        (_DATACLASS + "def f() -> R:\n    return R(1)\n\ndataclasses.asdict(f())", [], []),
        (_DATACLASS + "asdict(R(1))", [], []),
        (_DATACLASS + "def f() -> int:\n    return 1\n\nasdict(f())", [], ["m.R.a", "m.R.b"]),
        ("from typing import ClassVar\n\n@dataclass\nclass S:\n    c: ClassVar[int] = 0", [], []),
        ("class C:\n    def __init__(self, a):\n        self.a, self.b = a, 0\n\nC(1).a", [], ["m.C.b"]),
        (
            "class C:\n    def __init__(me, a, other):\n        me._a: int = a\n        other.b = 0\n\n"
            "    def f(self):\n        return self._a",
            [],
            [],
        ),
    ],
    ids=[
        "unread field",
        "read by the benchmark",
        "assignment is not a read",
        "asdict of an annotated call",
        "asdict of the class",
        "asdict of another class",
        "class variable",
        "unread attribute set in __init__",
        "read attribute set in __init__",
    ],
)
def test_unread_field_is_detected(source, readers, flagged):
    assert unread_fields({"m": source}, readers) == flagged


def test_readme_layout_names_what_exists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `weq\.(\w+)` *\| (.*) \|$", text, re.MULTILINE))
    assert set(rows) == {path.stem for path in SOURCES} - {"__init__"}
    missing = []
    for name, contents in rows.items():
        module = importlib.import_module(f"weq.{name}")
        classes = [v for v in vars(module).values() if isinstance(v, type)]
        known = set(dir(module)).union(*map(dir, classes))
        known.update(f.name for c in classes if dataclasses.is_dataclass(c) for f in dataclasses.fields(c))
        if name == "cli":
            known.add("weq")  # the command's name
        idents = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", contents)
        missing += [f"weq.{name}: {ident}" for ident in idents if ident not in known]
    assert missing == []


def test_readme_example_is_the_cli_output(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    command = r"\$ weq hyperplanes \"\$\(printf '([^']*)'\)\""
    system, shown = re.search(rf"^### Example\n\n```text\n{command}\n(.*?)^```$", text, re.M | re.S).groups()
    assert main(["hyperplanes", system.replace(r"\n", "\n")]) == 0
    assert capsys.readouterr().out == shown




def unmatched_checks(workflow: str, checks) -> list[str]:
    """Each of ``checks`` that the workflow's text does not run exactly once
    by ``python tests/at_scale.py NAME``, and each name it runs that is not
    one of them."""
    run = Counter(name for names in re.findall(r"python tests/at_scale\.py(.*)", workflow) for name in names.split())
    faults = [f"{name} runs {run[name]} times" for name in checks if run[name] != 1]
    return faults + [f"no check {name}" for name in run if name not in checks]


def test_workflow_runs_each_check_once():
    # importing the runner imports the suite's claim functions, so a stale name fails here
    assert len(at_scale.CHECKS) == 11
    assert unmatched_checks(WORKFLOW.read_text(encoding="utf-8"), at_scale.CHECKS) == []


@pytest.mark.parametrize(
    "workflow, found",
    [
        ("run: python tests/at_scale.py a\n", ["b runs 0 times"]),
        ("run: python tests/at_scale.py a\nrun: timeout 9 python tests/at_scale.py b c\n", ["no check c"]),
        ("run: python tests/at_scale.py a b\nrun: python tests/at_scale.py b\n", ["b runs 2 times"]),
    ],
    ids=["missing", "unknown", "repeated"],
)
def test_unmatched_check_is_detected(workflow, found):
    assert unmatched_checks(workflow, {"a": None, "b": None}) == found
