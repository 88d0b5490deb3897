"""No unused imports, no dead private names and no duplicated helpers in the package, checked with the standard library's ``ast`` alone.

A module-level import of ``src/microlie`` must bind a name that the module
reads somewhere, in code or in a quoted annotation.  ``__init__.py`` is
exempt: its imports are the package's re-exports.

A private name (one leading underscore) defined at module level, by ``def``,
``class`` or assignment, and a private method must be read by some module
of the package: as a name, an attribute or an imported name.  A definition
under a decorator that registers it (``@law``) is exempt; one under a
decorator that only wraps it (``@cache``, ``@property``, ...) is not.

No two module-level functions of the package share a body (a leading
docstring aside): a helper is defined once and imported where it is needed.

The modules of the package import one another without a cycle, counting the
imports inside functions too: a cycle is what a function-level import hides.
"""

import ast
from itertools import chain
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "microlie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(tree: ast.Module):
    """Each name a module-level import binds, with its line; ``from __future__`` binds none."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(node: ast.AST):
    if isinstance(node, ast.arg):
        yield node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, the names inside quoted annotations (``-> "Jet"``) included."""
    used = _names(tree)
    for node in ast.walk(tree):
        for annotation in filter(None, _annotations(node)):
            for c in ast.walk(annotation):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used |= _names(ast.parse(c.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name} never uses {', '.join(unused)}"


def test_an_unused_import_is_caught():
    tree = ast.parse('from math import gcd, lcm\nimport os.path\n\ndef f(x: "Fraction") -> int:\n    return lcm(x)\n')
    assert [name for name, _ in _imports(tree) if name not in _used(tree)] == ["gcd", "os"]
    assert "Fraction" in _used(tree)


WRAPPERS = {"cache", "lru_cache", "cached_property", "property", "staticmethod", "classmethod", "dataclass"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _registered(node: ast.AST) -> bool:
    """Whether a decorator other than a plain wrapper keeps the definition alive."""
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name not in WRAPPERS:
            return True
    return False


def _private_definitions(tree: ast.Module):
    """Each private module-level name and private method a module defines, with its line."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = (n for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body if isinstance(n, functions))
    for node in chain(tree.body, methods):
        if isinstance(node, (*functions, ast.ClassDef)):
            if _private(node.name) and not _registered(node):
                yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and _private(n.id):
                        yield n.id, node.lineno


def _reads(tree: ast.Module) -> set[str]:
    """Every name a module reads as a name, an attribute or an import, annotations included."""
    reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    reads |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)}
    reads |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    quoted = _used(tree) - _names(tree)  # the names that only quoted annotations read
    return reads | quoted


def _dead(trees: dict[str, ast.Module]) -> list[str]:
    read = set().union(*map(_reads, trees.values()))
    return [f"{module}: {name} (line {line})" for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in read]


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    dead = _dead(trees)
    assert not dead, f"never read: {', '.join(dead)}"


def test_a_dead_private_name_is_caught():
    source = (
        "from functools import lru_cache\n"
        "_TABLE = {}\n_unused = 0\n"
        "@lru_cache(maxsize=64)\ndef _monomial_images(a):\n    return a\n"
        "@law('module', 'ring-laws')\ndef _law_ring(env):\n    return _TABLE\n"
        "class Jet:\n    def _live(self):\n        return self._parts\n    def _dead(self, x: '_Hint'):\n        return self._live()\n"
        "class _Hint:\n    pass\n"
    )
    other = "from .weil import _helper\n"
    trees = {"weil.py": ast.parse(source + "def _helper():\n    pass\n"), "other.py": ast.parse(other)}
    assert _dead(trees) == ["weil.py: _unused (line 3)", "weil.py: _monomial_images (line 5)", "weil.py: _dead (line 13)"]


def _body(node: ast.FunctionDef) -> str:
    """A function's body as ``ast.dump`` text, without a leading docstring and with no line numbers."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    return ast.dump(ast.Module(body=body, type_ignores=[]))


def _duplicates(trees: dict[str, ast.Module]) -> list[list[str]]:
    """The module-level functions that share a body, grouped, each as ``module: name (line n)``."""
    by_body: dict[str, list[str]] = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                by_body.setdefault(_body(node), []).append(f"{module}: {node.name} (line {node.lineno})")
    return [places for places in by_body.values() if len(places) > 1]


def test_no_two_module_level_functions_share_a_body():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    duplicates = _duplicates(trees)
    assert not duplicates, "same body: " + "; ".join(", ".join(places) for places in duplicates)


def test_a_duplicated_helper_is_caught():
    frac = "def _frac(n, den):\n    return Fraction(n) if den == 1 else Fraction(n, den)\n"
    documented = 'def _ratio(n, den):\n    """A fraction."""\n    return Fraction(n) if den == 1 else Fraction(n, den)\n'
    other = "def _frac2(n, den):\n    return Fraction(n, den)\n"
    trees = {"weil.py": ast.parse(frac + other), "poly.py": ast.parse("import math\n\n" + documented)}
    assert _duplicates(trees) == [["weil.py: _frac (line 1)", "poly.py: _ratio (line 3)"]]
    assert _duplicates({"weil.py": ast.parse(frac)}) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports, at any depth of its code."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("microlie."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("microlie.")}
    return out


def _cycle(trees: dict[str, ast.Module]) -> list[str]:
    """One import cycle among the modules, as ``[a, b, ..., a]``, or ``[]`` if there is none."""
    graph = {name: _imported_modules(tree) for name, tree in trees.items()}
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> list[str]:
        if name in path:
            return path[path.index(name):] + [name]
        if name in done or name not in graph:
            return []
        for other in sorted(graph[name]):
            found = visit(other, path + [name])
            if found:
                return found
        done.add(name)
        return []

    for name in sorted(graph):
        found = visit(name, [])
        if found:
            return found
    return []


def test_no_import_cycle():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    cycle = _cycle(trees)
    assert not cycle, "import cycle: " + " -> ".join(cycle)


def test_an_import_cycle_is_caught():
    weil = "def image(jet):\n    from .poly import _linear_combination\n    return _linear_combination\n"
    trees = {"weil": ast.parse(weil), "poly": ast.parse("from .weil import Jet\n"), "cli": ast.parse("from . import poly\n")}
    assert _cycle(trees) == ["poly", "weil", "poly"]
    del trees["weil"]
    assert _cycle(trees) == []
    assert _imported_modules(ast.parse("import microlie.weil\nfrom microlie.poly import Poly\n")) == {"weil", "poly"}
