"""No unused imports in the package, checked with the standard library's ``ast`` alone.

A module-level import of ``src/microlie`` must bind a name that the module
reads somewhere, in code or in a quoted annotation.  ``__init__.py`` is
exempt: its imports are the package's re-exports.
"""

import ast
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
