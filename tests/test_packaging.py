"""pyproject.toml declares every third-party module that the code imports.

The package may import only its runtime dependencies; the tests may also
import the ``test`` extra. A module counts as third-party unless it is in
the standard library, is debtkit or is a module of tests/. And each module
of the package reads every name it imports, but for the few that
perfbench/tracer.py wraps by name.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest
from test_tracer import _load_tracer

tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")

ROOT = Path(__file__).resolve().parents[1]


def _imported(directory: Path) -> set[str]:
    """The top-level names of the absolute imports in directory's .py files."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    local = {"debtkit", *(path.stem for path in (ROOT / "tests").glob("*.py"))}
    return names - set(sys.stdlib_module_names) - local


def _names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _names(project["dependencies"])
    test = runtime | _names(project["optional-dependencies"]["test"])
    assert _imported(ROOT / "src") <= runtime
    assert {"pytest", "hypothesis"} <= _imported(ROOT / "tests") <= test


# imported only so that perfbench/tracer.py finds them in their module
_TRACED_ONLY = {("regress", "cross_section"), ("scaling", "cross_section"),
                ("scaling", "ols")}


def _read(tree: ast.AST) -> set[str]:
    """The names that tree reads, in its code and in its string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(
                    annotation.value, str):
                names |= _read(ast.parse(annotation.value, mode="eval"))
    return names


def _unread_imports(path: Path) -> set[str]:
    """The names that path's imports bind and its code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    return bound - _read(tree)


def test_every_import_is_read():
    # __init__.py imports the package's exports, which it need not read
    unread = {(path.stem, name)
              for path in (ROOT / "src" / "debtkit").glob("*.py")
              if path.name != "__init__.py" for name in _unread_imports(path)}
    assert unread <= _TRACED_ONLY
    assert _TRACED_ONLY <= {(module, attr)
                            for module, attr, _ in _load_tracer().TARGETS}
