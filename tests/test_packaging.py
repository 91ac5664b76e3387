"""pyproject.toml declares every third-party module that the code imports.

The package may import only its runtime dependencies; the tests may also
import the ``test`` extra. A module counts as third-party unless it is in
the standard library, is debtkit or is a module of tests/.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

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
