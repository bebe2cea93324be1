"""Every module of the package uses each name it imports.

Parses the sources with ``ast`` (no import, standard library only), so the
check also covers names that only an unused import would bind.  The package
``__init__`` is left out: re-exporting is its purpose.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ulambda"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"series", "diskfun", "core", "geometry", "bounds", "cli", "errors"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_names():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom x import a, b\nprint(a, system)\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]
