"""Every module of the package uses each name it imports, every
module-level private name is used somewhere in the package, and every
public module-level function and class is too, or is listed in
``UNREAD_PUBLIC`` with its reason.

Parses the sources with ``ast`` (no import, standard library only), so the
check also covers names that only an unused import would bind.  The package
``__init__`` is left out of the import check: re-exporting is its purpose.
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


def dead_private_names(sources: dict) -> list:
    """(module, name) for each module-level private function, class or
    constant (``_x``, not dunder) that no module of ``sources`` reads, as a
    name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    defined += [(module, n.id) for n in ast.walk(target) if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (module, name) for module, name in defined
        if name.startswith("_") and not name.endswith("__") and name not in read
    )


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def test_detects_dead_private_names():
    sources = {
        "a.py": "_SMALL = 1e-3\n_USED, _PAIR = 1, 2\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _helper\nimport a\n__all__ = []\nx = _helper() + a._PAIR\n",
    }
    assert dead_private_names(sources) == [("a.py", "_Gone"), ("a.py", "_SMALL")]


# public names that no module of the package reads, each with its reason
UNREAD_PUBLIC = {
    ("core.py", "sup_u"): "entry point of the representation-theorem check (perfbench subordination)",
    ("core.py", "count_disk_zeros"): "entry point of the representation-theorem check (perfbench subordination)",
    ("core.py", "dilate"): "entry point of the representation-theorem check (perfbench subordination)",
    ("core.py", "subordination_check"): "entry point of the representation-theorem check (perfbench subordination)",
    ("core.py", "majorant_h_boundary"): "entry point of the representation-theorem check (perfbench subordination)",
    ("core.py", "extremal_q_boundary"): "entry point of the representation-theorem check (perfbench subordination)",
    ("series.py", "series_eval"): "Horner reference that the tests compare ring_eval against",
    ("series.py", "series_integrate"): "termwise reference that the tests compare q_rows_from_omega against",
    ("bounds.py", "rogosinski_check"): "Theorem 2's coefficient step, checked by acceptance test 04",
}


def unread_public_names(sources: dict) -> list:
    """(module, name) for each module-level public function or class that
    no module of ``sources`` reads, as a name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in read)


def test_no_unread_public_names():
    # exactly the listed ones: a listed name that something now reads is a
    # stale entry, and goes from the list
    sources = {p.name: p.read_text() for p in MODULES}
    assert unread_public_names(sources) == sorted(UNREAD_PUBLIC)


def test_detects_unread_public_names():
    sources = {
        "a.py": "def helper():\n    return 1\ndef gone():\n    pass\nclass Kept:\n    pass\nclass Lost:\n    pass\n",
        "b.py": "from .a import gone, helper\nimport a\nx = helper() + a.Kept()\ndef _private():\n    pass\n",
    }
    assert unread_public_names(sources) == [("a.py", "Lost"), ("a.py", "gone")]
