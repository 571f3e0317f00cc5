"""Import lint: every name a package module or a test file imports is used
in that file.

``__init__.py`` is exempt, since its imports are the package's public names.
A name counts as used when it appears as a bare name anywhere in the module
(an ``ast.Name``, which includes the base of an attribute access such as
``json.dumps`` and names in annotations).
"""
import ast
from pathlib import Path

import monpoincare

PACKAGE = Path(monpoincare.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list:
    """The names bound by import statements of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_lint_sees_an_unused_import():
    source = "import json\nfrom os import path, sep\nfrom .core import (a,\n    b)\nprint(sep, b)\n"
    assert unused_imports(source) == [(1, "json"), (2, "path"), (3, "a")]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def _unused_by_file(paths) -> dict:
    return {p.name: found for p in paths
            if (found := unused_imports(p.read_text(encoding="utf-8")))}


def test_package_modules_use_every_name_they_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    assert _unused_by_file(modules) == {}


def test_test_files_use_every_name_they_import():
    files = sorted(TESTS.glob("*.py"))
    assert len(files) >= 9
    assert _unused_by_file(files) == {}
