"""Import lint: every name a package module or a test file imports is used
in that file; dead-code lint: every private function, class or method of the
package is named somewhere in the package outside its own body; attribute
lint: every public function, class, method or property of the package but a
few listed test oracles is named in a package module other than
``__init__.py``, outside its own body; attribute
lint: every ``self.<name> = ...`` in a package class is read as an attribute
somewhere in the package; table lint: only ``core`` builds an ideal's
staircase codec and subset tables; and row-format lint: only ``linalg``
branches on characteristic 2, where its packed rows are bitmasks, and no
module imports a private name of ``linalg``; series lint: only ``series``
calls the ``BigradedSeries`` constructor, so its box check is made in one
module; packing lint: no package module but ``series`` names the packed-key
helper ``_packing``, so packed keys never leave ``series``.

``__init__.py`` is exempt from the import lint, since its imports are the
package's public names.  A name counts as used when it appears as a bare name
anywhere in the module (an ``ast.Name``, which includes the base of an
attribute access such as ``json.dumps`` and names in annotations); a private
definition counts as referenced when its name appears as an ``ast.Name`` or an
attribute (``self._step``).  Dunder methods are not private names.
"""
import ast
from collections import Counter
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


def _names_read(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def dead_private_names(sources: dict) -> list:
    """(file, line, name) of each private function, class or method in
    ``sources`` ({file name: source}) that nothing outside its own body names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((_names_read(tree) for tree in trees.values()), Counter())
    dead = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and used[node.name] == _names_read(node)[node.name]):
                dead.append((file, node.lineno, node.name))
    return sorted(dead)


def test_the_lint_sees_a_dead_private_name():
    a = ("def _used():\n    pass\n\n\ndef _dead(n):\n    return _dead(n - 1)\n\n\n"
         "class _Box:\n    def _peek(self):\n        pass\n\n    def __repr__(self):\n"
         "        return self._shown()\n\n    def _shown(self):\n        return ''\n")
    b = "from .a import _Box, _used\n_used()\n_Box()\n"
    assert dead_private_names({"a.py": a, "b.py": b}) == [("a.py", 5, "_dead"),
                                                          ("a.py", 10, "_peek")]
    assert dead_private_names({"a.py": a}) == [("a.py", 1, "_used"), ("a.py", 5, "_dead"),
                                               ("a.py", 9, "_Box"), ("a.py", 10, "_peek")]


def test_package_private_names_are_all_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 8
    assert dead_private_names(sources) == []


def public_names_without_a_caller(sources: dict) -> list:
    """(file, line, name) of each public module-level function or class, and
    each public method or property (named ``Class.method``), in ``sources``
    ({file name: source}) that nothing outside its own body names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((_names_read(tree) for tree in trees.values()), Counter())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    uncalled = []
    for file, tree in trees.items():
        for top in tree.body:
            named = [(top, top.name)] if isinstance(top, (*functions, ast.ClassDef)) else []
            if isinstance(top, ast.ClassDef):
                named += [(m, f"{top.name}.{m.name}") for m in top.body
                          if isinstance(m, functions)]
            for node, name in named:
                if (not node.name.startswith("_")
                        and used[node.name] == _names_read(node)[node.name]):
                    uncalled.append((file, node.lineno, name))
    return sorted(uncalled)


def test_the_lint_sees_a_public_name_without_a_caller():
    a = ("def used():\n    pass\n\n\ndef alone(n):\n    return alone(n - 1)\n\n\n"
         "class Box:\n    def peek(self):\n        pass\n\n    @property\n"
         "    def size(self):\n        return 0\n\n    def __repr__(self):\n"
         "        return ''\n\n\nclass Unused:\n    pass\n\n\ndef _private():\n    pass\n")
    b = "from .a import Box, used\nused()\nBox().size\n"
    assert public_names_without_a_caller({"a.py": a, "b.py": b}) == [
        ("a.py", 5, "alone"), ("a.py", 10, "Box.peek"), ("a.py", 21, "Unused")]
    assert public_names_without_a_caller({"a.py": a}) == [
        ("a.py", 1, "used"), ("a.py", 5, "alone"), ("a.py", 9, "Box"), ("a.py", 10, "Box.peek"),
        ("a.py", 14, "Box.size"), ("a.py", 21, "Unused")]


# test oracles that the benchmark's tracer still wraps by name; they move to
# tests/helpers.py once the benchmark drops their spans
UNCALLED_ORACLES = {"series.series_mul", "series.series_inverse",
                    "series.denominator_from_poincare", "core.connected_components_lJ",
                    "complexes.minimize"}


def test_public_names_have_a_package_caller():
    """``__init__.py`` re-exports names and calls none, so it counts as no caller."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert len(sources) >= 7
    found = {f"{Path(file).stem}.{name}" for file, _, name in
             public_names_without_a_caller(sources)}
    assert found == UNCALLED_ORACLES


def unread_attributes(sources: dict) -> list:
    """(file, line, name) of each ``self.<name> = ...`` in a class of
    ``sources`` ({file name: source}) whose name no attribute read in any of
    them loads; an augmented assignment is no read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for file, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self"
                            and node.attr not in read):
                        unread.add((file, node.lineno, node.attr))
    return sorted(unread)


def test_the_lint_sees_an_unread_attribute():
    a = ("class Space:\n    def __init__(self, n, char):\n        self.n = n\n"
         "        self.char = char\n        self.rows = {}\n        self.count = 0\n\n"
         "    def add(self):\n        self.count += 1\n        return self.char\n")
    b = "from .a import Space\nSpace(1, 2).rows[0] = 1\n"
    assert unread_attributes({"a.py": a, "b.py": b}) == [("a.py", 3, "n"), ("a.py", 6, "count"),
                                                         ("a.py", 9, "count")]
    assert unread_attributes({"a.py": a}) == [("a.py", 3, "n"), ("a.py", 5, "rows"),
                                              ("a.py", 6, "count"), ("a.py", 9, "count")]


def test_package_attributes_are_all_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 8
    assert unread_attributes(sources) == []


TABLE_BUILDERS = ("staircase", "subset_table", "subset_components", "join_closure")


def table_builder_calls(source: str) -> list:
    """(owner, callee) for each call in ``source`` of a TABLE_BUILDERS name,
    bare or as an attribute; owner is the top-level function or class holding
    the call, or None at module level.  Reading ``ideal.subset_components`` is
    no call."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee in TABLE_BUILDERS:
                    found.append((getattr(top, "name", None), callee))
    return found


def test_the_lint_sees_a_table_builder():
    source = ("from .core import staircase, subset_table\n\n\ndef f(I):\n"
              "    return subset_table(staircase(I.generators, 2).atoms)\n\n\n"
              "class A:\n    def g(self, I):\n        return core.subset_components(I.m)\n\n\n"
              "x = I.subset_components\ny = subset_table([1])\nz = join_closure(I.codec.atoms)\n")
    assert table_builder_calls(source) == [("f", "subset_table"), ("f", "staircase"),
                                           ("A", "subset_components"), (None, "subset_table"),
                                           (None, "join_closure")]


def test_only_core_builds_the_codec_and_the_subset_tables():
    """Every other module reads an ideal's ``codec``, ``subset_lcms``,
    ``subset_components`` and ``lattice_masks``."""
    found = {p.name: calls for p in sorted(PACKAGE.glob("*.py")) if p.name != "core.py"
             and (calls := table_builder_calls(p.read_text(encoding="utf-8")))}
    assert found == {}


def _is_char(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "char"
            or isinstance(node, ast.Attribute) and node.attr == "char")


def _constants(node) -> set:
    """The constants a comparison operand names: itself, or the items of a
    tuple, list or set display."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {x.value for x in items if isinstance(x, ast.Constant)}


def char_two_comparisons(source: str) -> list:
    """The line of each comparison in ``source`` between a name or attribute
    ``char`` and the constant 2 (also as an item of ``char in (2, ...)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_char, operands)) and any(2 in _constants(x) for x in operands):
                found.append(node.lineno)
    return found


def private_linalg_imports(source: str) -> list:
    """(line, name) of each private name that ``source`` imports from linalg."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg"
            for alias in node.names if alias.name.startswith("_")]


def test_the_lint_sees_the_row_format_named():
    source = ("from .linalg import EchelonSpace, _bits\n"
              "from monpoincare.linalg import pack, _sparse as s\nfrom .core import _private\n\n\n"
              "def f(char, C, p):\n    if char == 2 or 2 != C.char:\n        return char in (0, 2)\n"
              "    return C.char == 3 or p == 2 or char < 3\n")
    assert char_two_comparisons(source) == [7, 7, 8]
    assert private_linalg_imports(source) == [(1, "_bits"), (2, "_sparse")]


def test_only_linalg_names_the_row_format():
    """The other modules hand rows to ``linalg`` through ``pack``, ``support``
    and ``restrict``, so none of them knows that a GF(2) row is an int."""
    branching = {p.name: lines for p in sorted(PACKAGE.glob("*.py")) if p.name != "linalg.py"
                 and (lines := char_two_comparisons(p.read_text(encoding="utf-8")))}
    assert branching == {}
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    private = {p.name: found for p in files
               if (found := private_linalg_imports(p.read_text(encoding="utf-8")))}
    assert private == {}


def series_constructor_calls(source: str) -> list:
    """The line of each call in ``source`` of ``BigradedSeries``, bare or as
    an attribute; naming the class in an annotation is no call."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
                  and "BigradedSeries" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None)))


def test_the_lint_sees_a_series_built():
    source = ("from .series import BigradedSeries, series_from_terms\n"
              "from . import series\n\n\ndef f(Q: BigradedSeries) -> BigradedSeries:\n"
              "    return BigradedSeries(1, 2, (2,), {})\n\n\n"
              "x = series.BigradedSeries(1, 0, (0,), {})\ny = series_from_terms(1, 0, (0,), [])\n")
    assert series_constructor_calls(source) == [6, 9]


def test_only_series_builds_a_bigraded_series():
    """Every other module builds its series through ``series`` functions,
    such as ``series_from_terms``."""
    found = {p.name: lines for p in sorted(PACKAGE.glob("*.py")) if p.name != "series.py"
             and (lines := series_constructor_calls(p.read_text(encoding="utf-8")))}
    assert found == {}
    assert series_constructor_calls((PACKAGE / "series.py").read_text(encoding="utf-8"))


def packing_references(source: str) -> list:
    """The line of each name, attribute or imported name ``_packing`` in ``source``."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if "_packing" in (getattr(node, "id", None), getattr(node, "attr", None))
                   or isinstance(node, ast.alias) and node.name == "_packing"})


def test_the_lint_sees_the_packing_named():
    source = ("from .series import _packing as p, series_div\nfrom . import series\n\n\n"
              "def f(num, den):\n    return series_div(num, den)\n\n\n"
              "pack = series._packing(2, (1,))[0]\n_packing = None\nx = _packing_width\n")
    assert packing_references(source) == [1, 9, 10]


def test_only_series_packs_keys():
    """``series_div`` packs and unpacks its keys itself; every other module
    hands ``series`` tuple keys."""
    found = {p.name: lines for p in sorted(PACKAGE.glob("*.py")) if p.name != "series.py"
             and (lines := packing_references(p.read_text(encoding="utf-8")))}
    assert found == {}
    assert packing_references((PACKAGE / "series.py").read_text(encoding="utf-8"))
