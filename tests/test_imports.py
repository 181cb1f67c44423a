"""Every module of lhcone but `__init__` uses each name it imports, and the
public surface is declared once: each library module's `__all__` lists the
names it defines and exports, and `__init__` re-exports them by wildcard."""

import ast
from inspect import ismodule
from pathlib import Path

import pytest

import lhcone
from lhcone import enumeration, exact_arith, gcd_structure, gorenstein, sequences

MODULES = sorted(p for p in Path(lhcone.__file__).parent.glob("*.py") if p.name != "__init__.py")
# the modules whose __all__ lhcone re-exports, in the order it joins them
LIBRARY = (sequences, gorenstein, enumeration, gcd_structure, exact_arith)


def unused_imports(source):
    """The names source binds by an import and never reads or writes."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm as l\nl(2)\n"
    assert unused_imports(source) == ["gcd", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(module):
    """The names module's source binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_package_all_joins_the_modules_all():
    joined = [name for module in LIBRARY for name in module.__all__]
    assert lhcone.__all__ == joined
    assert len(set(joined)) == len(joined)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_module_all_names_what_it_defines(module):
    defined = top_level_names(module)
    for name in module.__all__:
        assert name in defined, name
        obj = getattr(module, name)
        if callable(obj):
            assert obj.__module__ == module.__name__, name
        assert getattr(lhcone, name) is obj, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lhcone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lhcone.__all__)
    # and the package binds no public name but those and its submodules
    public = {name for name in dir(lhcone) if not name.startswith("_")}
    assert {name for name in public if not ismodule(getattr(lhcone, name))} == set(lhcone.__all__)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_init_imports_by_wildcard(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [node.lineno for node in imports if node.names[0].name == "*"] == []
