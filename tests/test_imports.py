"""Every module of lhcone but `__init__`, whose imports are its public
surface, uses each name it imports."""

import ast
from pathlib import Path

import pytest

import lhcone

MODULES = sorted(p for p in Path(lhcone.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
