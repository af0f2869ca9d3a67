"""Every name the package and its modules list in `__all__` resolves, so
a removed function cannot stay behind as a stale export, and no module
imports another's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import epicmp

MODULES = ["epicmp"] + [f"epicmp.{info.name}"
                        for info in pkgutil.iter_modules(epicmp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert exported or name == "epicmp.cli"   # the CLI exports nothing
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []


@pytest.mark.parametrize("path", sorted(Path(epicmp.__path__[0]).glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    """A name that starts with `_` belongs to its module: another module
    that needs it shows that the decision it holds is known in two
    places."""
    private = [f"{node.module or ''}.{alias.name}"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("epicmp"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
