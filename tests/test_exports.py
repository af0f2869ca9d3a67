"""Every name the package and its modules list in `__all__` resolves, so
a removed function cannot stay behind as a stale export."""

import importlib
import pkgutil

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
