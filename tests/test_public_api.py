"""Public-API guard: every exported name resolves to the object its module defines."""

import importlib
import pkgutil
import types

import pytest

import gkslmap

MODULES = sorted(m.name for m in pkgutil.iter_modules(gkslmap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_module_all_resolves(name):
    module = importlib.import_module(f"gkslmap.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"gkslmap.{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"gkslmap.{name}.__all__ lists undefined names {missing}"


def test_package_names_are_the_objects_their_modules_export():
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"gkslmap.{name}")
        for n in module.__all__:
            exported.setdefault(n, []).append(getattr(module, n))
    public = [
        n
        for n, obj in vars(gkslmap).items()
        if not n.startswith("_") and not isinstance(obj, types.ModuleType)
    ]
    assert "TwoTimeOperatorFunction" in public
    stray = [
        n for n in public if not any(obj is getattr(gkslmap, n) for obj in exported.get(n, ()))
    ]
    assert not stray, f"gkslmap names not exported by any module's __all__: {stray}"
