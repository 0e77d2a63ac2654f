import importlib
import pkgutil

import pytest

import gatenoise

SUBMODULES = [f"gatenoise.{m.name}" for m in pkgutil.iter_modules(gatenoise.__path__)]
MODULES = [
    name for name in ["gatenoise", *SUBMODULES] if hasattr(importlib.import_module(name), "__all__")
]


def test_public_modules_declare_their_names():
    assert {"gatenoise.couplings", "gatenoise.mcsim", "gatenoise.noise",
            "gatenoise.rates", "gatenoise.register"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
