"""Every exported name resolves: the package's and each submodule's __all__."""

import importlib
import pkgutil

import pytest

import tomoreduce

MODULES = ["tomoreduce"] + [
    f"tomoreduce.{info.name}" for info in pkgutil.iter_modules(tomoreduce.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
