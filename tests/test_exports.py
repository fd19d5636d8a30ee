"""Every exported name resolves, and every one has a caller outside the tests:
the package's and each submodule's __all__."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tomoreduce

MODULES = ["tomoreduce"] + [
    f"tomoreduce.{info.name}" for info in pkgutil.iter_modules(tomoreduce.__path__)
]

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(tomoreduce.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def referenced_names(paths) -> set[str]:
    """Every name the files refer to as a name, an attribute or an import;
    a name inside a string does not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_export_has_a_caller_outside_the_tests():
    # an export that only tests call is public API that nothing uses; the
    # package __init__ only re-exports, so its imports do not count
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "benchmark", "tools"):
        sources += sorted((ROOT / folder).rglob("*.py"))
    used = referenced_names(sources)
    exported = {
        attr for name in MODULES for attr in getattr(importlib.import_module(name), "__all__", [])
    }
    unused = sorted(exported - used)
    assert not unused, f"exported names with no caller outside tests/: {unused}"
