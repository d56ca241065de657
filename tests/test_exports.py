"""Every exported name resolves: no stale entry in any `__all__`."""
import importlib
import pkgutil

import pytest

import banachproj

MODULES = ["banachproj"] + [f"banachproj.{m.name}" for m in pkgutil.iter_modules(banachproj.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_the_submodule_lists():
    # one export list per public name: the package adds only its version
    parts = ["space", "sets", "solver", "derivative", "numdiff", "moduli", "verify"]
    expected = [name for part in parts for name in getattr(banachproj, part).__all__]
    assert banachproj.__all__ == expected + ["__version__"]
    assert len(set(banachproj.__all__)) == len(banachproj.__all__)
