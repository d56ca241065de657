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

