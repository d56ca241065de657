"""Every exported name resolves: no stale entry in any `__all__`.  The
public surface has a pinned list of settable keywords."""
import importlib
import inspect
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


# Every keyword with a default on the public surface, as (callable, parameter).
# A setting that only one value is used for belongs in a constant; add one
# here only when a caller outside the tests sets it.
SETTINGS = [
    ("contains", "tol"),
    ("project_with_certificate", "max_iter"),
    ("project_with_certificate", "cert_tol"),
    ("StepSchedule", "t_values"),
    ("StepSchedule", "quotient_tol"),
    ("numdiff_derivative", "schedule"),
    ("cauchy_rate_probe", "schedule"),
    *[(f"estimate_{curve}_modulus", key) for curve in ("convexity", "smoothness")
      for key in ("budget", "seed", "threads")],
    ("distance_bound_check", "fit"),
    *[(f"{suite}_suite", key) for suite in ("duality", "ball", "cone", "subspace", "properties4")
      for key in ("p", "n", "count", "seed")],
    *[("hilbert_suite", key) for key in ("n", "count", "seed")],
]


def _settings(name, fn):
    return [(name, key) for key, par in inspect.signature(fn).parameters.items()
            if par.default is not inspect.Parameter.empty]


def test_settable_keywords_are_the_pinned_list():
    # functions and public methods reachable from banachproj.__all__, the
    # StepSchedule fields, and the verify suites
    from banachproj.verify import SUITES

    found = []
    for name in banachproj.__all__:
        obj = getattr(banachproj, name)
        if inspect.isfunction(obj):
            found += _settings(name, obj)
        elif inspect.isclass(obj):
            if obj is banachproj.StepSchedule:
                found += _settings(name, obj)
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    found += _settings(f"{name}.{attr}", member)
    for suite in SUITES.values():
        found += _settings(suite.__name__, suite)
    assert sorted(found) == sorted(SETTINGS)
    assert len(SETTINGS) == 37
