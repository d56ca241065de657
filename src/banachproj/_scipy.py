"""SciPy submodules that are imported on first use.

Importing `scipy.optimize` takes about 0.6 s, while balls, cones,
subspaces, segments, rays, V-polytopes, their derivatives and the moduli
need no SciPy at all.  `sets` and `solver` bind `optimize` to the
stand-in below: the first read of an attribute imports the real module
and keeps the attribute on the stand-in for later reads.  So only
H-polytopes load `scipy.optimize`, for the linear programs of their
feasibility probe and support point.  `stats` is read by nothing in the
package: it remains for the span tracer of the benchmark, which hooks
`moduli.stats.gamma.ppf`, so only traced runs import `scipy.stats`.
"""
from __future__ import annotations

import importlib


class _Deferred:
    """Stands in for a module; the module is imported on first use."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)   # later reads find it without this call
        return value


optimize = _Deferred("scipy.optimize")
stats = _Deferred("scipy.stats")
