"""SciPy submodules that are imported on first use.

Importing `scipy.optimize` takes about 0.25-0.6 s, while every set
type, its derivatives and the moduli need no SciPy in the common case.
`sets` and `solver` bind `optimize` to the stand-in below: the first
read of an attribute imports the real module and keeps the attribute on
the stand-in for later reads.  So `scipy.optimize` is loaded only by an
H-polytope projection that the weak-duality bound from Newton's weights
leaves uncertified: its support point is then a boxed linear program
(`PolytopeH.support`), for the support-gap certificate and the
simplicial decomposition that finishes the point.  `solver` binds
`optimize` only so that the span tracer of the benchmark can hook it.
`stats` is read by nothing in the package: it remains for the span
tracer of the benchmark, which hooks `moduli.stats.gamma.ppf`, so only
traced runs import `scipy.stats`.
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
