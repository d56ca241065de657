"""SciPy submodules that are imported on first use.

Importing `scipy.optimize` takes about 0.6 s and `scipy.stats` about as
long again, while balls, cones, subspaces, segments, rays and their
derivatives need neither.  `sets` and `solver` bind `optimize`, and `moduli` binds `stats`,
to the stand-ins below: the first read of an attribute (`optimize.linprog`,
`stats.gamma`) imports the real module and keeps the attribute on the
stand-in for later reads.  So only polytopes load `scipy.optimize` (the
segment and ray line search is the NumPy-only Brent in `sets`), and only
the moduli sampler loads `scipy.stats`.
"""
from __future__ import annotations

import importlib


class _Deferred:
    """Stands in for a module; the module is imported on first use."""

    def __init__(self, name: str):
        self._name = name

    def load(self):
        """The module itself, imported now if it is not yet."""
        return importlib.import_module(self._name)

    def __getattr__(self, attr):
        value = getattr(self.load(), attr)
        setattr(self, attr, value)   # later reads find it without this call
        return value


optimize = _Deferred("scipy.optimize")
stats = _Deferred("scipy.stats")
