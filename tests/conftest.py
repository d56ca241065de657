import numpy as np
import pytest

from banachproj import numdiff


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def steps(monkeypatch):
    """Puts numdiff_derivative on other steps and another quotient tolerance."""
    def use(ts, tol=numdiff._QUOTIENT_TOL):
        monkeypatch.setattr(numdiff, "_STEPS", tuple(ts))
        monkeypatch.setattr(numdiff, "_QUOTIENT_TOL", tol)
    return use


def random_unit(rng, space, n):
    """A uniform-ish random point on the unit sphere of the space."""
    while True:
        x = rng.standard_normal(n)
        if np.max(np.abs(x)) > 1e-8:
            return space.unit(x)
