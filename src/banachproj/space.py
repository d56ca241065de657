"""Finite-dimensional ℓ_p spaces: norms, duality mappings, smoothness data.

For 1 < p < ∞ the space ℓ_p^n is uniformly convex and uniformly smooth,
its norm is Gâteaux (indeed Fréchet) differentiable away from the origin,
and the normalized duality mapping

    (Jx)_i = |x_i|^(p-1) sign(x_i) / ‖x‖^(p-2)

is single valued with ⟨Jx, x⟩ = ‖x‖² and ‖Jx‖_* = ‖x‖.  The conjugate
exponent q = p/(p-1) gives the dual norm and the inverse mapping of the
same shape.  Everything else in the package is built on these facts, so
this module also exposes the directional smoothness functional used by
the projection derivatives, ``norm_smoothness``: the one-sided derivative
of t ↦ ‖x + t v‖ at 0, evaluated in closed form as ⟨Jx, v⟩ on the unit
sphere.

The closed form used by ``norm_smoothness`` is not taken on faith: the
test suite validates it against the raw difference quotient of the norm
before anything downstream relies on it.

One kernel serves every single point: ``_power_norm`` (the max-scaled
power sum) and ``_norm_and_power``, which gives a norm and the power map
|x/n|^(e-1) sign(x) from one |x|, so a certificate takes ‖x - u‖ and
J(x - u) from one power sum.  On 3- to 8-vectors NumPy's function
wrappers (``np.max``, ``np.sum``) cost more than the arithmetic, so the
kernel calls the array methods and works in place; the results are the
bits the function form gave.  The powers and the sum stay NumPy ufuncs:
a scalar ``math.pow`` is 1 ulp off the array power on a few percent of
inputs, and ``math.fsum`` (from n = 3) and Python's ``sum`` (from n = 8,
NumPy's pairwise block) round differently from NumPy's sum.  The sign
stays ``np.sign``, which maps -0.0 to +0.0, where ``np.copysign`` would
keep -0.0 and move report bytes.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["LpSpace", "SPHERE_TOL"]

# unit-sphere membership tolerance for the smoothness functional
SPHERE_TOL = 1e-9


class LpSpace:
    """Real n-vectors under the ℓ_p norm, 1 < p < ∞.

    The exponent is a property of the space, not of individual vectors;
    every operation interprets its array arguments in this one space, so
    vectors with different underlying exponents can never be mixed by
    accident.  p = 1 and p = ∞ are rejected outright: the constructions
    here need the norm to be strictly convex and smooth away from 0.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: float):
        p = float(p)
        if math.isnan(p) or not (1.0 < p < math.inf):
            raise ValueError(f"exponent must satisfy 1 < p < inf, got {p!r}")
        self.p = p
        self.q = p / (p - 1.0)

    def __repr__(self):
        return f"LpSpace(p={self.p!r})"

    # -- norms -----------------------------------------------------------

    @staticmethod
    def _power_norm(a: np.ndarray, expo: float) -> float:
        # ‖x‖_expo from a = |x|, which is left as it is; scaled by the max
        # entry so a_i/m <= 1 before exponentiation
        m = float(a.max()) if a.size else 0.0
        if m == 0.0 or not math.isfinite(m):
            return m
        s = a / m
        s **= expo
        return m * float(s.sum()) ** (1.0 / expo)

    def norm(self, x) -> float:
        """ℓ_p norm of a primal vector."""
        return self._power_norm(np.abs(np.asarray(x, dtype=float)), self.p)

    def dual_norm(self, phi) -> float:
        """ℓ_q norm of a dual vector (q conjugate to p)."""
        return self._power_norm(np.abs(np.asarray(phi, dtype=float)), self.q)

    def unit(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        nx = self.norm(x)
        if nx == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return x / nx

    # -- pairing and duality mappings ------------------------------------

    def pairing(self, phi, x) -> float:
        """Duality pairing ⟨φ, x⟩ between a dual and a primal vector."""
        phi = np.asarray(phi, dtype=float)
        x = np.asarray(x, dtype=float)
        if phi.shape != x.shape:
            raise ValueError(
                f"dimension mismatch in pairing: {phi.shape} vs {x.shape}"
            )
        return float(np.dot(phi, x))

    @staticmethod
    def _signed_power(x: np.ndarray, e: float) -> np.ndarray:
        # the ℓ_p power map |x|^e sign(x), in place on a fresh |x|
        a = np.abs(x)
        a **= e
        a *= np.sign(x)
        return a

    @staticmethod
    def _norm_and_power(x: np.ndarray, expo: float) -> tuple[float, np.ndarray]:
        # n = ‖x‖_expo and |x/n|^(expo-1) sign(x), from one |x| and one power
        # sum; n times the second is J(x) for expo = p and J⁻¹(x) for q
        a = np.abs(x)
        nx = LpSpace._power_norm(a, expo)
        if nx == 0.0:
            return nx, np.zeros_like(x)
        a /= nx
        a **= expo - 1.0
        a *= np.sign(x)
        return nx, a

    @staticmethod
    def _norm_and_map(x: np.ndarray, expo: float) -> tuple[float, np.ndarray]:
        # n = ‖x‖_expo and n * |x/n|^(expo-1) sign(x): (‖x‖, Jx) for expo = p,
        # (‖x‖_*, J⁻¹x) for q
        nx, t = LpSpace._norm_and_power(x, expo)
        t *= nx
        return nx, t

    def duality_map(self, x) -> np.ndarray:
        """Normalized duality mapping J: ⟨Jx, x⟩ = ‖x‖², ‖Jx‖_* = ‖x‖.

        J(θ) is the zero functional, the only choice consistent with the
        two identities above.
        """
        return self._norm_and_map(np.asarray(x, dtype=float), self.p)[1]

    def inverse_duality_map(self, phi) -> np.ndarray:
        """Inverse mapping J* from the dual space back to the primal one.

        Same formula with q in place of p; J*(Jx) = x for every x.
        """
        return self._norm_and_map(np.asarray(phi, dtype=float), self.q)[1]

    # -- smoothness functional ---------------------------------------------

    def _unit_pair(self, x, v) -> tuple[np.ndarray, np.ndarray]:
        # the argument check of the smoothness functional
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape != v.shape:
            raise ValueError("point and direction must have matching shapes")
        for z, name in ((x, "base point"), (v, "direction")):
            nz = self.norm(z)
            if abs(nz - 1.0) > SPHERE_TOL:
                raise ValueError(f"{name} must lie on the unit sphere "
                                 f"(|norm - 1| <= {SPHERE_TOL:g}); got norm {nz!r}")
        return x, v

    def norm_smoothness(self, x, v) -> float:
        """One-sided derivative of t ↦ ‖x + t v‖ at t = 0, for unit x, v.

        Equals ⟨Jx, v⟩ because the norm is differentiable on the sphere;
        the closed form is validated against the raw quotient in the test
        suite.  Inputs are required on the sphere and are not silently
        renormalized.
        """
        x, v = self._unit_pair(x, v)
        return self.pairing(self.duality_map(x), v)
