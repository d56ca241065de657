"""Closed-form one-sided directional derivatives of metric projections.

For a convex set C and the projection P onto it, the object computed here
is the right-hand limit

    P'(x; v) = lim_{t -> 0+} (P(x + t v) - P(x)) / t .

`directional_derivative` computes it for every descriptor, and it is the
only way in to the ball, cone and subspace clauses below.  Every analytic
clause is labeled, and the labels form a small documented vocabulary so
reports can say which branch fired:

ball clauses
    "ball:interior"     x strictly inside: the derivative is v.
    "ball:exterior"     x strictly outside: radial-pullback derivative
                        (r/d²)(d·v - g·‖v‖·(x - c)) with d = ‖x - c‖ and
                        g the norm-smoothness of t ↦ ‖x - c + t v‖.
    "ball:sphere-up"    x on the sphere, v pointing outward or tangent:
                        v - (‖v‖/r)·g·(x - c).
    "ball:sphere-down"  x on the sphere, v pointing inward: v.

positive-cone clauses
    "cone:p{a}z{b}n{c}/clamp{k}"  a, b, c count the positive, zero, and
    negative coordinates of x; k counts zero coordinates whose direction
    component was clamped.  Coordinate i of the value is v_i when x_i > 0,
    or when x_i = 0 with v_i >= 0; it is 0 when x_i < 0, or when x_i = 0
    with v_i < 0.  The test suite checks this rule against an explicit
    table of the ten sign regions of dimension 3.

coordinate-subspace clauses
    "subspace:orthogonal"       v in the annihilator: the derivative is 0.
    "subspace:tangent"          v in the subspace: the derivative is v.
    "subspace:coordinatewise"   mixed v: the free coordinates of v are
                                kept and the masked ones zeroed.  The
                                projection is linear, so these three
                                clauses are exact at every base point.

region clauses
    "singleton"   constant projections have derivative 0.
    "numeric"     no closed form: certified quotient estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sets, solver
from .numdiff import ConvergenceError, NumericDerivative, StepSchedule, numdiff_derivative
from .space import LpSpace

__all__ = ["DerivativeResult", "TIE_TOL", "directional_derivative"]

#: |norm-smoothness| below this goes to the sampling fallback
TIE_TOL = 1e-9

#: relative half-width of the sphere band in ball case dispatch
SPHERE_BAND = 1e-9

_TINY = float(np.finfo(float).tiny)   # the smallest normal double


@dataclass
class DerivativeResult:
    value: np.ndarray
    case_label: str
    numeric: NumericDerivative | None = None   # the estimate behind a "numeric" label

    def to_json(self) -> dict:
        return {"value": [float(c) for c in self.value], "case_label": self.case_label}


def _direction(x: np.ndarray, v) -> np.ndarray:
    """v checked as a direction at the checked point x: finite, x's shape, nonzero."""
    v = sets._vec(v)
    if x.shape != v.shape:
        raise ValueError("point and direction must have matching shapes")
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    return v


def _slope(space: LpSpace, xc: np.ndarray, d: float, v: np.ndarray, nv: float) -> float:
    # g = ⟨J(xc/d), v/nv⟩, the norm's one-sided slope on the unit sphere.  The
    # two quotients can leave the sphere only if d or nv is 0, subnormal or
    # infinite, so only then does the space's unit-sphere check run
    if not (_TINY <= d < math.inf and _TINY <= nv < math.inf):
        space._unit_pair(space.unit(xc), v / nv)
    return space.pairing(space.duality_map(xc / d), v / nv)


def _enters(space: LpSpace, c: np.ndarray, radius: float, x: np.ndarray, v: np.ndarray,
            d: float, g: float) -> bool:
    """Does v point into the open ball from x, within the sphere band at d = ‖x - c‖?

    The slope g of t ↦ ‖x - c + t v‖ at 0 (up to the positive factor ‖v‖)
    decides all but ties, |g| <= TIE_TOL.  Ties sample the sign of
    ‖x + t_k v - c‖ - r at t_k = 2^-k, k = 10..24: by convexity that sign is
    eventually constant, and an exactly tangent direction stays outside.
    """
    if abs(g) > TIE_TOL:
        return g < 0.0
    scale = max(radius, d)
    for k in range(10, 25):
        t = 2.0 ** -k
        val = space.norm(x + t * v - c) - radius
        if abs(val) > 64.0 * np.finfo(float).eps * scale:
            return val < 0.0
    return False


def _ball_clause(space: LpSpace, c: np.ndarray, radius: float, x: np.ndarray,
                 v: np.ndarray) -> DerivativeResult:
    xc = x - c
    d = space.norm(xc)
    band = SPHERE_BAND * radius
    if d < radius - band:
        return DerivativeResult(v.copy(), "ball:interior")
    nv = space.norm(v)
    g = _slope(space, xc, d, v, nv)
    if d > radius + band:
        return DerivativeResult((radius / d ** 2) * (d * v - g * nv * xc), "ball:exterior")
    if _enters(space, c, radius, x, v, d, g):
        return DerivativeResult(v.copy(), "ball:sphere-down")
    return DerivativeResult(v - (nv / radius) * g * xc, "ball:sphere-up")


def _cone_label(x: np.ndarray, clamped: int) -> str:
    pos = int(np.sum(x > 0.0))
    zer = int(np.sum(x == 0.0))
    neg = int(np.sum(x < 0.0))
    return f"cone:p{pos}z{zer}n{neg}/clamp{clamped}"


def _cone_coordinatewise(x: np.ndarray, v: np.ndarray) -> DerivativeResult:
    keep = (x > 0.0) | ((x == 0.0) & (v >= 0.0))
    value = np.where(keep, v, 0.0)
    clamped = int(np.sum((x == 0.0) & (v < 0.0)))
    return DerivativeResult(value, _cone_label(x, clamped))


def _subspace_clause(space: LpSpace, mask: np.ndarray, v: np.ndarray) -> DerivativeResult:
    # the projection zeroes the masked coordinates: it is linear, so its
    # derivative at every point is the same masking of v
    vscale = space.norm(v)
    if np.all(np.abs(v[mask]) <= 1e-15 * vscale):
        return DerivativeResult(np.zeros_like(v), "subspace:orthogonal")
    if np.all(np.abs(v[~mask]) <= 1e-15 * vscale):
        return DerivativeResult(v.copy(), "subspace:tangent")
    return DerivativeResult(np.where(mask, v, 0.0), "subspace:coordinatewise")


#: exact clauses by descriptor class; any other class is differenced numerically
_CLOSED_FORMS = {
    sets.Ball: lambda space, C, x, v: _ball_clause(space, C.center, C.radius, x, v),
    sets.PositiveCone: lambda space, C, x, v: _cone_coordinatewise(x, v),
    sets.CoordinateSubspace: lambda space, C, x, v: _subspace_clause(space, C.free, v),
    sets.Singleton: lambda space, C, x, v: DerivativeResult(np.zeros_like(v), "singleton"),
}


def directional_derivative(space: LpSpace, C, x, v) -> DerivativeResult:
    """One-sided derivative of the projection onto C, any descriptor.

    x and v must be finite and v nonzero, for every set type.  A descriptor
    whose class has an entry in `_CLOSED_FORMS` (balls, the positive cone,
    coordinate subspaces, singletons) gets its exact clause at every base
    point.  The others (segments, rays, polytopes) are differenced
    numerically on the default `StepSchedule` and labeled "numeric" (for an
    iterative C.solver_tol > 0, at a 1e-4 window and without steps below the
    solver's noise).  Non-convergence raises ConvergenceError.
    """
    x = sets._point(C, x)
    v = _direction(x, v)
    closed_form = _CLOSED_FORMS.get(type(C))
    if closed_form is not None:
        return closed_form(space, C, x, v)
    schedule = (StepSchedule(quotient_tol=1e-4).truncated(C.solver_tol)
                if C.solver_tol > 0.0 else None)
    est = numdiff_derivative(space, lambda z: solver.project(space, C, z), x, v, schedule)
    if not est.converged:
        raise ConvergenceError(
            "projection quotients did not settle within the schedule",
            trace=list(zip(est.ts, est.quotients)),
        )
    return DerivativeResult(est.estimate, "numeric", est)
