"""Certified ℓ_p projection: the support gap, and a polytope solver.

`project` and `project_with_certificate` check the point once
(`sets._point`) and ask the descriptor C for its projection.
u is the projection of x onto C exactly when ⟨J(x - u), u - z⟩ >= 0 for
every z in C.  The left side is affine in z, so its minimum over C sits
at the support point z = sets.support(C, j) of j = J(x - u): the
residual ⟨j, u - z⟩ is the Frank–Wolfe duality gap of u and certifies it
against the whole set, not a sample of it.  Every certificate here,
closed form or iterative, is this one formula; the box 2‖x - u‖ + 1 that
keeps it finite on unbounded sets holds every point of C closer to x
than u, so it stays sound.

Polytopes (C.solver_tol > 0) project through `_project_polytope`, which
certifies its own answer: SLSQP on Σ|x_i - z_i|^p (C¹ for p > 1, no second
derivatives needed) first, then conditional-gradient steps toward the
support point until the gap clears the tolerance; `max_iter` caps both
together.  Each step's exact line search is the segment projector's
parameter search, `sets._project_line_param`, at a looser absolute
Brent tolerance: Brent's method on the bracket of the breakpoints where
coordinates of x - u - t(z - u) change sign, clamped to [0, 1], so a step
whose bracket lies outside [0, 1] costs no slope evaluation.  The Brent
is `sets._brent_root`, which starts from the slopes at both ends of the
bracket and takes SciPy brentq's iterates bit for bit.  A failed
certificate or support LP is reported as converged=False with the best
iterate retained — never silently accepted.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import sets
from ._scipy import optimize
from .space import LpSpace

__all__ = [
    "ProjectionCertificate",
    "CERT_TOL",
    "MAX_ITER",
    "project",
    "project_with_certificate",
]

CERT_TOL = 1e-8
MAX_ITER = 100_000
_EPS = float(np.finfo(float).eps)
_MAX = float(np.finfo(float).max)


@dataclass
class ProjectionCertificate:
    """A candidate projection with its support-gap residual.

    `residual` is ⟨j, u - z⟩ for j = J(x - u) and z the support point
    (-inf when the support LP fails).  converged implies membership of
    `point` in the set and residual >= -(cert_tol + 4·n·ε·Σ|j_i| w_i), with
    w = |u| + |z| for most sets (a forward rounding bound of the pairing).
    A ball adds |c| + (q - 1)|z - c| to w: its u = c + s(x - c) and its
    support point z = c + r|j/‖j‖_q|^(q-1) sign j both round at the scale
    of the center c, which cancels to |u_i| << |c_i| for far points, and
    the power q - 1 multiplies the rounding of z - c (by 20 at p = 1.05).
    The allowance keeps exact projections of far points certified, is
    below 1e-13 at unit scale, and is capped at the largest double, so a
    residual that overflows to -inf is never certified.  `distance` is
    the ℓ_p distance from x to `point`.
    """

    point: np.ndarray
    residual: float
    iterations: int
    distance: float
    converged: bool

    def to_json(self) -> dict:
        return {
            "point": [float(c) for c in self.point],
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "distance": float(self.distance),
            "converged": bool(self.converged),
        }


def _objective(space: LpSpace, x: np.ndarray):
    p = space.p

    def f(z):
        return float(np.sum(np.abs(x - z) ** p))

    def grad(z):
        r = x - z
        return -p * space._signed_power(r, p - 1.0)

    return f, grad


def _support_gap(space: LpSpace, C, x: np.ndarray, u: np.ndarray, iterations: int,
                 cert_tol: float, box: float | None = None) -> ProjectionCertificate:
    """Certify u by the support gap at j = J(x - u); box defaults to 2‖x - u‖ + 1."""
    r = x - u
    distance, j = space._norm_and_map(r, space.p)
    if box is None:
        box = 2.0 * distance + 1.0
    z = sets.support(space, C, j, x, box)
    if z is None:
        return ProjectionCertificate(u, -math.inf, iterations, distance, False)
    residual = float(np.dot(j, u - z))
    if residual < -cert_tol:   # allow the rounding of the pairing, and of u and z themselves
        # scaled before the sum: |j|·scale alone overflows for far points;
        # capped at the largest double, so an overflowed -inf never passes
        allowance = float(np.dot(4.0 * u.size * _EPS * np.abs(j), C._gap_scale(space, u, z)))
        cert_tol += min(allowance, _MAX)
    return ProjectionCertificate(u, residual, iterations, distance, residual >= -cert_tol)


def _conditional_gradient(space: LpSpace, C, x: np.ndarray, u: np.ndarray, box: float,
                          iterations: int, max_iter: int, cert_tol: float):
    """Frank–Wolfe steps toward the support point, with exact line search.

    The internal target is tighter than cert_tol because for p > 2 the
    gap is only order p-1 in the point error: clearing 1e-8 can leave
    coordinates 1e-5 off, while a couple more exact line minimizations
    reach the flat optimum nearly exactly.  Returns (u, iterations).
    """
    f, _ = _objective(space, x)
    polish_tol = min(cert_tol, 1e-12)
    f_prev = f(u)
    while iterations < max_iter:
        j = space.duality_map(x - u)
        z = sets.support(space, C, j, x, box)
        if z is None or space.pairing(j, u - z) >= -polish_tol:
            break
        t = sets._project_line_param(space, u, z - u, x, 0.0, 1.0, xtol=1e-15)
        if t <= 0.0:
            break
        u = u + t * (z - u)
        iterations += 1
        # monotone objective decrease is the honest progress measure; the
        # gap alone can chatter at Hölder scale for p < 2, so stop once the
        # decrease is below double precision
        f_cur = f(u)
        if f_prev - f_cur <= 1e-15 * max(1.0, f_cur):
            break
        f_prev = f_cur
    return u, iterations


def _project_vrep(space: LpSpace, C: sets.PolytopeV, x: np.ndarray,
                  max_iter: int, cert_tol: float) -> ProjectionCertificate:
    V = C.vertices
    m = V.shape[0]
    if m == 1:
        u = V[0].copy()
        return ProjectionCertificate(u, 0.0, 0, space.norm(x - u), True)

    f, grad = _objective(space, x)

    def f_lam(lam):
        return f(lam @ V)

    def grad_lam(lam):
        return V @ grad(lam @ V)

    lam0 = np.full(m, 1.0 / m)
    res = optimize.minimize(
        f_lam,
        lam0,
        jac=grad_lam,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=[{"type": "eq", "fun": lambda lam: np.sum(lam) - 1.0,
                      "jac": lambda lam: np.ones_like(lam)}],
        options={"maxiter": max(1, min(400, max_iter)), "ftol": 1e-16},
    )
    lam = np.clip(res.x, 0.0, None)
    lam = lam / lam.sum()
    u = lam @ V
    box = 2.0 * space.norm(x - u) + 1.0
    u, iterations = _conditional_gradient(space, C, x, u, box, int(res.nit), max_iter, cert_tol)
    return _support_gap(space, C, x, u, iterations, cert_tol, box)


def _coordinate_polish(C: sets.PolytopeH, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel sweep of exact coordinatewise minimization.

    Given the other coordinates, coordinate i is feasible on an interval
    [lb, ub] and |x_i - z_i|^p is monotone away from x_i, so its exact
    optimum is clip(x_i, lb, ub).  Each move improves the objective (or
    repairs an epsilon infeasibility), and for separable row structures
    one sweep lands the true optimum exactly.  Gradient-driven steps
    cannot do this when the optimum matches x_i or sits on a bound near
    zero: for p != 2 those coordinates are flat to order p in the
    objective and order p-1 in the certificate residual.
    """
    A, b = C.normals, C.offsets
    z = u.copy()
    for i in range(z.size):
        col = A[:, i]
        rest = A @ z - col * z[i]
        lb, ub = -np.inf, np.inf
        pos = col > 0.0
        neg = col < 0.0
        if pos.any():
            ub = float(np.min((b[pos] - rest[pos]) / col[pos]))
        if neg.any():
            lb = float(np.max((b[neg] - rest[neg]) / col[neg]))
        if lb > ub:
            continue
        z[i] = min(max(float(x[i]), lb), ub)
    return z


def _feasible(C: sets.PolytopeH, z: np.ndarray) -> bool:
    """Do all rows hold at membership scale?"""
    slack = 1e-9 * max(1.0, float(np.abs(C.offsets).max()))
    return bool(np.all(C.normals @ z <= C.offsets + slack))


def _pull_feasible(C: sets.PolytopeH, z: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Shift z toward a feasible anchor until rows hold at membership scale.

    The acceptance slack matters: demanding exact row feasibility here once
    threw away a solver answer sitting 1e-12 outside one row, because the
    anchor itself lay on that row and no strict convex combination could
    clear it.  Membership tolerance is the contract, not exactness.
    """
    if _feasible(C, z):
        return z
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _feasible(C, z + mid * (anchor - z)):
            hi = mid
        else:
            lo = mid
    return z + hi * (anchor - z)


def _project_hrep(space: LpSpace, C: sets.PolytopeH, x: np.ndarray,
                  max_iter: int, cert_tol: float) -> ProjectionCertificate:
    f, grad = _objective(space, x)
    z0 = C.feasible_point()
    constraints = [{"type": "ineq",
                    "fun": lambda z: C.offsets - C.normals @ z,
                    "jac": lambda z: -C.normals}]
    iterations = 0
    u = None
    start = z0
    for attempt in range(2):
        res = optimize.minimize(
            f, start, jac=grad, method="SLSQP", constraints=constraints,
            options={"maxiter": max(1, min(400, max_iter - iterations)), "ftol": 1e-16},
        )
        cand = _coordinate_polish(C, x, _pull_feasible(C, np.asarray(res.x, dtype=float), z0))
        if u is None or f(cand) <= f(u):
            u = cand
        iterations += int(res.nit)
        box = 2.0 * space.norm(x - u) + 1.0
        while iterations < max_iter:
            u, iterations = _conditional_gradient(space, C, x, u, box, iterations, max_iter, cert_tol)
            # coordinatewise finisher between gradient phases, never inside
            # one: interleaving it with the steps stalls the iteration on
            # coupled rows, where clipping and the gradient direction fight.
            # At an exact optimum it is a no-op, so accepting it is always
            # safe; re-enter the gradient phase only on a material decrease,
            # and only while the budget has a step left to count it.
            polished = _coordinate_polish(C, x, u)
            f_cur = f(u)
            f_pol = f(polished)
            if f_pol <= f_cur:
                u = polished
                if f_cur - f_pol > 1e-15 * max(1.0, f_cur) and iterations < max_iter:
                    iterations += 1
                    continue
            break
        cert = _support_gap(space, C, x, u, iterations, cert_tol, box)
        if cert.converged or iterations >= max_iter:
            break
        # failed certificate with budget left: restart the smooth solver
        # from the current iterate, a start the first run never saw
        start = u
    cert.converged = cert.converged and _feasible(C, u)
    return cert


def _project_polytope(space: LpSpace, C, x: np.ndarray, max_iter: int = MAX_ITER,
                      cert_tol: float = CERT_TOL) -> ProjectionCertificate:
    """Certified ℓ_p projection of a checked x onto a polytope (either representation)."""
    if C.contains(space, x, 0.0):
        return ProjectionCertificate(x.copy(), 0.0, 0, 0.0, True)
    solve = _project_vrep if isinstance(C, sets.PolytopeV) else _project_hrep
    return solve(space, C, x, max_iter, cert_tol)


def project(space: LpSpace, C, x) -> np.ndarray:
    """Metric projection point for any descriptor (closed form where known)."""
    x = sets._point(C, x)
    return C.project(space, x)


def project_with_certificate(space: LpSpace, C, x, max_iter: int = MAX_ITER,
                             cert_tol: float = CERT_TOL) -> ProjectionCertificate:
    """Projection plus support-gap residual for any descriptor.

    Closed-form projections report zero iterations; their residuals are
    still evaluated against the set's support point rather than assumed.
    `max_iter` must be an integer >= 1 and `cert_tol` finite and >= 0.
    """
    x = sets._point(C, x)
    try:
        budget = operator.index(max_iter)
    except TypeError:
        budget = 0
    if budget < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not 0.0 <= cert_tol < math.inf:
        raise ValueError(f"cert_tol must be finite and >= 0, got {cert_tol!r}")
    if C.solver_tol > 0.0:
        return _project_polytope(space, C, x, max_iter, cert_tol)
    return _support_gap(space, C, x, C.project(space, x), 0, cert_tol)
