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
certifies its own answer; `max_iter` caps all of its steps together.  An
H-polytope runs projected Newton on its separable dual (`_project_hrep`),
a V-polytope SLSQP on its hull weights (C¹ for p > 1, no second
derivatives needed); while uncertified, either finishes with Frank–Wolfe
steps toward the support point until the gap clears the tolerance.  Each
step's exact line search is the segment projector's parameter search,
`sets._project_line_param`, at a looser absolute Brent tolerance:
Brent's method on the bracket of the breakpoints where coordinates of
x - u - t(z - u) change sign, clamped to [0, 1], so a step whose bracket
lies outside [0, 1] costs no slope evaluation.  The Brent is
`sets._brent_root`, which starts from the slopes at both ends of the
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
    """Projected Newton (Bertsekas 1982) on the dual of min (1/p)Σ|x_i - z_i|^p
    over Az <= b (Rockafellar, Convex Analysis §31): z(λ) = x - spow(Aᵀλ,
    q - 1), spow(a, e) = |a|^e sign a, minimises the Lagrangian at λ >= 0,
    so the dual -(1/q)Σ|Aᵀλ|^q + λᵀ(Ax - b) is smooth and concave, with
    gradient g = Az(λ) - b and Hessian -A diag((q - 1)|Aᵀλ|^(q-2)) Aᵀ.  Each
    step is an exact line search on g(λ + t d)·d up to the first λ_i = 0:
    Armijo on dual values stalls below the dual's rounding, and unit Newton
    steps cycle where z_i = x_i (a cube-root map at p = 4).  Newton ends when
    the natural residual |λ - max(λ + g, 0)| is at the rounding of Az - b,
    has not halved in 30 steps (it plateaus while rows enter and leave; 5
    gives up on points that 30 certify), or a step fails (an overflow at
    large p or q, a NaN slope, a singular system).  Its least-residual point
    is pulled onto the rows, certified and, while uncertified, finished by
    Frank–Wolfe.
    """
    A, b, q = C.normals, C.offsets, space.q
    c = A @ x - b
    lam, u, iterations, best, since, least = np.zeros_like(b), x, 0, math.inf, 0, math.inf
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            while True:
                s = A.T @ lam
                y = LpSpace._signed_power(s, q - 1.0)
                g = c - A @ y
                gap = np.abs(np.minimum(lam, -g))   # |λ - max(λ + g, 0)|, without its rounding
                if gap.max() < least:   # near rounding level the residual cycles
                    least, u = gap.max(), x - y
                if gap.max() <= 0.5 * best:
                    best, since = gap.max(), iterations
                if (iterations >= max_iter or iterations - since >= 30
                        or np.all(gap <= 4.0 * _EPS * (np.abs(A) @ (np.abs(x) + np.abs(y)) + np.abs(b)))):
                    break
                if lam.any():
                    # Newton on the rows that can move; floors and ridge keep it regular
                    # where Aᵀλ has zeros or opposite rows ±a are both positive
                    free = (lam > 0.0) | (g > 0.0)
                    w = (q - 1.0) * np.maximum(np.abs(s), 1e-12 * np.abs(s).max()) ** (q - 2.0)
                    w = np.maximum(w, 1e-12 * w.max())
                    H = (A[free] * w) @ A[free].T
                    H[np.diag_indices_from(H)] += 1e-13 * np.trace(H)
                    d = np.zeros_like(lam)
                    d[free] = np.linalg.solve(H, g[free])
                    d[(lam == 0.0) & (d < 0.0)] = 0.0
                else:   # every weight is 0 or inf: ascend along the violated rows
                    d = np.maximum(g, 0.0)
                e = A.T @ d
                slope = lambda t: float(c @ d - LpSpace._signed_power(s + t * e, q - 1.0) @ e)
                if (f_lo := slope(0.0)) <= 0.0:
                    break
                ratio = np.where(d < 0.0, lam / np.where(d < 0.0, -d, 1.0), math.inf)
                top = float(ratio.min())
                lo, t = 0.0, min(1.0, top)
                while (f_t := slope(t)) > 0.0 and t < top:
                    lo, f_lo, t = t, f_t, min(2.0 * t, top)
                if f_t < 0.0:
                    t = sets._brent_root(slope, lo, f_lo, t, f_t, sets._TINY)
                lam = np.maximum(lam + t * d, 0.0)
                if t == top:
                    lam[ratio.argmin()] = 0.0
                iterations += 1
    except (ArithmeticError, np.linalg.LinAlgError):
        pass   # the pull and Frank–Wolfe finish from the least-residual point
    u = _pull_feasible(C, u, C.feasible_point())
    box = 2.0 * space.norm(x - u) + 1.0
    cert = _support_gap(space, C, x, u, iterations, cert_tol, box)
    if not cert.converged and iterations < max_iter:
        u, iterations = _conditional_gradient(space, C, x, u, box, iterations, max_iter, cert_tol)
        cert = _support_gap(space, C, x, u, iterations, cert_tol, box)
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
