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

Polytopes (`sets._Polytope`) project through `_project_polytope`: active-set
Newton (`_newton`) on an H-polytope's separable dual or on a V-polytope's
hull weights.  A V point is certified by the support gap as Newton leaves
it.  Only an H-polytope tests x for membership first (by its rows).  An H
point is certified first from its dual weights λ (`_dual_gap`): weak
duality gives a lower bound on the support gap over the same box with no
LP, so only a point that this bound leaves uncertified asks for support
LPs, by simplicial decomposition (`_decompose`) on the V solver;
`max_iter` caps all Newton steps and decomposition rounds together.  V
steps search their line exactly with the segment projector's
`sets._project_line_param`.  A failed certificate or support LP is
reported as converged=False with the best iterate retained — never
silently accepted.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import sets
from ._scipy import optimize  # noqa: F401  (perfbench/spans.py traces SciPy through this name)
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
    (-inf when the support LP fails).  An H-polytope point certified from
    its dual weights reports instead a weak-duality lower bound on that
    gap over the box (see `_dual_gap`), with its own rounding allowance;
    either way converged keeps its meaning.  converged implies membership of
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


def _newton_direction(M: np.ndarray, s: np.ndarray, e: float, g: np.ndarray) -> np.ndarray:
    """Solve (M diag(w) Mᵀ + ridge) d = g, w = (e - 1)|s|^(e-2) floored where s
    or w is tiny; the 1e-13·trace ridge keeps it regular where rows of M are
    dependent (opposite box rows ±a, more vertices on a face than dimensions)."""
    a = np.abs(s)
    w = (e - 1.0) * np.maximum(a, 1e-12 * a.max()) ** (e - 2.0)
    w = np.maximum(w, 1e-12 * w.max())
    H = (M * w) @ M.T
    H[np.diag_indices_from(H)] += 1e-13 * np.trace(H)
    return np.linalg.solve(H, g)


def _newton(evaluate, lam: np.ndarray, u: np.ndarray, max_iter: int):
    """The active-set loop of both polytope solvers; returns (point, weights,
    iterations), the weights being those of the point kept.

    evaluate(lam) gives the residual of the weights lam >= 0, their point,
    whether the residual is at rounding level, and a function giving the
    step d with its line search t = search(top) in [0, top], lam + top·d
    being where a weight first reaches 0 (or None when no step descends).
    The loop keeps the least-residual point (residuals cycle near rounding
    level) and stops at rounding level, at `max_iter`, after 30 steps that
    do not halve the residual (5 gave up on points that 30 certify), or
    when a step fails (an overflow at large p or q, a NaN slope, a
    singular system).
    """
    iterations, best, since, least, kept = 0, math.inf, 0, math.inf, lam
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            while True:
                residual, point, done, step = evaluate(lam)
                if residual < least:
                    least, u, kept = residual, point, lam
                if residual <= 0.5 * best:
                    best, since = residual, iterations
                if done or iterations >= max_iter or iterations - since >= 30 or not (move := step()):
                    break
                d, search = move
                ratio = np.where(d < 0.0, lam / np.where(d < 0.0, -d, 1.0), math.inf)
                if (t := search(float(ratio.min()))) <= 0.0:
                    break
                lam = np.maximum(lam + t * d, 0.0)
                if t == ratio.min():   # exactly 0, not a rounding residue
                    lam[ratio.argmin()] = 0.0
                iterations += 1
    except (ArithmeticError, np.linalg.LinAlgError):
        pass
    return u, kept, iterations


def _project_vrep(space: LpSpace, C: sets.PolytopeV, x: np.ndarray, max_iter: int):
    """Newton on the hull weights λ of min (1/p)Σ|x_i - u_i|^p, u = Vᵀλ, over
    the simplex, from the nearest vertex.  g = V spow(x - u, p - 1), with
    spow(a, e) = |a|^e sign a, is -∇, and the gap max g - λ·g is ‖x - u‖^(p-2)
    times the support gap.  Newton works on the face S = {λ > 0}, in the
    weights relative to its last vertex (so Σd = 0 by construction, and the
    level of g drops out); once g is level on S, its spread there below the
    lead of the best vertex, a Frank–Wolfe step brings that vertex in
    (Lacoste-Julien & Jaggi 2015).  Each step searches u + t Vᵀd by
    `sets._project_line_param`.  ℓ_2 Newton runs first: an x that it reaches
    within 32·m·ε·max_k |V_k| (m vertices; 11·m·ε measured) is in the hull and
    is returned as itself.  Rounding keeps any other p from settling there: at
    p near 1, g and the support gap stay near ‖x - u‖^(p-1), far above 0.
    """
    V = C.vertices

    def solve(space, max_iter):
        p = space.p

        def evaluate(lam):
            u = lam @ V
            r = x - u
            y = LpSpace._signed_power(r, p - 1.0)
            g = V @ y
            gap = float(g.max() - lam @ g)
            # the rounding of g: of its sums, and of y through that of r
            dy = (np.abs(r) + 4.0 * _EPS * (np.abs(x) + np.abs(u))) ** (p - 1.0) - np.abs(y)
            done = gap <= float((np.abs(V) @ (4.0 * _EPS * np.abs(y) + dy)).max())
            return gap, u, done, lambda: step(lam, u, r, g)

        def step(lam, u, r, g):
            S, k = np.flatnonzero(lam), int(g.argmax())
            if g[k] - g[S].max() > np.ptp(g[S]):   # level on S: toward vertex k
                d = -lam
                d[k] += 1.0
            else:   # Newton on S
                c = _newton_direction(V[S[:-1]] - V[S[-1]], r, p, g[S[:-1]] - g[S[-1]])
                d = np.zeros_like(lam)
                d[S[:-1]], d[S[-1]] = c, -c.sum()
            return d, lambda top: sets._project_line_param(space, u, d @ V, x, 0.0, top)

        return _newton(evaluate, np.eye(1, len(V), start)[0], V[start], max_iter)

    start = min(range(len(V)), key=lambda k: space.norm(x - V[k]))
    u, _, iterations = solve(LpSpace(2.0), max_iter)
    if np.all(np.abs(x - u) <= 32.0 * len(V) * _EPS * np.abs(V).max(axis=0)):
        return x.copy(), iterations
    if space.p == 2.0:
        return u, iterations
    u, _, more = solve(space, max_iter - iterations)
    return u, iterations + more


def _project_hrep(space: LpSpace, C: sets.PolytopeH, x: np.ndarray, max_iter: int):
    """Projected Newton (Bertsekas 1982) on the dual of min (1/p)Σ|x_i - z_i|^p
    over Az <= b (Rockafellar, Convex Analysis §31): z(λ) = x - spow(Aᵀλ,
    q - 1) minimises the Lagrangian at λ >= 0, so the dual -(1/q)Σ|Aᵀλ|^q +
    λᵀ(Ax - b) is smooth and concave, with gradient g = Az(λ) - b and Hessian
    -A diag((q - 1)|Aᵀλ|^(q-2)) Aᵀ, here on the rows with λ_i > 0 or g_i > 0.
    The line search is the root of g(λ + t d)·d: Armijo on dual values stalls
    below the dual's rounding, and unit Newton steps cycle where z_i = x_i (a
    cube-root map at p = 4).  The residual is |λ - max(λ + g, 0)|.  Returns
    the point pulled onto the rows, the weights λ of Newton's point, and
    the step count.
    """
    A, b, q = C.normals, C.offsets, space.q
    c = A @ x - b

    def evaluate(lam):
        s = A.T @ lam
        y = LpSpace._signed_power(s, q - 1.0)
        g = c - A @ y
        gap = np.abs(np.minimum(lam, -g))   # |λ - max(λ + g, 0)|, without its rounding
        done = np.all(gap <= 4.0 * _EPS * (np.abs(A) @ (np.abs(x) + np.abs(y)) + np.abs(b)))
        return gap.max(), x - y, done, lambda: step(lam, s, g)

    def step(lam, s, g):
        if lam.any():   # Newton on the rows that can move
            free = (lam > 0.0) | (g > 0.0)
            d = np.zeros_like(lam)
            d[free] = _newton_direction(A[free], s, q, g[free])
            d[(lam == 0.0) & (d < 0.0)] = 0.0
        else:   # every weight is 0 or inf: ascend along the violated rows
            d = np.maximum(g, 0.0)
        e = A.T @ d
        slope = lambda t: float(c @ d - LpSpace._signed_power(s + t * e, q - 1.0) @ e)
        if (f_0 := slope(0.0)) <= 0.0:
            return None

        def search(top):   # doubling from t = 1 to a sign change, then Brent
            lo, f_lo, t = 0.0, f_0, min(1.0, top)
            while (f_t := slope(t)) > 0.0 and t < top:
                lo, f_lo, t = t, f_t, min(2.0 * t, top)
            return sets._brent_root(slope, lo, f_lo, t, f_t, sets._TINY) if f_t < 0.0 else t

        return d, search

    u, lam, iterations = _newton(evaluate, np.zeros_like(b), x, max_iter)
    return _pull_feasible(C, u, C.feasible_point()), lam, iterations   # the dual's point onto the rows


def _dual_gap(space: LpSpace, C: sets.PolytopeH, x: np.ndarray, u: np.ndarray, lam: np.ndarray,
              iterations: int, cert_tol: float, box: float) -> ProjectionCertificate:
    """Certify u by weak duality from the weights λ, with no LP.

    For μ >= 0 and z in C with |z_i - x_i| <= box, ⟨j, z⟩ = μᵀAz + ⟨j - Aᵀμ, z⟩
    <= μᵀb + ⟨j - Aᵀμ, x⟩ + box·‖j - Aᵀμ‖₁, so the residual
    ⟨j, u - x⟩ + μᵀ(Ax - b) - box·‖j - Aᵀμ‖₁ is a lower bound on the support
    gap ⟨j, u - z⟩ of `_support_gap`.  At the optimum j = J(x - u) is a
    positive multiple of Aᵀλ, and μ = cλ takes the least-squares one,
    c = max(⟨j, Aᵀλ⟩/‖Aᵀλ‖², 0), computed on Aᵀλ/max|Aᵀλ| (‖Aᵀλ‖² overflows
    at p = 20).  The allowance for rounding is 4·(n + m)·ε times the
    magnitudes of the three terms, capped at the largest double; a NaN
    or -inf residual never passes, nor a u off the rows at membership
    scale (the bound grows with their violation).
    """
    A, b = C.normals, C.offsets
    distance, j = space._norm_and_map(x - u, space.p)
    with np.errstate(over="ignore", invalid="ignore"):   # a NaN residual never passes
        s = A.T @ lam
        top = np.abs(s).max()
        mu = np.zeros_like(lam)
        if top > 0.0:   # scaled by max|Aᵀλ|: ‖Aᵀλ‖² overflows at p = 20
            k = s / top
            mu = max((j @ k) / (k @ k) / top, 0.0) * lam
        residual = float(j @ (u - x) + mu @ (A @ x - b) - box * np.abs(j - A.T @ mu).sum())
        if residual < -cert_tol:
            scale = (np.abs(j) @ (np.abs(u) + np.abs(x)) + mu @ (np.abs(A) @ np.abs(x) + np.abs(b))
                     + box * (np.abs(j).sum() + mu @ np.abs(A).sum(axis=1)))
            cert_tol += min(4.0 * (x.size + b.size) * _EPS * float(scale), _MAX)
    return ProjectionCertificate(u, residual, iterations, distance,
                                 residual >= -cert_tol and _feasible(C, u))


def _decompose(space: LpSpace, C: sets.PolytopeH, x: np.ndarray, u: np.ndarray, box: float,
               iterations: int, max_iter: int):
    """Simplicial decomposition (von Hohenbalken 1977): x projected by
    `_project_vrep` onto the hull of u and every support point of J(x - u)
    met so far, until the support LP fails, the budget is spent or the
    hull's projection is no closer to x.  A round counts its Newton steps
    against `max_iter`, and at least one, so the budget also bounds the
    LPs (about half of the rounds need no step).  Returns (u, iterations)."""
    points = [u]
    while iterations < max_iter:
        z = sets.support(space, C, space.duality_map(x - u), x, box)
        if z is None:
            break
        points.append(z)
        w, steps = _project_vrep(space, sets.PolytopeV(np.array(points)), x, max_iter - iterations)
        iterations += max(steps, 1)
        if not space.norm(x - w) < space.norm(x - u):
            break
        u = w
    return u, iterations


def _project_polytope(space: LpSpace, C, x: np.ndarray, max_iter: int = MAX_ITER,
                      cert_tol: float = CERT_TOL) -> ProjectionCertificate:
    """Certified ℓ_p projection of a checked x onto a polytope (either
    representation): Newton's point, an H one pulled onto the rows and
    certified from its weights, or finished while those leave it
    uncertified by `_decompose`; both share `max_iter`."""
    if isinstance(C, sets.PolytopeV):
        u, iterations = _project_vrep(space, C, x, max_iter)
        return _support_gap(space, C, x, u, iterations, cert_tol)
    if C.contains(space, x, 0.0):   # exact rows: an inside point is its own projection
        return ProjectionCertificate(x.copy(), 0.0, 0, 0.0, True)
    u, lam, iterations = _project_hrep(space, C, x, max_iter)
    box = 2.0 * space.norm(x - u) + 1.0
    cert = _dual_gap(space, C, x, u, lam, iterations, cert_tol, box)
    if not cert.converged:
        u, iterations = _decompose(space, C, x, u, box, iterations, max_iter)
        cert = _support_gap(space, C, x, u, iterations, cert_tol, box)   # the support LP
        cert.converged = cert.converged and _feasible(C, u)
    return cert


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
    if isinstance(C, sets._Polytope):
        return _project_polytope(space, C, x, max_iter, cert_tol)
    return _support_gap(space, C, x, C.project(space, x), 0, cert_tol)
