"""Independent reference answers the benchmark checks the program against.

Nothing here imports banachproj: every projection, derivative and modulus
is recomputed from its textbook definition (closed forms, a bisection on
the monotone slope of the 1-d distance, a linear program or non-negative
least squares for polytopes, and the classical exact moduli of ℓ_p).
"""
from __future__ import annotations

import numpy as np
from scipy import optimize


def lp_norm(x, p: float) -> float:
    x = np.asarray(x, dtype=float)
    m = float(np.max(np.abs(x))) if x.size else 0.0
    if m == 0.0:
        return 0.0
    return m * float(np.sum((np.abs(x) / m) ** p)) ** (1.0 / p)


def duality_map(x, p: float) -> np.ndarray:
    """Normalized duality map of ℓ_p: ⟨Jx, x⟩ = ‖x‖², ‖Jx‖_q = ‖x‖."""
    x = np.asarray(x, dtype=float)
    nx = lp_norm(x, p)
    if nx == 0.0:
        return np.zeros_like(x)
    return nx * (np.abs(x) / nx) ** (p - 1.0) * np.sign(x)


# -- projections -------------------------------------------------------------

def ball(x, c, r, p):
    d = lp_norm(x - c, p)
    return x.copy() if d <= r else c + (r / d) * (x - c)


def clip(x, lo=0.0, hi=np.inf):
    return np.minimum(np.maximum(x, lo), hi)


def mask(x, free):
    return np.where(free, x, 0.0)


def line_params(X, a, d, p, hi=1.0):
    """Nearest parameters t on {a + t d : 0 <= t <= hi} for the rows of X.

    The slope of t ↦ Σ|x - a - t d|^p is nondecreasing, so bisection on its
    sign converges for every row at once; hi=None means a ray.
    """
    R = np.atleast_2d(X) - a

    def slope(t):
        r = R - t[:, None] * d
        return -p * np.sum(np.abs(r) ** (p - 1.0) * np.sign(r) * d, axis=1)

    m = R.shape[0]
    lo_t = np.zeros(m)
    if hi is None:
        hi_t = np.ones(m)
        while np.any(grow := slope(hi_t) < 0.0):
            hi_t = np.where(grow, 2.0 * hi_t, hi_t)
    else:
        hi_t = np.full(m, float(hi))
    at_lo = slope(lo_t) >= 0.0
    at_hi = slope(hi_t) <= 0.0
    for _ in range(200):
        mid = 0.5 * (lo_t + hi_t)
        right = slope(mid) >= 0.0
        hi_t = np.where(right, mid, hi_t)
        lo_t = np.where(right, lo_t, mid)
    t = np.where(at_lo, 0.0, 0.5 * (lo_t + hi_t))
    return t if hi is None else np.where(at_hi & ~at_lo, float(hi), t)


def polytope_lp_residual(x, u, A, b, p):
    """⟨J(x-u), u - z*⟩ with z* maximizing ⟨J(x-u), z⟩ over {Az <= b}."""
    j = duality_map(x - u, p)
    if not np.any(j):
        return 0.0
    res = optimize.linprog(-j, A_ub=A, b_ub=b, bounds=[(None, None)] * x.size,
                           method="highs")
    return float(j @ u + res.fun) if res.status == 0 else -np.inf


def vertex_residual(x, u, V, p):
    j = duality_map(x - u, p)
    return float(np.min(j @ u - V @ j))


def hull_gap(u, V):
    """Distance of u from conv(V) as a non-negative least-squares residual."""
    M = np.vstack([V.T, np.ones(V.shape[0])])
    return float(optimize.nnls(M, np.append(u, 1.0))[1])


# -- derivatives -------------------------------------------------------------

def ball_derivative(x, v, c, r, p, band=1e-9):
    """P'(x; v) for the radial projection: interior, sphere or exterior."""
    y = x - c
    d = lp_norm(y, p)
    g = float(duality_map(y, p) @ v)
    if d < r - band * max(1.0, r):
        return v.copy()
    if d > r + band * max(1.0, r):
        return r * v / d - r * g * y / d ** 3
    return v - g * y / r ** 2 if g > 0.0 else v.copy()


def cone_derivative(x, v):
    return np.where((x > 0.0) | ((x == 0.0) & (v >= 0.0)), v, 0.0)


def box_derivative(x, v, lo, hi):
    inside = (x > lo) & (x < hi)
    at_lo = (x == lo) & (v > 0.0)
    at_hi = (x == hi) & (v < 0.0)
    return np.where(inside | at_lo | at_hi, v, 0.0)


# -- exact moduli of ℓ_p^n, n >= 2 -----------------------------------------

def exact_delta(eps, p):
    """Clarkson (p >= 2) and Hanner (p < 2) moduli of convexity."""
    eps = np.asarray(eps, dtype=float)
    if p >= 2.0:
        return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)
    lo, hi = np.zeros_like(eps), np.ones_like(eps)
    for _ in range(200):   # f(δ) below is decreasing on [0, 1]
        mid = 0.5 * (lo + hi)
        f = (1.0 - mid + eps / 2.0) ** p + np.abs(1.0 - mid - eps / 2.0) ** p - 2.0
        lo = np.where(f > 0.0, mid, lo)
        hi = np.where(f > 0.0, hi, mid)
    return 0.5 * (lo + hi)


def exact_rho(t, p):
    """Lindenstrauss's modulus of smoothness of ℓ_p."""
    t = np.asarray(t, dtype=float)
    if p <= 2.0:
        return (1.0 + t ** p) ** (1.0 / p) - 1.0
    return (((1.0 + t) ** p + np.abs(1.0 - t) ** p) / 2.0) ** (1.0 / p) - 1.0
