"""Independent oracles for the test suite.

Everything here is deliberately computed from first principles with plain
numpy: raw norms, raw one-sided difference quotients, brute-force grid
minimization, bisection, and the closed Euclidean moduli.  None of it
calls into the package's analytic formulas, so agreement between the two
is evidence, not circularity.  The one exception is `duality_smoothness`, which calls
the package's duality map and quotient estimator; `xi_quotient` checks it.
`wrapped_power_norm` and `wrapped_duality_map` are the kernel's earlier
NumPy form, and `line_param_brentq` is the line search's earlier SciPy
form, kept to pin their bits rather than their accuracy.
"""
import numpy as np
from scipy import optimize

from banachproj import numdiff_derivative


def lp_norm(x, p):
    return float(np.sum(np.abs(np.asarray(x, dtype=float)) ** p) ** (1.0 / p))


def wrapped_power_norm(x, expo):
    """The max-scaled ℓ_expo norm written with NumPy's function wrappers
    (np.max, np.sum, out-of-place arithmetic), as the package computed it
    before its kernel moved to array methods; the kernel must match it
    bit for bit."""
    x = np.asarray(x, dtype=float)
    m = float(np.max(np.abs(x))) if x.size else 0.0
    if m == 0.0 or not np.isfinite(m):
        return m
    return float(m * np.sum(np.abs(x / m) ** expo) ** (1.0 / expo))


def wrapped_duality_map(x, p):
    """n * (|x/n|^(p-1) * sign(x)) with n = `wrapped_power_norm(x, p)`."""
    x = np.asarray(x, dtype=float)
    nx = wrapped_power_norm(x, p)
    if nx == 0.0:
        return np.zeros_like(x)
    return nx * ((np.abs(x) / nx) ** (p - 1.0) * np.sign(x))


def norm_quotient(p, x, v, t):
    """Raw one-sided quotient of the norm: (|x + t v| - |x|) / t."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (lp_norm(x + t * v, p) - lp_norm(x, p)) / t


def psi_oracle(p, x, v, t0=1e-5):
    """Extrapolated raw quotient for the norm's directional derivative.

    Two one-sided quotients at t0 and t0/2 plus one Richardson step; the
    truncation error drops from O(t) to O(t^2), comfortable for 1e-8
    scale comparisons on well-scaled inputs.
    """
    q1 = norm_quotient(p, x, v, t0)
    q2 = norm_quotient(p, x, v, t0 / 2.0)
    return 2.0 * q2 - q1


def xi_quotient(p, x, v, t):
    """Raw quotient of t -> <J(x+tv), x> computed from the power formula."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)

    def jdot(z):
        nz = lp_norm(z, p)
        if nz == 0.0:
            return 0.0
        j = np.abs(z) ** (p - 1.0) * np.sign(z) / nz ** (p - 2.0)
        return float(j @ x)

    return (jdot(x + t * v) - jdot(x)) / t


def duality_smoothness(space, x, v, schedule=None):
    """Quotient estimate of the one-sided derivative of t -> <J(x+tv), x> at 0.

    `numdiff_derivative` on the 1-vector map z -> [<J z, x>], J the space's
    duality map: the quotient window and Richardson step of the projection
    derivatives.  Returns the estimate with its steps and quotients.
    """
    return numdiff_derivative(space, lambda z: np.array([space.pairing(space.duality_map(z), x)]),
                              x, v, schedule)


def probe_gap(p, x, u, probes):
    """min over probe points z of <J(x - u), u - z>, J from the power formula."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    r = x - u
    j = np.abs(r) ** (p - 1.0) * np.sign(r) / lp_norm(r, p) ** (p - 2.0)
    return min(float(j @ (u - np.asarray(z, dtype=float))) for z in probes)


def grid_argmin(objective, feasible, lo, hi, final_step=1e-3, pts=13):
    """Multiresolution grid minimization over a box intersected with a
    vectorized feasibility predicate.

    Returns (argmin, value).  Each round evaluates a pts^d lattice, then
    zooms onto the incumbent with a margin of 1.5 grid cells, until the
    spacing falls below final_step on every axis.  The zoom window is
    clipped into the original box so the search never escapes it.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    best_pt, best_val = None, np.inf
    while True:
        axes = [np.linspace(center[i] - half[i], center[i] + half[i], pts) for i in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        mesh = np.clip(mesh, lo, hi)
        mask = feasible(mesh)
        if mask.any():
            vals = objective(mesh[mask])
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = float(vals[k])
                best_pt = mesh[mask][k].copy()
        spacing = 2.0 * half / (pts - 1)
        if np.all(spacing <= final_step):
            if best_pt is None:
                raise RuntimeError("no feasible grid point found")
            return best_pt, best_val
        if best_pt is not None:
            center = best_pt
        half = np.maximum(spacing * 1.5, final_step * 0.5)


def grid_project(p, feasible, x, lo, hi, final_step=1e-3, pts=13):
    """Brute-force metric projection: grid_argmin of the lp distance."""
    x = np.asarray(x, dtype=float)
    objective = lambda Z: np.sum(np.abs(Z - x) ** p, axis=1) ** (1.0 / p)
    return grid_argmin(objective, feasible, lo, hi, final_step=final_step, pts=pts)


def param_grid_min(fn, t_lo, t_hi, final_step=1e-6, pts=200):
    """1-d multiresolution minimization of fn over [t_lo, t_hi]."""
    lo, hi = float(t_lo), float(t_hi)
    best_t, best_val = None, np.inf
    while True:
        ts = np.linspace(lo, hi, pts)
        vals = np.array([fn(t) for t in ts])
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_t = float(ts[k])
        step = (hi - lo) / (pts - 1)
        if step <= final_step:
            return best_t, best_val
        lo = max(t_lo, best_t - 1.5 * step)
        hi = min(t_hi, best_t + 1.5 * step)


def line_param_bisect(p, origin, d, x, hi=None):
    """Bisection twin of the segment and ray line search.

    The t in [0, hi] (hi=None: t >= 0) minimizing Σ|x - origin - t d|^p:
    the slope's sign change is bracketed (a ray's by doubling from 1) and
    halved until no double lies strictly inside, and the end with the
    smaller objective is returned.
    """
    base = np.asarray(x, dtype=float) - np.asarray(origin, dtype=float)
    d = np.asarray(d, dtype=float)

    def slope(t):
        r = base - t * d
        return -float(np.sum(np.abs(r) ** (p - 1.0) * np.sign(r) * d))

    lo = 0.0
    if slope(lo) >= 0.0:
        return lo
    if hi is None:
        hi = 1.0
        while slope(hi) < 0.0:
            hi *= 2.0
    elif slope(hi) <= 0.0:
        return hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    f = lambda t: float(np.sum(np.abs(base - t * d) ** p))
    return lo if f(lo) <= f(hi) else hi


def line_param_brentq(p, origin, d, x, hi=None, xtol=np.finfo(float).tiny):
    """The segment and ray line search as the package wrote it on SciPy's
    `brentq`: the breakpoint bracket [min c, max c] of c_i = base_i / d_i
    (d_i != 0) clamped to [0, hi] (a ray's hi is 2^59), both ends tested,
    then brentq at rtol 4ε, which evaluates both ends again.  A ray whose
    slope at 2^59 is <= 0 raises ArithmeticError, and a NaN slope inside
    brentq raises ValueError."""
    base = np.asarray(x, dtype=float) - np.asarray(origin, dtype=float)
    d = np.asarray(d, dtype=float)
    live = d != 0.0
    with np.errstate(over="ignore"):
        c = base[live] / d[live]
    first, last = float(c.min()), float(c.max())
    cap = 2.0 ** 59
    top = cap if hi is None else hi

    def slope(t):
        r = base - t * d
        return float(-p * np.dot(np.abs(r) ** (p - 1.0) * np.sign(r), d))

    def upper(t):
        if hi is None and t >= cap:
            raise ArithmeticError("ray projection parameter overflow")
        return t

    if last <= 0.0:
        return 0.0
    if first >= top:
        return upper(top)
    if first == last:
        return first
    lo, end = max(0.0, first), min(last, top)
    if slope(lo) >= 0.0:
        return lo
    if slope(end) <= 0.0:
        return upper(end)
    return float(optimize.brentq(slope, lo, end, xtol=xtol,
                                 rtol=4.0 * np.finfo(float).eps, maxiter=2000))


def line_derivative(p, d, r, v):
    """P'(x; v) for a segment or ray with direction d where P(x) is inside
    it and r = x - P(x) has no zero coordinate: (dᵀHv / dᵀHd)·d with
    H = diag |r_i|^(p-2), from differentiating Σ|r_i|^(p-1) sign(r_i) d_i = 0."""
    h = np.abs(np.asarray(r, dtype=float)) ** (p - 2.0)
    d = np.asarray(d, dtype=float)
    return float(d @ (h * np.asarray(v, dtype=float))) / float(d @ (h * d)) * d


def cone_table_3d(x, v):
    """Derivative of the positive-cone projection in R^3, region by region.

    Returns (value, label) with the package's "cone:p{a}z{b}n{c}/clamp{k}"
    label.  Written out case by case over the ten sign regions of x on
    purpose: it mirrors the published clause table and is an independent
    twin of the package's coordinatewise rule.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    pos = x > 0.0
    zer = x == 0.0
    neg = x < 0.0
    P, Z, N = int(pos.sum()), int(zer.sum()), int(neg.sum())
    out = np.zeros(3)
    clamped = 0

    def label():
        return f"cone:p{P}z{Z}n{N}/clamp{clamped}"

    if (P, Z, N) == (3, 0, 0):
        # interior: locally the identity
        return v.copy(), label()
    if (P, Z, N) == (2, 1, 0):
        # open face: the zero coordinate only follows nonnegative pushes
        k = int(np.argmax(zer))
        out[:] = v
        if v[k] < 0.0:
            out[k] = 0.0
            clamped = 1
        return out, label()
    if (P, Z, N) == (1, 2, 0):
        # open edge: each zero coordinate clamps independently
        i = int(np.argmax(pos))
        out[i] = v[i]
        for k in np.flatnonzero(zer):
            if v[k] >= 0.0:
                out[k] = v[k]
            else:
                clamped += 1
        return out, label()
    if (P, Z, N) == (0, 3, 0):
        # vertex: the derivative is the clipped direction
        for k in range(3):
            if v[k] >= 0.0:
                out[k] = v[k]
            else:
                clamped += 1
        return out, label()
    if (P, Z, N) == (2, 0, 1):
        # outside, nearest point on an open face: negative coordinate inert
        for i in np.flatnonzero(pos):
            out[i] = v[i]
        return out, label()
    if (P, Z, N) == (1, 1, 1):
        # outside, nearest point on an edge, one grazing coordinate
        i = int(np.argmax(pos))
        k = int(np.argmax(zer))
        out[i] = v[i]
        if v[k] >= 0.0:
            out[k] = v[k]
        else:
            clamped = 1
        return out, label()
    if (P, Z, N) == (1, 0, 2):
        # outside, nearest point on an edge, both negatives inert
        i = int(np.argmax(pos))
        out[i] = v[i]
        return out, label()
    if (P, Z, N) == (0, 2, 1):
        # outside, projecting to the vertex, two grazing coordinates
        for k in np.flatnonzero(zer):
            if v[k] >= 0.0:
                out[k] = v[k]
            else:
                clamped += 1
        return out, label()
    if (P, Z, N) == (0, 1, 2):
        # outside, projecting to the vertex, one grazing coordinate
        k = int(np.argmax(zer))
        if v[k] >= 0.0:
            out[k] = v[k]
        else:
            clamped = 1
        return out, label()
    # (0, 0, 3): interior of the inverse image of the vertex
    return out, label()


def hilbert_delta(eps):
    """Exact Euclidean modulus of convexity, 1 - sqrt(1 - ε²/4), written
    as (ε²/4)/(1 + sqrt(1 - ε²/4)) so that it does not cancel at small ε."""
    eps = np.asarray(eps, dtype=float)
    s = eps ** 2 / 4.0
    return s / (1.0 + np.sqrt(np.maximum(0.0, 1.0 - s)))


def hilbert_rho(t):
    """Exact Euclidean modulus of smoothness, sqrt(1 + t²) - 1, written as
    t²/(1 + sqrt(1 + t²)) so that it does not cancel at small t."""
    t = np.asarray(t, dtype=float)
    return t ** 2 / (1.0 + np.sqrt(1.0 + t ** 2))


def exact_delta(p, eps):
    """Modulus of convexity of ℓ_p.

    p >= 2: Clarkson's closed form 1 - (1 - (ε/2)^p)^(1/p).  p < 2: Hanner's
    implicit equation (1 - δ + ε/2)^p + |1 - δ - ε/2|^p = 2, whose left side
    decreases in δ on [0, 1], solved by bisection.
    """
    out = []
    for e in np.atleast_1d(np.asarray(eps, dtype=float)):
        if p >= 2.0:
            out.append(1.0 - (1.0 - (e / 2.0) ** p) ** (1.0 / p))
            continue
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (1.0 - mid + e / 2.0) ** p + abs(1.0 - mid - e / 2.0) ** p > 2.0:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def exact_rho(p, t):
    """Modulus of smoothness of ℓ_p (Lindenstrauss).

    p <= 2: (1 + t^p)^(1/p) - 1.  p >= 2: (((1 + t)^p + |1 - t|^p)/2)^(1/p) - 1.
    Where (1 + t)^p overflows (p = 1e4), the second form is evaluated as
    (1 + t)·((1 + r^p)/2)^(1/p) - 1 with r = |1 - t|/(1 + t).
    """
    t = np.asarray(t, dtype=float)
    if p <= 2.0:
        return (1.0 + t ** p) ** (1.0 / p) - 1.0
    with np.errstate(over="ignore"):
        plain = (((1.0 + t) ** p + np.abs(1.0 - t) ** p) / 2.0) ** (1.0 / p) - 1.0
    r = np.abs(1.0 - t) / (1.0 + t)
    return np.where(np.isfinite(plain), plain,
                    (1.0 + t) * ((1.0 + r ** p) / 2.0) ** (1.0 / p) - 1.0)
