"""Exact moduli of convexity and smoothness for ℓ_p^n, n >= 2.

The modulus of convexity and the modulus of smoothness are

    δ(ε) = inf { 1 - ‖(x + y)/2‖ : ‖x‖ = ‖y‖ = 1, ‖x - y‖ >= ε },
    ρ(t) = sup { (‖x + y‖ + ‖x - y‖)/2 - 1 : ‖x‖ = 1, ‖y‖ = t }.

For n >= 2 both are known in closed form, attained by pairs in two
coordinates (padded with zeros), with inequalities that no unit pair beats
(m = ‖(x + y)/2‖, e = ‖x - y‖):

- δ, p >= 2 (Clarkson 1936): 1 - (1 - (ε/2)^p)^(1/p), attained at
  x = (1 - δ, ε/2), y = (1 - δ, -ε/2); Clarkson: m^p + (e/2)^p <= 1.
- δ, p < 2 (Hanner 1956): the root of (1 - δ + ε/2)^p + |1 - δ - ε/2|^p = 2,
  attained at x = 2^(-1/p)(α, β), y = 2^(-1/p)(β, α), α = 1 - δ + ε/2,
  β = 1 - δ - ε/2; Hanner: F(m, e) = (m + e/2)^p + |m - e/2|^p <= 2.
- ρ (Lindenstrauss 1963): (1 + t^p)^(1/p) - 1 for p <= 2, attained at
  x = e₁, y = t·e₂, and (((1 + t)^p + |1 - t|^p)/2)^(1/p) - 1 for p >= 2,
  attained at x = (1, 1)/2^(1/p), y = t·(1, -1)/2^(1/p).  Every pair has
  (‖x + y‖ + ‖x - y‖)/2 <= 1 + ρ(t), by the power-mean inequality and
  Clarkson's (p <= 2) or Hanner's (p >= 2) inequality for ‖x ± y‖.

The values are evaluated without cancellation, so they keep their
relative accuracy where δ or ρ is tiny and next to ε = 2, where Hanner's
equation (bisected to adjacent doubles) is flat in δ: δ(2) = 1 exactly.

The values do not depend on n, and nothing is sampled: the estimators'
`budget`, `seed` and `threads` are accepted and not read.

Power-type fits a·ε^p and b·t^q are unconstrained least squares in
log-log space over the small-argument tail.

`distance_bound_check` evaluates the modulus-based uniform-continuity
estimate for metric projections,

    ‖Px - Py‖ <= k · δ⁻¹( 6 ρ( 2 ‖x - y‖ ) ),
    k = 2 max{ 1, ‖x - Py‖, ‖Px - y‖ },

on the exact curves.  Clarkson's and Hanner's relations are symmetric in
1 - δ and ε/2, so δ⁻¹ solves the same relation for the other side: in
closed form for p >= 2, by the bisection that gives δ for p < 2, which
skips d = 0 (δ⁻¹(0) = 0).  The points x and y are checked and projected
as two stacks (`sets.SetDescriptor._project_rows`), with the bits of
projecting each point on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sets
from ._scipy import stats  # noqa: F401  (never read here; the span tracer hooks it)
from .space import LpSpace, _row_sums

__all__ = ["ModuliEstimate", "PowerFit", "BoundReport", "estimate_convexity_modulus",
           "estimate_smoothness_modulus", "fit_power_type", "distance_bound_check"]


@dataclass
class ModuliEstimate:
    """Exact modulus curves for one space; a curve that was not estimated
    is empty."""

    p: float
    n: int
    epsilons: np.ndarray = field(default_factory=lambda: np.array([]))
    delta_values: np.ndarray = field(default_factory=lambda: np.array([]))
    ts: np.ndarray = field(default_factory=lambda: np.array([]))
    rho_values: np.ndarray = field(default_factory=lambda: np.array([]))
    sample_count = 0   # not a field: read by perfbench/spans.py on traced runs

    def merged_with(self, other: "ModuliEstimate") -> "ModuliEstimate":
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("cannot merge estimates for different spaces")
        take_delta = self if self.epsilons.size else other
        take_rho = self if self.ts.size else other
        return ModuliEstimate(
            p=self.p, n=self.n,
            epsilons=take_delta.epsilons.copy(), delta_values=take_delta.delta_values.copy(),
            ts=take_rho.ts.copy(), rho_values=take_rho.rho_values.copy())

    def csv_rows(self):
        yield ("curve", "argument", "value")
        for e, d in zip(self.epsilons, self.delta_values):
            yield ("delta", float(e), float(d))
        for t, r in zip(self.ts, self.rho_values):
            yield ("rho", float(t), float(r))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "epsilons": [float(e) for e in self.epsilons],
            "delta_values": [float(d) for d in self.delta_values],
            "ts": [float(t) for t in self.ts],
            "rho_values": [float(r) for r in self.rho_values],
            "delta_side": "exact",
            "delta_inequality": "clarkson" if self.p >= 2.0 else "hanner",
            "rho_side": "exact",
            "rho_inequality": "lindenstrauss",
        }


@dataclass
class PowerFit:
    """Unconstrained log-log fits δ ≈ a ε^p_fit, ρ ≈ b t^q_fit on the tail."""

    a: float
    p_fit: float
    b: float
    q_fit: float
    rms_delta: float
    rms_rho: float

    def to_json(self) -> dict:
        return {
            "a": self.a, "p_fit": self.p_fit,
            "b": self.b, "q_fit": self.q_fit,
            "rms_delta": self.rms_delta, "rms_rho": self.rms_rho,
        }


# -- closed forms --------------------------------------------------------------

def _log_mean_power(w: np.ndarray, p: float) -> np.ndarray:
    # log(((1 + w)^p + (1 - w)^p)/2) for 0 <= w <= 1, with no cancellation:
    # (p/2)·log(1 - w²) + log cosh(p·artanh w) while p·artanh w is small,
    # p·log(1 + w) + log((1 + r^p)/2) with r = (1 - w)/(1 + w) beyond
    a = np.arctanh(w)
    log_1mw2 = np.where(w < 0.5, np.log1p(-w * w), np.log((1.0 - w) * (1.0 + w)))
    near = 0.5 * p * log_1mw2 + np.log1p(2.0 * np.sinh(0.5 * p * a) ** 2)
    far = p * np.log1p(w) + np.log1p(np.exp(-2.0 * p * a)) - math.log(2.0)
    return np.where(p * a < 100.0, near, far)


def _delta(eps: np.ndarray, p: float) -> np.ndarray:
    """δ(ε) of ℓ_p^n, n >= 2: Clarkson for p >= 2, Hanner for p < 2."""
    eps = np.asarray(eps, dtype=float)
    half = 0.5 * eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if p >= 2.0:
            # log(1 - (ε/2)^p), for (ε/2)^p near 1 from the exact ε/2 - 1
            x = half ** p
            log_gap = np.where(x < 0.5, np.log1p(-x),
                               np.log(-np.expm1(p * np.log1p(half - 1.0))))
            return -np.expm1(log_gap / p)
        return _hanner_root(half, p, solve_delta=True)


def _hanner_root(known: np.ndarray, p: float, solve_delta: bool) -> np.ndarray:
    # Hanner's equation (u + h)^p + |u - h|^p = 2, u = 1 - δ, h = ε/2, as
    # p·log M + log(((1 + w)^p + (1 - w)^p)/2) = 0, M = max(u, h), w = min/M.
    # It is symmetric in u and h: one bisection on [0, 1] to adjacent doubles,
    # keeping the upper end, finds δ given h (the left side falls from >= 0
    # to <= 0 in δ) or h given δ (it rises from <= 0 to >= 0 in h)
    lo, hi = np.zeros_like(known), np.ones_like(known)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return hi
        if solve_delta:
            u, log_u, h = 1.0 - mid, np.log1p(-mid), known
        else:
            u, log_u, h = 1.0 - known, np.log1p(-known), mid
        big = u >= h
        log_m = np.where(big, log_u, np.log(h))
        side = p * log_m + _log_mean_power(np.where(big, h / u, u / h), p)
        up = side > 0.0 if solve_delta else side < 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)


def _delta_inverse(d: np.ndarray, p: float) -> np.ndarray:
    """ε with δ(ε) = d, 0 <= d <= 1: the relations behind δ are symmetric in
    1 - δ and ε/2, so each is solved for the other side."""
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if p >= 2.0:
            return 2.0 * (-np.expm1(p * np.log1p(-d))) ** (1.0 / p)
        # only d > 0 is bisected: at d = 0 the root is 0, reached by halving
        # down to the least subnormal, about 1,075 steps
        eps = np.zeros_like(d)
        pos = d > 0.0
        eps[pos] = 2.0 * _hanner_root(d[pos], p, solve_delta=False)
        return eps


def _rho(t: np.ndarray, p: float) -> np.ndarray:
    """ρ(t) of ℓ_p^n, n >= 2 (Lindenstrauss)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if p <= 2.0:
            return np.expm1(np.log1p(t ** p) / p)
        # ((1 + t)^p + |1 - t|^p)/2 = M^p·((1 + w)^p + (1 - w)^p)/2 with
        # M = max(1, t) and w = min(t, 1/t)
        return np.expm1(np.log(np.maximum(t, 1.0))
                        + _log_mean_power(np.minimum(t, 1.0 / t), p) / p)


# -- row norms and the estimators -----------------------------------------------

#: least normal double
_NORMAL = 2.0 ** -1022


def _row_norms(M: np.ndarray, p: float) -> np.ndarray:
    # the ℓ_p norms of the rows of M.  Where Σ|m|^p overflows or leaves the
    # normal range (every |m| < 0.03 at p = 200), the row is divided by its
    # largest entry first; the other rows keep their bits.  Not the space's
    # `_power_norm_rows`: the bound needs no single-point bits, and that
    # kernel's division of every row and root per row in Python is slower
    with np.errstate(over="ignore"):
        total = _row_sums(np.abs(M) ** p)
    nr = total ** (1.0 / p)
    odd = ~((total >= _NORMAL) & (total < np.inf))
    if odd.any():
        B = np.abs(M[odd])
        top = B.max(axis=1)
        np.copyto(top, 1.0, where=top == 0.0)
        B /= top[:, None]
        nr[odd] = top * _row_sums(B ** p) ** (1.0 / p)
    return nr


def _validate_grid(grid, upper: float, name: str) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} grid must be a nonempty 1-d array")
    if np.any(~np.isfinite(g)) or np.any(g <= 0.0) or np.any(g > upper):
        raise ValueError(f"{name} grid entries must lie in (0, {upper:g}]")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError(f"{name} grid must be strictly increasing")
    return g


def _estimate(curve: str, p: float, n: int, grid) -> ModuliEstimate:
    LpSpace(p)
    if n < 2:
        raise ValueError("the moduli need dimension >= 2")
    if curve == "delta":
        g = _validate_grid(grid, 2.0, "epsilon")
        return ModuliEstimate(p=float(p), n=int(n), epsilons=g, delta_values=_delta(g, p))
    g = _validate_grid(grid, math.inf, "t")
    return ModuliEstimate(p=float(p), n=int(n), ts=g, rho_values=_rho(g, p))


# `budget`, `seed` and `threads` are not read; perfbench/workloads.py passes them
def estimate_convexity_modulus(p: float, n: int, eps_grid, budget: int = 100_000,
                               seed: int = 0, threads: int | None = None) -> ModuliEstimate:
    """Exact δ(ε) over a grid: Clarkson's for p >= 2, Hanner's for p < 2."""
    return _estimate("delta", p, n, eps_grid)


def estimate_smoothness_modulus(p: float, n: int, t_grid, budget: int = 100_000,
                                seed: int = 0, threads: int | None = None) -> ModuliEstimate:
    """Exact ρ(t) over a grid (Lindenstrauss)."""
    return _estimate("rho", p, n, t_grid)


def _tail_fit(args: np.ndarray, vals: np.ndarray) -> tuple[float, float, float]:
    if args.size < 4:
        raise ValueError("power fits need at least 4 grid points per curve")
    m = (args.size + 1) // 2
    a_t, v_t = args[:m], vals[:m]
    if np.any(v_t <= 0.0):
        raise ValueError("degenerate (zero) modulus values in the fit tail")
    lw, lv = np.log(a_t), np.log(v_t)
    slope, intercept = np.polyfit(lw, lv, 1)
    pred = slope * lw + intercept
    rms = float(np.sqrt(np.mean((lv - pred) ** 2)))
    return float(math.exp(intercept)), float(slope), rms


def fit_power_type(est: ModuliEstimate) -> PowerFit:
    """Fit a·ε^p to the δ curve and b·t^q to the ρ curve (tails only).

    A side that is absent from the estimate comes back as NaN; a side
    that is present but unusable (too short, zero values) is an error.
    """
    a = p_fit = rms_d = float("nan")
    b = q_fit = rms_r = float("nan")
    if est.epsilons.size:
        a, p_fit, rms_d = _tail_fit(est.epsilons, est.delta_values)
    if est.ts.size:
        b, q_fit, rms_r = _tail_fit(est.ts, est.rho_values)
    if est.epsilons.size == 0 and est.ts.size == 0:
        raise ValueError("estimate holds no curves to fit")
    return PowerFit(a, p_fit, b, q_fit, rms_d, rms_r)


@dataclass
class BoundReport:
    """Row-by-row outcome of the uniform-continuity bound check."""

    rows: list
    count: int
    anomalies: int

    @property
    def anomaly_rate(self) -> float:
        return self.anomalies / self.count if self.count else 0.0

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "anomalies": self.anomalies,
            "anomaly_rate": self.anomaly_rate,
            "rows": [
                {"lhs": r[0], "rhs": r[1], "k": r[2], "pair_distance": r[3], "ok": r[4]}
                for r in self.rows
            ],
        }


#: a row whose left side exceeds this multiple of the bound is an anomaly
ANOMALY_FACTOR = 1.05


def distance_bound_check(space: LpSpace, C, pairs, est: ModuliEstimate,
                         fit: PowerFit | None = None) -> BoundReport:
    """Check ‖Px - Py‖ <= k δ⁻¹(6 ρ(2‖x - y‖)) over explicit pairs.

    δ⁻¹ and ρ are the exact curves of the space, so the estimate is read
    only for its p, which must be the space's; `fit` is accepted and not
    read.  Rows violating the bound by more than `ANOMALY_FACTOR` are
    counted as anomalies.  Raises where 6 ρ(2‖x - y‖) exceeds δ(2) = 1,
    the largest value δ takes, so that δ⁻¹ is undefined.
    """
    p = space.p
    if est.p != p:
        raise ValueError(f"the estimate is for p = {est.p:g}, the space has p = {p:g}")
    pairs = list(pairs)
    if not pairs:
        return BoundReport(rows=[], count=0, anomalies=0)
    X, Y = (sets._point(C, np.array(a, dtype=float), ndim=2) for a in zip(*pairs))
    PX, PY = C._project_rows(space, X), C._project_rows(space, Y)
    lhs, dist = _row_norms(PX - PY, p), _row_norms(X - Y, p)
    arg = 6.0 * _rho(2.0 * dist, p)
    if np.any(arg > 1.0):
        raise ValueError(f"6 rho(2|x - y|) = {arg.max():g} exceeds delta(2) = 1; shrink the pairs")
    far = np.maximum(_row_norms(X - PY, p), _row_norms(PX - Y, p))
    k = np.where(dist == 0.0, 2.0, 2.0 * np.maximum(1.0, far))
    rhs = k * _delta_inverse(arg, p)   # δ⁻¹(6ρ(0)) = 0
    ok = lhs <= ANOMALY_FACTOR * rhs + 1e-12
    rows = list(zip(lhs.tolist(), rhs.tolist(), k.tolist(), dist.tolist(), ok.tolist()))
    return BoundReport(rows=rows, count=len(rows), anomalies=int(np.sum(~ok)))
