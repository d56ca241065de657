"""One-sided finite-difference estimation of projection derivatives.

The projector is treated as a black box throughout, so the estimates
produced here are independent of any closed-form expression they are
later compared against.  All limits are taken from the right (t ↓ 0);
central differences are never used, because metric projections are in
general only one-sidedly differentiable.

The steps halve, t = 2^-k, which keeps the one-step Richardson update well
conditioned: k = 8..30 (`_STEPS`) for `numdiff_derivative`, which stops once
3 consecutive quotients agree pairwise within `_QUOTIENT_TOL`, and k_min..k_max
for `cauchy_rate_probe`.  Stacked differences are normed by `LpSpace`'s row
kernel, with the bits of `LpSpace.norm`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConvergenceError",
    "NumericDerivative",
    "RateReport",
    "numdiff_derivative",
    "cauchy_rate_probe",
]


class ConvergenceError(RuntimeError):
    """A difference-quotient sequence failed to settle within its steps.

    The partial quotient trace is kept on the exception so callers can
    inspect (or report) what was actually computed; no estimate is ever
    fabricated from a non-convergent sequence.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


_WINDOW = 3
_STEPS = tuple(2.0 ** -k for k in range(8, 31))
_QUOTIENT_TOL = 1e-7
_EPS = float(np.finfo(float).eps)


@dataclass
class NumericDerivative:
    """Outcome of a quotient-limit estimate.

    `estimate` is None whenever `converged` is False: the trace is kept
    for diagnosis but a value is never invented.  `extrapolated` records
    whether the one Richardson step survived its own sanity check.
    """

    estimate: np.ndarray | None
    converged: bool
    ts: list = field(default_factory=list)
    quotients: list = field(default_factory=list)
    extrapolated: bool = False

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "extrapolated": self.extrapolated,
            "steps_used": len(self.ts),
            "last_t": self.ts[-1] if self.ts else None,
            "estimate": None if self.estimate is None else [float(c) for c in self.estimate],
        }


def _window_spread(space, quotients, window: int) -> float:
    """Largest distance between two of the last `window` quotients.

    Infinite when one of them is not finite, so such a window never closes.
    """
    recent = np.array(quotients[-window:], dtype=float)
    if not np.isfinite(recent).all():
        return math.inf
    i, j = np.triu_indices(len(recent), 1)
    return float(space._power_norm_rows(np.abs(recent[i] - recent[j]), space.p).max(initial=0.0))


def numdiff_derivative(space, projector, x, v) -> NumericDerivative:
    """Estimate the one-sided directional derivative of a projector.

    Walks the steps `_STEPS` until the convergence window closes, then
    applies a single Richardson extrapolation assuming a leading error
    linear in t.  If the extrapolated value strays more than 10x the
    quotient tolerance from the final raw quotient, the linear-error model
    is not trusted and the raw quotient is returned instead.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape:
        raise ValueError("point and direction must have matching shapes")
    if not np.any(v):
        raise ValueError("direction must be nonzero")

    base = np.asarray(projector(x), dtype=float)
    ts: list[float] = []
    quotients: list[np.ndarray] = []
    for t in _STEPS:
        ts.append(t)
        quotients.append((np.asarray(projector(x + t * v), dtype=float) - base) / t)
        if len(quotients) >= _WINDOW and _window_spread(space, quotients, _WINDOW) < _QUOTIENT_TOL:
            break
    else:
        return NumericDerivative(None, False, ts, quotients, False)

    q_last, q_prev = quotients[-1], quotients[-2]
    ratio = ts[-2] / ts[-1]
    extrap = (ratio * q_last - q_prev) / (ratio - 1.0)
    if space.norm(extrap - q_last) > 10.0 * _QUOTIENT_TOL:
        return NumericDerivative(q_last.copy(), True, ts, quotients, False)
    return NumericDerivative(extrap, True, ts, quotients, True)


@dataclass
class RateReport:
    """Cauchy-rate table for quotient sequences of one projector at one point.

    `pairs` holds one row (direction_id, t, s, deviation) per consecutive
    schedule pair s < t and sampled direction.  `uniform_sup_curve[k]` is
    the sup of the k-th deviation over all directions, `uniform_sup` its
    overall maximum, and `fitted_order` the slope of a log-log regression
    of deviation against t over the small-step tail.  `k_envelope` is the
    observed constant 2 max{1, sup ||P(x+tv) - (x+sv)||, ...} taken over
    all sampled step pairs and directions; it scales theoretical bounds
    on the same quantities.
    """

    pairs: list
    fitted_order: float
    uniform_sup: float
    uniform_sup_curve: list
    k_envelope: float

    def csv_rows(self):
        yield ("direction_id", "t", "s", "deviation")
        for row in self.pairs:
            yield row

    def summary(self) -> dict:
        return {
            "fitted_order": self.fitted_order,
            "uniform_sup": self.uniform_sup,
            "uniform_sup_curve": list(self.uniform_sup_curve),
            "k_envelope": self.k_envelope,
            "pair_count": len(self.pairs),
        }


def cauchy_rate_probe(space, projector, x, directions, k_min=8, k_max=20) -> RateReport:
    """Tabulate ||D_t - D_s|| over consecutive steps s < t, t = 2^-k for k_min <= k <= k_max.

    Directions must be unit vectors (checked to 1e-9): the deviations are
    compared across directions, so a common scale is required.  At least
    three consecutive pairs are needed for the table to mean anything.
    """
    for key, k in (("k_min", k_min), ("k_max", k_max)):
        if not -1024 < k < 1075:   # 2^-k overflows from k = -1024 and rounds to 0 from 1075
            raise ValueError(f"{key} must give a finite positive step 2^-k, got {k}")
    if k_max - k_min < 3:
        raise ValueError("need k_max >= k_min + 3, at least 3 consecutive step pairs")
    x = np.asarray(x, dtype=float)
    dirs = [np.asarray(v, dtype=float) for v in directions]
    if not dirs:
        raise ValueError("at least one direction is required")
    for v in dirs:
        if abs(space.norm(v) - 1.0) > 1e-9:
            raise ValueError("probe directions must be unit vectors")

    base = np.asarray(projector(x), dtype=float)
    ts = [2.0 ** -k for k in range(k_min, k_max + 1)]
    t_col = np.array(ts)[:, None]
    n_pairs = len(ts) - 1
    i, j = np.triu_indices(len(ts), 1)
    pairs = []
    sup_curve = np.zeros(n_pairs)
    envelope = 1.0
    size = float(np.abs(np.append(x, base)).max())
    for dir_id, v in enumerate(dirs):
        X = x + t_col * v
        P = np.array([projector(pt) for pt in X], dtype=float)
        size = max(size, float(np.abs(P).max()))
        Q = (P - base) / t_col
        # consecutive deviations, then the envelope constant over all sampled
        # pairs s < t plus the s -> 0 limit; fmax passes over NaN rows
        D = np.concatenate([Q[:-1] - Q[1:], P[i] - X[j], X[i] - P[j], P - x, X - base])
        norms = space._power_norm_rows(np.abs(D), space.p)   # `space.norm` of each row
        devs = norms[:n_pairs]
        pairs += [(dir_id, ts[k], ts[k + 1], dev) for k, dev in enumerate(devs.tolist())]
        sup_curve = np.fmax(sup_curve, devs)
        envelope = max(envelope, float(np.fmax.reduce(norms[n_pairs:])))

    # a deviation below 1e-10, or below the rounding of the projections
    # (ε·max|x|, ε·max|P|) over s, is noise, not a measurable convergence rate
    tail_lo = len(ts) // 2
    fit_t, fit_d = [], []
    settled = True
    for dir_id, t, s, dev in pairs:
        if t <= ts[tail_lo]:
            settled = settled and dev <= max(1e-10, 32.0 * _EPS * size / s)
            if dev > 0.0:
                fit_t.append(t)
                fit_d.append(dev)
    if settled:
        # quotients settled (projection locally affine along every
        # sampled direction): no rate left to fit, report order 0
        fitted_order = 0.0
    elif len(fit_t) >= 3:
        slope = np.polyfit(np.log(fit_t), np.log(fit_d), 1)[0]
        fitted_order = float(slope)
    else:
        # sparse tail: fall back to every positive deviation in the table
        all_t = [t for _, t, _, dev in pairs if dev > 0.0]
        all_d = [dev for _, _, _, dev in pairs if dev > 0.0]
        if len(all_t) >= 3:
            fitted_order = float(np.polyfit(np.log(all_t), np.log(all_d), 1)[0])
        else:
            fitted_order = 0.0

    return RateReport(
        pairs=pairs,
        fitted_order=fitted_order,
        uniform_sup=float(sup_curve.max()),
        uniform_sup_curve=[float(d) for d in sup_curve],
        k_envelope=2.0 * envelope,
    )
