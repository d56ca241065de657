"""One-sided finite-difference estimation of projection derivatives.

The projector is treated as a black box throughout, so the estimates
produced here are independent of any closed-form expression they are
later compared against.  All limits are taken from the right (t ↓ 0);
central differences are never used, because metric projections are in
general only one-sidedly differentiable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConvergenceError",
    "StepSchedule",
    "NumericDerivative",
    "RateReport",
    "numdiff_derivative",
    "cauchy_rate_probe",
]


class ConvergenceError(RuntimeError):
    """A difference-quotient sequence failed to settle within its schedule.

    The partial quotient trace is kept on the exception so callers can
    inspect (or report) what was actually computed; no estimate is ever
    fabricated from a non-convergent sequence.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


_WINDOW = 3
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class StepSchedule:
    """Strictly decreasing step sizes, at least three of them.

    A quotient sequence counts as converged once `_WINDOW` = 3 consecutive
    entries agree pairwise within `quotient_tol`.  The default steps are
    t_k = 2^-k for k = 8..30; halving steps keep the one-step Richardson
    update well conditioned.
    """

    t_values: tuple = tuple(2.0 ** -k for k in range(8, 31))
    quotient_tol: float = 1e-7

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        if len(ts) < _WINDOW:
            raise ValueError("schedule shorter than its convergence window")
        if any(not math.isfinite(t) or t <= 0.0 for t in ts):
            raise ValueError("step sizes must be positive and finite")
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ValueError("step sizes must be strictly decreasing")
        if not (0.0 < self.quotient_tol < 1.0):
            raise ValueError("quotient_tol must lie in (0, 1)")
        object.__setattr__(self, "t_values", ts)


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
    recent = quotients[-window:]
    if not all(np.isfinite(q).all() for q in recent):
        return math.inf
    worst = 0.0
    for i in range(len(recent)):
        for j in range(i + 1, len(recent)):
            worst = max(worst, space.norm(recent[i] - recent[j]))
    return worst


def numdiff_derivative(space, projector, x, v, schedule: StepSchedule | None = None) -> NumericDerivative:
    """Estimate the one-sided directional derivative of a projector.

    Walks the schedule until the convergence window closes, then applies
    a single Richardson extrapolation assuming a leading error linear in
    t.  If the extrapolated value strays more than 10x the quotient
    tolerance from the final raw quotient, the linear-error model is not
    trusted and the raw quotient is returned instead.
    """
    sched = schedule if schedule is not None else StepSchedule()
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape:
        raise ValueError("point and direction must have matching shapes")
    if not np.any(v):
        raise ValueError("direction must be nonzero")

    base = np.asarray(projector(x), dtype=float)
    ts: list[float] = []
    quotients: list[np.ndarray] = []
    hit = False
    for t in sched.t_values:
        q = (np.asarray(projector(x + t * v), dtype=float) - base) / t
        ts.append(t)
        quotients.append(q)
        if len(quotients) >= _WINDOW:
            if _window_spread(space, quotients, _WINDOW) < sched.quotient_tol:
                hit = True
                break

    if not hit:
        return NumericDerivative(None, False, ts, quotients, False)

    q_last, q_prev = quotients[-1], quotients[-2]
    ratio = ts[-2] / ts[-1]
    extrap = (ratio * q_last - q_prev) / (ratio - 1.0)
    if space.norm(extrap - q_last) > 10.0 * sched.quotient_tol:
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


def cauchy_rate_probe(space, projector, x, directions, schedule: StepSchedule | None = None) -> RateReport:
    """Tabulate ||D_t - D_s|| over consecutive schedule steps s < t.

    Directions must be unit vectors (checked to 1e-9): the deviations are
    compared across directions, so a common scale is required.  At least
    three consecutive pairs are needed for the table to mean anything.
    """
    sched = schedule if schedule is not None else StepSchedule()
    if len(sched.t_values) < 4:
        raise ValueError("need at least 3 consecutive step pairs")
    x = np.asarray(x, dtype=float)
    dirs = [np.asarray(v, dtype=float) for v in directions]
    if not dirs:
        raise ValueError("at least one direction is required")
    for v in dirs:
        if abs(space.norm(v) - 1.0) > 1e-9:
            raise ValueError("probe directions must be unit vectors")

    base = np.asarray(projector(x), dtype=float)
    ts = list(sched.t_values)
    n_pairs = len(ts) - 1
    pairs = []
    sup_curve = np.zeros(n_pairs)
    k_terms = [1.0]
    size = float(np.abs(np.append(x, base)).max())
    for dir_id, v in enumerate(dirs):
        points = [x + t * v for t in ts]
        projs = [np.asarray(projector(pt), dtype=float) for pt in points]
        size = max(size, float(np.abs(projs).max()))
        quotients = [(pj - base) / t for pj, t in zip(projs, ts)]
        for k in range(n_pairs):
            dev = space.norm(quotients[k] - quotients[k + 1])
            pairs.append((dir_id, ts[k], ts[k + 1], dev))
            sup_curve[k] = max(sup_curve[k], dev)
        # envelope constant over all sampled pairs s < t, plus the s -> 0 limit
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                k_terms.append(space.norm(projs[i] - points[j]))
                k_terms.append(space.norm(points[i] - projs[j]))
        for i in range(len(ts)):
            k_terms.append(space.norm(projs[i] - x))
            k_terms.append(space.norm(points[i] - base))

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
        uniform_sup=float(sup_curve.max()) if n_pairs else 0.0,
        uniform_sup_curve=[float(d) for d in sup_curve],
        k_envelope=2.0 * max(k_terms),
    )
