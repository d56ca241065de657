"""Empirical moduli of convexity and smoothness for ℓ_p^n.

The modulus of convexity and the modulus of smoothness are

    δ(ε) = inf { 1 - ‖(x + y)/2‖ : ‖x‖ = ‖y‖ = 1, ‖x - y‖ >= ε },
    ρ(t) = sup { (‖x + y‖ + ‖x - y‖)/2 - 1 : ‖x‖ = 1, ‖y‖ = t }.

Neither optimization is solved to global optimality here: δ is estimated
by incomplete minimization (the reported value is an upper bound on the
true modulus) and ρ by incomplete maximization (a lower bound).  Both go
through one search driver, `_search_point`, that minimizes a score over
pairs of unit vectors: 1 - ‖(x + y)/2‖ for δ, and
1 - (‖x + ty‖ + ‖x - ty‖)/2 for ρ, whose infimum is -ρ(t).  Each grid
point gets a random batch of sphere pairs — Gaussian rows scaled onto the
ℓ_p sphere, which gives every direction a positive density — plus
structured axis/diagonal seeds, followed by rounds of coordinate-descent
refinement around the incumbent.  The one-sided guarantees rest on the
pinning, the refinement and the envelopes, not on how the batch is
spread, so the batch needs no particular law on the sphere and the
sampler needs no SciPy.  For δ the pair is pinned to ‖x - y‖ = ε by a
bracketed secant search (regula falsi, Illinois variant) along sphere
paths, since the infimum is approached on that boundary; the pinned pair
stays on the feasible side as computed, ‖x - y‖ >= ε, for every ε below
2 - 1e-12.  From there on the partner is -x, the only one in exact
arithmetic, whose computed distance is 2 only up to rounding: at ε = 2
it falls an ulp short in a quarter to a half of the rows (n = 2,
p = 1.05 and 1.5).

`budget` counts candidate pairs examined per grid point (pinning adds
vectorized norm evaluations on top: two at the path ends, then a median
of 9 secant steps per pair, 99% of pairs within 20, and at most 100).

Power-type fits a·ε^p and b·t^q are least squares in log-log space over
the small-argument tail.  The classical constraints a >= 1, b >= 1 with
1 < p <= 2 <= q cannot all be met by sampled curves, so the fit here is
unconstrained and the exponents are reported as observed.

`distance_bound_check` evaluates the modulus-based uniform-continuity
estimate for metric projections,

    ‖Px - Py‖ <= k · δ⁻¹( 6 ρ( 2 ‖x - y‖ ) ),
    k = 2 max{ 1, ‖x - Py‖, ‖Px - y‖ },

with δ inverted by monotone piecewise-linear interpolation of a lowered
envelope and ρ raised, so sampling bias cannot manufacture violations.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import solver
from ._scipy import stats  # noqa: F401  (never read here; the span tracer hooks it)
from .space import LpSpace

__all__ = [
    "ModuliEstimate",
    "PowerFit",
    "BoundReport",
    "thread_count",
    "estimate_convexity_modulus",
    "estimate_smoothness_modulus",
    "fit_power_type",
    "distance_bound_check",
]


def thread_count(requested: int | None = None) -> int:
    """Worker cap: the explicit argument, else all cores."""
    if requested is not None:
        return max(1, int(requested))
    return max(1, os.cpu_count() or 1)


@dataclass
class ModuliEstimate:
    """Sampled modulus curves for one space.

    delta_values are upper bounds on the true δ (minimization stopped
    early); rho_values are lower bounds on the true ρ.  A curve that was
    not estimated is empty.  Both curves are post-processed into monotone
    envelopes that preserve those one-sided guarantees.
    """

    p: float
    n: int
    epsilons: np.ndarray = field(default_factory=lambda: np.array([]))
    delta_values: np.ndarray = field(default_factory=lambda: np.array([]))
    ts: np.ndarray = field(default_factory=lambda: np.array([]))
    rho_values: np.ndarray = field(default_factory=lambda: np.array([]))
    sample_count: int = 0
    refinement_rounds: int = 0

    def merged_with(self, other: "ModuliEstimate") -> "ModuliEstimate":
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("cannot merge estimates for different spaces")
        take_delta = self if self.epsilons.size else other
        take_rho = self if self.ts.size else other
        return ModuliEstimate(
            p=self.p,
            n=self.n,
            epsilons=take_delta.epsilons.copy(),
            delta_values=take_delta.delta_values.copy(),
            ts=take_rho.ts.copy(),
            rho_values=take_rho.rho_values.copy(),
            sample_count=self.sample_count + other.sample_count,
            refinement_rounds=max(self.refinement_rounds, other.refinement_rounds),
        )

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
            "sample_count": self.sample_count,
            "refinement_rounds": self.refinement_rounds,
            "delta_side": "upper-bound-on-true-delta",
            "rho_side": "lower-bound-on-true-rho",
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


# -- sampling machinery ------------------------------------------------------

def _row_norms(M: np.ndarray, p: float) -> np.ndarray:
    # summed column by column: rows of a few entries make np.sum(axis=1)
    # slow, and for n <= 7 NumPy adds in this same order, bit for bit
    A = np.abs(M) ** p
    total = A[:, 0].copy()
    for k in range(1, A.shape[1]):
        total += A[:, k]
    return total ** (1.0 / p)


def _unit_rows(M: np.ndarray, p: float) -> np.ndarray:
    nr = _row_norms(M, p)
    nr = np.where(nr < 1e-300, 1.0, nr)
    return M / nr[:, None]


#: step cap of the pinning search; a row still open there keeps its good end
_PIN_STEPS = 100


def _pin_pairs(p: float, X: np.ndarray, Y: np.ndarray, eps: float) -> np.ndarray:
    """Slide each y along a sphere path until ‖x - y‖_p = eps (feasible side).

    The path z(τ) = unit((1 - τ)·y + τ·s·x), τ in [0, 1], runs toward x
    (s = 1, y too far) or toward -x (s = -1, too close).  Each row solves
    f(τ) = ‖x - z(τ)‖ - eps = 0 by regula falsi, Illinois variant (Dowell &
    Jarratt 1971): the weight of a bracket end kept twice in a row is
    halved.  Every step lands at least 2e-16 inside the bracket, twice as
    far for each further step that keeps the same end: that closes the
    bracket once one end is at the root, and gets the search off an end
    whose f is negligible next to the other's (eps below 1e-15).  The
    good end always has a computed f >= 0.  A row stops when its bracket
    is 4e-16 wide or f at the good end is exactly 0, and its τ is frozen
    from then on, so no row depends on the rest of its batch.  The whole
    batch steps until at most 1/8 of the rows are open, and those are
    then carried on alone.  The returned point is the good end, recomputed
    by the same expression, so feasibility survives rounding.  For eps
    within 1e-12 of 2 the partner is -x, the only one in exact
    arithmetic; its computed distance is 2 up to rounding.
    """
    if eps >= 2.0 - 1e-12:
        return -X
    coincident = _row_norms(X - Y, p) < 1e-9
    if coincident.any():
        Y = Y.copy()
        Y[coincident] = _unit_rows(np.roll(X[coincident], 1, axis=1), p)

    # the search runs in u = s·τ: the coefficient of x is u and 1 - τ is
    # 1 - s·u, both bit for bit ((-τ)·x is τ·(-x)), and the good end lies
    # below the bad end on both paths
    def path(X, Y, s, u):
        W = (1.0 - s * u)[:, None] * Y
        W += u[:, None] * X
        return _unit_rows(W, p)

    def gap(X, Y, s, u):
        return _row_norms(X - path(X, Y, s, u), p) - eps

    def secant(good, bad, fg, fb, push):
        # the regula falsi point, at least push (at most half the bracket)
        # inside the bracket; its temporaries die here, not in the loop
        t = fg * (bad - good)
        t /= fg - fb
        t += good
        d = np.minimum(push, 0.5 * (bad - good))
        np.fmax(t, good + d, out=t)
        return np.fmin(t, bad - d, out=t)

    m = len(X)
    f0 = gap(X, Y, np.ones(m), np.zeros(m))
    toward_x = f0 >= 0.0
    s = np.where(toward_x, 1.0, -1.0)
    f1 = gap(X, Y, s, s)
    good = np.where(toward_x, 0.0, -1.0)
    bad = good + 1.0
    fg = np.where(toward_x, f0, f1)
    fb = np.where(toward_x, f1, f0)
    del f0, f1   # each array held across the steps adds to peak memory
    # eps below the rounding of ‖x - x‖: the whole path is feasible
    whole = fb >= 0.0
    np.copyto(good, bad, where=whole)
    live = ~whole & (fg > 0.0)
    kept_bad = kept_good = np.zeros(m, dtype=bool)   # the end the last step kept
    push = np.full(m, 2e-16)   # least distance of the next step from either end
    rows = None
    Xw, Yw, sw = X, Y, s
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_PIN_STEPS):
            open_rows = np.count_nonzero(live)
            if open_rows == 0:
                break
            if rows is None and open_rows <= m // 8:
                u, rows = good, np.flatnonzero(live)
                Xw, Yw, sw = X[rows], Y[rows], s[rows]
                good, bad, fg, fb, kept_bad, kept_good, push = (
                    a[rows] for a in (good, bad, fg, fb, kept_bad, kept_good, push))
                live = np.ones(rows.size, dtype=bool)
            t = secant(good, bad, fg, fb, push)
            ft = gap(Xw, Yw, sw, t)
            up = ft >= 0.0
            up &= live
            down = live > up
            bad_again = up & kept_bad
            good_again = down & kept_good
            np.multiply(fb, 0.5, out=fb, where=bad_again)
            np.multiply(fg, 0.5, out=fg, where=good_again)
            push = np.where(bad_again | good_again, 2.0 * push, 2e-16)
            np.copyto(fg, ft, where=up)
            np.copyto(good, t, where=up)
            np.copyto(fb, ft, where=down)
            np.copyto(bad, t, where=down)
            kept_bad, kept_good = up, down
            live &= ft != 0.0
            live &= bad - good > 4e-16
            del t, ft   # not held through the next step's norms
    if rows is None:
        u = good
    else:
        u[rows] = good
    return path(X, Y, s, u)


def _gaussian_rows(rng, m: int, n: int, p: float) -> np.ndarray:
    G = rng.standard_normal((m, n))
    with np.errstate(over="ignore"):
        nr = _row_norms(G, p)
    # where Σ|g|^p overflows or leaves the normal range (every |g| < 0.03
    # at p = 200), the row is divided by its largest entry first; the
    # other rows get the bits of _unit_rows
    odd = ~((nr >= 2.0 ** (-1022.0 / p)) & (nr < np.inf))
    if odd.any():
        B = G[odd]
        B /= np.max(np.abs(B), axis=1, keepdims=True)
        G[odd] = B
        nr[odd] = _row_norms(B, p)
    return G / nr[:, None]


def _axis_seed_pairs(p: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic axis/diagonal sphere pairs that cover the classical
    extremal families for every exponent regime."""
    xs, ys = [], []
    ratios = np.geomspace(0.05, 1.0, 6)
    limit = min(n, 6)
    for i in range(limit):
        j = (i + 1) % n
        ei = np.zeros(n)
        ei[i] = 1.0
        ej = np.zeros(n)
        ej[j] = 1.0
        for s in ratios:
            xs.append(ei + s * ej)
            ys.append(ei - s * ej)
            xs.append(ei)
            ys.append(ei + s * ej)
        xs.append(ei)
        ys.append(ej)
        xs.append(ei + ej)
        ys.append(ei - ej)
    X = _unit_rows(np.array(xs), p)
    Y = _unit_rows(np.array(ys), p)
    return X, Y


def _coordinate_cands(base: np.ndarray, h: float) -> np.ndarray:
    n = base.size
    steps = np.vstack([h * np.eye(n), -h * np.eye(n)])
    return base[None, :] + steps


def _search_point(p: float, n: int, score, pin, budget: int, rounds: int, seed_seq) -> tuple[float, int]:
    """Smallest score(X, Y) found over sphere pairs, and the pairs examined.

    A Gaussian batch plus the axis seeds, then `rounds` of coordinate and
    random-cloud refinement around the incumbent at three step sizes;
    `pin` maps each candidate pair's Y back onto the constraint set.
    """
    rng = np.random.default_rng(seed_seq)
    evals = 0

    init = max(64, int(budget * 0.6))
    X = _gaussian_rows(rng, init, n, p)
    Y = _gaussian_rows(rng, init, n, p)
    Xs, Ys = _axis_seed_pairs(p, n)
    X = np.vstack([X, Xs])
    Y = np.vstack([Y, Ys])
    Y = pin(X, Y)
    vals = score(X, Y)
    evals += len(X)
    k = int(np.argmin(vals))
    best_x, best_y, best = X[k], Y[k], float(vals[k])

    remaining = max(0, budget - evals)
    cloud = max(16, remaining // max(rounds, 1) // 4) if rounds else 0
    h = 0.3
    for _ in range(rounds):
        for hh in (h, h / 4.0, h / 16.0):
            Xc = [_coordinate_cands(best_x, hh)]
            Yc = [np.repeat(best_y[None, :], 2 * n, axis=0)]
            Xc.append(np.repeat(best_x[None, :], 2 * n, axis=0))
            Yc.append(_coordinate_cands(best_y, hh))
            Xc.append(best_x[None, :] + hh * rng.standard_normal((cloud, n)))
            Yc.append(best_y[None, :] + hh * rng.standard_normal((cloud, n)))
            Xc = _unit_rows(np.vstack(Xc), p)
            Yc = _unit_rows(np.vstack(Yc), p)
            Yc = pin(Xc, Yc)
            v = score(Xc, Yc)
            evals += len(Xc)
            kk = int(np.argmin(v))
            if v[kk] < best:
                best = float(v[kk])
                best_x, best_y = Xc[kk], Yc[kk]
        h /= 4.0
    return best, evals


def _delta_point(p: float, n: int, eps: float, budget: int, rounds: int, seed_seq) -> tuple[float, int]:
    best, evals = _search_point(
        p, n, lambda X, Y: 1.0 - _row_norms(0.5 * (X + Y), p),
        lambda X, Y: _pin_pairs(p, X, Y, eps), budget, rounds, seed_seq)
    return max(best, 0.0), evals


def _rho_point(p: float, n: int, t: float, budget: int, rounds: int, seed_seq) -> tuple[float, int]:
    # minimizing 1 - s maximizes s - 1 bit for bit: fl(1 - s) = -fl(s - 1)
    best, evals = _search_point(
        p, n, lambda X, Y: 1.0 - 0.5 * (_row_norms(X + t * Y, p) + _row_norms(X - t * Y, p)),
        lambda X, Y: Y, budget, rounds, seed_seq)
    return float(np.clip(-best, 0.0, t)), evals


def _grid_map(fn, args_list, threads: int):
    if threads <= 1 or len(args_list) <= 1:
        return [fn(*a) for a in args_list]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, *a) for a in args_list]
        return [f.result() for f in futures]


def _validate_grid(grid, upper: float, name: str) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} grid must be a nonempty 1-d array")
    if np.any(~np.isfinite(g)) or np.any(g <= 0.0) or np.any(g > upper):
        raise ValueError(f"{name} grid entries must lie in (0, {upper:g}]")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError(f"{name} grid must be strictly increasing")
    return g


def _sample_curve(point, p: float, n: int, grid, upper: float, name: str, skip: int,
                  budget: int, seed: int, rounds: int, threads: int | None):
    # the argument checks and the grid loop of both estimators; ρ's seeded
    # estimates leave the first spawned seed unused, so it passes skip = 1
    LpSpace(p)
    if n < 2:
        raise ValueError("the moduli need dimension >= 2")
    if n > 10_600:
        # each refinement step builds (2n, n) candidate blocks in
        # _coordinate_cands, about 1.8 GB each at this n
        raise ValueError(f"the moduli support dimension <= 10600, got {n}")
    g = _validate_grid(grid, upper, name)
    seeds = np.random.SeedSequence(seed).spawn(g.size + skip)[skip:]
    work = [(p, n, float(a), int(budget), int(rounds), s) for a, s in zip(g, seeds)]
    results = _grid_map(point, work, thread_count(threads))
    return g, np.array([r[0] for r in results]), int(sum(r[1] for r in results))


def estimate_convexity_modulus(p: float, n: int, eps_grid, budget: int = 100_000,
                               seed: int = 0, rounds: int = 3,
                               threads: int | None = None) -> ModuliEstimate:
    """Sampled upper bounds on δ(ε) over a grid, as a monotone envelope.

    Post-processing takes running maxima of δ and of δ(ε)/ε, which keeps
    the upper-bound property while enforcing the two monotonicity laws
    the true modulus satisfies.
    """
    eps, vals, evals = _sample_curve(_delta_point, p, n, eps_grid, 2.0, "epsilon", 0,
                                     budget, seed, rounds, threads)
    ratio_env = np.maximum.accumulate(vals / eps)
    vals = eps * ratio_env
    return ModuliEstimate(p=float(p), n=int(n), epsilons=eps, delta_values=vals,
                          sample_count=evals, refinement_rounds=int(rounds))


def estimate_smoothness_modulus(p: float, n: int, t_grid, budget: int = 100_000,
                                seed: int = 0, rounds: int = 3,
                                threads: int | None = None) -> ModuliEstimate:
    """Sampled lower bounds on ρ(t) over a grid, as a monotone envelope.

    Values are clipped into [0, t] (the true modulus satisfies both ends)
    and made nondecreasing by a running maximum, which again preserves
    the lower-bound property.
    """
    ts, vals, evals = _sample_curve(_rho_point, p, n, t_grid, math.inf, "t", 1,
                                    budget, seed, rounds, threads)
    vals = np.maximum.accumulate(vals)
    return ModuliEstimate(p=float(p), n=int(n), ts=ts, rho_values=vals,
                          sample_count=evals, refinement_rounds=int(rounds))


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


# safety factors for the conservative envelopes: δ lowered, ρ raised
DELTA_ENVELOPE_SHRINK = 0.9
RHO_ENVELOPE_GROW = 1.1

#: a row whose left side exceeds this multiple of the bound is an anomaly
ANOMALY_FACTOR = 1.05


def _delta_inverse_table(est: ModuliEstimate, fit: PowerFit):
    eps_max = float(est.epsilons.max())
    grid = np.geomspace(min(1e-8, est.epsilons.min() / 10.0), eps_max, 4096)
    interp = np.interp(grid, est.epsilons, est.delta_values,
                       left=np.inf, right=np.inf)
    fitted = fit.a * grid ** fit.p_fit
    env = DELTA_ENVELOPE_SHRINK * np.minimum(interp, fitted)
    env = np.maximum.accumulate(np.maximum(env, 1e-300))
    return grid, env


def _rho_envelope(est: ModuliEstimate, fit: PowerFit, t: float) -> float:
    t_max = float(est.ts.max())
    if t > t_max * (1.0 + 1e-9):
        raise ValueError(f"rho argument {t:g} outside the estimated range (max {t_max:g})")
    interp = float(np.interp(t, est.ts, est.rho_values))
    fitted = fit.b * t ** fit.q_fit if math.isfinite(fit.b) else 0.0
    return RHO_ENVELOPE_GROW * max(interp, fitted)


def distance_bound_check(space: LpSpace, C, pairs, est: ModuliEstimate,
                         fit: PowerFit | None = None) -> BoundReport:
    """Check ‖Px - Py‖ <= k δ⁻¹(6 ρ(2‖x - y‖)) over explicit pairs.

    Uses conservative envelopes of the sampled moduli; rows violating the
    bound by more than `ANOMALY_FACTOR` are counted as anomalies.  Raises
    when an argument of δ⁻¹ or ρ lands outside the estimated range.
    """
    if est.epsilons.size == 0 or est.ts.size == 0:
        raise ValueError("the bound needs both modulus curves in the estimate")
    if fit is None:
        fit = fit_power_type(est)
    inv_grid, inv_env = _delta_inverse_table(est, fit)
    delta_top = float(inv_env[-1])

    rows = []
    anomalies = 0
    for x, y in pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        px = solver.project(space, C, x)
        py = solver.project(space, C, y)
        lhs = space.norm(px - py)
        dist = space.norm(x - y)
        if dist == 0.0:
            rows.append((lhs, 0.0, 2.0, 0.0, lhs <= 1e-12))
            continue
        k = 2.0 * max(1.0, space.norm(x - py), space.norm(px - y))
        arg = 6.0 * _rho_envelope(est, fit, 2.0 * dist)
        if arg > delta_top:
            raise ValueError(
                f"delta-inverse argument {arg:g} outside the estimated range "
                f"(max {delta_top:g}); extend the epsilon grid or shrink the pairs"
            )
        rhs = k * float(np.interp(arg, inv_env, inv_grid))
        ok = lhs <= ANOMALY_FACTOR * rhs + 1e-12
        if not ok:
            anomalies += 1
        rows.append((float(lhs), float(rhs), float(k), float(dist), bool(ok)))
    return BoundReport(rows=rows, count=len(rows), anomalies=anomalies)
