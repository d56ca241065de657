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

The search reads only the best pinned pair of each batch, so a pair
stops pinning as soon as it cannot win.  In a normed plane ‖x - z‖ grows
as z runs along the unit circle from x to -x (the monotonicity lemma of
Minkowski geometry; Martini, Swanepoel & Weiß, Expo. Math. 19, 2001), and
so does the score 1 - ‖(x + z)/2‖.  Each pinning path runs along the
unit circle of span{x, y}, so the scores at the two ends of a pair's
bracket bound its final score from both sides.  A pair whose lower bound
exceeds the least upper bound seen (the incumbent's score in refinement
rounds) by 1e-12 is dropped.  Both bounds carry the pair's rounding
allowance: about 1e-14, as scores are O(1) and round near 1e-16, but
wider where a path passes next to the origin and growing with n.  So the
result is the one that pinning every pair along the same paths gives,
bit for bit.

`budget` counts candidate pairs examined per grid point.  Pinning adds
vectorized norm evaluations on top.  A path runs from y to s·x (s = ±1),
and its ends are taken as they are: y costs one norm call over 2 columns
per pair, x - y and (x + y)/2, while s·x costs none, as its distance
from x (0 or 2) and its score (0 or 1) are exact.  So the bad end's gap
is always below 0, and no path is feasible end to end.  Each secant step
then costs 3 columns, the path point's sphere map and its probe, until
the pair is dropped or pinned, at most 100 steps.  On batches of 60,000
pairs (p = 3, n = 2 and p = 1.5, n = 3) that is a mean of 1.4 to 2.4
steps per pair for ε up to 0.92 and 4.6 to 5.6 at ε = 1.9, against 9.6
for pinning every pair to the end.

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
    """Worker cap: the explicit argument, else all cores this process may
    run on (its affinity mask, where the platform has one)."""
    if requested is not None:
        return max(1, int(requested))
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
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

#: least normal double
_NORMAL = 2.0 ** -1022


def _norms(M: np.ndarray, p: float) -> np.ndarray:
    # the ℓ_p norms of the columns of M, summed row by row in order: for a
    # few rows that is NumPy's own order, bit for bit.  Short wide blocks
    # add row by row; tall ones use accumulate, the same sums in one call
    with np.errstate(over="ignore"):
        A = np.abs(M) ** p
    if A.shape[0] > A.shape[1]:
        total = np.add.accumulate(A, axis=0)[-1]
    else:
        total = A[0].copy()
        for k in range(1, A.shape[0]):
            total += A[k]
    nr = total ** (1.0 / p)
    # where Σ|m|^p overflows or leaves the normal range (every |m| < 0.03
    # at p = 200), the column is divided by its largest entry first; the
    # other columns keep their bits
    if total.size and not (total.min() >= _NORMAL and total.max() < np.inf):
        odd = ~((total >= _NORMAL) & (total < np.inf))
        B = np.abs(M[:, odd])
        top = B.max(axis=0)
        np.copyto(top, 1.0, where=top == 0.0)
        B /= top
        B **= p
        nr[odd] = top * B.sum(axis=0) ** (1.0 / p)
    return nr


def _unit(M: np.ndarray, p: float) -> np.ndarray:
    # scales the columns of M onto the sphere in place; a zero column stays
    nr = _norms(M, p)
    M /= np.where(nr < 1e-300, 1.0, nr)
    return M


def _unit_rows(M: np.ndarray, p: float) -> np.ndarray:
    """Scale the rows of M onto the unit sphere, in place, and return M."""
    _unit(M.T, p)
    return M


#: step cap of the pinning search; a row still open there keeps its good end
_PIN_STEPS = 100
#: entries per coordinate-major block of a batch (16k pairs at n = 2)
_BLOCK = 1 << 15
#: a row whose least reachable score exceeds the bound by this, beyond the
#: rounding allowances, is dropped; scores are O(1) and round near 1e-16
_MARGIN = 1e-12


def _blocks(X: np.ndarray, Y: np.ndarray):
    # the pairs as coordinate-major blocks (n, c) of about _BLOCK entries:
    # ufunc inner loops then run along the pairs, and temporaries stay small
    c = max(1, _BLOCK // X.shape[1])
    for a in range(0, len(X), c):
        yield a, X[a:a + c].T.copy(), Y[a:a + c].T.copy()


def _pinned_best(p: float, X: np.ndarray, Y: np.ndarray, eps: float,
                 bound: float) -> tuple[int, np.ndarray | None, float]:
    """Pin each y to ‖x - y‖_p = eps (feasible side); return the index, the
    pinned partner and the score 1 - ‖(x + z)/2‖ of the best row.

    X and Y hold unit rows, as `_unit_rows` leaves them: y is a path end
    as it stands, so a y off the sphere would score outside the rounding
    allowance.  Rows that cannot score below `bound` may be left out; if
    no row can, the score comes back as inf.  The batch runs in
    coordinate-major blocks of `_BLOCK` entries, the bound carried from
    block to block, and the lowest index wins a tie, as np.argmin over the
    whole batch would.
    For eps within 1e-12 of 2 the partner is -x, the only one in exact
    arithmetic (its computed distance is 2 up to rounding), and every row
    scores 1.
    """
    if eps >= 2.0 - 1e-12:
        return 0, -X[0], 1.0
    k, z, best = -1, None, math.inf
    for a, Xb, Yb in _blocks(X, Y):
        kb, zb, vb, bound = _pin_block(p, Xb, Yb, eps, bound)
        if vb < best:
            k, z, best = a + kb, zb, vb
    return k, z, best


def _pin_block(p: float, X: np.ndarray, Y: np.ndarray, eps: float, bound: float):
    """`_pinned_best` on one block of columns: (index, partner, score, bound).

    The path z(τ) = unit((1 - τ)·y + τ·s·x), τ in [0, 1], runs toward x
    (s = 1, y too far) or toward -x (s = -1, too close).  Its ends are
    taken as y and s·x themselves: y is probed, and s·x needs no norm, as
    ‖x - x‖ = 0 with score 0 toward x and ‖x - (-x)‖ = 2 with score 1
    toward -x.  So the bad end's gap is below 0 on both paths (-eps at x,
    y's own toward -x), and no path is feasible end to end.  Each row
    solves f(τ) = ‖x - z(τ)‖ - eps = 0 by regula falsi, Illinois variant
    (Dowell & Jarratt 1971): the weight of a bracket end kept twice in a
    row is halved.  Every step lands at least 2e-16 inside the bracket,
    twice as far for each further step that keeps the same end: that
    closes the bracket once one end is at the root, and gets the search
    off an end whose f is negligible next to the other's (eps below
    1e-15).  The good end always has a computed f >= 0.  A row stops when
    its bracket is 4e-16 wide or f at the good end is exactly 0, and its
    τ is frozen from then on, so no row depends on the rest of its batch.
    Its pinned partner is the good end: y itself, whose f was computed;
    -x itself, whose f is written as 2 - eps (computed ‖2x‖ is 2 up to
    rounding, above any eps below 2 - 1e-12); or the path point by the
    expression its f was computed at.  So feasibility survives rounding.
    The norm work per pair is one call over 2 columns (x - y and
    (x + y)/2) before the first step, then 3 columns per step (the path's
    sphere map and the probe).

    Each evaluation also scores its point.  By the monotonicity lemma
    (module docstring; ‖x + z‖ is the distance of z from -x), the score
    at a row's good end bounds its final score from above and the score
    at its bad end from below, each up to the row's rounding allowance.
    The bound is the least good-end score seen plus its allowance; an
    open row whose bad-end score less its allowance exceeds the bound by
    `_MARGIN` cannot win, and stops.  The working set is compacted
    whenever at most half of it is open.
    """
    # the coincidence test ‖x - y‖ < 1e-9 can flag only rows whose largest
    # entry is below 1e-9 (‖v‖_p >= max|v_i|); the screen sits at 2e-9,
    # as the rounded exponent 1/p can move a tiny norm by about 1e-14
    near = np.flatnonzero(np.abs(X - Y).max(axis=0) < 2e-9)
    if near.size:
        coincident = near[_norms(X[:, near] - Y[:, near], p) < 1e-9]
        if coincident.size:
            Y[:, coincident] = _unit(np.roll(X[:, coincident], 1, axis=0), p)

    # the search runs in u = s·τ: the coefficient of x is u and 1 - τ is
    # 1 - s·u, both bit for bit ((-τ)·x is τ·(-x)), and the good end lies
    # below the bad end on both paths
    def path(X, Y, s, u):
        W = (1.0 - s * u) * Y
        W += u * X
        return _unit(W, p)

    def probe(X, Z, T):
        # f and the score at the path point Z into T[1] and T[2], from one
        # norm call over x - z and (x + z)/2 side by side
        n, w = Z.shape
        S = np.empty((n, 2, w))
        np.subtract(X, Z, out=S[:, 0])
        np.add(X, Z, out=S[:, 1])
        S[:, 1] *= 0.5
        nr = _norms(S.reshape(n, 2 * w), p)
        np.subtract(nr[:w], eps, out=T[1])
        np.subtract(1.0, nr[w:], out=T[2])

    c = X.shape[1]
    # (u, f, score) at the end y, probed, and at the end s·x, exact
    end_y, end_x = np.empty((3, c)), np.empty((3, c))
    probe(X, Y, end_y)
    end_y[0] = 0.0
    toward_x = end_y[1] >= 0.0
    s = np.where(toward_x, 1.0, -1.0)
    end_x[0] = s
    end_x[1] = np.where(toward_x, -eps, 2.0 - eps)
    end_x[2] = np.where(toward_x, 0.0, 1.0)
    # the chord from y to s·x keeps L = 1 - ‖y - s·x‖/2 from the origin
    # (1 - ‖(x + y)/2‖ when s = -1), so a computed path point's score
    # strays at most (4/L + 4n + 16)·2^-53 from the exact, monotone one.
    # y, a unit row as `_unit_rows` leaves it, strays no further (no chord
    # point was rounded to reach it), and the scores written at ±x are
    # exact.  err covers two points, the end seen now and the end the row
    # stops at
    L = np.where(toward_x, 1.0 - 0.5 * (end_y[1] + eps), end_y[2]) - 1e-9
    err = (8.0 / np.maximum(L, 1e-300) + 8.0 * X.shape[0] + 32.0) * 2.0 ** -53
    del L
    # the good end (u, f, score) in rows 0-2 of E and the bad end in rows
    # 3-5, so that a step moves either end with one copyto
    E = np.empty((6, c))
    E[:3] = np.where(toward_x, end_y, end_x)
    E[3:] = np.where(toward_x, end_x, end_y)
    del end_y, end_x
    live = E[1] > 0.0
    kept_bad = kept_good = np.zeros(c, dtype=bool)   # the end the last step kept
    push = np.full(c, 2e-16)   # least distance of the next step from either end
    # u_all and v_all take each row's good end and its score (inf once
    # dropped) as the row leaves the working set `rows`
    rows = u_all = v_all = None
    Xw, Yw, sw = X, Y, s
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_PIN_STEPS):
            good, fg, vg, bad, fb, vb = E
            bound = min(bound, float((vg + err).min()))
            drop = vb - err > bound + _MARGIN
            drop &= live
            np.copyto(vg, np.inf, where=drop)
            live ^= drop
            open_rows = np.count_nonzero(live)
            if open_rows == 0:
                break
            if 2 * open_rows <= live.size:
                if rows is None:
                    u_all, v_all, rows = good, vg, np.arange(c)
                else:
                    u_all[rows] = good
                    v_all[rows] = vg
                keep = np.flatnonzero(live)
                rows, Xw, Yw, E = rows[keep], Xw[:, keep], Yw[:, keep], E[:, keep]
                sw, err, push = sw[keep], err[keep], push[keep]
                kept_bad, kept_good = kept_bad[keep], kept_good[keep]
                good, fg, vg, bad, fb, vb = E
                live = np.ones(keep.size, dtype=bool)
            # the regula falsi point, at least push (at most half the
            # bracket) inside the bracket
            T = np.empty((3, live.size))
            t = T[0]
            width = bad - good
            np.multiply(fg, width, out=t)
            t /= fg - fb
            t += good
            d = np.minimum(push, 0.5 * width)
            np.fmax(t, good + d, out=t)
            np.fmin(t, bad - d, out=t)
            probe(Xw, path(Xw, Yw, sw, t), T)
            up = T[1] >= 0.0
            up &= live
            down = live > up
            bad_again = up & kept_bad
            good_again = down & kept_good
            np.multiply(fb, 0.5, out=fb, where=bad_again)
            np.multiply(fg, 0.5, out=fg, where=good_again)
            push = np.where(bad_again | good_again, 2.0 * push, 2e-16)
            np.copyto(E[:3], T, where=up)
            np.copyto(E[3:], T, where=down)
            kept_bad, kept_good = up, down
            live &= T[1] != 0.0
            live &= bad - good > 4e-16
            del T, t, d, width   # not held through the next step's norms
    good, vg = E[0], E[2]
    if rows is None:
        u_all, v_all = good, vg
    else:
        u_all[rows] = good
        v_all[rows] = vg
    k = int(np.argmin(v_all))
    if v_all[k] == np.inf:
        return k, None, math.inf, bound
    if u_all[k] == 0.0:
        z = Y[:, k].copy()
    elif u_all[k] == s[k]:
        z = s[k] * X[:, k]
    else:
        z = path(X[:, k:k + 1], Y[:, k:k + 1], s[k:k + 1], u_all[k:k + 1])[:, 0]
    return k, z, float(v_all[k]), bound


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


def _search_point(p: float, n: int, best_of, budget: int, rounds: int, seed_seq) -> tuple[float, int]:
    """Smallest score found over sphere pairs, and the pairs examined.

    A Gaussian batch, the axis seeds, then `rounds` of coordinate and
    random-cloud refinement around the incumbent at three step sizes.
    `best_of(X, Y, bound)` returns the index, the partner and the score of
    a batch's best pair; a score of `bound` or more leaves the incumbent
    in place, so `best_of` may skip the rows that cannot beat it.
    """
    rng = np.random.default_rng(seed_seq)
    init = max(64, int(budget * 0.6))
    X = _unit_rows(rng.standard_normal((init, n)), p)
    Y = _unit_rows(rng.standard_normal((init, n)), p)
    best, best_x, best_y, evals = math.inf, None, None, 0
    for Xc, Yc in ((X, Y), _axis_seed_pairs(p, n)):
        k, z, v = best_of(Xc, Yc, best)
        evals += len(Xc)
        if v < best:
            best, best_x, best_y = v, Xc[k].copy(), z
    del X, Y

    remaining = max(0, budget - evals)
    cloud = max(16, remaining // max(rounds, 1) // 4) if rounds else 0
    h = 0.3
    # the candidates: x moved along ±e_i with y kept, x kept with y moved,
    # then a random cloud around both; each block written in place
    m = 4 * n
    for _ in range(rounds):
        for hh in (h, h / 4.0, h / 16.0):
            Xc = np.empty((m + cloud, n))
            Yc = np.empty((m + cloud, n))
            step = np.eye(n)
            step *= hh
            np.add(best_x, step, out=Xc[:n])
            np.subtract(best_x, step, out=Xc[n:2 * n])
            Xc[2 * n:m] = best_x
            Yc[:2 * n] = best_y
            np.add(best_y, step, out=Yc[2 * n:3 * n])
            np.subtract(best_y, step, out=Yc[3 * n:m])
            del step
            for C, base in ((Xc, best_x), (Yc, best_y)):
                rng.standard_normal(out=C[m:])
                C[m:] *= hh
                C[m:] += base
            _unit_rows(Xc, p)
            _unit_rows(Yc, p)
            k, z, v = best_of(Xc, Yc, best)
            evals += len(Xc)
            if v < best:
                best, best_x, best_y = v, Xc[k].copy(), z
            del Xc, Yc
        h /= 4.0
    return best, evals


def _delta_point(p: float, n: int, eps: float, budget: int, rounds: int, seed_seq) -> tuple[float, int]:
    best, evals = _search_point(
        p, n, lambda X, Y, bound: _pinned_best(p, X, Y, eps, bound),
        budget, rounds, seed_seq)
    return max(best, 0.0), evals


def _rho_point(p: float, n: int, t: float, budget: int, rounds: int, seed_seq) -> tuple[float, int]:
    # minimizing 1 - s maximizes s - 1 bit for bit: fl(1 - s) = -fl(s - 1)
    def best_of(X, Y, bound):
        v = np.empty(len(X))
        for a, Xb, Yb in _blocks(X, Y):
            Yb *= t
            v[a:a + Yb.shape[1]] = 1.0 - 0.5 * (_norms(Xb + Yb, p) + _norms(Xb - Yb, p))
        k = int(np.argmin(v))
        return k, Y[k].copy(), float(v[k])

    best, evals = _search_point(p, n, best_of, budget, rounds, seed_seq)
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
        # each refinement batch allocates two (4n + cloud, n) candidate
        # arrays and an (n, n) step matrix: about 8.7 GB at this n and
        # budget 1e5 (computed from the shapes, not measured)
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
