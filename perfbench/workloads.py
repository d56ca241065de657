"""The four benchmark workloads, each a fixed list of operations per round.

An operation is one closed-loop call into banachproj: the benchmark waits
for it to return before issuing the next, with a single caller.  Every
operation carries a check against an independent reference from
`reference.py`; the labels it returns name each failure:

  raise:<Exception>   the call raised
  uncertified         a certified projection came back with converged=False
  exit:<code>         a CLI command exited with a code other than 0
  anomaly, fit_window the program reported its own bound or fit as failed
  wrong:<what>        an answer the program presented as valid disagrees with
                      the reference, or a CLI report is not byte-stable

Only `wrong:` labels make a run incorrect; the others are honest failures
and count in `failed` (error_rate = failed / attempted).  The seed state
has three such defects, kept visible on purpose: V-polytope certificates
that miss CERT_TOL (polytope), numeric polytope derivatives that raise
ConvergenceError (polytope, cli), and `verify properties4` at its default
settings exiting 1 (cli).

Calls go through module attributes (`solver.project_with_certificate`,
not a name bound at import) so that the traced run, which swaps those
attributes, sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# imported lazily by `load_program`, after src/ is on sys.path
bp = solver = derivative = moduli = cli = None


def load_program(root: Path):
    global bp, solver, derivative, moduli, cli
    sys.path.insert(0, str(root / "src"))
    import banachproj as bp
    from banachproj import cli, derivative, moduli, solver


@dataclass(eq=False)     # hashed by identity: the same operation may recur in a round
class Op:
    kind: str                              # e.g. "project:ball"
    role: str | None                       # "op", "aux", or None (untimed role)
    call: Callable[[], object]
    check: Callable[[object], list]        # failure labels; [] means it passed
    attempts: int = 1                      # checked outcomes in one call
    per: int = 1                           # latency divisor (rows per call)


def once(fn):
    """Evaluate a reference lazily, after the timed round, and keep it."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def warm_each_kind(ops):
    """One untimed call per kind of operation, so lazy set-up is done."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.call()
            except Exception:   # recorded when the measured rounds repeat it
                pass


def _scale(*vs) -> float:
    return max(1.0, *(float(np.max(np.abs(v))) for v in vs))


def _raised(result) -> list | None:
    if isinstance(result, Exception):
        return [f"raise:{type(result).__name__}"]
    return None


def _check_projection(reference_ok):
    """Certified-projection check: converged flag, then the reference."""
    def check(res):
        raised = _raised(res)
        if raised:
            return raised
        if not res.converged:
            return ["uncertified"]
        return [] if reference_ok(res.point) else ["wrong:ref_miss"]
    return check


def _check_value(expected, tol):
    def check(res):
        raised = _raised(res)
        if raised:
            return raised
        want = expected()
        ok = np.max(np.abs(res.value - want)) <= tol * _scale(want)
        return [] if ok else ["wrong:ref_miss"]
    return check


def _secant_ok(space, C, x, v, value) -> bool:
    """D = P'(x; v) must match some secant (P(x+hv) - P(x))/h of the
    program's own projector for h in 2^-10..2^-14 to 1e-2 (polytopes whose
    derivative has no closed form to compare with)."""
    base = solver.project(space, C, x)
    gaps = [np.max(np.abs((solver.project(space, C, x + h * v) - base) / h - value))
            for h in (2.0 ** -10, 2.0 ** -12, 2.0 ** -14)]
    return min(gaps) <= 1e-2 * _scale(value)


# -----------------------------------------------------------------------------
# closed_form: why it exists
#
# Isolates the ℓ_p arithmetic (space), the closed-form projectors and
# membership tests (sets) and the canonical-probe certificates
# (solver.certify): balls, the positive cone, coordinate subspaces,
# segments, rays and singletons at p in {1.5, 3}, n in {3, 8}, query points
# inside and outside, plus directional derivatives on balls (exterior,
# sphere, interior), the cone and subspaces.  No iterative solver runs, so
# the polytope machinery and moduli are bypassed; numdiff runs only in the
# subspace clause's quotient check.  The support oracle and the batched
# ℓ_p kernel show here.  op = certified projection, aux = derivative.
# -----------------------------------------------------------------------------

class ClosedForm:
    INSTANCES = 6      # sets of each kind per (p, n)
    POINTS = 40        # query points per set

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 1])
        self.ops: list[Op] = []
        for p in (1.5, 3.0):
            space = bp.LpSpace(p)
            for n in (3, 8):
                for _ in range(self.INSTANCES):
                    self._add_sets(space, p, n, rng)

    def _project_ops(self, space, C, X, kind, refs, tol):
        for i, x in enumerate(X):
            self.ops.append(Op(
                f"project:{kind}", "op",
                lambda x=x: solver.project_with_certificate(space, C, x),
                _check_projection(lambda u, i=i, x=x: np.max(np.abs(u - refs()[i])) <= tol * _scale(x))))

    def _deriv_op(self, space, C, x, v, kind, expected):
        self.ops.append(Op(f"derivative:{kind}", "aux",
                           lambda: derivative.directional_derivative(space, C, x, v),
                           _check_value(once(expected), 1e-8)))

    def _add_sets(self, space, p, n, rng):
        Q = self.POINTS
        # ball: radial scale 0.2..2.5 puts about a third of the points inside
        c = rng.standard_normal(n)
        r = float(rng.uniform(0.5, 1.5))
        dirs = rng.standard_normal((Q, n))
        dirs /= np.array([ref.lp_norm(d, p) for d in dirs])[:, None]
        X = c + r * rng.uniform(0.2, 2.5, (Q, 1)) * dirs
        ball = bp.Ball(center=c, radius=r)
        self._project_ops(space, ball, X, "ball",
                          once(lambda X=X: [ref.ball(x, c, r, p) for x in X]), 1e-10)
        for k, x in enumerate(X[:12]):
            v = rng.standard_normal(n)
            # exterior, sphere and interior base points in turn
            if k % 3 == 1:
                x = c + r * (x - c) / ref.lp_norm(x - c, p)
            elif k % 3 == 2:
                x = c + 0.5 * r * (x - c) / ref.lp_norm(x - c, p)
            elif ref.lp_norm(x - c, p) <= r:
                x = c + 1.5 * r * (x - c) / ref.lp_norm(x - c, p)
            self._deriv_op(space, ball, x, v, "ball",
                           lambda x=x, v=v: ref.ball_derivative(x, v, c, r, p))

        # positive cone: a quarter of the points inside, some exact zeros
        X = 1.5 * rng.standard_normal((Q, n))
        X[: Q // 4] = np.abs(X[: Q // 4])
        X[Q // 2: 3 * Q // 4, 0] = 0.0
        self._project_ops(space, bp.PositiveCone(), X, "cone",
                          once(lambda X=X: [ref.clip(x) for x in X]), 0.0)
        for x in X[Q // 2: Q // 2 + 8]:
            v = rng.standard_normal(n)
            self._deriv_op(space, bp.PositiveCone(), x, v, "cone",
                           lambda x=x, v=v: ref.cone_derivative(x, v))

        # coordinate subspace: half the points already in it
        free = rng.random(n) < 0.5
        free[0], free[-1] = True, False       # proper and nonzero, then shuffled
        free = rng.permutation(free)
        sub = bp.CoordinateSubspace(free=free)
        X = 1.5 * rng.standard_normal((Q, n))
        X[: Q // 2] = np.where(free, X[: Q // 2], 0.0)
        self._project_ops(space, sub, X, "subspace",
                          once(lambda X=X: [ref.mask(x, free) for x in X]), 0.0)
        for x in X[Q // 2 - 4: Q // 2 + 4]:
            v = rng.standard_normal(n)
            self._deriv_op(space, sub, x, v, "subspace", lambda v=v: ref.mask(v, free))

        # segment and ray: a quarter of the points on the set itself
        for kind in ("segment", "ray"):
            a = rng.standard_normal(n)
            d = rng.standard_normal(n)
            X = a + 1.5 * rng.standard_normal((Q, n))
            X[: Q // 4] = a + rng.uniform(0.0, 1.0, (Q // 4, 1)) * d
            hi = 1.0 if kind == "segment" else None
            C = bp.Segment(u=a, w=a + d) if kind == "segment" else bp.Ray(v=a, dir=d)
            refs = once(lambda X=X, a=a, d=d, hi=hi: a + ref.line_params(X, a, d, p, hi)[:, None] * d)
            self._project_ops(space, C, X, kind, refs, 1e-6)

        y = rng.standard_normal(n)
        X = 1.5 * rng.standard_normal((Q, n))
        X[: Q // 4] = y
        self._project_ops(space, bp.Singleton(y=y), X, "singleton",
                          once(lambda: [y] * Q), 0.0)

    def warm(self):
        warm_each_kind(self.ops)


# -----------------------------------------------------------------------------
# polytope: why it exists
#
# Dominated by the iterative solver layer (SLSQP, the LP worst-probe,
# certificate line searches, coordinate polish) and by numdiff, which calls
# the solver once per difference step; space is a small share.  Axis boxes
# (exact answer: coordinate clip), boxes cut by three random rows, and
# V-polytopes of n+6 random vertices at p in {1.5, 3}, n in {3, 6}; one of
# three query points per set is inside and takes only the membership
# shortcut.  The solver trace and pruning show here, and this is the
# workload closed_form bypasses.  op = certified projection, aux = numeric
# derivative at an outside point of one set in three.  Runnable, traced or
# not, but not listed in BENCHMARK.json: on a shared 2-core machine its
# timings spread across seeds by more than the largest allowed bound.
# -----------------------------------------------------------------------------

class Polytope:
    # solver cost varies from set to set, so many sets with few points each
    INSTANCES = 10     # sets of each kind per (p, n)

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 2])
        self.ops: list[Op] = []
        self.sets = 0
        for p in (1.5, 3.0):
            space = bp.LpSpace(p)
            for n in (3, 6):
                for _ in range(self.INSTANCES):
                    self._add_sets(space, p, n, rng)

    def _add_sets(self, space, p, n, rng):
        lo = rng.uniform(-1.5, -0.3, n)
        hi = rng.uniform(0.3, 1.5, n)
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.concatenate([hi, -lo])
        self._add(space, bp.PolytopeH(normals=A, offsets=b), "box", rng.uniform(lo, hi), rng,
                  lambda x, u: np.max(np.abs(u - ref.clip(x, lo, hi))) <= 1e-6 * _scale(x),
                  lambda x, v: ref.box_derivative(x, v, lo, hi))

        # three random rows with positive offsets keep the origin inside
        R = rng.standard_normal((3, n))
        R /= np.linalg.norm(R, axis=1)[:, None]
        Ac = np.vstack([A, R])
        bc = np.concatenate([b, rng.uniform(0.2, 0.8, 3)])
        self._add(space, bp.PolytopeH(normals=Ac, offsets=bc), "cut", 0.02 * rng.standard_normal(n), rng,
                  lambda x, u: (np.max(Ac @ u - bc) <= 1e-8 * _scale(bc)
                                and ref.polytope_lp_residual(x, u, Ac, bc, p) >= -1e-7 * _scale(x - u)),
                  None)

        V = rng.standard_normal((n + 6, n))
        self._add(space, bp.PolytopeV(vertices=V), "vpoly", rng.dirichlet(np.ones(n + 6)) @ V, rng,
                  lambda x, u: (ref.hull_gap(u, V) <= 1e-8 * _scale(u)
                                and ref.vertex_residual(x, u, V, p) >= -1e-7 * _scale(x - u)),
                  None)

    def _add(self, space, C, kind, inside, rng, reference_ok, exact_derivative):
        n = inside.size
        X = np.vstack([inside, 2.5 * rng.standard_normal((2, n))])
        for x in X:
            self.ops.append(Op(
                f"project:{kind}", "op",
                lambda x=x: solver.project_with_certificate(space, C, x),
                _check_projection(lambda u, x=x: reference_ok(x, u))))
        # sets come in (box, cut, vpoly) triples; one numeric derivative per
        # triple, on each kind in turn
        self.sets += 1
        triple, position = divmod(self.sets - 1, 3)
        if position != triple % 3:
            return
        x, v = X[1], rng.standard_normal(n)
        if exact_derivative is not None:
            check = _check_value(once(lambda: exact_derivative(x, v)), 1e-3)
        else:
            def check(res):
                raised = _raised(res)
                if raised:
                    return raised
                return [] if _secant_ok(space, C, x, v, res.value) else ["wrong:ref_miss"]
        self.ops.append(Op(f"derivative:{kind}", "aux",
                           lambda: derivative.directional_derivative(space, C, x, v), check))

    def warm(self):
        warm_each_kind(self.ops)


# -----------------------------------------------------------------------------
# moduli: why it exists
#
# Dominated by the vectorised sampling kernels of the moduli estimators
# (Sobol points, the Γ(1/p) sphere map through scipy.stats, pair pinning)
# and their thread pool, which gets `threads` explicitly, capped at the
# cores this process may use.  δ and ρ at budget 1e5 on 6-point grids for
# (p=3, n=2) and (p=1.5, n=3), each checked one-sidedly against the exact
# ℓ_p curves (Clarkson/Lindenstrauss for p >= 2, Hanner and
# (1+t^p)^{1/p}-1 for p < 2), and fit_power_type against the exponent
# windows of acceptance criterion 10.  Then distance_bound_check on 2000
# near pairs (separation <= 0.05, the criterion-10 design) for the unit
# ball of ℓ_1.5^3, in calls of 250 rows; it calls the plain solver.project,
# the closed_form layer used differently.  The exact moduli and the lazy
# scipy.stats import show here.  op = one δ plus one ρ estimate
# (moduli_curve_s), aux = one bound-check row (two passes a round).
# -----------------------------------------------------------------------------

class Moduli:
    CONFIGS = ((3.0, 2, (3.0, 2.0)), (1.5, 3, (2.0, 1.5)))   # p, n, fit exponents
    EPS = np.geomspace(0.05, 1.9, 6)
    TS = np.geomspace(0.02, 1.9, 6)
    BUDGET = 100_000
    PAIRS, CHUNK = 2000, 250

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 3])
        self.threads = len(os.sched_getaffinity(0))
        self.rel_gap = 0.0
        self.est, self.fit = {}, {}
        curves = [self._curve_ops(p, n, exps, int(rng.integers(2 ** 31))) for p, n, exps in self.CONFIGS]
        p, n = self.CONFIGS[-1][:2]
        space = bp.LpSpace(p)
        pairs = []
        for _ in range(self.PAIRS):
            x = rng.standard_normal(n) * rng.uniform(0.3, 1.5)
            step = rng.standard_normal(n)
            step *= rng.uniform(0.0, 0.05) / ref.lp_norm(step, p)
            pairs.append((x, x + step))
        bound = [self._bound_op(space, n, p, pairs[k:k + self.CHUNK])
                 for k in range(0, self.PAIRS, self.CHUNK)]
        # the last configuration's curves come first, so that a bound pass
        # follows each configuration: passes apart in time give steadier minima
        self.ops = curves[-1] + bound + curves[0] + bound

    def _curve_ops(self, p, n, exps, est_seed) -> list[Op]:
        kw = dict(budget=self.BUDGET, seed=est_seed, threads=self.threads)

        def curves():
            d = moduli.estimate_convexity_modulus(p, n, self.EPS, **kw)
            r = moduli.estimate_smoothness_modulus(p, n, self.TS, **kw)
            self.est[p] = d.merged_with(r)
            return self.est[p]

        def check_curves(res):
            raised = _raised(res)
            if raised:
                return raised * (self.EPS.size + self.TS.size)
            exact_d = ref.exact_delta(res.epsilons, p)
            exact_r = ref.exact_rho(res.ts, p)
            gap_d = (res.delta_values - exact_d) / exact_d    # δ_est is an upper bound
            gap_r = (exact_r - res.rho_values) / exact_r      # ρ_est is a lower bound
            self.rel_gap = max(self.rel_gap, float(np.max(gap_d)), float(np.max(gap_r)))
            return (["wrong:delta_below_exact"] * int(np.sum(gap_d < -1e-9))
                    + ["wrong:rho_above_exact"] * int(np.sum(gap_r < -1e-9)))

        def fit():
            self.fit[p] = moduli.fit_power_type(self.est[p])
            return self.fit[p]

        def check_fit(res):
            ok = abs(res.p_fit - exps[0]) <= 0.2 and abs(res.q_fit - exps[1]) <= 0.2
            return _raised(res) or ([] if ok else ["fit_window"])

        return [Op("curves", "op", curves, check_curves, attempts=self.EPS.size + self.TS.size),
                Op("fit", None, fit, check_fit)]

    def _bound_op(self, space, n, p, pairs):
        C = bp.Ball(center=np.zeros(n), radius=1.0)
        lhs_ref = once(lambda: [ref.lp_norm(ref.ball(x, C.center, 1.0, p) - ref.ball(y, C.center, 1.0, p), p)
                                for x, y in pairs])

        def check_bound(res):
            raised = _raised(res)
            if raised:
                return raised * len(pairs)
            out = []
            for (lhs, _, _, _, ok), want in zip(res.rows, lhs_ref()):
                if abs(lhs - want) > 1e-10 * max(1.0, want):
                    out.append("wrong:lhs")
                elif not ok:
                    out.append("anomaly")
            return out

        return Op("bound", "aux",
                  lambda: moduli.distance_bound_check(space, C, pairs, self.est[p], fit=self.fit[p]),
                  check_bound, attempts=len(pairs), per=len(pairs))

    def warm(self):
        for p, n, _ in self.CONFIGS:
            moduli.estimate_convexity_modulus(p, n, self.EPS[:2], budget=500, threads=self.threads)
            moduli.estimate_smoothness_modulus(p, n, self.TS[:2], budget=500, threads=self.threads)


# -----------------------------------------------------------------------------
# cli: why it exists
#
# The only workload that measures the cli and reporting layers, interpreter
# start-up and package import (about 1.2 s of every command), and byte
# stability.  A fixed corpus covering every command runs sequentially as
# `python -m banachproj.cli` children: project (a 500-point ball batch and
# a polytope_h batch), derivative (ball, cone, polytope_v), classify,
# verify (every suite, at its default settings), rate on a ray, and moduli
# at a small budget; the corpus runs twice a round.  Three passes run every
# command in-process through cli.main as well, and every run must print the
# child's report byte for byte.
# op = one child command, aux = the same command in-process (no start-up).
# -----------------------------------------------------------------------------

def _suite_passed(summary: str) -> bool:
    """First line of a verify summary reads "suite <name>: k/total checks passed"."""
    k, total = summary.split(":", 1)[1].split()[0].split("/")
    return k == total


class Cli:
    INPROCESS = 3      # in-process passes over the corpus: cheap, and steadier as a minimum

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 4])
        self.root = root
        self.dir = root / ".bench_out" / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.child: dict = {}
        self.ops: list[Op] = []
        self.inprocess: list[Op] = []
        p, n = 3.0, 3
        space = bp.LpSpace(p)
        sp = {"p": p, "n": n}

        c = rng.standard_normal(n)
        r = float(rng.uniform(0.5, 1.5))
        Xb = c + 1.5 * rng.standard_normal((500, n))
        self._add("project", "project_ball",
                  {"space": sp, "set": {"type": "ball", "center": c.tolist(), "radius": r},
                   "inputs": Xb.tolist()},
                  lambda rep: all(e["converged"] for e in rep["results"]) and all(
                      np.max(np.abs(np.array(e["point"]) - ref.ball(x, c, r, p))) <= 1e-12 * _scale(x)
                      for e, x in zip(rep["results"], Xb)))

        lo, hi = rng.uniform(-1.5, -0.3, n), rng.uniform(0.3, 1.5, n)
        rows = [{"normal": e.tolist(), "offset": float(h)} for e, h in zip(np.eye(n), hi)]
        rows += [{"normal": (-e).tolist(), "offset": float(-l)} for e, l in zip(np.eye(n), lo)]
        Xh = 2.5 * rng.standard_normal((12, n))
        self._add("project", "project_box",
                  {"space": sp, "set": {"type": "polytope_h", "rows": rows}, "inputs": Xh.tolist()},
                  lambda rep: all(
                      np.max(np.abs(np.array(e["point"]) - ref.clip(x, lo, hi))) <= 1e-6 * _scale(x)
                      for e, x in zip(rep["results"], Xh)))

        x = c + 2.0 * rng.standard_normal(n)
        v = rng.standard_normal(n)
        self._add("derivative", "derivative_ball",
                  {"space": sp, "set": {"type": "ball", "center": c.tolist(), "radius": r},
                   "inputs": {"x": x.tolist(), "v": v.tolist()}},
                  lambda rep: np.max(np.abs(np.array(rep["analytic"]["value"])
                                            - ref.ball_derivative(x, v, c, r, p))) <= 1e-8 * _scale(v))
        xc = rng.standard_normal(n)
        xc[0] = 0.0
        vc = rng.standard_normal(n)
        self._add("derivative", "derivative_cone",
                  {"space": sp, "set": {"type": "positive_cone"},
                   "inputs": {"x": xc.tolist(), "v": vc.tolist()}},
                  lambda rep: np.array_equal(np.array(rep["analytic"]["value"]), ref.cone_derivative(xc, vc)))
        V = rng.standard_normal((n + 6, n))
        xv, vv = 2.5 * rng.standard_normal(n), rng.standard_normal(n)
        vpoly = bp.PolytopeV(vertices=V)
        self._add("derivative", "derivative_vpoly",
                  {"space": sp, "set": {"type": "polytope_v", "vertices": V.tolist()},
                   "inputs": {"x": xv.tolist(), "v": vv.tolist()}},
                  lambda rep: _secant_ok(space, vpoly, xv, vv, np.array(rep["analytic"]["value"])))

        y = c + r * (x - c) / ref.lp_norm(x - c, p)
        self._add("classify", "classify_ball",
                  {"space": sp, "set": {"type": "ball", "center": c.tolist(), "radius": r},
                   "inputs": {"x": y.tolist()}},
                  lambda rep: rep["tag"] == "cuticle"
                  and np.max(np.abs(np.array(rep["witness"]) - (y - c))) <= 1e-12 * _scale(y))

        for suite in sorted(bp.SUITES):
            self._add("verify", f"verify_{suite}", {"suite": suite},
                      _suite_passed, parse=False)

        a, d = rng.standard_normal(n), rng.standard_normal(n)
        xr = a + 1.5 * rng.standard_normal(n)
        dirs = rng.standard_normal((8, n))
        dirs /= np.array([ref.lp_norm(u, p) for u in dirs])[:, None]
        self._add("rate", "rate_ray",
                  {"space": sp, "set": {"type": "ray", "v": a.tolist(), "dir": d.tolist()},
                   "inputs": {"x": xr.tolist()}, "rate": {"directions": dirs.tolist()}},
                  lambda rep: abs(rep["uniform_sup_curve"][0] - self._rate_head(xr, dirs, a, d, p))
                  <= 1e-6 * max(1.0, rep["uniform_sup_curve"][0]))

        eps, ts = [0.1, 0.2, 0.4, 0.8, 1.6], [0.05, 0.1, 0.2, 0.4, 0.8]
        self._add("moduli", "moduli_small",
                  {"space": {"p": p, "n": 2}, "seed": int(rng.integers(2 ** 31)),
                   "moduli": {"curve": "both", "epsilons": eps, "ts": ts, "budget": 2000,
                              "threads": len(os.sched_getaffinity(0))}},
                  lambda rep: bool(np.all(np.array(rep["delta_values"]) >= ref.exact_delta(eps, p) * (1 - 1e-9))
                                   and np.all(np.array(rep["rho_values"]) <= ref.exact_rho(ts, p) * (1 + 1e-9))))
        # two passes of children with in-process passes between and after
        # them, so that each command's fastest run comes from apart in time
        children = self.ops
        self.ops = children + self.inprocess + children + self.inprocess * (self.INPROCESS - 1)
        # children cannot be traced from here: a traced round runs them once
        self.traced_ops = children + self.inprocess * self.INPROCESS

    @staticmethod
    def _rate_head(x, dirs, a, d, p):
        """Largest-step Cauchy deviation ‖D_t - D_s‖, t = 2^-8, s = 2^-9."""
        t, s = 2.0 ** -8, 2.0 ** -9
        pts = np.vstack([x[None, :], x + t * dirs, x + s * dirs])
        P = a + ref.line_params(pts, a, d, p, None)[:, None] * d
        m = len(dirs)
        qt = (P[1:1 + m] - P[0]) / t
        qs = (P[1 + m:] - P[0]) / s
        return max(ref.lp_norm(u, p) for u in qt - qs)

    def _add(self, command, name, config, content_ok, parse=True):
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

        def run_child():
            proc = subprocess.run([sys.executable, "-m", "banachproj.cli", *argv], cwd=self.root,
                                  env=env, capture_output=True, text=True, timeout=170)
            self.child[name] = (proc.returncode, proc.stdout)
            return self.child[name]

        def run_inprocess():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        def check_child(res):
            raised = _raised(res)
            if raised:
                return raised
            code, text = res
            if code != 0:
                return [f"exit:{code}"]
            try:
                ok = content_ok(json.loads(text) if parse else text)
            except (ValueError, KeyError, IndexError):
                ok = False
            return [] if ok else ["wrong:report"]

        def check_inprocess(res):
            return _raised(res) or ([] if res == self.child.get(name) else ["wrong:report_bytes"])

        self.ops.append(Op(f"cli:{name}", "op", run_child, check_child))
        self.inprocess.append(Op(f"inprocess:{name}", "aux", run_inprocess, check_inprocess))

    def warm(self):
        pass

    def close(self):
        for f in self.dir.glob("*.json"):
            f.unlink()
        self.dir.rmdir()


WORKLOADS = {"closed_form": ClosedForm, "polytope": Polytope, "moduli": Moduli, "cli": Cli}
