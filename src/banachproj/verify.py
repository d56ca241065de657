"""Self-check suites over randomized inputs.

Each suite draws seeded random instances, evaluates a family of exact or
tolerance-based identities, and returns a SuiteReport listing every check
with its worst observed deviation.  The suites exist so a battery of
sanity checks can run from the command line against any (p, n) without
the test harness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver
from .derivative import directional_derivative
from .sets import (
    Ball,
    CoordinateSubspace,
    PolytopeH,
    PolytopeV,
    PositiveCone,
    Ray,
    Segment,
    Singleton,
    contains,
    orthogonal_cone_residual,
)
from .space import LpSpace

__all__ = ["CheckResult", "SuiteReport", "SUITES", "run_suite"]

# The bound each suite holds its checks to; a check's detail prints it.
DUALITY_TOL = 1e-12       # pairing and dual norm, relative
ROUNDTRIP_TOL = 1e-10     # J*(Jx) = x, relative: two powers deep
BALL_TOL = 1e-10
CONE_TOL = 1e-12
SUBSPACE_TOL = 1e-12
ANNIHILATOR_TOL = 1e-10   # J(x - Px) on the free coordinates
PROPERTIES4_TOL = 1e-8
HILBERT_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class SuiteReport:
    name: str
    checks: list

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "total": self.total,
            "failures": self.failures,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def summary(self) -> str:
        lines = [f"suite {self.name}: {self.total - self.failures}/{self.total} checks passed"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f"  ({c.detail})" if c.detail else ""))
        return "\n".join(lines)


class _Collector:
    def __init__(self, name: str):
        self.name = name
        self.checks: list[CheckResult] = []

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(ok), detail))

    def worst(self, name: str, dev: float, tol: float) -> None:
        self.check(name, dev <= tol, f"worst {dev:.3e}, tol {tol:.0e}")

    def report(self) -> SuiteReport:
        return SuiteReport(self.name, self.checks)


def _rng(count: int, seed: int) -> np.random.Generator:
    # every suite starts here, so none passes having checked nothing
    if count < 1:
        raise ValueError(f"a suite needs count >= 1, got {count}")
    return np.random.default_rng(seed)


def _sample(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    return rng.standard_normal((count, n)) * rng.uniform(0.2, 3.0, (count, 1))


def duality_suite(p: float = 3.0, n: int = 4, count: int = 1000, seed: int = 0) -> SuiteReport:
    """Duality-map identities on random nonzero vectors (vectorized)."""
    space = LpSpace(p)
    rng = _rng(count, seed)
    X = _sample(rng, count, n)
    X = X[np.max(np.abs(X), axis=1) > 1e-12]
    col = _Collector("duality")

    norms = np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p)
    J = norms[:, None] * (np.abs(X) / norms[:, None]) ** (p - 1.0) * np.sign(X)
    pair_dev = np.abs(np.sum(J * X, axis=1) - norms ** 2) / norms ** 2
    col.worst("pairing <Jx,x> = |x|^2 (relative)", float(pair_dev.max()), DUALITY_TOL)

    q = p / (p - 1.0)
    dual_norms = np.sum(np.abs(J) ** q, axis=1) ** (1.0 / q)
    dn_dev = np.abs(dual_norms - norms) / norms
    col.worst("dual norm |Jx|_q = |x|_p (relative)", float(dn_dev.max()), DUALITY_TOL)

    back = dual_norms[:, None] * (np.abs(J) / dual_norms[:, None]) ** (q - 1.0) * np.sign(J)
    rt_dev = np.max(np.abs(back - X), axis=1) / norms
    col.worst("round trip J*(Jx) = x (relative)", float(rt_dev.max()), ROUNDTRIP_TOL)

    j_single = np.array([space.duality_map(x) for x in X[:20]])
    col.worst("vectorized J matches scalar API", float(np.max(np.abs(j_single - J[:20]))), 1e-13)
    return col.report()


def ball_suite(p: float = 3.0, n: int = 4, count: int = 200, seed: int = 1) -> SuiteReport:
    """Ball projection: membership, idempotence, radial formula, certificate."""
    space = LpSpace(p)
    rng = _rng(count, seed)
    col = _Collector("ball")
    worst_member = worst_idem = worst_radial = 0.0
    worst_cert = np.inf
    for _ in range(count):
        c = rng.standard_normal(n)
        r = float(rng.uniform(0.3, 2.0))
        C = Ball(center=c, radius=r)
        x = c + rng.standard_normal(n) * rng.uniform(0.0, 3.0)
        res = solver.project_with_certificate(space, C, x)
        u = res.point
        worst_member = max(worst_member, space.norm(u - c) - r)
        worst_idem = max(worst_idem, space.norm(solver.project(space, C, u) - u))
        d = space.norm(x - c)
        expected = x if d <= r else c + (r / d) * (x - c)
        worst_radial = max(worst_radial, space.norm(u - expected))
        worst_cert = min(worst_cert, res.residual)
    col.worst("projection stays in the ball", worst_member, BALL_TOL)
    col.worst("idempotence P(Px) = Px", worst_idem, BALL_TOL)
    col.worst("matches the radial closed form", worst_radial, BALL_TOL)
    col.check("variational residual nonnegative", worst_cert >= -solver.CERT_TOL,
              f"min residual {worst_cert:.3e}")
    return col.report()


def cone_suite(p: float = 3.0, n: int = 4, count: int = 200, seed: int = 2) -> SuiteReport:
    """Positive-cone projection: clipping law, membership, certificate,
    and the coordinatewise derivative on random sign patterns."""
    space = LpSpace(p)
    rng = _rng(count, seed)
    C = PositiveCone()
    col = _Collector("cone")
    worst_clip = worst_member = 0.0
    worst_cert = np.inf
    worst_deriv = 0.0
    for _ in range(count):
        x = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
        res = solver.project_with_certificate(space, C, x)
        u = res.point
        worst_clip = max(worst_clip, float(np.max(np.abs(u - np.maximum(x, 0.0)))))
        worst_member = max(worst_member, float(np.max(-u, initial=0.0)))
        worst_cert = min(worst_cert, res.residual)
        v = rng.standard_normal(n)
        got = directional_derivative(space, C, x, v).value
        keep = (x > 0.0) | ((x == 0.0) & (v >= 0.0))
        worst_deriv = max(worst_deriv, float(np.max(np.abs(got - np.where(keep, v, 0.0)))))
    col.worst("projection equals coordinatewise clipping", worst_clip, CONE_TOL)
    col.worst("projection lands in the cone", worst_member, CONE_TOL)
    col.check("variational residual nonnegative", worst_cert >= -solver.CERT_TOL,
              f"min residual {worst_cert:.3e}")
    col.worst("derivative keeps exactly the active coordinates", worst_deriv, CONE_TOL)
    return col.report()


def subspace_suite(p: float = 3.0, n: int = 5, count: int = 200, seed: int = 3) -> SuiteReport:
    """Coordinate-subspace projection: masking law, membership, and the
    duality-orthogonality of the residual x - Px."""
    space = LpSpace(p)
    rng = _rng(count, seed)
    col = _Collector("subspace")
    worst_mask = worst_member = worst_ortho = worst_idem = 0.0
    for _ in range(count):
        free = rng.random(n) < 0.6
        if not free.any():
            free[0] = True
        if free.all():
            free[-1] = False
        C = CoordinateSubspace(free=free)
        x = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
        u = solver.project(space, C, x)
        worst_mask = max(worst_mask, float(np.max(np.abs(u - np.where(free, x, 0.0)))))
        worst_member = max(worst_member, float(np.max(np.abs(u[~free]), initial=0.0)))
        worst_idem = max(worst_idem, space.norm(solver.project(space, C, u) - u))
        if space.norm(x - u) > 1e-12:
            worst_ortho = max(worst_ortho, orthogonal_cone_residual(space, free, x - u))
    col.worst("projection zeroes the masked coordinates", worst_mask, SUBSPACE_TOL)
    col.worst("projection lies in the subspace", worst_member, SUBSPACE_TOL)
    col.worst("idempotence P(Px) = Px", worst_idem, SUBSPACE_TOL)
    col.worst("J(x - Px) vanishes on the free coordinates", worst_ortho, ANNIHILATOR_TOL)
    return col.report()


def _random_sets(rng: np.random.Generator, n: int):
    c = rng.standard_normal(n)
    yield Ball(center=c, radius=float(rng.uniform(0.4, 1.5)))
    yield PositiveCone()
    free = rng.random(n) < 0.5
    free[0] = True
    free[-1] = False
    yield CoordinateSubspace(free=free)
    u = rng.standard_normal(n)
    yield Segment(u=u, w=u + rng.standard_normal(n))
    yield Ray(v=rng.standard_normal(n), dir=rng.standard_normal(n))
    yield Singleton(y=rng.standard_normal(n))
    yield PolytopeV(vertices=rng.standard_normal((n + 2, n)))
    lo = rng.uniform(-2.0, -0.5, n)
    hi = rng.uniform(0.5, 2.0, n)
    eye = np.eye(n)
    yield PolytopeH(normals=np.vstack([eye, -eye]), offsets=np.concatenate([hi, -lo]))


def properties4_suite(p: float = 3.0, n: int = 3, count: int = 25, seed: int = 4) -> SuiteReport:
    """The four defining projection properties on every supported set type:
    membership of Px, idempotence, fixing of points already in the set, and
    minimality against random competitors from the set."""
    space = LpSpace(p)
    rng = _rng(count, seed)
    col = _Collector("properties4")
    worst_member_fail = 0
    worst_idem = worst_fix = worst_min = 0.0
    worst_cert = np.inf
    for _ in range(count):
        for C in _random_sets(rng, n):
            x = rng.standard_normal(n) * rng.uniform(0.3, 2.5)
            res = solver.project_with_certificate(space, C, x)
            u = res.point
            if not contains(space, C, u, tol=1e-7):
                worst_member_fail += 1
            worst_idem = max(worst_idem, space.norm(solver.project(space, C, u) - u))
            worst_cert = min(worst_cert, res.residual)
            d = space.norm(x - u)
            for z in list(C.sample(rng, n)):
                worst_fix = max(worst_fix, space.norm(solver.project(space, C, z) - z))
                worst_min = max(worst_min, d - space.norm(x - z))
    col.check("projection lands in the set", worst_member_fail == 0,
              f"{worst_member_fail} membership failures")
    col.worst("idempotence P(Px) = Px", worst_idem, PROPERTIES4_TOL)
    col.worst("points of the set are fixed", worst_fix, PROPERTIES4_TOL)
    col.worst("no sampled member beats the projection", worst_min, PROPERTIES4_TOL)
    col.check("variational residual nonnegative", worst_cert >= -solver.CERT_TOL,
              f"min residual {worst_cert:.3e}")
    return col.report()


def hilbert_suite(n: int = 4, count: int = 300, seed: int = 5) -> SuiteReport:
    """p = 2 degeneracies: J is the identity, the smoothness functionals
    collapse to the inner product, projections are nonexpansive, and the
    sphere derivative takes its classical closed form."""
    space = LpSpace(2.0)
    rng = _rng(count, seed)
    col = _Collector("hilbert")
    worst_j = worst_psi = worst_expand = worst_form = 0.0
    C = Ball(center=np.zeros(n), radius=1.0)
    for _ in range(count):
        x = rng.standard_normal(n)
        worst_j = max(worst_j, float(np.max(np.abs(space.duality_map(x) - x))))
        xu = space.unit(x)
        v = rng.standard_normal(n)
        vu = space.unit(v)
        worst_psi = max(worst_psi, abs(space.norm_smoothness(xu, vu) - float(xu @ vu)))
        y = rng.standard_normal(n)
        px = solver.project(space, C, x)
        py = solver.project(space, C, y)
        worst_expand = max(worst_expand, space.norm(px - py) - space.norm(x - y))
        if space.norm(x) > 1.0 + 1e-9:
            got = directional_derivative(space, C, x, v).value
            nx = space.norm(x)
            expected = (v - (x @ v) * x / nx ** 2) / nx
            worst_form = max(worst_form, float(np.max(np.abs(got - expected))))
    col.worst("duality map is the identity", worst_j, 1e-12)
    col.worst("norm derivative equals the inner product", worst_psi, HILBERT_TOL)
    col.check("projection onto the ball is nonexpansive",
              worst_expand <= 1e-10, f"worst expansion {worst_expand:.3e}")
    col.worst("exterior sphere derivative takes the classical form", worst_form, HILBERT_TOL)
    return col.report()


SUITES = {
    "duality": duality_suite,
    "ball": ball_suite,
    "cone": cone_suite,
    "subspace": subspace_suite,
    "properties4": properties4_suite,
    "hilbert": hilbert_suite,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    """Run one named suite; unknown names raise KeyError with the options."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
