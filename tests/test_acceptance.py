"""Acceptance gate: twelve numbered criteria, one test and one verdict each.

Each criterion runs at its stated tolerance, asserts, and prints a single
PASS line with the measured worst case; a failing criterion fails its own
test, so the pytest report reads as the pass/fail sheet.  Tolerances here
are pinned on purpose and must not be loosened to make a run green.
"""
import time

import numpy as np
import pytest

from banachproj import (
    Ball,
    CoordinateSubspace,
    LpSpace,
    PolytopeH,
    PositiveCone,
    Ray,
    Segment,
    Singleton,
    cauchy_rate_probe,
    distance_bound_check,
    estimate_convexity_modulus,
    estimate_smoothness_modulus,
    fit_power_type,
    numdiff_derivative,
    project,
    project_with_certificate,
)
from banachproj import sets
from banachproj.derivative import directional_derivative
from banachproj.verify import duality_suite
from oracles import duality_smoothness, grid_project, lp_norm


def test_criterion_01_duality_identities():
    t0 = time.time()
    total = 0
    for i, p in enumerate((1.5, 2.0, 3.0, 4.0)):
        for j, n in enumerate((2, 3, 5, 8)):
            report = duality_suite(p=p, n=n, count=650, seed=100 + 16 * i + j)
            assert report.passed, f"p={p} n={n}:\n{report.summary()}"
            # judged at 1e-12 (pairing, dual norm) and 1e-10 (round trip)
            bounds = [c.detail.rsplit("tol ", 1)[1] for c in report.checks[:3]]
            assert bounds == ["1e-12", "1e-12", "1e-10"]
            total += 650
    elapsed = time.time() - t0
    assert total >= 10_000
    assert elapsed < 10.0
    print(f"PASS criterion 1: duality identities on {total} vectors in {elapsed:.2f}s")


def test_criterion_02_smoothness_split_identity():
    t0 = time.time()
    worst_overall = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        space = LpSpace(p)
        rng = np.random.default_rng(200 + int(10 * p))
        converged = 0
        worst = 0.0
        for _ in range(1000):
            x = space.unit(rng.standard_normal(4))
            v = space.unit(rng.standard_normal(4))
            psi = space.norm_smoothness(x, v)
            xi = duality_smoothness(space, x, v)
            if not xi.converged:
                # a pair whose quotients never settle has no xi to compare;
                # the convergence floor below keeps this honest
                continue
            converged += 1
            jxv = space.pairing(space.duality_map(x), v)
            worst = max(worst, abs(psi - 0.5 * (jxv + float(xi.estimate[0]))))
        assert converged >= 950, f"p={p}: only {converged}/1000 pairs settled"
        assert worst <= 1e-5, f"p={p}: worst split-identity gap {worst:.3e}"
        worst_overall = max(worst_overall, worst)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 2: split identity, worst gap {worst_overall:.3e} in {elapsed:.1f}s")


def test_criterion_03_ball_derivative_oracle_match():
    t0 = time.time()
    per_clause = 500
    worst_overall = 0.0
    for p in (1.5, 2.0, 3.0):
        space = LpSpace(p)
        rng = np.random.default_rng(300 + int(10 * p))
        center = rng.standard_normal(3) * 0.2
        radius = 1.3
        ball = Ball(center=center, radius=radius)
        projector = lambda z: project(space, ball, z)
        counts = {"ball:exterior": 0, "ball:sphere-up": 0, "ball:sphere-down": 0}
        worst = 0.0
        while min(counts.values()) < per_clause:
            v = rng.standard_normal(3)
            if counts["ball:exterior"] < per_clause:
                x = center + radius * rng.uniform(1.05, 2.5) * space.unit(rng.standard_normal(3))
            else:
                x = center + radius * space.unit(rng.standard_normal(3))
            analytic = directional_derivative(space, ball, x, v)
            if counts.get(analytic.case_label, per_clause) >= per_clause:
                continue
            numeric = numdiff_derivative(space, projector, x, v)
            if not numeric.converged:
                continue
            counts[analytic.case_label] += 1
            gap = space.norm(analytic.value - numeric.estimate)
            scale = max(1.0, space.norm(analytic.value))
            assert gap <= 1e-4 * scale, f"p={p} {analytic.case_label}: gap {gap:.3e}"
            worst = max(worst, gap / scale)
        worst_overall = max(worst_overall, worst)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 3: {per_clause}/clause/p vs numdiff, worst {worst_overall:.3e} in {elapsed:.1f}s")


def test_criterion_04_hilbert_closed_forms():
    space = LpSpace(2.0)
    rng = np.random.default_rng(400)
    ball = Ball(center=np.zeros(3), radius=1.0)
    worst_sphere = worst_ext = 0.0
    done_sphere = done_ext = 0
    while done_sphere < 1000 or done_ext < 1000:
        v = rng.standard_normal(3)
        if done_ext < 1000:
            x = space.unit(rng.standard_normal(3)) * rng.uniform(1.05, 3.0)
            got = directional_derivative(space, ball, x, v).value
            nx = space.norm(x)
            expected = (nx ** 2 * v - (x @ v) * x) / nx ** 3
            worst_ext = max(worst_ext, float(np.max(np.abs(got - expected))))
            done_ext += 1
        if done_sphere < 1000:
            x = space.unit(rng.standard_normal(3))
            up = v if x @ v > 0 else -v
            if abs(x @ up) < 1e-8:
                continue
            got = directional_derivative(space, ball, x, up).value
            expected = up - (x @ up) * x
            worst_sphere = max(worst_sphere, float(np.max(np.abs(got - expected))))
            done_sphere += 1
    assert worst_sphere <= 1e-10
    assert worst_ext <= 1e-10
    print(f"PASS criterion 4: Hilbert forms, sphere {worst_sphere:.1e}, exterior {worst_ext:.1e}")


def test_criterion_05_cone_case_table():
    # the nine coordinate clauses: x sign x v sign, rational inputs;
    # a positive coordinate passes v, a zero coordinate clamps v to v+,
    # a negative coordinate kills it
    space = LpSpace(3.0)
    cone = PositiveCone()
    pad_x, pad_v = 2.0, 0.25
    for sx, sv, expect in [
        (1.5, 0.75, 0.75), (1.5, 0.0, 0.0), (1.5, -0.75, -0.75),
        (0.0, 0.75, 0.75), (0.0, 0.0, 0.0), (0.0, -0.75, 0.0),
        (-1.5, 0.75, 0.0), (-1.5, 0.0, 0.0), (-1.5, -0.75, 0.0),
    ]:
        x = np.array([sx, pad_x, pad_x])
        v = np.array([sv, pad_v, pad_v])
        got = directional_derivative(space, cone, x, v).value
        assert got[0] == expect and got[1] == pad_v and got[2] == pad_v, (sx, sv, got)

    # full sign-pattern enumeration against the raw difference quotient
    reps_x = {-1: -0.7, 0: 0.0, 1: 1.3}
    reps_v = {-1: -0.9, 0: 0.0, 1: 0.8}
    projector = lambda z: np.maximum(z, 0.0)
    worst = 0.0
    patterns = 0
    for ax in (-1, 0, 1):
        for bx in (-1, 0, 1):
            for cx in (-1, 0, 1):
                for av in (-1, 0, 1):
                    for bv in (-1, 0, 1):
                        for cv in (-1, 0, 1):
                            if (av, bv, cv) == (0, 0, 0):
                                continue
                            x = np.array([reps_x[ax], reps_x[bx], reps_x[cx]])
                            v = np.array([reps_v[av], reps_v[bv], reps_v[cv]])
                            got = directional_derivative(space, cone, x, v).value
                            numeric = numdiff_derivative(space, projector, x, v)
                            assert numeric.converged
                            gap = float(np.max(np.abs(got - numeric.estimate)))
                            worst = max(worst, gap)
                            patterns += 1
    assert worst <= 1e-6
    print(f"PASS criterion 5: nine clauses exact, {patterns} sign patterns vs numdiff, worst {worst:.1e}")


def test_criterion_06_subspace_law():
    space = LpSpace(3.0)
    rng = np.random.default_rng(600)
    free = np.array([True, False, True, False, True])
    sub = CoordinateSubspace(free=free)
    worst_ortho = 0.0
    for _ in range(100):
        y = np.where(free, rng.standard_normal(5), 0.0)
        for _ in range(100):
            w = np.where(free, 0.0, rng.standard_normal(5))
            got = directional_derivative(space, sub, y, w).value
            worst_ortho = max(worst_ortho, float(np.max(np.abs(got))))
    assert worst_ortho <= 1e-6
    for _ in range(100):
        y = np.where(free, rng.standard_normal(5), 0.0)
        v = np.where(free, rng.standard_normal(5), 0.0)
        got = directional_derivative(space, sub, y, v).value
        assert np.array_equal(got, v)
    print(f"PASS criterion 6: annihilator directions give zero (worst {worst_ortho:.1e}), tangential pass through")


def test_criterion_07_structural_laws():
    space = LpSpace(3.0)
    rng = np.random.default_rng(700)
    ball = Ball(center=np.zeros(3), radius=1.0)

    worst_hom = 0.0
    for _ in range(50):
        x = space.unit(rng.standard_normal(3)) * rng.uniform(1.1, 2.5)
        v = rng.standard_normal(3)
        base = directional_derivative(space, ball, x, v).value
        for lam in (0.5, 2.0, 10.0):
            scaled = directional_derivative(space, ball, x, lam * v).value
            worst_hom = max(worst_hom, float(np.max(np.abs(scaled - lam * base))))
        xc = rng.standard_normal(3)
        vc = rng.standard_normal(3)
        cone_base = directional_derivative(space, PositiveCone(), xc, vc).value
        for lam in (0.5, 2.0, 10.0):
            scaled = directional_derivative(space, PositiveCone(), xc, lam * vc).value
            worst_hom = max(worst_hom, float(np.max(np.abs(scaled - lam * cone_base))))
    assert worst_hom <= 1e-12 * 10.0

    worst_retract = 0.0
    for _ in range(50):
        x = space.unit(rng.standard_normal(3)) * rng.uniform(1.1, 2.5)
        u = project(space, ball, x)
        for sign in (1.0, -1.0):
            got = directional_derivative(space, ball, x, sign * (x - u)).value
            worst_retract = max(worst_retract, space.norm(got))
    assert worst_retract <= 1e-6

    for _ in range(50):
        x = space.unit(rng.standard_normal(3)) * 0.5
        v = rng.standard_normal(3)
        got = directional_derivative(space, ball, x, v)
        assert np.array_equal(got.value, v) and got.case_label == "ball:interior"
        y = rng.standard_normal(3)
        got = directional_derivative(space, Singleton(y=y), y + rng.standard_normal(3), v)
        assert np.array_equal(got.value, np.zeros(3))
    print(f"PASS criterion 7: homogeneity {worst_hom:.1e}, retraction {worst_retract:.1e}, interior and singleton exact")


def _instances_for_certificates(rng, n):
    yield Ball(center=rng.standard_normal(n), radius=float(rng.uniform(0.5, 1.5)))
    yield PositiveCone()
    free = np.zeros(n, dtype=bool)
    free[: max(1, n - 1)] = True
    yield CoordinateSubspace(free=free)
    u = rng.standard_normal(n)
    yield Segment(u=u, w=u + rng.standard_normal(n))
    yield Ray(v=rng.standard_normal(n), dir=rng.standard_normal(n))
    yield Singleton(y=rng.standard_normal(n))
    eye = np.eye(n)
    hi = rng.uniform(0.4, 1.5, n)
    lo = -rng.uniform(0.4, 1.5, n)
    yield PolytopeH(normals=np.vstack([eye, -eye]), offsets=np.concatenate([hi, -lo]))


def test_criterion_08_certificates_and_grid_oracle():
    worst_res = np.inf
    for p in (1.5, 3.0):
        space = LpSpace(p)
        rng = np.random.default_rng(800 + int(10 * p))
        for n in (2, 3):
            for _ in range(5):
                for C in _instances_for_certificates(rng, n):
                    x = rng.standard_normal(n) * rng.uniform(0.3, 2.0)
                    res = project_with_certificate(space, C, x)
                    assert res.residual >= -1e-8, f"{type(C).__name__}: {res.residual:.3e}"
                    worst_res = min(worst_res, res.residual)

    # brute-force lattice cross-check on full-dimensional sets: the grid
    # incumbent must never undercut a certified projection materially
    worst_gap = 0.0
    for p in (1.5, 3.0):
        space = LpSpace(p)
        rng = np.random.default_rng(850 + int(10 * p))
        for n in (2, 3):
            x = rng.standard_normal(n) * 1.5
            cases = [
                (Ball(center=np.zeros(n), radius=1.0),
                 lambda Z: np.sum(np.abs(Z) ** p, axis=1) ** (1.0 / p) <= 1.0),
                (PositiveCone(), lambda Z: np.all(Z >= 0.0, axis=1)),
            ]
            for C, feasible in cases:
                u = project_with_certificate(space, C, x).point
                d_solver = lp_norm(x - u, p)
                _, d_grid = grid_project(p, feasible, x,
                                         lo=-2.0 * np.ones(n), hi=2.0 * np.ones(n))
                worst_gap = max(worst_gap, d_solver - d_grid)
                assert d_solver <= d_grid + 1e-3
    print(f"PASS criterion 8: min residual {worst_res:.1e}, worst solver-vs-grid gap {worst_gap:.1e}")


def test_criterion_09_inverse_image_geometry():
    rng = np.random.default_rng(900)
    for p in (1.5, 3.0):
        space = LpSpace(p)
        center = rng.standard_normal(3) * 0.3
        radius = 1.2
        ball = Ball(center=center, radius=radius)
        for _ in range(100):
            # the outward ray from a sphere point y projects back onto y
            y = center + radius * space.unit(rng.standard_normal(3))
            for t in (0.0, 0.5, 1.0, 5.0, 50.0):
                back = project(space, ball, y + t * (y - center))
                assert space.norm(back - y) <= sets._tolerance(space, y)

    space = LpSpace(3.0)
    free = np.array([True, False, True, False])
    C = CoordinateSubspace(free=free)
    worst = 0.0
    for _ in range(100):
        y = np.where(free, rng.standard_normal(4), 0.0)
        w = np.where(free, 0.0, rng.standard_normal(4))
        worst = max(worst, space.norm(project(space, C, y + w) - y))
    assert worst <= 1e-8

    K = PositiveCone()
    checked = 0
    for _ in range(100):
        y = np.abs(rng.standard_normal(3))
        x = rng.standard_normal(3) * rng.uniform(0.3, 2.0)
        t = float(rng.uniform(0.3, 3.0))
        # P(x) = y exactly when P(x + u - y) = u, for u = t y on the ray from the vertex 0
        u = t * y
        eff = max(sets._tolerance(space, y), sets._tolerance(space, x))
        lhs = space.norm(project(space, K, x) - y) <= eff
        rhs = space.norm(project(space, K, x + (u - y)) - u) <= eff
        assert lhs == rhs
        checked += 1
    print(f"PASS criterion 9: ray membership, subspace translation (worst {worst:.1e}), {checked} cone translations")


def test_criterion_10_moduli_exponents_and_bound():
    t0 = time.time()
    grid = np.geomspace(0.05, 0.8, 6)
    windows = {2.0: (2.0, 2.0), 3.0: (3.0, 2.0), 1.5: (2.0, 1.5)}
    for p, (pe, qe) in windows.items():
        d = estimate_convexity_modulus(p, 2, grid)
        r = estimate_smoothness_modulus(p, 2, grid)
        est = d.merged_with(r)
        fit = fit_power_type(est)
        assert abs(fit.p_fit - pe) <= 0.2, f"p={p}: p_fit {fit.p_fit:.3f}"
        assert abs(fit.q_fit - qe) <= 0.2, f"p={p}: q_fit {fit.q_fit:.3f}"
        assert np.all(np.diff(est.delta_values) >= -1e-15)
        assert np.all(np.diff(est.delta_values / est.epsilons) >= -1e-15)
        assert np.all(np.diff(est.rho_values) >= -1e-15)
        assert np.all((est.rho_values >= 0.0) & (est.rho_values <= est.ts + 1e-15))

    space = LpSpace(3.0)
    d3 = estimate_convexity_modulus(3.0, 3, np.geomspace(0.05, 1.9, 8))
    r3 = estimate_smoothness_modulus(3.0, 3, np.geomspace(0.02, 1.9, 8))
    est3 = d3.merged_with(r3)
    rng = np.random.default_rng(1000)
    anomalies = 0
    for C in (Ball(center=np.zeros(3), radius=1.0), PositiveCone()):
        # pair separations stay small enough that 6 rho(2 dist) lands inside
        # the estimated delta range; the bound is only informative there
        pairs = []
        for _ in range(1000):
            x = rng.standard_normal(3) * rng.uniform(0.3, 1.5)
            step = rng.standard_normal(3)
            step *= rng.uniform(0.0, 0.05) / max(space.norm(step), 1e-12)
            pairs.append((x, x + step))
        report = distance_bound_check(space, C, pairs, est3)
        assert report.anomaly_rate <= 0.05, f"{type(C).__name__}: {report.anomaly_rate:.3f}"
        anomalies += report.anomalies
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 10: exponents in windows, {anomalies} bound anomalies/2000 pairs in {elapsed:.0f}s")


def test_criterion_11_rate_probes():
    rng = np.random.default_rng(1100)
    instances = []
    for p in (1.5, 3.0):
        space = LpSpace(p)
        C = Ball(center=rng.standard_normal(3) * 0.3, radius=1.2)
        instances.append((space, C, C.center + np.array([1.1, 0.9, -0.7])))
    space3 = LpSpace(3.0)
    instances.append((space3, PositiveCone(), np.array([0.8, -0.6, 1.4])))
    instances.append((space3, CoordinateSubspace(free=np.array([True, False, True])),
                      np.array([0.5, 1.2, -0.9])))

    worst_final = 0.0
    for space, C, x in instances:
        dirs = [space.unit(rng.standard_normal(3)) for _ in range(32)]
        report = cauchy_rate_probe(space, lambda z: project(space, C, z), x, dirs,
                                   k_min=8, k_max=20)
        curve = np.asarray(report.uniform_sup_curve)
        tail = curve[curve.size // 2:]
        assert tail[-1] < 1e-5, f"{type(C).__name__}: final deviation {tail[-1]:.3e}"
        # the sup curve must keep shrinking along the tail; the measured
        # ratio is 0.5 per halving, so a 1.05 allowance only forgives noise,
        # and values under 1e-10 are rounding chatter with no rate content
        for a, b in zip(tail, tail[1:]):
            assert b <= 1.05 * a + 1e-10, f"{type(C).__name__}: tail rose {a:.3e} -> {b:.3e}"
        worst_final = max(worst_final, float(tail[-1]))
    print(f"PASS criterion 11: {len(instances)} instances, 32 directions, final sup deviation {worst_final:.1e}")


def test_criterion_12_nonexpansiveness_counterexample():
    space = LpSpace(4.0)
    C = Ball(center=np.zeros(3), radius=1.0)
    x = np.array([-0.4049278840870358, -0.10854382298902074, 1.0335952441812766])
    y = np.array([-0.5617119048046839, -0.10904083165378646, 0.9740428418431443])
    px = project(space, C, x)
    py = project(space, C, y)
    gap = space.norm(px - py) - space.norm(x - y)
    assert gap > 1e-6
    print(f"PASS criterion 12: frozen l4 ball pair expands by {gap:.3e}")
