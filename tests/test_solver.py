"""Certified polytope projection: frozen instances, grid cross-checks, budgets."""
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from banachproj import (
    CERT_TOL,
    Ball,
    CoordinateSubspace,
    LpSpace,
    PolytopeH,
    PolytopeV,
    PositiveCone,
    Ray,
    Segment,
    Singleton,
    classify_point,
    contains,
    descriptor_to_json,
    directional_derivative,
    project,
    project_with_certificate,
    support,
)
from banachproj import sets as sets_mod
from banachproj.solver import _dual_gap, _project_hrep, _support_gap
from oracles import grid_argmin, grid_project, highs_support, lp_norm, probe_gap

SIMPLEX = PolytopeV(vertices=np.eye(3))

# a box with three oblique cuts at p = 4 on which the SLSQP solver once
# spent its whole 100,000-iteration budget (264 s) and stayed uncertified
CUT_BOX_R = np.array([
    [0.005421595461809626, 0.1472338363440977, 0.06657167416449997,
     -0.044913226513263474, -0.12869032588269513, -0.9773856035594946],
    [0.568161636159734, -0.05959233129643916, 0.41221087612029444,
     -0.546969565445949, 0.1801418041409418, -0.4148451852580735],
    [-0.517856697448416, 0.09711081529999846, 0.3986863364416245,
     0.5316903867615347, 0.5171939449423807, -0.11514726021340078],
])
CUT_BOX = PolytopeH(normals=np.vstack([np.eye(6), -np.eye(6), CUT_BOX_R]), offsets=[
    0.6873118512044054, 0.44715073223626667, 1.076024965284543, 0.5541085989392737,
    1.257843706518815, 0.9643193019952385, 0.9600840916999706, 0.4636155944773426,
    1.4730090684407784, 0.5804104376808388, 1.1385779482571063, 0.5218553641704176,
    0.22172917519762203, 0.6919148542472096, 0.7617921827335532])
CUT_BOX_X = np.array([0.5572889494886955, -0.3445596738419935, 2.066836084627908,
                      -4.618991052248645, 2.7838787469832997, -1.4996233235552492])


# one p = 1.2 projection of corpus B (PR 28's default_rng(7) corpus), a
# box cut by four rows: Newton's weights leave the weak-duality bound at
# -923, so the support LP (-3.2) and Frank–Wolfe finish it, at the vertex
# where rows 4 and 6 meet, the parent's point to the last bit
FALLBACK_P = 1.2
FALLBACK = PolytopeH(normals=np.vstack([np.eye(2), -np.eye(2), [
    [-0.9203315025983154, -0.39113926589531606], [-0.9937772624612621, -0.11138560326631033],
    [0.9977421129143278, -0.06716156726322522], [0.6402188888886222, 0.7681925372653772]]]),
    offsets=[0.6175111562261242, 0.6528314576480834, 1.109892410847337, 1.2792483677207405,
             0.341149179269687, 0.31736965352299434, 0.17885005240123464, 0.3404227824848916])
FALLBACK_X = np.array([-17.60406556872011, -15.83438172746199])
FALLBACK_POINT = np.array([0.10406236726739333, -1.117047282636568])


def cut_corpus():
    """240 seeded H projections: p in {1.5, 2, 3, 4}, n = 2..6, six sets per
    (p, n) of 1-3 unit cuts with offsets in [0.2, 0.8], 30% of them cuts
    alone (unbounded) and the rest under an axis box, two points x = 2 N(0, I)
    each."""
    rng = np.random.default_rng(2024)
    for p in (1.5, 2.0, 3.0, 4.0):
        for n in range(2, 7):
            for _ in range(6):
                R = rng.normal(size=(int(rng.integers(1, 4)), n))
                R /= np.linalg.norm(R, axis=1, keepdims=True)
                A, b = R, rng.uniform(0.2, 0.8, size=len(R))
                if rng.random() >= 0.3:
                    lo, hi = rng.uniform(-1.5, -0.3, size=n), rng.uniform(0.3, 1.5, size=n)
                    A, b = np.vstack([np.eye(n), -np.eye(n), R]), np.concatenate([hi, -lo, b])
                C = PolytopeH(normals=A, offsets=b)
                for _ in range(2):
                    yield p, C, 2.0 * rng.normal(size=n)


def vertex_corpus():
    """216 seeded V projections: for each seed 0-7 of default_rng([seed, 77]),
    p in {1.5, 3, 4} and n in {2, 3, 4}, the hull of n + 3 Gaussian vertices
    and three points x = 2 N(0, I) (203 of them outside the hull)."""
    for seed in range(8):
        rng = np.random.default_rng([seed, 77])
        for p in (1.5, 3.0, 4.0):
            for n in (2, 3, 4):
                C = PolytopeV(vertices=rng.normal(size=(n + 3, n)))
                for _ in range(3):
                    yield p, C, 2.0 * rng.normal(size=n)


def lp_dist(p, a, b):
    return lp_norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), p)


class TestCertify:
    def test_true_projection_certifies(self):
        space = LpSpace(2.0)
        x = np.array([2.0, 0.0, 0.0])
        u = np.array([1.0, 0.0, 0.0])
        assert _support_gap(space, SIMPLEX, x, u, 0, CERT_TOL).residual >= -1e-8

    def test_non_optimal_vertex_is_exposed(self):
        # p=2 so J(x-u) = (2,-1,0); the support vertex is e1 with score 2,
        # while <J,u> = -1, hence the residual is exactly -3
        space = LpSpace(2.0)
        x = np.array([2.0, 0.0, 0.0])
        u = np.array([0.0, 1.0, 0.0])
        assert _support_gap(space, SIMPLEX, x, u, 0, CERT_TOL).residual == -3.0

    def test_query_inside_set_scores_zero(self):
        space = LpSpace(2.0)
        inside = np.array([0.25, 0.25, 0.5])
        assert _support_gap(space, SIMPLEX, inside, inside, 0, CERT_TOL).residual == 0.0


def _support_cases(rng, n):
    """(descriptor, sampler of broad members) pairs for every set type."""
    c = rng.normal(size=n)
    a, d = rng.normal(size=n), rng.normal(size=n)
    V = rng.normal(size=(n + 3, n))
    A = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(2, n))])
    b = np.concatenate([np.full(2 * n, 1.5), [0.5, 0.5]])
    free = np.arange(n) % 2 == 0

    def ball(p, k):
        g = rng.normal(size=(k, n))
        g /= np.array([lp_norm(row, p) for row in g])[:, None]
        return c + 0.8 * rng.uniform(0.0, 1.0, (k, 1)) ** (1.0 / n) * g

    def polytope_h(p, k):
        Z = rng.uniform(-1.5, 1.5, (20 * k, n))
        return Z[np.all(Z @ A.T <= b, axis=1)]

    return [
        (Ball(center=c, radius=0.8), ball),
        (PositiveCone(), lambda p, k: np.abs(rng.normal(size=(k, n))) * 3.0),
        (CoordinateSubspace(free=free), lambda p, k: np.where(free, 3.0 * rng.normal(size=(k, n)), 0.0)),
        (Segment(u=a, w=a + d), lambda p, k: a + rng.uniform(0.0, 1.0, (k, 1)) * d),
        (Ray(v=a, dir=d), lambda p, k: a + rng.uniform(0.0, 20.0, (k, 1)) * d),
        (Singleton(y=c), lambda p, k: np.tile(c, (k, 1))),
        (PolytopeV(vertices=V), lambda p, k: rng.dirichlet(np.ones(n + 3), size=k) @ V),
        (PolytopeH(normals=A, offsets=b), polytope_h),
    ]


class TestSupportGap:
    def test_canonical_probe_blind_spot_is_exposed(self):
        # e1 is on the unit sphere and ties the old probes ±e_i and u at
        # exactly 0, yet lies about 0.5 from the true projection of x
        space = LpSpace(3.0)
        C = Ball(center=np.zeros(3), radius=1.0)
        x = np.array([2.0, 1.0, 0.5])
        u = np.array([1.0, 0.0, 0.0])
        probes = [s * e for s in (1.0, -1.0) for e in np.eye(3)] + [u]
        assert probe_gap(3.0, x, u, probes) == 0.0
        assert space.norm(u - project(space, C, x)) > 0.49
        j = space.duality_map(x - u)
        z = support(space, C, j, x, 2.0 * space.norm(x - u) + 1.0)
        assert probe_gap(3.0, x, u, [z]) < -CERT_TOL

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_support_point_beats_sampled_members(self, p, rng):
        space = LpSpace(p)
        n = 3
        for C, sample in _support_cases(rng, n):
            for _ in range(10):
                j = rng.normal(size=n)
                x = rng.normal(size=n)
                box = float(rng.uniform(6.0, 9.0))   # reaches every set here
                z = support(space, C, j, x, box)
                assert contains(space, C, z), type(C).__name__
                W = sample(p, 400)
                W = W[np.all(np.abs(W - x) <= box, axis=1)]
                assert len(W) > 0, type(C).__name__
                assert np.all(W @ j <= j @ z + 1e-9 * max(1.0, np.abs(j) @ np.abs(z))), \
                    type(C).__name__

    def test_failed_support_lp_never_certifies(self, monkeypatch):
        # the fallback instance: its weights do not certify, so the LP is asked
        monkeypatch.setattr(sets_mod, "support", lambda *args: None)
        cert = project_with_certificate(LpSpace(FALLBACK_P), FALLBACK, FALLBACK_X)
        assert not cert.converged
        assert cert.residual == -np.inf

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_far_exact_ball_projections_stay_certified(self, p, rng):
        # the gap's rounding error grows like eps * ‖x - u‖ * ‖z‖, far
        # above CERT_TOL at this scale; the rounding allowance absorbs it
        space = LpSpace(p)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            C = Ball(center=rng.normal(size=n), radius=float(rng.uniform(0.5, 2.0)))
            x = rng.normal(size=n)
            x *= 1e10 / space.norm(x)
            cert = project_with_certificate(space, C, x)
            assert cert.converged
            assert np.array_equal(cert.point, project(space, C, x))

    def test_far_ball_projections_with_cancelling_coordinates_stay_certified(self):
        # u = c + s(x - c) rounds each u_i with an error of order eps |c_i|,
        # which the pairing's own rounding term misses where u_i cancels to
        # |u_i| << |c_i|; an allowance without |c_i| leaves 5, 1 and 1 of
        # these uncertified at 1e9, 1e10 and 1e12
        rng = np.random.default_rng(0)
        spaces = [LpSpace(p) for p in (1.5, 2.0, 3.0, 4.0)]
        for scale in (1e8, 1e9, 1e10, 1e12):
            uncertified = 0
            for _ in range(10_000):
                space = spaces[int(rng.integers(4))]
                n = int(rng.integers(2, 9))
                C = Ball(center=rng.normal(size=n), radius=float(rng.uniform(0.5, 2.0)))
                x = rng.normal(size=n)
                x *= scale / space.norm(x)
                uncertified += not project_with_certificate(space, C, x).converged
            assert uncertified == 0, scale

    def test_allowance_stays_finite_next_to_overflow(self):
        # |j|·(|u| + |z|) overflows at this x, and an infinite allowance
        # would certify any point; scaled first, it is about 1e293
        space = LpSpace(3.0)
        C = Ball(center=np.zeros(2), radius=1.0)
        x = np.array([1e308, 1e308])
        with np.errstate(over="raise"):
            cert = project_with_certificate(space, C, x)
            wrong = _support_gap(space, C, x, np.array([1.0, 0.0]), 0, CERT_TOL)
        assert cert.converged
        assert np.array_equal(cert.point, project(space, C, x))
        assert not wrong.converged

    @pytest.mark.parametrize("shift", [0.0, 5.0])
    def test_center_allowance_still_rejects_the_e1_counterexample(self, shift):
        space = LpSpace(3.0)
        c = np.full(3, shift)
        C = Ball(center=c, radius=1.0)
        x = c + np.array([2.0, 1.0, 0.5])
        u = c + np.array([1.0, 0.0, 0.0])
        cert = _support_gap(space, C, x, u, 0, CERT_TOL)
        assert not cert.converged
        assert cert.residual < -0.1

    def test_exact_ball_projection_near_p1_stays_certified(self):
        # the support point c + r|j/‖j‖_q|^(q-1) sign j rounds q - 1 = 20
        # times worse than j at p = 1.05; an allowance without that term
        # had 2.485e-6 here against a residual of -2.607e-6
        space = LpSpace(1.05)
        C = Ball(center=[260.5919116373595, 666.3605925310518], radius=1000.0)
        x = np.array([-414366.29568610346, -891835.0956013884])
        cert = project_with_certificate(space, C, x)
        assert cert.residual < -CERT_TOL
        assert cert.converged

    def test_exact_far_ball_projections_near_p1_stay_certified(self):
        # 4 of 4000 of these were uncertified, and the CLI exited 4 on them
        rng = np.random.default_rng(1)
        space = LpSpace(1.05)
        uncertified = 0
        for _ in range(4000):
            n = int(rng.integers(2, 6))
            C = Ball(center=1e3 * rng.standard_normal(n), radius=1000.0)
            x = C.center + 1e6 * rng.standard_normal(n)
            uncertified += not project_with_certificate(space, C, x).converged
        assert uncertified == 0

    def test_overflowed_gap_never_certifies_a_wrong_point(self):
        # |j|·|c| overflows the allowance at this center, and an infinite
        # allowance certified a wrong point whose gap overflowed to -inf
        space = LpSpace(3.0)
        c = np.array([1e170, 1e170])
        C = Ball(center=c, radius=1e170)
        x = c + np.array([1e172, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            wrong = _support_gap(space, C, x, c + np.array([0.0, 1e170]), 0, CERT_TOL)
        assert wrong.residual == -np.inf
        assert not wrong.converged


class TestKernelIdentity:
    """The certificate's distance and J are the public norm and J, bit for bit."""

    @pytest.mark.parametrize("descriptor", [
        Ball(center=[0.3, -0.2, 0.1], radius=0.8),
        PositiveCone(),
        CoordinateSubspace(free=[True, False, True]),
        Segment(u=[0.0, 0.0, 0.0], w=[1.0, -1.0, 0.5]),
        Ray(v=[0.0, 1.0, 0.0], dir=[1.0, 0.0, -1.0]),
        Singleton(y=[1.0, 1.0, -1.0]),
    ], ids=lambda C: C.kind)
    def test_certificate_uses_the_public_norm_and_duality_map(self, descriptor, rng, monkeypatch):
        import banachproj.sets as sets_mod

        seen = []
        entry = sets_mod.support

        def spy(space, C, j, x, box):
            seen.append(j)
            return entry(space, C, j, x, box)

        monkeypatch.setattr(sets_mod, "support", spy)
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            for x in 2.0 * rng.standard_normal((10, 3)):
                x[int(rng.integers(3))] *= -0.0 if rng.uniform() < 0.3 else 1.0
                cert = project_with_certificate(space, descriptor, x)
                r = x - cert.point
                assert np.float64(cert.distance).tobytes() == np.float64(space.norm(r)).tobytes()
                assert seen.pop().tobytes() == space.duality_map(r).tobytes()


class TestVertexRepresentation:
    def test_euclidean_simplex_nearest_vertex(self):
        space = LpSpace(2.0)
        cert = project_with_certificate(space, SIMPLEX, np.array([2.0, 0.0, 0.0]))
        assert_allclose(cert.point, [1.0, 0.0, 0.0], atol=1e-9)
        assert cert.converged
        assert cert.residual >= -CERT_TOL
        assert_allclose(cert.distance, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_query_in_hull_returned_exactly(self, scale):
        # no membership LP runs first: the ℓ_2 Newton pass reaches an in-hull
        # x to rounding and returns x itself.  Without it, p = 1.05 stalled
        # for 100,000 steps and the 1e100 scale left most queries uncertified;
        # measured over these 600 queries: all exact, at most 11 steps
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, p = int(rng.integers(2, 5)), float(rng.choice([1.05, 1.2, 1.5, 2.0, 3.0, 4.0]))
            V = scale * rng.standard_normal((n + 3, n))
            x = rng.dirichlet(np.ones(n + 3)) @ V
            cert = project_with_certificate(LpSpace(p), PolytopeV(vertices=V), x)
            assert cert.converged
            assert np.array_equal(cert.point, x)
            assert cert.residual == 0.0 and cert.distance == 0.0
            assert cert.iterations <= 20

    def test_member_at_zero_tolerance(self):
        # ℓ_2 Newton lands 2.8e-17 from this point; it is still its own
        # projection, so membership holds at tol = 0
        x = np.array([0.1, 0.2, 0.7])
        for p in (1.05, 2.0, 3.0):
            assert np.array_equal(project(LpSpace(p), SIMPLEX, x), x)
            assert contains(LpSpace(p), SIMPLEX, x, tol=0.0)

    def test_single_vertex_hull(self):
        space = LpSpace(3.0)
        C = PolytopeV(vertices=np.array([[1.5, -2.0]]))
        cert = project_with_certificate(space, C, np.zeros(2))
        assert_allclose(cert.point, [1.5, -2.0], rtol=0, atol=0)
        assert cert.residual == 0.0
        assert cert.iterations == 0
        assert cert.converged

    def test_simplex_p3_face_optimum(self):
        # KKT by hand on the active face z3=0: 1.2-a = 0.9-b with a+b=1
        # gives (0.65, 0.35, 0); a multiresolution grid over the face
        # parameters confirms it to 1e-5
        space = LpSpace(3.0)
        x = np.array([1.2, 0.9, -0.4])
        cert = project_with_certificate(space, SIMPLEX, x)
        assert cert.converged
        assert_allclose(cert.point, [0.65, 0.35, 0.0], atol=1e-6)
        assert_allclose(cert.distance, 0.39675 ** (1.0 / 3.0), rtol=1e-9)

    def test_simplex_p3_matches_inline_grid_oracle(self):
        space = LpSpace(3.0)
        x = np.array([1.3, -0.2, 0.6])
        cert = project_with_certificate(space, SIMPLEX, x)

        def obj(ab):
            pts = np.stack([ab[:, 0], ab[:, 1], 1.0 - ab[:, 0] - ab[:, 1]], axis=1)
            return np.sum(np.abs(pts - x) ** 3.0, axis=1)

        feas = lambda ab: (ab[:, 0] >= 0.0) & (ab[:, 1] >= 0.0) & (ab.sum(axis=1) <= 1.0)
        ab, val = grid_argmin(obj, feas, np.zeros(2), np.ones(2), final_step=1e-4, pts=21)
        oracle_pt = np.array([ab[0], ab[1], 1.0 - ab[0] - ab[1]])
        assert cert.converged
        # the grid cannot beat the solver beyond its own resolution
        assert np.sum(np.abs(cert.point - x) ** 3.0) <= val + 1e-7
        assert_allclose(cert.point, oracle_pt, atol=5e-4)

    def test_six_vertex_hull_p4(self):
        space = LpSpace(4.0)
        V = np.array([
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0], [0.5, 0.0, 1.0], [0.0, 0.5, 0.5],
        ])
        C = PolytopeV(vertices=V)
        x = np.array([2.0, 1.5, -1.0])
        cert = project_with_certificate(space, C, x)
        assert cert.converged
        assert cert.residual >= -CERT_TOL
        assert_allclose(cert.point, [1.0, 1.0, 0.0], atol=1e-6)
        f = lambda z: np.sum(np.abs(x - z) ** 4.0)
        assert f(cert.point) <= min(f(v) for v in V) + 1e-10
        # reprojecting the answer, a vertex, stops at the nearest-vertex start
        again = project_with_certificate(space, C, cert.point)
        assert again.distance == 0.0
        assert again.iterations == 0

    def test_seeded_vertex_corpus_certifies(self):
        # SLSQP left 10 of the 203 outside points uncertified (worst residual
        # -6.3e-8); Newton on the hull weights certifies every one, with a
        # worst residual of -1.1e-14, in at most 12 steps
        worst = math.inf
        for p, C, x in vertex_corpus():
            cert = project_with_certificate(LpSpace(p), C, x)
            assert cert.converged
            assert cert.iterations <= 20
            worst = min(worst, cert.residual)
        assert worst >= -1e-13

    def test_near_boundary_points_are_projected_not_returned(self):
        # y = u + ε·unit(x - u) lies ε outside the hull, along the ray that
        # projects to u.  A hull-membership LP accepted most of these points
        # (all 198 at ε = 1e-9, 88 at 1e-7) and returned y as its own
        # projection; Newton brings every one back to u, certified
        rng = np.random.default_rng(3)
        outside = 0
        for _ in range(200):
            n, p = int(rng.integers(2, 5)), float(rng.choice([1.5, 3.0, 4.0]))
            space = LpSpace(p)
            C = PolytopeV(vertices=rng.standard_normal((n + 3, n)))
            x = 3.0 * rng.standard_normal(n)
            u = project_with_certificate(space, C, x)
            assert u.converged
            if u.distance < 1e-12:   # x in the hull
                continue
            outside += 1
            e = space.unit(x - u.point)
            for eps in (1e-9, 1e-8, 1e-7):
                y = u.point + eps * e
                cert = project_with_certificate(space, C, y)
                assert cert.converged
                assert not np.array_equal(cert.point, y)
                assert_allclose(cert.point, u.point, rtol=0, atol=1e-13)
            assert not contains(space, C, u.point + 1e-7 * e)
        assert outside == 198


class TestHalfspaceRepresentation:
    def test_single_halfspace_clips_one_coordinate(self):
        space = LpSpace(3.0)
        C = PolytopeH(normals=[[1.0, 0.0, 0.0]], offsets=[0.0])
        cert = project_with_certificate(space, C, np.array([1.0, -2.0, 3.0]))
        assert cert.converged
        assert_allclose(cert.point, [0.0, -2.0, 3.0], atol=1e-6)

    def test_euclidean_box(self):
        space = LpSpace(2.0)
        C = PolytopeH(
            normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            offsets=[1.0, 0.0, 1.0, 0.0],
        )
        cert = project_with_certificate(space, C, np.array([2.0, 0.5]))
        assert cert.converged
        assert_allclose(cert.point, [1.0, 0.5], atol=1e-9)

    def test_euclidean_halfplane_foot(self):
        space = LpSpace(2.0)
        C = PolytopeH(normals=[[1.0, 1.0]], offsets=[1.0])
        cert = project_with_certificate(space, C, np.array([1.0, 1.0]))
        assert cert.converged
        assert_allclose(cert.point, [0.5, 0.5], atol=1e-9)

    def test_polygon_p15_face_optimum(self):
        # active row z1+z2 <= 1.2; on that line 1.6-z = z+0.1 gives
        # (0.75, 0.45), confirmed by a grid projection oracle
        space = LpSpace(1.5)
        C = PolytopeH(
            normals=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -0.5]],
            offsets=[1.2, 0.4, 0.5, 0.9],
        )
        cert = project_with_certificate(space, C, np.array([1.6, 1.3]))
        assert cert.converged
        assert_allclose(cert.point, [0.75, 0.45], atol=1e-6)

    def test_polygon_p15_matches_inline_grid_oracle(self):
        space = LpSpace(1.5)
        A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -0.5]])
        b = np.array([1.2, 0.4, 0.5, 0.9])
        C = PolytopeH(normals=A, offsets=b)
        x = np.array([-1.3, 1.7])
        cert = project_with_certificate(space, C, x)
        feas = lambda Z: np.all(Z @ A.T <= b + 1e-12, axis=1)
        pt, val = grid_project(1.5, feas, x, np.array([-2.0, -2.0]),
                               np.array([2.0, 2.0]), final_step=1e-4, pts=21)
        assert cert.converged
        assert lp_dist(1.5, cert.point, x) <= val + 1e-7
        assert_allclose(cert.point, pt, atol=5e-4)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_cone_encoding_matches_closed_form(self, p, rng):
        space = LpSpace(p)
        C = PolytopeH(normals=-np.eye(3), offsets=np.zeros(3))
        for _ in range(10):
            x = rng.normal(size=3) * 2.0
            cert = project_with_certificate(space, C, x)
            assert cert.converged
            assert lp_dist(p, cert.point, project(space, PositiveCone(), x)) <= 1e-6

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_subspace_encoding_matches_closed_form(self, p, rng):
        space = LpSpace(p)
        free = np.array([True, False, True])
        A = np.zeros((2, 3))
        A[0, 1], A[1, 1] = 1.0, -1.0
        C = PolytopeH(normals=A, offsets=np.zeros(2))
        for _ in range(10):
            x = rng.normal(size=3) * 2.0
            cert = project_with_certificate(space, C, x)
            assert cert.converged
            assert lp_dist(p, cert.point, project(space, CoordinateSubspace(free=free), x)) <= 1e-6

    def test_query_inside_returned_exactly(self):
        space = LpSpace(1.5)
        C = PolytopeH(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 1.0])
        x = np.array([0.2, -0.7])
        cert = project_with_certificate(space, C, x)
        assert np.array_equal(cert.point, x)
        assert cert.iterations == 0
        assert cert.residual == 0.0

    def test_oblique_rows_certify(self, rng):
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            for _ in range(5):
                A = rng.normal(size=(5, 4))
                z = rng.normal(size=4)
                b = A @ z + rng.uniform(0.1, 1.0, size=5)
                C = PolytopeH(normals=A, offsets=b)
                cert = project_with_certificate(space, C, rng.normal(size=4) * 3.0)
                assert cert.converged
                assert cert.residual >= -CERT_TOL
                assert np.all(A @ cert.point <= b + 1e-9)

    def test_regression_cut_box_certifies_fast(self):
        start = time.perf_counter()
        cert = project_with_certificate(LpSpace(4.0), CUT_BOX, CUT_BOX_X)
        assert time.perf_counter() - start < 1.0
        assert cert.converged
        active = CUT_BOX.normals @ cert.point >= CUT_BOX.offsets - 1e-9
        assert np.flatnonzero(active).tolist() == [4, 7, 9, 13, 14]

    def test_seeded_cut_corpus_certifies(self):
        # the SLSQP solver certified these too, but its worst residual was
        # -4.9e-9; the dual's is -8.1e-15
        worst = math.inf
        for p, C, x in cut_corpus():
            cert = project_with_certificate(LpSpace(p), C, x)
            assert cert.converged
            assert np.all(C.normals @ cert.point <= C.offsets + 1e-9)
            worst = min(worst, cert.residual)
        assert worst >= -1e-13


class TestDualCertificate:
    """H projections certified by weak duality from Newton's weights."""

    def test_cut_corpus_certifies_without_lp_below_the_highs_residual(self, monkeypatch):
        # the bound is a lower bound on the support gap; against the HiGHS
        # twin it was at most 1.6e-15 above it (rounding), worst bound -3.0e-14
        monkeypatch.setattr(PolytopeH, "support", lambda *args: pytest.fail("support LP asked"))
        for p, C, x in list(cut_corpus()) + [(4.0, CUT_BOX, CUT_BOX_X)]:
            space = LpSpace(p)
            cert = project_with_certificate(space, C, x)
            assert cert.converged
            if cert.iterations:
                u = cert.point
                j = space.duality_map(x - u)
                z = highs_support(C.normals, C.offsets, j, x, 2.0 * space.norm(x - u) + 1.0)
                assert cert.residual <= float(j @ (u - z)) + 1e-14
                assert cert.residual >= -1e-13

    def test_bound_fails_and_the_lp_with_frank_wolfe_certifies(self, monkeypatch):
        space = LpSpace(FALLBACK_P)
        u, lam, iterations = _project_hrep(space, FALLBACK, FALLBACK_X, 5000)
        box = 2.0 * space.norm(FALLBACK_X - u) + 1.0
        assert not _dual_gap(space, FALLBACK, FALLBACK_X, u, lam, iterations, CERT_TOL, box).converged
        assert not _support_gap(space, FALLBACK, FALLBACK_X, u, iterations, CERT_TOL, box).converged
        calls = []
        lp = PolytopeH.support
        monkeypatch.setattr(PolytopeH, "support", lambda *args: calls.append(1) or lp(*args))
        cert = project_with_certificate(space, FALLBACK, FALLBACK_X)
        assert cert.converged and len(calls) > 1   # Frank–Wolfe asked for support points
        assert_allclose(cert.point, FALLBACK_POINT, rtol=0.0, atol=1e-15)
        vertex = np.linalg.solve(FALLBACK.normals[[4, 6]], FALLBACK.offsets[[4, 6]])
        assert_allclose(cert.point, vertex, rtol=0.0, atol=1e-15)

    def test_nan_or_infinite_weights_never_certify(self):
        space = LpSpace(3.0)
        x, u = np.array([3.0, 0.5]), np.array([1.0, 0.5])
        C = PolytopeH(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 1.0])
        for lam in ([np.nan, 0.0], [np.inf, 0.0], [1e308, 1e308]):
            cert = _dual_gap(space, C, x, u, np.array(lam), 1, CERT_TOL, 5.0)
            assert not cert.converged
        assert _dual_gap(space, C, x, u, np.array([1.0, 0.0]), 1, CERT_TOL, 5.0).converged
        # zero weights certify only a point that is its own projection (j = 0)
        assert not _dual_gap(space, C, x, u, np.zeros(2), 0, CERT_TOL, 5.0).converged
        assert _dual_gap(space, C, u, u, np.zeros(2), 0, CERT_TOL, 1.0).residual == 0.0


class TestIterationBudget:
    # frozen oblique instance on which a few dual steps still leave a
    # certificate gap of about -0.09, so a unit iteration budget must be
    # reported as a failure while the best iterate stays available
    A = np.array([
        [-2.138225589513189, -1.4499480667813884, 0.7959134126817742],
        [-0.590149399040946, 0.5799149234726574, 0.5423442548146441],
        [1.3222788582368146, 0.8118590596762011, 1.0169913501666112],
        [-0.11167133066420938, -0.6982851765628781, -0.731558777725664],
        [-0.4880439402887327, -1.1298291140131056, -0.5474435821203582],
    ])
    b = np.array([
        -0.2744916906389562, 0.1288005910347735, -0.037102139865458905,
        0.3565871002342095, 0.1250428045750588,
    ])
    x = np.array([-2.574242744582038, -2.8951062404988717, 8.042390089502893])

    def test_exhausted_budget_reports_failure_with_best_iterate(self):
        space = LpSpace(3.0)
        C = PolytopeH(normals=self.A, offsets=self.b)
        cert = project_with_certificate(space, C, self.x, max_iter=1)
        assert not cert.converged
        assert cert.residual < -CERT_TOL
        assert np.all(np.isfinite(cert.point))
        assert np.all(self.A @ cert.point <= self.b + 1e-9)

    def test_full_budget_converges_and_improves(self):
        space = LpSpace(3.0)
        C = PolytopeH(normals=self.A, offsets=self.b)
        capped = project_with_certificate(space, C, self.x, max_iter=1)
        full = project_with_certificate(space, C, self.x)
        assert full.converged
        assert full.residual >= -CERT_TOL
        assert full.distance <= capped.distance + 1e-12

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, None])
    def test_budget_must_be_a_positive_integer(self, max_iter):
        # 0 and -3 once ran anyway and reported one iteration, converged
        space = LpSpace(3.0)
        box = PolytopeH(normals=np.vstack([np.eye(3), -np.eye(3)]), offsets=np.ones(6))
        hull = PolytopeV(vertices=np.vstack([np.eye(3), -np.eye(3)[:2]]))
        for C in (box, hull, PositiveCone()):
            with pytest.raises(ValueError, match="max_iter"):
                project_with_certificate(space, C, np.array([3.0, -2.0, 0.5]), max_iter=max_iter)
        assert project_with_certificate(space, box, np.array([3.0, -2.0, 0.5]),
                                        max_iter=np.int64(50)).converged

    @pytest.mark.parametrize("cert_tol", [-1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, cert_tol):
        # -1 once reported an exact cone projection as unconverged
        space = LpSpace(3.0)
        for C in (PositiveCone(), PolytopeV(vertices=np.eye(3))):
            with pytest.raises(ValueError, match="cert_tol"):
                project_with_certificate(space, C, np.array([1.0, -2.0, 3.0]), cert_tol=cert_tol)

    def test_every_small_budget_is_kept_and_feasible(self):
        # Newton and Frank–Wolfe steps share max_iter; a cut-short run still
        # returns a point of the set (on the rows at membership scale
        # 1e-9 max(1, |b|), or in the hull), and a budget of at least the
        # unbounded run's step count gives that run's certified point
        p, hull, hull_x = list(vertex_corpus())[141]   # the corpus' slowest: 12 steps
        cases = [(LpSpace(3.0), PolytopeH(normals=self.A, offsets=self.b), self.x),
                 (LpSpace(4.0), CUT_BOX, CUT_BOX_X), (LpSpace(p), hull, hull_x)]
        for space, C, x in cases:
            full = project_with_certificate(space, C, x)
            assert full.converged
            for max_iter in range(1, 41):
                cert = project_with_certificate(space, C, x, max_iter=max_iter)
                assert cert.iterations <= max_iter
                if C is hull:
                    assert contains(space, C, cert.point)
                else:
                    slack = 1e-9 * max(1.0, np.abs(C.offsets).max())
                    assert np.all(C.normals @ cert.point <= C.offsets + slack)
                if max_iter >= full.iterations:
                    assert cert.converged
                    assert np.array_equal(cert.point, full.point)


# one 2-d descriptor of every type that pins its dimension
PINNED_2D = {
    "ball": Ball(center=[0.0, 0.0], radius=1.0),
    "subspace": CoordinateSubspace(free=[True, False]),
    "polytope_h": PolytopeH(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 1.0]),
    "polytope_v": PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "segment": Segment(u=[0.0, 0.0], w=[1.0, 0.0]),
    "ray": Ray(v=[0.0, 0.0], dir=[1.0, 0.0]),
    "singleton": Singleton(y=[1.0, 2.0]),
}

# every set type in 2-d
ALL_2D = {**PINNED_2D, "cone": PositiveCone()}

# the entry points that take a descriptor and a point, called with (space, C, x, v)
POINT_ENTRY_POINTS = {
    "project": lambda space, C, x, v: project(space, C, x),
    "project_with_certificate": lambda space, C, x, v: project_with_certificate(space, C, x),
    "directional_derivative": directional_derivative,
    "contains": lambda space, C, x, v: contains(space, C, x),
    "classify_point": lambda space, C, x, v: classify_point(space, C, x),
}

# every entry point that takes a descriptor, called with (space, C)
DESCRIPTOR_ENTRY_POINTS = {
    "contains": lambda space, C: contains(space, C, np.ones(2)),
    "support": lambda space, C: support(space, C, np.ones(2), np.ones(2), 1.0),
    "descriptor_to_json": lambda space, C: descriptor_to_json(C),
    "project_with_certificate": lambda space, C: project_with_certificate(space, C, np.ones(2)),
    "project": lambda space, C: project(space, C, np.ones(2)),
}


class TestDispatch:
    @pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
    @pytest.mark.parametrize("kind", sorted(PINNED_2D))
    def test_wrong_dimension_rejected(self, kind, entry):
        space = LpSpace(3.0)
        x, v = np.array([1.0, 2.0, 3.0]), np.array([1.0, -1.0, 0.5])
        with pytest.raises(ValueError, match="point has dimension 3, set expects 2"):
            POINT_ENTRY_POINTS[entry](space, PINNED_2D[kind], x, v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
    @pytest.mark.parametrize("kind", sorted(ALL_2D))
    def test_non_finite_point_rejected(self, kind, entry, bad):
        space = LpSpace(3.0)
        x, v = np.array([1.0, bad]), np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="coordinates must be finite"):
            POINT_ENTRY_POINTS[entry](space, ALL_2D[kind], x, v)

    @pytest.mark.parametrize("entry", sorted(DESCRIPTOR_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [object(), {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}],
                             ids=["object", "dict"])
    def test_non_descriptors_rejected(self, bad, entry):
        with pytest.raises(TypeError):
            DESCRIPTOR_ENTRY_POINTS[entry](LpSpace(2.0), bad)

    def test_project_rejects_unknown_descriptor(self):
        space = LpSpace(2.0)
        with pytest.raises(TypeError):
            project(space, object(), np.ones(2))

    def test_project_routes_closed_forms(self):
        space = LpSpace(3.0)
        x = np.array([2.0, -1.0, 0.5])
        got = project(space, Ball(center=[0.0, 0.0, 0.0], radius=1.0), x)
        assert_allclose(got, (1.0 / space.norm(x)) * x, rtol=0, atol=0)   # radial pullback
        got = project(space, PositiveCone(), x)
        assert_allclose(got, [2.0, 0.0, 0.5], rtol=0, atol=0)
        free = np.array([True, True, False])
        got = project(space, CoordinateSubspace(free=free), x)
        assert_allclose(got, [2.0, -1.0, 0.0], rtol=0, atol=0)
        got = project(space, Singleton(y=[1.0, 1.0, 1.0]), x)
        assert_allclose(got, [1.0, 1.0, 1.0], rtol=0, atol=0)

    def test_project_routes_polytopes(self):
        space = LpSpace(2.0)
        got = project(space, SIMPLEX, np.array([2.0, 0.0, 0.0]))
        assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-9)


class TestCertificateWrapper:
    @pytest.mark.parametrize("descriptor,x", [
        (Ball(center=[0.0, 0.0], radius=1.0), [3.0, 0.0]),
        (PositiveCone(), [1.0, -2.0]),
        (CoordinateSubspace(free=[True, False]), [1.0, 2.0]),
        (Segment(u=[0.0, 0.0], w=[1.0, 0.0]), [0.5, 1.0]),
        (Ray(v=[0.0, 0.0], dir=[1.0, 0.0]), [2.0, 1.0]),
        (Singleton(y=[1.0, 1.0]), [0.0, 0.0]),
    ])
    def test_closed_forms_certify_without_iterating(self, descriptor, x):
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            cert = project_with_certificate(space, descriptor, np.array(x))
            assert cert.iterations == 0
            assert cert.residual >= -1e-8
            assert cert.converged
            assert cert.distance >= 0.0

    def test_polytopes_route_to_the_solver(self):
        space = LpSpace(2.0)
        cert = project_with_certificate(space, SIMPLEX, np.array([2.0, 0.0, 0.0]))
        assert cert.converged
        assert_allclose(cert.point, [1.0, 0.0, 0.0], atol=1e-9)

    def test_json_payload_shape(self):
        space = LpSpace(3.0)
        cert = project_with_certificate(space, Ball(center=[0.0, 0.0], radius=1.0),
                                        np.array([2.0, 0.0]))
        payload = cert.to_json()
        assert set(payload) == {"point", "residual", "iterations", "distance", "converged"}
        assert isinstance(payload["point"], list)
        assert isinstance(payload["converged"], bool)
        assert payload["distance"] == pytest.approx(1.0)


class TestDeskScaleContinuity:
    def test_nearby_queries_project_nearby(self, rng):
        # measured modulus on this instance stays below ratio 1; assert a
        # factor-2 envelope so genuine continuity regressions still trip
        space = LpSpace(3.0)
        delta = 1e-3
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0, size=3)
            step = rng.normal(size=3)
            step *= delta * rng.uniform(0.1, 1.0) / lp_norm(step, 3.0)
            y = x + step
            ux = project_with_certificate(space, SIMPLEX, x).point
            uy = project_with_certificate(space, SIMPLEX, y).point
            assert lp_dist(3.0, ux, uy) <= 2.0 * lp_dist(3.0, x, y) + 1e-12


class TestExpansionFixture:
    """Away from p = 2 the projection is not 1-Lipschitz.

    Frozen hit from a randomized search over unit-ball instances: one
    point sits just inside the sphere (fixed by P), the other outside,
    and the flat spot of the l4 sphere stretches the pair apart.
    """

    X = np.array([-0.4049278840870358, -0.10854382298902074, 1.0335952441812766])
    Y = np.array([-0.5617119048046839, -0.10904083165378646, 0.9740428418431443])

    def test_l4_ball_projection_expands_this_pair(self):
        space = LpSpace(4.0)
        C = Ball(center=np.zeros(3), radius=1.0)
        px = project(space, C, self.X)
        py = project(space, C, self.Y)
        assert space.norm(px - py) > space.norm(self.X - self.Y) + 1e-2

    def test_same_pair_contracts_in_the_euclidean_norm(self):
        space = LpSpace(2.0)
        C = Ball(center=np.zeros(3), radius=1.0)
        px = project(space, C, self.X)
        py = project(space, C, self.Y)
        assert space.norm(px - py) <= space.norm(self.X - self.Y) + 1e-12
