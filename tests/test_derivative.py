"""Directional derivatives of projections: clause values, labels, oracles."""
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from banachproj import (
    Ball,
    CoordinateSubspace,
    LpSpace,
    PolytopeH,
    PolytopeV,
    PositiveCone,
    Ray,
    Segment,
    Singleton,
    StepSchedule,
    directional_derivative,
    numdiff_derivative,
    project,
    solver,
)
from banachproj import derivative as derivative_mod
from banachproj.derivative import _cone_coordinatewise
from banachproj.numdiff import ConvergenceError
from oracles import cone_table_3d, line_derivative, lp_norm
from oracles_mp import mp_line_derivative

DISK = Ball(center=[0.0, 0.0], radius=1.0)
BALL3 = Ball(center=np.zeros(3), radius=1.0)
CONE = PositiveCone()
PLANE = CoordinateSubspace(free=[True, True, False])   # the (x, y) plane of R^3


class TestSphereClauses:
    def test_outward_radial_is_up(self):
        res = directional_derivative(LpSpace(2.0), DISK, [1.0, 0.0], [1.0, 0.0])
        assert res.case_label == "ball:sphere-up"
        assert np.array_equal(res.value, [0.0, 0.0])

    def test_inward_radial_is_down(self):
        res = directional_derivative(LpSpace(2.0), DISK, [1.0, 0.0], [-1.0, 0.0])
        assert res.case_label == "ball:sphere-down"
        assert np.array_equal(res.value, [-1.0, 0.0])

    def test_tangent_resolves_up(self):
        # first-order growth is an exact tie; ||(1, t)|| > 1 for t > 0
        # settles it on the outside, where the zero slope leaves v
        res = directional_derivative(LpSpace(2.0), DISK, [1.0, 0.0], [0.0, 1.0])
        assert res.case_label == "ball:sphere-up"
        assert np.array_equal(res.value, [0.0, 1.0])

    def test_near_tangent_follows_the_slope(self):
        # x + t v stays in the disk for t < 1e-9 when v tilts inward by
        # 5e-10, so P(x + t v) = x + t v and the derivative is v itself
        res = directional_derivative(LpSpace(2.0), DISK, [1.0, 0.0], [-5e-10, 1.0])
        assert res.case_label == "ball:sphere-down"
        assert np.array_equal(res.value, [-5e-10, 1.0])
        res = directional_derivative(LpSpace(2.0), DISK, [1.0, 0.0], [5e-10, 1.0])
        assert res.case_label == "ball:sphere-up"

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_tangent_is_up(self, p):
        res = directional_derivative(LpSpace(p), BALL3, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert res.case_label == "ball:sphere-up"
        assert np.array_equal(res.value, [0.0, 1.0, 0.0])

    def test_partition_of_directions(self, rng):
        # every nonzero direction lands in exactly one class
        space = LpSpace(3.0)
        x = np.array([1.0, 0.0, 0.0])
        for _ in range(25):
            v = rng.normal(size=3)
            res = directional_derivative(space, BALL3, x, v)
            assert res.case_label in ("ball:sphere-up", "ball:sphere-down")


class TestBallDerivative:
    def test_euclidean_exterior_tangential(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, DISK, [2.0, 0.0], [0.0, 1.0])
        assert_allclose(res.value, [0.0, 0.5], atol=1e-14)
        assert res.case_label == "ball:exterior"

    @pytest.mark.parametrize("k", [-60, -40, -20, 0, 20])
    def test_exterior_clause_holds_at_every_radius(self, k):
        # the sphere band is relative to the radius, so (2r, 0) lies outside
        # it at every scale, and the value is the same bits at every scale
        r = 2.0 ** k
        res = directional_derivative(LpSpace(3.0), Ball(center=[0.0, 0.0], radius=r),
                                     [2.0 * r, 0.0], [0.0, 1.0])
        assert res.case_label == "ball:exterior"
        assert np.array_equal(res.value, [0.0, 0.5])

    def test_euclidean_exterior_radial_vanishes(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, DISK, [2.0, 0.0], [2.0, 0.0])
        assert_allclose(res.value, [0.0, 0.0], atol=1e-14)

    def test_p3_exterior_tangential(self):
        space = LpSpace(3.0)
        res = directional_derivative(space, BALL3, [2.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert_allclose(res.value, [0.0, 0.5, 0.0], atol=1e-14)

    def test_interior_is_identity(self):
        space = LpSpace(3.0)
        v = np.array([0.3, -1.0, 0.2])
        res = directional_derivative(space, BALL3, [0.2, 0.1, -0.1], v)
        assert np.array_equal(res.value, v)
        assert res.case_label == "ball:interior"

    def test_sphere_up_outward_radial(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, DISK, [1.0, 0.0], [1.0, 0.0])
        assert_allclose(res.value, [0.0, 0.0], atol=1e-14)
        assert res.case_label == "ball:sphere-up"

    def test_sphere_down_is_identity(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, DISK, [1.0, 0.0], [-1.0, 0.0])
        assert_allclose(res.value, [-1.0, 0.0], rtol=0, atol=0)
        assert res.case_label == "ball:sphere-down"

    def test_sphere_tangent_passes_through(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, DISK, [1.0, 0.0], [0.0, 1.0])
        assert_allclose(res.value, [0.0, 1.0], atol=1e-14)
        assert res.case_label == "ball:sphere-up"

    def test_down_clause_matches_identity_quotients(self):
        # along an entering direction the projection is locally the
        # identity, and the difference quotients confirm it
        space = LpSpace(2.0)
        x = np.array([1.0, 0.0])
        v = np.array([-1.0, 0.1])
        res = directional_derivative(space, DISK, x, v)
        assert res.case_label == "ball:sphere-down"
        projector = lambda z: project(space, DISK, z)
        est = numdiff_derivative(space, projector, x, v)
        assert est.converged
        assert lp_norm(est.estimate - res.value, 2.0) <= 1e-6

    def test_euclidean_exterior_reduces_to_inner_product_form(self, rng):
        # at p=2 the norm-smoothness term is an inner product, so the
        # exterior clause collapses to r(d^2 v - <x-c,v>(x-c))/d^3
        space = LpSpace(2.0)
        c = np.array([0.4, -0.2, 0.1])
        r = 1.3
        for _ in range(20):
            x = c + rng.normal(size=3) * 3.0
            d = lp_norm(x - c, 2.0)
            if d <= r + 1e-6:
                continue
            v = rng.normal(size=3)
            got = directional_derivative(space, Ball(center=c, radius=r), x, v).value
            expect = (r / d ** 3) * (d ** 2 * v - np.dot(x - c, v) * (x - c))
            assert lp_norm(got - expect, 2.0) <= 1e-10

    def test_euclidean_sphere_up_reduces_to_inner_product_form(self, rng):
        space = LpSpace(2.0)
        r = 2.0
        for _ in range(20):
            x = rng.normal(size=3)
            x = r * x / lp_norm(x, 2.0)
            v = rng.normal(size=3)
            res = directional_derivative(space, Ball(center=np.zeros(3), radius=r), x, v)
            if res.case_label != "ball:sphere-up":
                continue
            expect = v - np.dot(x, v) / r ** 2 * x
            assert lp_norm(res.value - expect, 2.0) <= 1e-10

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_positive_homogeneity(self, lam, rng):
        space = LpSpace(3.0)
        for _ in range(10):
            x = rng.normal(size=3) * 2.0
            v = rng.normal(size=3)
            base = directional_derivative(space, BALL3, x, v)
            scaled = directional_derivative(space, BALL3, x, lam * v)
            assert_allclose(scaled.value, lam * base.value, rtol=1e-12, atol=1e-14)
            assert scaled.case_label == base.case_label

    def test_retraction_directions_vanish(self, rng):
        # moving a query point along the chord through its projection,
        # either way, does not move the projection to first order
        space = LpSpace(3.0)
        for _ in range(10):
            x = rng.normal(size=3)
            x *= 2.5 / lp_norm(x, 3.0)
            u = project(space, BALL3, x)
            fwd = directional_derivative(space, BALL3, x, x - u)
            back = directional_derivative(space, BALL3, x, u - x)
            assert lp_norm(fwd.value, 3.0) <= 1e-12
            assert lp_norm(back.value, 3.0) <= 1e-12

    def test_retraction_direction_matches_quotients(self):
        space = LpSpace(3.0)
        x = np.array([1.8, -0.9, 0.6])
        u = project(space, BALL3, x)
        projector = lambda z: project(space, BALL3, z)
        est = numdiff_derivative(space, projector, x, x - u)
        assert est.converged
        assert lp_norm(est.estimate, 3.0) <= 1e-6

    def test_oracle_agreement_sampled(self, rng):
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            projector = lambda z: project(space, BALL3, z)
            for _ in range(8):
                x = rng.normal(size=3) * 2.0
                if abs(lp_norm(x, p) - 1.0) < 1e-3:
                    continue
                v = rng.normal(size=3)
                got = directional_derivative(space, BALL3, x, v)
                est = numdiff_derivative(space, projector, x, v)
                assert est.converged
                assert lp_norm(got.value - est.estimate, p) <= 1e-4 * max(1.0, lp_norm(got.value, p))

    def test_rejects_bad_inputs(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError, match="radius"):
            directional_derivative(space, Ball(center=[0.0, 0.0], radius=-1.0),
                                   [2.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="nonzero"):
            directional_derivative(space, DISK, [2.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="shape"):
            directional_derivative(space, DISK, [2.0, 0.0], [1.0, 0.0, 0.0])


class TestPositiveConeDerivative:
    # the cone's clause does not depend on p

    def test_face_point_clamps_entering_coordinate(self):
        space = LpSpace(3.0)
        res = directional_derivative(space, CONE, [2.0, 3.0, 0.0], [1.0, -1.0, -5.0])
        assert_allclose(res.value, [1.0, -1.0, 0.0], rtol=0, atol=0)
        assert res.case_label == "cone:p2z1n0/clamp1"

    def test_negative_orthant_is_constant(self):
        space = LpSpace(3.0)
        res = directional_derivative(space, CONE, [-1.0, -1.0, -1.0], [0.3, 0.1, -2.0])
        assert np.array_equal(res.value, np.zeros(3))
        assert res.case_label == "cone:p0z0n3/clamp0"

    def test_vertex_clips_direction(self):
        space = LpSpace(3.0)
        res = directional_derivative(space, CONE, [0.0, 0.0, 0.0], [1.0, -1.0, -1.0])
        assert_allclose(res.value, [1.0, 0.0, 0.0], rtol=0, atol=0)
        assert res.case_label == "cone:p0z3n0/clamp2"

    def test_interior_is_identity(self):
        space = LpSpace(3.0)
        v = np.array([0.5, -2.0, 1.0])
        res = directional_derivative(space, CONE, [1.0, 2.0, 3.0], v)
        assert np.array_equal(res.value, v)
        assert res.case_label == "cone:p3z0n0/clamp0"

    def test_table_agrees_with_coordinatewise_rule_everywhere(self):
        # all 3^3 x 3^3 sign patterns at representative magnitudes: the
        # explicit region table and the coordinatewise rule are twins
        reps_x = {-1: -0.7, 0: 0.0, 1: 1.3}
        reps_v = {-1: -0.9, 0: 0.0, 1: 0.8}
        for sx in itertools.product((-1, 0, 1), repeat=3):
            for sv in itertools.product((-1, 0, 1), repeat=3):
                if sv == (0, 0, 0):
                    continue
                x = np.array([reps_x[s] for s in sx])
                v = np.array([reps_v[s] for s in sv])
                value, label = cone_table_3d(x, v)
                coord = _cone_coordinatewise(x, v)
                assert np.array_equal(value, coord.value), (sx, sv)
                assert label == coord.case_label, (sx, sv)

    def test_sign_patterns_match_quotients(self, rng):
        # piecewise-linear projector: quotients are exact once t is small
        # enough that no coordinate of x + tv changes sign
        space = LpSpace(3.0)
        projector = lambda z: project(space, CONE, z)
        for _ in range(40):
            x = rng.choice([-1.1, 0.0, 0.9], size=3) * rng.uniform(0.5, 1.5)
            v = rng.normal(size=3)
            if not np.any(v):
                continue
            got = directional_derivative(space, CONE, x, v)
            est = numdiff_derivative(space, projector, x, v)
            assert est.converged
            assert lp_norm(got.value - est.estimate, 3.0) <= 1e-8

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_coordinatewise_rule_other_dimensions(self, n, rng):
        space = LpSpace(1.5)
        projector = lambda z: project(space, CONE, z)
        for _ in range(10):
            x = rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0.5, 2.0)
            v = rng.normal(size=n)
            got = directional_derivative(space, CONE, x, v)
            est = numdiff_derivative(space, projector, x, v)
            assert est.converged
            assert lp_norm(got.value - est.estimate, 1.5) <= 1e-8

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_homogeneity_exact_for_dyadic_factors(self, lam, rng):
        space = LpSpace(3.0)
        for _ in range(10):
            x = rng.choice([-1.0, 0.0, 1.0], size=3)
            v = rng.normal(size=3)
            if not np.any(v):
                continue
            base = directional_derivative(space, CONE, x, v)
            scaled = directional_derivative(space, CONE, x, lam * v)
            assert np.array_equal(scaled.value, lam * base.value)

    def test_rejects_bad_inputs(self):
        space = LpSpace(3.0)
        with pytest.raises(ValueError, match="shape"):
            directional_derivative(space, CONE, [1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="nonzero"):
            directional_derivative(space, CONE, [1.0, 2.0], [0.0, 0.0])


class TestSubspaceDerivative:
    def test_annihilator_direction_freezes(self):
        space = LpSpace(3.0)
        res = directional_derivative(space, PLANE, [2.0, 3.0, 0.0], [0.0, 0.0, 1.0])
        assert np.array_equal(res.value, np.zeros(3))
        assert res.case_label == "subspace:orthogonal"

    def test_tangent_direction_passes_through(self):
        space = LpSpace(3.0)
        res = directional_derivative(space, PLANE, [2.0, 3.0, 0.0], [1.0, -1.0, 0.0])
        assert np.array_equal(res.value, np.array([1.0, -1.0, 0.0]))
        assert res.case_label == "subspace:tangent"

    def test_euclidean_mixed_direction(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, PLANE, np.zeros(3), [1.0, 0.0, 1.0])
        assert_allclose(res.value, [1.0, 0.0, 0.0], atol=1e-12)
        assert res.case_label == "subspace:coordinatewise"

    def test_mixed_direction_p3(self):
        space = LpSpace(3.0)
        res = directional_derivative(space, PLANE, [2.0, 3.0, 0.0], [1.0, 1.0, 1.0])
        assert_allclose(res.value, [1.0, 1.0, 0.0], atol=1e-12)
        assert res.case_label == "subspace:coordinatewise"

    def test_mixed_directions_sampled(self, rng):
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            free = np.array([True, False, True, False])
            for _ in range(8):
                y = rng.normal(size=4)
                y[~free] = 0.0
                v = rng.normal(size=4)
                res = directional_derivative(space, CoordinateSubspace(free=free), y, v)
                assert res.case_label == "subspace:coordinatewise"
                assert_allclose(res.value, np.where(free, v, 0.0), atol=1e-10)

    def test_rejects_bad_inputs(self):
        space = LpSpace(3.0)
        with pytest.raises(ValueError, match="nonzero"):
            directional_derivative(space, CoordinateSubspace(free=[True, False]),
                                   [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="dimension"):
            directional_derivative(space, CoordinateSubspace(free=[True, False, True]),
                                   [1.0, 0.0], [1.0, 0.0])


class TestInteriorRule:
    # inside C the projection is the identity, inside the inverse image of a
    # point it is constant
    def test_cone_interior_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        res = directional_derivative(LpSpace(3.0), PositiveCone(), [1.0, 2.0, 3.0], v)
        assert np.array_equal(res.value, v)
        assert res.case_label == "cone:p3z0n0/clamp0"

    def test_cone_inverse_image_interior_is_constant(self):
        res = directional_derivative(LpSpace(3.0), PositiveCone(), [-1.0, -2.0, -3.0], np.ones(3))
        assert np.array_equal(res.value, np.zeros(3))
        assert res.case_label == "cone:p0z0n3/clamp0"

    def test_ball_interior_is_identity(self):
        v = np.array([0.1, 0.2, 0.3])
        res = directional_derivative(LpSpace(3.0), BALL3, [0.2, 0.2, 0.2], v)
        assert np.array_equal(res.value, v)
        assert res.case_label == "ball:interior"

    def test_singleton_constant_everywhere(self):
        res = directional_derivative(LpSpace(2.0), Singleton(y=[1.0, 1.0]), [5.0, -3.0], [1.0, 1.0])
        assert np.array_equal(res.value, np.zeros(2))
        assert res.case_label == "singleton"

    def test_polytope_interior(self):
        C = PolytopeH(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 1.0])
        v = np.array([2.0, 3.0])
        res = directional_derivative(LpSpace(2.0), C, [0.0, 0.0], v)
        assert np.array_equal(res.value, v)
        assert res.case_label == "numeric"

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("kind, x, label", [
        ("ball", [0.2, -0.2, 0.2], "ball:interior"),
        ("cone", [1.0, 2.0, 3.0], "cone:p3z0n0/clamp0"),
        ("polytope_h", [0.1, -0.2, 0.3], "numeric"),
        ("polytope_v", [0.2, 0.2, 0.2], "numeric"),
    ], ids=["ball", "cone", "polytope_h", "polytope_v"])
    def test_identity_inside_every_solid_set(self, kind, x, label, p):
        v = np.array([1.0, -2.0, 0.5])
        res = directional_derivative(LpSpace(p), ALL_3D[kind], x, v)
        assert np.array_equal(res.value, v)
        assert res.case_label == label

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("kind, x, label", [
        ("cone", [-1.0, -2.0, -3.0], "cone:p0z0n3/clamp0"),
        ("segment", [-1.0, 0.5, 0.2], "line:end"),
        ("ray", [-1.0, -2.0, 0.5], "line:end"),
        ("singleton", [5.0, -3.0, 0.0], "singleton"),
    ], ids=["cone", "segment", "ray", "singleton"])
    def test_constant_inside_an_inverse_image(self, kind, x, label, p):
        # each x lies inside the inverse image of one point of C
        res = directional_derivative(LpSpace(p), ALL_3D[kind], x, [1.0, -2.0, 0.5])
        assert np.array_equal(res.value, np.zeros(3))
        assert res.case_label == label


# the `cli` benchmark's derivative_vpoly configs at seeds 5 and 9 (p = 3,
# n = 3): vertices, x and v
VPOLY_SLOW_QUOTIENTS = [
    ([[-0.3310916468929106, 0.22712351303583383, 0.5825027480429197],
      [-0.311681337715842, -0.4434138017062611, 0.056796183442501334],
      [0.42529892024371735, 1.0980525684298288, 0.39385518829721944],
      [-1.381859529542985, 0.34099941301684084, -1.5879197643094438],
      [-1.8789473897865427, 0.0936598390600402, 0.7927839578542527],
      [0.049566967166567194, 0.6310271193625365, 2.097119804439586],
      [0.469934885966224, 0.9090893851607912, -0.8334183144766817],
      [0.18908762354789907, -0.4106785528469963, 0.17435107049853205],
      [-0.43939334140383773, 1.652126760108447, -0.3273294457131742]],
     [-0.48742918289965975, -0.7251312195917625, -0.1772904494255858],
     [0.20493756634624816, 1.1034069545901093, -0.8920450974735719]),
    ([[0.3404379319939563, 0.6315172006993587, -0.0759925408170195],
      [1.1862990792946886, -0.8494650622910581, 0.9983054776388802],
      [0.4524824547926865, 0.7950307360243918, -0.23415834912605787],
      [-0.5352617114045555, -0.09569884719239859, 0.6374331475522533],
      [1.2218556782572807, -0.22214559312470566, 0.30110096841439077],
      [0.20503710742395345, -0.6566739692055231, 1.8106009770223823],
      [0.00036145248929929206, -0.40751171930272756, -0.9489164783698165],
      [-1.142278346125907, 0.06512734824914965, -1.7263058883776419],
      [0.1990041156135396, 0.37306149864940447, 0.6083918486981099]],
     [2.6173489842830753, -0.29895689615093557, 0.8471317866421242],
     [0.9555906882274241, -1.1159950778480618, 0.5526405956996042]),
]


# the `cli` benchmark's derivative_vpoly config at seed 4 (p = 3, n = 3):
# vertices, x and v.  Its quotients do not settle on the default schedule
VPOLY_UNSETTLED = (
    [[-1.3617656025994362, -0.16143837575387002, -0.19406210961205958],
     [1.6491022232617059, 2.2208589831901704, 1.38334775442377],
     [-1.7544408423491922, -0.8498648378186076, 0.8005175528313379],
     [-1.2035538043660607, -1.1221708455432715, -1.3721519408436182],
     [-0.918671526450632, 0.04567877270955541, 0.6189172598459473],
     [-2.594078435406809, -1.2613113501934372, -1.6776374929303433],
     [0.12555471630689669, 0.8283314679261615, -0.10834374890704546],
     [0.8974844818662295, 0.6036526513338238, -2.3582223099849102],
     [-1.1586874528774507, 2.111537430495931, 0.6357822113643719]],
    [2.813010946807341, 0.20852521540315233, -0.7550476565378601],
    [-0.3647211166820687, 1.3356262387603393, -0.5163552764233295],
)

#: a segment of R^2 given by its two vertices, so that it is differenced
SEGMENT_V = PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0]])


class TestDirectionalDerivativeDispatch:
    def test_ball_route(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, Ball(center=[0.0, 0.0], radius=1.0),
                                     np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        assert_allclose(res.value, [0.0, 0.5], atol=1e-14)
        assert res.case_label == "ball:exterior"

    def test_cone_route(self):
        space = LpSpace(3.0)
        res = directional_derivative(space, PositiveCone(),
                                     np.array([2.0, 3.0, 0.0]), np.array([1.0, -1.0, -5.0]))
        assert_allclose(res.value, [1.0, -1.0, 0.0], rtol=0, atol=0)

    def test_subspace_route_off_base(self):
        # the projection is linear, so the coordinatewise rule holds at
        # base points outside the subspace as well
        space = LpSpace(3.0)
        res = directional_derivative(space, CoordinateSubspace(free=[True, True, False]),
                                     np.array([1.0, 2.0, 5.0]), np.array([0.5, -0.5, 2.0]))
        assert_allclose(res.value, [0.5, -0.5, 0.0], atol=1e-10)
        assert res.case_label == "subspace:coordinatewise"
        res = directional_derivative(space, CoordinateSubspace(free=[True, True, False]),
                                     np.array([1.0, 2.0, 5.0]), np.array([0.0, 0.0, 3.0]))
        assert np.array_equal(res.value, np.zeros(3))
        assert res.case_label == "subspace:orthogonal"

    def test_singleton_route(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, Singleton(y=[1.0, 2.0]),
                                     np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert np.array_equal(res.value, np.zeros(2))
        assert res.case_label == "singleton"

    def test_segment_quotients(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, Segment(u=[0.0, 0.0], w=[1.0, 0.0]),
                                     np.array([0.5, 1.0]), np.array([1.0, 0.0]))
        assert res.case_label == "line:interior"
        assert_allclose(res.value, [1.0, 0.0], atol=1e-15)

    def test_uncertified_projection_raises_while_project_still_answers(self, monkeypatch):
        # the quotients are differenced from certified points only; the
        # plain projection keeps returning its point without a verdict
        certified = solver.project_with_certificate

        def uncertified(space, C, x, *args):
            cert = certified(space, C, x, *args)
            cert.converged = False
            return cert

        monkeypatch.setattr(solver, "project_with_certificate", uncertified)
        space, C, x = LpSpace(2.0), SEGMENT_V, np.array([0.5, 1.0])
        with pytest.raises(ConvergenceError, match="uncertified"):
            directional_derivative(space, C, x, np.array([1.0, 0.0]))
        assert_allclose(project(space, C, x), [0.5, 0.0])

    def test_ray_quotients(self):
        space = LpSpace(2.0)
        res = directional_derivative(space, Ray(v=[0.0, 0.0], dir=[1.0, 0.0]),
                                     np.array([2.0, 1.0]), np.array([1.0, 0.0]))
        assert res.case_label == "line:interior"
        assert_allclose(res.value, [1.0, 0.0], atol=1e-15)

    def test_h_polytope_quotients_on_the_default_schedule(self):
        space = LpSpace(2.0)
        C = PolytopeH(normals=[[1.0, 0.0]], offsets=[0.0])
        res = directional_derivative(space, C, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert res.case_label == "numeric"
        assert_allclose(res.value, [0.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize("vertices, x, v", VPOLY_SLOW_QUOTIENTS, ids=["seed5", "seed9"])
    def test_v_polytope_quotients_settle_on_a_certified_secant(self, vertices, x, v):
        # quotients that move at first order in t: a schedule stopped at
        # t = 1e-4 left them 1.7e-4 apart; the default one settles them in
        # 17 and 18 steps, on the secant at h = 2^-24 to 2.7e-8
        space, C = LpSpace(3.0), PolytopeV(vertices=vertices)
        res = directional_derivative(space, C, x, v)
        assert res.case_label == "numeric"
        base = solver.project_with_certificate(space, C, x)
        h = 2.0 ** -24
        moved = solver.project_with_certificate(space, C, np.add(x, np.multiply(h, v)))
        assert base.converged and moved.converged
        assert_allclose((moved.point - base.point) / h, res.value, rtol=0.0, atol=1e-7)

    def test_non_convergence_raises_with_trace(self):
        # quotients that do not settle on the default schedule
        vertices, x, v = VPOLY_UNSETTLED
        with pytest.raises(ConvergenceError) as exc:
            directional_derivative(LpSpace(3.0), PolytopeV(vertices=vertices), x, v)
        assert len(exc.value.trace) == len(StepSchedule().t_values) == 23

    def test_ray_with_a_small_residual_coordinate(self):
        # once a non-convergence instance of the quotients: x - P(x) =
        # (0.0086, 0.686, -4.154) has a small coordinate, where |r|^(p-2)
        # is large at p = 1.5
        C = Ray(v=[-1.746, -0.979, 1.582], dir=[0.368, 1.204, 0.506])
        x = np.array([-1.612, 0.117, -2.400])
        v = np.array([-1.614, 0.772, -0.353])
        space = LpSpace(1.5)
        res = directional_derivative(space, C, x, v)
        assert res.case_label == "line:interior"
        assert_allclose(res.value, [-0.591129, -1.934020, -0.812802], rtol=0.0, atol=1e-6)
        want = line_derivative(1.5, C.dir, x - project(space, C, x), v)
        assert_allclose(res.value, want, rtol=1e-13, atol=0.0)

    def test_ray_quotients_settle_on_the_exact_value(self):
        # once a non-convergence instance: its quotients settle since the
        # line search brackets its root by the breakpoints
        C = Ray(v=[-1.7071722930695223, 0.1279844920146543, 0.178204753456251],
                dir=[2.18312868735204, -0.17866300936309754, 1.021424079171613])
        x = np.array([2.390407444638451, -0.12213351078248753, 0.15360200687515327])
        v = np.array([-0.4298437372777596, 1.7751592107843002, -1.5084321712555864])
        space = LpSpace(1.5)
        res = directional_derivative(space, C, x, v)
        assert res.case_label == "line:interior"
        want = line_derivative(1.5, C.dir, x - project(space, C, x), v)
        assert_allclose(res.value, want, rtol=1e-13, atol=0.0)
        est = numdiff_derivative(space, lambda z: project(space, C, z), x, v)
        assert est.converged
        assert_allclose(res.value, est.estimate, rtol=0.0, atol=1e-6)

    def test_unknown_descriptor(self):
        space = LpSpace(2.0)
        with pytest.raises(TypeError):
            directional_derivative(space, object(), np.ones(2), np.ones(2))


LINE_EXPONENTS = [1.05, 1.2, 1.5, 2.0, 3.0, 4.0, 8.0]


def _line(C):
    """(origin, direction, upper parameter) of a segment or a ray."""
    return (C.u, C.w - C.u, 1.0) if isinstance(C, Segment) else (C.v, C.dir, None)


def line_draws(count):
    """The seeded line corpus as (p, set, x, v): odd draws take the segment
    [a, a + d], even draws the ray from a along d."""
    rng = np.random.default_rng(7)
    for k in range(count):
        p = float(rng.choice(LINE_EXPONENTS))
        n = int(rng.integers(2, 6))
        a, d = rng.standard_normal(n), rng.standard_normal(n)
        x = a + 2.0 * rng.standard_normal(n)
        v = rng.standard_normal(n)
        yield p, Segment(u=a, w=a + d) if k % 2 else Ray(v=a, dir=d), x, v


E1_SEGMENT = Segment(u=[0.0, 0.0, 0.0], w=[1.0, 0.0, 0.0])
DIAGONAL = Segment(u=[-1.0, -1.0, -1.0], w=[1.0, 1.0, 1.0])
PLANE_RAY = Ray(v=[0.0, 0.0, 0.0], dir=[1.0, 2.0, 0.0])
FLAT_RAY = Ray(v=[0.0, 0.0, 0.0], dir=[1.0, -1.0, 0.0])
UNIT_SEGMENT = Segment(u=[0.0, 0.0], w=[1.0, 0.0])

# exact-zero coordinates of x - P(x), ties and points on the line, as
# (p, set, x, v, label)
LINE_CASES = [
    # r = (0, 1, 2) with d = e1: dᵀDd = 0 at p = 3, the first coordinate leads
    (3.0, E1_SEGMENT, [0.5, 1.0, 2.0], [0.3, -0.7, 0.2], "line:interior"),
    (3.0, E1_SEGMENT, [0.0, 1.0, 2.0], [-0.3, -0.7, 0.2], "line:tie"),
    (3.0, E1_SEGMENT, [0.0, 1.0, 2.0], [0.3, -0.7, 0.2], "line:tie"),
    # P(x) = 0 by symmetry and r = (0, 1, -1): one zero coordinate
    *[(p, DIAGONAL, [0.0, 1.0, -1.0], [0.3, -0.7, 0.2], "line:interior") for p in (1.05, 1.5, 3.0)],
    # x on the line, inside it and at the vertex of the ray
    (1.5, PLANE_RAY, [0.5, 1.0, 0.0], [0.3, -0.7, 0.2], "line:interior"),
    (1.5, PLANE_RAY, [0.0, 0.0, 0.0], [-0.3, -0.7, 0.2], "line:tie"),
    (1.5, PLANE_RAY, [0.0, 0.0, 0.0], [0.3, 0.7, 0.2], "line:tie"),
    # r ⊥ d at the vertex: the slope is 0 there
    *[(p, FLAT_RAY, [0.0, 0.0, 3.0], [0.3, 0.7, 0.2], "line:tie") for p in (1.2, 4.0)],
    # |r_i|^(p-2) underflows at p = 20 unless D is scaled by its largest entry
    (20.0, Segment(u=[-1.0, -1.0], w=[1.0, 1.0]), [1e-20, -1e-20], [1.0, 0.5], "line:interior"),
    # the far end of a segment: a tie, then a push past it
    (1.5, UNIT_SEGMENT, [1.0, 3.0], [-0.4, 0.1], "line:tie"),
    (1.5, UNIT_SEGMENT, [1.0, 3.0], [0.4, 0.1], "line:tie"),
    (1.5, UNIT_SEGMENT, [2.0, 1.0], [-0.4, 0.1], "line:end"),
]


class TestLineClause:
    def test_quotients_agree_where_they_settle(self):
        # measured: 86 of 3,000 draws never settle (70 at p = 1.05); the
        # others agree with the clause to 2.0e-7
        settled = 0
        for p, C, x, v in line_draws(1000):
            space = LpSpace(p)
            res = directional_derivative(space, C, x, v)
            est = numdiff_derivative(space, lambda z: project(space, C, z), x, v)
            if est.converged:
                settled += 1
                scale = max(1.0, np.max(np.abs(res.value)))
                assert np.max(np.abs(res.value - est.estimate)) <= 1e-6 * scale
        assert settled >= 980

    @pytest.mark.parametrize("p", LINE_EXPONENTS)
    def test_high_precision_secants_on_the_corpus(self, p):
        # the first draws at p whose projection is inside the line, and
        # one at an end; measured worst 2.5e-15 over 114 draws
        inner = ends = 0
        for q, C, x, v in line_draws(400):
            if q != p:
                continue
            res = directional_derivative(LpSpace(p), C, x, v)
            if res.case_label == "line:end":
                if ends:
                    continue
                ends += 1
            else:
                inner += 1
            twin = np.array([float(e) for e in mp_line_derivative(p, *_line(C), x, v)])
            assert np.max(np.abs(res.value - twin)) <= 1e-12 * max(1.0, np.max(np.abs(twin)))
            if inner == 3 and ends:
                break
        assert inner == 3 and ends == 1

    @pytest.mark.parametrize("p, C, x, v, label", LINE_CASES)
    def test_high_precision_secants_on_zeros_ties_and_the_line(self, p, C, x, v, label):
        res = directional_derivative(LpSpace(p), C, x, v)
        assert res.case_label == label
        twin = np.array([float(e) for e in mp_line_derivative(p, *_line(C), x, v)])
        assert np.max(np.abs(res.value - twin)) <= 1e-12 * max(1.0, np.max(np.abs(twin)))

    def test_flat_fit_is_exact(self):
        # at p = 3, P(x + s v) = (0.5 + 0.3 s, 0, 0) for small s: the
        # quotients gave 0.2999999999998977
        res = directional_derivative(LpSpace(3.0), E1_SEGMENT, [0.5, 1.0, 2.0], [0.3, -0.7, 0.2])
        assert np.array_equal(res.value, [0.3, 0.0, 0.0])

    def test_lines_never_reach_the_quotients(self, monkeypatch):
        calls = []
        monkeypatch.setattr(derivative_mod, "numdiff_derivative",
                            lambda *args, **kwargs: calls.append(args))
        kinds = set()
        for p, C, x, v in line_draws(200):
            directional_derivative(LpSpace(p), C, x, v)
            kinds.add(type(C))
        assert kinds == {Segment, Ray} and calls == []


# one 3-d descriptor of every set type
ALL_3D = {
    "ball": Ball(center=[0.0, 0.0, 0.0], radius=1.0),
    "cone": PositiveCone(),
    "subspace": CoordinateSubspace(free=[True, False, True]),
    "polytope_h": PolytopeH(normals=np.vstack([np.eye(3), -np.eye(3)]), offsets=np.ones(6)),
    "polytope_v": PolytopeV(vertices=np.vstack([np.zeros(3), np.eye(3)])),
    "segment": Segment(u=[0.0, 0.0, 0.0], w=[1.0, 0.0, 0.0]),
    "ray": Ray(v=[0.0, 0.0, 0.0], dir=[1.0, 1.0, 0.0]),
    "singleton": Singleton(y=[1.0, 2.0, 3.0]),
}

# every derivative entry point, called with (space, x, v)
DERIVATIVE_ENTRY_POINTS = {
    "directional_derivative": lambda space, x, v: directional_derivative(space, ALL_3D["ball"], x, v),
}


class TestEntryValidation:
    @pytest.mark.parametrize("kind", sorted(ALL_3D))
    def test_zero_direction_rejected_for_every_type(self, kind):
        # the base point lies off the subspace and off the singleton
        with pytest.raises(ValueError, match="direction must be nonzero"):
            directional_derivative(LpSpace(3.0), ALL_3D[kind], [0.3, -2.0, 1.0], np.zeros(3))

    @pytest.mark.parametrize("which", ["x", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", sorted(ALL_3D))
    def test_non_finite_inputs_rejected_for_every_type(self, kind, bad, which):
        args = {"x": np.array([0.5, 0.0, 0.25]), "v": np.array([1.0, -1.0, 0.5])}
        args[which][1] = bad
        with pytest.raises(ValueError, match="coordinates must be finite"):
            directional_derivative(LpSpace(3.0), ALL_3D[kind], args["x"], args["v"])

    @pytest.mark.parametrize("entry", sorted(DERIVATIVE_ENTRY_POINTS))
    def test_every_entry_point_rejects_a_zero_direction(self, entry):
        # (1, 0, 0) lies on the unit sphere of every ℓ_p
        x = [1.0, 0.0, 0.0]
        DERIVATIVE_ENTRY_POINTS[entry](LpSpace(3.0), x, [1.0, 0.0, 0.0])   # accepted
        with pytest.raises(ValueError, match="direction must be nonzero"):
            DERIVATIVE_ENTRY_POINTS[entry](LpSpace(3.0), x, np.zeros(3))

    def test_ball_clauses_refuse_where_the_unit_quotients_leave_the_sphere(self):
        # an overflowing norm leaves no unit vector to take the slope at
        space, c = LpSpace(3.0), np.zeros(3)
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="direction must lie on the unit sphere"):
            # ‖v‖ overflows
            directional_derivative(space, BALL3, [1.0, 0.0, 0.0], np.full(3, 1.7e308))
        # the sphere band scales with the radius, so the center of even a
        # thin ball is interior, where the derivative is v itself
        res = directional_derivative(space, Ball(center=c, radius=1e-12), c, [1.0, 0.0, 0.0])
        assert res.case_label == "ball:interior"
        assert np.array_equal(res.value, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("entry", sorted(DERIVATIVE_ENTRY_POINTS))
    def test_every_entry_point_rejects_a_nan_base_point(self, entry):
        # a NaN base point must not come back as a NaN value under a
        # regular clause label
        with pytest.raises(ValueError, match="coordinates must be finite"):
            DERIVATIVE_ENTRY_POINTS[entry](LpSpace(3.0), [np.nan, 0.0, 0.0], [1.0, 0.0, 0.0])
