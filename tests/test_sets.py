"""Set descriptors, membership, closed-form projections, inverse images."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from banachproj import (
    Ball,
    CoordinateSubspace,
    InfeasibleSetError,
    LpSpace,
    PolytopeH,
    PolytopeV,
    PositiveCone,
    Ray,
    Segment,
    Singleton,
    classify_point,
    contains,
    descriptor_from_json,
    descriptor_to_json,
    orthogonal_cone_residual,
    project,
)
from banachproj import sets
from banachproj.sets import _TYPES, _Polytope, _tolerance
from banachproj.verify import _random_sets
from oracles import (
    grid_project,
    highs_feasible,
    line_param_bisect,
    line_param_brentq,
    lp_norm,
    param_grid_min,
    probe_gap,
)


class TestDescriptorValidation:
    def test_ball_requires_positive_finite_radius(self):
        for r in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                Ball(center=[0.0, 0.0], radius=r)

    def test_subspace_must_be_proper_and_nonempty(self):
        with pytest.raises(ValueError):
            CoordinateSubspace(free=[True, True])
        with pytest.raises(ValueError):
            CoordinateSubspace(free=[False, False])
        with pytest.raises(ValueError):
            CoordinateSubspace(free=[])
        CoordinateSubspace(free=[True, False])

    def test_segment_endpoints_distinct(self):
        with pytest.raises(ValueError):
            Segment(u=[1.0, 2.0], w=[1.0, 2.0])
        with pytest.raises(ValueError):
            Segment(u=[1.0, 2.0], w=[1.0])

    def test_ray_direction_nonzero(self):
        with pytest.raises(ValueError):
            Ray(v=[0.0, 0.0], dir=[0.0, 0.0])

    def test_infeasible_halfspaces_rejected_at_construction(self):
        # z1 <= -1 and -z1 <= -2 (z1 >= 2) cannot both hold
        with pytest.raises(InfeasibleSetError):
            PolytopeH(normals=[[1.0, 0.0], [-1.0, 0.0]], offsets=[-1.0, -2.0])
        with pytest.raises(InfeasibleSetError):
            PolytopeH(normals=[[0.0, 0.0]], offsets=[-1.0])

    def test_feasible_point_satisfies_rows(self):
        C = PolytopeH(normals=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], offsets=[1.0, 0.0, 0.0])
        z = C.feasible_point()
        assert np.all(C.normals @ z <= C.offsets + 1e-9)

    def test_redundant_zero_and_duplicate_rows_are_feasible(self):
        # a zero row with offset 0 and a row given twice leave the set as it is
        C = PolytopeH(normals=[[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [-1.0, 0.0]],
                      offsets=[0.0, -1.0, -1.0, 3.0])
        assert_allclose(C.feasible_point(), [-0.5, -0.5], rtol=0.0, atol=1e-15)

    def test_vertex_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            PolytopeV(vertices=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            PolytopeV(vertices=[[1.0, float("nan")]])

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Singleton(y=[1.0, float("inf")])
        with pytest.raises(ValueError):
            Ball(center=[float("nan"), 0.0], radius=1.0)


def probe_corpus():
    """2000 seeded row systems Az <= b: n = 2..12, 1..3n rows, each row and
    the anchor z0 scaled by e^U(-3, 3).  Of each four, one has every row
    tight at z0 (b = Az0), one slack rows (b = Az0 + s), and two those
    slack rows plus a row -σAᵀy, y >= 0 random, with offset below -σbᵀy,
    so that y and that row's weight 1/σ are a Farkas ray (infeasible by
    construction).  Yields (feasible, A, b)."""
    rng = np.random.default_rng(32)
    for i in range(2000):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 3 * n + 1))
        A = rng.normal(size=(m, n)) * np.exp(rng.uniform(-3.0, 3.0, size=(m, 1)))
        b = A @ (rng.normal(size=n) * np.exp(rng.uniform(-3.0, 3.0)))
        if i % 4:
            b = b + rng.uniform(0.0, 1.0, m) * np.exp(rng.uniform(-3.0, 3.0))
        if i % 4 >= 2:
            y = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.6)
            y[rng.integers(m)] += 1.0
            sigma = np.exp(rng.uniform(-3.0, 3.0))
            gap = rng.uniform(0.01, 1.0) * np.exp(rng.uniform(-3.0, 3.0))
            order = rng.permutation(m + 1)
            A = np.vstack([A, -sigma * (A.T @ y)])[order]
            b = np.append(b, -sigma * (b @ y) - gap)[order]
        yield i % 4 < 2, A, b


#: seconds allowed for one construction at n = 100 and 300.  On a 2-core
#: VM it took 9-24 ms and 0.14-0.22 s alone, and up to 0.3 s and 20 s while
#: a benchmark kept both cores busy (each Gram solve is a threaded LAPACK
#: call); a least-squares solve per step takes 20-58 s at 300 alone
LARGE_PROBE_S = {100: 5.0, 300: 60.0}


def _rows_hold(A, b, z):
    return bool(np.all(A @ z <= b + 1e-9 * max(1.0, float(np.abs(b).max()))))


class TestFeasibilityProbe:
    """The construction probe: Lawson–Hanson NNLS instead of a HiGHS LP."""

    def test_seeded_systems_decide_as_the_construction_and_highs(self):
        disagree, undecided = [], 0
        for i, (feasible, A, b) in enumerate(probe_corpus()):
            try:
                z = PolytopeH(normals=A, offsets=b).feasible_point()
                found = True
                assert _rows_hold(A, b, z), i
            except InfeasibleSetError:
                found = False
            except ValueError:
                undecided += 1
                continue
            if not found == feasible == highs_feasible(A, b):
                disagree.append(i)
        assert (disagree, undecided) == ([], 0)

    @pytest.mark.parametrize("center", [1e3, 1e6, 1e12])
    def test_sets_far_from_the_origin_decide(self, center):
        # one unscaled least-distance pass left boxes 1e3 away in R^12
        # undecided: the origin's distance swamps the rows' own scale
        rng = np.random.default_rng(int(np.log10(center)))
        for n in (2, 5, 12, 50):
            A = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(n, n))])
            b = A @ (center + rng.normal(size=n)) + rng.uniform(0.01, 1.0, 3 * n)
            assert _rows_hold(A, b, PolytopeH(normals=A, offsets=b).feasible_point())
            with pytest.raises(InfeasibleSetError):   # the first row against its opposite
                PolytopeH(normals=np.vstack([A, -A[0]]), offsets=np.append(b, -b[0] - 1e-3 * center))

    @pytest.mark.parametrize("n", [100, 300])
    def test_hundreds_of_rows(self, n):
        # the chain z_(i+1) >= z_i + 1 has every row active at its
        # least-norm point i - (n - 1)/2; the cuts are 2n random rows
        chain = np.eye(n)[:-1] - np.eye(n, k=1)[:-1]
        rng = np.random.default_rng(n)
        cuts = rng.normal(size=(2 * n, n))
        for A, b in ((chain, -np.ones(n - 1)),
                     (cuts, cuts @ rng.normal(size=n) + rng.uniform(0.0, 1.0, 2 * n))):
            start = time.perf_counter()
            z = PolytopeH(normals=A, offsets=b).feasible_point()
            assert time.perf_counter() - start < LARGE_PROBE_S[n]
            assert _rows_hold(A, b, z)
        assert_allclose(PolytopeH(normals=chain, offsets=-np.ones(n - 1)).feasible_point(),
                        np.arange(n) - (n - 1) / 2.0, rtol=0.0, atol=1e-9)


class TestDescriptorJson:
    def test_roundtrip_each_type(self):
        space = LpSpace(3.0)
        sets = [
            Ball(center=[0.5, -1.0], radius=2.0),
            PositiveCone(),
            CoordinateSubspace(free=[True, False]),
            PolytopeH(normals=[[1.0, 0.0]], offsets=[1.0]),
            PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            Segment(u=[0.0, 0.0], w=[1.0, 1.0]),
            Ray(v=[1.0, 0.0], dir=[0.0, 1.0]),
            Singleton(y=[2.0, 3.0]),
        ]
        x = np.array([0.3, 0.4])
        for C in sets:
            D = descriptor_from_json(descriptor_to_json(C))
            assert type(D) is type(C)
            assert contains(space, C, x) == contains(space, D, x)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            descriptor_from_json({"center": [0.0], "radius": 1.0})
        with pytest.raises(ValueError):
            descriptor_from_json({"type": "klein_bottle"})
        with pytest.raises(ValueError):
            descriptor_from_json({"type": "ball", "center": [0.0, 0.0]})
        with pytest.raises(ValueError):
            descriptor_from_json("ball")

    @pytest.mark.parametrize("kind", [["ball"], None, 3], ids=["list", "none", "int"])
    def test_malformed_type_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown set type"):
            descriptor_from_json({"type": kind, "center": [0.0], "radius": 1.0})


class TestContains:
    def test_sphere_point_with_zero_tolerance(self):
        space = LpSpace(3.0)
        assert contains(space, Ball(center=[0.0, 0.0, 0.0], radius=1.0), [1.0, 0.0, 0.0], tol=0.0)

    def test_cone_membership(self):
        space = LpSpace(2.0)
        K = PositiveCone()
        assert not contains(space, K, [1.0, -0.1, 0.0], tol=0.0)
        assert contains(space, K, [1.0, 0.0, 0.0], tol=0.0)
        # default tolerance forgives roundoff-level violations
        assert contains(space, K, [1.0, -1e-12, 0.0])

    def test_subspace_membership(self):
        space = LpSpace(2.0)
        C = CoordinateSubspace(free=[True, True, False])
        assert contains(space, C, [5.0, -2.0, 0.0])
        assert not contains(space, C, [5.0, -2.0, 0.1])

    def test_segment_ray_singleton_membership(self):
        space = LpSpace(2.0)
        assert contains(space, Segment(u=[0.0, 0.0], w=[2.0, 0.0]), [1.0, 0.0])
        assert not contains(space, Segment(u=[0.0, 0.0], w=[2.0, 0.0]), [3.0, 0.0], tol=0.5)
        assert contains(space, Ray(v=[0.0, 0.0], dir=[1.0, 1.0]), [7.0, 7.0])
        assert not contains(space, Ray(v=[0.0, 0.0], dir=[1.0, 1.0]), [-1.0, -1.0], tol=0.1)
        assert contains(space, Singleton(y=[1.0, 2.0]), [1.0, 2.0], tol=0.0)

    def test_polytope_membership(self):
        space = LpSpace(2.0)
        H = PolytopeH(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 1.0])
        assert contains(space, H, [0.5, -3.0], tol=0.0)
        assert not contains(space, H, [1.1, 0.0], tol=0.0)
        V = PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert contains(space, V, [0.25, 0.25], tol=0.0)
        assert contains(space, V, [1.0, 0.0], tol=0.0)
        assert not contains(space, V, [0.6, 0.6], tol=0.0)

    def test_dimension_and_tolerance_validation(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError):
            contains(space, Ball(center=[0.0, 0.0], radius=1.0), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            contains(space, PositiveCone(), [1.0], tol=-1e-3)


class TestProjectBall:
    def test_cubic_norm_example(self):
        space = LpSpace(3.0)
        P = project(space, Ball(center=np.zeros(3), radius=1.0), [2.0, 2.0, 2.0])
        assert_allclose(P, np.full(3, 3.0 ** (-1.0 / 3.0)), rtol=1e-15)

    def test_interior_point_fixed(self):
        space = LpSpace(3.0)
        x = np.array([0.1, -0.2, 0.3])
        P = project(space, Ball(center=np.zeros(3), radius=1.0), x)
        assert np.array_equal(P, x)
        assert P is not x

    def test_collinear_euclidean_case(self):
        space = LpSpace(2.0)
        P = project(space, Ball(center=[1.0, 0.0], radius=2.0), [5.0, 0.0])
        assert_allclose(P, [3.0, 0.0], rtol=1e-15)

    def test_idempotent(self, rng):
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            for _ in range(20):
                x = rng.normal(size=4) * 3.0
                P = project(space, Ball(center=np.zeros(4), radius=1.0), x)
                P2 = project(space, Ball(center=np.zeros(4), radius=1.0), P)
                assert space.norm(P2 - P) < 1e-10

    def test_grid_search_never_beats_projection(self):
        space = LpSpace(3.0)
        x = np.array([1.3, -0.9])
        P = project(space, Ball(center=np.zeros(2), radius=1.0), x)
        feasible = lambda Z: np.sum(np.abs(Z) ** 3, axis=1) <= 1.0
        _, grid_val = grid_project(3.0, feasible, x, [-1.1, -1.1], [1.1, 1.1])
        assert space.norm(x - P) <= grid_val + 1e-3

    def test_variational_residual_on_sphere_probes(self, rng):
        # u = P(x) must satisfy <J(x-u), u-z> >= 0 for all z in the ball
        for p in (1.5, 3.0):
            space = LpSpace(p)
            x = rng.normal(size=3) * 4.0
            u = project(space, Ball(center=np.zeros(3), radius=1.0), x)
            j = space.duality_map(x - u)
            for _ in range(60):
                z = rng.normal(size=3)
                z = z / space.norm(z) * rng.uniform(0.0, 1.0)
                assert space.pairing(j, u - z) >= -1e-8

    def test_rejects_bad_arguments(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError):
            project(space, Ball(center=[0.0, 0.0], radius=-1.0), [1.0, 0.0])
        with pytest.raises(ValueError):
            project(space, Ball(center=[0.0, 0.0, 0.0], radius=1.0), [1.0, 0.0])


class TestProjectPositiveCone:
    # clipping does not depend on p
    space = LpSpace(3.0)

    def test_clips_negative_coordinates(self):
        assert_allclose(project(self.space, PositiveCone(), [1.0, -2.0, 3.0]), [1.0, 0.0, 3.0])

    def test_fixed_on_cone(self):
        x = np.array([1.0, 0.0, 2.5])
        assert np.array_equal(project(self.space, PositiveCone(), x), x)

    def test_all_negative_maps_to_origin(self):
        assert np.array_equal(project(self.space, PositiveCone(), [-1.0, -1.0, -1.0]), np.zeros(3))

    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_positive_part_pointwise(self, coords):
        x = np.array(coords)
        P = project(self.space, PositiveCone(), x)
        assert np.all(P >= 0.0)
        assert np.array_equal(P, np.maximum(x, 0.0))
        assert np.array_equal(project(self.space, PositiveCone(), P), P)


class TestProjectCoordinateSubspace:
    # masking does not depend on p
    space = LpSpace(3.0)
    plane = CoordinateSubspace(free=[True, True, False])

    def test_masks_coordinates(self):
        P = project(self.space, self.plane, [2.0, -1.0, 7.0])
        assert_allclose(P, [2.0, -1.0, 0.0])

    def test_euclidean_case(self):
        line = CoordinateSubspace(free=[True, False])
        assert_allclose(project(LpSpace(2.0), line, [3.0, 4.0]), [3.0, 0.0])

    def test_fixed_on_subspace(self):
        x = np.array([2.0, -1.0, 0.0])
        assert np.array_equal(project(self.space, self.plane, x), x)

    def test_separability_against_grid_oracle(self):
        # nearest point with third coordinate pinned to zero, p = 3
        x = np.array([2.0, -1.0, 7.0])
        feasible = lambda Z: np.abs(Z[:, 2]) <= 1e-12
        gp, gv = grid_project(3.0, feasible, x, [1.0, -2.0, 0.0], [3.0, 0.0, 0.0])
        space = LpSpace(3.0)
        P = project(space, self.plane, x)
        assert space.norm(x - P) <= gv + 1e-3
        assert_allclose(gp, P, atol=2e-3)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            project(self.space, CoordinateSubspace(free=[True, False]), [1.0, 2.0, 3.0])


class TestProjectSegmentAndRay:
    def test_symmetric_segment_midpoint(self):
        # |1-t|^p + t^p is symmetric about t = 1/2 for every p
        for p in (1.5, 2.0, 3.0, 4.0):
            space = LpSpace(p)
            P = project(space, Segment(u=[0.0, 0.0], w=[1.0, 1.0]), [1.0, 0.0])
            assert_allclose(P, [0.5, 0.5], atol=1e-10)

    def test_euclidean_foot_of_perpendicular(self):
        space = LpSpace(2.0)
        P = project(space, Segment(u=[0.0, 0.0], w=[1.0, 0.0]), [0.5, 3.0])
        assert_allclose(P, [0.5, 0.0], atol=1e-12)

    def test_endpoint_clamping(self):
        space = LpSpace(3.0)
        S = Segment(u=[0.0, 0.0], w=[1.0, 0.0])
        assert_allclose(project(space, S, [-1.0, 2.0]), [0.0, 0.0])
        assert_allclose(project(space, S, [5.0, 1.0]), [1.0, 0.0])

    def test_segment_against_parameter_oracle(self):
        space = LpSpace(1.5)
        u = np.array([-1.0, 0.5])
        w = np.array([2.0, -1.0])
        x = np.array([0.3, 0.7])
        P = project(space, Segment(u=u, w=w), x)
        _, best = param_grid_min(lambda t: lp_norm(x - (u + t * (w - u)), 1.5), 0.0, 1.0)
        assert space.norm(x - P) <= best + 1e-6
        assert contains(space, Segment(u=u, w=w), P)

    def test_ray_axis_instance(self):
        space = LpSpace(3.0)
        R = Ray(v=[1.0, 0.0], dir=[0.0, 1.0])
        assert_allclose(project(space, R, [4.0, 2.0]), [1.0, 2.0])
        assert_allclose(project(space, R, [4.0, -3.0]), [1.0, 0.0])

    def test_ray_diagonal_instance(self):
        space = LpSpace(3.0)
        P = project(space, Ray(v=[0.0, 0.0], dir=[1.0, 1.0]), [1.0, 0.0])
        assert_allclose(P, [0.5, 0.5], atol=1e-10)

    def test_ray_far_parameter(self):
        space = LpSpace(2.0)
        P = project(space, Ray(v=[0.0, 0.0], dir=[1.0, 0.0]), [1e6, 1.0])
        assert_allclose(P, [1e6, 0.0], rtol=1e-12)

    def test_ray_parameter_cap(self):
        space = LpSpace(2.0)
        with pytest.raises(ArithmeticError, match="overflow"):
            project(space, Ray(v=[0.0, 0.0], dir=[1e-20, 0.0]), [1e3, 0.0])
        # t = 1e17 lies below the cap
        P = project(space, Ray(v=[0.0, 0.0], dir=[1e-15, 0.0]), [1e2, 0.0])
        assert_allclose(P, [1e2, 0.0], rtol=1e-15)

    @pytest.mark.parametrize("tiny", [0.0, 5e-324])
    @pytest.mark.parametrize("t, refused", [(2.0 ** 59 - 64.0, False), (2.0 ** 59, True)])
    def test_ray_refused_exactly_when_slope_at_cap_is_not_positive(self, tiny, t, refused):
        # the cap decides alike whether or not a subnormal direction entry
        # overflows its breakpoint
        space = LpSpace(2.0)
        R = Ray(v=[0.0, 0.0], dir=[1.0, tiny])
        if refused:
            with pytest.raises(ArithmeticError, match="overflow"):
                project(space, R, [t, 1.0])
        else:
            assert_allclose(project(space, R, [t, 1.0]), [t, t * tiny], rtol=1e-15, atol=0.0)

    def test_no_slope_evaluated_outside_or_on_the_line(self, monkeypatch):
        calls = []
        slope = sets._param_distance_slope
        monkeypatch.setattr(sets, "_param_distance_slope", lambda *a: calls.append(a) or slope(*a))
        space = LpSpace(3.0)
        S = Segment(u=[0.0, 0.0], w=[1.0, 2.0])
        R = Ray(v=[0.0, 0.0], dir=[1.0, 2.0])
        assert_allclose(project(space, S, [2.0, 3.0]), [1.0, 2.0])     # past w
        assert_allclose(project(space, R, [-1.0, -3.0]), [0.0, 0.0])   # behind v
        assert_allclose(project(space, R, [1.5, 3.0]), [1.5, 3.0])     # on the ray
        assert calls == []

    def test_segment_idempotent(self, rng):
        space = LpSpace(3.0)
        u = np.array([-1.0, 0.0, 2.0])
        w = np.array([1.0, 1.0, -1.0])
        for _ in range(10):
            x = rng.normal(size=3) * 3.0
            P = project(space, Segment(u=u, w=w), x)
            assert space.norm(project(space, Segment(u=u, w=w), P) - P) < 1e-9


class TestLineSearchProperties:
    """The segment and ray parameter search against the bisection twin, on
    points exactly on the line, 1e-9 off it and far from it, with zero and
    subnormal direction entries (a subnormal one overflows its breakpoint
    off the line)."""

    @staticmethod
    def _points(rng, origin, d, span):
        n = d.size
        on = origin + rng.uniform(-0.5, span, (3, 1)) * d
        off = on + 1e-9 * rng.standard_normal((3, n))
        far = origin + 1e3 * rng.standard_normal((2, n))
        near = origin + 2.0 * rng.standard_normal((2, n))
        return np.vstack([on, off, far, near])

    @pytest.mark.parametrize("kind", ["segment", "ray"])
    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 8.0])
    def test_against_bisection_and_idempotent(self, p, kind):
        space = LpSpace(p)
        hi = 1.0 if kind == "segment" else None
        rng = np.random.default_rng([int(100 * p), hi is None])
        eps = np.finfo(float).eps
        for n in range(1, 9):
            for entry in (None, 0.0, 5e-324 * 37) if n > 1 else (None,):
                origin = rng.standard_normal(n)
                d = rng.standard_normal(n)
                if entry is not None:
                    k = rng.integers(n)
                    origin[k], d[k] = 0.0, entry   # so w - u has the entry exactly
                C = Segment(u=origin, w=origin + d) if hi else Ray(v=origin, dir=d)
                for x in self._points(rng, origin, d, 1.5 if hi else 4.0):
                    t = sets._project_line_param(space, origin, d, x, 0.0, hi)
                    t_ref = line_param_bisect(p, origin, d, x, hi)
                    assert 0.0 <= t <= (hi or np.inf)
                    # no worse than the twin, up to the rounding of the distance
                    dist = lambda s: lp_norm(x - origin - s * d, p)
                    slack = 4 * n * eps * (lp_norm(x - origin, p) + t_ref * lp_norm(d, p))
                    assert dist(t) <= dist(t_ref) + slack, (n, entry, x)
                    P = project(space, C, x)
                    ulp = np.spacing(max(np.max(np.abs(P)), np.max(np.abs(origin))))
                    assert np.max(np.abs(project(space, C, P) - P)) <= 4 * ulp, (n, entry, x)


def _search_outcome(search):
    # the returned parameter's exact bits, or the refusal's type
    try:
        return repr(search())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


class TestLineSearchBits:
    """The in-house Brent against SciPy's brentq (the twin in oracles):
    the same t, bit for bit, on segments and rays, with each slope
    evaluated once per parameter."""

    KINDS = {"segment": (1.0, 2), "ray": (None, 1)}   # hi, and the seed of the kind's corpus

    @staticmethod
    def _corpus(rng):
        # (origin, d, x): zero, -0.0 and subnormal d entries, ±0.0 in the
        # point, and points on the line, 1e-9 off it, near it and far from it
        for n in range(1, 9):
            for entry in (None, 0.0, -0.0, 5e-324 * 37, 1e-310) if n > 1 else (None,):
                for scale in (1e-3, 1.0, 1e3):
                    origin = scale * rng.standard_normal(n)
                    d = scale * rng.standard_normal(n)
                    if entry is not None:
                        k = rng.integers(n)
                        origin[k], d[k] = 0.0, entry
                    on = origin + rng.uniform(-0.5, 2.0, (2, 1)) * d
                    off = on + 1e-9 * scale * rng.standard_normal((2, n))
                    far = origin + 1e3 * scale * rng.standard_normal((1, n))
                    near = origin + scale * rng.standard_normal((2, n))
                    signed_zero = near[:1].copy()
                    signed_zero[0, rng.integers(n)] = -0.0
                    for x in np.vstack([on, off, far, near, signed_zero]):
                        yield origin, d, x

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 8.0, 20.0])
    def test_same_bits_as_the_brentq_twin(self, p, kind):
        hi, seed = self.KINDS[kind]
        space = LpSpace(p)
        rng = np.random.default_rng([int(100 * p), seed])
        for origin, d, x in self._corpus(rng):
            with np.errstate(over="ignore"):   # slopes at p = 20 may overflow to ±inf
                ours = _search_outcome(
                    lambda: sets._project_line_param(space, origin, d, x, 0.0, hi))
                twin = _search_outcome(lambda: line_param_brentq(p, origin, d, x, hi))
            assert ours == twin, (origin, d, x)

    def test_each_slope_evaluated_once_per_parameter(self, monkeypatch):
        calls = []
        slope = sets._param_distance_slope
        monkeypatch.setattr(sets, "_param_distance_slope",
                            lambda space, base, d, t: calls.append(t) or slope(space, base, d, t))
        rng = np.random.default_rng(19)
        searched = 0
        for p in (1.05, 2.0, 3.0, 8.0):
            space = LpSpace(p)
            for hi, _ in self.KINDS.values():
                for origin, d, x in self._corpus(rng):
                    calls.clear()
                    sets._project_line_param(space, origin, d, x, 0.0, hi)
                    assert len(set(calls)) == len(calls), calls
                    searched += len(calls) > 2
        assert searched > 1000   # the corpus reaches Brent's iterates

    def test_nan_slope_is_a_numeric_failure(self):
        # |r_i|^19 overflows on both sides of the sum at t = 0.5; without
        # the check Brent steps on NaN comparisons and returns t ≈ 1.7e-4
        # (the answer is t = 0.5)
        with pytest.raises(ArithmeticError, match="NaN"), np.errstate(over="ignore", invalid="ignore"):
            project(LpSpace(20.0), Segment(u=[0.0, 0.0], w=[1e20, 1e20]), [1e20, 0.0])

    @pytest.mark.parametrize("ends", [(np.nan, 1.0), (-1.0, np.nan)])
    def test_nan_end_slope_is_refused(self, ends):
        with pytest.raises(ArithmeticError, match="NaN"):
            sets._brent_root(lambda t: t - 0.25, 0.0, ends[0], 1.0, ends[1], 1e-15)

    def test_nan_iterate_is_refused(self):
        with pytest.raises(ArithmeticError, match="NaN"):
            sets._brent_root(lambda t: np.nan, 0.0, -1.0, 1.0, 1.0, 1e-15)

    def test_iteration_cap_is_a_numeric_failure(self, monkeypatch):
        monkeypatch.setattr(sets, "_MAXITER", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            project(LpSpace(3.0), Segment(u=[0.0, 0.0], w=[1.0, 1.0]), [0.9, 0.0])


class TestClassifyPoint:
    def test_ball_interior(self):
        space = LpSpace(3.0)
        B = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
        res = classify_point(space, B, [0.5, 0.0, 0.0])
        assert res.tag == "internal"
        assert res.witness is None

    def test_sphere_point_witness(self):
        space = LpSpace(3.0)
        B = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
        res = classify_point(space, B, [1.0, 0.0, 0.0])
        assert res.tag == "cuticle"
        assert_allclose(res.witness, [1.0, 0.0, 0.0])
        # the witness actually projects back: P(y + u) = y
        y = np.array([1.0, 0.0, 0.0])
        assert_allclose(project(space, B, y + res.witness), y, atol=1e-12)

    def test_subspace_always_cuticle(self):
        space = LpSpace(2.0)
        C = CoordinateSubspace(free=[True, True, False])
        res = classify_point(space, C, [2.0, 3.0, 0.0])
        assert res.tag == "cuticle"
        assert_allclose(res.witness, [0.0, 0.0, 1.0])
        y = np.array([2.0, 3.0, 0.0])
        assert np.array_equal(project(space, C, y + res.witness), y)

    def test_cone_regimes(self):
        space = LpSpace(3.0)
        K = PositiveCone()
        assert classify_point(space, K, [1.0, 2.0, 3.0]).tag == "internal"
        res = classify_point(space, K, [1.0, 0.0, 3.0])
        assert res.tag == "cuticle"
        assert_allclose(res.witness, [0.0, -1.0, 0.0])
        y = np.array([1.0, 0.0, 3.0])
        assert np.array_equal(project(space, K, y + res.witness), y)

    def test_singleton_cuticle(self):
        space = LpSpace(2.0)
        res = classify_point(space, Singleton(y=[1.0, 2.0]), [1.0, 2.0])
        assert res.tag == "cuticle"
        assert np.any(res.witness)

    def test_rejects_outside_point_and_odd_descriptors(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError):
            classify_point(space, Ball(center=[0.0, 0.0], radius=1.0), [3.0, 0.0])
        with pytest.raises(ValueError):
            classify_point(space, Segment(u=[0.0, 0.0], w=[1.0, 0.0]), [0.5, 0.0])


class TestDescriptorMethods:
    def test_every_type_samples(self):
        for cls in _TYPES.values():
            assert "sample" in vars(cls), cls.__name__

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_samples_are_members(self, p, n, rng):
        space = LpSpace(p)
        for _ in range(3):
            descriptors = list(_random_sets(rng, n))
            assert {C.kind for C in descriptors} == set(_TYPES)
            for C in descriptors:
                members = list(C.sample(rng, n))
                assert members
                for z in members:
                    assert z.shape == (n,)
                    assert contains(space, C, z), (C.kind, z)

    @pytest.mark.parametrize("kind", ["polytope_h", "polytope_v", "segment", "ray"])
    def test_classify_refused_without_a_rule(self, kind, rng):
        space = LpSpace(3.0)
        C = next(D for D in _random_sets(rng, 3) if D.kind == kind)
        y = next(C.sample(rng, 3))
        name = type(C).__name__
        with pytest.raises(ValueError, match=f"no closed-form internal/cuticle classification for {name}"):
            classify_point(space, C, y)

    def test_cone_witness_has_no_negative_zeros(self):
        res = classify_point(LpSpace(3.0), PositiveCone(), [1.0, 0.0, 3.0])
        assert np.signbit(res.witness).tolist() == [False, True, False]


class TestOrthogonalConeResidual:
    def test_masked_support_annihilates(self):
        space = LpSpace(3.0)
        assert orthogonal_cone_residual(space, [True, True, False], [0.0, 0.0, 5.0]) == 0.0
        assert orthogonal_cone_residual(space, [True, True, False], np.zeros(3)) == 0.0

    def test_mixed_support_value(self):
        space = LpSpace(3.0)
        res = orthogonal_cone_residual(space, [True, True, False], [1.0, 0.0, 1.0])
        assert res == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-14)

    def test_shape_mismatch(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError):
            orthogonal_cone_residual(space, [True, False], [1.0, 2.0, 3.0])


class TestInverseImageRay:
    # the inverse image of a sphere point y is the outward ray {y + t y : t >= 0}
    BALL = Ball(center=np.zeros(3), radius=1.0)

    def test_outward_ray_projects_back(self):
        space = LpSpace(3.0)
        y = np.array([1.0, 0.0, 0.0])
        for t in (0.0, 5.0):
            assert space.norm(project(space, self.BALL, y + t * y) - y) <= _tolerance(space, y)

    def test_perturbed_point_fails(self):
        space = LpSpace(3.0)
        y = np.array([1.0, 0.1, 0.0])
        assert space.norm(project(space, self.BALL, y + 5.0 * y) - y) > _tolerance(space, y)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("kind", sorted(k for k, D in _TYPES.items()
                                            if not issubclass(D, _Polytope)))
    def test_ray_law_on_every_closed_form_set(self, kind, p, rng):
        # Px = y exactly when <J(x - y), c - y> <= 0 on C; J is positively
        # homogeneous, so every y + t (x - y) with t >= 0 projects to y too
        space = LpSpace(p)
        C = next(D for D in _random_sets(rng, 3) if D.kind == kind)
        for _ in range(3):
            x = 3.0 * rng.standard_normal(3)
            y = project(space, C, x)
            for t in (0.0, 0.5, 4.0):
                z = y + t * (x - y)
                assert space.norm(project(space, C, z) - y) <= _tolerance(space, z)


class TestConeTranslation:
    # P(x) = y exactly when P(x + u - y) = u, for u = t y on the ray from the vertex 0
    @pytest.mark.parametrize("x, member", [
        ([1.0, 1.0, -4.0], True), ([1.0, 1.0, 0.0], True), ([0.0, 1.0, -4.0], False),
    ], ids=["member_of_inverse_image", "base_point_itself", "nonmember_equivalence"])
    def test_translation_law(self, x, member):
        space, y, x = LpSpace(3.0), np.array([1.0, 1.0, 0.0]), np.array(x)
        u = 2.0 * y
        eff = max(_tolerance(space, y), _tolerance(space, x))
        assert (space.norm(project(space, PositiveCone(), x) - y) <= eff) == member
        assert (space.norm(project(space, PositiveCone(), x + (u - y)) - u) <= eff) == member

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("kind", ["coordinate_subspace", "positive_cone", "ray"])
    def test_translation_law_on_every_cone(self, kind, p, rng):
        # the same law for each cone, with u = v + t (y - v) on the ray from its vertex v
        space = LpSpace(p)
        K = next(D for D in _random_sets(rng, 3) if D.kind == kind)
        vertex = K.v if kind == "ray" else np.zeros(3)
        for _ in range(3):
            x = 3.0 * rng.standard_normal(3)
            y = project(space, K, x)
            for t in (0.5, 2.0):
                u = vertex + t * (y - vertex)
                z = x + (u - y)
                assert space.norm(project(space, K, z) - u) <= _tolerance(space, z)


class TestDualConeResidual:
    # x projects to the cone's vertex 0 exactly when <J x, 0 - z> >= 0 for all z in the cone
    def test_all_negative_point_has_nonnegative_margin(self):
        probes = [np.eye(3)[i] for i in range(3)]
        x = np.array([-1.0, -1.0, -1.0])
        assert np.array_equal(project(LpSpace(3.0), PositiveCone(), x), np.zeros(3))
        res = probe_gap(3.0, x, np.zeros(3), probes)
        assert res >= 0.0
        assert res == pytest.approx(3.0 ** (-1.0 / 3.0), rel=1e-14)

    def test_vertex_itself(self):
        space = LpSpace(3.0)
        assert np.array_equal(project(space, PositiveCone(), np.zeros(3)), np.zeros(3))
        assert np.array_equal(space.duality_map(np.zeros(3)), np.zeros(3))   # a zero margin

    def test_positive_point_fails_margin(self):
        x = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(project(LpSpace(3.0), PositiveCone(), x), x)
        assert probe_gap(3.0, x, np.zeros(3), [np.eye(3)[0]]) == pytest.approx(-1.0, rel=1e-14)


class TestProjectionMonotonicity:
    def test_duality_monotone_along_projections(self, rng):
        """<J(x - Px) - J(y - Py), Px - Py> >= 0 over random pairs."""
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            descriptors = [
                Ball(center=np.zeros(4), radius=1.0),
                PositiveCone(),
                CoordinateSubspace(free=[True, False, True, False]),
            ]
            for C in descriptors:
                proj = lambda z: project(space, C, z)
                for _ in range(40):
                    x = rng.normal(size=4) * 2.0
                    y = rng.normal(size=4) * 2.0
                    lhs = space.pairing(
                        space.duality_map(x - proj(x)) - space.duality_map(y - proj(y)),
                        proj(x) - proj(y),
                    )
                    assert lhs >= -1e-8
