"""Finite-difference machinery checked against hand-computable projectors.

Most cases use dyadic coordinates and power-of-two steps so that the
expected quotients are exact in floating point; the remaining cases are
compared against closed-form limits with explicit tolerances.
"""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from banachproj import (
    Ball,
    ConvergenceError,
    LpSpace,
    NumericDerivative,
    PolytopeH,
    PositiveCone,
    cauchy_rate_probe,
    numdiff,
    numdiff_derivative,
    project,
)
from banachproj.numdiff import _window_spread
from oracles import rate_per_pair


def ball_projector(space, center, radius):
    ball = Ball(center=center, radius=radius)
    return lambda y: project(space, ball, y)


@pytest.fixture
def first_quotient(steps):
    """(P(x + t v) - P(x)) / t, the first entry of numdiff_derivative's trace."""
    def quotient(space, projector, x, v, t):
        steps((t, t / 2.0, t / 4.0))
        return numdiff_derivative(space, projector, x, v).quotients[0]
    return quotient


class TestDiffQuotient:
    def test_ball_quotient_matches_radial_formula(self, first_quotient):
        """One quotient of the Euclidean unit-ball projection at t = 0.01."""
        space = LpSpace(2.0)
        x = np.array([2.0, 0.0])
        v = np.array([0.0, 1.0])
        q = first_quotient(space, ball_projector(space, np.zeros(2), 1.0), x, v, 0.01)

        def radial(y):
            nrm = np.sqrt(np.sum(y * y))
            return y / nrm if nrm > 1.0 else y

        expected = (radial(x + 0.01 * v) - radial(x)) / 0.01
        assert_allclose(q, expected, rtol=1e-12)
        # the t -> 0 limit is (0, 1/2); at t = 0.01 the quotient is close
        assert_allclose(q, [0.0, 0.5], atol=1.3e-3)
        assert q[1] == pytest.approx(0.49999375, abs=1e-8)

    def test_identity_inside_ball_is_exact(self, first_quotient):
        # dyadic data keeps every intermediate exactly representable
        space = LpSpace(2.0)
        x = np.array([0.25, 0.125])
        v = np.array([1.0, -1.0])
        q = first_quotient(space, ball_projector(space, np.zeros(2), 1.0), x, v, 2.0 ** -7)
        assert np.array_equal(q, v)

    def test_singleton_projector_gives_zero(self, first_quotient):
        y = np.array([1.0, 2.0, 3.0])
        q = first_quotient(LpSpace(2.0), lambda z: y, np.array([5.0, 0.0, 0.0]),
                           np.array([0.0, 1.0, 0.0]), 0.5)
        assert np.array_equal(q, np.zeros(3))

    def test_rejects_bad_directions(self):
        space = LpSpace(2.0)
        proj = lambda y: y
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            numdiff_derivative(space, proj, x, np.zeros(2))
        with pytest.raises(ValueError):
            numdiff_derivative(space, proj, x, np.array([1.0, 0.0, 0.0]))


class TestNumdiffDerivative:
    def test_ball_exterior_limit(self):
        space = LpSpace(2.0)
        res = numdiff_derivative(
            space,
            ball_projector(space, np.zeros(2), 1.0),
            np.array([2.0, 0.0]),
            np.array([0.0, 1.0]),
        )
        assert res.converged
        assert_allclose(res.estimate, [0.0, 0.5], atol=1e-6)

    def test_cone_face_limit(self):
        space = LpSpace(3.0)
        res = numdiff_derivative(
            space,
            lambda y: project(space, PositiveCone(), y),
            np.array([2.0, 3.0, 0.0]),
            np.array([1.0, -1.0, -5.0]),
        )
        assert res.converged
        assert_allclose(res.estimate, [1.0, -1.0, 0.0], atol=1e-6)

    def test_interior_converges_at_first_window(self):
        space = LpSpace(2.0)
        res = numdiff_derivative(
            space,
            ball_projector(space, np.zeros(3), 1.0),
            np.array([0.25, 0.125, 0.0]),
            np.array([1.0, -1.0, 0.0]),
        )
        assert res.converged
        assert len(res.ts) == 3
        assert np.array_equal(res.estimate, [1.0, -1.0, 0.0])

    def test_non_convergence_keeps_trace_and_no_estimate(self, steps):
        space = LpSpace(2.0)
        steps((0.25, 0.125, 0.0625), 1e-15)
        res = numdiff_derivative(
            space,
            ball_projector(space, np.zeros(2), 1.0),
            np.array([2.0, 0.0]),
            np.array([0.0, 1.0]),
        )
        assert not res.converged
        assert res.estimate is None
        assert not res.extrapolated
        assert res.ts == [0.25, 0.125, 0.0625]
        assert len(res.quotients) == 3

    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_quotients_never_settle(self, n):
        # NaN away from x: every quotient is NaN, and a spread that let
        # max(worst, nan) keep worst would read 0.0 and call it converged
        x = np.ones(n)
        res = numdiff_derivative(
            LpSpace(3.0),
            lambda y: y if np.array_equal(y, x) else np.full(n, np.nan),
            x,
            np.ones(n),
        )
        assert not res.converged
        assert res.estimate is None
        assert len(res.ts) == len(numdiff._STEPS)

    def test_richardson_removes_linear_error(self):
        # synthetic map with quotient exactly v + t*u: the extrapolation
        # must recover v itself, several digits beyond the raw quotients
        space = LpSpace(2.0)
        x = np.zeros(2)
        v = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        proj = lambda y: y + np.sum((y - x) ** 2) * u
        res = numdiff_derivative(space, proj, x, v)
        assert res.converged
        assert res.extrapolated
        assert res.ts[-1] >= 2.0 ** -30
        assert_allclose(res.estimate, v, atol=1e-12)
        assert space.norm(res.quotients[-1] - v) > 1e-9

    def test_richardson_rejected_when_jump_too_large(self, steps):
        # slowly shrinking steps make the extrapolation jump exceed 10x
        # the window tolerance, so the raw final quotient is kept
        space = LpSpace(2.0)
        x = np.zeros(2)
        v = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        proj = lambda y: y + np.sum((y - x) ** 2) * u
        steps([0.1 * 0.96 ** k for k in range(6)], 0.0079)
        res = numdiff_derivative(space, proj, x, v)
        assert res.converged
        assert not res.extrapolated
        assert_allclose(res.estimate, res.quotients[-1], rtol=0, atol=0)
        assert space.norm(res.estimate - v) > 0.08

    def test_summary_shape(self):
        space = LpSpace(2.0)
        res = numdiff_derivative(
            space,
            ball_projector(space, np.zeros(2), 1.0),
            np.array([2.0, 0.0]),
            np.array([0.0, 1.0]),
        )
        s = res.summary()
        assert s["converged"] is True
        assert s["steps_used"] == len(res.ts)
        assert s["last_t"] == res.ts[-1]
        assert isinstance(s["estimate"], list)
        failed = NumericDerivative(None, False, [0.5], [np.zeros(2)])
        assert failed.summary()["estimate"] is None

    def test_rejects_zero_direction(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError):
            numdiff_derivative(space, lambda y: y, np.ones(2), np.zeros(2))


class TestWindowSpread:
    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_matches_pairwise_norms_bitwise(self, n):
        # the window's pairs are normed as one stack by the row kernel
        rng = np.random.default_rng(8 + n)
        for p in (1.5, 2.0, 3.0, 8.0):
            space = LpSpace(p)
            for window in (2, 3, 5):
                for _ in range(50):
                    scale = 10.0 ** rng.integers(-9, 3, (window, n))
                    qs = list(rng.standard_normal((window, n)) * scale)
                    if rng.random() < 0.2:
                        qs[-1] = qs[0].copy()   # a zero difference
                    pairwise = max(space.norm(a - b) for i, a in enumerate(qs) for b in qs[i + 1:])
                    assert _window_spread(space, qs, window) == pairwise

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("n", [1, 3])
    def test_non_finite_quotient_is_infinitely_spread(self, bad, n):
        qs = [np.ones(n), np.full(n, bad), np.ones(n)]
        assert _window_spread(LpSpace(3.0), qs, 3) == math.inf


class TestCauchyRateProbe:
    def test_interior_point_all_zero(self):
        """Inside the set the projector is the identity and every
        deviation vanishes exactly; the fitted order degenerates to 0."""
        space = LpSpace(2.0)
        probe = cauchy_rate_probe(
            space,
            ball_projector(space, np.zeros(2), 1.0),
            np.array([0.25, 0.125]),
            [np.array([1.0, 0.0]), np.array([0.0, -1.0])],
        )
        assert probe.uniform_sup == 0.0
        assert all(dev == 0.0 for _, _, _, dev in probe.pairs)
        assert probe.fitted_order == 0.0
        assert probe.k_envelope == 2.0

    def test_ball_exterior_rate(self):
        space = LpSpace(2.0)
        dirs = [np.array([0.0, 1.0]), np.array([0.6, -0.8]), np.array([-1.0, 0.0])]
        probe = cauchy_rate_probe(
            space, ball_projector(space, np.zeros(2), 1.0), np.array([2.0, 0.0]), dirs
        )
        # smooth case: quotient differentiable in t, deviations ~ t
        assert 0.6 < probe.fitted_order < 1.4
        assert probe.uniform_sup_curve[-1] < 1e-5
        assert probe.uniform_sup == max(probe.uniform_sup_curve)
        assert len(probe.pairs) == len(dirs) * 12   # k = 8..20 by default
        assert all(dev >= 0.0 for _, _, _, dev in probe.pairs)
        assert math.isfinite(probe.k_envelope) and probe.k_envelope >= 2.0

    def test_tail_deviations_non_increasing(self):
        # tail monotonicity within a 10% noise allowance, per direction
        space = LpSpace(2.0)
        dirs = [np.array([0.0, 1.0]), np.array([0.8, 0.6])]
        probe = cauchy_rate_probe(
            space, ball_projector(space, np.zeros(2), 1.0), np.array([1.5, 0.5]), dirs
        )
        n_pairs = 12
        for d in range(len(dirs)):
            devs = [row[3] for row in probe.pairs if row[0] == d]
            assert len(devs) == n_pairs
            for a, b in zip(devs[n_pairs // 2:], devs[n_pairs // 2 + 1:]):
                assert b <= 1.1 * a + 1e-12

    def test_cone_face_quotients_settle(self):
        # piecewise-linear projection: quotients constant up to rounding
        space = LpSpace(2.0)
        probe = cauchy_rate_probe(
            space,
            lambda y: project(space, PositiveCone(), y),
            np.array([2.0, 3.0, 0.0]),
            [np.array([0.6, 0.0, -0.8])],
            k_max=16,
        )
        assert probe.uniform_sup <= 1e-8
        # residual deviations are rounding noise, reported as order 0
        assert probe.fitted_order == 0.0

    def test_axis_direction_on_face_is_exactly_flat(self):
        space = LpSpace(3.0)
        probe = cauchy_rate_probe(
            space,
            lambda y: project(space, PositiveCone(), y),
            np.array([2.0, 3.0, 0.0]),
            [np.array([0.0, 0.0, -1.0])],
        )
        assert probe.uniform_sup == 0.0
        assert probe.fitted_order == 0.0

    def test_locally_constant_polytope_projection_settles(self):
        # x projects to a vertex of this H-polytope along every direction
        # probed: the quotients are constant, and their deviations, 6e-13 at
        # t = 2^-8 rising to 1.4e-9 at 2^-20, are the projection's rounding
        # (~ε·max|x|) over s.  An absolute 1e-10 floor fitted them as order -1.1
        space = LpSpace(3.0)
        C = PolytopeH(
            normals=np.vstack([np.eye(3), -np.eye(3),
                               [[0.80909230430480894, 1.4961428495353297, 0.24057814029007343],
                                [0.46387692021317872, -0.033643255754479198, -0.076175878235733893]]]),
            offsets=np.array([1.4757142289031848, 0.87060207042214188, 1.0435152367968668,
                              0.57212168371875982, 1.3749130322425764, 0.69623255777291937,
                              0.6, 0.6]),
        )
        x = np.array([-4.8301754727538677, 3.2491086732543293, 1.0999852696148271])
        rng = np.random.default_rng(1)
        dirs = [space.unit(rng.standard_normal(3)) for _ in range(3)]
        probe = cauchy_rate_probe(space, lambda y: project(space, C, y), x, dirs)
        assert 1e-10 < probe.uniform_sup < 1e-8
        assert probe.fitted_order == 0.0

    def test_requires_unit_directions(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError, match="unit"):
            cauchy_rate_probe(space, lambda y: y, np.zeros(2), [np.array([2.0, 0.0])])

    def test_requires_directions(self):
        with pytest.raises(ValueError, match="direction"):
            cauchy_rate_probe(LpSpace(2.0), lambda y: y, np.zeros(2), [])

    def test_default_steps_are_two_to_the_minus_8_to_20(self):
        probe = cauchy_rate_probe(LpSpace(2.0), lambda y: y, np.zeros(2), [np.array([1.0, 0.0])])
        steps = [(t, s) for _, t, s, _ in probe.pairs]
        assert steps == [(2.0 ** -k, 2.0 ** -(k + 1)) for k in range(8, 20)]

    @pytest.mark.parametrize("k_min, k_max, match", [
        (8, 10, "pairs"), (8, 9, "pairs"), (8, 8, "pairs"), (12, 8, "pairs"),
        (-1024, 8, "k_min"), (-2000, 8, "k_min"), (8, 1075, "k_max"), (1072, 1075, "k_max"),
    ])
    def test_refuses_k_ranges(self, k_min, k_max, match):
        # 2^-k overflows from k = -1024 and rounds to 0 from k = 1075, and a
        # table needs at least 3 consecutive pairs
        with pytest.raises(ValueError, match=match):
            cauchy_rate_probe(LpSpace(2.0), lambda y: y, np.zeros(2), [np.array([1.0, 0.0])],
                              k_min=k_min, k_max=k_max)

    @pytest.mark.parametrize("k_min", [-1023, 8, 1071])
    def test_accepts_k_ranges_of_three_pairs_within_the_doubles(self, k_min):
        probe = cauchy_rate_probe(LpSpace(2.0), lambda y: y, np.zeros(2), [np.array([1.0, 0.0])],
                                  k_min=k_min, k_max=k_min + 3)
        assert [t for _, t, _, _ in probe.pairs] == [2.0 ** -k for k in range(k_min, k_min + 3)]
        assert probe.uniform_sup == 0.0

    def test_csv_rows_and_summary(self):
        space = LpSpace(2.0)
        probe = cauchy_rate_probe(
            space,
            ball_projector(space, np.zeros(2), 1.0),
            np.array([2.0, 0.0]),
            [np.array([0.0, 1.0])],
        )
        rows = list(probe.csv_rows())
        assert rows[0] == ("direction_id", "t", "s", "deviation")
        assert len(rows) == len(probe.pairs) + 1
        assert rows[1][1] > rows[1][2]
        s = probe.summary()
        assert s["pair_count"] == len(probe.pairs)
        assert s["uniform_sup"] == probe.uniform_sup

    def test_deterministic_across_runs(self):
        space = LpSpace(2.0)
        args = (
            space,
            ball_projector(space, np.zeros(2), 1.0),
            np.array([2.0, 0.0]),
            [np.array([0.0, 1.0]), np.array([1.0, 0.0])],
        )
        first = cauchy_rate_probe(*args)
        second = cauchy_rate_probe(*args)
        assert first.pairs == second.pairs
        assert first.k_envelope == second.k_envelope


class TestRateTwin:
    """The stacked probe against its earlier loop of one `space.norm` per
    difference (`oracles.rate_per_pair`), bit for bit.  n = 9 sums its rows
    by NumPy's pairwise sum, shorter rows by columns."""

    @pytest.mark.parametrize("n", [2, 3, 9])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
    def test_pairs_curve_and_envelope_match_the_per_pair_loop(self, p, n):
        space = LpSpace(p)
        rng = np.random.default_rng(int(10 * p) + n)
        ball = Ball(center=0.3 * rng.standard_normal(n), radius=1.2)
        face = np.abs(rng.standard_normal(n)) + 0.5
        face[::2] = 0.0
        cases = [
            (ball, ball.center + 3.0 * space.unit(rng.standard_normal(n))),   # exterior
            (ball, ball.center + 0.25 * space.unit(rng.standard_normal(n))),  # interior: zero rows
            (PositiveCone(), face),                                           # on a cone face
        ]
        dirs = [space.unit(rng.standard_normal(n)) for _ in range(4)]
        dirs.append(space.unit(-face))   # into the cone's face
        for C, x in cases:
            proj = lambda y, C=C: project(space, C, y)
            probe = cauchy_rate_probe(space, proj, x, dirs)
            ts = [2.0 ** -k for k in range(8, 21)]
            pairs, curve, envelope = rate_per_pair(space, proj, x, dirs, ts)
            assert probe.pairs == pairs
            assert probe.uniform_sup_curve == curve
            assert probe.k_envelope == envelope


def test_convergence_error_keeps_trace():
    err = ConvergenceError("no limit", trace=[1.0, 2.0])
    assert err.trace == [1.0, 2.0]
    assert ConvergenceError("bare").trace == []
