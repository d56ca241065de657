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
    StepSchedule,
    cauchy_rate_probe,
    numdiff_derivative,
    project,
)
from banachproj.numdiff import _window_spread


def ball_projector(space, center, radius):
    ball = Ball(center=center, radius=radius)
    return lambda y: project(space, ball, y)


def first_quotient(space, projector, x, v, t):
    """(P(x + t v) - P(x)) / t, the first entry of numdiff_derivative's trace."""
    schedule = StepSchedule(t_values=(t, t / 2.0, t / 4.0))
    return numdiff_derivative(space, projector, x, v, schedule).quotients[0]


class TestStepSchedule:
    def test_default_steps(self):
        sched = StepSchedule()
        assert sched.t_values[0] == 2.0 ** -8
        assert sched.t_values[-1] == 2.0 ** -30
        assert len(sched.t_values) == 23
        assert sched.quotient_tol == 1e-7

    def test_rejects_schedules_shorter_than_the_window(self):
        with pytest.raises(ValueError, match="shorter"):
            StepSchedule(t_values=(0.5, 0.25))

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            StepSchedule(t_values=(0.5, 0.25, 0.0))
        with pytest.raises(ValueError):
            StepSchedule(t_values=(0.5, 0.25, -0.125))
        with pytest.raises(ValueError):
            StepSchedule(t_values=(0.5, 0.5, 0.25))
        with pytest.raises(ValueError):
            StepSchedule(t_values=(0.25, 0.5, 0.125))
        with pytest.raises(ValueError):
            StepSchedule(t_values=(0.5, 0.25, float("inf")))

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1e-3, 1.0, 2.0):
            with pytest.raises(ValueError):
                StepSchedule(quotient_tol=tol)


class TestDiffQuotient:
    def test_ball_quotient_matches_radial_formula(self):
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

    def test_identity_inside_ball_is_exact(self):
        # dyadic data keeps every intermediate exactly representable
        space = LpSpace(2.0)
        x = np.array([0.25, 0.125])
        v = np.array([1.0, -1.0])
        q = first_quotient(space, ball_projector(space, np.zeros(2), 1.0), x, v, 2.0 ** -7)
        assert np.array_equal(q, v)

    def test_singleton_projector_gives_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        q = first_quotient(LpSpace(2.0), lambda z: y, np.array([5.0, 0.0, 0.0]),
                           np.array([0.0, 1.0, 0.0]), 0.5)
        assert np.array_equal(q, np.zeros(3))

    def test_rejects_bad_steps_and_directions(self):
        space = LpSpace(2.0)
        proj = lambda y: y
        x = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            first_quotient(space, proj, x, v, 0.0)
        with pytest.raises(ValueError):
            first_quotient(space, proj, x, v, -0.1)
        with pytest.raises(ValueError):
            first_quotient(space, proj, x, v, float("nan"))
        with pytest.raises(ValueError):
            first_quotient(space, proj, x, np.zeros(2), 0.1)
        with pytest.raises(ValueError):
            first_quotient(space, proj, x, np.array([1.0, 0.0, 0.0]), 0.1)


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

    def test_non_convergence_keeps_trace_and_no_estimate(self):
        space = LpSpace(2.0)
        sched = StepSchedule(t_values=(0.25, 0.125, 0.0625), quotient_tol=1e-15)
        res = numdiff_derivative(
            space,
            ball_projector(space, np.zeros(2), 1.0),
            np.array([2.0, 0.0]),
            np.array([0.0, 1.0]),
            sched,
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
        assert len(res.ts) == len(StepSchedule().t_values)

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

    def test_richardson_rejected_when_jump_too_large(self):
        # slowly shrinking steps make the extrapolation jump exceed 10x
        # the window tolerance, so the raw final quotient is kept
        space = LpSpace(2.0)
        x = np.zeros(2)
        v = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        proj = lambda y: y + np.sum((y - x) ** 2) * u
        ts = tuple(0.1 * 0.96 ** k for k in range(6))
        res = numdiff_derivative(space, proj, x, v, StepSchedule(ts, quotient_tol=0.0079))
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
    def test_one_coordinate_matches_pairwise_norms_bitwise(self):
        rng = np.random.default_rng(8)
        space = LpSpace(3.0)
        for window in (2, 3, 5):
            for _ in range(200):
                qs = [np.array([v]) for v in rng.standard_normal(window) * 10.0 ** rng.integers(-9, 3)]
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
        sched = StepSchedule(tuple(2.0 ** -k for k in range(8, 21)))
        dirs = [np.array([0.0, 1.0]), np.array([0.6, -0.8]), np.array([-1.0, 0.0])]
        probe = cauchy_rate_probe(
            space, ball_projector(space, np.zeros(2), 1.0), np.array([2.0, 0.0]), dirs, sched
        )
        # smooth case: quotient differentiable in t, deviations ~ t
        assert 0.6 < probe.fitted_order < 1.4
        assert probe.uniform_sup_curve[-1] < 1e-5
        assert probe.uniform_sup == max(probe.uniform_sup_curve)
        assert len(probe.pairs) == len(dirs) * (len(sched.t_values) - 1)
        assert all(dev >= 0.0 for _, _, _, dev in probe.pairs)
        assert math.isfinite(probe.k_envelope) and probe.k_envelope >= 2.0

    def test_tail_deviations_non_increasing(self):
        # tail monotonicity within a 10% noise allowance, per direction
        space = LpSpace(2.0)
        sched = StepSchedule(tuple(2.0 ** -k for k in range(8, 21)))
        dirs = [np.array([0.0, 1.0]), np.array([0.8, 0.6])]
        probe = cauchy_rate_probe(
            space, ball_projector(space, np.zeros(2), 1.0), np.array([1.5, 0.5]), dirs, sched
        )
        n_pairs = len(sched.t_values) - 1
        for d in range(len(dirs)):
            devs = [row[3] for row in probe.pairs if row[0] == d]
            assert len(devs) == n_pairs
            for a, b in zip(devs[n_pairs // 2:], devs[n_pairs // 2 + 1:]):
                assert b <= 1.1 * a + 1e-12

    def test_cone_face_quotients_settle(self):
        # piecewise-linear projection: quotients constant up to rounding
        space = LpSpace(2.0)
        sched = StepSchedule(tuple(2.0 ** -k for k in range(8, 17)))
        probe = cauchy_rate_probe(
            space,
            lambda y: project(space, PositiveCone(), y),
            np.array([2.0, 3.0, 0.0]),
            [np.array([0.6, 0.0, -0.8])],
            sched,
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
        sched = StepSchedule(tuple(2.0 ** -k for k in range(8, 21)))
        probe = cauchy_rate_probe(space, lambda y: project(space, C, y), x, dirs, sched)
        assert 1e-10 < probe.uniform_sup < 1e-8
        assert probe.fitted_order == 0.0

    def test_requires_unit_directions(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError, match="unit"):
            cauchy_rate_probe(space, lambda y: y, np.zeros(2), [np.array([2.0, 0.0])])

    def test_requires_directions_and_enough_steps(self):
        space = LpSpace(2.0)
        with pytest.raises(ValueError):
            cauchy_rate_probe(space, lambda y: y, np.zeros(2), [])
        short = StepSchedule(t_values=(0.5, 0.25, 0.125))
        with pytest.raises(ValueError, match="pairs"):
            cauchy_rate_probe(space, lambda y: y, np.zeros(2), [np.array([1.0, 0.0])], short)

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


def test_convergence_error_keeps_trace():
    err = ConvergenceError("no limit", trace=[1.0, 2.0])
    assert err.trace == [1.0, 2.0]
    assert ConvergenceError("bare").trace == []
