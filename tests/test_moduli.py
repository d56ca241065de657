"""Empirical modulus curves: frozen Hilbert values, envelopes, fits, bounds."""
import json
import math

import numpy as np
import pytest
from scipy import special

from banachproj import (
    Ball,
    LpSpace,
    ModuliEstimate,
    PositiveCone,
    distance_bound_check,
    estimate_convexity_modulus,
    estimate_smoothness_modulus,
    fit_power_type,
    moduli,
)
from banachproj.moduli import (
    _gamma_magnitudes,
    _magnitude_table,
    _pin_pairs,
    _row_norms,
    _sphere_from_uniforms,
    thread_count,
)
from oracles import bisection_pin, exact_delta, exact_rho, hilbert_delta, hilbert_rho, lp_norm

# Small budgets keep the suite fast.  The classical extremal families are
# planted as search seeds, so the p = 2 values are machine-exact even here;
# the budget mostly buys accuracy away from p = 2.
FIT_GRID = np.geomspace(0.05, 0.8, 6)


@pytest.fixture(scope="module")
def est3():
    """Both curves for p = 3, n = 3, wide grids, used by the bound checks."""
    d = estimate_convexity_modulus(3.0, 3, np.geomspace(0.05, 1.9, 8),
                                   budget=1500, seed=4, rounds=1)
    r = estimate_smoothness_modulus(3.0, 3, np.geomspace(0.02, 1.9, 8),
                                    budget=1500, seed=4, rounds=1)
    return d.merged_with(r)


@pytest.fixture(scope="module")
def est2():
    """Both curves for the Euclidean plane."""
    d = estimate_convexity_modulus(2.0, 2, np.geomspace(0.05, 1.6, 7),
                                   budget=1500, seed=3, rounds=1)
    r = estimate_smoothness_modulus(2.0, 2, np.geomspace(0.02, 1.6, 7),
                                    budget=1500, seed=3, rounds=1)
    return d.merged_with(r)


class TestThreadCount:
    def test_explicit_request_wins(self):
        assert thread_count(3) == 3

    def test_floor_is_one(self):
        assert thread_count(0) == 1
        assert thread_count(-4) == 1

    def test_default_positive(self):
        assert thread_count() >= 1


class TestConvexityEstimate:
    def test_euclidean_value_frozen(self):
        est = estimate_convexity_modulus(2.0, 2, [1.0], budget=2000, seed=1, rounds=2)
        val = float(est.delta_values[0])
        # exact Hilbert modulus, 1 - sqrt(3)/2
        assert val == pytest.approx(hilbert_delta(1.0), abs=1e-9)
        # the estimator quotes an upper bound: incomplete minimization can
        # only overshoot the true infimum
        assert val >= hilbert_delta(1.0) - 1e-12

    def test_p3_below_hilbert(self):
        est = estimate_convexity_modulus(3.0, 2, [1.0], budget=2000, seed=1, rounds=2)
        val = float(est.delta_values[0])
        assert 0.0 < val <= hilbert_delta(1.0) + 1e-9

    def test_nordlander_sanity(self, est3):
        # no lp space is more convex than the Euclidean one
        assert np.all(est3.delta_values <= hilbert_delta(est3.epsilons) + 1e-9)

    def test_envelope_monotone(self, est3):
        d, e = est3.delta_values, est3.epsilons
        assert np.all(np.diff(d) >= -1e-15)
        assert np.all(np.diff(d / e) >= -1e-15)
        assert np.all((0.0 <= d) & (d <= 1.0))

    def test_metadata(self):
        est = estimate_convexity_modulus(2.0, 2, [0.5, 1.0], budget=800, seed=0, rounds=2)
        assert est.sample_count > 0
        assert est.refinement_rounds == 2
        assert est.ts.size == 0 and est.rho_values.size == 0
        np.testing.assert_allclose(est.epsilons, [0.5, 1.0])

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension"):
            estimate_convexity_modulus(2.0, 1, [1.0], budget=500)

    @pytest.mark.parametrize("grid, message", [
        ([], "nonempty"),
        ([0.5, 0.4], "strictly increasing"),
        ([-0.1, 0.5], r"\(0, 2\]"),
        ([1.0, 2.5], r"\(0, 2\]"),
    ])
    def test_grid_validation(self, grid, message):
        with pytest.raises(ValueError, match=message):
            estimate_convexity_modulus(2.0, 2, grid, budget=500)


class TestSmoothnessEstimate:
    def test_euclidean_value_frozen(self):
        est = estimate_smoothness_modulus(2.0, 2, [1.0], budget=2000, seed=1, rounds=2)
        val = float(est.rho_values[0])
        # exact Hilbert modulus, sqrt(2) - 1
        assert val == pytest.approx(hilbert_rho(1.0), abs=1e-9)
        # lower-bound side: an incomplete supremum search can only undershoot
        assert val <= hilbert_rho(1.0) + 1e-12

    def test_bounded_by_t(self, est3):
        r, t = est3.rho_values, est3.ts
        assert np.all((0.0 <= r) & (r <= t + 1e-15))

    def test_envelope_monotone(self, est3):
        assert np.all(np.diff(est3.rho_values) >= -1e-15)

    def test_ratio_shrinks_toward_origin(self, est3):
        ratio = est3.rho_values / est3.ts
        assert ratio[0] <= ratio[-1] + 1e-12

    def test_t_grid_has_no_upper_cap(self):
        est = estimate_smoothness_modulus(2.0, 2, [3.0], budget=800, seed=0, rounds=1)
        assert 0.0 <= float(est.rho_values[0]) <= 3.0

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="t grid"):
            estimate_smoothness_modulus(2.0, 2, [0.4, 0.2], budget=500)


class TestExactCurves:
    # the sampler bounds the moduli of ℓ_p^n from the safe side, and those
    # bound the moduli of ℓ_p: δ from above, ρ from below
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_estimates_are_one_sided_against_exact_curves(self, p, n):
        eps = np.geomspace(0.1, 1.9, 6)
        ts = np.geomspace(0.05, 1.5, 6)
        d = estimate_convexity_modulus(p, n, eps, budget=2000, seed=7, rounds=1)
        r = estimate_smoothness_modulus(p, n, ts, budget=2000, seed=7, rounds=1)
        assert np.all(d.delta_values >= exact_delta(p, eps) * (1.0 - 1e-9))
        assert np.all(r.rho_values <= exact_rho(p, ts) * (1.0 + 1e-9))


class TestDeterminism:
    GRID = np.geomspace(0.1, 1.2, 4)

    def test_delta_threads_match_sequential(self):
        a = estimate_convexity_modulus(3.0, 3, self.GRID, budget=1200, seed=7,
                                       rounds=1, threads=1)
        b = estimate_convexity_modulus(3.0, 3, self.GRID, budget=1200, seed=7,
                                       rounds=1, threads=2)
        assert np.array_equal(a.delta_values, b.delta_values)

    def test_rho_threads_match_sequential(self):
        a = estimate_smoothness_modulus(3.0, 3, self.GRID, budget=1200, seed=7,
                                        rounds=1, threads=1)
        b = estimate_smoothness_modulus(3.0, 3, self.GRID, budget=1200, seed=7,
                                        rounds=1, threads=2)
        assert np.array_equal(a.rho_values, b.rho_values)

    def test_same_seed_reruns_identically(self):
        a = estimate_convexity_modulus(1.5, 2, [0.7], budget=900, seed=11, rounds=1)
        b = estimate_convexity_modulus(1.5, 2, [0.7], budget=900, seed=11, rounds=1)
        assert np.array_equal(a.delta_values, b.delta_values)


class TestEstimateContainer:
    def test_merge_combines_curves(self, est3):
        assert est3.epsilons.size == 8 and est3.ts.size == 8
        assert est3.sample_count > 0

    def test_merge_rejects_different_spaces(self, est3):
        other = estimate_convexity_modulus(2.0, 3, [0.5], budget=500, seed=1, rounds=1)
        with pytest.raises(ValueError, match="different spaces"):
            est3.merged_with(other)

    def test_csv_rows(self, est3):
        rows = list(est3.csv_rows())
        assert rows[0] == ("curve", "argument", "value")
        assert len(rows) == 1 + est3.epsilons.size + est3.ts.size
        assert rows[1][0] == "delta" and rows[-1][0] == "rho"

    def test_to_json_side_flags(self, est3):
        js = est3.to_json()
        assert js["delta_side"] == "upper-bound-on-true-delta"
        assert js["rho_side"] == "lower-bound-on-true-rho"
        json.dumps(js)


class TestPowerFit:
    @pytest.mark.parametrize("p, p_lo, p_hi, q_lo, q_hi", [
        (2.0, 1.9, 2.1, 1.9, 2.1),
        (3.0, 2.8, 3.2, 1.8, 2.2),
        (1.5, 1.8, 2.2, 1.3, 1.7),
        (4.0, 3.8, 4.2, 1.8, 2.2),
    ])
    def test_exponent_windows(self, p, p_lo, p_hi, q_lo, q_hi):
        d = estimate_convexity_modulus(p, 2, FIT_GRID, budget=3000, seed=2, rounds=2)
        r = estimate_smoothness_modulus(p, 2, FIT_GRID, budget=3000, seed=2, rounds=2)
        fit = fit_power_type(d.merged_with(r))
        assert p_lo <= fit.p_fit <= p_hi
        assert q_lo <= fit.q_fit <= q_hi
        assert fit.rms_delta < 0.05 and fit.rms_rho < 0.05
        assert fit.a > 0.0 and fit.b > 0.0

    def test_higher_dimension_fit_quality(self):
        d = estimate_convexity_modulus(1.5, 4, FIT_GRID, budget=3000, seed=2, rounds=2)
        r = estimate_smoothness_modulus(1.5, 4, FIT_GRID, budget=3000, seed=2, rounds=2)
        fit = fit_power_type(d.merged_with(r))
        assert fit.rms_delta < 0.05 and fit.rms_rho < 0.05

    def test_single_curve_leaves_other_side_nan(self):
        d = estimate_convexity_modulus(2.0, 2, FIT_GRID, budget=1500, seed=0, rounds=1)
        fit = fit_power_type(d)
        assert 1.9 <= fit.p_fit <= 2.1
        assert math.isnan(fit.q_fit) and math.isnan(fit.rms_rho)

    def test_short_grid_rejected(self):
        d = estimate_convexity_modulus(2.0, 2, [0.2, 0.4, 0.8], budget=600, seed=0, rounds=1)
        with pytest.raises(ValueError, match="at least 4"):
            fit_power_type(d)

    def test_zero_tail_rejected(self):
        degenerate = ModuliEstimate(p=2.0, n=2,
                                    epsilons=np.array([0.1, 0.2, 0.4, 0.8]),
                                    delta_values=np.zeros(4))
        with pytest.raises(ValueError, match="degenerate"):
            fit_power_type(degenerate)

    def test_empty_estimate_rejected(self):
        with pytest.raises(ValueError, match="no curves"):
            fit_power_type(ModuliEstimate(p=2.0, n=2))

    def test_to_json(self):
        d = estimate_convexity_modulus(2.0, 2, FIT_GRID, budget=1500, seed=0, rounds=1)
        js = fit_power_type(d).to_json()
        assert set(js) == {"a", "p_fit", "b", "q_fit", "rms_delta", "rms_rho"}


class TestSphereMap:
    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 4.0, 50.0])
    def test_tabulated_magnitude_matches_gamma_quantile(self, p):
        rng = np.random.default_rng(12)
        u = np.concatenate([np.clip(rng.random(100_000), 1e-12, 1.0 - 1e-12),
                            [1e-12, 1.0 - 1e-12]])
        got = _gamma_magnitudes(u, p)
        x = special.gammaincinv(1.0 / p, u)
        # where the quantile leaves the normal range (p = 50 at the low clip
        # end) the reference is the exact small-u asymptote u Γ(1 + 1/p)
        ref = np.where(x >= np.finfo(float).tiny, x ** (1.0 / p), u * math.gamma(1.0 + 1.0 / p))
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-5
        assert all(np.all(np.isfinite(a)) for a in _magnitude_table(p))

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 50.0])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_rows_land_on_the_unit_sphere(self, p, n):
        U = np.random.default_rng(13).random((2000, n))
        rows = _sphere_from_uniforms(U, p)
        assert max(abs(lp_norm(r, p) - 1.0) for r in rows) <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_row_norms_match_a_row_sum(self, p):
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 12):
            M = rng.standard_normal((500, n)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
            ref = np.sum(np.abs(M) ** p, axis=1) ** (1.0 / p)
            if n <= 7:   # NumPy adds rows this short in order
                assert np.array_equal(_row_norms(M, p), ref)
            else:
                np.testing.assert_allclose(_row_norms(M, p), ref, rtol=1e-15, atol=0.0)


class TestPinPairs:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_pinned_to_exact_separation(self, p, rng):
        X = rng.normal(size=(30, 3))
        X /= np.array([lp_norm(x, p) for x in X])[:, None]
        Y = rng.normal(size=(30, 3))
        Y /= np.array([lp_norm(y, p) for y in Y])[:, None]
        pinned = _pin_pairs(p, X, Y, 0.7)
        dists = np.array([lp_norm(x - y, p) for x, y in zip(X, pinned)])
        norms = np.array([lp_norm(y, p) for y in pinned])
        np.testing.assert_allclose(dists, 0.7, atol=1e-9)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


PIN_P = [1.05, 1.5, 3.0, 8.0]
PIN_N = [2, 3, 5]
PIN_EPS = [1e-3, 0.05, 0.5, 1.9, 1.999]


def _pin_batch(p, n):
    """Sphere pairs: random rows, then coincident rows, rows next to x and
    rows next to -x, so that both path directions run at every eps < 2."""
    rng = np.random.default_rng([15, n, int(100 * p)])
    X = _sphere_from_uniforms(rng.random((600, n)), p)
    Y = _sphere_from_uniforms(rng.random((600, n)), p)
    Y[:40] = X[:40]
    Y[40:80] = X[40:80] + 1e-4 * rng.standard_normal((40, n))
    Y[80:120] = -X[80:120] + 1e-4 * rng.standard_normal((40, n))
    Y[40:120] /= np.array([lp_norm(y, p) for y in Y[40:120]])[:, None]
    return X, Y


def _scores(p, X, Z):
    return 1.0 - np.sum(np.abs(0.5 * (X + Z)) ** p, axis=1) ** (1.0 / p)


class TestPinFeasibleSide:
    # δ is reported as an upper bound because every pinned pair is feasible
    # as computed: ‖x - y‖ >= eps holds bit for bit, not within a tolerance
    @pytest.mark.parametrize("p", PIN_P)
    @pytest.mark.parametrize("n", PIN_N)
    def test_every_row_is_feasible_and_on_the_sphere(self, p, n):
        X, Y = _pin_batch(p, n)
        for eps in PIN_EPS:
            d0 = _row_norms(X - Y, p)
            assert (d0 >= eps).any() and (d0 < eps).any()
            Z = _pin_pairs(p, X, Y, eps)
            assert np.all(_row_norms(X - Z, p) >= eps)
            norms = np.sum(np.abs(Z) ** p, axis=1) ** (1.0 / p)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-300, 1e-17])
    def test_separation_below_rounding_keeps_y_at_x(self, eps):
        # ‖x - unit(x)‖ already clears eps, so the whole path is feasible
        # and each y ends at its x, up to the rounding of the sphere map
        X, Y = _pin_batch(3.0, 3)
        d = _row_norms(X - _pin_pairs(3.0, X, Y, eps), 3.0)
        assert np.all(d >= eps) and np.all(d <= 1e-15)

    @pytest.mark.parametrize("p", PIN_P)
    def test_antipodal_limit(self, p):
        # at eps = 2 the only feasible partner of x is -x; its computed
        # distance is 2 up to the rounding of the sphere samples
        X, Y = _pin_batch(p, 3)
        Z = _pin_pairs(p, X, Y, 2.0)
        assert np.array_equal(Z, -X)
        np.testing.assert_allclose(_row_norms(X - Z, p), 2.0, rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("p", PIN_P)
    @pytest.mark.parametrize("n", PIN_N)
    def test_scores_match_the_bisection_twin(self, p, n):
        # rows 40-120 start next to x or -x, so their path passes next to the
        # origin, where one ulp of the path parameter moves ‖x - z‖ by up to
        # about 3e-9: both searches stop there with ‖x - z‖ - eps up to that
        # size, and their scores agree only to about 1e-10
        X, Y = _pin_batch(p, n)
        X, Y = np.vstack([X[:40], X[120:]]), np.vstack([Y[:40], Y[120:]])
        for eps in PIN_EPS + [2.0]:
            got = _scores(p, X, _pin_pairs(p, X, Y, eps))
            want = _scores(p, X, bisection_pin(p, X, Y, eps))
            assert np.max(np.abs(got - want)) <= 1e-11

    @pytest.mark.parametrize("p", [1.05, 3.0])
    def test_rows_do_not_depend_on_their_batch(self, p):
        X, Y = _pin_batch(p, 3)
        for eps in PIN_EPS:
            full = _pin_pairs(p, X, Y, eps)
            for a, b in [(0, 1), (30, 130), (100, 600), (250, 260)]:
                assert np.array_equal(_pin_pairs(p, X[a:b], Y[a:b], eps), full[a:b])


class TestDistanceBoundCheck:
    def test_identical_points_row(self, est2):
        space = LpSpace(2.0)
        x = np.array([2.0, 0.3])
        report = distance_bound_check(space, Ball(np.zeros(2), 1.0), [(x, x)], est2)
        lhs, lower, upper, sep, ok = report.rows[0]
        assert lhs == 0.0 and sep == 0.0 and ok
        assert report.anomalies == 0

    def test_collinear_ball_pair(self, est2):
        # both points project to the same boundary point, so the projections
        # cannot drift at all
        space = LpSpace(2.0)
        pair = (np.array([2.0, 0.0]), np.array([2.1, 0.0]))
        report = distance_bound_check(space, Ball(np.zeros(2), 1.0), [pair], est2)
        assert report.rows[0][0] == pytest.approx(0.0, abs=1e-12)
        assert report.anomalies == 0

    def test_cone_nearby_pairs_hold(self, est3, rng):
        space = LpSpace(3.0)
        pairs = []
        for _ in range(8):
            x = rng.normal(size=3)
            pairs.append((x, x + 0.01 * rng.normal(size=3)))
        report = distance_bound_check(space, PositiveCone(), pairs, est3)
        assert report.count == 8
        assert report.anomalies == 0
        assert report.anomaly_rate == 0.0

    def test_anomaly_counter_fires(self, est3, rng, monkeypatch):
        # a zero tolerance factor flags every pair whose projections move
        monkeypatch.setattr(moduli, "ANOMALY_FACTOR", 0.0)
        x = rng.normal(size=3) + 2.0
        pairs = [(x, x + np.array([0.01, -0.02, 0.015]))]
        report = distance_bound_check(LpSpace(3.0), PositiveCone(), pairs, est3)
        assert report.anomalies == 1

    def test_report_json(self, est3, rng):
        x = rng.normal(size=3)
        report = distance_bound_check(LpSpace(3.0), PositiveCone(),
                                      [(x, x + 0.01)], est3)
        js = report.to_json()
        assert set(js) == {"count", "anomalies", "anomaly_rate", "rows"}
        json.dumps(js)

    def test_needs_both_curves(self, rng):
        partial = estimate_convexity_modulus(3.0, 3, [0.5, 1.0], budget=600,
                                             seed=1, rounds=1)
        with pytest.raises(ValueError, match="both modulus curves"):
            distance_bound_check(LpSpace(3.0), PositiveCone(),
                                 [(np.ones(3), np.zeros(3))], partial)

    def test_pair_beyond_rho_grid(self, est3):
        far = (np.array([4.0, 0.0, 0.0]), np.array([-4.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="outside the estimated range"):
            distance_bound_check(LpSpace(3.0), PositiveCone(), [far], est3)

    def test_delta_inverse_runs_out_of_range(self):
        # a delta grid stopping at tiny epsilon cannot invert the rho values
        # that a moderately separated pair produces
        d = estimate_convexity_modulus(3.0, 3, np.geomspace(0.01, 0.05, 4),
                                       budget=800, seed=1, rounds=1)
        r = estimate_smoothness_modulus(3.0, 3, np.geomspace(0.02, 1.9, 8),
                                        budget=800, seed=1, rounds=1)
        pair = (np.array([0.5, 0.2, 0.1]), np.array([0.45, 0.25, 0.12]))
        with pytest.raises(ValueError, match="delta-inverse argument"):
            distance_bound_check(LpSpace(3.0), PositiveCone(), [pair],
                                 d.merged_with(r))
