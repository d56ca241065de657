"""Empirical modulus curves: frozen Hilbert values, envelopes, fits, bounds."""
import json
import math

import numpy as np
import pytest

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
    _axis_seed_pairs,
    _norms,
    _pinned_best,
    _search_point,
    _unit_rows,
    thread_count,
)
from oracles import (
    bisection_pin,
    convexity_twin,
    exact_delta,
    exact_rho,
    hilbert_delta,
    hilbert_rho,
    lp_norm,
    pin_pairs,
    pinned_scores,
    row_norms,
)

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

    def test_default_follows_the_affinity_mask(self, monkeypatch):
        # a process pinned to one core by taskset or a cpuset gets one worker
        monkeypatch.setattr(moduli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(moduli.os, "cpu_count", lambda: 64)
        assert thread_count() == 1

    def test_default_without_affinity_counts_cores(self, monkeypatch):
        monkeypatch.delattr(moduli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(moduli.os, "cpu_count", lambda: 3)
        assert thread_count() == 3


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
    # bound the moduli of ℓ_p: δ from above, ρ from below.  They also come
    # close: δ within 2e-3 (relative; at most 7.8e-4 over seeds 7-11), and
    # ρ to rounding, since its extremal pairs are among the axis seeds
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_estimates_are_one_sided_against_exact_curves(self, p, n):
        eps = np.geomspace(0.1, 1.9, 6)
        ts = np.geomspace(0.05, 1.5, 6)
        d = estimate_convexity_modulus(p, n, eps, budget=2000, seed=7, rounds=1)
        r = estimate_smoothness_modulus(p, n, ts, budget=2000, seed=7, rounds=1)
        delta, rho = exact_delta(p, eps), exact_rho(p, ts)
        assert np.all(d.delta_values >= delta * (1.0 - 1e-9))
        assert np.all(d.delta_values <= delta * (1.0 + 2e-3))
        assert np.all(r.rho_values <= rho * (1.0 + 1e-9))
        assert np.all(r.rho_values >= rho * (1.0 - 1e-12))


    # the same bounds at the ends of the exponent range.  Each score is
    # 1 minus a norm, so it carries an absolute rounding error of a few
    # ulp of 1: at p = 7.5, eps = 0.1, where δ is about 2e-11, that is a
    # relative 5e-6 below the exact value.  δ comes within 5.3e-3 here
    # (p = 1.05, n = 4), ρ again to rounding
    @pytest.mark.parametrize("p", [1.05, 4.0, 7.5])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_estimates_bracket_exact_curves_at_extreme_exponents(self, p, n):
        eps = np.geomspace(0.1, 1.9, 6)
        ts = np.geomspace(0.05, 1.5, 6)
        d = estimate_convexity_modulus(p, n, eps, budget=2000, seed=7, rounds=1)
        r = estimate_smoothness_modulus(p, n, ts, budget=2000, seed=7, rounds=1)
        delta, rho = exact_delta(p, eps), exact_rho(p, ts)
        assert np.all(d.delta_values >= delta * (1.0 - 1e-9) - 1e-15)
        assert np.all(d.delta_values <= delta * (1.0 + 1e-2))
        assert np.all(r.rho_values <= rho * (1.0 + 1e-9) + 1e-15)
        assert np.all(r.rho_values >= rho * (1.0 - 1e-12))


class TestDimensionLimit:
    # the refinement builds (2n, n) candidate blocks, so the estimators
    # refuse n past 10,600 before they allocate anything
    @pytest.mark.parametrize("estimate", [estimate_convexity_modulus,
                                          estimate_smoothness_modulus])
    @pytest.mark.parametrize("n, message", [
        (-1, "dimension >= 2"),
        (0, "dimension >= 2"),
        (10_601, "dimension <= 10600, got 10601"),
        (10 ** 9, "dimension <= 10600"),
        (2 ** 62, "dimension <= 10600"),
    ])
    def test_dimension_outside_the_range_is_refused(self, estimate, n, message):
        with pytest.raises(ValueError, match=message):
            estimate(3.0, n, [0.5], budget=1, rounds=0)

    @pytest.mark.parametrize("estimate", [estimate_convexity_modulus,
                                          estimate_smoothness_modulus])
    def test_largest_dimension_runs_without_refinement(self, estimate):
        # no refinement round: only the 64-pair batch and the axis seeds
        est = estimate(3.0, 10_600, [0.5], budget=1, seed=2, rounds=0, threads=1)
        assert est.n == 10_600
        assert est.sample_count == 64 + len(_axis_seed_pairs(3.0, 10_600)[0])
        vals = est.delta_values if est.epsilons.size else est.rho_values
        assert vals.shape == (1,) and np.all(np.isfinite(vals))
        if est.epsilons.size:
            assert vals[0] >= exact_delta(3.0, 0.5)[0] * (1.0 - 1e-9)
        else:
            assert 0.0 <= vals[0] <= exact_rho(3.0, 0.5) * (1.0 + 1e-9)


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
    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 50.0])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_rows_land_on_the_unit_sphere(self, p, n):
        rows = _unit_rows(np.random.default_rng(13).standard_normal((2000, n)), p)
        assert max(abs(lp_norm(r, p) - 1.0) for r in rows) <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_row_norms_match_a_row_sum(self, p):
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 12):
            M = rng.standard_normal((500, n)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
            ref = np.sum(np.abs(M) ** p, axis=1) ** (1.0 / p)
            if n <= 7:   # NumPy adds rows this short in order
                assert np.array_equal(row_norms(M, p), ref)
            else:
                np.testing.assert_allclose(row_norms(M, p), ref, rtol=1e-15, atol=0.0)


def _first_batch(p, n, budget, seed):
    """The pairs `_search_point` scores before any refinement (rounds = 0,
    the batch unpinned), stacked in the order it scores them, its best
    score and its count of examined pairs."""
    seen = []

    def best_of(X, Y, bound):
        # the ℓ_∞ distance: |x - y|^p itself would overflow at p = 1e4
        seen.append((X, Y))
        v = np.max(np.abs(X - Y), axis=1)
        k = int(np.argmin(v))
        return k, Y[k], float(v[k])

    best, evals = _search_point(p, n, best_of, budget, 0, np.random.SeedSequence(seed))
    # the Gaussian batch, then the axis seeds as a batch of their own
    assert len(seen) == 2
    return (np.vstack([seen[0][0], seen[1][0]]), np.vstack([seen[0][1], seen[1][1]]),
            best, evals)


class TestFirstBatch:
    # the search starts from max(64, 0.6·budget) Gaussian rows scaled onto
    # the sphere, then the axis seeds.  Every row is a unit vector, also
    # where |g|^p of a raw Gaussian row underflows (p = 200) or overflows
    # (p = 1e4)
    @pytest.mark.parametrize("budget", [1, 2000, 100_000])
    @pytest.mark.parametrize("n", [2, 3, 6, 10, 40])
    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 200.0, 1e4])
    def test_batch_is_on_the_sphere_and_counted(self, p, n, budget):
        X, Y, best, evals = _first_batch(p, n, budget, 5)
        init = max(64, int(budget * 0.6))
        Xs, Ys = _axis_seed_pairs(p, n)
        assert X.shape == Y.shape == (init + len(Xs), n)
        assert evals == len(X)
        assert np.array_equal(X[init:], Xs) and np.array_equal(Y[init:], Ys)
        for M in (X, Y):
            norms = np.sum(np.abs(M) ** p, axis=1) ** (1.0 / p)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12
            # every coordinate takes both signs among the random rows
            assert np.all((M[:init] > 0.0).any(axis=0) & (M[:init] < 0.0).any(axis=0))
        assert best == np.min(np.abs(X - Y).max(axis=1))

    @pytest.mark.parametrize("n", [2, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 31 - 1])
    def test_batch_follows_its_seed(self, seed, n):
        X, Y, best, _ = _first_batch(3.0, n, 2000, seed)
        X2, Y2, best2, _ = _first_batch(3.0, n, 2000, seed)
        assert np.array_equal(X, X2) and np.array_equal(Y, Y2) and best == best2
        X3, Y3, _, _ = _first_batch(3.0, n, 2000, seed + 1)
        assert not np.any(np.all(X3[:1200] == X[:1200], axis=1))
        assert not np.any(np.all(Y3[:1200] == Y[:1200], axis=1))


class TestPinPairs:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_pinned_to_exact_separation(self, p, rng):
        X = rng.normal(size=(30, 3))
        X /= np.array([lp_norm(x, p) for x in X])[:, None]
        Y = rng.normal(size=(30, 3))
        Y /= np.array([lp_norm(y, p) for y in Y])[:, None]
        pinned = pin_pairs(p, X, Y, 0.7)
        dists = np.array([lp_norm(x - y, p) for x, y in zip(X, pinned)])
        norms = np.array([lp_norm(y, p) for y in pinned])
        np.testing.assert_allclose(dists, 0.7, atol=1e-9)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


PIN_P = [1.05, 1.5, 3.0, 8.0]
PIN_N = [2, 3, 5]
PIN_EPS = [1e-3, 0.05, 0.5, 1.9, 1.999]
SPLITS = [(0, 1), (30, 130), (100, 600), (250, 260)]


def _pin_batch(p, n):
    """Sphere pairs: random rows, then coincident rows, rows next to x and
    rows next to -x, so that both path directions run at every eps < 2."""
    rng = np.random.default_rng([15, n, int(100 * p)])
    X = _unit_rows(rng.standard_normal((600, n)), p)
    Y = _unit_rows(rng.standard_normal((600, n)), p)
    Y[:40] = X[:40]
    Y[40:80] = X[40:80] + 1e-4 * rng.standard_normal((40, n))
    Y[80:120] = -X[80:120] + 1e-4 * rng.standard_normal((40, n))
    Y[40:120] /= np.array([lp_norm(y, p) for y in Y[40:120]])[:, None]
    return X, Y


def _scores(p, X, Z):
    return 1.0 - np.sum(np.abs(0.5 * (X + Z)) ** p, axis=1) ** (1.0 / p)


class TestPinFeasibleSide:
    # δ is reported as an upper bound because every pinned pair is feasible
    # as computed: ‖x - y‖ >= eps holds bit for bit, not within a tolerance.
    # These run on the unpruned twin, row by row; TestPinnedBest holds the
    # δ search's own pinning to the twin's bits
    @pytest.mark.parametrize("p", PIN_P)
    @pytest.mark.parametrize("n", PIN_N)
    def test_every_row_is_feasible_and_on_the_sphere(self, p, n):
        X, Y = _pin_batch(p, n)
        for eps in PIN_EPS:
            d0 = row_norms(X - Y, p)
            assert (d0 >= eps).any() and (d0 < eps).any()
            Z = pin_pairs(p, X, Y, eps)
            assert np.all(row_norms(X - Z, p) >= eps)
            norms = np.sum(np.abs(Z) ** p, axis=1) ** (1.0 / p)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-300, 1e-17])
    def test_separation_below_rounding_keeps_y_at_x(self, eps):
        # the far end x itself falls short of eps by eps alone, so each
        # bracket closes next to x and each y ends at its x, up to the
        # rounding of the sphere map
        X, Y = _pin_batch(3.0, 3)
        d = row_norms(X - pin_pairs(3.0, X, Y, eps), 3.0)
        assert np.all(d >= eps) and np.all(d <= 1e-15)

    @pytest.mark.parametrize("p", PIN_P)
    def test_antipodal_limit(self, p):
        # at eps = 2 the only feasible partner of x is -x; its computed
        # distance is 2 up to the rounding of the sphere samples
        X, Y = _pin_batch(p, 3)
        Z = pin_pairs(p, X, Y, 2.0)
        assert np.array_equal(Z, -X)
        np.testing.assert_allclose(row_norms(X - Z, p), 2.0, rtol=4e-16, atol=0.0)

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
            got = _scores(p, X, pin_pairs(p, X, Y, eps))
            want = _scores(p, X, bisection_pin(p, X, Y, eps))
            assert np.max(np.abs(got - want)) <= 1e-11

    @pytest.mark.parametrize("p", [1.05, 3.0])
    def test_rows_do_not_depend_on_their_batch(self, p):
        X, Y = _pin_batch(p, 3)
        for eps in PIN_EPS:
            full = pin_pairs(p, X, Y, eps)
            for a, b in SPLITS:
                assert np.array_equal(pin_pairs(p, X[a:b], Y[a:b], eps), full[a:b])


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


class TestPinnedBest:
    # the pruned search returns what pinning every row and taking the argmin
    # returns: the index, and the partner and the score bit for bit
    @staticmethod
    def _twin_best(p, X, Y, eps):
        Z = pin_pairs(p, X, Y, eps)
        vals = pinned_scores(p, X, Z)
        k = int(np.argmin(vals))
        return k, Z[k], vals[k], vals

    @pytest.mark.parametrize("p", PIN_P)
    @pytest.mark.parametrize("n", PIN_N)
    def test_best_row_matches_the_twin(self, p, n):
        self._check_twin(p, *_pin_batch(p, n))

    @pytest.mark.parametrize("p", [1.05, 8.0])
    @pytest.mark.parametrize("n", PIN_N)
    def test_bound_carries_across_blocks(self, p, n, monkeypatch):
        # 300, 200 and 120 pairs a block instead of one block for all 600
        monkeypatch.setattr(moduli, "_BLOCK", 600)
        self._check_twin(p, *_pin_batch(p, n))

    @pytest.mark.parametrize("p", PIN_P)
    @pytest.mark.parametrize("n", PIN_N)
    def test_extreme_separations_match_the_twin(self, p, n):
        # below the rounding of ‖x - z‖ next to x, and just inside the
        # antipodal limit
        self._check_twin(p, *_pin_batch(p, n), [1e-300, 1e-17, 2.0 - 2e-12])

    @pytest.mark.parametrize("p", [1.05, 8.0])
    def test_rows_through_the_coincidence_screen_match_the_twin(self, p):
        # y is x moved along the sphere's tangent plane, its largest entry
        # 7e-10, then scaled onto the sphere.  So every |x_i - y_i| is below
        # 1e-9 and every row reaches the p-norm coincidence test; ‖x - y‖
        # clears 1e-9 at p = 1.05 and not at p = 8, so the rows are kept at
        # one exponent and replaced at the other
        X, Y = _pin_batch(p, 5)
        x = X[120:240]
        v = np.random.default_rng(7).standard_normal(x.shape)
        d = v - np.sum(np.sign(x) * np.abs(x) ** (p - 1) * v, axis=1)[:, None] * x
        d *= 7e-10 / np.abs(d).max(axis=1)[:, None]
        Y[120:240] = _unit_rows(x + d, p)
        assert np.abs(x - Y[120:240]).max() < 1e-9
        dist = row_norms(x - Y[120:240], p)
        assert np.all(dist > 1e-9) if p < 2 else np.all(dist < 1e-9)
        self._check_twin(p, X, Y, PIN_EPS + [1e-17])

    def _check_twin(self, p, X, Y, epsilons=PIN_EPS + [2.0]):
        for eps in epsilons:
            k, z, v, vals = self._twin_best(p, X, Y, eps)
            # no incumbent, then an incumbent that nine rows beat
            for bound in (math.inf, float(np.partition(vals, 9)[9])):
                kb, zb, vb = _pinned_best(p, X, Y, eps, bound)
                assert kb == k and _same_bits(zb, z) and _same_bits(vb, v)

    @pytest.mark.parametrize("p", PIN_P)
    @pytest.mark.parametrize("n", PIN_N)
    def test_best_row_is_feasible_and_on_the_sphere(self, p, n):
        X, Y = _pin_batch(p, n)
        for eps in PIN_EPS:
            k, z, _ = _pinned_best(p, X, Y, eps, math.inf)
            assert row_norms(X[k:k + 1] - z, p)[0] >= eps
            assert abs(lp_norm(z, p) - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", range(200, 260))
    def test_separation_equal_to_eps_keeps_y(self, k):
        # f at y is exactly 0, so y itself is the pinned partner, bit for bit
        X, Y = _pin_batch(3.0, 3)
        eps = row_norms(X[k:k + 1] - Y[k:k + 1], 3.0)[0]
        kb, z, v = _pinned_best(3.0, X[k:k + 1], Y[k:k + 1], eps, math.inf)
        assert kb == 0 and _same_bits(z, Y[k])
        assert _same_bits(v, pinned_scores(3.0, X[k:k + 1], Y[k:k + 1])[0])
        assert _same_bits(pin_pairs(3.0, X[k:k + 1], Y[k:k + 1], eps), Y[k:k + 1])

    @pytest.mark.parametrize("n", PIN_N)
    def test_one_norm_call_before_the_first_step(self, n, monkeypatch):
        # the path ends cost one norm call over x - y and (x + y)/2 for
        # the c pairs of a block; the coincidence test and the sphere map
        # of the replaced partners run only on the rows through the screen
        calls = []

        def norms(M, p):
            calls.append(M.shape[1])
            return _norms(M, p)

        X, Y = _pin_batch(1.5, n)
        monkeypatch.setattr(moduli, "_norms", norms)
        monkeypatch.setattr(moduli, "_PIN_STEPS", 0)
        _pinned_best(1.5, X[120:], Y[120:], 0.5, math.inf)
        assert calls == [2 * 480]
        calls.clear()
        _pinned_best(1.5, X, Y, 0.5, math.inf)
        # rows 0-40 coincide, and no other row comes within 2e-9 of its x
        assert calls == [40, 40, 2 * 600]

    def test_incumbent_that_no_row_beats(self):
        # nothing below the bound comes back; the random rows all stop early,
        # while a row whose path passes next to the origin (rows 40-120) has
        # a wide rounding allowance and may run to its end
        X, Y = _pin_batch(3.0, 3)
        _, _, v, _ = self._twin_best(3.0, X, Y, 0.5)
        bound = float(v) - 1e-3
        assert _pinned_best(3.0, X, Y, 0.5, bound)[2] >= bound
        assert _pinned_best(3.0, X[120:], Y[120:], 0.5, bound)[2] == math.inf

    @pytest.mark.parametrize("p", [1.05, 3.0])
    def test_best_row_does_not_depend_on_its_batch(self, p):
        X, Y = _pin_batch(p, 3)
        for eps in PIN_EPS:
            full = pin_pairs(p, X, Y, eps)
            for a, b in SPLITS:
                vals = pinned_scores(p, X[a:b], full[a:b])
                k = int(np.argmin(vals))
                kb, zb, vb = _pinned_best(p, X[a:b], Y[a:b], eps, math.inf)
                assert kb == k and _same_bits(zb, full[a + k]) and _same_bits(vb, vals[k])


class TestUnprunedTwin:
    # the whole δ estimate, refinement included, against the search that
    # pins every pair (`oracles.delta_search`), bit for bit
    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 7.5, 1e4])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_convexity_estimate_matches_the_unpruned_search(self, p, n):
        grid = [1e-3, 0.6, 1.999, 2.0]
        est = estimate_convexity_modulus(p, n, grid, budget=400, seed=n, rounds=1, threads=1)
        vals, count = convexity_twin(p, n, grid, 400, n, 1)
        assert _same_bits(est.delta_values, vals) and est.sample_count == count


class TestVeryLargeExponents:
    # Σ|x|^p overflows a double at p = 1e4 for entries above 1.08; the row
    # norms then scale by the largest entry, and both estimates stay on
    # their safe side (before, ρ(t) came back as t)
    @pytest.mark.parametrize("p", [1000.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_estimates_are_one_sided_against_exact_curves(self, p, n):
        eps = np.array([0.1, 1.0, 1.99, 1.999])
        ts = np.array([0.05, 0.5, 1.0])
        d = estimate_convexity_modulus(p, n, eps, budget=600, seed=7, rounds=1)
        r = estimate_smoothness_modulus(p, n, ts, budget=600, seed=7, rounds=1)
        delta, rho = exact_delta(p, eps), exact_rho(p, ts)
        assert np.all(d.delta_values >= delta * (1.0 - 1e-9) - 1e-15)
        assert np.all(r.rho_values <= rho * (1.0 + 1e-9) + 1e-15)
        # ρ's extremal pairs are axis seeds, so it is also close
        assert np.all(r.rho_values >= rho * (1.0 - 1e-9))

    def test_row_norms_scale_only_out_of_range_rows(self):
        # 2^1e4 overflows and 2e-3^1e4 underflows: those rows are divided by
        # their largest entry first; a zero row stays 0
        M = np.array([[2.0, 1.0], [1.0, -0.5], [0.0, 0.0], [1e-3, 2e-3]])
        assert np.array_equal(row_norms(M, 1e4), [2.0, 1.0, 0.0, 2e-3])


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
