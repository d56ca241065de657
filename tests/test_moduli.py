"""Exact modulus curves: Hilbert values, closed forms against independent
and high-precision twins, the attaining pairs, their inequalities on random
pairs, fits and bounds."""
import json
import math

import numpy as np
import pytest

from banachproj import (
    Ball,
    LpSpace,
    ModuliEstimate,
    PositiveCone,
    Segment,
    distance_bound_check,
    estimate_convexity_modulus,
    estimate_smoothness_modulus,
    fit_power_type,
    moduli,
)
from banachproj.moduli import _delta_inverse, _row_norms
from oracles import (
    bound_rows_per_point,
    exact_delta,
    exact_rho,
    hilbert_delta,
    hilbert_rho,
    least_slack,
    lp_norm,
    row_norms_summed,
    unit_rows,
)
from oracles_mp import mp_delta, mp_delta_inverse, mp_rho, rel_error

FIT_GRID = np.geomspace(0.05, 0.8, 6)
#: exponents on both sides of 2, from next to ℓ_1 to next to ℓ_∞
EXPONENTS = [1.01, 1.05, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 7.5, 50.0]


@pytest.fixture(scope="module")
def est3():
    """Both curves for p = 3, n = 3, wide grids, used by the bound checks."""
    d = estimate_convexity_modulus(3.0, 3, np.geomspace(0.05, 1.9, 8))
    r = estimate_smoothness_modulus(3.0, 3, np.geomspace(0.02, 1.9, 8))
    return d.merged_with(r)


@pytest.fixture(scope="module")
def est2():
    """Both curves for the Euclidean plane."""
    d = estimate_convexity_modulus(2.0, 2, np.geomspace(0.05, 1.6, 7))
    r = estimate_smoothness_modulus(2.0, 2, np.geomspace(0.02, 1.6, 7))
    return d.merged_with(r)


class TestConvexityEstimate:
    def test_euclidean_value_frozen(self):
        est = estimate_convexity_modulus(2.0, 2, [1.0])
        # exact Hilbert modulus, 1 - sqrt(3)/2
        assert float(est.delta_values[0]) == pytest.approx(hilbert_delta(1.0), rel=1e-15)

    def test_p3_below_hilbert(self):
        est = estimate_convexity_modulus(3.0, 2, [1.0])
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
        est = estimate_convexity_modulus(2.0, 2, [0.5, 1.0])
        assert (est.p, est.n) == (2.0, 2)
        assert est.ts.size == 0 and est.rho_values.size == 0
        np.testing.assert_allclose(est.epsilons, [0.5, 1.0])

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension"):
            estimate_convexity_modulus(2.0, 1, [1.0])

    @pytest.mark.parametrize("grid, message", [
        ([], "nonempty"),
        ([0.5, 0.4], "strictly increasing"),
        ([-0.1, 0.5], r"\(0, 2\]"),
        ([1.0, 2.5], r"\(0, 2\]"),
    ])
    def test_grid_validation(self, grid, message):
        with pytest.raises(ValueError, match=message):
            estimate_convexity_modulus(2.0, 2, grid)


class TestSmoothnessEstimate:
    def test_euclidean_value_frozen(self):
        est = estimate_smoothness_modulus(2.0, 2, [1.0])
        # exact Hilbert modulus, sqrt(2) - 1
        assert float(est.rho_values[0]) == pytest.approx(hilbert_rho(1.0), rel=1e-15)

    def test_bounded_by_t(self, est3):
        r, t = est3.rho_values, est3.ts
        assert np.all((0.0 <= r) & (r <= t + 1e-15))

    def test_envelope_monotone(self, est3):
        assert np.all(np.diff(est3.rho_values) >= -1e-15)

    def test_ratio_shrinks_toward_origin(self, est3):
        ratio = est3.rho_values / est3.ts
        assert ratio[0] <= ratio[-1] + 1e-12

    def test_t_grid_has_no_upper_cap(self):
        est = estimate_smoothness_modulus(2.0, 2, [3.0])
        assert 0.0 <= float(est.rho_values[0]) <= 3.0

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="t grid"):
            estimate_smoothness_modulus(2.0, 2, [0.4, 0.2])


def rounding(p, n):
    """Rounding allowance of a least slack: the norms m and e carry about
    (n + 2) ulp, and the inequality raises them to the power max(p, 2).
    The worst slack measured over p in {1.01, ..., 1e4}, n in {2, 3, 5, 10}
    and seeds 0-2 on 2e4 pairs was -6.2e-15 (p = 50, n = 2), a sixth of
    this allowance there; over the configurations of
    TestInequalities.test_inequalities_hold_on_random_pairs it is
    -8.7e-15 (p = 200, n = 3), a fiftieth."""
    return 2.0 * max(p, 2.0) * (n + 2) * np.finfo(float).eps


class TestExactCurves:
    # against the independent plain formulas of `oracles`.  The measured
    # gaps are the oracles' rounding: at most 1.2e-11 relative but 2.6e-16
    # absolute (p = 1.01, Hanner's bisection there works on 1 - δ), and
    # 2.9e-7 relative but 6e-18 absolute at p = 7.5, eps = 0.1, where
    # 1 - (1 - (ε/2)^p)^(1/p) cancels
    @pytest.mark.parametrize("p", [1.01, 1.05, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 7.5])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_values_match_the_plain_formulas(self, p, n):
        eps = np.geomspace(0.1, 1.9, 6)
        ts = np.geomspace(0.05, 1.5, 6)
        d = estimate_convexity_modulus(p, n, eps)
        r = estimate_smoothness_modulus(p, n, ts)
        np.testing.assert_allclose(d.delta_values, exact_delta(p, eps), rtol=5e-12, atol=1e-16)
        np.testing.assert_allclose(r.rho_values, exact_rho(p, ts), rtol=1e-13, atol=0.0)
        assert least_slack("delta", p, n, 2000, seed=7) >= -rounding(p, n)
        assert least_slack("rho", p, n, 2000, top=ts[-1], seed=7) >= -rounding(p, n)

    @pytest.mark.parametrize("n", [9, 10_600, 10_601, 10 ** 9, 2 ** 62])
    def test_values_do_not_depend_on_dimension(self, n):
        # nothing is drawn, so no dimension is too large
        eps, ts = np.geomspace(0.05, 2.0, 7), np.geomspace(0.02, 1.9, 6)
        d, r = estimate_convexity_modulus(1.5, n, eps), estimate_smoothness_modulus(3.0, n, ts)
        assert d.n == r.n == n
        assert np.array_equal(d.delta_values, estimate_convexity_modulus(1.5, 2, eps).delta_values)
        assert np.array_equal(r.rho_values, estimate_smoothness_modulus(3.0, 2, ts).rho_values)


class TestHighPrecisionTwin:
    # against 50-digit mpmath (`oracles_mp`).  Measured worst relative
    # errors: Hanner 2.9e-13 at p = 1.001, 6.4e-14 at 1.01, 6.7e-15 at
    # 1.05 and at most 1.4e-15 from 1.2 to 1.99 (the evaluation loses
    # about p/(p - 1) ulp where two logarithms of size p·w²/2 cancel to
    # (p - 1)·p·w²/2); Clarkson 2.3e-16 (p = 50); ρ 6.6e-16 (p = 3)
    EPS = [1e-3, 0.05, 0.5, 1.0, 1.5, 1.9, 1.99, 2.0 - 1e-6, 2.0 - 1e-12, 2.0]
    TS = [1e-3, 0.02, 0.5, 1.0, 1.9, 10.0]

    @pytest.mark.parametrize("p", [1.001, 1.01, 1.05, 1.2, 1.5, 1.8, 1.99])
    def test_hanner_delta(self, p):
        got = estimate_convexity_modulus(p, 2, self.EPS).delta_values
        worst = max(rel_error(v, mp_delta(p, e)) for v, e in zip(got, self.EPS))
        assert worst <= 1e-15 * p / (p - 1.0)
        # Hanner's equation is flat in δ at ε = 2, and still δ(2) = 1
        assert got[-1] == 1.0

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 7.5, 20.0, 50.0])
    def test_clarkson_delta(self, p):
        got = estimate_convexity_modulus(p, 2, self.EPS).delta_values
        assert max(rel_error(v, mp_delta(p, e)) for v, e in zip(got, self.EPS)) <= 4e-16
        assert got[-1] == 1.0

    @pytest.mark.parametrize("p", [1.01, 1.05, 1.2, 1.5, 2.0, 2.5, 3.0, 7.5, 20.0])
    def test_rho(self, p):
        got = estimate_smoothness_modulus(p, 2, self.TS).rho_values
        assert max(rel_error(v, mp_rho(p, t)) for v, t in zip(got, self.TS)) <= 1e-15

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 8.0, 20.0])
    def test_delta_inverse(self, p):
        # measured worst 4.7e-15 at p = 1.05, at most 1.6e-15 from 1.2 on;
        # δ⁻¹ solves δ's relation for the other side, so δ⁻¹(1) = 2
        ds = np.geomspace(1e-14, 1.0, 29)
        got = _delta_inverse(ds, p)
        assert max(rel_error(e, mp_delta_inverse(p, d)) for e, d in zip(got, ds)) <= 1e-14
        assert got[-1] == 2.0 and _delta_inverse(0.0, p) == 0.0

    def test_delta_inverse_bisects_only_positive_entries(self, monkeypatch):
        # a zero entry would halve down to the least subnormal; it is 0
        # without a bisection, and the other entries keep their bits
        ds = np.geomspace(1e-14, 1.0, 29)
        want = _delta_inverse(ds, 1.5)
        seen, root = [], moduli._hanner_root
        monkeypatch.setattr(moduli, "_hanner_root",
                            lambda known, p, solve_delta: seen.append(known) or root(known, p, solve_delta))
        zeros = [0, 11, 31]
        got = _delta_inverse(np.insert(ds, [0, 10, 29], 0.0), 1.5)
        assert np.array_equal(np.delete(got, zeros), want) and not got[zeros].any()
        assert _delta_inverse(0.0, 1.5) == 0.0
        assert seen and not any((known == 0.0).any() for known in seen)


class TestAttainingPairs:
    # the two-coordinate pairs of the module docstring reach each value:
    # unit vectors at separation ε whose score is δ, and unit x with
    # ‖y‖ = t whose score is ρ.  Measured: spheres within 2.2e-16,
    # separations within 1.4e-13 relative (α - β cancels at small ε),
    # δ scores within 2.8e-16 and ρ scores within 3.6e-15
    EPS = np.append(np.geomspace(1e-3, 1.99, 11), 2.0)
    TS = np.geomspace(1e-3, 10.0, 12)

    @pytest.mark.parametrize("p", [1.01, 1.05, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 7.5])
    def test_delta_pairs(self, p):
        d = estimate_convexity_modulus(p, 2, self.EPS).delta_values
        for e, delta in zip(self.EPS, d):
            if p >= 2.0:
                x, y = np.array([1.0 - delta, e / 2.0]), np.array([1.0 - delta, -e / 2.0])
            else:
                a, b = 1.0 - delta + e / 2.0, 1.0 - delta - e / 2.0
                x, y = 2.0 ** (-1.0 / p) * np.array([[a, b], [b, a]])
            assert abs(lp_norm(x, p) - 1.0) <= 4e-16 and abs(lp_norm(y, p) - 1.0) <= 4e-16
            assert abs(lp_norm(x - y, p) - e) <= 4e-13 * e
            assert abs(1.0 - lp_norm(0.5 * (x + y), p) - delta) <= 1e-14

    @pytest.mark.parametrize("p", [1.01, 1.05, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 7.5])
    def test_rho_pairs(self, p):
        r = estimate_smoothness_modulus(p, 2, self.TS).rho_values
        c = 2.0 ** (-1.0 / p)
        for t, rho in zip(self.TS, r):
            if p <= 2.0:
                x, y = np.array([1.0, 0.0]), np.array([0.0, t])
            else:
                x, y = c * np.array([1.0, 1.0]), t * c * np.array([1.0, -1.0])
            score = 0.5 * (lp_norm(x + y, p) + lp_norm(x - y, p)) - 1.0
            assert abs(score - rho) <= 1e-14


class TestInequalities:
    # the inequality behind each closed form, on random unit pairs
    # (`oracles.least_slack`): no pair beats it by more than rounding
    def test_parallelogram_law_leaves_no_slack(self):
        # at p = 2 Clarkson's inequality is the parallelogram law, an
        # equality for every unit pair: the least slack is 0 to rounding
        assert abs(least_slack("delta", 2.0, 3, 5000, seed=3)) <= rounding(2.0, 3)

    def test_a_wrong_closed_form_shows_as_negative_slack(self, monkeypatch):
        # half of Lindenstrauss's ρ is beaten by random pairs
        exact = moduli._rho
        monkeypatch.setattr(moduli, "_rho", lambda t, p: 0.5 * exact(t, p))
        assert least_slack("rho", 3.0, 2, 2000, seed=1) < -1e-3

    @pytest.mark.parametrize("p, n", [(3.0, 2), (1.5, 3)])
    def test_digest_configurations(self, p, n):
        # the two moduli configs of tools/cli_digest.py, at their budget 500
        assert least_slack("delta", p, n, 500, seed=1) >= -rounding(p, n)
        assert least_slack("rho", p, n, 500, top=1.0, seed=1) >= -rounding(p, n)

    @pytest.mark.parametrize("p, n", [(3.0, 2), (1.5, 3)])
    def test_benchmark_budget(self, p, n):
        # the budget and grids of the benchmark's moduli workload
        assert least_slack("delta", p, n, 100_000, seed=9) >= -rounding(p, n)
        assert least_slack("rho", p, n, 100_000, top=1.9, seed=9) >= -rounding(p, n)

    # also where |g|^p of a raw Gaussian row underflows (p = 200) or
    # overflows (p = 1e4)
    @pytest.mark.parametrize("count", [64, 2000, 30_000])
    @pytest.mark.parametrize("n", [2, 3, 6, 10, 40])
    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 200.0, 1e4])
    def test_inequalities_hold_on_random_pairs(self, p, n, count):
        assert -rounding(p, n) <= least_slack("delta", p, n, count, seed=5) < math.inf
        assert -rounding(p, n) <= least_slack("rho", p, n, count, seed=5) < math.inf


class TestEndpoints:
    @pytest.mark.parametrize("p", [1.001, 1.01, 1.05, 1.2, 1.5, 1.9, 1.999,
                                   2.0, 3.0, 7.5, 50.0, 1000.0])
    def test_delta_reaches_one_at_two(self, p):
        # antipodal unit vectors have midpoint 0
        d = estimate_convexity_modulus(p, 2, [1.999, 2.0]).delta_values
        assert d[-1] == 1.0 and d[0] < 1.0

    def test_delta_branches_meet_at_two(self):
        # Hanner's equation at p = 2 is the parallelogram law, and so is
        # Clarkson's formula: δ is continuous in p across 2.  Measured
        # relative gaps: 1.0e-9 at p = 2 - 1e-9, and 2.1e-16 from δ_H at 2
        eps = np.geomspace(1e-3, 2.0, 50)
        below = estimate_convexity_modulus(2.0 - 1e-9, 2, eps).delta_values
        at = estimate_convexity_modulus(2.0, 2, eps).delta_values
        np.testing.assert_allclose(below, at, rtol=2e-9, atol=0.0)
        np.testing.assert_allclose(at, hilbert_delta(eps), rtol=4.5e-16, atol=0.0)

    def test_rho_branches_meet_at_two(self):
        # measured relative gaps: 1.0e-9 at p = 2 + 1e-9, and 2.4e-16 from
        # ρ_H at 2
        ts = np.geomspace(1e-3, 2.0, 50)
        above = estimate_smoothness_modulus(2.0 + 1e-9, 2, ts).rho_values
        at = estimate_smoothness_modulus(2.0, 2, ts).rho_values
        np.testing.assert_allclose(above, at, rtol=2e-9, atol=0.0)
        np.testing.assert_allclose(at, hilbert_rho(ts), rtol=4.5e-16, atol=0.0)


class TestPowerType:
    # ℓ_p is uniformly convex of power type max(p, 2) and uniformly smooth
    # of power type min(p, 2), with the sharp constants: δ(ε) >= (ε/2)^p/p
    # for p >= 2 (from Clarkson's formula) and >= (p - 1)ε²/8 for p < 2
    # (Ball, Carlen and Lieb 1994); ρ(t) <= t^p/p for p <= 2 and
    # <= (p - 1)t²/2 for p >= 2.  Each ratio tends to 1 as the argument
    # tends to 0.  Nordlander (1960): no space is more convex or more
    # smooth than the Hilbert space, δ <= δ_H and ρ >= ρ_H.  Measured: the
    # ratios at the smallest argument are within 6.5e-10 (δ) and 1.2e-8
    # (ρ, p = 1.05) of 1; the Hilbert comparisons hold to 2.2e-16 (δ) and
    # 3.3e-16 (ρ) relative, at p = 2
    EPS = np.geomspace(1e-4, 2.0, 400)
    TS = np.geomspace(1e-6, 20.0, 400)

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_delta_is_of_power_type(self, p):
        e = self.EPS
        d = estimate_convexity_modulus(p, 2, e).delta_values
        ratio = d / ((e / 2.0) ** p / p if p >= 2.0 else (p - 1.0) * e ** 2 / 8.0)
        assert ratio.min() >= 1.0 - 1e-14 and ratio[0] <= 1.0 + 1e-8

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_rho_is_of_power_type(self, p):
        t = self.TS
        r = estimate_smoothness_modulus(p, 2, t).rho_values
        ratio = r / (t ** p / p if p <= 2.0 else (p - 1.0) * t ** 2 / 2.0)
        assert ratio.max() <= 1.0 + 1e-14 and ratio[0] >= 1.0 - 1e-7

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_delta_below_hilbert(self, p):
        d = estimate_convexity_modulus(p, 3, self.EPS).delta_values
        assert np.all(d <= hilbert_delta(self.EPS) * (1.0 + 4.5e-16))

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_rho_above_hilbert(self, p):
        r = estimate_smoothness_modulus(p, 3, self.TS).rho_values
        assert np.all(r >= hilbert_rho(self.TS) * (1.0 - 4.5e-16))


class TestLindenstraussDuality:
    # Lindenstrauss (1963): ρ of the dual space is the conjugate of δ,
    # ρ_q(τ) = sup { τε/2 - δ_p(ε) : 0 <= ε <= 2 }, 1/p + 1/q = 1, so the
    # two closed forms, from different inequalities, must agree.  The sup
    # is taken on a grid of 2000 points, refined four times around its
    # best point, so it can fall short; most of all next to p = 1, where it
    # sits at the near-corner of δ at ε = 2^(1/p) (there β = 0 and |β|^p
    # is nearly |β|).  Measured relative gaps: -6.8e-14 (δ's own rounding,
    # p = 1.01) to 2.6e-13 (the grid, p = 1.01)
    @pytest.mark.parametrize("p", EXPONENTS[:5] + EXPONENTS[6:])
    def test_rho_is_the_conjugate_of_delta(self, p):
        q = p / (p - 1.0)
        taus = np.array([1e-2, 0.1, 0.5, 1.0, 2.0])
        sup = []
        for tau in taus:
            lo, hi = 1e-3, 2.0
            for _ in range(4):
                e = np.linspace(lo, hi, 2000)
                v = tau * e / 2.0 - estimate_convexity_modulus(p, 2, e).delta_values
                k = int(np.argmax(v))
                lo, hi = e[max(k - 1, 0)], e[min(k + 1, e.size - 1)]
            sup.append(v[k])
        rho = estimate_smoothness_modulus(q, 2, taus).rho_values
        gap = (rho - np.array(sup)) / rho
        assert np.all(gap >= -2e-13) and np.all(gap <= 1e-12)


class TestDimension:
    @pytest.mark.parametrize("estimate", [estimate_convexity_modulus,
                                          estimate_smoothness_modulus])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_dimension_below_two_is_refused(self, estimate, n):
        with pytest.raises(ValueError, match="dimension >= 2"):
            estimate(3.0, n, [0.5])


class TestDeterminism:
    @pytest.mark.parametrize("p, n", [(3.0, 2), (1.5, 3), (2.0, 4)])
    def test_budget_seed_and_threads_change_no_bit(self, p, n):
        # they are accepted and not read
        eps, ts = np.geomspace(0.05, 1.9, 6), np.geomspace(0.02, 1.9, 6)
        d = estimate_convexity_modulus(p, n, eps)
        r = estimate_smoothness_modulus(p, n, ts)
        for kw in ({"budget": 1}, {"budget": 10 ** 9, "seed": 12}, {"seed": 2 ** 40, "threads": 5},
                   {"budget": -3, "seed": 7, "threads": 0}):
            assert np.array_equal(estimate_convexity_modulus(p, n, eps, **kw).delta_values,
                                  d.delta_values)
            assert np.array_equal(estimate_smoothness_modulus(p, n, ts, **kw).rho_values,
                                  r.rho_values)


class TestEstimateContainer:
    def test_merge_combines_curves(self, est3):
        assert est3.epsilons.size == 8 and est3.ts.size == 8
        # nothing is sampled; the count stays readable for the span tracer
        assert est3.sample_count == 0

    def test_merge_rejects_different_spaces(self, est3):
        other = estimate_convexity_modulus(2.0, 3, [0.5])
        with pytest.raises(ValueError, match="different spaces"):
            est3.merged_with(other)

    def test_csv_rows(self, est3):
        rows = list(est3.csv_rows())
        assert rows[0] == ("curve", "argument", "value")
        assert len(rows) == 1 + est3.epsilons.size + est3.ts.size
        assert rows[1][0] == "delta" and rows[-1][0] == "rho"

    def test_to_json_side_flags(self, est3):
        js = est3.to_json()
        assert js["delta_side"] == js["rho_side"] == "exact"
        assert (js["delta_inequality"], js["rho_inequality"]) == ("clarkson", "lindenstrauss")
        assert not {"sample_count", "delta_slack", "rho_slack"} & set(js)
        json.dumps(js)

    def test_hanner_names_itself_below_two(self):
        js = estimate_convexity_modulus(1.5, 2, [0.5]).to_json()
        assert js["delta_inequality"] == "hanner"


class TestPowerFit:
    @pytest.mark.parametrize("p, p_lo, p_hi, q_lo, q_hi", [
        (2.0, 1.9, 2.1, 1.9, 2.1),
        (3.0, 2.8, 3.2, 1.8, 2.2),
        (1.5, 1.8, 2.2, 1.3, 1.7),
        (4.0, 3.8, 4.2, 1.8, 2.2),
        (1.2, 1.8, 2.2, 1.0, 1.4),
        (1.8, 1.8, 2.2, 1.6, 2.0),
        (2.5, 2.3, 2.7, 1.8, 2.2),
        (7.5, 7.3, 7.7, 1.8, 2.2),
    ])
    def test_exponent_windows(self, p, p_lo, p_hi, q_lo, q_hi):
        d = estimate_convexity_modulus(p, 2, FIT_GRID)
        r = estimate_smoothness_modulus(p, 2, FIT_GRID)
        fit = fit_power_type(d.merged_with(r))
        assert p_lo <= fit.p_fit <= p_hi
        assert q_lo <= fit.q_fit <= q_hi
        assert fit.rms_delta < 0.05 and fit.rms_rho < 0.05
        assert fit.a > 0.0 and fit.b > 0.0

    def test_higher_dimension_fit_quality(self):
        d = estimate_convexity_modulus(1.5, 4, FIT_GRID)
        r = estimate_smoothness_modulus(1.5, 4, FIT_GRID)
        fit = fit_power_type(d.merged_with(r))
        assert fit.rms_delta < 0.05 and fit.rms_rho < 0.05

    def test_single_curve_leaves_other_side_nan(self):
        d = estimate_convexity_modulus(2.0, 2, FIT_GRID)
        fit = fit_power_type(d)
        assert 1.9 <= fit.p_fit <= 2.1
        assert math.isnan(fit.q_fit) and math.isnan(fit.rms_rho)

    def test_short_grid_rejected(self):
        d = estimate_convexity_modulus(2.0, 2, [0.2, 0.4, 0.8])
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
        d = estimate_convexity_modulus(2.0, 2, FIT_GRID)
        js = fit_power_type(d).to_json()
        assert set(js) == {"a", "p_fit", "b", "q_fit", "rms_delta", "rms_rho"}


class TestSphereMap:
    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 50.0, 200.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_rows_land_on_the_unit_sphere(self, p, n):
        # the sphere map of `oracles.least_slack`
        rows = unit_rows(np.random.default_rng(13).standard_normal((2000, n)), p)
        assert max(abs(lp_norm(r, p) - 1.0) for r in rows) <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.0, 1e4])
    def test_row_norms_match_a_row_sum(self, p):
        # NumPy adds rows of up to 7 entries in order, so their column sums
        # are its row sums bit for bit; longer rows are summed by NumPy.
        # The rows hold zeros (every 50th is zero), and at p = 1e4 most
        # overflow or underflow and take the scaled path
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12):
            M = rng.standard_normal((500, n)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
            M[rng.random((500, n)) < 0.2] = 0.0
            M[::50] = 0.0
            assert np.array_equal(_row_norms(M, p), row_norms_summed(M, p))
            if p == 1e4:
                with np.errstate(over="ignore"):
                    total = np.sum(np.abs(M) ** p, axis=1)
                assert np.sum((total < 2.0 ** -1022) | (total == np.inf)) >= 250


class TestVeryLargeExponents:
    # Σ|x|^p overflows a double at p = 1e4 for entries above 1.08; the row
    # norms then scale by the largest entry, ρ is evaluated in a form that
    # cannot overflow, and (ε/2)^p underflows to a δ of 0.  Measured
    # against the oracles' plain formulas: ρ within 2.8e-15 relative, δ
    # within 3e-18 absolute (the plain formula cancels to 0 at
    # p = 1e4, eps = 1.99, where δ is 1.7e-26)
    @pytest.mark.parametrize("p", [1000.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_estimates_match_the_plain_formulas(self, p, n):
        eps = np.array([0.1, 1.0, 1.99, 1.999])
        ts = np.array([0.05, 0.5, 1.0])
        d = estimate_convexity_modulus(p, n, eps)
        r = estimate_smoothness_modulus(p, n, ts)
        np.testing.assert_allclose(d.delta_values, exact_delta(p, eps), rtol=1e-9, atol=1e-17)
        np.testing.assert_allclose(r.rho_values, exact_rho(p, ts), rtol=1e-14, atol=0.0)
        assert least_slack("delta", p, n, 600, seed=7) >= -rounding(p, n)
        assert least_slack("rho", p, n, 600, top=ts[-1], seed=7) >= -rounding(p, n)

    def test_row_norms_scale_only_out_of_range_rows(self):
        # 2^1e4 overflows and 2e-3^1e4 underflows: those rows are divided by
        # their largest entry first; a zero row stays 0
        M = np.array([[2.0, 1.0], [1.0, -0.5], [0.0, 0.0], [1e-3, 2e-3]])
        assert np.array_equal(_row_norms(M, 1e4), [2.0, 1.0, 0.0, 2e-3])


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

    def test_estimate_of_another_space_is_refused(self, est3, rng):
        # the curves are those of the estimate's p, so they must be the space's
        pairs = [(x, x + 0.01) for x in rng.normal(size=(5, 3))]
        with pytest.raises(ValueError, match="estimate is for p = 3, the space has p = 4"):
            distance_bound_check(LpSpace(4.0), PositiveCone(), pairs, est3)

    def test_pair_beyond_rho_grid(self, est3):
        # 6 ρ(2‖x - y‖) is far above δ(2) = 1, where δ⁻¹ is undefined
        far = (np.array([4.0, 0.0, 0.0]), np.array([-4.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="exceeds delta"):
            distance_bound_check(LpSpace(3.0), PositiveCone(), [far], est3)

    def test_delta_inverse_runs_out_of_range(self):
        # a delta grid stopping at tiny epsilon once left δ⁻¹ undefined for
        # this pair; the exact curves answer it, and the bound holds
        d = estimate_convexity_modulus(3.0, 3, np.geomspace(0.01, 0.05, 4))
        r = estimate_smoothness_modulus(3.0, 3, np.geomspace(0.02, 1.9, 8))
        pair = (np.array([0.5, 0.2, 0.1]), np.array([0.45, 0.25, 0.12]))
        report = distance_bound_check(LpSpace(3.0), PositiveCone(), [pair],
                                      d.merged_with(r))
        assert report.count == 1 and report.anomalies == 0

    def test_no_pairs_give_an_empty_report(self, est3):
        report = distance_bound_check(LpSpace(3.0), PositiveCone(), [], est3)
        assert (report.rows, report.count, report.anomalies) == ([], 0, 0)

    @staticmethod
    def _near_pairs(rng, space, count, scale=(0.3, 1.5)):
        # acceptance criterion 10's design: separations up to 0.05
        pairs = []
        for _ in range(count):
            x = rng.standard_normal(3) * rng.uniform(*scale)
            step = rng.standard_normal(3)
            step *= rng.uniform(0.0, 0.05) / max(space.norm(step), 1e-12)
            pairs.append((x, x + step))
        return pairs

    def test_rows_match_the_per_point_loop(self, est3):
        # criterion 10's pairs, the ball's and then the cone's, and a
        # segment, which projects its stacks row by row
        space, rng = LpSpace(3.0), np.random.default_rng(1000)
        for C in (Ball(center=np.zeros(3), radius=1.0), PositiveCone()):
            pairs = self._near_pairs(rng, space, 1000)
            assert distance_bound_check(space, C, pairs, est3).rows == bound_rows_per_point(space, C, pairs)
        C = Segment(u=np.array([-1.0, 0.5, 0.0]), w=np.array([1.0, -0.5, 0.3]))
        pairs = self._near_pairs(np.random.default_rng(1001), space, 40)
        assert distance_bound_check(space, C, pairs, est3).rows == bound_rows_per_point(space, C, pairs)

    def test_ball_pairs_are_projected_as_stacks(self, est3, monkeypatch):
        space, C = LpSpace(3.0), Ball(center=np.zeros(3), radius=1.0)
        pairs = self._near_pairs(np.random.default_rng(1002), space, 50)
        calls, single = [], Ball.project
        monkeypatch.setattr(Ball, "project", lambda *a: calls.append(1) or single(*a))
        assert distance_bound_check(space, C, pairs, est3).count == 50
        assert calls == []

    def test_bad_points_are_refused(self, est3):
        space, C = LpSpace(3.0), Ball(center=np.zeros(3), radius=1.0)
        x = np.array([0.5, 0.2, 0.1])
        with pytest.raises(ValueError, match="coordinates must be finite"):
            distance_bound_check(space, C, [(x, x + 0.01), (x, np.array([0.5, np.nan, 0.1]))], est3)
        with pytest.raises(ValueError, match="point has dimension 2, set expects 3"):
            distance_bound_check(space, C, [(x[:2], x[:2] + 0.01)] * 3, est3)
