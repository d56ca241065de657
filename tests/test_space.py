"""Norms, duality mappings, and the smoothness functionals.

The closed form used for the norm's directional derivative is validated
here against raw difference quotients (oracles.py) before any other test
relies on it.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from banachproj import LpSpace, StepSchedule
from conftest import random_unit
from oracles import (
    duality_smoothness,
    lp_norm,
    psi_oracle,
    wrapped_duality_map,
    wrapped_power_norm,
    xi_quotient,
)

P_GRID = [1.5, 2.0, 2.5, 3.0, 4.0]


class TestNorm:
    def test_generalized_cubic_norm(self):
        space = LpSpace(3.0)
        assert_allclose(space.norm([1.0, 1.0, 1.0]), 3.0 ** (1.0 / 3.0), rtol=1e-15)

    def test_zero_vector(self):
        for p in P_GRID:
            assert LpSpace(p).norm(np.zeros(4)) == 0.0

    def test_euclidean_case(self):
        assert_allclose(LpSpace(2.0).norm([3.0, 4.0]), 5.0, rtol=1e-15)

    def test_matches_plain_formula(self, rng):
        for p in P_GRID:
            space = LpSpace(p)
            for _ in range(25):
                x = rng.standard_normal(5) * rng.uniform(0.1, 10.0)
                assert_allclose(space.norm(x), lp_norm(x, p), rtol=1e-13)

    def test_extreme_scales_do_not_overflow(self):
        # naive sum(|x|^p) overflows at 1e200 for p=3; the scaled form must not
        space = LpSpace(3.0)
        for c in (1e200, 1e-200):
            x = np.full(3, c)
            assert_allclose(space.norm(x), c * 3.0 ** (1.0 / 3.0), rtol=1e-14)

    def test_dual_norm_conjugate_exponent(self):
        space = LpSpace(3.0)
        assert_allclose(space.dual_norm([1.0, 1.0, 1.0]), 3.0 ** (2.0 / 3.0), rtol=1e-15)
        assert_allclose(LpSpace(2.0).dual_norm([1.0, 1.0]), math.sqrt(2.0), rtol=1e-15)
        assert LpSpace(4.0).dual_norm(np.zeros(2)) == 0.0

    def test_unit_rejects_zero(self):
        with pytest.raises(ValueError):
            LpSpace(3.0).unit(np.zeros(3))

    def test_invalid_exponents(self):
        for bad in (1.0, 0.5, 0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                LpSpace(bad)

    def test_dual_space_roundtrip(self):
        space = LpSpace(3.0)
        dual = LpSpace(space.q)
        assert_allclose(dual.p, 1.5, rtol=1e-15)
        assert_allclose(LpSpace(dual.q).p, space.p, rtol=1e-12)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


# entries that take the kernel's edge branches: signed zeros, a subnormal,
# the smallest normal, infinities, NaN, and far-apart scales
SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
           1e-200, -1e200, 1.0]


class TestKernelBits:
    """The array-method kernel gives the bits of its NumPy-function form.

    n runs to 10 so the power sum crosses NumPy's 8-wide pairwise block;
    Python's sum, math.fsum and a scalar pow all differ from it there.
    """

    @staticmethod
    def _vectors(rng):
        for n in range(1, 11):
            for _ in range(40):
                x = rng.standard_normal(n) * 10.0 ** rng.choice([-200, -5, 0, 5, 200])
                for i in range(n):
                    if rng.uniform() < 0.2:
                        x[i] = SPECIAL[rng.integers(len(SPECIAL))]
                yield x

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 8.0])
    def test_norms_match_the_function_form(self, p, rng):
        space = LpSpace(p)
        with np.errstate(invalid="ignore"):
            for x in self._vectors(rng):
                assert _bits(space.norm(x)) == _bits(wrapped_power_norm(x, p)), x
                assert _bits(space.dual_norm(x)) == _bits(wrapped_power_norm(x, space.q)), x

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 8.0])
    def test_duality_maps_match_the_function_form(self, p, rng):
        space = LpSpace(p)
        with np.errstate(invalid="ignore"):
            for x in self._vectors(rng):
                assert _bits(space.duality_map(x)) == _bits(wrapped_duality_map(x, p)), x
                assert (_bits(space.inverse_duality_map(x))
                        == _bits(wrapped_duality_map(x, space.q))), x

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_negative_zero_entry_maps_to_positive_zero(self, p):
        # np.sign(-0.0) is +0.0; a copysign form would give -0.0 here and
        # move report bytes
        for x in ([-0.0, 1.0, -2.0], [3.0, -0.0]):
            j = LpSpace(p).duality_map(x)
            assert j[x.index(-0.0)] == 0.0
            assert not np.signbit(j[x.index(-0.0)])

    def test_empty_vector_has_norm_zero(self):
        assert LpSpace(3.0).norm(np.zeros(0)) == 0.0


class TestPairing:
    def test_coordinate_functional(self):
        space = LpSpace(3.0)
        assert space.pairing([1.0, 0.0, 0.0], [2.0, 5.0, 7.0]) == 2.0
        assert space.pairing(np.zeros(3), [2.0, 5.0, 7.0]) == 0.0

    def test_pairing_with_duality_map_is_norm_squared(self):
        # oracle: the pairing must equal lp_norm(x)^2 computed independently
        space = LpSpace(3.0)
        x = np.array([1.0, 1.0, 1.0])
        got = space.pairing(space.duality_map(x), x)
        assert_allclose(got, lp_norm(x, 3.0) ** 2, rtol=1e-14)
        assert_allclose(got, 3.0 ** (2.0 / 3.0), rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LpSpace(2.0).pairing([1.0, 2.0], [1.0, 2.0, 3.0])


class TestDualityMap:
    def test_symmetric_ones_vector(self):
        space = LpSpace(3.0)
        expected = np.full(3, 3.0 ** (-1.0 / 3.0))
        assert_allclose(space.duality_map([1.0, 1.0, 1.0]), expected, rtol=1e-14)

    def test_zero_maps_to_zero(self):
        for p in P_GRID:
            assert_allclose(LpSpace(p).duality_map(np.zeros(3)), np.zeros(3))
            assert_allclose(LpSpace(p).inverse_duality_map(np.zeros(3)), np.zeros(3))

    def test_identity_in_hilbert_case(self):
        x = np.array([3.0, 4.0])
        assert_allclose(LpSpace(2.0).duality_map(x), x, rtol=1e-14)

    def test_inverse_map_on_coordinate_vector(self):
        space = LpSpace(3.0)
        e1 = np.array([1.0, 0.0, 0.0])
        assert_allclose(space.inverse_duality_map(e1), e1, rtol=1e-14)

    def test_round_trip_specific(self):
        space = LpSpace(3.0)
        x = np.array([2.0, -1.0, 0.0])
        assert_allclose(space.inverse_duality_map(space.duality_map(x)), x,
                        rtol=0, atol=1e-12 * lp_norm(x, 3.0))

    def test_identities_random(self, rng):
        for p in P_GRID:
            space = LpSpace(p)
            for n in (2, 3, 5, 8):
                for _ in range(20):
                    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                    nx = space.norm(x)
                    if nx == 0.0:
                        continue
                    j = space.duality_map(x)
                    assert abs(space.pairing(j, x) - nx ** 2) <= 1e-12 * max(1.0, nx ** 2)
                    assert abs(space.dual_norm(j) - nx) <= 1e-12 * max(1.0, nx)
                    back = space.inverse_duality_map(j)
                    assert space.norm(back - x) <= 1e-10 * max(1.0, nx)

    def test_homogeneity(self, rng):
        space = LpSpace(2.5)
        x = rng.standard_normal(4)
        j = space.duality_map(x)
        for lam in (0.5, 2.0, 10.0, 1e100):
            assert_allclose(space.duality_map(lam * x), lam * j, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        coords=st.lists(
            st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
            min_size=2, max_size=6,
        ),
        p=st.sampled_from(P_GRID),
    )
    def test_identities_hypothesis(self, coords, p):
        space = LpSpace(p)
        x = np.asarray(coords)
        nx = space.norm(x)
        if nx < 1e-6:
            return
        j = space.duality_map(x)
        assert abs(space.pairing(j, x) - nx ** 2) <= 1e-12 * max(1.0, nx ** 2)
        assert abs(space.dual_norm(j) - nx) <= 1e-12 * max(1.0, nx)
        assert space.norm(space.inverse_duality_map(j) - x) <= 1e-10 * max(1.0, nx)

    def test_norm_continuity_of_j(self, rng):
        # ||J(x+h) - Jx||_* must fall along a shrinking h-schedule,
        # monotonically after the first two steps
        for p in (1.5, 3.0):
            space = LpSpace(p)
            x = random_unit(rng, space, 4)
            d = random_unit(rng, space, 4)
            jx = space.duality_map(x)
            vals = [
                space.dual_norm(space.duality_map(x + 2.0 ** -k * d) - jx)
                for k in range(2, 14)
            ]
            for a, b in zip(vals[2:], vals[3:]):
                assert b <= a * (1.0 + 1e-9) + 1e-15


class TestNormSmoothness:
    def test_closed_form_matches_raw_quotient_oracle(self, rng):
        # the load-bearing validation: <Jx, v> against the raw one-sided
        # quotient of the norm, across exponents and dimensions
        for p in P_GRID:
            space = LpSpace(p)
            for n in (2, 3, 5):
                for _ in range(30):
                    x = random_unit(rng, space, n)
                    v = random_unit(rng, space, n)
                    assert abs(space.norm_smoothness(x, v) - psi_oracle(p, x, v)) < 1e-6

    def test_orthogonal_coordinate_directions(self):
        space2 = LpSpace(2.0)
        assert abs(space2.norm_smoothness([1.0, 0.0], [0.0, 1.0])) <= 1e-12
        space3 = LpSpace(3.0)
        x = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        assert abs(space3.norm_smoothness(x, v)) <= 1e-12
        # raw-oracle agreement at the same point
        assert abs(psi_oracle(3.0, x, v)) < 1e-8

    def test_along_itself_is_one(self, rng):
        for p in P_GRID:
            space = LpSpace(p)
            x = random_unit(rng, space, 3)
            assert_allclose(space.norm_smoothness(x, x), 1.0, rtol=1e-12)

    def test_bounded_by_one(self, rng):
        for p in P_GRID:
            space = LpSpace(p)
            for _ in range(50):
                x = random_unit(rng, space, 4)
                v = random_unit(rng, space, 4)
                assert abs(space.norm_smoothness(x, v)) <= 1.0 + 1e-12

    def test_rejects_off_sphere_inputs(self):
        space = LpSpace(3.0)
        with pytest.raises(ValueError):
            space.norm_smoothness([2.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            space.norm_smoothness([1.0, 0.0, 0.0], [0.0, 2.0, 0.0])


class TestDualitySmoothness:
    def test_euclidean_inner_product(self):
        space = LpSpace(2.0)
        assert abs(duality_smoothness(space, [1.0, 0.0], [0.0, 1.0]).estimate[0]) <= 1e-10

    def test_along_itself_is_one(self, rng):
        space = LpSpace(3.0)
        x = random_unit(rng, space, 3)
        assert_allclose(duality_smoothness(space, x, x).estimate[0], 1.0, rtol=1e-7)

    def test_coordinate_direction_vanishes(self):
        space = LpSpace(3.0)
        got = duality_smoothness(space, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]).estimate[0]
        assert abs(got) <= 1e-6
        # independent raw quotient at a small step agrees
        assert abs(xi_quotient(3.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-6)) < 1e-4

    def test_split_identity(self, rng):
        # psi = (⟨Jx,v⟩ + xi)/2 across exponents
        for p in (1.5, 2.0, 3.0, 4.0):
            space = LpSpace(p)
            for _ in range(15):
                x = random_unit(rng, space, 4)
                v = random_unit(rng, space, 4)
                psi = space.norm_smoothness(x, v)
                pair = space.pairing(space.duality_map(x), v)
                est = duality_smoothness(space, x, v)
                if not est.converged:
                    continue
                assert abs(psi - 0.5 * (pair + est.estimate[0])) <= 1e-5

    def test_hilbert_collapse(self, rng):
        space = LpSpace(2.0)
        for _ in range(25):
            x = random_unit(rng, space, 4)
            v = random_unit(rng, space, 4)
            inner = float(x @ v)
            assert abs(space.norm_smoothness(x, v) - inner) <= 1e-10
            assert abs(duality_smoothness(space, x, v).estimate[0] - inner) <= 1e-10

    def test_non_convergence_reports_every_step(self):
        space = LpSpace(3.0)
        sched = StepSchedule(t_values=(0.25, 0.125, 0.0625), quotient_tol=1e-14)
        x = space.unit([1.0, 2.0, -0.5])
        v = space.unit([-1.0, 0.3, 0.9])
        est = duality_smoothness(space, x, v, sched)
        assert not est.converged
        assert len(est.ts) == 3

    def test_trace_pairs_are_step_and_quotient(self):
        space = LpSpace(3.0)
        sched = StepSchedule(t_values=(0.25, 0.125, 0.0625, 0.03125), quotient_tol=1e-14)
        x = space.unit([1.0, 2.0, -0.5])
        v = space.unit([-1.0, 0.3, 0.9])
        est = duality_smoothness(space, x, v, sched)
        assert not est.converged
        assert list(est.ts) == list(sched.t_values)
        for t, q in zip(est.ts, est.quotients):
            assert abs(q[0] - xi_quotient(3.0, x, v, t)) <= 1e-12
