import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallaire import (
    CaputoKernel,
    apply_half_layer,
    caputo_power,
    l1_weight,
    l1_weight_array,
    split_half_layer,
    truncation_bound,
)
from hallaire.caputo import (
    HISTORY_CHUNK,
    HISTORY_WINDOW,
    KernelStack,
    fit_exponential_tail,
    gamma_const,
    history_rows,
)
from oracles import caputo_by_quadrature, l1_lag_weight_decimal, l1_lag_weights

ALPHA_THRESHOLD = math.log(1.5) / math.log(3.0)  # where c_0 and c_1 cross


class TestWeights:
    def test_leading_weight(self):
        assert l1_weight(0, 0.5) == pytest.approx(2.0**-0.5)

    def test_second_weight(self):
        assert l1_weight(1, 0.5) == pytest.approx(1.5**0.5 - 0.5**0.5)

    def test_crossing_point(self):
        assert l1_weight(0, ALPHA_THRESHOLD) == pytest.approx(
            l1_weight(1, ALPHA_THRESHOLD), abs=1e-12
        )

    def test_ordering_flips_at_threshold(self):
        above = ALPHA_THRESHOLD + 0.01
        below = ALPHA_THRESHOLD - 0.01
        assert l1_weight(0, above) > l1_weight(1, above)
        assert l1_weight(0, below) < l1_weight(1, below)

    def test_order_out_of_range_rejected(self):
        for alpha in (0.0, 1.0, -0.3, 0.005, 0.995):
            with pytest.raises(ValueError):
                l1_weight(0, alpha)
        with pytest.raises(ValueError):
            l1_weight(-1, 0.5)

    def test_array_matches_scalar(self):
        arr = l1_weight_array(12, 0.3)
        for j in range(13):
            assert arr[j] == pytest.approx(l1_weight(j, 0.3), rel=1e-14)

    def test_positive_and_decaying(self):
        for alpha in np.arange(0.05, 0.96, 0.1):
            w = l1_weight_array(10_000, float(alpha))
            assert np.all(w > 0.0)
            assert np.all(np.diff(w[1:]) < 0.0)

    def test_transformed_sequence_strictly_decreasing(self):
        # leading entry forced to one makes the whole sequence monotone
        for alpha in np.arange(0.05, 0.96, 0.1):
            kernel = CaputoKernel(float(alpha), 0.1)
            w = kernel.weights_transformed(10_000)
            assert w[0] == 1.0
            assert np.all(np.diff(w) < 0.0)


class TestGammaConst:
    def test_value_at_half(self):
        assert gamma_const(0.5) == pytest.approx(0.330495, abs=1e-5)

    def test_complements_leading_weight(self):
        # 2^(alpha-1) = 1 - gamma * Gamma(2 - alpha)
        for alpha in np.arange(0.1, 0.95, 0.1):
            lhs = 2.0 ** (alpha - 1.0)
            rhs = 1.0 - gamma_const(float(alpha)) * math.gamma(2.0 - alpha)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_positive(self, rng):
        for alpha in rng.uniform(0.011, 0.989, size=100):
            assert gamma_const(float(alpha)) > 0.0


class TestApplyHalfLayer:
    def test_constant_history_vanishes(self):
        kernel = CaputoKernel(0.4, 0.05)
        assert apply_half_layer(np.full(9, 3.7), kernel) == 0.0

    def test_exact_on_linear(self):
        # telescoping makes the operator exact for u(t) = t
        for alpha in (0.1, 0.5, 0.9):
            tau = 1 / 64
            kernel = CaputoKernel(alpha, tau)
            ts = np.arange(40) * tau
            for j in (0, 5, 17, 38):
                got = apply_half_layer(ts[: j + 2], kernel, j)
                t_half = (j + 0.5) * tau
                want = t_half ** (1.0 - alpha) / math.gamma(2.0 - alpha)
                assert got == pytest.approx(want, rel=1e-13)

    def test_cubic_within_truncation_bound(self):
        alpha, tau, j = 0.5, 1e-3, 499
        kernel = CaputoKernel(alpha, tau)
        ts = np.arange(j + 2) * tau
        got = apply_half_layer(ts**3, kernel, j)
        want = caputo_power(3, alpha, (j + 0.5) * tau)
        bound = truncation_bound(alpha, tau, 6.0 * (j + 1) * tau)
        assert abs(got - want) <= bound

    def test_vector_levels_componentwise(self, rng):
        kernel = CaputoKernel(0.3, 0.2)
        hist = rng.standard_normal((6, 4))
        full = apply_half_layer(hist, kernel)
        for col in range(4):
            assert full[col] == pytest.approx(apply_half_layer(hist[:, col], kernel), rel=1e-14)

    def test_insufficient_history_rejected(self):
        kernel = CaputoKernel(0.5, 0.1)
        with pytest.raises(ValueError):
            apply_half_layer([1.0], kernel)
        with pytest.raises(ValueError):
            apply_half_layer([1.0, 2.0, 3.0], kernel, j=5)


class TestSplit:
    @given(
        values=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=24),
        alpha=st.floats(0.05, 0.95),
        tau=st.floats(1e-4, 1.0),
    )
    @settings(deadline=None)
    def test_identity_recomposes(self, values, alpha, tau):
        kernel = CaputoKernel(alpha, tau)
        smooth, correction = split_half_layer(values, kernel)
        direct = apply_half_layer(values, kernel)
        scale = max(abs(smooth), abs(correction), abs(direct), 1e-30)
        assert abs((smooth - correction) - direct) <= 1e-13 * scale

    def test_constant_history(self):
        kernel = CaputoKernel(0.7, 0.25)
        smooth, correction = split_half_layer(np.full(7, -4.2), kernel)
        assert smooth == 0.0
        assert correction == 0.0

    def test_linear_history_correction(self):
        alpha, tau = 0.35, 0.125
        kernel = CaputoKernel(alpha, tau)
        ts = np.arange(10) * tau
        _, correction = split_half_layer(ts, kernel, j=8)
        assert correction == pytest.approx(gamma_const(alpha) * tau ** (1.0 - alpha), rel=1e-13)


class TestCaputoPower:
    def test_linear_power(self):
        assert caputo_power(1, 0.5, 1.0) == pytest.approx(1.1283792, abs=1e-7)

    def test_vanishes_at_origin(self):
        for p in (0.6, 1.0, 3.0):
            assert caputo_power(p, 0.5, 0.0) == 0.0

    def test_against_quadrature(self):
        got = caputo_power(3, 0.3, 0.7)
        want = caputo_by_quadrature(lambda e: 3.0 * e * e, 0.3, 0.7)
        assert got == pytest.approx(want, rel=1e-10)

    def test_invalid_exponent_rejected(self):
        for p in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="exponent"):
                caputo_power(p, 0.5, 1.0)

    def test_nan_time_gives_nan(self):
        assert math.isnan(caputo_power(2.0, 0.5, math.nan))
        got = caputo_power(2.0, 0.5, np.array([math.nan, 0.0, -1.0]))
        assert math.isnan(got[0]) and got[1] == 0.0 and got[2] == 0.0


class TestTruncationBound:
    def test_zero_curvature(self):
        assert truncation_bound(0.5, 0.01, 0.0) == 0.0

    def test_closed_form_plugin(self):
        want = (2.0**0.5 * 6.0 / (4.0 * math.gamma(1.5))) * 1.25 * 0.01**1.5
        assert truncation_bound(0.5, 0.01, 6.0) == pytest.approx(want, rel=1e-14)

    def test_halving_power_law(self):
        for alpha in (0.2, 0.6, 0.9):
            b1 = truncation_bound(alpha, 0.02, 3.0)
            b2 = truncation_bound(alpha, 0.01, 3.0)
            assert b1 / b2 == pytest.approx(2.0 ** (2.0 - alpha), rel=1e-13)

    def test_invalid_arguments(self):
        for tau in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="time step"):
                truncation_bound(0.5, tau, 1.0)
        for m2 in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="second-derivative bound"):
                truncation_bound(0.5, 0.1, m2)


def _max_half_layer_error(u, exact, alpha, tau, nsteps, m2_of_t):
    """Max |discrete - exact| over all half layers, also checking the bound.

    The bound is applied with a 2x safety factor, the documented allowance
    for a possible constant-factor slack in its derivation.
    """
    kernel = CaputoKernel(alpha, tau)
    ts = np.arange(nsteps + 1) * tau
    hist = u(ts)
    worst = 0.0
    for j in range(nsteps):
        got = apply_half_layer(hist[: j + 2], kernel, j)
        want = exact((j + 0.5) * tau)
        err = abs(got - want)
        assert err <= 2.0 * truncation_bound(alpha, tau, m2_of_t((j + 1) * tau))
        worst = max(worst, err)
    return worst


class TestTruncationDecay:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_square_and_cube(self, alpha):
        cases = [
            (lambda t: t**2, lambda t: caputo_power(2, alpha, t), lambda t: 2.0),
            (lambda t: t**3, lambda t: caputo_power(3, alpha, t), lambda t: 6.0 * t),
        ]
        for u, exact, m2 in cases:
            errors = []
            for nsteps in (50, 100, 200):
                errors.append(_max_half_layer_error(u, exact, alpha, 1.0 / nsteps, nsteps, m2))
            fit = np.polyfit(np.log([1 / 50, 1 / 100, 1 / 200]), np.log(errors), 1)[0]
            assert fit >= 2.0 - alpha - 0.1

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_sine(self, alpha):
        exact = lambda t: caputo_by_quadrature(math.cos, alpha, t)
        m2 = lambda t: math.sin(min(t, math.pi / 2.0))
        errors = []
        for nsteps in (40, 80):
            errors.append(
                _max_half_layer_error(np.sin, exact, alpha, 1.0 / nsteps, nsteps, m2)
            )
        order = math.log(errors[0] / errors[1]) / math.log(2.0)
        assert order >= 2.0 - alpha - 0.1


class TestKernelObject:
    def test_weights_match_array(self):
        kernel = CaputoKernel(0.45, 0.01)
        assert np.array_equal(kernel.weights(3), l1_weight_array(3, 0.45))
        assert np.array_equal(kernel.weights(50), l1_weight_array(50, 0.45))
        assert np.array_equal(kernel.weights(3), l1_weight_array(3, 0.45))

    def test_scale_factor(self):
        kernel = CaputoKernel(0.5, 0.1)
        assert kernel.scale == pytest.approx(0.1**-0.5 / math.gamma(1.5), rel=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            CaputoKernel(1.2, 0.1)
        with pytest.raises(ValueError):
            CaputoKernel(0.5, 0.0)
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError):
                CaputoKernel(0.5, tau)
        kernel = CaputoKernel(0.5, 0.1)
        for j in (-1, -2, -5):
            with pytest.raises(ValueError):
                kernel.weights(j)


class TestExponentialTail:
    @pytest.mark.parametrize("alpha", [0.011, 0.5, 0.989])
    @pytest.mark.parametrize("nsteps", [400, 1280, 10_000, 100_000])
    def test_fit_error_is_small(self, alpha, nsteps):
        fit = KernelStack((alpha,), 1.0 / nsteps, nsteps).soe
        assert fit is not None
        assert 0.0 < fit.error <= 1e-8

    @pytest.mark.parametrize("alpha", [0.011, 0.5, 0.989])
    def test_recorded_error_is_the_measured_one(self, alpha):
        nsteps = 2000
        fit = fit_exponential_tail(alpha, nsteps)
        k = np.arange(HISTORY_WINDOW, nsteps + 1)
        want = l1_lag_weights(k, alpha)
        got = np.array([math.fsum(fit.weights * np.exp(-kk * fit.nodes)) for kk in k])
        assert np.max(np.abs(got / want - 1.0)) == pytest.approx(fit.error, rel=1e-2)

    @pytest.mark.parametrize("alpha", [0.011, 0.5, 0.989])
    def test_sampled_error_is_near_the_error_on_every_lag(self, alpha):
        # past SOE_CHECKED_LAGS the fit measures a geometric sample of the
        # lags: its error is at most the maximum over every lag, and at
        # least half of it
        nsteps = 100_000
        fit = fit_exponential_tail(alpha, nsteps)
        full = 0.0
        for lo in range(HISTORY_WINDOW, nsteps + 1, 4096):
            k = np.arange(lo, min(lo + 4096, nsteps + 1))
            got = np.exp(-np.outer(k, fit.nodes)) @ fit.weights
            full = max(full, float(np.max(np.abs(got / l1_lag_weights(k, alpha) - 1.0))))
        assert 0.5 * full <= fit.error <= full * (1.0 + 1e-6)

    @pytest.mark.parametrize("alpha", [0.011, 0.5, 0.9, 0.989])
    def test_lag_weight_oracle_keeps_its_digits(self, alpha):
        # the oracle above against 50-digit decimal arithmetic, on lags up
        # to 10^20, where the difference of powers in floats keeps none
        k = np.unique(np.rint(np.geomspace(1.0, 1e20, 200)))
        got = l1_lag_weights(k, alpha)
        for kk, g in zip(k, got):
            want = l1_lag_weight_decimal(kk, alpha)
            assert abs(float((Decimal(g) - want) / want)) <= 2e-15, kk

    @pytest.mark.parametrize("alpha", [0.011, 0.5, 0.989])
    @pytest.mark.parametrize("nsteps", [10**6, 10**9, 10**20])
    def test_recorded_error_is_the_decimal_error(self, alpha, nsteps):
        # the recorded error is within 1 % of the fit's error against exact
        # weights on 300 geometric lags, up to lags where a difference of
        # powers in floats keeps no digit
        fit = fit_exponential_tail(alpha, nsteps)
        worst = 0.0
        for k in np.unique(np.rint(np.geomspace(HISTORY_WINDOW, float(nsteps), 300))):
            got = math.fsum(fit.weights * np.exp(-k * fit.nodes))
            want = l1_lag_weight_decimal(k, alpha)
            worst = max(worst, abs(float((Decimal(got) - want) / want)))
        assert fit.error == pytest.approx(worst, rel=1e-2)

    @pytest.mark.parametrize("nsteps", [0, 1, HISTORY_WINDOW - 1])
    def test_no_tail_without_its_lags(self, nsteps):
        with pytest.raises(ValueError, match="lags from 32 on"):
            KernelStack((0.5,), 0.01, nsteps).soe

    def test_first_windowed_march(self):
        # every march from SOE_MIN_STEPS = 397 steps on stores a window of
        # increments, 410..422 among them; a shorter one stores them all
        assert history_rows(396) == 396
        for nsteps in (397, 415):
            assert history_rows(nsteps) == HISTORY_WINDOW + HISTORY_CHUNK - 1
            assert KernelStack((0.5,), 0.01, nsteps).soe.error <= 1e-8

    @pytest.mark.parametrize("nsteps", [397, 1280])
    def test_fold_is_the_power_matrix(self, nsteps):
        fit = fit_exponential_tail(0.37, nsteps)
        assert fit.fold.shape == (fit.nodes.size, HISTORY_CHUNK)
        for i in range(HISTORY_CHUNK):
            assert np.array_equal(fit.fold[:, i], np.exp(-(HISTORY_CHUNK - i) * fit.nodes))

    @pytest.mark.parametrize("nsteps", [0, 1, 5, 400])
    def test_history_weights(self, nsteps):
        alphas = (0.37, 0.81)
        kernel = KernelStack(alphas, 0.01, nsteps)
        stored = history_rows(nsteps)
        for j in range(stored + 1):
            got = kernel.history_weights(j)
            # -c_{j-s} for the increments s = 0..j-1, one row per order
            assert got.shape == (2, j)
            for row, alpha in zip(got, alphas):
                assert np.array_equal(row, -l1_weight_array(j, alpha)[:0:-1])
            assert got.size == 0 or got.strides[1] > 0
        # past the stored lags a slice would be short, so the request is refused
        for j in (-1, stored + 1):
            with pytest.raises(ValueError, match=rf"weight index must be in 0\.\.{stored}, .* got {j}"):
                kernel.history_weights(j)

    def test_stacked_fits_are_the_fits_of_each_order(self):
        alphas = (0.2, 0.9)
        stack = KernelStack(alphas, 1.0 / 1280, 1280).soe
        fits = [fit_exponential_tail(alpha, 1280) for alpha in alphas]
        for b, fit in enumerate(fits):
            for name in ("nodes", "weights", "fold"):
                assert np.array_equal(getattr(stack, name)[b], getattr(fit, name)), name
            assert np.array_equal(stack.lagged[:, b], fit.lagged)
        assert stack.error == max(fit.error for fit in fits)
