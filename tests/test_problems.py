import math

import numpy as np
import pytest
from scipy.integrate import quad

from hallaire import (
    PointLoad,
    ProblemSpec,
    benchmark_problem,
    caputo_power,
    make_problem,
    manufactured_problem,
)
from hallaire.problems import integral_benchmark_problem
from oracles import caputo_by_quadrature


def _benchmark_terms(alpha):
    return ((1.0, 3.0), (1.0, 2.0 + alpha))


def residual_at(problem, terms, mode, x, t):
    """PDE residual assembled from scratch: closed-form time derivative plus
    analytic spatial derivatives of the separable exact solution."""
    k = mode * math.pi
    s = math.sin(k * x)
    big_t = 1.0 + sum(a * t**p for a, p in terms)
    d_t = sum(a * p * t ** (p - 1.0) for a, p in terms)
    cap_t = sum(a * caputo_power(p, problem.alpha, t) for a, p in terms)
    u_xx = -k * k * big_t * s
    u_xxt = -k * k * d_t * s
    loaded = sum(
        float(ld.coefficient(np.asarray(x, dtype=float), t)) * big_t * math.sin(k * ld.position)
        for ld in problem.loads
    )
    if problem.integral_load is not None:
        q = problem.integral_load
        integrand = lambda xx: float(q(np.asarray(xx, dtype=float), t)) * big_t * math.sin(k * xx)
        loaded += quad(integrand, 0.0, problem.length, limit=200)[0]
    f = float(problem.forcing(np.asarray(x, dtype=float), t))
    return cap_t * s - u_xx - problem.mu * u_xxt - loaded - f


class TestBenchmark:
    def test_initial_profile(self):
        p = benchmark_problem(0.5)
        x = np.linspace(0.0, 1.0, 33)
        assert np.allclose(p.exact(x, 0.0), np.sin(3.0 * math.pi * x), atol=1e-14)
        assert np.allclose(p.initial(x), np.sin(3.0 * math.pi * x), atol=1e-14)

    def test_boundary_compatibility(self):
        p = benchmark_problem(0.3)
        for t in (0.0, 0.25, 1.0):
            assert abs(float(p.exact(0.0, t))) <= 1e-12
            assert abs(float(p.exact(1.0, t))) <= 1e-12

    def test_forcing_value_cross_checked(self):
        # reassemble the forcing at one point from its independent pieces
        alpha, x, t = 0.5, 0.5, 1.0
        p = benchmark_problem(alpha)
        k = 3.0 * math.pi
        cap_t = caputo_power(3, alpha, t) + caputo_power(2.0 + alpha, alpha, t)
        big_t = t**3 + t ** (2.0 + alpha) + 1.0
        d_t = 3.0 * t**2 + (2.0 + alpha) * t ** (1.0 + alpha)
        s = math.sin(k * x)
        loads = big_t * (
            math.exp(x + t) * math.sin(k * 0.2)
            + math.sin(x + t) * math.sin(k * 0.5)
            + math.cos(x + t) * math.sin(k * 0.8)
        )
        want = cap_t * s + k * k * (big_t + d_t) * s - loads
        assert float(p.forcing(np.asarray(x), t)) == pytest.approx(want, rel=1e-12)

    def test_time_derivative_against_quadrature(self):
        # spot-check the closed-form fractional derivative of the time factor
        alpha = 0.4
        terms = _benchmark_terms(alpha)
        du = lambda e: 3.0 * e**2 + (2.0 + alpha) * e ** (1.0 + alpha)
        for t in (0.3, 0.8):
            want = caputo_by_quadrature(du, alpha, t)
            got = sum(a * caputo_power(p, alpha, t) for a, p in terms)
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_residual_vanishes(self, alpha, rng):
        p = benchmark_problem(alpha)
        terms = _benchmark_terms(alpha)
        for _ in range(100):
            x = float(rng.uniform(0.0, 1.0))
            t = float(rng.uniform(0.0, 1.0))
            assert abs(residual_at(p, terms, 3, x, t)) <= 1e-10

    def test_load_coefficients_bounded(self):
        p = benchmark_problem(0.5)
        x = np.linspace(0.0, 1.0, 101)
        for ld in p.loads:
            for t in np.linspace(0.0, 1.0, 11):
                assert np.max(np.abs(ld.coefficient(x, float(t)))) <= math.e**2 * (1.0 + 1e-12)


class TestIntegralVariant:
    def test_residual_vanishes(self, rng):
        p = integral_benchmark_problem(0.5)
        for _ in range(40):
            x = float(rng.uniform(0.0, 1.0))
            t = float(rng.uniform(0.0, 1.0))
            assert abs(residual_at(p, _benchmark_terms(0.5), 3, x, t)) <= 1e-10

    def test_has_no_point_loads(self):
        p = integral_benchmark_problem(0.5)
        assert p.loads == ()
        assert p.integral_load is not None


class TestManufactured:
    def test_specializes_to_benchmark(self, rng):
        alpha = 0.5
        bench = benchmark_problem(alpha)
        rebuilt = manufactured_problem(
            3, _benchmark_terms(alpha), alpha, mu=1.0, loads=bench.loads
        )
        x = rng.uniform(0.0, 1.0, size=20)
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(rebuilt.forcing(x, t), bench.forcing(x, t), rtol=1e-14)
            assert np.allclose(rebuilt.exact(x, t), bench.exact(x, t), rtol=1e-14)

    def test_constant_in_time(self, rng):
        # no time terms: the fractional derivative drops out entirely
        p = manufactured_problem(2, (), 0.3, mu=2.0)
        x = rng.uniform(0.0, 1.0, size=16)
        k = 2.0 * math.pi
        for t in (0.1, 0.9):
            want = k * k * np.sin(k * x)
            assert np.allclose(p.forcing(x, t), want, rtol=1e-13)
        for _ in range(30):
            xx = float(rng.uniform(0.0, 1.0))
            tt = float(rng.uniform(0.0, 1.0))
            assert abs(residual_at(p, (), 2, xx, tt)) <= 1e-10

    def test_shallow_exponents_rejected(self):
        bad_terms = (
            (1.0, 1.0), (1.0, 0.5), (1.0, math.nan), (1.0, math.inf), (math.nan, 2.0), (math.inf, 2.0)
        )
        for a, p in bad_terms:
            with pytest.raises(ValueError, match="time terms"):
                manufactured_problem(3, ((a, p),), 0.5)

    def test_invalid_mode_rejected(self):
        for mode in (0, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="mode"):
                manufactured_problem(mode, ((1.0, 2.0),), 0.5)

    def test_bad_length_rejected_before_use(self):
        for length in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="length"):
                manufactured_problem(3, ((1.0, 2.0),), 0.5, length=length)


class TestProblemSpec:
    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            manufactured_problem(1, ((1.0, 2.0),), 0.5, mu=0.0)

    @pytest.mark.parametrize(
        "length, final_time, mu",
        [(1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (math.inf, 1.0, 1.0),
         (1.0, math.inf, 1.0), (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0)],
    )
    def test_non_finite_values_rejected(self, length, final_time, mu):
        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        with pytest.raises(ValueError):
            ProblemSpec(length, final_time, 0.5, mu, (), zero, lambda x: np.zeros_like(x))

    def test_load_ordering_enforced(self):
        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        loads = (PointLoad(0.5, zero), PointLoad(0.2, zero))
        with pytest.raises(ValueError):
            ProblemSpec(1.0, 1.0, 0.5, 1.0, loads, zero, lambda x: np.zeros_like(x))

    def test_load_inside_domain_enforced(self):
        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        with pytest.raises(ValueError):
            ProblemSpec(1.0, 1.0, 0.5, 1.0, (PointLoad(1.0, zero),), zero, lambda x: x)

    def test_registry_lookup(self):
        assert make_problem("benchmark", 0.5).loads[0].position == 0.2
        with pytest.raises(ValueError):
            make_problem("nope", 0.5)
