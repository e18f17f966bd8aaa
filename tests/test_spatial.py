import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallaire import Grid1D, compact_average, second_difference
from hallaire.spatial import build_load_stencil, simpson_integral


class TestSecondDifference:
    def test_linear_vanishes(self):
        x = np.linspace(0.0, 2.0, 9)
        assert np.allclose(second_difference(3.0 - 0.7 * x, 0.25), 0.0, atol=1e-13)

    def test_quadratic_gives_two(self):
        x = np.arange(11) * 0.1
        assert second_difference(x * x, 0.1) == pytest.approx([2.0] * 9, rel=1e-10)

    def test_hat(self):
        assert second_difference([0.0, 1.0, 0.0], 1.0) == pytest.approx([-2.0])

    def test_short_vector_rejected(self):
        with pytest.raises(ValueError):
            second_difference([1.0, 2.0], 0.5)


class TestCompactAverage:
    def test_constant(self):
        assert compact_average(np.full(7, 4.2)) == pytest.approx([4.2] * 5, rel=1e-15)

    def test_hat(self):
        assert compact_average([0.0, 1.0, 0.0]) == pytest.approx([10.0 / 12.0])

    def test_linearity(self, rng):
        u = rng.standard_normal(15)
        v = rng.standard_normal(15)
        got = compact_average(2.5 * u - 1.25 * v)
        want = 2.5 * compact_average(u) - 1.25 * compact_average(v)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_spectral_bounds(self, rng):
        # (2/3)||v||^2 <= h * (Hv, v) <= ||v||^2 on zero-boundary vectors
        for _ in range(200):
            n = int(rng.integers(4, 60))
            h = float(rng.uniform(0.01, 1.0))
            v = np.zeros(n + 1)
            v[1:-1] = rng.standard_normal(n - 1)
            inner = h * float(np.dot(compact_average(v), v[1:-1]))
            nsq = h * float(np.dot(v[1:-1], v[1:-1]))
            assert 2.0 / 3.0 * nsq - 1e-12 <= inner <= nsq + 1e-12


class TestCompactIdentity:
    def test_exact_on_quartic(self):
        # the mismatch term carries the sixth derivative, which vanishes here
        for n in (8, 12):
            g = Grid1D(1.0, 1.0, n, 1)
            x = g.x
            lhs = compact_average(12.0 * x * x)
            rhs = second_difference(x**4, g.h)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_quartic_on_fine_grid_rounding_scale(self):
        # the 1/h^2 amplification of rounding is the only mismatch left
        g = Grid1D(1.0, 1.0, 24, 1)
        x = g.x
        lhs = compact_average(12.0 * x * x)
        rhs = second_difference(x**4, g.h)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    def test_fourth_order_on_sine(self):
        errs = []
        hs = [1.0 / 12.0, 1.0 / 24.0, 1.0 / 48.0, 1.0 / 96.0]
        for h in hs:
            n = round(1.0 / h)
            x = np.arange(n + 1) * h
            v = np.sin(3.0 * math.pi * x)
            lhs = compact_average(-9.0 * math.pi**2 * v)
            rhs = second_difference(v, h)
            errs.append(np.max(np.abs(lhs - rhs)))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 3.9


class TestLoadStencil:
    def test_nodal_snap(self):
        g = Grid1D(1.0, 1.0, 10, 1)
        st_ = build_load_stencil(0.3, g)
        assert st_.anchor == 3
        assert np.array_equal(st_.weights, [0.0, 1.0, 0.0, 0.0])

    def test_midpoint_weights(self):
        g = Grid1D(1.0, 1.0, 8, 1)
        st_ = build_load_stencil(3.5 / 8.0, g)
        assert st_.weights == pytest.approx([-1 / 16, 9 / 16, 9 / 16, -1 / 16], rel=1e-13)

    def test_weights_sum_to_one(self, rng):
        g = Grid1D(1.0, 1.0, 24, 1)
        for _ in range(50):
            x = float(rng.uniform(2.0 * g.h, 1.0 - 2.0 * g.h))
            st_ = build_load_stencil(x, g)
            assert np.sum(st_.weights) == pytest.approx(1.0, rel=1e-13)

    def test_cubic_reproduction_at_benchmark_point(self):
        g = Grid1D(1.0, 1.0, 24, 1)
        st_ = build_load_stencil(0.2, g)
        assert st_.weights @ (g.x**3)[st_.nodes] == pytest.approx(0.008, abs=1e-14)

    @given(pos=st.floats(0.1, 0.9))
    @settings(deadline=None, max_examples=60)
    def test_reproduces_cubics(self, pos):
        g = Grid1D(1.0, 1.0, 16, 1)
        st_ = build_load_stencil(pos, g)
        for coeffs in ((1.0, 0.0, 0.0, 0.0), (0.3, -2.0, 1.5, 0.25)):
            poly = np.polynomial.Polynomial(coeffs)
            assert st_.weights @ poly(g.x)[st_.nodes] == pytest.approx(poly(pos), rel=1e-13, abs=1e-13)

    def test_boundary_window_allowed_on_coarse_grid(self):
        # x = 0.2 on six intervals anchors at node 1; the window reaches node 0
        g = Grid1D(1.0, 1.0, 6, 1)
        st_ = build_load_stencil(0.2, g)
        assert st_.anchor == 1
        assert st_.nodes[0] == 0
        assert st_.weights @ (g.x**2)[st_.nodes] == pytest.approx(0.04, abs=1e-14)

    def test_too_close_to_boundary_rejected(self):
        g = Grid1D(1.0, 1.0, 10, 1)
        with pytest.raises(ValueError):
            build_load_stencil(0.04, g)
        with pytest.raises(ValueError):
            build_load_stencil(0.96, g)

    def test_outside_domain_rejected(self):
        g = Grid1D(1.0, 1.0, 10, 1)
        for pos in (-0.1, 0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                build_load_stencil(pos, g)


class TestEvaluateLoad:
    """The interpolated value ``weights @ v[nodes]`` of a load stencil."""

    def test_constant(self):
        g = Grid1D(1.0, 1.0, 12, 1)
        st_ = build_load_stencil(0.37, g)
        assert st_.weights @ np.full(13, 2.5)[st_.nodes] == pytest.approx(2.5, rel=1e-14)

    def test_quadratic(self):
        g = Grid1D(1.0, 1.0, 12, 1)
        st_ = build_load_stencil(0.37, g)
        assert st_.weights @ (g.x**2)[st_.nodes] == pytest.approx(0.37**2, abs=1e-14)

    def test_sine_fourth_order(self):
        g = Grid1D(1.0, 1.0, 24, 1)
        st_ = build_load_stencil(0.5, g)
        got = st_.weights @ np.sin(3.0 * math.pi * g.x)[st_.nodes]
        assert abs(got - (-1.0)) <= 10.0 * g.h**4


class TestSimpson:
    def test_exact_on_quadratic(self):
        x = np.linspace(0.0, 1.0, 5)
        assert simpson_integral(x * x, 0.25) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_constant(self):
        assert simpson_integral(np.ones(9), 0.25) == pytest.approx(2.0, rel=1e-15)

    def test_sine(self):
        x = np.linspace(0.0, 1.0, 9)
        got = simpson_integral(np.sin(math.pi * x), 0.125)
        assert got == pytest.approx(2.0 / math.pi, abs=1e-4)

    def test_odd_interval_count_rejected(self):
        with pytest.raises(ValueError):
            simpson_integral(np.ones(4), 0.25)
