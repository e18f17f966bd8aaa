import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallaire import Grid1D, convergence_order, norm_grad_forward, norm_l2, norm_max


class TestGrid:
    def test_basic_spacing(self):
        g = Grid1D(1.0, 1.0, 4, 10)
        assert g.h == 0.25
        assert g.tau == 0.1

    def test_too_few_intervals_rejected(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 1.0, 3, 1)

    def test_nonpositive_extents_rejected(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 4, 1)
        with pytest.raises(ValueError):
            Grid1D(1.0, -1.0, 4, 1)
        with pytest.raises(ValueError):
            Grid1D(1.0, 1.0, 4, 0)

    @pytest.mark.parametrize(
        "args",
        [
            (math.inf, 1.0, 4, 1),
            (1.0, math.nan, 4, 1),
            (1.0, 1.0, math.inf, 1),
            (1.0, 1.0, math.nan, 1),
            (1.0, 1.0, 12.5, 4),
            (1.0, 1.0, "12", 4),
            (1.0, 1.0, None, 4),
            (1.0, 1.0, 12, -math.inf),
        ],
    )
    def test_non_finite_or_non_integral_rejected(self, args):
        with pytest.raises(ValueError):
            Grid1D(*args)

    def test_integral_float_counts_stored_as_int(self):
        g = Grid1D(1, 1, 12.0, 4.0)
        assert type(g.nx) is int and type(g.nt) is int
        assert (g.nx, g.nt) == (12, 4)
        assert g.x.shape == (13,)

    def test_node_formula(self):
        g = Grid1D(2.0, 1.0, 8, 100)
        assert g.x[5] == pytest.approx(1.25, abs=0)
        assert g.t[50] == pytest.approx(0.5, abs=0)

    def test_spacing_invariants(self):
        g = Grid1D(1.7, 0.3, 7, 13)
        assert g.h * g.nx == pytest.approx(g.length, rel=1e-15)
        assert g.tau * g.nt == pytest.approx(g.final_time, rel=1e-15)
        assert g.x.shape == (8,)
        assert g.t.shape == (14,)


class TestNormL2:
    def test_constant_vector(self):
        assert norm_l2([1.0, 1.0, 1.0], 0.25) == pytest.approx(math.sqrt(0.75))

    def test_zero_vector(self):
        assert norm_l2(np.zeros(5), 0.1) == 0.0

    def test_pythagorean(self):
        assert norm_l2([3.0, 4.0], 1.0) == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            norm_l2([], 0.1)

    @given(
        v=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        c=st.floats(-1e3, 1e3),
        h=st.floats(1e-3, 10.0),
    )
    @settings(deadline=None)
    def test_absolutely_homogeneous(self, v, c, h):
        v = np.asarray(v)
        assert norm_l2(c * v, h) == pytest.approx(abs(c) * norm_l2(v, h), rel=1e-12, abs=1e-12)

    @given(
        uv=st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
            min_size=1,
            max_size=40,
        ),
        h=st.floats(1e-3, 10.0),
    )
    @settings(deadline=None)
    def test_triangle_inequality(self, uv, h):
        u = np.asarray([p[0] for p in uv])
        v = np.asarray([p[1] for p in uv])
        lhs = norm_l2(u + v, h)
        rhs = norm_l2(u, h) + norm_l2(v, h)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


class TestNormMax:
    def test_signed_entries(self):
        assert norm_max(np.array([-2.0, 1.0, 0.0])) == 2.0

    def test_zero(self):
        assert norm_max(np.zeros((3, 4))) == 0.0

    def test_single_entry_array(self):
        assert norm_max(np.array([[7.5]])) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            norm_max(np.array([]))


class TestNormGrad:
    def test_hat_vector(self):
        # the first interval is skipped, so the hat sits one node in
        assert norm_grad_forward([0.0, 0.0, 1.0, 0.0], 0.5) == pytest.approx(2.0)

    def test_zero(self):
        assert norm_grad_forward(np.zeros(6), 0.2) == 0.0

    def test_unit_slopes(self):
        h = 0.25
        v = [0.0, 0.0, h, 2 * h, h, 0.0]
        assert norm_grad_forward(v, h) == pytest.approx(1.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            norm_grad_forward([1.0, 2.0], 0.5)

    def test_forward_variant_skips_first_interval(self, rng):
        v = rng.standard_normal(12)
        h = 0.125
        full = h * sum(((b - a) / h) ** 2 for a, b in zip(v, v[1:]))
        skipped = norm_grad_forward(v, h) ** 2
        first = h * ((v[1] - v[0]) / h) ** 2
        assert full == pytest.approx(skipped + first, rel=1e-12)


class TestConvergenceOrder:
    def test_exact_power_of_two(self):
        assert convergence_order(1.6e-3, 1e-4, 2.0) == pytest.approx(4.0)

    def test_reference_pair(self):
        # coarse-to-fine pair from the bundled spatial reference table
        assert convergence_order(9.757379e-2, 8.070053e-3, 2.0) == pytest.approx(3.5958, abs=5e-4)

    def test_equal_errors(self):
        assert convergence_order(0.37, 0.37, 2.0) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            convergence_order(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            convergence_order(1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            convergence_order(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="e1 = nan"):
            convergence_order(math.nan, 1.0, 2.0)
        with pytest.raises(ValueError, match="e1 = inf"):
            convergence_order(math.inf, 1.0, 2.0)
        with pytest.raises(ValueError, match="e2 = inf"):
            convergence_order(1.0, math.inf, 2.0)
        with pytest.raises(ValueError, match="ratio = nan"):
            convergence_order(1.0, 0.5, math.nan)

    @given(
        e=st.floats(1e-12, 1e6),
        p=st.floats(-5.0, 12.0),
        r=st.floats(1.1, 16.0),
    )
    @settings(deadline=None)
    def test_recovers_any_order(self, e, p, r):
        assert convergence_order(e, e / r**p, r) == pytest.approx(p, rel=1e-9, abs=1e-9)
