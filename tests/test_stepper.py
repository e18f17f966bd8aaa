import dataclasses
import hashlib
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hallaire import (
    Grid1D,
    PointLoad,
    ProblemSpec,
    Tridiagonal,
    benchmark_problem,
    compact_average,
    make_problem,
    manufactured_problem,
    solve,
)
import hallaire.stepper as stepper_mod
from hallaire.caputo import SOE_MIN_STEPS, CaputoKernel, HistoryModes, KernelStack, history_rows, l1_weight_array
from hallaire.problems import integral_benchmark_problem
from hallaire.stepper import (
    BLOCK,
    LOAD_BLOCK,
    SolverState,
    _history_sum,
    assemble_load_columns,
    assemble_rhs,
    assemble_tridiagonal,
    stability_step_limit,
    step,
    thomas_factor,
    thomas_solve,
    woodbury_solve,
)
import oracles
from oracles import dense_march, full_interpolation_row


def _zeros_problem(alpha=0.5, mu=1.0, forcing=None, initial=None):
    zero_xt = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    zero_x = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return ProblemSpec(
        length=1.0,
        final_time=1.0,
        alpha=alpha,
        mu=mu,
        loads=(),
        forcing=forcing or zero_xt,
        initial=initial or zero_x,
    )


def _next_rhs(state):
    """The right-hand side of the state's next step, from the samples at its half layer."""
    parts = assemble_load_columns(state, np.array([(state.j + 0.5) * state.grid.tau]))
    return assemble_rhs(state, [part[0] for part in parts])


def _sides_at(state, t):
    """The load columns U (B x n x m) and rows W^T (B x m x n) of the state's batch at the one half layer ``t``."""
    columns, rows, _, _ = assemble_load_columns(state, np.array([t]))
    return columns[0], rows[0]


def _close(tri, columns, rows, b):
    """The march's close of (T + U W^T) x = b, with the row solves and the
    inverted capacitance a load block would hold for it; the rows are solved
    against T's transpose, which is T itself for the march's symmetric cores."""
    transpose = thomas_factor(Tridiagonal(tri.upper, tri.diag, tri.lower))
    row_solves = thomas_solve(transpose, np.reshape(rows, (-1, tri.n)))
    inverse = np.linalg.inv(np.eye(len(row_solves)) + row_solves @ columns)
    return woodbury_solve(thomas_factor(tri), columns, row_solves, inverse, b)


def _dense_from(tri, columns, rows):
    n = tri.n
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = tri.diag
    a[idx[:-1], idx[:-1] + 1] = tri.upper
    a[idx[1:], idx[1:] - 1] = tri.lower
    return a + np.asarray(columns) @ np.reshape(rows, (-1, n))


POSITIONS = (0.21, 0.43, 0.67, 0.79)
COEFFS = (
    lambda x, t: np.exp(0.5 * np.asarray(x, dtype=float) - t),
    lambda x, t: np.sin(2.0 * np.asarray(x, dtype=float) + t),
    lambda x, t: 1.0 + 0.5 * np.cos(t) * np.asarray(x, dtype=float),
    lambda x, t: np.cos(np.asarray(x, dtype=float) * t),
)


def _loaded_problem(alpha, load_indices, distributed, mode=3):
    """Manufactured problem with the chosen point loads and, optionally, the
    distributed load q = e^{x+t}."""
    loads = tuple(PointLoad(POSITIONS[i], COEFFS[i]) for i in load_indices)
    integral_load = None
    if distributed:
        k = mode * math.pi
        # integral of e^x sin(k x) over [0, 1]
        profile_integral = (k - math.e * k * (-1) ** mode) / (1.0 + k * k)
        integral_load = (
            lambda x, t: np.exp(np.asarray(x, dtype=float) + t),
            lambda t: math.exp(t) * profile_integral,
        )
    return manufactured_problem(
        mode, ((1.0, 3.0), (1.0, 2.0 + alpha)), alpha, loads=loads, integral_load=integral_load
    )


def _random_dominant(rng, n):
    lower = rng.uniform(-1.0, 1.0, size=n - 1)
    upper = rng.uniform(-1.0, 1.0, size=n - 1)
    diag = np.zeros(n)
    diag[0] = abs(upper[0]) + rng.uniform(0.5, 2.0)
    diag[-1] = abs(lower[-1]) + rng.uniform(0.5, 2.0)
    for i in range(1, n - 1):
        diag[i] = abs(lower[i - 1]) + abs(upper[i]) + rng.uniform(0.5, 2.0)
    sign = rng.choice([-1.0, 1.0], size=n)
    return Tridiagonal(lower, diag * sign, upper)


class TestAssembleTridiagonal:
    def test_hand_assembled_row(self):
        g = Grid1D(1.0, 1.0, 4, 10)
        tri = assemble_tridiagonal(g, 0.5, 1.0)
        beta_c0 = 0.1**-0.5 / math.gamma(1.5) * 2.0**-0.5
        want_diag = beta_c0 * 10.0 / 12.0 + 10.5 * 32.0
        want_off = beta_c0 / 12.0 - 10.5 * 16.0
        assert tri.diag == pytest.approx([want_diag] * 3, rel=1e-14)
        assert tri.upper == pytest.approx([want_off] * 2, rel=1e-14)
        assert tri.lower == pytest.approx([want_off] * 2, rel=1e-14)

    def test_diagonally_dominant(self, rng):
        for _ in range(50):
            g = Grid1D(
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.5, 2.0)),
                int(rng.integers(4, 40)),
                int(rng.integers(1, 300)),
            )
            tri = assemble_tridiagonal(g, float(rng.uniform(0.02, 0.98)), float(10 ** rng.uniform(-6, 2)))
            interior = np.abs(tri.diag[1:-1]) - np.abs(tri.lower[:-1]) - np.abs(tri.upper[1:])
            assert np.all(interior > 0.0)
            # symmetric: the load rows are solved with the factor of T, not of T^T
            assert np.array_equal(tri.lower, tri.upper)

    def test_large_mu_limit(self):
        g = Grid1D(1.0, 1.0, 8, 4)
        tri = assemble_tridiagonal(g, 0.5, 1e9)
        assert tri.upper[0] / tri.diag[0] == pytest.approx(-0.5, abs=1e-6)

    def test_invalid_parameters(self):
        g = Grid1D(1.0, 1.0, 8, 4)
        with pytest.raises(ValueError):
            assemble_tridiagonal(g, 0.5, 0.0)
        with pytest.raises(ValueError):
            assemble_tridiagonal(g, 1.5, 1.0)


class TestThomas:
    def test_identity(self):
        tri = Tridiagonal(np.zeros(4), np.ones(5), np.zeros(4))
        b = np.arange(5.0)
        assert np.array_equal(thomas_solve(thomas_factor(tri), b), b)

    def test_round_trip(self, rng):
        tri = _random_dominant(rng, 9)
        ones = np.ones(9)
        b = _dense_from(tri, np.zeros((9, 0)), []) @ ones
        assert thomas_solve(thomas_factor(tri), b) == pytest.approx(ones, rel=1e-12)

    def test_matches_dense_lu(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 12))
            tri = _random_dominant(rng, n)
            b = rng.standard_normal(n)
            got = thomas_solve(thomas_factor(tri), b)
            want = np.linalg.solve(_dense_from(tri, np.zeros((n, 0)), []), b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_zero_pivot_detected(self):
        tri = Tridiagonal(np.zeros(2), np.array([0.0, 1.0, 1.0]), np.zeros(2))
        with pytest.raises(np.linalg.LinAlgError):
            thomas_factor(tri)

    def test_length_mismatch(self):
        tri = Tridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
        with pytest.raises(ValueError):
            thomas_solve(thomas_factor(tri), np.ones(4))

    def test_factor_reused(self, rng):
        # a solve leaves its factor as it found it
        tri = _random_dominant(rng, 11)
        factor = thomas_factor(tri)
        for _ in range(3):
            b = rng.standard_normal(11)
            assert np.array_equal(thomas_solve(factor, b), thomas_solve(thomas_factor(tri), b))

    @given(
        n=st.one_of(
            st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK, 6 * BLOCK]),
            st.integers(1, 200),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=BLOCK - 1, seed=1)
    @example(n=BLOCK, seed=2)
    @example(n=BLOCK + 1, seed=3)
    @example(n=4 * BLOCK, seed=4)
    @settings(deadline=None, max_examples=60)
    def test_blocked_sweep_matches_dense_lu(self, n, seed):
        # strictly diagonally dominant, non-symmetric, rows of either sign
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1.0, 1.0, size=n - 1)
        upper = rng.uniform(-1.0, 1.0, size=n - 1)
        diag = rng.uniform(0.1, 2.0, size=n)
        diag[1:] += np.abs(lower)
        diag[:-1] += np.abs(upper)
        diag *= rng.choice([-1.0, 1.0], size=n)
        tri = Tridiagonal(lower, diag, upper)
        dense = _dense_from(tri, np.zeros((n, 0)), [])
        b = rng.standard_normal(n)
        got = thomas_solve(thomas_factor(tri), b)
        want = np.linalg.solve(dense, b)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "nx, nt, alpha",
        [
            (1000, 10, 0.1),
            (1000, 160, 0.1),
            (1000, 10, 0.9),
            (1000, 160, 0.9),
            (1000, 1280, 0.9),
            (24, 10000, 0.5),
            (2000, 5120, 0.9),
        ],
    )
    def test_benchmark_operators_match_banded_lapack(self, rng, nx, nt, alpha):
        # the real cores of the wide, deep and long benchmark solves against
        # LAPACK's banded solver; the last is the nx cross-check grid of the
        # deep acceptance gate, 63 blocks whose carry gains are near 1
        solve_banded = pytest.importorskip("scipy.linalg").solve_banded
        tri = assemble_tridiagonal(Grid1D(1.0, 1.0, nx, nt), alpha, benchmark_problem(alpha).mu)
        bands = np.zeros((3, tri.n))
        bands[0, 1:] = tri.upper
        bands[1] = tri.diag
        bands[2, :-1] = tri.lower
        factor = thomas_factor(tri)
        for b in (rng.standard_normal(tri.n), np.ones(tri.n), np.sin(np.linspace(0.0, 9.0, tri.n))):
            want = solve_banded((1, 1), bands, b)
            got = thomas_solve(factor, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _carry_gains(tri, s):
    """Forward and backward carry gains of each block of s rows, from the
    pivots and multipliers of a plain Thomas elimination.

    Block k's last forward unknown takes the carry from block k - 1 times
    -l_k (L_k^{-1})[s-1, 0]; its first solution entry takes the carry from
    block k + 1 times -c_k (U_k^{-1})[0, s-1], where l_k is the sub-diagonal
    entry entering the block and c_k the multiplier leaving it.
    """
    n = tri.n
    piv, mult = [float(tri.diag[0])], []
    for i in range(1, n):
        mult.append(float(tri.upper[i - 1]) / piv[-1])
        piv.append(float(tri.diag[i]) - float(tri.lower[i - 1]) * mult[-1])
    mult.append(0.0)
    k = -(-n // s)
    gain, back = [0.0] * k, [0.0] * k
    for b in range(k):
        rows = range(b * s, min((b + 1) * s, n))
        if b > 0 and len(rows) == s:
            last = 1.0 / piv[rows[0]]
            for i in rows[1:]:
                last = -float(tri.lower[i - 1]) * last / piv[i]
            gain[b] = -float(tri.lower[rows[0] - 1]) * last
        if b < k - 1:
            first = 1.0
            for i in rows[:-1]:
                first = -mult[i] * first
            back[b] = -mult[rows[-1]] * first
    return gain, back


def _carry_chains(gain, back, ends, first):
    """The carries of the blocked sweep, chained block by block."""
    k = len(gain)
    left, carry = [0.0] * k, 0.0
    for i in range(k):
        left[i] = carry
        carry = ends[i] + gain[i] * carry
    right, carry = [0.0] * k, 0.0
    for i in range(k - 1, -1, -1):
        right[i] = carry
        carry = first[i] + back[i] * carry
    return np.array(left), np.array(right)


class TestCarryMaps:
    @given(
        blocks=st.integers(1, 70),
        tail=st.integers(1, BLOCK),
        near_laplacian=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(blocks=63, tail=BLOCK - 2, near_laplacian=True, seed=5)
    @settings(deadline=None, max_examples=40)
    def test_maps_are_the_sequential_carry_recurrence(self, blocks, tail, near_laplacian, seed):
        # random dominant non-symmetric cores, and cores near the Laplacian,
        # whose carry gains are near 1 and whose products decay slowly
        rng = np.random.default_rng(seed)
        n = (blocks - 1) * BLOCK + tail
        lower = rng.uniform(-1.0, 1.0, size=n - 1)
        upper = rng.uniform(-1.0, 1.0, size=n - 1)
        if near_laplacian:
            lower = -1.0 + 1e-3 * lower
            upper = -1.0 + 1e-3 * upper
        diag = 10.0 ** rng.uniform(-6.0, 0.0, size=n)
        diag[1:] += np.abs(lower)
        diag[:-1] += np.abs(upper)
        if not near_laplacian:
            diag *= rng.choice([-1.0, 1.0], size=n)
        tri = Tridiagonal(lower, diag, upper)
        factor = thomas_factor(tri)
        assert factor.left.shape == factor.right.shape == (blocks, blocks)
        # the one-link products are the blocks' gains, as a plain elimination gives them
        gain, back = _carry_gains(tri, min(n, BLOCK))
        links = np.arange(1, blocks - 1)
        assert factor.left[links + 1, links - 1] == pytest.approx(gain[1:-1], rel=1e-14, abs=1e-300)
        assert factor.right[links - 1, links + 1] == pytest.approx(back[1:-1], rel=1e-14, abs=1e-300)
        gain, back = np.zeros(blocks), np.zeros(blocks)
        gain[links] = factor.left[links + 1, links - 1]
        back[links] = factor.right[links - 1, links + 1]
        # every column, the response to one block's carry, and a random mix,
        # against the carries chained block by block with those gains
        for ends, first in [*zip(np.eye(blocks), np.eye(blocks)), rng.standard_normal((2, blocks))]:
            left, right = _carry_chains(gain, back, ends, first)
            for maps, carried, want in ((factor.left, ends, left), (factor.right, first, right)):
                scale = np.abs(maps) @ np.abs(carried)
                assert np.all(np.abs(maps @ carried - want) <= 1e-14 * scale)

    def test_stacked_factor_solves_each_member_alone(self, rng):
        # a stack of cores is factored and solved as one; each member's
        # solution equals its own factor's bit for bit, and right-hand sides
        # with more leading axes broadcast against the stack
        n = 3 * BLOCK + 5
        cores = [_random_dominant(rng, n) for _ in range(3)]
        stacked = thomas_factor(Tridiagonal(*(np.stack([getattr(c, side) for c in cores]) for side in ("lower", "diag", "upper"))))
        b = rng.standard_normal((4, 3, n))
        got = thomas_solve(stacked, b)
        assert got.shape == (4, 3, n)
        for k, core in enumerate(cores):
            alone = thomas_factor(core)
            for i in range(4):
                assert np.array_equal(got[i, k], thomas_solve(alone, b[i, k]))


class TestWoodbury:
    def test_rank_zero_reduces_to_thomas(self, rng):
        factor = thomas_factor(_random_dominant(rng, 7))
        b = rng.standard_normal(7)
        got = woodbury_solve(factor, np.zeros((7, 0)), np.zeros((0, 7)), np.zeros((0, 0)), b)
        assert np.array_equal(got, thomas_solve(factor, b))

    def test_rank_one_matches_dense(self, rng):
        n = 7  # interior size of an 8-interval grid
        tri = _random_dominant(rng, n)
        col = rng.standard_normal((n, 1))
        row = np.zeros((1, n))
        row[0, 2:6] = rng.standard_normal(4)
        b = rng.standard_normal(n)
        got = _close(tri, col, row, b)
        want = np.linalg.solve(_dense_from(tri, col, row), b)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_benchmark_configuration_matches_dense(self):
        # the first step's close, on the load block the march builds for it
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 12, 8)
        tri = assemble_tridiagonal(g, p.alpha, p.mu)
        state = SolverState(p, g)
        block = stepper_mod._load_block(state, 0)
        b = _next_rhs(state)
        got = woodbury_solve(state.factor, block.columns[0], block.row_solves[0], block.inverses[0], b)[0]
        want = np.linalg.solve(_dense_from(tri, block.columns[0, 0], block.rows[0, 0]), b[0])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-11 * scale

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_non_symmetric_core_matches_dense(self, rng, m):
        # closed from the rows solved against the transpose of the core
        n = 9
        tri = _random_dominant(rng, n)
        columns = rng.standard_normal((n, m))
        rows = np.zeros((m, n))
        for k in range(m):
            rows[k, k : k + 4] = rng.standard_normal(4)
        b = rng.standard_normal(n)
        got = _close(tri, columns, rows, b)
        want = np.linalg.solve(_dense_from(tri, columns, rows), b)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_factor_of_a_non_symmetric_core(self, rng):
        # the oracle's general solve: a ThomasFactor in place of T is the same
        # solve, bit for bit, and the march's close agrees with it
        n, m = 11, 2
        tri = _random_dominant(rng, n)
        columns = rng.standard_normal((n, m))
        rows = np.zeros((m, n))
        for k in range(m):
            rows[k, 2 * k : 2 * k + 4] = rng.standard_normal(4)
        b = rng.standard_normal(n)
        got = oracles.woodbury_solve(thomas_factor(tri), columns, rows, b)
        assert np.array_equal(got, oracles.woodbury_solve(tri, columns, rows, b))
        want = np.linalg.solve(_dense_from(tri, columns, rows), b)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)
        assert _close(tri, columns, rows, b) == pytest.approx(got, rel=1e-11, abs=1e-11)

    def test_load_row_solves_are_solves_against_the_transpose(self):
        # SolverState solves W with the factor of T; for the symmetric core
        # that is T^{-T} W, the row side of the capacitance
        p = _loaded_problem(0.6, (0, 1, 3), False)
        grid = Grid1D(1.0, 1.0, 16, 4)
        state = SolverState(p, grid)
        dense = _dense_from(assemble_tridiagonal(grid, p.alpha, p.mu), np.zeros((15, 0)), [])
        assert state.row_solves.shape == (1, 3, 15)
        for row, solved in zip(state.point_rows, state.row_solves[0]):
            want = np.linalg.solve(dense.T, row)
            assert np.max(np.abs(solved - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(1, 8), (1, 6), (7,), (1, 1, 7)])
    def test_load_rows_of_the_wrong_shape_are_refused(self, rng, shape):
        # the oracle's general solve refuses a row that does not cover every
        # unknown exactly once, or is not one of an (m, n) stack
        tri = _random_dominant(rng, 7)
        with pytest.raises(ValueError, match=rf"load rows have shape {re.escape(str(shape))}, expected \(m, 7\)"):
            oracles.woodbury_solve(tri, np.ones((7, 1)), np.ones(shape), np.ones(7))

    @pytest.mark.parametrize("shape", [(8, 1), (6, 1), (7, 2), (7,)])
    def test_load_columns_of_the_wrong_shape_are_refused(self, rng, shape):
        tri = _random_dominant(rng, 7)
        row = np.zeros((1, 7))
        row[0, 2:4] = 1.0
        with pytest.raises(ValueError, match=rf"load columns have shape {re.escape(str(shape))}, expected \(7, 1\)"):
            oracles.woodbury_solve(tri, np.ones(shape), row, np.ones(7))

    def test_singular_capacitance_is_refused(self):
        tri = Tridiagonal(np.zeros(3), np.ones(4), np.zeros(3))
        w = np.array([1.0, 2.0])
        row = np.zeros((1, 4))
        row[0, 1:3] = w
        col = np.zeros((4, 1))
        col[[1, 2], 0] = -w / np.dot(w, w)  # makes 1 + w.(T^-1 u) = 0
        with pytest.raises(np.linalg.LinAlgError, match=r"singular capacitance matrix for the 1 load row"):
            oracles.woodbury_solve(tri, col, row, np.ones(4))


class TestLoadColumns:
    def test_zero_coefficient(self):
        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        p = _zeros_problem()
        p = ProblemSpec(1.0, 1.0, 0.5, 1.0, (PointLoad(0.4, zero),), p.forcing, p.initial)
        g = Grid1D(1.0, 1.0, 10, 4)
        columns, rows = _sides_at(SolverState(p, g), 0.1)
        assert np.array_equal(columns, np.zeros((1, 9, 1)))
        assert rows.shape == (1, 1, 9)

    def test_unit_coefficient(self):
        one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
        base = _zeros_problem()
        p = ProblemSpec(1.0, 1.0, 0.5, 1.0, (PointLoad(0.4, one),), base.forcing, base.initial)
        g = Grid1D(1.0, 1.0, 10, 4)
        columns, _ = _sides_at(SolverState(p, g), 0.1)
        assert columns[0, :, 0] == pytest.approx([-0.5] * 9, rel=1e-15)

    def test_benchmark_first_column(self):
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 10, 10)
        columns, _ = _sides_at(SolverState(p, g), 0.05)
        want = -0.5 * compact_average(np.exp(g.x + 0.05))
        assert columns[0, :, 0] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "positions, nx",
        [
            ((0.2, 0.37, 0.5), 8),  # 0.2 and 0.37 generic, 0.5 nodal
            ((0.2, 0.5, 0.81), 6),  # 0.2's window touches the boundary node 0, 0.5 nodal
            ((1.0 / 6.0, 0.43, 0.79), 6),  # a nodal point next to the boundary
            ((0.2, 0.21, 0.67), 40),
            ((0.2137, 1.0 / 3.0, 0.5, 0.7901), 200),
        ],
    )
    def test_point_rows_are_the_lagrange_rows(self, positions, nx):
        # the state's dense rows against scipy's Lagrange polynomials, boundary
        # nodes dropped.  The last bits of x and h move a weight by about
        # eps x / h, which passes 1e-14 from x / h = 45 on.
        base = _zeros_problem()
        one = lambda x, t: np.ones(np.broadcast_shapes(np.shape(x), np.shape(t)))
        p = ProblemSpec(1.0, 1.0, 0.5, 1.0, tuple(PointLoad(x, one) for x in positions), base.forcing, base.initial)
        grid = Grid1D(1.0, 1.0, nx, 4)
        state = SolverState(p, grid)
        assert state.point_rows.shape == (len(positions), nx - 1)
        for x, row in zip(positions, state.point_rows):
            bound = max(1e-14, np.finfo(float).eps * x / grid.h)
            assert np.max(np.abs(row - full_interpolation_row(x, grid)[1:-1])) <= bound, x


class TestRhs:
    def test_zero_everything(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 4)
        state = SolverState(p, g)
        assert np.array_equal(_next_rhs(state), np.zeros((1, 7)))

    def test_unit_forcing(self):
        one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
        p = _zeros_problem(forcing=one)
        g = Grid1D(1.0, 1.0, 8, 4)
        state = SolverState(p, g)
        assert _next_rhs(state)[0] == pytest.approx([1.0] * 7, rel=1e-15)


def march(problem, grid, windowed=True):
    """The state after a full march and the levels it passed through, stacked.

    ``windowed=False`` is the exact-history reference: a buffer of ``nt``
    rows stores every increment, so the modes never fold, and the kernel
    holds the weights of every lag, so every increment is summed.
    """
    state = SolverState(problem, grid)
    if not windowed:
        state.increments = np.zeros((1, grid.nt, grid.nx + 1))
        state.kernel._lags = -l1_weight_array(grid.nt, problem.alpha)[None, :0:-1]
    levels = [state.level[0]]
    for _ in range(grid.nt):
        step(state)
        levels.append(state.level[0])
    return state, np.array(levels)


def _array_bytes(obj, depth=3) -> int:
    """Bytes of the numpy arrays an object holds, ``depth`` attribute levels deep."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item, depth - 1) for item in obj)
    return sum(_array_bytes(value, depth - 1) for value in getattr(obj, "__dict__", {}).values())


def solved_levels(problem, grid):
    """Every level the observers of ``solve`` see, stacked."""
    seen = []
    solve(problem, grid, observers=(lambda j, t, level: seen.append(level.copy()),))
    return np.array(seen)


class TestWindowedHistory:
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.011, 0.989),
        nsteps=st.integers(450, 1500),
        width=st.integers(1, 5),
        shape=st.sampled_from(["walk", "noise", "smooth", "spikes"]),
        size=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    @settings(deadline=None, max_examples=30)
    def test_windowed_sum_matches_exact_sum(self, seed, alpha, nsteps, width, shape, size):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, nsteps + 1)[:, None]
        increments = {
            "walk": rng.standard_normal((nsteps, width)),
            "noise": np.diff(rng.standard_normal((nsteps + 1, width)), axis=0),
            "smooth": np.diff(np.sin(rng.uniform(1.0, 9.0, width) * t) + t**3, axis=0),
            "spikes": rng.standard_normal((nsteps, width)) * (rng.random((nsteps, 1)) < 0.02),
        }[shape] * size
        kernel = KernelStack((alpha,), 1.0 / nsteps, nsteps)
        fit = kernel.soe
        modes = HistoryModes(kernel)
        # the march's buffer: row i holds the increment at modes.start + i
        buffer = np.zeros((1, history_rows(nsteps), width))
        assert buffer.shape[1] == 63
        c = CaputoKernel(alpha, 1.0 / nsteps).weights(nsteps)
        delta = np.abs(increments)
        for j in range(nsteps):
            got = _history_sum(buffer, kernel, j, modes)
            lagged = c[j:0:-1]  # c_{j-s} for s = 0..j-1
            # the exact sum of every increment
            want = np.vecmat(-lagged, increments[:j])[None]
            # fit error times sum_s c_{j-s} |delta^s|, plus round-off on the same sum
            bound = (fit.error + 1e-12) * (lagged @ delta[:j])
            assert np.all(np.abs(got[0] - want[0]) <= bound), j
            buffer[0, j - modes.start] = increments[j]
        assert modes.start > 0

    @pytest.mark.parametrize("nt", [1, 10, 32, 160, 320, SOE_MIN_STEPS - 1])
    @pytest.mark.parametrize("name, nx", [("benchmark", 1000), ("integral-load", 200), ("benchmark", 24)])
    def test_short_marches_carry_no_exponential_state(self, name, nx, nt):
        # a march that never folds neither fits the tail nor stores modes
        state = solve(make_problem(name, 0.5), Grid1D(1.0, 1.0, nx, nt))
        assert "soe" not in vars(state.kernel)
        assert state.modes.start == 0 and np.ndim(state.modes.values) == 0

    @pytest.mark.parametrize("nt", [1, 40, SOE_MIN_STEPS - 1, SOE_MIN_STEPS, 1280, 100000])
    def test_increment_buffer_rows(self, nt):
        # every increment on exact marches; on windowed ones the 31..62 since
        # the checkpoint and the one the step writes.  The kernel stores the
        # weights c_rows..c_1 those rows take, and the order's scale.
        state = SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 8, nt))
        rows = nt if nt < SOE_MIN_STEPS else 63
        assert state.increments.shape == (1, rows, 9)
        assert _array_bytes(state.kernel, depth=1) == 8 * (rows + 1)

    def test_deep_grid_state_is_small(self):
        p = benchmark_problem(0.9)
        state = SolverState(p, Grid1D(1.0, 1.0, 1000, 1280))
        for _ in range(64):
            step(state)
        assert state.modes.start == 32
        fit = state.kernel.soe
        held = state.modes.values.nbytes + sum(a.nbytes for a in (fit.nodes, fit.weights, fit.fold, fit.lagged))
        assert held < 1_000_000

    def test_marched_state_does_not_grow_with_nt(self):
        # past the first fold a state holds the same arrays at any nt, but
        # for the modes, whose count grows with log(nt)
        p = benchmark_problem(0.5)
        held = []
        for nt in (1000, 100_000):
            state = SolverState(p, Grid1D(1.0, 1.0, 24, nt))
            for _ in range(100):
                step(state)
            assert state.modes.start == 64
            held.append(_array_bytes(state))
        assert held[1] - held[0] < 32_000

    def test_march_past_the_first_fold_at_a_huge_nt(self):
        # 10^20 steps is past 2^64, where numpy takes a Python int as an
        # object, not a number; the first fold, at step 63, fits the tail
        state = SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 8, 10**20))
        for _ in range(70):
            step(state)
        assert state.modes.start == 32
        assert np.isfinite(state.level).all()
        assert state.kernel.soe.error <= 1e-8

    @pytest.mark.parametrize(
        "problem, nx",
        [(benchmark_problem(0.9), 6), (integral_benchmark_problem(0.3), 6), (_loaded_problem(0.6, (0, 3), True), 8)],
    )
    def test_windowed_march_matches_dense_oracle(self, problem, nx):
        grid = Grid1D(1.0, 1.0, nx, 450)
        state, levels = march(problem, grid)
        assert state.modes.start > 0
        assert np.max(np.abs(levels - dense_march(problem, grid))) <= 1e-10

    def test_march_of_415_steps_is_windowed(self):
        # 410..422 steps once summed the whole history; from SOE_MIN_STEPS on
        # every march is windowed and stays within the windowed-vs-exact gate
        p = benchmark_problem(0.5)
        grid = Grid1D(1.0, 1.0, 12, 415)
        windowed, levels = march(p, grid)
        assert windowed.modes.start > 0
        _, exact = march(p, grid, windowed=False)
        assert np.max(np.abs(levels - exact)) <= 1e-10


class TestStepAndSolve:
    def test_zero_dynamics(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 3)
        assert np.array_equal(solved_levels(p, g), np.zeros((4, 9)))

    def test_single_step_matches_dense(self):
        p = benchmark_problem(0.3)
        g = Grid1D(1.0, 1.0, 10, 5)
        state = SolverState(p, g)
        step(state)
        ref = dense_march(p, g, nsteps=1)
        scale = np.max(np.abs(ref[1]))
        assert np.max(np.abs(state.level - ref[1])) <= 1e-11 * scale

    @pytest.mark.filterwarnings("ignore:time step .* exceeds")
    def test_marched_equivalence_with_dense_oracle(self, rng):
        # randomized small problems with every point-load count
        cases = []
        for trial in range(8):
            m = trial % 4
            loads = tuple(
                PointLoad(POSITIONS[i], COEFFS[(trial + i) % 4]) for i in range(m)
            )
            alpha = float(rng.uniform(0.05, 0.95))
            problem = manufactured_problem(
                int(rng.integers(1, 4)),
                ((float(rng.uniform(0.5, 2.0)), 3.0), (1.0, 2.0 + alpha)),
                alpha,
                mu=float(10 ** rng.uniform(-2, 1)),
                loads=loads,
            )
            grid = Grid1D(1.0, 1.0, int(rng.integers(3, 7)) * 2, int(rng.integers(3, 9)))
            cases.append((problem, grid))
        # a history long enough to exercise the convolution weights,
        # with three point loads, with the distributed load, and with both
        cases.append((benchmark_problem(0.9), Grid1D(1.0, 1.0, 12, 48)))
        cases.append((integral_benchmark_problem(0.7), Grid1D(1.0, 1.0, 12, 48)))
        cases.append((_loaded_problem(0.6, (0, 3), True), Grid1D(1.0, 1.0, 12, 48)))
        for problem, grid in cases:
            ref = dense_march(problem, grid)
            scale = np.max(np.abs(ref))
            got = solved_levels(problem, grid)
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale

    @given(
        loads=st.sets(st.integers(0, 3)),
        distributed=st.booleans(),
        alpha=st.floats(0.05, 0.95),
        mode=st.integers(1, 3),
        nx=st.integers(3, 12).map(lambda k: 2 * k),
        nt=st.integers(1, 16),
    )
    @settings(deadline=None, max_examples=40)
    @pytest.mark.filterwarnings("ignore:time step .* exceeds")
    def test_any_load_mix_matches_dense_oracle(self, loads, distributed, alpha, mode, nx, nt):
        problem = _loaded_problem(alpha, sorted(loads), distributed, mode=mode)
        grid = Grid1D(1.0, 1.0, nx, nt)
        want = dense_march(problem, grid)
        got = solved_levels(problem, grid)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "loads, distributed, per_block",
        [((0, 1, 2), False, 0), ((), True, 1), ((0, 3), True, 1), ((1,), True, 1), ((), False, 0)],
    )
    def test_sweeps_per_step(self, monkeypatch, loads, distributed, per_block):
        calls = []
        original = stepper_mod.thomas_solve

        def counted(factor, b):
            calls.append(factor)
            return original(factor, b)

        monkeypatch.setattr(stepper_mod, "thomas_solve", counted)
        state = solve(_loaded_problem(0.5, loads, distributed), Grid1D(1.0, 1.0, 12, 5))
        # each point load's row once per solve, then one sweep per step; the
        # distributed load's rows are solved in one more sweep per load block
        # (one block here)
        assert len(calls) == len(loads) + 5 + per_block
        assert all(factor is state.factor for factor in calls)

    def test_singular_capacitance_in_step_names_loads(self):
        # A coefficient that is nonzero only at the node x = 0 gives the load
        # the column U = -c/24 e_0, so the capacitance is 1 + v_0 U_0 with
        # v = T^{-1} W.  Pick c to make it exactly zero.
        base = _zeros_problem()
        grid = Grid1D(1.0, 1.0, 10, 4)

        def with_coefficient(c):
            spike = lambda x, t: np.where(np.asarray(x, dtype=float) == 0.0, c, 0.0)
            return ProblemSpec(1.0, 1.0, 0.5, 1.0, (PointLoad(0.4, spike),), base.forcing, base.initial)

        v0 = SolverState(with_coefficient(0.0), grid).row_solves[0, 0, 0]
        candidates = (24.0 / v0 * (1.0 + k * 2.0**-52) for k in range(-64, 65))
        c = next(c for c in candidates if 1.0 + v0 * (-0.5 * (c / 12.0)) == 0.0)
        problem = with_coefficient(c)
        with pytest.raises(np.linalg.LinAlgError, match=r"singular capacitance .*x=0\.4"):
            solve(problem, grid)

    def test_integral_load_matches_dense_oracle(self):
        p = integral_benchmark_problem(0.4)
        g = Grid1D(1.0, 1.0, 12, 6)
        ref = dense_march(p, g)
        got = solved_levels(p, g)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_boundary_entries_exactly_zero(self):
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 12, 6)
        levels = solved_levels(p, g)
        assert np.all(levels[:, 0] == 0.0)
        assert np.all(levels[:, -1] == 0.0)

    def test_linearity_in_data(self):
        lam = 3.7
        base = benchmark_problem(0.5)
        scaled = ProblemSpec(
            1.0,
            1.0,
            base.alpha,
            base.mu,
            (),
            lambda x, t: lam * base.forcing(x, t),
            lambda x: lam * base.initial(x),
        )
        unscaled = ProblemSpec(
            1.0,
            1.0,
            base.alpha,
            base.mu,
            (),
            base.forcing,
            lambda x: base.initial(x),
        )
        g = Grid1D(1.0, 1.0, 10, 5)
        got = solved_levels(scaled, g)
        want = lam * solved_levels(unscaled, g)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_additive_in_forcing_and_initial_data(self, rng):
        g = Grid1D(1.0, 1.0, 10, 5)
        f1 = lambda x, t: np.exp(np.asarray(x, dtype=float)) * np.sin(t)
        f2 = lambda x, t: np.cos(3.0 * np.asarray(x, dtype=float) - t)
        u1 = lambda x: np.sin(math.pi * np.asarray(x, dtype=float))
        u2 = lambda x: np.sin(2.0 * math.pi * np.asarray(x, dtype=float))
        mk = lambda f, u: _zeros_problem(alpha=0.4, forcing=f, initial=u)
        combined = solved_levels(mk(lambda x, t: f1(x, t) + f2(x, t), lambda x: u1(x) + u2(x)), g)
        separate = solved_levels(mk(f1, u1), g) + solved_levels(mk(f2, u2), g)
        assert np.max(np.abs(combined - separate)) <= 1e-11 * np.max(np.abs(separate))

    def test_single_step_grid_reduces_to_step(self):
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 8, 1)
        via_solve = solved_levels(p, g)[1]
        state = SolverState(p, g)
        step(state)
        assert np.array_equal(via_solve, state.level[0])

    def test_step_past_end_rejected(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 1)
        state = SolverState(p, g)
        step(state)
        with pytest.raises(ValueError):
            step(state)

    def test_non_finite_level_names_step(self):
        blowup = lambda x, t: np.where(np.asarray(t) > 0.5, np.inf, 0.0) + np.zeros_like(np.asarray(x, dtype=float))
        p = _zeros_problem(forcing=blowup)
        g = Grid1D(1.0, 1.0, 8, 4)
        with pytest.raises(FloatingPointError, match=r"time level 3 \(t = 0.75\).*stability_step_limit"):
            solve(p, g)

    def test_observer_failure_names_level(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 4)

        def bomb(j, t, level):
            if j == 2:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="level 2"):
            solve(p, g, observers=(bomb,))

    def test_observers_see_read_only_levels(self):
        # an observer that writes to a level must not move the march
        def scale(j, t, level):
            if j == 5:
                level *= 1.001

        with pytest.raises(RuntimeError, match="observer failed at time level 5"):
            solve(benchmark_problem(0.5), Grid1D(1.0, 1.0, 12, 20), observers=(scale,))

    def test_mismatched_grid_rejected(self):
        p = benchmark_problem(0.5)
        g = Grid1D(2.0, 1.0, 8, 2)
        with pytest.raises(ValueError):
            solve(p, g)

    def test_step_limit_warning(self):
        p = manufactured_problem(1, ((1.0, 2.5),), 0.9, mu=1e-6)
        assert stability_step_limit(p) < 0.1
        g = Grid1D(1.0, 1.0, 8, 10)
        with pytest.warns(RuntimeWarning, match="stability threshold"):
            solve(p, g)

    def test_step_limit_that_overflows_is_infinite(self):
        # (2 mu / (gamma l^2))^(1/(1-alpha)) is past the largest float here
        p = manufactured_problem(1, ((1.0, 2.0),), 0.989, mu=10.0)
        assert stability_step_limit(p) == math.inf
        levels = solved_levels(p, Grid1D(1, 1, 8, 4))
        assert levels.shape == (5, 9) and np.isfinite(levels).all()

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_homogeneous_stability(self, alpha):
        p = _zeros_problem(alpha=alpha, initial=lambda x: np.sin(math.pi * np.asarray(x)))
        g = Grid1D(1.0, 1.0, 50, 200)
        levels = solved_levels(p, g)
        sup = np.max(np.abs(levels))
        assert sup <= 10.0 * np.max(np.abs(levels[0]))

    def test_table_row_reproduced(self):
        # cheapest bundled-table cell: temporal ladder start at alpha = 0.5
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 1000, 10)
        worst = 0.0

        def track(j, t, y):
            nonlocal worst
            worst = max(worst, float(np.max(np.abs(y - p.exact(g.x, t)))))

        solve(p, g, observers=(track,))
        assert worst == pytest.approx(8.224209e-3, rel=0.01)

    def test_history_cost_scales_at_most_quadratically(self):
        p = benchmark_problem(0.5)
        times = []
        sizes = (500, 1000, 2000)
        for m in sizes:
            g = Grid1D(1.0, 1.0, 8, m)
            t0 = time.perf_counter()
            solve(p, g)
            times.append(time.perf_counter() - t0)
        exponent = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert exponent <= 2.2


def woodbury_march(problem, grid):
    """Levels of a march that assembles every step on its own and closes it
    with the oracle's ``woodbury_solve`` on a factor of its own, solving the
    load columns against T anew."""
    state = SolverState(problem, grid)
    tri = assemble_tridiagonal(grid, problem.alpha, problem.mu)
    levels = [state.level[0]]
    for j in range(grid.nt):
        columns, rows = (side[0] for side in _sides_at(state, (j + 0.5) * grid.tau))
        b = _next_rhs(state)[0]
        row = state.increments[:, j - state.modes.start]
        row[0, 1:-1] = oracles.woodbury_solve(tri, columns, rows, b)
        state.level = state.level + row
        state.j = j + 1
        levels.append(state.level[0])
    return np.array(levels)


def _spiked_problem(at, value, grid, initial=None):
    """One point load at x = 0.4 whose coefficient is ``value`` at the nodes
    of half layer ``at`` (zero at all others); ``value`` may be a callable
    of x.  Forcing is zero, so only the load samples the coefficient."""
    base = _zeros_problem(initial=initial)
    t_at = (at + 0.5) * grid.tau

    def coefficient(x, t):
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        at_spike = np.abs(t - t_at) <= 0.25 * grid.tau
        if not at_spike.any():
            return np.zeros_like(x)
        return np.where(at_spike, value(x) if callable(value) else value, 0.0)

    return ProblemSpec(1.0, 1.0, 0.5, 1.0, (PointLoad(0.4, coefficient),), base.forcing, base.initial)


class TestLoadBlocks:
    @given(
        mix=st.sampled_from(["none", "points", "distributed", "both"]),
        points=st.sets(st.integers(0, 3), min_size=1),
        nt=st.sampled_from([1, LOAD_BLOCK - 1, LOAD_BLOCK, LOAD_BLOCK + 1, 2 * LOAD_BLOCK + 1, 70]),
        alpha=st.floats(0.05, 0.95),
        mode=st.integers(1, 3),
        nx=st.integers(3, 8).map(lambda k: 2 * k),
    )
    @settings(deadline=None, max_examples=30)
    @pytest.mark.filterwarnings("ignore:time step .* exceeds")
    def test_blocked_march_matches_dense_and_stepwise_woodbury(self, mix, points, nt, alpha, mode, nx):
        loads = sorted(points) if mix in ("points", "both") else []
        problem = _loaded_problem(alpha, loads, mix in ("distributed", "both"), mode=mode)
        grid = Grid1D(1.0, 1.0, nx, nt)
        got = solved_levels(problem, grid)
        dense = dense_march(problem, grid)
        assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))
        stepwise = woodbury_march(problem, grid)
        assert np.max(np.abs(got - stepwise)) <= 1e-13 * np.max(np.abs(stepwise))

    @pytest.mark.parametrize("batch", ["alone", "shared", "distinct"])
    @pytest.mark.parametrize("per", [None, 1, 3])
    def test_block_sides_are_the_per_step_sides(self, monkeypatch, per, batch):
        # the march uses bit for bit the columns and rows of each half layer,
        # whether the block's samples are averaged at once or ``per`` half
        # layers at a time, and whether the orders of a batch share their
        # load evaluators (the samples of the first are copied into the
        # others) or each has its own objects with values of its own
        p = _loaded_problem(0.5, (0, 2), True)
        if batch == "alone":
            problems = (p,)
        elif batch == "shared":
            problems = tuple(dataclasses.replace(p, alpha=alpha) for alpha in ALPHAS)
        else:
            own = lambda f, alpha: lambda x, t: (1.0 + alpha) * f(x, t)
            problems = tuple(
                dataclasses.replace(
                    p,
                    alpha=alpha,
                    loads=tuple(PointLoad(ld.position, own(ld.coefficient, alpha)) for ld in p.loads),
                    integral_load=own(p.integral_load, alpha),
                )
                for alpha in ALPHAS
            )
        grid = Grid1D(1.0, 1.0, 10, 40)
        if per is not None:
            monkeypatch.setattr(stepper_mod, "SAMPLE_BYTES", per * 8 * 2 * 11)
        state = SolverState(problems, grid)
        block = stepper_mod._load_block(state, LOAD_BLOCK)
        assert (block.start, block.stop) == (LOAD_BLOCK, 40)
        for i, j in enumerate(range(block.start, block.stop)):
            columns, rows = _sides_at(state, (j + 0.5) * grid.tau)
            assert columns.shape == (len(problems), 9, 3) and rows.shape == (len(problems), 3, 9)
            assert np.array_equal(block.columns[i], columns)
            assert np.array_equal(block.rows[i], rows)
        if batch == "distinct":
            assert not np.array_equal(block.columns[:, 0], block.columns[:, 1])
            assert not np.array_equal(block.rows[:, 0], block.rows[:, 1])

    @pytest.mark.parametrize("batch", ["alone", "shared", "distinct"])
    @pytest.mark.parametrize("nt", [1, LOAD_BLOCK - 1, LOAD_BLOCK, LOAD_BLOCK + 1, 70])
    def test_each_evaluator_called_once_per_block_up_to_the_last(self, nt, batch):
        # one problem; three orders sharing one coefficient object and one
        # integral_load object, each with its own forcing; or three orders
        # whose evaluators compute the same values but are distinct objects
        calls = {}

        def recorded(name, fn):
            calls[name] = []

            def evaluator(x, t):
                calls[name].append(np.array(t))
                return fn(np.asarray(x, dtype=float), t)

            return evaluator

        coefficient = lambda x, t: 1.0 + x * t
        integral = lambda x, t: np.exp(x - t)
        if batch == "shared":
            shared = recorded("coefficient", coefficient), recorded("integral", integral)
        problems = []
        for alpha in (0.5,) if batch == "alone" else ALPHAS:
            if batch == "shared":
                coef, q = shared
            else:
                coef, q = recorded(f"coefficient {alpha}", coefficient), recorded(f"integral {alpha}", integral)
            problems.append(ProblemSpec(
                1.0, 1.0, alpha, 1.0,
                (PointLoad(0.4, coef),),
                recorded(f"forcing {alpha}", lambda x, t: np.sin(math.pi * x) * t),
                lambda x: np.sin(math.pi * np.asarray(x, dtype=float)),
                integral_load=q,
            ))
        grid = Grid1D(1.0, 1.0, 8, nt)
        batched = _sha1_of_levels(problems, grid, True)
        assert len(calls) == {"alone": 3, "shared": 5, "distinct": 9}[batch]
        # one call per block, with exactly the block's half layers as a
        # column, the last of them t_{nt - 1/2}
        blocks = [(np.arange(lo, min(lo + LOAD_BLOCK, nt))[:, None] + 0.5) * grid.tau for lo in range(0, nt, LOAD_BLOCK)]
        assert blocks[-1][-1, 0] == (nt - 0.5) * grid.tau
        for name, seen in calls.items():
            assert len(seen) == len(blocks), name
            for got, want in zip(seen, blocks):
                assert got.shape == want.shape and np.array_equal(got, want), name
        assert batched == _sha1_of_levels(problems, grid, False)

    @given(
        q=arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(3, 12)),
            elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([5e-324, -5e-324, 1e-310, 2.2e-308, 1.7e308]),
        )
    )
    @example(q=np.array([[[0.0, 0.0, 0.0, 14 * 5e-324, 0.0]]]))
    def test_fused_average_is_minus_half_the_compact_average(self, q):
        # bit for bit, also where the result is subnormal: there one division
        # by -24 would round 14 * 2^-1074 / 12 / -2 to -2^-1074, not to -0
        out = np.empty(q.shape[:-1] + (q.shape[-1] - 2,))
        with np.errstate(all="ignore"):
            stepper_mod._half_average(q, out)
            want = -0.5 * compact_average(q)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("make", [benchmark_problem, integral_benchmark_problem])
    @pytest.mark.parametrize("nx", [8, 1000])
    def test_block_forcing_is_the_per_half_layer_forcing(self, make, nx):
        # a block samples the forcing on a column of times; the bundled
        # forcing takes its time factors one time at a time, so it equals
        # the forcing called at each half layer with a scalar time bit for
        # bit.  The offsets are taken one time at a time as they are.
        p = make(0.5)
        grid = Grid1D(1.0, 1.0, nx, 40)
        state = SolverState(p, grid)
        for start in (0, LOAD_BLOCK):
            block = stepper_mod._load_block(state, start)
            half_layers = [(j + 0.5) * grid.tau for j in range(block.start, block.stop)]
            want = np.array([p.forcing(grid.x, t) for t in half_layers])
            assert block.forcing[:, 0].shape == want.shape
            assert np.array_equal(block.forcing[:, 0], want)
            assert np.array_equal(block.offsets[:, 0], [p.load_offsets(t) for t in half_layers])

    @pytest.mark.parametrize("name", ["forcing", "load x=0.4", "integral_load"])
    @pytest.mark.parametrize(
        "bad",
        [lambda x, t: np.ones(3), lambda x, t: np.asarray(x, dtype=float) * math.exp(t)],
        ids=["wrong-shape", "scalar-time"],
    )
    def test_evaluator_that_does_not_broadcast_is_named(self, name, bad):
        good = lambda x, t: np.exp(np.asarray(x, dtype=float) - t)
        pick = lambda key: bad if key == name else good
        problem = ProblemSpec(
            1.0, 1.0, 0.5, 1.0, (PointLoad(0.4, pick("load x=0.4")),), pick("forcing"),
            lambda x: np.sin(math.pi * np.asarray(x, dtype=float)), integral_load=pick("integral_load"),
        )
        seen = []
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} failed .*evaluators must broadcast over x and t"):
            solve(problem, Grid1D(1.0, 1.0, 8, 40), observers=(lambda j, t, level: seen.append(j),))
        # refused while the first block is built, before the first step
        assert seen == [0]

    def test_blocks_start_at_multiples_of_the_block_length(self):
        p = benchmark_problem(0.5)
        state = SolverState(p, Grid1D(1.0, 1.0, 8, 70))
        spans = set()
        for _ in range(70):
            step(state)
            spans.add((state.block.start, state.block.stop))
        assert sorted(spans) == [(0, 32), (32, 64), (64, 70)]

    @pytest.mark.parametrize("load", ["point", "distributed"])
    def test_nan_coefficient_mid_block_names_its_level(self, load):
        grid = Grid1D(1.0, 1.0, 8, 70)
        initial = lambda x: np.sin(math.pi * np.asarray(x, dtype=float))
        bad = 40  # half layer 40.5 lies inside the block of steps 32..63
        if load == "point":
            problem = _spiked_problem(bad, np.nan, grid, initial=initial)
        else:
            base = _zeros_problem(initial=initial)
            t_bad = (bad + 0.5) * grid.tau
            q = lambda x, t: np.where(np.abs(t - t_bad) < 1e-9, np.nan, 1.0) + np.zeros_like(np.asarray(x, dtype=float))
            problem = ProblemSpec(1.0, 1.0, 0.5, 1.0, (), base.forcing, base.initial, integral_load=q)
        seen = []
        with pytest.raises(FloatingPointError, match=rf"time level {bad + 1} \(t = {(bad + 1) / 70:g}\)"):
            solve(problem, grid, observers=(lambda j, t, level: seen.append(j),))
        assert seen[-1] == bad

    def test_raising_evaluator_surfaces_when_its_block_is_built(self):
        grid = Grid1D(1.0, 1.0, 8, 70)

        def boom(x):
            raise RuntimeError("coefficient failed")

        problem = _spiked_problem(40, boom, grid)
        seen = []
        with pytest.raises(RuntimeError, match="coefficient failed"):
            solve(problem, grid, observers=(lambda j, t, level: seen.append(j),))
        # the block of steps 32..63 is built at step 32, before level 33
        assert seen[-1] == LOAD_BLOCK

    def test_singular_capacitance_mid_block_names_its_step(self):
        # as in test_singular_capacitance_in_step_names_loads, but the spike
        # is only at half layer 40.5, so the other steps of its block run
        grid = Grid1D(1.0, 1.0, 10, 70)
        spike = lambda c: (lambda x: np.where(x == 0.0, c, 0.0))
        v0 = SolverState(_spiked_problem(40, 0.0, grid), grid).row_solves[0, 0, 0]
        candidates = (24.0 / v0 * (1.0 + k * 2.0**-52) for k in range(-64, 65))
        c = next(c for c in candidates if 1.0 + v0 * (-0.5 * (c / 12.0)) == 0.0)
        seen = []
        with pytest.raises(np.linalg.LinAlgError, match=rf"singular capacitance .*x=0\.4.* time level 41 \(t = {41 / 70:g}\)"):
            solve(_spiked_problem(40, spike(c), grid), grid, observers=(lambda j, t, level: seen.append(j),))
        assert seen[-1] == 40

    @pytest.mark.parametrize("at", [LOAD_BLOCK, 40])
    def test_singular_capacitance_of_the_distributed_load_names_its_step(self, at):
        # the distributed load alone, its q nonzero only at node x = 0.2 of
        # half layer at + 1/2, either a block's first step or one mid-block:
        # the capacitance 1 - 1/2 sum(T^{-1} w) is made exactly zero by a
        # candidate search over q, as in the point-load tests above
        grid = Grid1D(1.0, 1.0, 10, 70)
        base = _zeros_problem(initial=lambda x: np.sin(math.pi * np.asarray(x, dtype=float)))
        t_at = (at + 0.5) * grid.tau

        def spiked(c):
            q = lambda x, t: np.where((np.abs(t - t_at) <= 0.25 * grid.tau) & (np.abs(x - 0.2) < 1e-9), c, 0.0)
            return ProblemSpec(1.0, 1.0, 0.5, 1.0, (), base.forcing, base.initial, integral_load=q)

        def ends_at_the_spike(c):
            problem = spiked(c)
            try:
                return stepper_mod._load_block(SolverState(problem, grid), LOAD_BLOCK).stop == at
            except np.linalg.LinAlgError:
                return True

        state = SolverState(spiked(1.0), grid)
        w = np.zeros(9)
        w[1] = state.simpson[2]
        c0 = 2.0 / np.sum(thomas_solve(state.factor, w))
        c = next(c for c in (c0 * (1.0 + k * 2.0**-52) for k in range(-64, 65)) if ends_at_the_spike(c))
        seen = []
        with pytest.raises(
            np.linalg.LinAlgError,
            match=rf"singular capacitance .*\(integral\) at time level {at + 1} \(t = {(at + 1) / 70:g}\) for alpha = 0\.5$",
        ):
            solve(spiked(c), grid, observers=(lambda j, t, level: seen.append(j),))
        assert seen == list(range(at + 1))

    def test_solver_state_refuses_a_grid_beyond_memory(self, monkeypatch):
        # the size is checked against the machine's memory before anything
        # is allocated; a small reported memory stands in for a huge grid
        monkeypatch.setattr(stepper_mod.os, "sysconf", lambda name: 128 if name == "SC_PHYS_PAGES" else 4096)
        with pytest.raises(ValueError, match=r"needs \S+ bytes .*more than the 5\.24e\+05 bytes"):
            SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 1000, 1000))
        SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 24, 10))
        # the kernel's weights do not grow with nt
        SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 24, 10**5))


def _sha1_of_levels(problems, grid, batched):
    """SHA-1 of the levels each problem's observer sees, from one batched solve or one solve each."""
    seen = [[] for _ in problems]
    observers = tuple((lambda j, t, level, into=into: into.append(level.copy()),) for into in seen)
    if batched:
        solve(tuple(problems), grid, observers=observers)
    else:
        for problem, watch in zip(problems, observers):
            solve(problem, grid, observers=watch)
    return [hashlib.sha1(np.array(levels).tobytes()).hexdigest() for levels in seen]


ALPHAS = (0.1, 0.5, 0.9)


class TestLockstep:
    @pytest.mark.parametrize(
        "name, nx, nt",
        # Table 1, Table 2's default ladder, the integral-load ladder, and two
        # windowed marches
        [("benchmark", nx, 10000) for nx in (6, 12, 24)]
        + [("benchmark", 1000, nt) for nt in (10, 20, 40, 80, 160)]
        + [("integral-load", 200, nt) for nt in (10, 20, 40, 80, 160, 320)]
        + [("benchmark", 40, 450), ("integral-load", 50, 420)],
    )
    def test_batched_levels_are_each_solve_alone(self, name, nx, nt):
        problems = [make_problem(name, alpha) for alpha in ALPHAS]
        grid = Grid1D(1.0, 1.0, nx, nt)
        assert _sha1_of_levels(problems, grid, True) == _sha1_of_levels(problems, grid, False)

    def test_wide_batch_takes_shorter_load_blocks(self):
        # three orders at nx = 1000 would hold 3 MiB of columns and forcing
        # in a 32-step block; their blocks stay within BLOCK_BYTES
        grid = Grid1D(1.0, 1.0, 1000, 40)
        alone = SolverState(benchmark_problem(0.5), grid)
        problems = tuple(benchmark_problem(a) for a in ALPHAS)
        batch = SolverState(problems, grid)
        assert alone.block_steps == LOAD_BLOCK
        assert batch.block_steps == 10
        block = stepper_mod._load_block(batch, 0)
        assert (block.start, block.stop) == (0, 10)
        assert block.columns.nbytes + block.forcing.nbytes <= stepper_mod.BLOCK_BYTES

    def test_non_finite_level_names_its_alpha(self):
        blowup = lambda x, t: np.where(np.asarray(t) > 0.5, np.inf, 0.0) + np.zeros_like(np.asarray(x, dtype=float))
        problems = (_zeros_problem(alpha=0.3), _zeros_problem(alpha=0.7, forcing=blowup), _zeros_problem(alpha=0.8))
        seen = ([], [], [])
        observers = tuple((lambda j, t, level, into=into: into.append(j),) for into in seen)
        with pytest.raises(FloatingPointError, match=r"time level 3 \(t = 0.75\) for alpha = 0.7;.*stability_step_limit"):
            solve(problems, Grid1D(1.0, 1.0, 8, 4), observers=observers)
        # every order saw the levels up to the one before
        assert seen == ([0, 1, 2], [0, 1, 2], [0, 1, 2])

    def test_observer_failure_names_its_alpha(self):
        def bomb(j, t, level):
            if j == 2:
                raise RuntimeError("boom")

        problems = (_zeros_problem(alpha=0.3), _zeros_problem(alpha=0.7))
        with pytest.raises(RuntimeError, match="observer failed at time level 2 for alpha = 0.7"):
            solve(problems, Grid1D(1.0, 1.0, 8, 4), observers=((), (bomb,)))

    def test_singular_capacitance_names_its_alpha(self):
        # as in test_singular_capacitance_in_step_names_loads, for the second
        # order of a batch; the first has a zero coefficient at the same point
        base = _zeros_problem()
        grid = Grid1D(1.0, 1.0, 10, 4)

        def with_coefficient(alpha, c):
            spike = lambda x, t: np.where(np.asarray(x, dtype=float) == 0.0, c, 0.0)
            return ProblemSpec(1.0, 1.0, alpha, 1.0, (PointLoad(0.4, spike),), base.forcing, base.initial)

        v0 = SolverState((with_coefficient(0.3, 0.0), with_coefficient(0.6, 0.0)), grid).row_solves[1, 0, 0]
        candidates = (24.0 / v0 * (1.0 + k * 2.0**-52) for k in range(-64, 65))
        c = next(c for c in candidates if 1.0 + v0 * (-0.5 * (c / 12.0)) == 0.0)
        with pytest.raises(np.linalg.LinAlgError, match=r"singular capacitance .*x=0\.4.*time level 1 .*for alpha = 0.6"):
            solve((with_coefficient(0.3, 0.0), with_coefficient(0.6, c)), grid)

    def test_step_limit_warning_names_its_alpha(self):
        unstable = manufactured_problem(1, ((1.0, 2.5),), 0.9, mu=1e-6)
        with pytest.warns(RuntimeWarning, match="stability threshold .* for alpha = 0.9"):
            solve((manufactured_problem(1, ((1.0, 2.5),), 0.5), unstable), Grid1D(1.0, 1.0, 8, 10))

    def test_batch_must_share_its_loads(self):
        grid = Grid1D(1.0, 1.0, 8, 4)
        with pytest.raises(ValueError, match="share their load points"):
            SolverState((benchmark_problem(0.5), _loaded_problem(0.5, (0,), False)), grid)
        with pytest.raises(ValueError, match="share their load points"):
            SolverState((integral_benchmark_problem(0.5), _zeros_problem()), grid)
        with pytest.raises(ValueError, match="at least one problem"):
            SolverState((), grid)

    def test_observers_come_one_sequence_per_problem(self):
        problems = (benchmark_problem(0.3), benchmark_problem(0.6))
        watch = lambda j, t, level: None
        with pytest.raises(ValueError, match="2 problems need as many sequences of observers, got 1 entries"):
            solve(problems, Grid1D(1.0, 1.0, 8, 4), observers=((watch,),))
        # a flat sequence of callables is not one sequence per problem
        with pytest.raises(ValueError, match="got 2 entries, 2 of them a bare callable"):
            solve(problems, Grid1D(1.0, 1.0, 8, 4), observers=(watch, watch))

    def test_batch_beyond_memory_is_refused_before_allocation(self, monkeypatch):
        # one solve fits in 1 MiB of reported memory, a batch of two does
        # not; the need is counted, so the refusal allocates nothing
        monkeypatch.setattr(stepper_mod.os, "sysconf", lambda name: 256 if name == "SC_PHYS_PAGES" else 4096)
        grid = Grid1D(1.0, 1.0, 1000, 1000)
        SolverState(benchmark_problem(0.5), grid)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"a solve of 2 problem\(s\) .* needs \S+ bytes .*more than the 1\.05e\+06"):
                SolverState((benchmark_problem(0.5), benchmark_problem(0.9)), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        monkeypatch.undo()
        # a batch that no machine here holds: 10^5 solves of 0.8 MB each
        with pytest.raises(ValueError, match=r"a solve of 100000 problem\(s\)"):
            SolverState((benchmark_problem(0.5),) * 100_000, grid)


def _batch_levels(problems, grid):
    """Every level each problem's observer sees in one batched solve, stacked per problem."""
    seen = [[] for _ in problems]
    solve(tuple(problems), grid, observers=tuple((lambda j, t, level, into=into: into.append(level.copy()),) for into in seen))
    return np.array(seen)


def _smooth_forcing(x, t):
    x = np.asarray(x, dtype=float)
    return np.sin(math.pi * x) * (1.0 + t) + x * t


def _offset_problem(alpha, loads, q_int, offsets, forcing=_smooth_forcing):
    initial = lambda x: np.sin(math.pi * np.asarray(x, dtype=float))
    return ProblemSpec(1.0, 1.0, alpha, 1.0, loads, forcing, initial, integral_load=q_int, load_offsets=offsets)


class TestLoadOffsets:
    @given(
        mix=st.sampled_from(["points", "distributed", "both"]),
        positions=st.sets(st.floats(0.2, 0.8), min_size=1, max_size=3).map(sorted),
        coefficients=st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=4, max_size=4),
        offsets=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=4, max_size=4),
        nx=st.integers(3, 10).map(lambda k: 2 * k),
        nt=st.integers(1, 40),
    )
    @settings(deadline=None, max_examples=30)
    @pytest.mark.filterwarnings("ignore:time step .* exceeds")
    def test_offsets_are_the_forcing_less_their_load_terms(self, mix, positions, coefficients, offsets, nx, nt):
        # a problem (f, g) marches the levels of its twin with no offsets and
        # the forcing f - sum_k q_k g_k - g_int: the load term moved from the
        # solver into the forcing
        def q(a, b, c):
            return lambda x, t: a + np.cos(b * np.asarray(x, dtype=float) + c * t)

        loads = tuple(PointLoad(x, q(*abc)) for x, abc in zip(positions, coefficients)) if mix != "distributed" else ()
        q_int = q(*coefficients[-1]) if mix != "points" else None
        m = len(loads) + (q_int is not None)
        pairs = offsets[:m]
        g = lambda t: [g0 + g1 * t * t for g0, g1 in pairs]

        def twin_forcing(x, t):
            base = _smooth_forcing(x, t)
            values = np.array([g(s) for s in np.ravel(t).tolist()]).reshape(np.shape(t) + (m,))
            for k, ld in enumerate(loads):
                base = base - ld.coefficient(x, t) * values[..., k]
            return base - values[..., -1] if q_int is not None else base

        grid = Grid1D(1.0, 1.0, nx, nt)
        got = _batch_levels([_offset_problem(alpha, loads, q_int, g) for alpha in ALPHAS], grid)
        want = _batch_levels([_offset_problem(alpha, loads, q_int, None, twin_forcing) for alpha in ALPHAS], grid)
        for b in range(len(ALPHAS)):
            assert np.max(np.abs(got[b] - want[b])) <= 1e-12 * np.max(np.abs(want[b]))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_bundled_coefficients_are_sampled_once_per_block_and_only_there(self, monkeypatch, batch):
        # the manufactured forcing calls no coefficient; the load samples
        # call each distinct one once per block, for the whole batch
        depth = []
        original = stepper_mod.assemble_load_columns

        def sampling(*args):
            depth.append(None)
            try:
                return original(*args)
            finally:
                depth.pop()

        monkeypatch.setattr(stepper_mod, "assemble_load_columns", sampling)
        calls = []

        def recorder(name, fn):
            def coefficient(x, t):
                calls.append((name, bool(depth)))
                return fn(np.asarray(x, dtype=float) + t)

            return coefficient

        loads = tuple(PointLoad(x, recorder(x, fn)) for x, fn in zip((0.2, 0.5, 0.8), (np.exp, np.sin, np.cos)))
        problems = [manufactured_problem(3, ((1.0, 3.0), (1.0, 2.0 + a)), a, loads=loads) for a in ALPHAS[:batch]]
        grid = Grid1D(1.0, 1.0, 8, 70)
        for p in problems:
            p.forcing(grid.x, 0.3)
            p.forcing(grid.x[None, :], np.array([[0.1], [0.2]]))
        assert calls == []
        solve(tuple(problems), grid)
        # 70 steps are three blocks, and at nx = 8 one chunk samples a whole block
        assert sorted(calls) == sorted([(x, True) for x in (0.2, 0.5, 0.8)] * 3)

    @pytest.mark.parametrize(
        "offsets, reason, at",
        [
            (lambda t: [1.0, 2.0], r"got 2", 0),
            (lambda t: 1.0, r"has no len", 0),
            (lambda t: None, r"has no len", 0),
            (lambda t: ["one"], r"could not convert", 0),
            (lambda t: [[1.0, 2.0]], r"sequence", 0),
            # raises past t = 0.6, first at the half layer 42.5 of the block of steps 32..63
            (lambda t: [math.sqrt(0.6 - t)], r"math domain error", 42),
        ],
        ids=["too-many", "scalar", "none", "not-a-number", "nested", "raises-later"],
    )
    def test_bad_offsets_are_refused_with_their_half_layer(self, offsets, reason, at):
        # one point load takes one offset a time
        problem = _offset_problem(0.5, (PointLoad(0.4, lambda x, t: 1.0 + x * t),), None, offsets)
        seen = []
        match = rf"^load_offsets failed at the half layer t = {(at + 0.5) / 70:g}: it must return 1 value\(s\) per time.*{reason}"
        with pytest.raises(ValueError, match=match):
            solve(problem, Grid1D(1.0, 1.0, 8, 70), observers=(lambda j, t, level: seen.append(j),))
        # refused while the block is built, before its first step
        assert seen[-1] == at // LOAD_BLOCK * LOAD_BLOCK

    @pytest.mark.parametrize("load", ["point", "distributed"])
    def test_nan_offset_mid_block_names_its_level(self, load):
        grid = Grid1D(1.0, 1.0, 8, 70)
        bad = 40  # half layer 40.5 lies inside the block of steps 32..63
        t_bad = (bad + 0.5) * grid.tau
        offsets = lambda t: [math.nan if abs(t - t_bad) < 1e-9 else 0.5]
        one = lambda x, t: 1.0 + x * t
        if load == "point":
            problem = _offset_problem(0.5, (PointLoad(0.4, one),), None, offsets)
        else:
            problem = _offset_problem(0.5, (), one, offsets)
        seen = []
        with pytest.raises(FloatingPointError, match=rf"time level {bad + 1} \(t = {(bad + 1) / 70:g}\)"):
            solve(problem, grid, observers=(lambda j, t, level: seen.append(j),))
        assert seen[-1] == bad

    def test_members_with_and_without_offsets_march_as_alone(self):
        # a member without load_offsets takes zero offsets beside members with them
        loads = (PointLoad(0.3, lambda x, t: np.exp(x - t)),)
        q = lambda x, t: np.cos(x * t)
        g = lambda t: [1.0 + t, 2.0 - t]
        problems = [_offset_problem(a, loads, q, None if a == 0.5 else g) for a in ALPHAS]
        grid = Grid1D(1.0, 1.0, 12, 70)
        assert _sha1_of_levels(problems, grid, True) == _sha1_of_levels(problems, grid, False)
