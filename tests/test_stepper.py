import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    woodbury_solve,
)
import hallaire.stepper as stepper_mod
from hallaire.caputo import SOE_MIN_STEPS, CaputoKernel, HistoryModes, history_rows
from hallaire.problems import integral_benchmark_problem
from hallaire.stepper import (
    BLOCK,
    LOAD_BLOCK,
    LoadRow,
    SolverState,
    _history_sum,
    assemble_load_columns,
    assemble_rhs,
    assemble_tridiagonal,
    stability_step_limit,
    step,
    thomas_factor,
    thomas_solve,
)
from oracles import dense_march


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


def _dense_from(tri, columns, rows):
    n = tri.n
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = tri.diag
    a[idx[:-1], idx[:-1] + 1] = tri.upper
    a[idx[1:], idx[1:] - 1] = tri.lower
    for col, row in zip(np.atleast_2d(columns.T), rows):
        full = np.zeros(n)
        full[row.cols] = row.weights
        a += np.outer(col, full)
    return a


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
        assert np.array_equal(thomas_solve(tri, b), b)

    def test_round_trip(self, rng):
        tri = _random_dominant(rng, 9)
        ones = np.ones(9)
        b = _dense_from(tri, np.zeros((9, 0)), []) @ ones
        assert thomas_solve(tri, b) == pytest.approx(ones, rel=1e-12)

    def test_matches_dense_lu(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 12))
            tri = _random_dominant(rng, n)
            b = rng.standard_normal(n)
            got = thomas_solve(tri, b)
            want = np.linalg.solve(_dense_from(tri, np.zeros((n, 0)), []), b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_zero_pivot_detected(self):
        tri = Tridiagonal(np.zeros(2), np.array([0.0, 1.0, 1.0]), np.zeros(2))
        with pytest.raises(np.linalg.LinAlgError):
            thomas_solve(tri, np.ones(3))

    def test_length_mismatch(self):
        tri = Tridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
        with pytest.raises(ValueError):
            thomas_solve(tri, np.ones(4))
        with pytest.raises(ValueError):
            thomas_solve(thomas_factor(tri), np.ones(4))

    def test_factor_reused(self, rng):
        tri = _random_dominant(rng, 11)
        factor = thomas_factor(tri)
        for _ in range(3):
            b = rng.standard_normal(11)
            assert np.array_equal(thomas_solve(factor, b), thomas_solve(tri, b))

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
        ],
    )
    def test_benchmark_operators_match_banded_lapack(self, rng, nx, nt, alpha):
        # the real cores of the wide, deep and long benchmark solves against
        # LAPACK's banded solver
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


class TestWoodbury:
    def test_rank_zero_reduces_to_thomas(self, rng):
        tri = _random_dominant(rng, 7)
        b = rng.standard_normal(7)
        got = woodbury_solve(tri, np.zeros((7, 0)), [], b)
        assert np.array_equal(got, thomas_solve(tri, b))

    def test_rank_one_matches_dense(self, rng):
        n = 7  # interior size of an 8-interval grid
        tri = _random_dominant(rng, n)
        col = rng.standard_normal((n, 1))
        row = LoadRow("x=0.4", np.array([2, 3, 4, 5]), rng.standard_normal(4))
        b = rng.standard_normal(n)
        got = woodbury_solve(tri, col, [row], b)
        want = np.linalg.solve(_dense_from(tri, col, [row]), b)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_benchmark_configuration_matches_dense(self):
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 12, 8)
        tri = assemble_tridiagonal(g, p.alpha, p.mu)
        state = SolverState(p, g)
        columns, rows = assemble_load_columns(state, p, 0.0625)
        b = assemble_rhs(state, p, 0)
        got = woodbury_solve(tri, columns, rows, b)
        want = np.linalg.solve(_dense_from(tri, columns, rows), b)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-11 * scale

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_non_symmetric_core_matches_dense(self, rng, m):
        # closed from the column solves, which need no transposed factor
        n = 9
        tri = _random_dominant(rng, n)
        columns = rng.standard_normal((n, m))
        rows = [LoadRow(f"x={k}", np.arange(k, k + 4), rng.standard_normal(4)) for k in range(m)]
        b = rng.standard_normal(n)
        got = woodbury_solve(tri, columns, rows, b)
        want = np.linalg.solve(_dense_from(tri, columns, rows), b)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_factor_of_a_non_symmetric_core(self, rng):
        # a ThomasFactor in place of T is the same solve, bit for bit
        n, m = 11, 2
        tri = _random_dominant(rng, n)
        columns = rng.standard_normal((n, m))
        rows = [LoadRow(f"x={k}", np.arange(2 * k, 2 * k + 4), rng.standard_normal(4)) for k in range(m)]
        b = rng.standard_normal(n)
        got = woodbury_solve(thomas_factor(tri), columns, rows, b)
        assert np.array_equal(got, woodbury_solve(tri, columns, rows, b))
        want = np.linalg.solve(_dense_from(tri, columns, rows), b)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_load_row_solves_are_solves_against_the_transpose(self):
        # SolverState solves W with the factor of T; for the symmetric core
        # that is T^{-T} W, the row side of the capacitance
        p = _loaded_problem(0.6, (0, 1, 3), False)
        state = SolverState(p, Grid1D(1.0, 1.0, 16, 4))
        dense = _dense_from(state.factor.matrix, np.zeros((15, 0)), [])
        assert state.row_solves.shape == (3, 15)
        for row, solved in zip(state.point_rows, state.row_solves):
            want = np.linalg.solve(dense.T, row)
            assert np.max(np.abs(solved - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("cols", [[-1], [7], [2, 9]])
    def test_load_row_outside_the_unknowns_is_refused(self, rng, cols):
        # -1 would wrap to the last unknown, 7 and 9 would index past it
        tri = _random_dominant(rng, 7)
        row = LoadRow("x=0.4", cols, np.ones(len(cols)))
        with pytest.raises(ValueError, match=r"load row x=0\.4 has columns outside 0\.\.6"):
            woodbury_solve(tri, np.ones((7, 1)), [row], np.ones(7))

    @pytest.mark.parametrize("shape", [(8, 1), (6, 1), (7, 2), (7,)])
    def test_load_columns_of_the_wrong_shape_are_refused(self, rng, shape):
        tri = _random_dominant(rng, 7)
        row = LoadRow("x=0.4", np.array([2, 3]), np.ones(2))
        with pytest.raises(ValueError, match=rf"load columns have shape {re.escape(str(shape))}, expected \(7, 1\)"):
            woodbury_solve(tri, np.ones(shape), [row], np.ones(7))

    def test_singular_capacitance_names_loads(self):
        tri = Tridiagonal(np.zeros(3), np.ones(4), np.zeros(3))
        w = np.array([1.0, 2.0])
        row = LoadRow("x=0.5", np.array([1, 2]), w)
        col = np.zeros((4, 1))
        col[[1, 2], 0] = -w / np.dot(w, w)  # makes 1 + w.(T^-1 u) = 0
        with pytest.raises(np.linalg.LinAlgError, match="x=0.5"):
            woodbury_solve(tri, col, [row], np.ones(4))


class TestLoadColumns:
    def test_zero_coefficient(self):
        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        p = _zeros_problem()
        p = ProblemSpec(1.0, 1.0, 0.5, 1.0, (PointLoad(0.4, zero),), p.forcing, p.initial)
        g = Grid1D(1.0, 1.0, 10, 4)
        columns, rows = assemble_load_columns(SolverState(p, g), p, 0.1)
        assert np.array_equal(columns, np.zeros((9, 1)))
        assert len(rows) == 1

    def test_unit_coefficient(self):
        one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
        base = _zeros_problem()
        p = ProblemSpec(1.0, 1.0, 0.5, 1.0, (PointLoad(0.4, one),), base.forcing, base.initial)
        g = Grid1D(1.0, 1.0, 10, 4)
        columns, _ = assemble_load_columns(SolverState(p, g), p, 0.1)
        assert columns[:, 0] == pytest.approx([-0.5] * 9, rel=1e-15)

    def test_benchmark_first_column(self):
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 10, 10)
        columns, _ = assemble_load_columns(SolverState(p, g), p, 0.05)
        want = -0.5 * compact_average(np.exp(g.x + 0.05))
        assert columns[:, 0] == pytest.approx(want, rel=1e-14)


class TestRhs:
    def test_zero_everything(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 4)
        state = SolverState(p, g)
        assert np.array_equal(assemble_rhs(state, p, 0), np.zeros(7))

    def test_unit_forcing(self):
        one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
        p = _zeros_problem(forcing=one)
        g = Grid1D(1.0, 1.0, 8, 4)
        state = SolverState(p, g)
        assert assemble_rhs(state, p, 0) == pytest.approx([1.0] * 7, rel=1e-15)

    def test_future_level_rejected(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 4)
        state = SolverState(p, g)
        with pytest.raises(ValueError):
            assemble_rhs(state, p, 1)


def march(problem, grid, windowed=True):
    """The state after a full march and the levels it passed through, stacked.

    ``windowed=False`` is the exact-history reference: a buffer of ``nt``
    rows stores every increment, so the modes never fold and every increment
    is summed.
    """
    state = SolverState(problem, grid)
    if not windowed:
        state.increments = np.zeros((grid.nt, grid.nx + 1))
    levels = [state.level]
    for _ in range(grid.nt):
        step(state, problem)
        levels.append(state.level)
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
        kernel = CaputoKernel(alpha, 1.0 / nsteps, nsteps=nsteps)
        fit = kernel.soe
        modes = HistoryModes(kernel)
        # the march's buffer: row i holds the increment at modes.start + i
        buffer = np.zeros((history_rows(nsteps), width))
        assert buffer.shape[0] == 63
        # the exact sum: a buffer with a row for every increment never folds
        exact = HistoryModes(kernel)
        c = kernel.weights(nsteps)
        delta = np.abs(increments)
        for j in range(nsteps):
            got = _history_sum(buffer, kernel, j, modes)
            want = _history_sum(increments, kernel, j, exact)
            lagged = c[j:0:-1]  # c_{j-s} for s = 0..j-1
            # fit error times sum_s c_{j-s} |delta^s|, plus round-off on the same sum
            bound = (fit.error + 1e-12) * (lagged @ delta[:j])
            assert np.all(np.abs(got - want) <= bound), j
            buffer[j - modes.start] = increments[j]
        assert modes.start > 0 and exact.start == 0

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
        # weights c_0..c_rows and c_rows..c_1 those rows take.
        state = SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 8, nt))
        rows = nt if nt < SOE_MIN_STEPS else 63
        assert state.increments.shape == (rows, 9)
        assert _array_bytes(state.kernel, depth=1) == 8 * (2 * rows + 1)

    def test_deep_grid_state_is_small(self):
        p = benchmark_problem(0.9)
        state = SolverState(p, Grid1D(1.0, 1.0, 1000, 1280))
        for _ in range(64):
            step(state, p)
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
                step(state, p)
            assert state.modes.start == 64
            held.append(_array_bytes(state))
        assert held[1] - held[0] < 32_000

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
        step(state, p)
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
        "loads, distributed, per_step",
        [((0, 1, 2), False, 1), ((), True, 1), ((0, 3), True, 2), ((1,), True, 2), ((), False, 1)],
    )
    def test_sweeps_per_step(self, monkeypatch, loads, distributed, per_step):
        calls = []
        original = stepper_mod.thomas_solve

        def counted(tri, b):
            calls.append(tri)
            return original(tri, b)

        monkeypatch.setattr(stepper_mod, "thomas_solve", counted)
        state = solve(_loaded_problem(0.5, loads, distributed), Grid1D(1.0, 1.0, 12, 5))
        # each load's constant side once per solve, then per_step per step
        assert len(calls) == len(loads) + distributed + per_step * 5
        assert all(tri is state.factor for tri in calls)

    def test_singular_capacitance_in_step_names_loads(self):
        # A coefficient that is nonzero only at the node x = 0 gives the load
        # the column U = -c/24 e_0, so the capacitance is 1 + v_0 U_0 with
        # v = T^{-1} W.  Pick c to make it exactly zero.
        base = _zeros_problem()
        grid = Grid1D(1.0, 1.0, 10, 4)

        def with_coefficient(c):
            spike = lambda x, t: np.where(np.asarray(x, dtype=float) == 0.0, c, 0.0)
            return ProblemSpec(1.0, 1.0, 0.5, 1.0, (PointLoad(0.4, spike),), base.forcing, base.initial)

        v0 = SolverState(with_coefficient(0.0), grid).row_solves[0][0]
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
            lambda x, t: lam * base.forcing(x, t) + lam * _load_term(base, x, t),
            lambda x: lam * base.initial(x),
        )
        unscaled = ProblemSpec(
            1.0,
            1.0,
            base.alpha,
            base.mu,
            (),
            lambda x, t: base.forcing(x, t) + _load_term(base, x, t),
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
        step(state, p)
        assert np.array_equal(via_solve, state.level)

    def test_step_past_end_rejected(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 1)
        state = SolverState(p, g)
        step(state, p)
        with pytest.raises(ValueError):
            step(state, p)

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
    with a fresh ``woodbury_solve``, solving the load columns against T anew."""
    state = SolverState(problem, grid)
    levels = [state.level]
    for j in range(grid.nt):
        columns, rows = assemble_load_columns(state, problem, (j + 0.5) * grid.tau)
        b = assemble_rhs(state, problem, j)
        row = state.increments[j - state.modes.start]
        row[1:-1] = woodbury_solve(state.factor, columns, rows, b)
        state.level = state.level + row
        state.j = j + 1
        levels.append(state.level)
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

    @pytest.mark.parametrize("per", [None, 1, 3])
    def test_block_sides_are_the_per_step_sides(self, monkeypatch, per):
        # the march uses bit for bit the columns and rows of each half layer,
        # whether the block's samples are averaged at once or ``per`` half
        # layers at a time
        p = _loaded_problem(0.5, (0, 2), True)
        grid = Grid1D(1.0, 1.0, 10, 40)
        if per is not None:
            monkeypatch.setattr(stepper_mod, "SAMPLE_BYTES", per * 8 * 2 * 11)
        state = SolverState(p, grid)
        block = stepper_mod._load_block(state, p, LOAD_BLOCK)
        assert (block.start, block.stop) == (LOAD_BLOCK, 40)
        for i, j in enumerate(range(block.start, block.stop)):
            columns, rows = assemble_load_columns(state, p, (j + 0.5) * grid.tau)
            assert np.array_equal(block.columns[i], columns)
            assert np.array_equal(block.rows[i], np.array([row.dense(9) for row in rows]))

    @pytest.mark.parametrize("nt", [1, LOAD_BLOCK - 1, LOAD_BLOCK, LOAD_BLOCK + 1, 70])
    def test_each_evaluator_called_once_per_block_up_to_the_last(self, nt):
        calls = {"coefficient": [], "integral": [], "forcing": []}

        def recorded(name, fn):
            def evaluator(x, t):
                calls[name].append(np.array(t))
                return fn(np.asarray(x, dtype=float), t)

            return evaluator

        problem = ProblemSpec(
            1.0, 1.0, 0.5, 1.0,
            (PointLoad(0.4, recorded("coefficient", lambda x, t: 1.0 + x * t)),),
            recorded("forcing", lambda x, t: np.sin(math.pi * x) * t),
            lambda x: np.sin(math.pi * np.asarray(x, dtype=float)),
            integral_load=recorded("integral", lambda x, t: np.exp(x - t)),
        )
        grid = Grid1D(1.0, 1.0, 8, nt)
        solve(problem, grid)
        # one call per block, with exactly the block's half layers as a
        # column, the last of them t_{nt - 1/2}
        blocks = [(np.arange(lo, min(lo + LOAD_BLOCK, nt))[:, None] + 0.5) * grid.tau for lo in range(0, nt, LOAD_BLOCK)]
        assert blocks[-1][-1, 0] == (nt - 0.5) * grid.tau
        for name, seen in calls.items():
            assert len(seen) == len(blocks), name
            for got, want in zip(seen, blocks):
                assert got.shape == want.shape and np.array_equal(got, want), name

    @pytest.mark.parametrize("make", [benchmark_problem, integral_benchmark_problem])
    @pytest.mark.parametrize("nx", [8, 1000])
    def test_block_forcing_is_the_per_half_layer_forcing(self, make, nx):
        # a block samples the forcing on a column of times; the bundled
        # forcing takes its time factors one time at a time, so it equals
        # the forcing called at each half layer with a scalar time bit for bit
        p = make(0.5)
        grid = Grid1D(1.0, 1.0, nx, 40)
        state = SolverState(p, grid)
        for start in (0, LOAD_BLOCK):
            block = stepper_mod._load_block(state, p, start)
            want = np.array([p.forcing(grid.x, (j + 0.5) * grid.tau) for j in range(block.start, block.stop)])
            assert block.forcing.shape == want.shape
            assert np.array_equal(block.forcing, want)

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
            step(state, p)
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
        v0 = SolverState(_spiked_problem(40, 0.0, grid), grid).row_solves[0][0]
        candidates = (24.0 / v0 * (1.0 + k * 2.0**-52) for k in range(-64, 65))
        c = next(c for c in candidates if 1.0 + v0 * (-0.5 * (c / 12.0)) == 0.0)
        seen = []
        with pytest.raises(np.linalg.LinAlgError, match=rf"singular capacitance .*x=0\.4.* time level 41 \(t = {41 / 70:g}\)"):
            solve(_spiked_problem(40, spike(c), grid), grid, observers=(lambda j, t, level: seen.append(j),))
        assert seen[-1] == 40

    def test_solver_state_refuses_a_grid_beyond_memory(self, monkeypatch):
        # the size is checked against the machine's memory before anything
        # is allocated; a small reported memory stands in for a huge grid
        monkeypatch.setattr(stepper_mod.os, "sysconf", lambda name: 256 if name == "SC_PHYS_PAGES" else 4096)
        with pytest.raises(ValueError, match=r"needs \S+ bytes .*more than the 1\.05e\+06 bytes"):
            SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 1000, 1000))
        SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 24, 10))
        # the kernel's weights do not grow with nt
        SolverState(benchmark_problem(0.5), Grid1D(1.0, 1.0, 24, 10**5))


def _load_term(problem, x, t):
    # loads folded into the forcing so the scaled/unscaled pair stays linear
    exact = problem.exact
    total = np.zeros_like(np.asarray(x, dtype=float))
    for ld in problem.loads:
        total = total + ld.coefficient(x, t) * exact(np.asarray(ld.position), t)
    return total
