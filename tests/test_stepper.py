import math
import time

import numpy as np
import pytest

from hallaire import (
    Grid1D,
    PointLoad,
    ProblemSpec,
    SolverState,
    Tridiagonal,
    assemble_load_columns,
    assemble_rhs,
    assemble_tridiagonal,
    benchmark_problem,
    compact_average,
    integral_benchmark_problem,
    manufactured_problem,
    solve,
    stability_step_limit,
    step,
    thomas_solve,
    woodbury_solve,
)
from hallaire.stepper import LoadRow
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
        assert thomas_solve(tri, tri.matvec(ones)) == pytest.approx(ones, rel=1e-12)

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


class TestStepAndSolve:
    def test_zero_dynamics(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 3)
        state = solve(p, g)
        assert np.array_equal(state.levels, np.zeros((4, 9)))

    def test_single_step_matches_dense(self):
        p = benchmark_problem(0.3)
        g = Grid1D(1.0, 1.0, 10, 5)
        state = SolverState(p, g)
        step(state, p)
        ref = dense_march(p, g, nsteps=1)
        scale = np.max(np.abs(ref[1]))
        assert np.max(np.abs(state.levels[1] - ref[1])) <= 1e-11 * scale

    @pytest.mark.filterwarnings("ignore:time step .* exceeds")
    def test_marched_equivalence_with_dense_oracle(self, rng):
        # randomized small problems, all load counts, both marching paths
        positions = (0.21, 0.43, 0.67, 0.79)
        coeffs = (
            lambda x, t: np.exp(0.5 * np.asarray(x, dtype=float) - t),
            lambda x, t: np.sin(2.0 * np.asarray(x, dtype=float) + t),
            lambda x, t: 1.0 + 0.5 * np.cos(t) * np.asarray(x, dtype=float),
            lambda x, t: np.cos(np.asarray(x, dtype=float) * t),
        )
        cases = []
        for trial in range(8):
            m = trial % 4
            loads = tuple(
                PointLoad(positions[i], coeffs[(trial + i) % 4]) for i in range(m)
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
        # a history long enough to exercise the folded convolution weights,
        # with three point loads and with the distributed load
        cases.append((benchmark_problem(0.9), Grid1D(1.0, 1.0, 12, 48)))
        cases.append((integral_benchmark_problem(0.7), Grid1D(1.0, 1.0, 12, 48)))
        for problem, grid in cases:
            ref = dense_march(problem, grid)
            scale = np.max(np.abs(ref))
            got = solve(problem, grid).levels
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale
            got_dense = solve(problem, grid, backend="dense").levels
            assert np.max(np.abs(got_dense - ref)) <= 1e-10 * scale

    def test_integral_load_matches_dense_oracle(self):
        p = integral_benchmark_problem(0.4)
        g = Grid1D(1.0, 1.0, 12, 6)
        ref = dense_march(p, g)
        got = solve(p, g).levels
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_boundary_entries_exactly_zero(self):
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 12, 6)
        levels = solve(p, g).levels
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
        got = solve(scaled, g).levels
        want = lam * solve(unscaled, g).levels
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_additive_in_forcing_and_initial_data(self, rng):
        g = Grid1D(1.0, 1.0, 10, 5)
        f1 = lambda x, t: np.exp(np.asarray(x, dtype=float)) * math.sin(t)
        f2 = lambda x, t: np.cos(3.0 * np.asarray(x, dtype=float) - t)
        u1 = lambda x: np.sin(math.pi * np.asarray(x, dtype=float))
        u2 = lambda x: np.sin(2.0 * math.pi * np.asarray(x, dtype=float))
        mk = lambda f, u: _zeros_problem(alpha=0.4, forcing=f, initial=u)
        combined = solve(
            mk(lambda x, t: f1(x, t) + f2(x, t), lambda x: u1(x) + u2(x)), g
        ).levels
        separate = solve(mk(f1, u1), g).levels + solve(mk(f2, u2), g).levels
        assert np.max(np.abs(combined - separate)) <= 1e-11 * np.max(np.abs(separate))

    def test_single_step_grid_reduces_to_step(self):
        p = benchmark_problem(0.5)
        g = Grid1D(1.0, 1.0, 8, 1)
        via_solve = solve(p, g).levels[1]
        state = SolverState(p, g)
        step(state, p)
        assert np.array_equal(via_solve, state.levels[1])

    def test_step_past_end_rejected(self):
        p = _zeros_problem()
        g = Grid1D(1.0, 1.0, 8, 1)
        state = SolverState(p, g)
        step(state, p)
        with pytest.raises(ValueError):
            step(state, p)

    def test_non_finite_level_names_step(self):
        blowup = lambda x, t: np.full_like(np.asarray(x, dtype=float), np.inf if t > 0.5 else 0.0)
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

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_homogeneous_stability(self, alpha):
        p = _zeros_problem(alpha=alpha, initial=lambda x: np.sin(math.pi * np.asarray(x)))
        g = Grid1D(1.0, 1.0, 50, 200)
        state = solve(p, g)
        sup = np.max(np.abs(state.levels))
        assert sup <= 10.0 * np.max(np.abs(state.levels[0]))

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


def _load_term(problem, x, t):
    # loads folded into the forcing so the scaled/unscaled pair stays linear
    exact = problem.exact
    total = np.zeros_like(np.asarray(x, dtype=float))
    for ld in problem.loads:
        total = total + ld.coefficient(x, t) * float(exact(np.asarray(ld.position), t))
    return total
