"""End-to-end acceptance gates.

Each test covers one numbered criterion and prints a single pass/fail line
with the measured quantities; the heavyweight table studies run once per
session and are shared.
"""

import math
import os

import numpy as np
import pytest

from hallaire import (
    CaputoKernel,
    Grid1D,
    PointLoad,
    ProblemSpec,
    Tridiagonal,
    apply_half_layer,
    caputo_power,
    compact_average,
    deep_order_check,
    l1_weight,
    l1_weight_array,
    make_problem,
    run_study,
    second_difference,
    self_check,
    split_half_layer,
    table1_config,
    table2_config,
    truncation_bound,
)
from hallaire.stepper import SolverState, _load_block, assemble_tridiagonal, woodbury_solve
from hallaire.study import TABLE2_ORDER_ONLY_NT, ConvergenceReport, StudyConfig
from test_problems import _benchmark_terms, residual_at
from oracles import woodbury_solve as column_woodbury
from test_stepper import _dense_from, march, solved_levels

RUN_DEEP = os.environ.get("HALLAIRE_DEEP", "") == "1"


def _report_line(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def table1_result():
    config = table1_config()
    report = run_study(config)
    return config, report, self_check(config, report=report)


@pytest.fixture(scope="module")
def table2_result():
    config = table2_config()
    report = run_study(config)
    return config, report, self_check(config, report=report)


def test_c1_spatial_table_reproduction(table1_result):
    _, report, result = table1_result
    worst_err = max(c.deviation for c in result.cells if c.column.startswith("err"))
    worst_co = max(c.deviation for c in result.cells if c.column.startswith("co"))
    _report_line(
        1,
        result.passed,
        f"spatial table, {len(result.cells)} cells, worst err dev {worst_err:.2e}, "
        f"worst CO dev {worst_co:.2e}",
    )
    assert result.passed, result.summary()


def test_c2_temporal_table_reproduction(table2_result):
    _, report, result = table2_result
    worst_err = max(c.deviation for c in result.cells if c.column.startswith("err"))
    worst_co = max(c.deviation for c in result.cells if c.column.startswith("co"))
    _report_line(
        2,
        result.passed,
        f"temporal table (default rungs), {len(result.cells)} cells, worst err dev "
        f"{worst_err:.2e}, worst CO dev {worst_co:.2e}",
    )
    assert result.passed, result.summary()


@pytest.fixture(scope="module")
def deep_report():
    return run_study(table2_config(deep=True))


@pytest.mark.skipif(not RUN_DEEP, reason="deep temporal rungs are optional; set HALLAIRE_DEEP=1")
def test_c2_deep_temporal_orders(deep_report):
    # cells down to 1/1280 at the preset tolerances, the two finest rungs by their orders
    order_only = {f"1/{nt}" for nt in TABLE2_ORDER_ONLY_NT}
    rows = tuple(r for r in deep_report.rows if r.step_label not in order_only)
    result = self_check(table2_config(deep=True), report=ConvergenceReport("temporal", "benchmark", rows))
    worst_err = max(c.deviation for c in result.cells if c.column.startswith("err"))
    worst_co = max(c.deviation for c in result.cells if c.column.startswith("co"))
    ok, detail = deep_order_check(deep_report)
    _report_line(2, ok and result.passed, f"deep rungs, {len(result.cells)} cells down to 1/1280, worst err dev "
                 f"{worst_err:.2e}, worst CO dev {worst_co:.2e}; {detail}")
    assert result.passed, result.summary()
    assert ok, detail


@pytest.mark.skipif(not RUN_DEEP, reason="deep temporal rungs are optional; set HALLAIRE_DEEP=1")
def test_c2_finest_rung_does_not_move_with_nx(deep_report):
    # At tau = 1/5120 the spatial error is below 1e-10 from nx = 500 on, so
    # err_C is the temporal error alone and must not change when nx doubles.
    coarse = {r.alpha: r.err_max for r in deep_report.rows if r.step_label == "1/5120"}
    fine = run_study(StudyConfig("temporal", tuple(coarse), ((2000, 5120),)))
    gaps = {r.alpha: abs(r.err_max - coarse[r.alpha]) / coarse[r.alpha] for r in fine.rows}
    ok = max(gaps.values()) <= 0.005
    _report_line(2, ok, "err_C at tau=1/5120, nx=1000 against nx=2000: "
                 + ", ".join(f"alpha={a:g} {g:.2%}" for a, g in gaps.items()))
    assert ok, gaps


@pytest.mark.parametrize(
    "nt", [1280, pytest.param(5120, marks=pytest.mark.skipif(not RUN_DEEP, reason="set HALLAIRE_DEEP=1"))]
)
def test_c2_windowed_history_on_deep_grid(nt):
    # The windowed history changes only the tail of the convolution; the
    # round-off floor of merely reordering the exact sum is about 3.5e-12 here.
    problem = make_problem("benchmark", 0.9)
    grid = Grid1D(1.0, 1.0, 1000, nt)
    windowed, levels = march(problem, grid)
    _, exact = march(problem, grid, windowed=False)
    gap = float(np.max(np.abs(levels - exact)))
    ok = windowed.modes.start > 0 and gap <= 1e-10
    _report_line(2, ok, f"windowed history at nt={nt}: {windowed.kernel.soe.nodes.size} modes, "
                 f"fit error {windowed.kernel.soe.error:.2e}, levels within {gap:.2e} of the exact history")
    assert ok


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_c3_truncation_bound_and_decay(alpha):
    errors = []
    for nsteps in (100, 200, 400):
        tau = 1.0 / nsteps
        kernel = CaputoKernel(alpha, tau)
        ts = np.arange(nsteps + 1) * tau
        hist = ts**3
        worst = 0.0
        for j in range(nsteps):
            err = abs(
                apply_half_layer(hist[: j + 2], kernel, j)
                - caputo_power(3, alpha, (j + 0.5) * tau)
            )
            bound = truncation_bound(alpha, tau, 6.0 * (j + 1) * tau)
            assert err <= 2.0 * bound, (alpha, tau, j)
            worst = max(worst, err)
        errors.append(worst)
    order = np.polyfit(np.log([1 / 100, 1 / 200, 1 / 400]), np.log(errors), 1)[0]
    ok = order >= 2.0 - alpha - 0.1
    _report_line(
        3, ok, f"alpha={alpha}: within 2x bound at every half layer, decay order {order:.3f}"
    )
    assert ok


def test_c4_compact_identity():
    g = Grid1D(1.0, 1.0, 12, 1)
    quartic_gap = np.max(
        np.abs(compact_average(12.0 * g.x**2) - second_difference(g.x**4, g.h))
    )
    errs = []
    hs = [1.0 / 12.0, 1.0 / 24.0, 1.0 / 48.0, 1.0 / 96.0]
    for h in hs:
        x = np.arange(round(1.0 / h) + 1) * h
        v = np.sin(3.0 * math.pi * x)
        errs.append(
            np.max(np.abs(compact_average(-9.0 * math.pi**2 * v) - second_difference(v, h)))
        )
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok = quartic_gap <= 1e-13 and slope >= 3.9
    _report_line(4, ok, f"quartic gap {quartic_gap:.2e}, sine observed order {slope:.3f}")
    assert quartic_gap <= 1e-13
    assert slope >= 3.9


def _random_loaded_batch(rng, mix):
    """Three orders sharing random load points, each with its own random coefficients."""
    zero = lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)))
    positions = np.sort(rng.uniform(0.15, 0.85, size=int(rng.integers(1, 4)))) if mix != "distributed" else ()
    problems = []
    for alpha in (0.1, 0.5, 0.9):
        a, w = rng.uniform(-2.0, 2.0, size=2)
        loads = tuple(
            PointLoad(float(x), lambda x, t, a=a * (k + 1), w=w: a + np.sin(w * x + t)) for k, x in enumerate(positions)
        )
        q = (lambda x, t, a=a, w=w: a * np.cos(w * x) * np.exp(-t)) if mix != "points" else None
        problems.append(ProblemSpec(1.0, 1.0, alpha, float(rng.uniform(0.1, 2.0)), loads, zero, lambda x: 0.0 * x, integral_load=q))
    return problems


def test_c5_woodbury_matches_dense_lu():
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 12))  # interior sizes of grids up to 12 intervals
        lower = rng.uniform(-1.0, 1.0, size=n - 1)
        upper = rng.uniform(-1.0, 1.0, size=n - 1)
        diag = np.empty(n)
        diag[0] = abs(upper[0]) + rng.uniform(0.5, 2.0) if n > 1 else rng.uniform(0.5, 2.0)
        for i in range(1, n - 1):
            diag[i] = abs(lower[i - 1]) + abs(upper[i]) + rng.uniform(0.5, 2.0)
        if n > 1:
            diag[-1] = abs(lower[-1]) + rng.uniform(0.5, 2.0)
        tri = Tridiagonal(lower, diag, upper)
        m = int(rng.integers(0, 4))
        cols = rng.standard_normal((n, m))
        rows = np.zeros((m, n))
        dense = _dense_from(tri, np.zeros((n, 0)), [])
        for k in range(m):
            width = min(4, n)
            start = int(rng.integers(0, n - width + 1))
            rows[k, start : start + width] = rng.standard_normal(width)
            dense += np.outer(cols[:, k], rows[k])
        b = rng.standard_normal(n)
        got = column_woodbury(tri, cols, rows, b)
        want = np.linalg.solve(dense, b)
        scale = max(np.max(np.abs(want)), 1e-30)
        worst = max(worst, np.max(np.abs(got - want)) / scale)
    # the close the march runs: woodbury_solve on the load algebra of real
    # states, a batch of three orders with random load points and coefficients,
    # on one sweep block (nx = 8) and several (40, 200)
    closes = 0
    march_worst = 0.0
    for nx in (8, 40, 200):
        for mix in ("points", "distributed", "both"):
            problems = _random_loaded_batch(rng, mix)
            grid = Grid1D(1.0, 1.0, nx, 40)
            state = SolverState(problems, grid)
            block = _load_block(state, 0)
            cores = [assemble_tridiagonal(grid, p.alpha, p.mu) for p in problems]
            for i in range(block.stop - block.start):
                b = rng.standard_normal((len(problems), nx - 1))
                got = woodbury_solve(state.factor, block.columns[i], block.row_solves[i], block.inverses[i], b)
                for k, core in enumerate(cores):
                    want = np.linalg.solve(_dense_from(core, block.columns[i, k], block.rows[i, k]), b[k])
                    march_worst = max(march_worst, np.max(np.abs(got[k] - want)) / np.max(np.abs(want)))
                    closes += 1
    ok = worst <= 1e-10 and march_worst <= 1e-10
    _report_line(5, ok, f"200 randomized systems, worst relative gap {worst:.2e}; "
                 f"{closes} closes of the march's load blocks, worst relative gap {march_worst:.2e}")
    assert ok


def test_c6_split_identity_and_monotonicity():
    rng = np.random.default_rng(616)
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.05, 0.95))
        tau = float(10 ** rng.uniform(-3, 0))
        kernel = CaputoKernel(alpha, tau)
        hist = rng.standard_normal(int(rng.integers(2, 30))) * 10.0
        smooth, corr = split_half_layer(hist, kernel)
        direct = apply_half_layer(hist, kernel)
        scale = max(abs(smooth), abs(corr), abs(direct), 1e-30)
        worst = max(worst, abs((smooth - corr) - direct) / scale)
    mono_ok = True
    for alpha in np.arange(0.05, 0.96, 0.05):
        w = l1_weight_array(10_000, float(alpha))
        w[0] = 1.0
        mono_ok = mono_ok and bool(np.all(np.diff(w) < 0.0))
    threshold = math.log(1.5) / math.log(3.0)
    above = l1_weight(0, threshold + 0.01) > l1_weight(1, threshold + 0.01)
    below = l1_weight(0, threshold - 0.01) < l1_weight(1, threshold - 0.01)
    ok = worst <= 1e-13 and mono_ok and above and below
    _report_line(
        6,
        ok,
        f"identity residual {worst:.2e}, transformed weights strictly decreasing, "
        f"leading-weight order flips at log3(3/2)",
    )
    assert worst <= 1e-13
    assert mono_ok
    assert above and below


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_c7_residual_gate(alpha):
    rng = np.random.default_rng(717)
    worst = 0.0
    for name in ("benchmark", "integral-load"):
        problem = make_problem(name, alpha)
        for _ in range(100):
            x = float(rng.uniform(0.0, 1.0))
            t = float(rng.uniform(0.0, 1.0))
            worst = max(worst, abs(residual_at(problem, _benchmark_terms(alpha), 3, x, t)))
    ok = worst <= 1e-10
    _report_line(7, ok, f"alpha={alpha}: worst residual {worst:.2e} over bundled problems")
    assert ok


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_c8_homogeneous_stability(alpha):
    zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    problem = ProblemSpec(
        length=1.0,
        final_time=1.0,
        alpha=alpha,
        mu=1.0,
        loads=(),
        forcing=zero,
        initial=lambda x: np.sin(math.pi * np.asarray(x, dtype=float)),
    )
    grid = Grid1D(1.0, 1.0, 50, 200)
    levels = solved_levels(problem, grid)
    sup = float(np.max(np.abs(levels)))
    cap = 10.0 * float(np.max(np.abs(levels[0])))
    ok = sup <= cap
    _report_line(8, ok, f"alpha={alpha}: sup over levels {sup:.4f} <= {cap:.1f}")
    assert ok
