"""Self-test of the benchmark's checks: each passes on a real result and
rejects a perturbed one, so none of them is vacuous.

It runs small studies (under half a second on two cores) and the paper
tables themselves; every benchmark run does it before measuring.
"""

from __future__ import annotations

import dataclasses

import checks
from hallaire import stepper, study
from hallaire.grids import Grid1D


def _shift_order(report, index: int, delta: float):
    rows = list(report.rows)
    rows[index] = dataclasses.replace(rows[index], co_max=rows[index].co_max + delta)
    return dataclasses.replace(report, rows=tuple(rows))


def _scale_error(report, index: int, factor: float):
    rows = list(report.rows)
    row = rows[index]
    rows[index] = dataclasses.replace(
        row, err_max=row.err_max * factor, err_l2=row.err_l2 * factor, err_grad=row.err_grad * factor
    )
    return dataclasses.replace(report, rows=tuple(rows))


def run() -> list[tuple[str, bool, str]]:
    """(name, as expected, detail) for every real and perturbed case."""
    cases = []

    def expect(name, want, result):
        ok, detail = result
        cases.append((name, ok == want, detail))

    alpha = 0.5
    temporal = study.StudyConfig(mode="temporal", alphas=(alpha,), ladder=((64, 10), (64, 20), (64, 40)))
    t_report = study.run_study(temporal)
    expect("temporal orders, real", True, checks.temporal_orders(t_report))
    expect("temporal orders, order +0.2", False, checks.temporal_orders(_shift_order(t_report, 2, 0.2)))
    expect("temporal orders, error x2", False, checks.temporal_orders(_scale_error(t_report, 2, 2.0)))

    errs = [row.err_max for row in t_report.rows]
    expect("rate, real", True, checks.rate_from(errs[0], 10, errs[2], 40, alpha))
    expect("rate, fine error x3", False, checks.rate_from(errs[0], 10, 3.0 * errs[2], 40, alpha))
    expect("rate, fine error /3", False, checks.rate_from(errs[0], 10, errs[2] / 3.0, 40, alpha))

    tracker = checks.ClosedFormError(alpha, 64)
    problem = study.make_problem("benchmark", alpha)
    stepper.solve(problem, Grid1D(1.0, 1.0, 64, 10), observers=(tracker,))
    expect("closed form, real", True, checks.matches_closed_form(errs[0], tracker.err_max))
    expect("closed form, error x(1+1e-6)", False, checks.matches_closed_form(errs[0] * (1 + 1e-6), tracker.err_max))

    # At nt = 200 the time error is far below the space error at h = 1/12,
    # so the order from the paper's 1/6 cell is the paper's own, about 3.6.
    spatial = study.StudyConfig(mode="spatial", alphas=(alpha,), ladder=((12, 200),))
    s_report = study.run_study(spatial)
    table1 = study.load_reference("table1")
    expect("spatial orders, real", True, checks.spatial_orders_from(table1, s_report))
    expect("spatial orders, error x2", False, checks.spatial_orders_from(table1, _scale_error(s_report, 0, 2.0)))
    expect("spatial orders, error /2", False, checks.spatial_orders_from(table1, _scale_error(s_report, 0, 0.5)))

    # The paper tables checked against themselves pass; a perturbed cell does not.
    for config, name in ((study.table1_config(), "table1"), (study.table2_config(), "table2")):
        paper = study.load_reference(name)
        last = len(paper.rows) - 1
        expect(f"{name} self-check, paper", True, checks.table_check(config, paper, study.self_check))
        expect(f"{name} self-check, error x1.02", False,
               checks.table_check(config, _scale_error(paper, last, 1.02), study.self_check))
        expect(f"{name} self-check, order +0.2", False,
               checks.table_check(config, _shift_order(paper, last, 0.2), study.self_check))
    return cases
