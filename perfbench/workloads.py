"""The benchmark's workloads: one round of solves and checks each.

A round is the same fixed set of operations every time: the solves of one
study (or one deep solve) and the checks of its output.  Inputs are the
paper's presets and fixed ladders, so every seed gives the same round.  The
program is reached only through ``study.run_study``, ``study.self_check``,
the table presets, ``study.make_problem`` and ``stepper.solve``, always looked
up on the module at call time so the traced run can wrap them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import checks
from hallaire import stepper, study
from hallaire.grids import Grid1D

# Table 1's finest rung at one fractional order: one nt = 10000 solve, so a
# run holds several rounds.  Its order is taken from the paper's 1/12 cell.
# Whole rungs of Table 1 in one round were too slow and too noisy: all nine
# solves take about 48 s, and the two finest rungs on the default pool took
# 10 s in some runs and 15 s in others as the solves traded the interpreter
# lock.  The pool's cost is measured on `wide` and `integral`.
LONG_ALPHA = 0.5
LONG_NX = 24
DEEP_ALPHA = 0.9
DEEP_NX = 1000
DEEP_NT = 1280
# The finest default Table-2 rung, from which the deep rate is scaled.
DEEP_REF_NT = 160
INTEGRAL_NX = 200
INTEGRAL_NT = (10, 20, 40, 80, 160, 320)


@dataclass
class Outcome:
    """Counts and the accuracy figure of one round."""

    solves: int = 0
    solves_failed: int = 0
    checks: int = 0
    checks_failed: int = 0
    node_steps: int = 0
    err_max: float = math.nan
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.solves + self.checks

    @property
    def failed(self) -> int:
        return self.solves_failed + self.checks_failed


def run_check(out: Outcome, name: str, fn, *args) -> None:
    """Run one check, counting it and any failure."""
    out.checks += 1
    try:
        ok, detail = fn(*args)
    except Exception as exc:  # a check that cannot run has failed
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    if not ok:
        out.checks_failed += 1
        out.notes.append(f"check {name} failed: {detail}")


def skip_checks(out: Outcome, names) -> None:
    """Checks whose input was never produced fail."""
    for name in names:
        out.checks += 1
        out.checks_failed += 1
        out.notes.append(f"check {name} failed: no report to check")


def _run_study(out: Outcome, config):
    tasks = [(nx, nt) for _ in config.alphas for nx, nt in config.ladder]
    out.solves += len(tasks)
    try:
        report = study.run_study(config)
    except Exception as exc:
        out.solves_failed += len(tasks)
        out.notes.append(f"run_study failed: {type(exc).__name__}: {exc}")
        return None
    out.node_steps += sum(nt * (nx - 1) for nx, nt in tasks)
    return report


def _solve_closed_form(out: Outcome, problem_name: str, alpha: float, nx: int, nt: int):
    """One ``stepper.solve`` observed by the benchmark's closed-form error tracker."""
    out.solves += 1
    tracker = checks.ClosedFormError(alpha, nx)
    try:
        problem = study.make_problem(problem_name, alpha)
        stepper.solve(problem, Grid1D(problem.length, problem.final_time, nx, nt), observers=(tracker,))
    except Exception as exc:
        out.solves_failed += 1
        out.notes.append(f"solve alpha={alpha:g} nx={nx} nt={nt} failed: {type(exc).__name__}: {exc}")
        return None
    out.node_steps += nt * (nx - 1)
    return tracker


def _finest_err(config, report) -> float:
    nrungs = len(config.ladder)
    return max(report.rows[i * nrungs + nrungs - 1].err_max for i in range(len(config.alphas)))


def _closed_form_check(out: Outcome, w, report) -> None:
    """Recompute the coarsest rung of every order against the closed form."""
    nx, nt = w.config.ladder[0]
    nrungs = len(w.config.ladder)
    pairs = []
    for i, alpha in enumerate(w.config.alphas):
        tracker = _solve_closed_form(out, w.problem, alpha, nx, nt)
        pairs.append((report.rows[i * nrungs].err_max if report else None, tracker))

    def agree():
        bad = []
        for got, tracker in pairs:
            if got is None or tracker is None:
                return False, "a solve or the report is missing"
            ok, detail = checks.matches_closed_form(got, tracker.err_max)
            if not ok:
                bad.append(f"alpha={tracker.alpha:g}: {detail}")
        return not bad, "; ".join(bad) or f"{len(pairs)} coarse rungs match the closed form"

    run_check(out, "closed_form", agree)


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    config: object
    reference: object

    def round(self) -> Outcome:
        return ROUNDS[self.name](self)


def prepare(name: str) -> Workload:
    """Configs and reference tables of a workload: the set-up before its first solve.

    ``self_check`` loads its table before it solves, so loading the table
    belongs to set-up even where the round's ``self_check`` reloads it.
    """
    if name == "long":
        table1 = study.table1_config()
        ladder = tuple(rung for rung in table1.ladder if rung[0] == LONG_NX)
        config = dataclasses.replace(table1, alphas=(LONG_ALPHA,), ladder=ladder)
        return Workload(name, "benchmark", config, study.load_reference("table1"))
    if name == "wide":
        return Workload(name, "benchmark", study.table2_config(), study.load_reference("table2"))
    if name == "deep":
        reference = study.load_reference("table2")
        return Workload(name, "benchmark", None, checks.paper_cell(reference, DEEP_ALPHA, f"1/{DEEP_REF_NT}"))
    if name == "integral":
        config = study.StudyConfig(
            mode="temporal",
            alphas=(0.1, 0.5, 0.9),
            ladder=tuple((INTEGRAL_NX, nt) for nt in INTEGRAL_NT),
            problem="integral-load",
        )
        return Workload(name, "integral-load", config, None)
    raise ValueError(f"unknown workload {name!r}; choices: {', '.join(ROUNDS)}")


def _long(w: Workload) -> Outcome:
    out = Outcome()
    report = _run_study(out, w.config)
    if report is None:
        skip_checks(out, ("table1", "spatial_orders"))
        return out
    run_check(out, "table1", checks.table_check, w.config, report, study.self_check)
    run_check(out, "spatial_orders", checks.spatial_orders_from, w.reference, report)
    out.err_max = _finest_err(w.config, report)
    return out


def _wide(w: Workload) -> Outcome:
    out = Outcome()
    report = _run_study(out, w.config)
    if report is None:
        skip_checks(out, ("table2", "temporal_orders"))
    else:
        run_check(out, "table2", checks.table_check, w.config, report, study.self_check)
        run_check(out, "temporal_orders", checks.temporal_orders, report)
        out.err_max = _finest_err(w.config, report)
    _closed_form_check(out, w, report)
    return out


def _deep(w: Workload) -> Outcome:
    out = Outcome()
    tracker = _solve_closed_form(out, w.problem, DEEP_ALPHA, DEEP_NX, DEEP_NT)
    if tracker is None:
        skip_checks(out, ("deep_rate",))
        return out
    run_check(out, "deep_rate", checks.rate_from, w.reference, DEEP_REF_NT, tracker.err_max, DEEP_NT, DEEP_ALPHA)
    out.err_max = tracker.err_max
    return out


def _integral(w: Workload) -> Outcome:
    out = Outcome()
    report = _run_study(out, w.config)
    if report is None:
        skip_checks(out, ("temporal_orders",))
    else:
        run_check(out, "temporal_orders", checks.temporal_orders, report)
        out.err_max = _finest_err(w.config, report)
    _closed_form_check(out, w, report)
    return out


ROUNDS = {"long": _long, "wide": _wide, "deep": _deep, "integral": _integral}
