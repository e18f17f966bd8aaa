"""Correctness checks for the benchmark, made independently of the program.

Every check compares program output with something the program did not
compute: the paper's bundled tables, the closed-form manufactured solution
written out here, or the convergence rates the scheme is proven to have.
Each check returns ``(ok, detail)``; a check that fails counts as a failed
operation of the workload.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Observed orders may leave their theoretical band by this much.
ORDER_SLACK = 0.05
# Spatial orders must lie within this distance of 4; the paper's first order
# (h = 1/6 -> 1/12) is pre-asymptotic at about 3.6.
SPATIAL_ORDER_HALF_WIDTH = 0.5
# Agreement of a reported order with the order recomputed from its errors.
ORDER_AGREEMENT = 1e-9
# Error agreement between the program's error tracker and the closed form.
CLOSED_FORM_RTOL = 1e-9


class ClosedFormError:
    """Observer keeping the max-norm error against (1 + t^3 + t^(2+alpha)) sin(3 pi x),
    the closed-form solution of both bundled problems."""

    def __init__(self, alpha: float, nx: int):
        self.alpha = alpha
        self.x = np.linspace(0.0, 1.0, nx + 1)
        self.profile = np.sin(3.0 * math.pi * self.x)
        self.err_max = 0.0

    def __call__(self, j, t, level):
        tpart = 1.0 + t**3 + t ** (2.0 + self.alpha)
        err = float(np.max(np.abs(level - tpart * self.profile)))
        self.err_max = max(self.err_max, err)


def _column_orders(prev, row):
    """(column, order recomputed from the errors, order the report gives) between two rungs."""
    ratio = Fraction(prev.step_label) / Fraction(row.step_label)
    for name, e0, e1, co in (
        ("co_C", prev.err_max, row.err_max, row.co_max),
        ("co_L2", prev.err_l2, row.err_l2, row.co_l2),
        ("co_grad", prev.err_grad, row.err_grad, row.co_grad),
    ):
        yield name, math.log(e0 / e1) / math.log(ratio), co


def _order_check(pairs, in_band, band: str, reported: bool) -> tuple[bool, str]:
    """Orders between each (coarser, finer) pair of rows lie in the band.

    With ``reported`` the finer row's own orders must also equal the
    recomputed ones.
    """
    bad = []
    count = 0
    for prev, row in pairs:
        for name, order, co in _column_orders(prev, row):
            count += 1
            where = f"alpha={row.alpha:g} step={row.step_label} {name}"
            if not in_band(order, row.alpha):
                bad.append(f"{where}={order:.4f} outside {band}")
            if reported and (co is None or abs(co - order) > ORDER_AGREEMENT):
                bad.append(f"{where}: report gives {co}, errors give {order:.6f}")
    if count == 0:
        return False, "no pair of rungs to take an order from"
    return not bad, f"{count} orders in {band}" if not bad else "; ".join(bad)


def _near_four(order: float, alpha: float) -> bool:
    return abs(order - 4.0) <= SPATIAL_ORDER_HALF_WIDTH


def spatial_orders_from(reference, report) -> tuple[bool, str]:
    """Each reported rung's order from the reference's rung at twice its step lies near 4."""
    index = {(f"{r.alpha:g}", Fraction(r.step_label)): r for r in reference.rows}
    pairs = []
    for row in report.rows:
        coarse = index.get((f"{row.alpha:g}", 2 * Fraction(row.step_label)))
        if coarse is None:
            return False, f"the reference has no rung at twice the step {row.step_label}"
        pairs.append((coarse, row))
    return _order_check(pairs, _near_four, f"4 +- {SPATIAL_ORDER_HALF_WIDTH:g}", reported=False)


def temporal_order_ok(co: float, alpha: float) -> bool:
    return 2.0 - alpha - ORDER_SLACK <= co <= 2.0 + ORDER_SLACK


def temporal_orders(report) -> tuple[bool, str]:
    """Every observed order of every error column lies in [2 - alpha, 2]."""
    pairs = [(prev, row) for prev, row in zip(report.rows, report.rows[1:]) if prev.alpha == row.alpha]
    return _order_check(pairs, temporal_order_ok, f"[2-alpha, 2] +- {ORDER_SLACK:g}", reported=True)


def rate_from(err_coarse: float, nt_coarse: int, err_fine: float, nt_fine: int,
              alpha: float) -> tuple[bool, str]:
    """The error fell from the coarse to the fine step at an order in [2 - alpha, 2]."""
    if not (err_coarse > 0.0 and err_fine > 0.0 and math.isfinite(err_coarse) and math.isfinite(err_fine)):
        return False, f"errors must be positive and finite: {err_coarse!r}, {err_fine!r}"
    order = math.log(err_coarse / err_fine) / math.log(nt_fine / nt_coarse)
    ok = temporal_order_ok(order, alpha)
    return ok, (f"order {order:.4f} from nt={nt_coarse} (err {err_coarse:.6e}) to "
                f"nt={nt_fine} (err {err_fine:.6e}), band [{2 - alpha - ORDER_SLACK:g}, {2 + ORDER_SLACK:g}]")


def matches_closed_form(report_err: float, independent_err: float) -> tuple[bool, str]:
    """The program's reported error equals the error recomputed here."""
    dev = abs(report_err - independent_err) / independent_err
    return dev <= CLOSED_FORM_RTOL, f"report {report_err:.12e} vs closed form {independent_err:.12e} (dev {dev:.1e})"


def table_check(config, report, self_check) -> tuple[bool, str]:
    """The program's own self-check against its bundled paper table."""
    result = self_check(config, report=report)
    if result.passed:
        return True, f"self-check passed on {len(result.cells)} cells"
    return False, "; ".join(
        f"alpha={c.alpha:g} {c.step} {c.column} got {c.got:.6e} want {c.want:.6e}"
        for c in result.failures()
    )


def paper_cell(reference, alpha: float, step_label: str) -> float:
    """err_C of one row of a paper table."""
    for row in reference.rows:
        if f"{row.alpha:g}" == f"{alpha:g}" and row.step_label == step_label:
            return row.err_max
    raise ValueError(f"the reference has no row for alpha={alpha:g}, step={step_label}")
