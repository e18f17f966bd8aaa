"""Solver and convergence-study harness for a loaded time-fractional
pseudoparabolic moisture-transfer equation.

The time-fractional derivative is discretized with half-layer L1 convolution
weights, space with a fourth-order compact operator; interior point loads
enter through cubic interpolation and are solved with a Woodbury-corrected
Thomas algorithm.

The names below are the documented API (see the README); everything else is
imported from its module, e.g. ``hallaire.stepper.SolverState``.
"""

from .caputo import (
    CaputoKernel,
    apply_half_layer,
    caputo_power,
    l1_weight,
    l1_weight_array,
    split_half_layer,
    truncation_bound,
)
from .grids import Grid1D, convergence_order, norm_grad_forward, norm_l2, norm_max
from .problems import PointLoad, ProblemSpec, benchmark_problem, make_problem, manufactured_problem
from .spatial import compact_average, second_difference
from .stepper import Tridiagonal, solve, woodbury_solve
from .study import (
    StudyConfig,
    deep_order_check,
    emit_report,
    parse_report,
    run_study,
    self_check,
    table1_config,
    table2_config,
)

__version__ = "0.1.0"

__all__ = [
    "CaputoKernel",
    "Grid1D",
    "PointLoad",
    "ProblemSpec",
    "StudyConfig",
    "Tridiagonal",
    "apply_half_layer",
    "benchmark_problem",
    "caputo_power",
    "compact_average",
    "convergence_order",
    "deep_order_check",
    "emit_report",
    "l1_weight",
    "l1_weight_array",
    "make_problem",
    "manufactured_problem",
    "norm_grad_forward",
    "norm_l2",
    "norm_max",
    "parse_report",
    "run_study",
    "second_difference",
    "self_check",
    "solve",
    "split_half_layer",
    "table1_config",
    "table2_config",
    "truncation_bound",
    "woodbury_solve",
]
