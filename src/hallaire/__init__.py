"""Solver and convergence-study harness for a loaded time-fractional
pseudoparabolic moisture-transfer equation.

The time-fractional derivative is discretized with half-layer L1 convolution
weights, space with a fourth-order compact operator; interior point loads
enter through cubic interpolation and are solved with a Woodbury-corrected
Thomas algorithm.
"""

from .caputo import (
    CaputoKernel,
    apply_half_layer,
    caputo_power,
    check_alpha,
    gamma_const,
    l1_weight,
    l1_weight_array,
    split_half_layer,
    truncation_bound,
)
from .grids import (
    Grid1D,
    convergence_order,
    norm_grad_forward,
    norm_grad_l2,
    norm_l2,
    norm_max,
)
from .problems import (
    PROBLEMS,
    PointLoad,
    ProblemSpec,
    benchmark_problem,
    integral_benchmark_problem,
    make_problem,
    manufactured_problem,
)
from .spatial import (
    LoadStencil,
    build_load_stencil,
    compact_average,
    evaluate_load,
    second_difference,
    simpson_integral,
)
from .stepper import (
    LoadRow,
    SolverState,
    Tridiagonal,
    assemble_load_columns,
    assemble_rhs,
    assemble_tridiagonal,
    solve,
    stability_step_limit,
    step,
    thomas_solve,
    woodbury_solve,
)
from .study import (
    CheckResult,
    ConvergenceReport,
    StudyConfig,
    StudyRow,
    Tolerances,
    deep_order_check,
    emit_report,
    load_reference,
    parse_report,
    run_study,
    self_check,
    table1_config,
    table2_config,
)

__version__ = "0.1.0"

__all__ = [
    "CaputoKernel",
    "CheckResult",
    "ConvergenceReport",
    "Grid1D",
    "LoadRow",
    "LoadStencil",
    "PROBLEMS",
    "PointLoad",
    "ProblemSpec",
    "SolverState",
    "StudyConfig",
    "StudyRow",
    "Tolerances",
    "Tridiagonal",
    "apply_half_layer",
    "assemble_load_columns",
    "assemble_rhs",
    "assemble_tridiagonal",
    "benchmark_problem",
    "build_load_stencil",
    "caputo_power",
    "check_alpha",
    "compact_average",
    "convergence_order",
    "deep_order_check",
    "emit_report",
    "evaluate_load",
    "gamma_const",
    "integral_benchmark_problem",
    "l1_weight",
    "l1_weight_array",
    "load_reference",
    "make_problem",
    "manufactured_problem",
    "norm_grad_forward",
    "norm_grad_l2",
    "norm_l2",
    "norm_max",
    "parse_report",
    "run_study",
    "second_difference",
    "self_check",
    "simpson_integral",
    "solve",
    "split_half_layer",
    "stability_step_limit",
    "step",
    "table1_config",
    "table2_config",
    "thomas_solve",
    "truncation_bound",
    "woodbury_solve",
]
