"""Per-step assembly and solution of the implicit half-layer scheme.

Each step solves a tridiagonal system plus a low-rank correction carrying the
load terms: Thomas elimination inside a Woodbury update, with a dense LU
fallback selectable for cross-validation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .caputo import CaputoKernel, check_alpha, gamma_const
from .grids import Grid1D
from .problems import ProblemSpec
from .spatial import LoadStencil, build_load_stencil, compact_average, second_difference, simpson_weights


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Three-banded matrix stored as lower/main/upper diagonals."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = self.diag * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out


@dataclass(frozen=True, eq=False)
class LoadRow:
    """Sparse row of load weights over the interior unknowns."""

    label: str
    cols: np.ndarray
    weights: np.ndarray

    def dot(self, v) -> float:
        return float(np.dot(self.weights, v[self.cols]))


def thomas_solve(tri: Tridiagonal, b) -> np.ndarray:
    """Solve the tridiagonal system by forward elimination and back substitution."""
    n = tri.n
    b = np.asarray(b, dtype=float)
    if b.size != n:
        raise ValueError(f"right-hand side has length {b.size}, expected {n}")
    lower = tri.lower.tolist()
    diag = tri.diag.tolist()
    upper = tri.upper.tolist()
    rhs = b.tolist()
    cp = [0.0] * (n - 1)
    dp = [0.0] * n
    piv = diag[0]
    if piv == 0.0:
        raise np.linalg.LinAlgError("zero pivot in tridiagonal elimination (row 0)")
    if n > 1:
        cp[0] = upper[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        if piv == 0.0:
            raise np.linalg.LinAlgError(f"zero pivot in tridiagonal elimination (row {i})")
        if i < n - 1:
            cp[i] = upper[i] / piv
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / piv
    x = dp
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return np.asarray(x)


def woodbury_solve(tri: Tridiagonal, columns, rows, b) -> np.ndarray:
    """Solve (T + sum_k U_k W_k^T) x = b.

    Uses one tridiagonal solve per column plus one for the right-hand side,
    closed by a small dense capacitance system.
    """
    y0 = thomas_solve(tri, b)
    m = 0 if columns is None else np.asarray(columns).shape[1]
    if m == 0:
        return y0
    columns = np.asarray(columns, dtype=float)
    if len(rows) != m:
        raise ValueError(f"{m} columns need {m} rows, got {len(rows)}")
    z = np.column_stack([thomas_solve(tri, columns[:, k]) for k in range(m)])
    cap = np.eye(m)
    for a, row in enumerate(rows):
        for k in range(m):
            cap[a, k] += row.dot(z[:, k])
    g = np.array([row.dot(y0) for row in rows])
    try:
        q = np.linalg.solve(cap, g)
    except np.linalg.LinAlgError as exc:
        labels = ", ".join(row.label for row in rows)
        raise np.linalg.LinAlgError(
            f"singular capacitance matrix for load configuration ({labels})"
        ) from exc
    return y0 - z @ q


def assemble_tridiagonal(grid: Grid1D, alpha: float, mu: float) -> Tridiagonal:
    """Constant-in-time implicit operator on the interior unknowns.

    Row i applies ``scale*c0*compact_average - (1/2 + mu/tau)*second_difference``
    to the new level; the resulting matrix is strictly diagonally dominant.
    """
    check_alpha(alpha)
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    beta_c0 = grid.tau ** (-alpha) / math.gamma(2.0 - alpha) * 2.0 ** (alpha - 1.0)
    r = 0.5 + mu / grid.tau
    h2 = grid.h * grid.h
    n = grid.nx - 1
    diag = np.full(n, beta_c0 * 10.0 / 12.0 + r * 2.0 / h2)
    off = beta_c0 / 12.0 - r / h2
    return Tridiagonal(np.full(n - 1, off), diag, np.full(n - 1, off))


def interior_load_row(stencil: LoadStencil, nx: int) -> LoadRow:
    """Stencil weights restricted to interior unknowns (boundary values are zero)."""
    keep = (stencil.nodes >= 1) & (stencil.nodes <= nx - 1)
    return LoadRow(
        f"x={stencil.position:g}",
        stencil.nodes[keep] - 1,
        stencil.weights[keep].copy(),
    )


def _sample(values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return np.broadcast_to(arr, shape)


def assemble_load_columns(state: SolverState, problem: ProblemSpec, t_half: float):
    """Low-rank pieces of the implicit matrix at one half layer.

    Returns dense columns ``U`` (one per load, minus half the compact average
    of the coefficient) and matching sparse rows ``W`` such that the full
    matrix is the tridiagonal core plus sum_k U_k W_k^T.
    """
    grid = state.grid
    x = grid.x
    cols = [-0.5 * compact_average(_sample(ld.coefficient(x, t_half), x.shape)) for ld in problem.loads]
    rows = list(state.load_rows)
    if state.simpson is not None:
        q = _sample(problem.integral_load(x, t_half), x.shape)
        cols.append(np.full(grid.nx - 1, -0.5))
        rows.append(LoadRow("integral", np.arange(grid.nx - 1), (state.simpson * q)[1:-1]))
    if cols:
        columns = np.column_stack(cols)
    else:
        columns = np.zeros((grid.nx - 1, 0))
    return columns, rows


class SolverState:
    """Marching state: stored levels, per-solve constants, and the step index.

    Every stored level keeps exact zeros at the boundary nodes.  The full
    history is retained because the fractional convolution needs it.  The
    tridiagonal core, the interior point-load rows and the Simpson node
    weights of the distributed load do not change in time and are built here
    once.
    """

    def __init__(self, problem: ProblemSpec, grid: Grid1D, backend: str = "woodbury"):
        if backend not in ("woodbury", "dense"):
            raise ValueError(f"unknown backend {backend!r}; choices: woodbury, dense")
        if problem.integral_load is not None and grid.nx % 2 != 0:
            raise ValueError("the distributed load needs an even number of spatial intervals")
        self.grid = grid
        self.backend = backend
        self.kernel = CaputoKernel(problem.alpha, grid.tau, nsteps=grid.nt)
        self.tridiag = assemble_tridiagonal(grid, problem.alpha, problem.mu)
        self.load_rows = tuple(
            interior_load_row(build_load_stencil(ld.position, grid), grid.nx) for ld in problem.loads
        )
        self.simpson = None
        if problem.integral_load is not None:
            self.simpson = simpson_weights(grid.nx, grid.h)
        self.levels = np.zeros((grid.nt + 1, grid.nx + 1))
        y0 = np.array(_sample(problem.initial(grid.x), grid.x.shape))
        y0[0] = 0.0
        y0[-1] = 0.0
        self.levels[0] = y0
        self.j = 0

    @property
    def current(self) -> np.ndarray:
        return self.levels[self.j]


def _history_sum(levels: np.ndarray, w: np.ndarray, j: int) -> np.ndarray:
    # c_0 y^j - sum_{s=0}^{j-1} c_{j-s} (y^{s+1} - y^s) as one weight per
    # stored level: level k carries c_{j-k} - c_{j-k+1}, with c_{j+1} = 0.
    g = np.diff(w[: j + 1][::-1], prepend=0.0)
    return g @ levels[: j + 1]


def assemble_rhs(state: SolverState, problem: ProblemSpec, j: int, load_parts=None) -> np.ndarray:
    """Explicit side of the step from level j to j+1.

    The compact average is linear, so it is applied once to the folded
    history plus the forcing rather than to each stored level.
    """
    if j < 0 or j > state.j:
        raise ValueError(f"history is stored through level {state.j}, requested step at {j}")
    grid = state.grid
    tau = grid.tau
    t_half = (j + 0.5) * tau
    kernel = state.kernel
    f = _sample(problem.forcing(grid.x, t_half), grid.x.shape)
    nodal = kernel.scale * _history_sum(state.levels, kernel.weights(j), j) + f
    b = compact_average(nodal)
    b += (0.5 - problem.mu / tau) * second_difference(state.levels[j], grid.h)
    if load_parts is None:
        load_parts = assemble_load_columns(state, problem, t_half)
    columns, rows = load_parts
    if rows:
        interior = state.levels[j][1:-1]
        ell = np.array([row.dot(interior) for row in rows])
        b -= columns @ ell
    return b


def _dense_matrix(tri: Tridiagonal, columns: np.ndarray, rows) -> np.ndarray:
    n = tri.n
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = tri.diag
    a[idx[:-1], idx[:-1] + 1] = tri.upper
    a[idx[1:], idx[1:] - 1] = tri.lower
    for col, row in zip(columns.T, rows):
        a[:, row.cols] += np.outer(col, row.weights)
    return a


def step(state: SolverState, problem: ProblemSpec) -> SolverState:
    """Advance the state by one time level."""
    grid = state.grid
    j = state.j
    if j >= grid.nt:
        raise ValueError(f"already at the final level {j}")
    t_half = (j + 0.5) * grid.tau
    parts = assemble_load_columns(state, problem, t_half)
    b = assemble_rhs(state, problem, j, load_parts=parts)
    columns, rows = parts
    if state.backend == "dense":
        interior = np.linalg.solve(_dense_matrix(state.tridiag, columns, rows), b)
    else:
        interior = woodbury_solve(state.tridiag, columns, rows, b)
    if not np.isfinite(interior).all():
        raise FloatingPointError(
            f"non-finite values at time level {j + 1} (t = {(j + 1) * grid.tau:g}); "
            f"tau / stability_step_limit = {grid.tau / stability_step_limit(problem):.3g}"
        )
    state.levels[j + 1, 1:-1] = interior
    state.j = j + 1
    return state


def stability_step_limit(problem: ProblemSpec) -> float:
    """Step size below which the energy argument needs no extra smallness.

    Computed from the known branch (2 mu / (gamma l^2))^(1/(1-alpha)); the
    other branch involves constants with no closed numeric form.
    """
    g = gamma_const(problem.alpha)
    base = 2.0 * problem.mu / (g * problem.length**2)
    return base ** (1.0 / (1.0 - problem.alpha))


def _notify(observers, j, t, level):
    for observer in observers:
        try:
            observer(j, t, level)
        except Exception as exc:
            raise RuntimeError(f"observer failed at time level {j}") from exc


def solve(problem: ProblemSpec, grid: Grid1D, observers=(), backend: str = "woodbury") -> SolverState:
    """March all time steps; observers see every stored level in order."""
    if not (
        math.isclose(grid.length, problem.length)
        and math.isclose(grid.final_time, problem.final_time)
    ):
        raise ValueError("grid extents do not match the problem domain")
    limit = stability_step_limit(problem)
    if grid.tau > limit:
        warnings.warn(
            f"time step {grid.tau:g} exceeds the a priori stability threshold {limit:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    state = SolverState(problem, grid, backend=backend)
    _notify(observers, 0, 0.0, state.levels[0])
    for j in range(grid.nt):
        step(state, problem)
        _notify(observers, j + 1, (j + 1) * grid.tau, state.levels[j + 1])
    return state
