"""Per-step assembly and solution of the implicit half-layer scheme.

Each step solves a constant tridiagonal system T plus a low-rank correction
carrying the load terms, by the Woodbury identity, with a dense LU fallback
selectable for cross-validation.  T is factored once per solve.  Each load
has one side that does not change in time (the row of a point load, the
column of the distributed load); it is solved against T once per solve too,
so a step costs one tridiagonal sweep, plus one per distributed load when
point loads are also present.  The factor keeps the Thomas elimination as
block inverses with scalar carries between blocks (a partitioned solver in
the manner of H. H. Wang, ACM TOMS 7(2), 1981), so a sweep is a batched numpy
matvec and a chain over the blocks, not a loop over the unknowns.
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

# Every entry of the distributed load's column: it does not change in time.
INTEGRAL_COLUMN = -0.5

# Rows per block of the blocked tridiagonal inverse (see ThomasFactor).
BLOCK = 32


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

    def dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[self.cols] = self.weights
        return out


@dataclass(frozen=True, eq=False)
class ThomasFactor:
    """Thomas elimination of a tridiagonal matrix, kept as a blocked inverse.

    The matrix is L U with L lower bidiagonal (the pivots on the diagonal)
    and U unit upper bidiagonal (the multipliers above it).  The unknowns are
    cut into K blocks of s = min(n, BLOCK) rows, the last one padded with
    identity rows; block k owns the bidiagonal pieces L_k and U_k and couples
    to its neighbours through one sub-diagonal and one multiplier.  Per block:

    * ``inverse[k]`` is the dense s x s product U_k^{-1} L_k^{-1};
    * ``last_row[k]`` is the last row of L_k^{-1}, which turns the block's
      right-hand side into its last forward unknown;
    * ``forward[k]`` and ``backward[k]`` are the block's solution for a unit
      carry entering from the left (the previous block's last forward
      unknown) and from the right (the next block's first solution entry);
    * ``gain[k]`` scales the left carry into the block's last forward unknown.

    That is n * s + 3 n floats, and a solve is a batched matvec plus two
    scalar chains of length K (see :func:`thomas_solve`).
    """

    matrix: Tridiagonal
    inverse: np.ndarray
    last_row: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    gain: list
    symmetric: bool

    @property
    def n(self) -> int:
        return self.matrix.n

    def transpose(self) -> ThomasFactor:
        """Factor of the transposed matrix; this one when the matrix is symmetric."""
        if self.symmetric:
            return self
        tri = self.matrix
        return thomas_factor(Tridiagonal(tri.upper, tri.diag, tri.lower))


def thomas_factor(tri: Tridiagonal) -> ThomasFactor:
    """Pivots and multipliers of the tridiagonal matrix, folded into blocks."""
    lower = tri.lower.tolist()
    diag = tri.diag.tolist()
    upper = tri.upper.tolist()
    n = len(diag)
    if n == 0:
        raise ValueError("cannot factor an empty tridiagonal matrix")
    piv = [0.0] * n
    cp = [0.0] * (n - 1)
    for i in range(n):
        p = diag[i] - lower[i - 1] * cp[i - 1] if i else diag[0]
        if p == 0.0:
            raise np.linalg.LinAlgError(f"zero pivot in tridiagonal elimination (row {i})")
        piv[i] = p
        if i < n - 1:
            cp[i] = upper[i] / p
    s = min(n, BLOCK)
    k = -(-n // s)
    # Row i of the padded system: pivot, sub-diagonal to row i-1, multiplier
    # to row i+1.  Couplings across a block edge sit in column 0 of ``low``
    # and column s-1 of ``up``.
    p = np.ones(k * s)
    p[:n] = piv
    low = np.zeros(k * s)
    low[1:n] = lower
    up = np.zeros(k * s)
    up[: n - 1] = cp
    p, low, up = (a.reshape(k, s) for a in (p, low, up))
    eye = np.eye(s)
    linv = np.empty((k, s, s))
    linv[:, 0] = eye[0] / p[:, :1]
    for i in range(1, s):
        linv[:, i] = (eye[i] - low[:, i, None] * linv[:, i - 1]) / p[:, i, None]
    uinv = np.empty((k, s, s))
    uinv[:, -1] = eye[-1]
    for i in range(s - 2, -1, -1):
        uinv[:, i] = eye[i] - up[:, i, None] * uinv[:, i + 1]
    inverse = uinv @ linv
    return ThomasFactor(
        matrix=tri,
        inverse=inverse,
        last_row=linv[:, -1].copy(),
        forward=-low[:, :1] * inverse[:, :, 0],
        backward=-up[:, -1:] * uinv[:, :, -1],
        gain=(-low[:, 0] * linv[:, -1, 0]).tolist(),
        symmetric=bool(np.array_equal(tri.lower, tri.upper)),
    )


def thomas_solve(tri, b) -> np.ndarray:
    """Solve the tridiagonal system with the blocked inverse of its factor.

    ``tri`` is the matrix, factored on the spot, or its :class:`ThomasFactor`.
    Each block is solved on its own in one batched matvec; the forward carries
    (each block's last forward unknown) and then the backward carries (each
    block's first solution entry) are chained over the K blocks, and both are
    added back as multiples of the blocks' carry responses.  With one block
    this is a single matvec with the exact inverse.
    """
    b = np.asarray(b, dtype=float)
    if b.size != tri.n:
        raise ValueError(f"right-hand side has length {b.size}, expected {tri.n}")
    factor = tri if isinstance(tri, ThomasFactor) else thomas_factor(tri)
    inverse = factor.inverse
    k, s, _ = inverse.shape
    if k == 1:
        return inverse[0] @ b
    n = b.size
    blocks = np.zeros(k * s)
    blocks[:n] = b
    blocks = blocks.reshape(k, s)
    y = np.matmul(inverse, blocks[:, :, None])[:, :, 0]
    ends = np.einsum("ks,ks->k", factor.last_row, blocks).tolist()
    left = [0.0] * k
    carry = 0.0
    for i, (end, gain) in enumerate(zip(ends, factor.gain)):
        left[i] = carry
        carry = end + gain * carry
    left = np.array(left)
    first = (y[:, 0] + factor.forward[:, 0] * left).tolist()
    back = factor.backward[:, 0].tolist()
    right = [0.0] * k
    carry = 0.0
    for i in range(k - 1, -1, -1):
        right[i] = carry
        carry = first[i] + back[i] * carry
    x = y + factor.forward * left[:, None] + factor.backward * np.array(right)[:, None]
    return x.reshape(-1)[:n]


def _capacitance_solve(cap: np.ndarray, g: np.ndarray, rows) -> np.ndarray:
    try:
        return np.linalg.solve(cap, g)
    except np.linalg.LinAlgError as exc:
        labels = ", ".join(row.label for row in rows)
        raise np.linalg.LinAlgError(
            f"singular capacitance matrix for load configuration ({labels})"
        ) from exc


def woodbury_solve(tri, columns, rows, b, *, row_solves=None, column_solves=None) -> np.ndarray:
    """Solve (T + sum_k U_k W_k^T) x = b.

    ``tri`` is T or its :class:`ThomasFactor`.  A load may come with one side
    already solved against T: ``row_solves[k] = T^{-T} W_k`` or
    ``column_solves[k] = T^{-1} U_k`` (``None`` where not known); an m x n
    array of ``row_solves`` is used as V^T without restacking.  The
    correction is closed from the side that needs fewer new solves, the
    columns on a tie, through the capacitance matrix I + W^T T^{-1} U:

    * rows: cap = I + V^T U, q = cap^{-1} V^T b, x = T^{-1}(b - U q);
    * columns: y = T^{-1} b, cap = I + W^T Z, x = y - Z cap^{-1} W^T y.

    Either way a call costs one tridiagonal sweep plus one per missing solve.
    """
    factor = tri if isinstance(tri, ThomasFactor) else thomas_factor(tri)
    m = 0 if columns is None else np.asarray(columns).shape[1]
    if m == 0:
        return thomas_solve(factor, b)
    columns = np.asarray(columns, dtype=float)
    if len(rows) != m:
        raise ValueError(f"{m} columns need {m} rows, got {len(rows)}")
    b = np.asarray(b, dtype=float)
    if b.size != factor.n:
        raise ValueError(f"right-hand side has length {b.size}, expected {factor.n}")
    v = [None] * m if row_solves is None else list(row_solves)
    z = [None] * m if column_solves is None else list(column_solves)
    need_v = [k for k in range(m) if v[k] is None]
    need_z = [k for k in range(m) if z[k] is None]
    if len(need_v) < len(need_z):
        factor_t = factor.transpose() if need_v else factor
        for k in need_v:
            v[k] = thomas_solve(factor_t, rows[k].dense(factor.n))
        vt = np.array(v) if need_v else np.asarray(row_solves)
        q = _capacitance_solve(np.eye(m) + vt @ columns, vt @ b, rows)
        return thomas_solve(factor, b - columns @ q)
    for k in need_z:
        z[k] = thomas_solve(factor, columns[:, k])
    z = np.column_stack(z)
    wt = np.stack([row.dense(factor.n) for row in rows])
    y0 = thomas_solve(factor, b)
    q = _capacitance_solve(np.eye(m) + wt @ z, wt @ y0, rows)
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
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def assemble_load_columns(state: SolverState, problem: ProblemSpec, t_half: float):
    """Low-rank pieces of the implicit matrix at one half layer.

    Returns dense columns ``U`` (one per load, minus half the compact average
    of the coefficient) and matching sparse rows ``W`` such that the full
    matrix is the tridiagonal core plus sum_k U_k W_k^T.
    """
    x = state.x
    cols = [-0.5 * compact_average(_sample(ld.coefficient(x, t_half), x.shape)) for ld in problem.loads]
    rows = list(state.load_rows)
    if state.simpson is not None:
        q = _sample(problem.integral_load(x, t_half), x.shape)
        cols.append(state.integral_column)
        rows.append(LoadRow("integral", state.integral_cols, (state.simpson * q)[1:-1]))
    if cols:
        columns = np.column_stack(cols)
    else:
        columns = np.zeros((state.grid.nx - 1, 0))
    return columns, rows


class SolverState:
    """Marching state: stored levels, per-solve constants, and the step index.

    Every stored level keeps exact zeros at the boundary nodes.  The full
    history is retained because the fractional convolution needs it.  The
    nodes ``x``, the tridiagonal core and its factor, the interior point-load
    rows, the distributed load's Simpson node weights, constant column and
    interior indices, and the solves of each load's constant side against the
    core do not change in time and are built here once.  ``row_solves`` holds
    the point loads' solves as the rows of one array, or as a tuple ending in
    ``None`` for the distributed load; ``column_solves`` holds ``None`` for
    each point load and the distributed load's column solve.
    """

    def __init__(self, problem: ProblemSpec, grid: Grid1D, backend: str = "woodbury"):
        if backend not in ("woodbury", "dense"):
            raise ValueError(f"unknown backend {backend!r}; choices: woodbury, dense")
        if problem.integral_load is not None and grid.nx % 2 != 0:
            raise ValueError("the distributed load needs an even number of spatial intervals")
        self.grid = grid
        self.x = grid.x
        self.x.flags.writeable = False
        self.backend = backend
        self.kernel = CaputoKernel(problem.alpha, grid.tau, nsteps=grid.nt)
        self.tridiag = assemble_tridiagonal(grid, problem.alpha, problem.mu)
        self.factor = thomas_factor(self.tridiag)
        self.load_rows = tuple(
            interior_load_row(build_load_stencil(ld.position, grid), grid.nx) for ld in problem.loads
        )
        n = grid.nx - 1
        factor_t = self.factor.transpose()
        self.row_solves = np.zeros((len(self.load_rows), n))
        for k, row in enumerate(self.load_rows):
            self.row_solves[k] = thomas_solve(factor_t, row.dense(n))
        self.column_solves = (None,) * len(self.load_rows)
        self.simpson = self.integral_column = self.integral_cols = None
        if problem.integral_load is not None:
            self.simpson = simpson_weights(grid.nx, grid.h)
            self.integral_column = np.full(n, INTEGRAL_COLUMN)
            self.integral_cols = np.arange(n)
            self.row_solves = (*self.row_solves, None)
            self.column_solves += (thomas_solve(self.factor, self.integral_column),)
        self.levels = np.zeros((grid.nt + 1, grid.nx + 1))
        y0 = np.array(_sample(problem.initial(self.x), self.x.shape))
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
    f = _sample(problem.forcing(state.x, t_half), state.x.shape)
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
        interior = woodbury_solve(
            state.factor, columns, rows, b, row_solves=state.row_solves, column_solves=state.column_solves
        )
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
