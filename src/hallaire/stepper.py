"""Per-step assembly and solution of the implicit half-layer scheme.

Each step solves for the increment y^{j+1} - y^j (the delta form of Beam &
Warming, AIAA J. 16(4), 1978) a constant tridiagonal system T plus a low-rank
load correction, by the Woodbury identity.  T is factored once per solve.
Each load has one side that does not change in time (the row of a point
load, the column of the distributed load); it is solved against T once per
solve too.  The rest of the correction depends on time but not on the
solution, so it is built for LOAD_BLOCK steps at a time (a :class:`LoadBlock`:
the columns, the rows and the inverted capacitance matrices), and a step
costs one tridiagonal sweep and a few small products.  The factor keeps the
Thomas elimination as block inverses with scalar carries between blocks (a
partitioned solver in the manner of H. H. Wang, ACM TOMS 7(2), 1981), so a
sweep is a batched numpy matvec and a chain over the blocks, not a loop over
the unknowns.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .caputo import CaputoKernel, HistoryModes, check_alpha, gamma_const, history_rows
from .grids import Grid1D
from .problems import ProblemSpec
from .spatial import LoadStencil, build_load_stencil, compact_average, second_difference, simpson_weights

# Every entry of the distributed load's column: it does not change in time.
INTEGRAL_COLUMN = -0.5

# Rows per block of the blocked tridiagonal inverse (see ThomasFactor).
BLOCK = 32

# Steps per load block: their time-only load algebra is built together (see LoadBlock).
LOAD_BLOCK = 32

# Bytes of point-load samples stacked for one compact average while a block
# is built.  A small grid averages its whole block in one call (three loads
# at nx = 24), where the per-call cost matters; a wide one fewer half layers
# at a time (one at nx = 1000), so that the block's samples and their
# averages, 0.77 MB each there, are never held at once.
SAMPLE_BYTES = 1 << 15


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Three-banded matrix stored as lower/main/upper diagonals."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size


@dataclass(frozen=True, eq=False)
class LoadRow:
    """Sparse row of load weights over the interior unknowns."""

    label: str
    cols: np.ndarray
    weights: np.ndarray

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

    @property
    def n(self) -> int:
        return self.matrix.n


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


def _dense_rows(rows, n: int) -> np.ndarray:
    """Sparse load rows as the rows of one dense m x n array."""
    return np.array([row.dense(n) for row in rows]).reshape(len(rows), n)


def _singular(labels, where: str = "") -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(
        f"singular capacitance matrix for load configuration ({', '.join(labels)}){where}"
    )


@dataclass(frozen=True, eq=False)
class LoadBlock:
    """The time-only load algebra of the steps ``start .. stop - 1``.

    Step j = start + i solves (T + U_j W_j^T) x = b with the dense columns
    ``columns[i]`` = U_j (n x m), the dense rows ``rows[i]`` = W_j^T (m x n)
    and ``inverses[i]``, the inverse of the capacitance matrix
    I + W_j^T T^{-1} U_j.  The correction is closed from the row solves
    ``row_solves[i]`` = W_j^T T^{-1}, the rows solved against the symmetric
    core (point loads, with or without the distributed load), or, when
    ``row_solves`` is ``None``, from the column solves ``column_solves`` =
    T^{-1} U, which must then be the same at every step (the distributed load
    alone, or the one step of :func:`woodbury_solve`).  None of it depends on
    the solution.
    """

    start: int
    stop: int
    columns: np.ndarray
    rows: np.ndarray
    inverses: np.ndarray
    row_solves: np.ndarray | None
    column_solves: np.ndarray | None

    def close(self, factor: ThomasFactor, i: int, b: np.ndarray) -> np.ndarray:
        """Solve step ``start + i``'s system, in one tridiagonal sweep.

        From the rows: q = cap^{-1} V^T b, then x = T^{-1}(b - U q).  From the
        columns: y = T^{-1} b, then x = y - Z cap^{-1} W^T y.
        """
        if self.row_solves is not None:
            return thomas_solve(factor, b - self.columns[i] @ (self.inverses[i] @ (self.row_solves[i] @ b)))
        y = thomas_solve(factor, b)
        return y - self.column_solves @ (self.inverses[i] @ (self.rows[i] @ y))


def _closing_block(start: int, columns, rows, row_solves=None, column_solves=None) -> LoadBlock:
    """A :class:`LoadBlock` over the stacked sides, with its capacitance inverses.

    The capacitance matrices are formed with one batched product and
    inverted with one batched inverse.  The block stops before the first
    singular one, so it is empty when the first is.  A matrix with
    non-finite entries is not singular here: its inverse is non-finite, and
    the step's finite check reports it.
    """
    cap = row_solves @ columns if column_solves is None else rows @ column_solves
    diag = np.arange(cap.shape[-1])
    cap[:, diag, diag] += 1.0
    try:
        inverses = np.linalg.inv(cap)
    except np.linalg.LinAlgError:
        kept = []
        for one in cap:
            try:
                kept.append(np.linalg.inv(one))
            except np.linalg.LinAlgError:
                break
        inverses = np.array(kept).reshape(len(kept), *cap.shape[1:])
    return LoadBlock(start, start + len(inverses), columns, rows, inverses, row_solves, column_solves)


def woodbury_solve(tri, columns, rows, b) -> np.ndarray:
    """Solve (T + sum_k U_k W_k^T) x = b.

    ``tri`` is T or its :class:`ThomasFactor`, which need not be symmetric.
    The correction is closed from the column solves Z = T^{-1} U, one sweep
    per load, through the capacitance matrix cap = I + W^T Z: y = T^{-1} b,
    x = y - Z cap^{-1} W^T y.  The call is a one-step :class:`LoadBlock`: the
    capacitance is inverted and the correction closed as in every step of
    the march.
    """
    factor = tri if isinstance(tri, ThomasFactor) else thomas_factor(tri)
    n = factor.n
    columns = np.asarray(columns, dtype=float)
    if columns.shape != (n, len(rows)):
        raise ValueError(f"load columns have shape {columns.shape}, expected ({n}, {len(rows)}): one per row")
    for row in rows:
        if not np.all((np.asarray(row.cols) >= 0) & (np.asarray(row.cols) < n)):
            raise ValueError(f"load row {row.label} has columns outside 0..{n - 1}")
    if not rows:
        return thomas_solve(factor, b)
    z = np.column_stack([thomas_solve(factor, u) for u in columns.T])
    block = _closing_block(0, columns[None], _dense_rows(rows, factor.n)[None], column_solves=z)
    if block.stop == 0:
        raise _singular([row.label for row in rows])
    return block.close(factor, 0, b)


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


def _load_samples(state: SolverState, problem: ProblemSpec, times):
    """Load columns and distributed-load row weights at the given half layers.

    Returns the columns as one ``(len(times), n, m)`` array, the point loads
    first (minus half the compact average of each coefficient) and then the
    distributed load's constant column, and the distributed load's interior
    Simpson-weighted samples as a ``(len(times), n)`` array, or ``None``.
    Each evaluator is called once per half layer, with a scalar time.  The
    point loads' samples are stacked and averaged in one call per
    SAMPLE_BYTES of samples, straight into the columns.
    """
    x = state.x
    count = len(times)
    columns = np.empty((count, len(problem.loads), x.size - 2))
    if problem.loads:
        per = max(1, SAMPLE_BYTES // (8 * len(problem.loads) * x.size))
        for lo in range(0, count, per):
            q = np.array([[_sample(ld.coefficient(x, t), x.shape) for ld in problem.loads] for t in times[lo : lo + per]])
            columns[lo : lo + per] = -0.5 * compact_average(q)
    columns = np.swapaxes(columns, 1, 2)
    if state.simpson is None:
        return columns, None
    columns = np.concatenate((columns, np.full((count, x.size - 2, 1), INTEGRAL_COLUMN)), axis=2)
    q = np.array([_sample(problem.integral_load(x, t), x.shape) for t in times])
    return columns, (state.simpson * q)[:, 1:-1]


def assemble_load_columns(state: SolverState, problem: ProblemSpec, t_half: float):
    """Low-rank pieces of the implicit matrix at one half layer.

    Returns dense columns ``U`` (one per load, minus half the compact average
    of the coefficient) and matching sparse rows ``W`` such that the full
    matrix is the tridiagonal core plus sum_k U_k W_k^T.  These are one half
    layer of the samples a :class:`LoadBlock` is built from.
    """
    columns, weights = _load_samples(state, problem, (t_half,))
    rows = list(state.load_rows)
    if weights is not None:
        rows.append(LoadRow("integral", np.arange(weights.shape[1]), weights[0]))
    return columns[0], rows


def _load_block(state: SolverState, problem: ProblemSpec, start: int) -> LoadBlock:
    """Load algebra of the steps from ``start`` up to the next multiple of LOAD_BLOCK.

    The block ends at the last step, ``nt - 1``, so no load is evaluated past
    the final level.  Point-load rows and their row solves are the state's
    constants; a distributed load's rows are its samples, and with point
    loads beside it each of its rows is solved against T here, one sweep
    per step.  A capacitance matrix that is singular at the first step
    raises; one that is singular at a later step ends the block before it.
    """
    grid = state.grid
    stop = min((start // LOAD_BLOCK + 1) * LOAD_BLOCK, grid.nt)
    columns, weights = _load_samples(state, problem, [(j + 0.5) * grid.tau for j in range(start, stop)])
    count = stop - start
    rows = np.broadcast_to(state.point_rows, (count, *state.point_rows.shape))
    row_solves = np.broadcast_to(state.row_solves, rows.shape)
    column_solves = None
    if weights is not None:
        rows = np.concatenate((rows, weights[:, None]), axis=1)
        if len(state.load_rows):
            row_solves = np.concatenate(
                (row_solves, np.array([thomas_solve(state.factor, w) for w in weights])[:, None]), axis=1
            )
        else:
            row_solves, column_solves = None, state.integral_solve[:, None]
    block = _closing_block(start, columns, rows, row_solves, column_solves)
    if block.stop == start:
        labels = [row.label for row in state.load_rows] + ["integral"] * (weights is not None)
        raise _singular(labels, f" at time level {start + 1} (t = {(start + 1) * grid.tau:g})")
    return block


def _check_size(grid: Grid1D) -> None:
    """Refuse a grid whose stored increments and factor cannot fit in this machine's memory."""
    n = grid.nx - 1
    need = 8 * (history_rows(grid.nt) * (grid.nx + 1) + 3 * n * min(n, BLOCK))
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ValueError(
            f"a solve on {grid.nx} intervals and {grid.nt} steps needs {need:.3g} bytes for its "
            f"stored increments and factor, more than the {have:.3g} bytes of memory here"
        )


class SolverState:
    """Marching state: the increments a step reads, per-solve constants, and the step index.

    ``level`` is y^j, the running sum of y^0 and the increments y^{s+1} - y^s;
    row i of ``increments`` holds the one at s = start + i, in
    :func:`~hallaire.caputo.history_rows` rows, and ``start`` is the checkpoint
    of ``modes``, the :class:`HistoryModes` that carry the older increments.
    The nodes ``x``, the factor of the tridiagonal core (the core itself is
    ``factor.matrix``), the interior point-load rows (sparse as ``load_rows``,
    dense as the rows of ``point_rows``) with their solves against the core
    (``row_solves``), and the distributed load's Simpson node weights and
    constant column solved against the core (``integral_solve``) do not change
    in time and are built here once.
    ``block`` is the :class:`LoadBlock` of the current steps, ``None`` until
    the first step.  A grid too large for this machine's memory is refused
    with a ``ValueError`` before anything is allocated.
    """

    def __init__(self, problem: ProblemSpec, grid: Grid1D):
        if problem.integral_load is not None and grid.nx % 2 != 0:
            raise ValueError("the distributed load needs an even number of spatial intervals")
        _check_size(grid)
        self.grid = grid
        self.x = grid.x
        self.x.flags.writeable = False
        self.kernel = CaputoKernel(problem.alpha, grid.tau, nsteps=grid.nt)
        self.factor = thomas_factor(assemble_tridiagonal(grid, problem.alpha, problem.mu))
        self.load_rows = tuple(
            interior_load_row(build_load_stencil(ld.position, grid), grid.nx) for ld in problem.loads
        )
        n = grid.nx - 1
        self.point_rows = _dense_rows(self.load_rows, n)
        # assemble_tridiagonal builds T with lower == upper, so T^{-T} W = T^{-1} W:
        # the load rows here and in _load_block are solved with the factor of T
        self.row_solves = np.zeros((len(self.load_rows), n))
        for k, row in enumerate(self.point_rows):
            self.row_solves[k] = thomas_solve(self.factor, row)
        self.simpson = self.integral_solve = None
        if problem.integral_load is not None:
            self.simpson = simpson_weights(grid.nx, grid.h)
            self.integral_solve = thomas_solve(self.factor, np.full(n, INTEGRAL_COLUMN))
        self.increments = np.zeros((history_rows(grid.nt), grid.nx + 1))
        self.modes = HistoryModes(self.kernel)
        self.level = np.array(_sample(problem.initial(self.x), self.x.shape))
        self.level[[0, -1]] = 0.0
        self.level.flags.writeable = False
        self.block = None
        self.j = 0


def _history_sum(increments: np.ndarray, kernel: CaputoKernel, j: int, modes: HistoryModes) -> np.ndarray:
    # D = -sum_{s<j} c_{j-s} delta^s: rows 0..j-S-1, from the checkpoint S on, exactly; older ones from the modes.
    start = modes.catch_up(increments, j)
    out = -(kernel.increment_weights(j - start) @ increments[: j - start])
    return out + modes.tail(j) if start else out


def assemble_rhs(state: SolverState, problem: ProblemSpec, j: int, load_parts=None) -> np.ndarray:
    """r = compact(scale D + f) + Delta_h y^j - 2 U (W^T y^j) of the step's (T + U W^T) delta^j = r.

    D is :func:`_history_sum`; the compact average is linear, so it is applied
    once.  ``load_parts = (U, W^T)``, both dense, are by default assembled at
    the step's half layer.  Only the step from level ``state.j`` is assembled.
    """
    if j != state.j:
        raise ValueError(f"the state holds level {state.j}, requested step at {j}")
    grid = state.grid
    t_half = (j + 0.5) * grid.tau
    kernel = state.kernel
    f = _sample(problem.forcing(state.x, t_half), state.x.shape)
    nodal = kernel.scale * _history_sum(state.increments, kernel, j, state.modes) + f
    b = compact_average(nodal)
    b += second_difference(state.level, grid.h)
    if load_parts is None:
        columns, rows = assemble_load_columns(state, problem, t_half)
        load_parts = columns, _dense_rows(rows, columns.shape[0])
    columns, rows = load_parts
    b += columns @ (-2.0 * (rows @ state.level[1:-1]))
    return b


def step(state: SolverState, problem: ProblemSpec) -> SolverState:
    """Advance the state by one time level.

    The step's load algebra comes from ``state.block``, which is built at the
    first step and again at every step whose index is a multiple of
    LOAD_BLOCK (see :func:`_load_block`).  The load evaluators are therefore
    called up to LOAD_BLOCK - 1 half layers ahead of the step: one that
    raises at a later half layer of a block raises while the block is built,
    before that block's earlier steps are taken.  A non-finite level, from a
    NaN coefficient among other causes, and a singular capacitance matrix are
    both reported at the step they belong to.
    """
    grid = state.grid
    j = state.j
    if j >= grid.nt:
        raise ValueError(f"already at the final level {j}")
    block = state.block
    if block is None or not block.start <= j < block.stop:
        # drop the finished block first, so that two are never held at once
        state.block = None
        block = state.block = _load_block(state, problem, j)
    i = j - block.start
    b = assemble_rhs(state, problem, j, load_parts=(block.columns[i], block.rows[i]))
    delta = block.close(state.factor, i, b)
    if not np.isfinite(delta).all():
        raise FloatingPointError(
            f"non-finite values at time level {j + 1} (t = {(j + 1) * grid.tau:g}); "
            f"tau / stability_step_limit = {grid.tau / stability_step_limit(problem):.3g}"
        )
    row = state.increments[j - state.modes.start]
    row[1:-1] = delta
    state.level = state.level + row
    state.level.flags.writeable = False
    state.j = j + 1
    return state


def stability_step_limit(problem: ProblemSpec) -> float:
    """Step size below which the energy argument needs no extra smallness.

    Computed from the known branch (2 mu / (gamma l^2))^(1/(1-alpha)); the
    other branch involves constants with no closed numeric form.
    """
    g = gamma_const(problem.alpha)
    base = 2.0 * problem.mu / (g * problem.length**2)
    try:
        return base ** (1.0 / (1.0 - problem.alpha))
    except OverflowError:
        return math.inf


def _notify(observers, j, t, level):
    for observer in observers:
        try:
            observer(j, t, level)
        except Exception as exc:
            raise RuntimeError(f"observer failed at time level {j}") from exc


def solve(problem: ProblemSpec, grid: Grid1D, observers=()) -> SolverState:
    """March all time steps; observers see every level in order, the only place past levels can be read."""
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
    state = SolverState(problem, grid)
    _notify(observers, 0, 0.0, state.level)
    for j in range(grid.nt):
        step(state, problem)
        _notify(observers, j + 1, (j + 1) * grid.tau, state.level)
    return state
