"""Per-step assembly and solution of the implicit half-layer scheme.

Each step solves for the increment y^{j+1} - y^j (the delta form of Beam &
Warming, AIAA J. 16(4), 1978) a constant tridiagonal system T plus a low-rank
load correction, by the Woodbury identity.  T is factored once per solve.
Every step is closed from its load rows solved against T, which is
symmetric.  A point load's row does not change in time, so it is solved once
per solve too.  The rest of the correction depends on time but not on the
solution, so it is built for LOAD_BLOCK steps at a time (a
:class:`LoadBlock`: the columns, the rows with the distributed load's solved
in one sweep per block, and the inverted capacitance matrices, with the
forcing and the loads' offsets sampled alongside), and a step costs one
tridiagonal sweep and a few small products.  The factor keeps the Thomas
elimination as block inverses with carries between blocks (a partitioned
solver in the manner of H. H. Wang, ACM TOMS 7(2), 1981).  The carries
obey a first-order linear recurrence over the blocks, so they are applied
as two precomputed K x K maps, as in Stone's recursive doubling (J. ACM
20(1), 1973): a sweep is a batched matvec and two small products, with no
loop.

Each layer of a step has one route: :func:`assemble_load_columns` samples a
block's loads and forcing, :func:`assemble_rhs` forms the right-hand side
with the history sum, :func:`woodbury_solve` closes the load correction and
:func:`thomas_solve` sweeps the factor.

A march is over a batch of B problems on one grid, one per fractional order
of a study rung, stepped in lockstep: every array of the state has a leading
batch axis, and a single solve is the batch of one.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .caputo import HistoryModes, KernelStack, check_alpha, gamma_const, history_rows
from .grids import Grid1D
from .problems import ProblemSpec
from .spatial import build_load_stencil, compact_average, second_difference, simpson_weights

# Every entry of the distributed load's column: it does not change in time.
INTEGRAL_COLUMN = -0.5

# Rows per block of the blocked tridiagonal inverse (see ThomasFactor).
BLOCK = 32

# Steps per load block: their time-only load algebra is built together (see LoadBlock).
LOAD_BLOCK = 32

# Bytes of load columns, load offsets and forcing rows one load block holds
# for the whole batch.  A block covers LOAD_BLOCK steps, or fewer where that
# would be more: one problem at nx = 1000 with three point loads fills 32
# steps (0.98 MiB), the three orders of a Table 2 rung 10 steps, where 32
# held 3 MiB.
BLOCK_BYTES = 1 << 20

# Bytes of point-load samples stacked for one compact average while a block
# is built; the coefficients are called once per chunk of half layers this
# size.  A small grid samples and averages its whole block in one call (three
# loads at nx = 24), where the per-call cost matters; a wide one fewer half
# layers at a time (one at nx = 1000), so that the block's samples, 0.77 MB
# there, are never held beside the columns they are averaged into.
SAMPLE_BYTES = 1 << 15


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Three-banded matrix stored as lower/main/upper diagonals.

    The diagonals may carry leading batch axes: a stack of matrices of one size.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[-1]


@dataclass(frozen=True, eq=False)
class ThomasFactor:
    """Thomas elimination of a tridiagonal matrix of ``n`` rows, kept as a blocked inverse.

    The matrix is L U with L lower bidiagonal (the pivots on the diagonal)
    and U unit upper bidiagonal (the multipliers above it).  The unknowns are
    cut into K blocks of s = min(n, BLOCK) rows, the last one padded with
    identity rows; block k owns the bidiagonal pieces L_k and U_k and couples
    to its neighbours through one sub-diagonal and one multiplier.  Per block:

    * ``inverse[k]`` is the dense s x s product U_k^{-1} L_k^{-1}; with more
      than one block, the last row of L_k^{-1} rides below it as row s, and
      turns the block's right-hand side into its last forward unknown;
    * ``forward[k]`` and ``backward[k]`` are the block's solution for a unit
      carry entering from the left (the previous block's last forward
      unknown) and from the right (the next block's first solution entry).

    The carries chain over the blocks, each the previous one times a gain
    plus the block's own part.  ``left`` and ``right`` are those chains as
    K x K maps: ``left[i, l]`` is the product of the forward gains of blocks
    l+1..i-1, the weight of block l's last forward unknown in the carry into
    block i, and ``right[i, l]`` the product of the backward gains of blocks
    i+1..l-1, the weight of block l's first solution entry in the carry into
    block i.  Each product is taken in the order the chain would take it.

    A factor of a stacked :class:`Tridiagonal` stacks every array on the
    same leading axes.  That is about n (s + 3) + 2 K^2 floats per matrix,
    and a solve is one batched matvec and two K x K products (see
    :func:`thomas_solve`).
    """

    n: int
    inverse: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _pivots(lower: list, diag: list, upper: list) -> tuple[list, list]:
    """Pivots and multipliers of one tridiagonal matrix, in Python floats."""
    n = len(diag)
    piv = [0.0] * n
    cp = [0.0] * (n - 1)
    for i in range(n):
        p = diag[i] - lower[i - 1] * cp[i - 1] if i else diag[0]
        if p == 0.0:
            raise np.linalg.LinAlgError(f"zero pivot in tridiagonal elimination (row {i})")
        piv[i] = p
        if i < n - 1:
            cp[i] = upper[i] / p
    return piv, cp


def thomas_factor(tri: Tridiagonal) -> ThomasFactor:
    """Pivots and multipliers of the tridiagonal matrix, or of each of a stack, folded into blocks."""
    lower, diag, upper = (np.asarray(a, dtype=float) for a in (tri.lower, tri.diag, tri.upper))
    batch, n = diag.shape[:-1], diag.shape[-1]
    if n == 0:
        raise ValueError("cannot factor an empty tridiagonal matrix")
    s = min(n, BLOCK)
    k = -(-n // s)
    # Row i of the padded system: pivot, sub-diagonal to row i-1, multiplier
    # to row i+1.  Couplings across a block edge sit in column 0 of ``low``
    # and column s-1 of ``up``.
    p = np.ones(batch + (k * s,))
    low = np.zeros(batch + (k * s,))
    up = np.zeros(batch + (k * s,))
    low[..., 1:n] = lower
    for at in np.ndindex(batch):
        p[at][:n], up[at][: n - 1] = _pivots(lower[at].tolist(), diag[at].tolist(), upper[at].tolist())
    p, low, up = (a.reshape(batch + (k, s)) for a in (p, low, up))
    eye = np.eye(s)
    linv = np.empty(batch + (k, s, s))
    linv[..., 0, :] = eye[0] / p[..., :1]
    for i in range(1, s):
        linv[..., i, :] = (eye[i] - low[..., i, None] * linv[..., i - 1, :]) / p[..., i, None]
    uinv = np.empty(batch + (k, s, s))
    uinv[..., -1, :] = eye[-1]
    for i in range(s - 2, -1, -1):
        uinv[..., i, :] = eye[i] - up[..., i, None] * uinv[..., i + 1, :]
    inverse = uinv @ linv
    forward = -low[..., :1] * inverse[..., :, 0]
    backward = -up[..., -1:] * uinv[..., :, -1]
    gain = -low[..., 0] * linv[..., -1, 0]
    back = backward[..., 0]
    left = np.zeros(batch + (k, k))
    for i in range(1, k):
        left[..., i, : i - 1] = left[..., i - 1, : i - 1] * gain[..., i - 1, None]
        left[..., i, i - 1] = 1.0
    right = np.zeros(batch + (k, k))
    for i in range(k - 2, -1, -1):
        right[..., i, i + 2 :] = back[..., i + 1, None] * right[..., i + 1, i + 2 :]
        right[..., i, i + 1] = 1.0
    if k > 1:
        inverse = np.concatenate((inverse, linv[..., -1:, :]), axis=-2)
    return ThomasFactor(n, inverse, forward, backward, left, right)


def thomas_solve(factor: ThomasFactor, b) -> np.ndarray:
    """Solve the tridiagonal system with the blocked inverse of its :class:`ThomasFactor`.

    ``b`` holds right-hand sides along its last axis; its leading axes
    broadcast against those of a stacked factor.  Each block is solved on
    its own in one batched matvec, which also gives each block's last
    forward unknown; ``left`` turns those into the forward carries, and
    ``right`` the blocks' first solution entries into the backward carries,
    both added back as multiples of the blocks' carry responses.  With one
    block this is a single matvec with the exact inverse.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[-1:] != (factor.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected length {factor.n} along its last axis")
    inverse = factor.inverse
    k, s = inverse.shape[-3], inverse.shape[-1]
    if k == 1:
        return np.matvec(inverse[..., 0, :, :], b)
    n = b.shape[-1]
    blocks = np.zeros(b.shape[:-1] + (k * s,))
    blocks[..., :n] = b
    y = np.matvec(inverse, blocks.reshape(b.shape[:-1] + (k, s)))
    left = np.matvec(factor.left, y[..., s])
    right = np.matvec(factor.right, y[..., 0] + factor.forward[..., 0] * left)
    x = y[..., :s] + factor.forward * left[..., None] + factor.backward * right[..., None]
    return x.reshape(x.shape[:-2] + (k * s,))[..., :n]


@dataclass(frozen=True, eq=False)
class LoadBlock:
    """The time-only load algebra of the steps ``start .. stop - 1``.

    Step j = start + i solves (T + U_j W_j^T) x = b with the dense columns
    ``columns[i]`` = U_j (n x m), the dense rows ``rows[i]`` = W_j^T (m x n)
    and ``inverses[i]``, the inverse of the capacitance matrix
    I + W_j^T T^{-1} U_j, closed from the row solves ``row_solves[i]`` =
    W_j^T T^{-1}, the rows solved against the symmetric core; the step hands
    these to :func:`woodbury_solve`.  ``forcing[i]`` is the forcing at every
    node at the step's half layer, and ``offsets[i]`` the loads' offsets g_j
    there (zero for a problem without ``load_offsets``): the loads act on
    W_j^T y - g_j.  None of it depends on the solution.  Each step's arrays
    carry the batch axis after the step axis, one entry per problem.
    """

    start: int
    stop: int
    columns: np.ndarray
    rows: np.ndarray
    inverses: np.ndarray
    row_solves: np.ndarray
    forcing: np.ndarray
    offsets: np.ndarray


def _invertible(matrix: np.ndarray) -> bool:
    try:
        np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def woodbury_solve(factor: ThomasFactor, columns, row_solves, inverse, b) -> np.ndarray:
    """Solve (T + U W^T) x = b in one tridiagonal sweep: q = cap^{-1} V^T b, then x = T^{-1}(b - U q).

    ``factor`` is T's, ``columns`` U, ``row_solves`` V^T = W^T T^{-1} and
    ``inverse`` cap^{-1}, the inverse of I + V^T U: one step of a
    :class:`LoadBlock`.
    """
    q = np.matvec(inverse, np.matvec(row_solves, b))
    return thomas_solve(factor, b - np.matvec(columns, q))


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


def _evaluate(out: np.ndarray, name: str, evaluator, x: np.ndarray, t: np.ndarray) -> None:
    """Write ``evaluator(x, t)``, for the nodes as a row and times as a column, into ``out``."""
    try:
        out[...] = evaluator(x, t)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{name} failed on {len(t)} half layer(s) from t = {t[0, 0]:g}: "
            f"evaluators must broadcast over x and t, here to the shape {out.shape} ({exc})"
        ) from exc


def _evaluate_offsets(out: np.ndarray, load_offsets, times: np.ndarray) -> None:
    """Write ``load_offsets(t)`` of each time, taken in a Python float, as the rows of ``out``."""
    m = out.shape[-1]
    for row, t in zip(out, times.tolist()):
        try:
            values = load_offsets(t)
            if len(values) != m:
                raise ValueError(f"got {len(values)}")
            row[...] = values
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"load_offsets failed at the half layer t = {t:g}: it must return {m} value(s) per time, "
                f"one per point load and then the distributed load's ({exc})"
            ) from exc


def _members(problem) -> tuple:
    """The problems of a batch: a :class:`ProblemSpec` alone is a batch of one."""
    return (problem,) if isinstance(problem, ProblemSpec) else tuple(problem)


def _owners(evaluators) -> list:
    """For each member's evaluators, the index of the first member whose evaluators are the very same objects."""
    first = {}
    return [first.setdefault(tuple(map(id, group)), b) for b, group in enumerate(evaluators)]


def _half_average(q: np.ndarray, out: np.ndarray) -> None:
    """Write ``-0.5 * compact_average(q)`` into ``out``, bit for bit, with no temporary array.

    The operations are compact_average's, in its order, and then the
    halving; one division by -24 would differ where the result is subnormal.
    """
    np.multiply(q[..., 1:-1], 10.0, out=out)
    np.add(q[..., 2:], out, out=out)
    out += q[..., :-2]
    out /= 12.0
    out *= -0.5


def assemble_load_columns(state: SolverState, t_half: np.ndarray):
    """Load columns, load rows, forcing and load offsets of the state's batch at the half layers ``t_half``.

    Returns the columns as one ``(len(t_half), B, n, m)`` array, the point
    loads first (minus half the compact average of each coefficient) and
    then the distributed load's constant column; the rows as a
    ``(len(t_half), B, m, n)`` array, the
    state's ``point_rows`` and then the distributed load's interior
    Simpson-weighted samples; the forcing at every node as a
    ``(len(t_half), B, nx + 1)`` array; and the offsets as a
    ``(len(t_half), B, m)`` array, zero for a member without
    ``load_offsets``, which is called one time at a time.  Each evaluator is
    called with the nodes as a row and times as a column; a result that does
    not broadcast to the shape of its samples is a ``ValueError`` naming the
    evaluator.  Each member's forcing and each distinct distributed load,
    whose samples are all kept, are called once for all the half layers.  Each
    distinct set of point-load coefficients is called once per SAMPLE_BYTES
    of their samples, which are averaged straight into the columns.  Members
    share samples when their evaluators are the same objects (``is``), as the
    bundled problems' are for every order: the first such member's samples
    are copied into the others.  Every sample is written into its place in
    the batch, so no per-problem copy is held.
    """
    problems = state.problems
    x = state.x
    nodes = x[None, :]
    count = len(t_half)
    points = len(state.point_rows)
    distributed = state.simpson is not None
    forcing = np.empty((count, len(problems), x.size))
    columns = np.empty((count, len(problems), points + distributed, x.size - 2))
    weights = np.empty((count, len(problems), x.size)) if distributed else None
    offsets = np.zeros((count, len(problems), points + distributed))
    for b, member in enumerate(problems):
        _evaluate(forcing[:, b], "forcing", member.forcing, nodes, t_half[:, None])
        if member.load_offsets is not None:
            _evaluate_offsets(offsets[:, b], member.load_offsets, t_half)
    if points:
        owners = _owners([ld.coefficient for ld in member.loads] for member in problems)
        per = max(1, SAMPLE_BYTES // (8 * points * x.size))
        q = np.empty((min(per, count), points, x.size))
        for lo in range(0, count, per):
            t = t_half[lo : lo + per, None]
            chunk = columns[lo : lo + per, :, :points]
            for b, owner in enumerate(owners):
                if owner != b:
                    chunk[:, b] = chunk[:, owner]
                    continue
                for k, ld in enumerate(problems[b].loads):
                    _evaluate(q[: len(t), k], f"load x={ld.position:g}", ld.coefficient, nodes, t)
                _half_average(q[: len(t)], chunk[:, b])
    if distributed:
        for b, owner in enumerate(_owners((member.integral_load,) for member in problems)):
            if owner != b:
                weights[:, b] = weights[:, owner]
            else:
                _evaluate(weights[:, b], "integral_load", problems[b].integral_load, nodes, t_half[:, None])
    columns = np.swapaxes(columns, -1, -2)
    rows = np.broadcast_to(state.point_rows, (count, len(problems)) + state.point_rows.shape)
    if distributed:
        columns[..., points] = INTEGRAL_COLUMN
        weights *= state.simpson
        rows = np.concatenate((rows, weights[:, :, None, 1:-1]), axis=2)
    return columns, rows, forcing, offsets


def _load_block(state: SolverState, start: int) -> LoadBlock:
    """Load algebra of the steps from ``start`` up to the next multiple of ``state.block_steps``.

    The block ends at the last step, ``nt - 1``, so no load is evaluated past
    the final level.  Point-load rows and their row solves are the state's
    constants; a distributed load's rows are its samples, solved against T
    here in one sweep over the whole block.  The capacitance matrices of
    every step and problem are formed with one batched product and inverted
    with one batched inverse.  One that is singular at the first step
    raises, naming the problem's order; one that is singular at a later step
    ends the block before it, for every problem of the batch.  A matrix with
    non-finite entries is not singular here: its inverse is non-finite, and
    the step's finite check reports it.
    """
    grid = state.grid
    stop = min((start // state.block_steps + 1) * state.block_steps, grid.nt)
    columns, rows, forcing, offsets = assemble_load_columns(state, (np.arange(start, stop) + 0.5) * grid.tau)
    row_solves = np.broadcast_to(state.row_solves, rows.shape[:1] + state.row_solves.shape)
    if state.simpson is not None:
        row_solves = np.concatenate((row_solves, thomas_solve(state.factor, rows[:, :, -1])[:, :, None]), axis=2)
    cap = row_solves @ columns
    diag = np.arange(cap.shape[-1])
    cap[..., diag, diag] += 1.0
    try:
        inverses = np.linalg.inv(cap)
    except np.linalg.LinAlgError:
        i, singular = next((i, b) for i, one in enumerate(cap) for b, matrix in enumerate(one) if not _invertible(matrix))
        if i == 0:
            labels = [f"x={ld.position:g}" for ld in state.problems[0].loads] + ["integral"] * (state.simpson is not None)
            raise np.linalg.LinAlgError(
                f"singular capacitance matrix for load configuration ({', '.join(labels)}) "
                f"at time level {start + 1} (t = {(start + 1) * grid.tau:g}) "
                f"for alpha = {state.kernel.alphas[singular]:g}"
            ) from None
        inverses, stop = np.linalg.inv(cap[:i]), start + i
    return LoadBlock(start, stop, columns, rows, inverses, row_solves, forcing, offsets)


def _check_size(grid: Grid1D, count: int = 1) -> None:
    """Refuse a batch whose stored increments and factors cannot fit in this machine's memory.

    The need is counted, never allocated: per problem, the increment buffer
    and the factor of the core, whose carry maps grow as the square of the
    block count.
    """
    n = grid.nx - 1
    s = min(n, BLOCK)
    k = -(-n // s)
    need = 8 * count * (history_rows(grid.nt) * (grid.nx + 1) + k * s * (s + 3) + 2 * k * k)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ValueError(
            f"a solve of {count} problem(s) on {grid.nx} intervals and {grid.nt} steps needs {need:.3g} "
            f"bytes for its stored increments and factors, more than the {have:.3g} bytes of memory here"
        )


class SolverState:
    """Marching state of a batch: the increments a step reads, per-solve constants, and the step index.

    ``problem`` is one :class:`ProblemSpec` or a sequence of them, B in all,
    that share the domain, the load points and whether there is a
    distributed load; they may differ in ``alpha``, ``mu`` and every
    evaluator.  ``problems`` holds them; a step marches these objects and
    no others (see :func:`step`).  Every per-problem array has a leading
    batch axis of length B.
    ``level`` (B x (nx + 1)) is y^j, the running sum of y^0 and the increments
    y^{s+1} - y^s; row i of ``increments[b]`` holds problem b's at s =
    start + i, in :func:`~hallaire.caputo.history_rows` rows, and ``start`` is
    the checkpoint of ``modes``, the :class:`HistoryModes` that carry the
    older increments.  ``kernel`` is the :class:`~hallaire.caputo.KernelStack`
    of the batch's orders.  The nodes ``x``, the stacked factor of the
    tridiagonal cores, the dense interior point-load rows ``point_rows``
    (m x n, each a load's cubic stencil, shared by the batch) with their
    solves against each core (``row_solves``), and the distributed
    load's Simpson node weights (``simpson``, ``None`` without one) do not
    change in time and are built here once.  ``block`` is the
    :class:`LoadBlock` of the current steps, ``None`` until the first step.
    ``block_steps`` is the length of a load block: LOAD_BLOCK steps, fewer
    if their columns, offsets and forcing would take more than BLOCK_BYTES.
    A batch too large for this machine's memory is refused with a
    ``ValueError`` before anything is allocated.
    """

    def __init__(self, problem, grid: Grid1D):
        problems = _members(problem)
        if not problems:
            raise ValueError("a solve needs at least one problem")
        first = problems[0]
        if len({(tuple(ld.position for ld in p.loads), p.integral_load is None) for p in problems}) > 1:
            raise ValueError("the problems of a batch must share their load points and whether they have a distributed load")
        if first.integral_load is not None and grid.nx % 2 != 0:
            raise ValueError("the distributed load needs an even number of spatial intervals")
        _check_size(grid, len(problems))
        self.grid = grid
        self.x = grid.x
        self.x.flags.writeable = False
        self.problems = problems
        self.kernel = KernelStack([p.alpha for p in problems], grid.tau, grid.nt)
        cores = [assemble_tridiagonal(grid, p.alpha, p.mu) for p in problems]
        self.factor = thomas_factor(
            Tridiagonal(*(np.stack([getattr(t, side) for t in cores]) for side in ("lower", "diag", "upper")))
        )
        # each stencil scattered over every node; the boundary values are pinned to zero
        nodal = np.zeros((len(first.loads), grid.nx + 1))
        for row, ld in zip(nodal, first.loads):
            stencil = build_load_stencil(ld.position, grid)
            row[stencil.nodes] = stencil.weights
        self.point_rows = nodal[:, 1:-1]
        n = grid.nx - 1
        # assemble_tridiagonal builds T with lower == upper, so T^{-T} W = T^{-1} W:
        # the load rows here and in _load_block are solved with the factor of T
        self.row_solves = np.zeros((len(problems), len(first.loads), n))
        for k, row in enumerate(self.point_rows):
            self.row_solves[:, k] = thomas_solve(self.factor, row)
        self.simpson = simpson_weights(grid.nx, grid.h) if first.integral_load is not None else None
        self.increments = np.zeros((len(problems), history_rows(grid.nt), grid.nx + 1))
        self.modes = HistoryModes(self.kernel)
        self.level = np.empty((len(problems), self.x.size))
        for b, p in enumerate(problems):
            self.level[b] = p.initial(self.x)
        self.level[:, [0, -1]] = 0.0
        self.level.flags.writeable = False
        loads = len(first.loads) + (self.simpson is not None)
        per_step = 8 * len(problems) * (loads * (n + 1) + grid.nx + 1)
        self.block_steps = max(1, min(LOAD_BLOCK, BLOCK_BYTES // per_step))
        self.block = None
        self.j = 0


def _history_sum(increments: np.ndarray, kernel: KernelStack, j: int, modes: HistoryModes) -> np.ndarray:
    # D = -sum_{s<j} c_{j-s} delta^s: rows 0..j-S-1, from the checkpoint S on, exactly; older ones from the modes.
    start = modes.catch_up(increments, j)
    out = np.vecmat(kernel.history_weights(j - start), increments[:, : j - start])
    if start:
        out += modes.tail(j)
    return out


def assemble_rhs(state: SolverState, load_parts) -> np.ndarray:
    """r = compact(scale D + f) + Delta_h y^j - 2 U (W^T y^j - g) of the step from level j = ``state.j``.

    The step solves (T + U W^T) delta^j = r; one right-hand side per problem
    of the batch, stacked.  D is :func:`_history_sum`; the compact average
    is linear, so it is applied once.  A load's term is
    compact(q_k) (u(x_k) - g_k), and compact(q_k) = -2 U_k, so the offsets g
    need no product of their own.  ``load_parts = (U, W^T, f, g)`` are the
    step's dense columns and rows, the forcing at every node and the load
    offsets, as one step of a :class:`LoadBlock` holds them.
    """
    columns, rows, f, g = load_parts
    kernel = state.kernel
    nodal = _history_sum(state.increments, kernel, state.j, state.modes)
    nodal *= kernel.scale
    nodal += f
    b = compact_average(nodal)
    b += second_difference(state.level, state.grid.h)
    b += np.matvec(columns, -2.0 * (np.matvec(rows, state.level[:, 1:-1]) - g))
    return b


def step(state: SolverState) -> SolverState:
    """Advance every problem of the state's batch by one time level.

    The step's load algebra and forcing come from ``state.block``, which is
    built at the first step and again at every step whose index is a
    multiple of ``state.block_steps``, at most LOAD_BLOCK (see
    :func:`_load_block`).
    The load evaluators, the forcing and the load offsets are therefore
    called up to LOAD_BLOCK - 1 half layers ahead of the step: one that
    raises at a later half layer of a block raises while the block is built,
    before that block's earlier steps are taken.  A non-finite level, from a
    NaN coefficient or offset among other causes, and a singular capacitance
    matrix are both reported at the step they belong to, with the order of
    the problem they belong to.
    """
    grid = state.grid
    j = state.j
    if j >= grid.nt:
        raise ValueError(f"already at the final level {j}")
    if state.block is None or not state.block.start <= j < state.block.stop:
        # drop the finished block first, so that two are never held at once
        state.block = None
        state.block = _load_block(state, j)
    block = state.block
    i = j - block.start
    b = assemble_rhs(state, (block.columns[i], block.rows[i], block.forcing[i], block.offsets[i]))
    delta = woodbury_solve(state.factor, block.columns[i], block.row_solves[i], block.inverses[i], b)
    if not np.isfinite(delta).all():
        bad = state.problems[int(np.argmin(np.isfinite(delta).all(axis=-1)))]
        raise FloatingPointError(
            f"non-finite values at time level {j + 1} (t = {(j + 1) * grid.tau:g}) for alpha = {bad.alpha:g}; "
            f"tau / stability_step_limit = {grid.tau / stability_step_limit(bad):.3g}"
        )
    row = state.increments[:, j - state.modes.start]
    row[:, 1:-1] = delta
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


def _notify(observers, j, t, level, alphas):
    for b, seen in enumerate(observers):
        for observer in seen:
            try:
                observer(j, t, level[b])
            except Exception as exc:
                raise RuntimeError(f"observer failed at time level {j} for alpha = {alphas[b]:g}") from exc


def solve(problem, grid: Grid1D, observers=()) -> SolverState:
    """March all time steps of one problem, or of a batch of them in lockstep.

    ``problem`` is a :class:`ProblemSpec`, whose ``observers`` are callables
    ``(j, t, level)``, or a sequence of problems (see :class:`SolverState`),
    whose ``observers`` hold one sequence of such callables per problem.
    Each problem's observers see its levels in order, the only place past
    levels can be read; a batch gives every problem the levels, bit for bit,
    of its own solve alone.  Returns the final state.
    """
    problems = _members(problem)
    if isinstance(problem, ProblemSpec):
        observers = (tuple(observers),)
    else:
        observers = tuple(observers) or ((),) * len(problems)
        if len(observers) != len(problems) or any(callable(seen) for seen in observers):
            raise ValueError(
                f"{len(problems)} problems need as many sequences of observers, "
                f"got {len(observers)} entries, {sum(map(callable, observers))} of them a bare callable"
            )
        observers = tuple(tuple(seen) for seen in observers)
    for member in problems:
        if not (
            math.isclose(grid.length, member.length)
            and math.isclose(grid.final_time, member.final_time)
        ):
            raise ValueError("grid extents do not match the problem domain")
        limit = stability_step_limit(member)
        if grid.tau > limit:
            warnings.warn(
                f"time step {grid.tau:g} exceeds the a priori stability threshold {limit:g} "
                f"for alpha = {member.alpha:g}",
                RuntimeWarning,
                stacklevel=2,
            )
    state = SolverState(problems, grid)
    alphas = state.kernel.alphas
    _notify(observers, 0, 0.0, state.level, alphas)
    for j in range(grid.nt):
        step(state)
        _notify(observers, j + 1, (j + 1) * grid.tau, state.level, alphas)
    return state
