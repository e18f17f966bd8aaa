"""Half-layer L1 discretization of the Caputo time derivative.

The discrete operator evaluated at t_{j+1/2} is a convolution of level
increments with slowly decaying weights; this module provides the weights,
their stack for a march over a batch of orders (:class:`KernelStack`), and
the sum-of-exponentials tail that lets a long march carry its old
increments as a few modes (:class:`HistoryModes`).  The march sums the
convolution in :func:`hallaire.stepper._history_sum`, its only route; the
dense operator over stored levels, its transformed split and the
closed-form power-function derivative are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import _count

# Gamma-function evaluations stay well conditioned away from the endpoints,
# so the fractional order is accepted on a slightly clipped interval.
ALPHA_MIN = 0.01
ALPHA_MAX = 0.99

# Windowed history (after Jiang, Zhang, Zhang & Zhang, CiCP 21(3), 2017):
# lags below HISTORY_WINDOW are summed exactly, older increments are carried
# as exponential modes that advance HISTORY_CHUNK increments at a time.  The fit
# uses SOE_POINTS Gauss points per interval and drops e^(-ks) below
# e^(-SOE_REACH).
HISTORY_WINDOW = 32
HISTORY_CHUNK = 32
SOE_POINTS = 6
SOE_REACH = 40.0

# Shortest march whose increment buffer is windowed.  Timed per step, the
# windowed sum broke even with the exact one at about 480 steps at nx = 200
# and was ahead from 320 at nx = 1000; from 397 steps it reads at most half
# as many stored vectors.  Shorter marches (Table 2's default ladder, nt <= 160,
# and the integral-load ladder, nt <= 320) store every increment and never fold.
SOE_MIN_STEPS = 397

# Lags on which a fit's error is measured one by one: every table and
# benchmark march (nt <= 10^4) is measured on all its lags.  Past them the
# error is measured on a geometric sample of SOE_SAMPLES_PER_OCTAVE lags per
# doubling, so that a fit for 10^6 or 10^7 steps does not evaluate its sum
# on every lag.
SOE_CHECKED_LAGS = 10_000
SOE_SAMPLES_PER_OCTAVE = 512


def history_rows(nsteps: int) -> int:
    """Increments a march of ``nsteps`` steps stores: all of them (an exact march), or the most a windowed step reads and writes."""
    return nsteps if nsteps < SOE_MIN_STEPS else HISTORY_WINDOW + HISTORY_CHUNK - 1


def history_vectors(nsteps: int) -> int:
    """Vectors of nx + 1 values a march of ``nsteps`` steps holds per order for its history.

    Its increments, and on a windowed march also the exponential modes and
    the per-chunk tails of :class:`HistoryModes`.
    """
    if nsteps < SOE_MIN_STEPS:
        return nsteps
    return history_rows(nsteps) + SOE_POINTS * _soe_edges(nsteps).size + HISTORY_CHUNK


def check_alpha(alpha: float) -> None:
    if not ALPHA_MIN < alpha < ALPHA_MAX:
        raise ValueError(
            f"fractional order must lie in ({ALPHA_MIN}, {ALPHA_MAX}), got {alpha}"
        )


def l1_weight_array(j: int, alpha: float) -> np.ndarray:
    """Convolution weights c_0..c_j of the half-layer L1 operator as one array.

    c_0 = 2^(alpha-1) and c_k = (k + 1/2)^(1-alpha) - (k - 1/2)^(1-alpha).
    """
    check_alpha(alpha)
    if j < 0:
        raise ValueError(f"weight index must be nonnegative, got {j}")
    out = np.empty(j + 1)
    out[0] = 2.0 ** (alpha - 1.0)
    k = np.arange(1, j + 1, dtype=float)
    out[1:] = (k + 0.5) ** (1.0 - alpha) - (k - 0.5) ** (1.0 - alpha)
    return out


def gamma_const(alpha: float) -> float:
    """Coefficient of the first-difference correction in the transformed operator."""
    check_alpha(alpha)
    p = 2.0 ** (1.0 - alpha)
    return (p - 1.0) / (p * math.gamma(2.0 - alpha))


def _gauss_jacobi(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for (1 + x)^b on [-1, 1] (Legendre at b = 0).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    weight's orthogonal polynomials, the weights the squared first
    components of its eigenvectors times the weight's integral.
    """
    k = np.arange(1, n, dtype=float)
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0))
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / ((2.0 * k + b) ** 2 * (2.0 * k + b + 1.0) * (2.0 * k + b - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (b + 1.0) / (b + 1.0) * vectors[0] ** 2


def _soe_edges(nsteps: int) -> np.ndarray:
    """Ends of the quadrature intervals [0, 1/M], [1/M, 2/M], ... reaching SOE_REACH / HISTORY_WINDOW."""
    count = 1
    while 2.0 ** (count - 1) < SOE_REACH * nsteps / HISTORY_WINDOW:
        count += 1
    return 2.0 ** np.arange(count) / nsteps


@dataclass(frozen=True, eq=False)
class ExponentialTail:
    """Sum of exponentials c_k ~ sum_l weights[l] exp(-k nodes[l]) for lags k >= HISTORY_WINDOW.

    From c_k = (1-alpha)/Gamma(alpha) int_0^inf s^(alpha-1) e^(-ks) 2 sinh(s/2)/s ds,
    with a Gauss-Jacobi rule on [0, 1/M] and Gauss-Legendre rules on dyadic
    intervals up to SOE_REACH / HISTORY_WINDOW, where e^(-ks) is below
    e^(-SOE_REACH) for every lag the tail serves.  ``error`` is the measured
    maximum relative error on c_W..c_M.  The chunked update of :class:`HistoryModes`
    uses two derived constants, with C = HISTORY_CHUNK and E_m = exp(-m nodes):

    * ``fold[:, i]`` is E_{C-i}, the weight of increment S + i, i < C, in the
      modes moved on to S + C; its first column E_C moves the modes C steps on;
    * ``lagged[i]`` (C x N_exp) is minus ``weights`` times E_d at the lag
      d = W - 1 + i between the checkpoint and the step, for the C steps a
      checkpoint serves.
    """

    nodes: np.ndarray
    weights: np.ndarray
    error: float
    fold: np.ndarray
    lagged: np.ndarray


def fit_exponential_tail(alpha: float, nsteps: int) -> ExponentialTail:
    """Fit the tail of c_k for a march of M = ``nsteps`` steps and measure the fit on c_W..c_M.

    Every lag up to SOE_CHECKED_LAGS is measured, and a geometric sample of
    the lags beyond it.  The error is relative to c_k written as
    (k - 1/2)^b expm1(b log1p(1 / (k - 1/2))), b = 1 - alpha, which keeps its
    digits at every lag, where the difference of powers the march takes
    loses about eps k of them.
    """
    if nsteps < HISTORY_WINDOW:
        raise ValueError(f"the exponential tail serves lags from {HISTORY_WINDOW} on, a march of {nsteps} steps has none")
    edges = _soe_edges(nsteps)
    phi = lambda s: 2.0 * np.sinh(0.5 * s) / s
    lead = (1.0 - alpha) / math.gamma(alpha)
    x, w = _gauss_jacobi(SOE_POINTS, alpha - 1.0)
    s = 0.5 * edges[0] * (1.0 + x)
    nodes = [s]
    coefs = [lead * (0.5 * edges[0]) ** alpha * w * phi(s)]
    x, w = _gauss_jacobi(SOE_POINTS, 0.0)
    for lo in edges[:-1]:
        s = lo * (1.5 + 0.5 * x)
        nodes.append(s)
        coefs.append(lead * 0.5 * lo * w * s ** (alpha - 1.0) * phi(s))
    nodes = np.concatenate(nodes)
    coefs = np.concatenate(coefs)
    measured = np.arange(HISTORY_WINDOW, min(nsteps, SOE_CHECKED_LAGS) + 1, dtype=float)
    if nsteps > SOE_CHECKED_LAGS:
        count = math.ceil(math.log2(nsteps / SOE_CHECKED_LAGS) * SOE_SAMPLES_PER_OCTAVE)
        sample = np.unique(np.rint(np.geomspace(SOE_CHECKED_LAGS, float(nsteps), count + 1)[1:]))
        measured = np.concatenate((measured, sample))
    beta = 1.0 - alpha
    error = 0.0
    for lo in range(0, measured.size, 128):
        k = measured[lo : lo + 128]
        below = k - 0.5
        exact = below**beta * np.expm1(beta * np.log1p(1.0 / below))
        error = max(error, float(np.max(np.abs(np.exp(-np.outer(k, nodes)) @ coefs - exact) / exact)))
    lags = np.arange(HISTORY_WINDOW - 1, HISTORY_WINDOW + HISTORY_CHUNK - 1)
    return ExponentialTail(
        nodes=nodes,
        weights=coefs,
        error=error,
        fold=np.exp(-np.outer(nodes, np.arange(HISTORY_CHUNK, 0, -1))),
        lagged=-coefs * np.exp(-np.outer(lags, nodes)),
    )


class HistoryModes:
    """Increments before a checkpoint, carried as exponential modes, for every order of a :class:`KernelStack`.

    ``values[b, l] = sum_{s < start} exp(-(start - s) nodes[b, l]) delta_b^s``,
    0.0 before the first fold, for order b's increments delta_b^s = y^{s+1} - y^s
    and the nodes of ``kernel.soe``.  The increments handed to :meth:`catch_up`
    are (B, rows, N): row i of ``increments[b]`` is delta_b^{start + i}.  A
    full buffer folds its first HISTORY_CHUNK rows, so a 63-row one keeps the
    checkpoint 31 to 62 steps behind the step, on lags the tail was fitted on,
    and one with a row for every step never folds or fits.

    The C steps a checkpoint serves share the part of their history that no
    later step writes: the modes and the W - 1 rows left in the buffer by the
    fold.  ``tails`` (B, C, N), ``None`` before the first fold, holds it once
    per chunk: ``tails[:, i]`` is -sum_{s < start + W - 1} c_{j-s} delta^s
    for the step at j = start + W - 1 + i, so that step sums only the rows
    written since the fold.
    """

    def __init__(self, kernel: KernelStack):
        self.kernel = kernel
        self.start = 0
        self.values = 0.0
        self.tails = None

    def catch_up(self, increments: np.ndarray, j: int) -> int:
        """Fold in and shift out a chunk while the step at j has no row left in ``increments``; the checkpoint.

        A fold also sums the new chunk's ``tails``: the modes through
        ``soe.lagged`` and the rows left in the buffer through ``kernel.window``.
        """
        if j - self.start < increments.shape[1]:
            return self.start
        soe = self.kernel.soe
        while j - self.start >= increments.shape[1]:
            # the moved modes are summed into the product's own array: one temporary fewer
            values = soe.fold @ increments[:, :HISTORY_CHUNK]
            values += soe.fold[:, :, :1] * self.values
            self.values = values
            increments[:, :-HISTORY_CHUNK] = increments[:, HISTORY_CHUNK:]
            self.start += HISTORY_CHUNK
        self.tails = np.matmul(soe.lagged, self.values, out=self.tails)
        self.tails += self.kernel.window @ increments[:, : HISTORY_WINDOW - 1]
        return self.start


class KernelStack:
    """The kernels of a batch of fractional orders on one time grid, stacked on a leading axis.

    A march of ``nsteps`` steps over B problems at once reads its weights
    from here: ``scale`` is the (B, 1) column of tau^-alpha / Gamma(2 - alpha),
    which multiplies raw level increments and so absorbs the 1/tau of their
    divided differences, and :meth:`history_weights` the (B, j) stack of
    -c_j..-c_1, for the lags up to ``history_rows(nsteps)`` the march
    stores.  ``soe`` stacks the orders' :class:`ExponentialTail` fits for an
    ``nsteps``-step march, fitted on first use:
    ``nodes`` and ``weights`` are (B, N_exp), ``fold`` (B, N_exp, C) and
    ``lagged`` (B, C, N_exp), order first like every stacked array, and
    ``error`` is the largest fit error.  N_exp depends only on the step
    count, so the fits stack.  ``window`` (B, C, W - 1), built on first use
    too, holds the weights of the W - 1 rows a fold leaves in a windowed
    buffer for the C steps the checkpoint serves: ``window[b, i, r]`` is
    -c_{W-1+i-r} of order b.  An order out of range, a time step that is not
    positive and finite, and a step count that is not a whole number >= 0
    are each a ``ValueError``.
    """

    def __init__(self, alphas, tau: float, nsteps: int):
        alphas = tuple(alphas)
        for alpha in alphas:
            check_alpha(alpha)
        if not (tau > 0.0 and math.isfinite(tau)):
            raise ValueError(f"time step must be positive and finite, got {tau}")
        self.alphas = tuple(float(alpha) for alpha in alphas)
        self.nsteps = _count("step count", nsteps, 0)
        self.scale = np.array([[tau ** (-alpha) / math.gamma(2.0 - alpha)] for alpha in alphas])
        self._lags = -np.stack([l1_weight_array(history_rows(self.nsteps), alpha)[:0:-1] for alpha in self.alphas])

    def history_weights(self, j: int) -> np.ndarray:
        """-c_j..-c_1 of every order, the weights of the increments y^{s+1} - y^s, s = 0..j-1, in D at t_{j+1/2} (treat as read-only).

        Only the lags a march stores, j up to ``history_rows(nsteps)``, are kept;
        a longer request is a ``ValueError``.
        """
        stored = self._lags.shape[1]
        if not 0 <= j <= stored:
            raise ValueError(f"weight index must be in 0..{stored}, the lags stored for {self.nsteps} steps, got {j}")
        return self._lags[:, stored - j :]

    @cached_property
    def soe(self) -> ExponentialTail:
        fits = [fit_exponential_tail(alpha, self.nsteps) for alpha in self.alphas]
        stacked = {name: np.stack([getattr(fit, name) for fit in fits]) for name in ("nodes", "weights", "fold", "lagged")}
        return ExponentialTail(error=max(fit.error for fit in fits), **stacked)

    @cached_property
    def window(self) -> np.ndarray:
        # -c_{W-1+i-r} = _lags[:, stored - (W-1+i) + r]: row i is the run of W - 1 lags from stored - W + 1 - i
        stored = self._lags.shape[1]
        runs = np.lib.stride_tricks.sliding_window_view(self._lags, HISTORY_WINDOW - 1, axis=1)
        return runs[:, stored - HISTORY_WINDOW + 1 - np.arange(HISTORY_CHUNK)]
