"""Half-layer L1 discretization of the Caputo time derivative.

The discrete operator evaluated at t_{j+1/2} is a convolution of level
increments with slowly decaying weights; this module provides the weights,
the convolution, the sum-of-exponentials tail that lets a long march carry
its old increments as a few modes, the transformed split used by the energy
estimates, and the closed-form power-function derivative used as a test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

# Shortest march that takes the windowed history.  Timed per step, the
# windowed sum broke even with the exact one at about 480 steps at nx = 200
# and was ahead from 320 at nx = 1000; from 397 steps it reads at most half
# as many stored vectors.  Shorter marches, among them Table 2's default
# ladder (nt <= 160) and the integral-load ladder (nt <= 320), keep the
# exact sum and its arithmetic.
SOE_MIN_STEPS = 397


def check_alpha(alpha: float) -> None:
    if not ALPHA_MIN < alpha < ALPHA_MAX:
        raise ValueError(
            f"fractional order must lie in ({ALPHA_MIN}, {ALPHA_MAX}), got {alpha}"
        )


def l1_weight(j: int, alpha: float) -> float:
    """Convolution weight c_j of the half-layer L1 operator."""
    check_alpha(alpha)
    if j < 0:
        raise ValueError(f"weight index must be nonnegative, got {j}")
    if j == 0:
        return 2.0 ** (alpha - 1.0)
    return (j + 0.5) ** (1.0 - alpha) - (j - 0.5) ** (1.0 - alpha)


def l1_weight_array(j: int, alpha: float) -> np.ndarray:
    """Weights c_0..c_j as one array."""
    check_alpha(alpha)
    if j < 0:
        raise ValueError(f"weight index must be nonnegative, got {j}")
    out = np.empty(j + 1)
    out[0] = 2.0 ** (alpha - 1.0)
    if j >= 1:
        idx = np.arange(1, j + 1, dtype=float)
        out[1:] = (idx + 0.5) ** (1.0 - alpha) - (idx - 0.5) ** (1.0 - alpha)
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
    * ``lagged[i]`` is minus ``weights`` times E_d at the lag d = W - 1 + i
      between the checkpoint and the step.
    """

    nodes: np.ndarray
    weights: np.ndarray
    error: float
    fold: np.ndarray
    lagged: np.ndarray


def fit_exponential_tail(alpha: float, weights: np.ndarray) -> ExponentialTail:
    """Fit the tail of c_0..c_M (``weights``) and measure the fit on c_W..c_M."""
    nsteps = weights.size - 1
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
    error = 0.0
    for lo in range(HISTORY_WINDOW, nsteps + 1, 128):
        k = np.arange(lo, min(lo + 128, nsteps + 1), dtype=float)
        exact = weights[lo : lo + k.size]
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
    """Increments before a checkpoint, carried as exponential modes.

    ``values[l] = sum_{s < start} exp(-(start - s) nodes[l]) delta^s`` with
    delta^s = y^{s+1} - y^s, for the nodes of an :class:`ExponentialTail`.
    The checkpoint ``start`` moves HISTORY_CHUNK steps at a time and stays at
    least HISTORY_WINDOW - 1 steps behind the step, so every lag the modes serve
    is one the tail was fitted on.
    """

    def __init__(self, fit: ExponentialTail, width: int):
        self.fit = fit
        self.start = 0
        self.values = np.zeros((fit.nodes.size, width))

    def catch_up(self, increments: np.ndarray, j: int) -> int:
        """Advance the checkpoint for the step at j; the checkpoint, or 0 if j is behind it."""
        target = max(j - HISTORY_WINDOW + 1, 0) // HISTORY_CHUNK * HISTORY_CHUNK
        if target < self.start:
            return 0
        fit = self.fit
        while self.start < target:
            s = self.start
            self.values *= fit.fold[:, :1]
            self.values += fit.fold @ increments[s : s + HISTORY_CHUNK]
            self.start = s + HISTORY_CHUNK
        return self.start

    def tail(self, j: int) -> np.ndarray:
        """-sum_{s < start} c_{j-s} delta^s for the step at j, once caught up to it."""
        return self.fit.lagged[j - self.start - HISTORY_WINDOW + 1] @ self.values


class CaputoKernel:
    """Weights and scale factors for one (alpha, tau) pair.

    ``scale`` multiplies raw level increments u^{s+1} - u^s, i.e. it already
    absorbs the 1/tau of the divided difference.  Weights c_0..c_nsteps, and
    c_nsteps..c_1 as one contiguous reversed copy, are computed once; a longer
    prefix is computed on each request.  ``soe`` is the exponential tail of the
    windowed history (see :class:`ExponentialTail`), fitted for a march of
    at least SOE_MIN_STEPS steps, and ``None`` otherwise.
    """

    def __init__(self, alpha: float, tau: float, nsteps: int = 0):
        check_alpha(alpha)
        if not (tau > 0.0 and math.isfinite(tau)):
            raise ValueError(f"time step must be positive and finite, got {tau}")
        self.alpha = float(alpha)
        self.tau = float(tau)
        self.scale = tau ** (-alpha) / math.gamma(2.0 - alpha)
        self.gamma = gamma_const(alpha)
        nsteps = max(int(nsteps), 0)
        self._c = l1_weight_array(nsteps, alpha)
        # a copy: matmul skips BLAS for the negative strides of a reversed view
        self._lags = self._c[:0:-1].copy()
        self.soe = fit_exponential_tail(self.alpha, self._c) if nsteps >= SOE_MIN_STEPS else None

    def increment_weights(self, j: int) -> np.ndarray:
        """c_j..c_1, the weights of the increments y^{s+1} - y^s, s = 0..j-1, at t_{j+1/2} (treat as read-only)."""
        if j < 0:
            raise ValueError(f"weight index must be nonnegative, got {j}")
        if j <= self._lags.size:
            return self._lags[self._lags.size - j :]
        return self.weights(j)[:0:-1].copy()

    def weights(self, j: int) -> np.ndarray:
        """Array of c_0..c_j (treat as read-only)."""
        if j < 0:
            raise ValueError(f"weight index must be nonnegative, got {j}")
        if j < self._c.size:
            return self._c[: j + 1]
        return l1_weight_array(j, self.alpha)

    def weights_transformed(self, j: int) -> np.ndarray:
        """Weights with the leading entry replaced by 1."""
        w = np.array(self.weights(j))
        w[0] = 1.0
        return w


def _history_diffs(history, j):
    hist = np.asarray(history, dtype=float)
    if j is None:
        j = hist.shape[0] - 2
    if j < 0 or hist.shape[0] < j + 2:
        raise ValueError(
            f"half-layer step {j} needs {j + 2} stored levels, got {hist.shape[0]}"
        )
    return np.diff(hist[: j + 2], axis=0), j


def apply_half_layer(history, kernel: CaputoKernel, j: int | None = None):
    """Discrete fractional derivative at t_{j+1/2} from levels u^0..u^{j+1}.

    Levels may be scalars or vectors; vectors are handled componentwise.
    """
    diffs, j = _history_diffs(history, j)
    w = kernel.weights(j)[::-1]
    out = kernel.scale * np.tensordot(w, diffs, axes=(0, 0))
    return float(out) if out.ndim == 0 else out


def split_half_layer(history, kernel: CaputoKernel, j: int | None = None):
    """Transformed-operator value and its first-difference correction.

    Returns ``(smooth, correction)`` with the plain half-layer operator equal
    to ``smooth - correction``.  The smooth part uses the strictly decreasing
    weight sequence, which is what the discrete energy argument needs.
    """
    diffs, j = _history_diffs(history, j)
    wbar = kernel.weights_transformed(j)[::-1]
    smooth = kernel.scale * np.tensordot(wbar, diffs, axes=(0, 0))
    correction = kernel.gamma * kernel.tau ** (-kernel.alpha) * diffs[-1]
    if smooth.ndim == 0:
        return float(smooth), float(correction)
    return smooth, correction


def caputo_power(p: float, alpha: float, t):
    """Caputo derivative of t**p, Gamma(p+1)/Gamma(p+1-alpha) t**(p-alpha); 0 for t <= 0."""
    check_alpha(alpha)
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"exponent must be positive and finite, got {p}")
    coef = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
    tt = np.asarray(t, dtype=float)
    out = np.where(np.isnan(tt), np.nan, 0.0)
    nz = tt > 0.0
    out[nz] = coef * tt[nz] ** (p - alpha)
    return float(out) if out.ndim == 0 else out


def truncation_bound(alpha: float, tau: float, m2: float) -> float:
    """A priori ceiling on |exact - discrete| at any half layer.

    ``m2`` bounds |u''| on the time range covered by the history; the bound
    decays like tau**(2-alpha).
    """
    check_alpha(alpha)
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"time step must be positive and finite, got {tau}")
    if not (m2 >= 0.0 and math.isfinite(m2)):
        raise ValueError(f"second-derivative bound must be nonnegative and finite, got {m2}")
    lead = 2.0 ** alpha * m2 / (4.0 * math.gamma(2.0 - alpha))
    return lead * ((1.0 - alpha) / 2.0 + 1.0) * tau ** (2.0 - alpha)
