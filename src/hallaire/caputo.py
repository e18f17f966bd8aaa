"""Half-layer L1 discretization of the Caputo time derivative.

The discrete operator evaluated at t_{j+1/2} is a convolution of level
differences with slowly decaying weights; this module provides the weights,
the convolution, the transformed split used by the energy estimates, and the
closed-form power-function derivative used as a test oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Gamma-function evaluations stay well conditioned away from the endpoints,
# so the fractional order is accepted on a slightly clipped interval.
ALPHA_MIN = 0.01
ALPHA_MAX = 0.99


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


class CaputoKernel:
    """Weights and scale factors for one (alpha, tau) pair.

    ``scale`` multiplies raw level differences u^{s+1} - u^s, i.e. it already
    absorbs the 1/tau of the divided difference.  Weights c_0..c_nsteps are
    computed once; a longer prefix is computed on each request.
    """

    def __init__(self, alpha: float, tau: float, nsteps: int = 0):
        check_alpha(alpha)
        if not (tau > 0.0 and math.isfinite(tau)):
            raise ValueError(f"time step must be positive and finite, got {tau}")
        self.alpha = float(alpha)
        self.tau = float(tau)
        self.scale = tau ** (-alpha) / math.gamma(2.0 - alpha)
        self.gamma = gamma_const(alpha)
        self._c = l1_weight_array(max(int(nsteps), 0), alpha)

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
