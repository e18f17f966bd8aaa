"""Spatial operators: second differences, the fourth-order compact average,
cubic interpolation at load points, and composite Simpson weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid1D

# Load points this close to a node (relative to the domain length) are
# treated as nodal, which keeps the weights free of signed-zero noise.
NODE_SNAP_REL = 1e-12


def second_difference(v, h: float) -> np.ndarray:
    """(v_{i+1} - 2 v_i + v_{i-1}) / h^2 at the interior nodes.

    A stack of nodal vectors is differenced along its last axis.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 3:
        raise ValueError("second_difference expects a full nodal vector (length >= 3)")
    return (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / (h * h)


def compact_average(v) -> np.ndarray:
    """(v_{i+1} + 10 v_i + v_{i-1}) / 12 at the interior nodes.

    Applied to samples of a second derivative this matches the plain second
    difference of the function itself to fourth order.  A stack of nodal
    vectors is averaged along its last axis, each vector exactly as alone.
    The result is the one array allocated, and bit for bit the value of
    ``(v[2:] + 10 v[1:-1] + v[:-2]) / 12``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 3:
        raise ValueError("compact_average expects a full nodal vector (length >= 3)")
    out = v[..., 1:-1] * 10.0
    out += v[..., 2:]
    out += v[..., :-2]
    out /= 12.0
    return out


@dataclass(frozen=True, eq=False)
class LoadStencil:
    """Cubic interpolation stencil for one interior load point.

    ``nodes`` holds four consecutive node indices whose window contains the
    point and ``weights`` the Lagrange weights there, exact for polynomials
    up to degree three.  The window may touch the boundary nodes, where the
    solution is pinned to zero.
    """

    position: float
    anchor: int
    nodes: np.ndarray
    weights: np.ndarray


def build_load_stencil(position: float, grid: Grid1D) -> LoadStencil:
    """Anchor and cubic weights for an interior point of the grid."""
    if not 0.0 < position < grid.length:
        raise ValueError(
            f"load point {position} lies outside the open interval (0, {grid.length})"
        )
    h = grid.h
    n = grid.nx
    nearest = int(round(position / h))
    if abs(position - nearest * h) <= NODE_SNAP_REL * grid.length:
        if nearest <= 0 or nearest >= n:
            raise ValueError(f"load point {position} coincides with a boundary node")
        first = min(max(nearest - 1, 0), n - 3)
        nodes = np.arange(first, first + 4)
        weights = np.zeros(4)
        weights[nearest - first] = 1.0
        return LoadStencil(float(position), nearest, nodes, weights)
    anchor = int(np.floor(position / h))
    if anchor < 1 or anchor > n - 2:
        raise ValueError(
            f"load point {position} is too close to the boundary for the cubic "
            f"stencil; the mesh must satisfy h < min(x, length - x), h = {h}"
        )
    nodes = np.arange(anchor - 1, anchor + 3)
    d = position - nodes * h
    h3 = h**3
    weights = np.array(
        [
            d[1] * d[2] * d[3] / (-6.0 * h3),
            d[0] * d[2] * d[3] / (2.0 * h3),
            d[0] * d[1] * d[3] / (-2.0 * h3),
            d[0] * d[1] * d[2] / (6.0 * h3),
        ]
    )
    return LoadStencil(float(position), anchor, nodes, weights)


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights h/3 * (1, 4, 2, ..., 2, 4, 1) on n + 1 nodes."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"composite Simpson needs an even interval count, got {n}")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)
