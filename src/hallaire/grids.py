"""Uniform space-time grids and the discrete norms used to measure errors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _count(name: str, value, least: int) -> int:
    """``value`` as an int, if it is a whole number >= ``least``."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh on [0, length] x [0, final_time].

    Space is split into ``nx`` intervals with nodes x_i = i*h and time into
    ``nt`` steps with levels t_j = j*tau.
    """

    length: float
    final_time: float
    nx: int
    nt: int

    def __post_init__(self):
        for name in ("length", "final_time"):
            _check_positive(name, getattr(self, name))
        # the compact and load stencils need interior room
        object.__setattr__(self, "nx", _count("nx", self.nx, 4))
        object.__setattr__(self, "nt", _count("nt", self.nt, 1))

    @property
    def h(self) -> float:
        return self.length / self.nx

    @property
    def tau(self) -> float:
        return self.final_time / self.nt

    @property
    def x(self) -> np.ndarray:
        """Spatial nodes x_i = i*h, i = 0..nx."""
        return np.arange(self.nx + 1) * self.h

    @property
    def t(self) -> np.ndarray:
        """Time levels t_j = j*tau, j = 0..nt."""
        return np.arange(self.nt + 1) * self.tau


def norm_l2(v, h: float) -> float:
    """Discrete L2 norm sqrt(h * sum v_i^2) of the supplied interior values."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("norm_l2 expects a nonempty vector")
    return math.sqrt(h * float(np.dot(v, v)))


def norm_max(values) -> float:
    """Max-abs norm of an array."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("norm_max expects at least one value")
    return float(np.max(np.abs(arr)))


def norm_grad_forward(v, h: float) -> float:
    """Energy norm from forward differences at the interior nodes.

    Sums ((v_{i+1} - v_i)/h)^2 for i = 1..len(v)-2, i.e. it skips the
    difference across the first interval.  This is the variant the bundled
    reference tables were produced with.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("norm_grad_forward expects a full nodal vector (length >= 3)")
    d = np.diff(v)[1:] / h
    return math.sqrt(h * float(np.dot(d, d)))


def convergence_order(e1: float, e2: float, ratio: float) -> float:
    """Observed order log(e1/e2) / log(ratio) between two refinement levels."""
    for name, value in (("e1", e1), ("e2", e2), ("ratio", ratio)):
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} is not finite; no convergence order can be taken")
    if e1 <= 0.0 or e2 <= 0.0:
        raise ValueError("errors must be positive to take a convergence order")
    if ratio <= 1.0:
        raise ValueError(f"refinement ratio must exceed 1, got {ratio}")
    return math.log(e1 / e2) / math.log(ratio)
