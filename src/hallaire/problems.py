"""Problem definitions: the continuous loaded model and manufactured
instances whose forcing is assembled in closed form."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .caputo import check_alpha
from .grids import _check_positive

# Evaluators broadcast over x and t: called with nodes and times of
# broadcastable shapes, such as x[None, :] and times[:, None] for a block of
# half layers, they return values of the broadcast shape (or one that
# broadcasts to it).  A 1-D x with a scalar t is one half layer.
Evaluator = Callable[[np.ndarray, np.ndarray | float], np.ndarray]
SpaceFunc = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PointLoad:
    """One interior sampling point and its coefficient q(x, t)."""

    position: float
    coefficient: Evaluator


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Continuous problem: domain extents, fractional order, loads, and data.

    The equation couples a Caputo time derivative of order ``alpha`` with
    diffusion, a mixed third-order term scaled by ``mu``, point loads sampling
    the solution at fixed interior abscissae, and optionally a distributed
    load integrating the solution against ``integral_load``.  Boundary values
    are homogeneous; ``initial`` must be compatible with them.  Load
    coefficients are assumed bounded on the domain (documented contract, not
    scanned at runtime).  ``forcing``, ``exact``, the load coefficients and
    ``integral_load`` broadcast over x and t (see ``Evaluator``): the solver
    samples many half layers in one call, and rejects a result that does not
    broadcast to the samples' shape with a ``ValueError``.

    The loads act on the solution less an offset: point load k adds
    q_k(x, t) (u(x_k, t) - g_k(t)) and the distributed load adds
    int q u - g(t).  ``load_offsets(t)`` returns the g of every point load
    and then the distributed load's along a last axis: m values for a
    scalar t, and for the column ``times[:, None]`` of a block of half
    layers, which the solver passes, values that broadcast to
    ``(len(times), m)``.  ``None`` means zero offsets, the
    plain loaded equation.  An offset moves a known part of the load term
    out of the forcing: a problem with exact solution u can set the offsets
    to its load terms' values on u, and its forcing then need not sample the
    coefficients at all.  A problem with no load refuses offsets.
    """

    length: float
    final_time: float
    alpha: float
    mu: float
    loads: tuple[PointLoad, ...]
    forcing: Evaluator
    initial: SpaceFunc
    exact: Evaluator | None = None
    integral_load: Evaluator | None = None
    load_offsets: Callable[[np.ndarray | float], np.ndarray] | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        for name in ("length", "final_time", "mu"):
            _check_positive(name, getattr(self, name))
        xs = [ld.position for ld in self.loads]
        if any(not 0.0 < x < self.length for x in xs):
            raise ValueError(f"load points {xs} must lie strictly inside (0, {self.length})")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError(f"load points {xs} must be strictly increasing")
        if self.load_offsets is not None and not self.loads and self.integral_load is None:
            raise ValueError("load_offsets needs a point load or a distributed load to offset, the problem has neither")


def manufactured_problem(
    mode: int,
    time_terms,
    alpha: float,
    mu: float = 1.0,
    loads=(),
    integral_load=None,
    length: float = 1.0,
    final_time: float = 1.0,
) -> ProblemSpec:
    """Problem with exact solution (1 + sum_r a_r t^{p_r}) * sin(mode*pi*x/length).

    ``time_terms`` is a sequence of (coefficient, power) pairs with powers
    above 1, so the solution stays twice differentiable in time.  The forcing
    is assembled in closed form via the Caputo power rule, and the load
    offsets (see :class:`ProblemSpec`) are the exact solution at the load
    points and, for the distributed load, its integral against q: so every
    load term vanishes on the exact solution, the forcing holds none of
    them and calls no load coefficient, and the pair (exact, forcing)
    satisfies the equation identically.  ``integral_load`` is a pair
    ``(q, projection)`` where ``projection(t)`` equals the integral of
    q(x, t) against the spatial profile over the domain; it is required in
    closed form to keep the offset exact.  The load coefficients and q must
    broadcast over x and t as the evaluators do (see ``Evaluator``), and
    ``projection`` over t: a column of times gives a column of values.
    """
    check_alpha(alpha)
    if not (math.isfinite(mode) and mode == int(mode) and mode >= 1):
        raise ValueError(f"spatial mode count must be a positive integer, got {mode}")
    _check_positive("length", length)
    terms = tuple((float(a), float(p)) for a, p in time_terms)
    for a, p in terms:
        if not (math.isfinite(a) and math.isfinite(p) and p > 1.0):
            raise ValueError(f"time terms need finite coefficients and exponents above 1, got {(a, p)}")
    k = mode * math.pi / length
    kk = k * k

    caputo_coefs = tuple(
        (a * math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha), p - alpha) for a, p in terms
    )

    # The time factors take a scalar t as a 0-d array: numpy's pow may round
    # differently from the C library's, which Python floats use, and so a
    # half layer alone gets the bits it gets in a block's column of times.
    def tpart(t):
        t = np.asarray(t, dtype=float)
        part = 0
        for a, p in terms:
            part += a * t**p
        return 1.0 + part

    def profile_factor(t):
        # The Caputo derivative of the time part plus kk (part + mu part').
        # Every exponent p - alpha is positive, so t = 0 gives a derivative
        # of 0.  One pass over the terms adds each sum in the order sum()
        # would.
        t = np.asarray(t, dtype=float)
        part = slope = caputo = 0
        for (a, p), (c, q) in zip(terms, caputo_coefs):
            part += a * t**p
            slope += a * p * t ** (p - 1.0)
            caputo += c * t**q
        return caputo + kk * (1.0 + part + mu * slope)

    loads = tuple(loads)
    load_profiles = tuple(math.sin(k * ld.position) for ld in loads)
    q_int, projection = integral_load if integral_load is not None else (None, None)

    def exact(x, t):
        return tpart(t) * np.sin(k * np.asarray(x, dtype=float))

    def initial(x):
        return np.sin(k * np.asarray(x, dtype=float))

    def forcing(x, t):
        return profile_factor(t) * np.sin(k * np.asarray(x, dtype=float))

    def load_offsets(t):
        part = tpart(t)
        values = [part * s for s in load_profiles]
        if projection is not None:
            values.append(part * projection(t))
        return np.hstack(values)

    return ProblemSpec(
        length=float(length),
        final_time=float(final_time),
        alpha=float(alpha),
        mu=float(mu),
        loads=loads,
        forcing=forcing,
        initial=initial,
        exact=exact,
        integral_load=q_int,
        load_offsets=load_offsets if loads or projection is not None else None,
    )


# The bundled problems' load coefficients.  They are module-level functions,
# not closures, so that the problems of every order share the same objects
# and a batch of orders samples each once (see stepper.assemble_load_columns).
def _exp_sum(x, t):
    """e^{x+t}."""
    return np.exp(np.asarray(x, dtype=float) + t)


def _sin_sum(x, t):
    """sin(x+t)."""
    return np.sin(np.asarray(x, dtype=float) + t)


def _cos_sum(x, t):
    """cos(x+t)."""
    return np.cos(np.asarray(x, dtype=float) + t)


def benchmark_problem(alpha: float) -> ProblemSpec:
    """Loaded benchmark with exact solution (t^3 + t^{2+alpha} + 1) sin(3 pi x).

    Three point loads at x = 0.2, 0.5, 0.8 carry the coefficients e^{x+t},
    sin(x+t) and cos(x+t); all of them stay below e^2 in magnitude on the
    unit space-time domain.
    """
    loads = (PointLoad(0.2, _exp_sum), PointLoad(0.5, _sin_sum), PointLoad(0.8, _cos_sum))
    return manufactured_problem(
        3, ((1.0, 3.0), (1.0, 2.0 + alpha)), alpha, mu=1.0, loads=loads
    )


def integral_benchmark_problem(alpha: float) -> ProblemSpec:
    """Distributed-load variant: the load integrates e^{x+t} times the solution."""
    k = 3.0 * math.pi
    profile_integral = k * (math.e + 1.0) / (1.0 + k * k)  # integral of e^x sin(3 pi x)

    def projection(t):
        return np.exp(t) * profile_integral

    return manufactured_problem(
        3,
        ((1.0, 3.0), (1.0, 2.0 + alpha)),
        alpha,
        mu=1.0,
        integral_load=(_exp_sum, projection),
    )


PROBLEMS = {
    "benchmark": benchmark_problem,
    "integral-load": integral_benchmark_problem,
}


def make_problem(name: str, alpha: float) -> ProblemSpec:
    """Look up a bundled problem by name."""
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; choices: {sorted(PROBLEMS)}"
        ) from None
    return factory(alpha)
