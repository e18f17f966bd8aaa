"""Problem definitions: the continuous loaded model and manufactured
instances whose forcing is assembled in closed form."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .caputo import check_alpha

# Evaluators broadcast over x and t: called with nodes and times of
# broadcastable shapes, such as x[None, :] and times[:, None] for a block of
# half layers, they return values of the broadcast shape (or one that
# broadcasts to it).  A 1-D x with a scalar t is one half layer.
Evaluator = Callable[[np.ndarray, np.ndarray | float], np.ndarray]
SpaceFunc = Callable[[np.ndarray], np.ndarray]


def _per_time(fn, t) -> np.ndarray:
    """``fn`` of each time in ``t``, taken in Python floats, with the shape of ``t``.

    numpy's array ``pow`` and ``exp`` may round differently from the C
    library's, which Python's floats use.  Taken one time at a time, the
    time factors of a block of half layers are bit-identical to those of
    single half layers.
    """
    t = np.asarray(t, dtype=float)
    return np.array([fn(s) for s in t.ravel().tolist()]).reshape(t.shape)


def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


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

    def __post_init__(self):
        check_alpha(self.alpha)
        for name in ("length", "final_time", "mu"):
            _check_positive(name, getattr(self, name))
        xs = [ld.position for ld in self.loads]
        if any(not 0.0 < x < self.length for x in xs):
            raise ValueError(f"load points {xs} must lie strictly inside (0, {self.length})")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError(f"load points {xs} must be strictly increasing")


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
    is assembled in closed form via the Caputo power rule, so the pair
    (exact, forcing) satisfies the equation identically.  ``integral_load``
    is a pair ``(q, projection)`` where ``projection(t)`` equals the integral
    of q(x, t) against the spatial profile over the domain; it is required in
    closed form to keep the forcing exact.  The load coefficients and q must
    broadcast over x and t as the evaluators do (see ``Evaluator``);
    ``projection`` is called with one time at a time, a float, as are the
    other time factors of the forcing and the exact solution.
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

    def tpart(t: float) -> float:
        return 1.0 + sum(a * t**p for a, p in terms)

    def dtpart(t: float) -> float:
        return sum(a * p * t ** (p - 1.0) for a, p in terms)

    def caputo_tpart(t: float) -> float:
        # every exponent p - alpha is positive, so t = 0 gives 0
        return sum(c * t**q for c, q in caputo_coefs)

    def profile_factor(t: float) -> float:
        return caputo_tpart(t) + kk * (tpart(t) + mu * dtpart(t))

    loads = tuple(loads)
    load_profiles = tuple(math.sin(k * ld.position) for ld in loads)
    if integral_load is not None:
        q_int, projection = integral_load
    else:
        q_int = projection = None

    def exact(x, t):
        return _per_time(tpart, t) * np.sin(k * np.asarray(x, dtype=float))

    def initial(x):
        return np.sin(k * np.asarray(x, dtype=float))

    def forcing(x, t):
        x = np.asarray(x, dtype=float)
        profile = np.sin(k * x)
        tt = _per_time(tpart, t)
        out = _per_time(profile_factor, t) * profile
        for ld, s in zip(loads, load_profiles):
            out = out - ld.coefficient(x, t) * (tt * s)
        if projection is not None:
            out = out - tt * _per_time(projection, t)
        return out

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
    )


def benchmark_problem(alpha: float) -> ProblemSpec:
    """Loaded benchmark with exact solution (t^3 + t^{2+alpha} + 1) sin(3 pi x).

    Three point loads at x = 0.2, 0.5, 0.8 carry the coefficients e^{x+t},
    sin(x+t) and cos(x+t); all of them stay below e^2 in magnitude on the
    unit space-time domain.
    """
    loads = (
        PointLoad(0.2, lambda x, t: np.exp(np.asarray(x, dtype=float) + t)),
        PointLoad(0.5, lambda x, t: np.sin(np.asarray(x, dtype=float) + t)),
        PointLoad(0.8, lambda x, t: np.cos(np.asarray(x, dtype=float) + t)),
    )
    return manufactured_problem(
        3, ((1.0, 3.0), (1.0, 2.0 + alpha)), alpha, mu=1.0, loads=loads
    )


def integral_benchmark_problem(alpha: float) -> ProblemSpec:
    """Distributed-load variant: the load integrates e^{x+t} times the solution."""
    k = 3.0 * math.pi
    profile_integral = k * (math.e + 1.0) / (1.0 + k * k)  # integral of e^x sin(3 pi x)

    def q(x, t):
        return np.exp(np.asarray(x, dtype=float) + t)

    def projection(t):
        return math.exp(t) * profile_integral

    return manufactured_problem(
        3,
        ((1.0, 3.0), (1.0, 2.0 + alpha)),
        alpha,
        mu=1.0,
        integral_load=(q, projection),
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
