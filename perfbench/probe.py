"""A fixed piece of work that uses none of the program: the machine's speed now.

The speed of the two-vCPU machine this benchmark was written on drifts by
20 % and more over seconds to minutes (README.md, "Scaled time and CPU
time").  A run times this probe before and after every round and scales
the round's wall time by ``REFERENCE_S / probe time`` (see ``run.py``): a
change to the program moves the scaled time in full, because the probe
does not run the program, while a slower spell of the machine moves the
round and the probe alike.

The probe mixes what a solve spends its time on: a pure-Python
tridiagonal sweep (the interpreter), small numpy vector operations (call
overhead) and a matrix-vector product over a few megabytes (memory).
"""

from __future__ import annotations

import time

import numpy as np

# About one probe's time on the machine the reference figures in README.md
# come from; a scaled time is in seconds of that machine.
REFERENCE_S = 0.25


def probe() -> float:
    """Seconds taken by the fixed work."""
    t0 = time.perf_counter()
    n = 200
    lower = [0.25] * n
    diag = [2.0] * n
    rhs = [1.0] * n
    for _ in range(240):
        c = [0.0] * n
        x = [0.0] * n
        c[0] = lower[0] / diag[0]
        x[0] = rhs[0] / diag[0]
        for i in range(1, n):
            m = diag[i] - lower[i] * c[i - 1]
            c[i] = lower[i] / m
            x[i] = (rhs[i] - lower[i] * x[i - 1]) / m
    v = np.ones(201)
    for _ in range(12000):
        v = np.sin(v) * 0.5 + v[::-1] * 0.25
    levels = np.ones((600, 1001))
    weights = np.ones(600)
    for _ in range(160):
        weights @ levels
    return time.perf_counter() - t0
