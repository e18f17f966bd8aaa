"""Independent reference implementations used only by the tests.

Everything here is deliberately written on a different route than the
package: dense matrices instead of banded solves, scipy Lagrange polynomials
instead of closed-form weights, a march over the levels instead of over
their increments.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import lagrange


def caputo_by_quadrature(du, alpha, t):
    """Weighted quadrature of the fractional-derivative integral; ``du`` is u'."""
    if t == 0.0:
        return 0.0
    val, _ = quad(du, 0.0, t, weight="alg", wvar=(0.0, -alpha), limit=200)
    return val / math.gamma(1.0 - alpha)


def l1_weights_direct(j, alpha):
    c = np.empty(j + 1)
    c[0] = 0.5 ** (1.0 - alpha)
    for i in range(1, j + 1):
        c[i] = (i + 0.5) ** (1.0 - alpha) - (i - 0.5) ** (1.0 - alpha)
    return c


def full_interpolation_row(xk, grid):
    """Cubic interpolation weights over all nodes, via Lagrange polynomials."""
    h = grid.h
    row = np.zeros(grid.nx + 1)
    nearest = int(round(xk / h))
    if abs(xk - nearest * h) <= 1e-12 * grid.length:
        row[nearest] = 1.0
        return row
    anchor = int(math.floor(xk / h))
    nodes = np.arange(anchor - 1, anchor + 3)
    xs = nodes * h
    for p, node in enumerate(nodes):
        basis = np.zeros(4)
        basis[p] = 1.0
        row[node] = float(lagrange(xs, basis)(xk))
    return row


def simpson_full_row(grid):
    w = np.ones(grid.nx + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * grid.h / 3.0


def compact_matrix(grid):
    """(nx-1) x (nx+1) matrix applying the compact average to full vectors."""
    n = grid.nx - 1
    m = np.zeros((n, grid.nx + 1))
    for i in range(1, grid.nx):
        m[i - 1, i - 1] = 1.0 / 12.0
        m[i - 1, i] = 10.0 / 12.0
        m[i - 1, i + 1] = 1.0 / 12.0
    return m


def second_difference_matrix(grid):
    n = grid.nx - 1
    m = np.zeros((n, grid.nx + 1))
    h2 = grid.h * grid.h
    for i in range(1, grid.nx):
        m[i - 1, i - 1] = 1.0 / h2
        m[i - 1, i] = -2.0 / h2
        m[i - 1, i + 1] = 1.0 / h2
    return m


def dense_march(problem, grid, nsteps=None):
    """Dense re-implementation of the implicit half-layer scheme.

    Assembles the full interior matrix every step and solves with LU; the
    history term is evaluated in its direct difference form.  Returns the
    array of levels y^0..y^{nsteps}.
    """
    nsteps = grid.nt if nsteps is None else nsteps
    nx = grid.nx
    tau = grid.tau
    mu = problem.mu
    alpha = problem.alpha
    x = grid.x
    beta = tau ** (-alpha) / math.gamma(2.0 - alpha)
    c = l1_weights_direct(nsteps, alpha)
    hmat = compact_matrix(grid)
    d2mat = second_difference_matrix(grid)
    core = beta * c[0] * hmat[:, 1:-1] - (0.5 + mu / tau) * d2mat[:, 1:-1]
    ones = np.ones(nx + 1)

    point_rows = [full_interpolation_row(ld.position, grid) for ld in problem.loads]

    levels = np.zeros((nsteps + 1, nx + 1))
    y0 = np.asarray(problem.initial(x), dtype=float) * ones
    y0[0] = 0.0
    y0[-1] = 0.0
    levels[0] = y0

    for j in range(nsteps):
        th = (j + 0.5) * tau
        a = core.copy()
        fv = np.asarray(problem.forcing(x, th), dtype=float) * ones
        rhs = beta * c[0] * (hmat @ levels[j])
        for s in range(j):
            rhs -= beta * c[j - s] * (hmat @ (levels[s + 1] - levels[s]))
        rhs += (0.5 - mu / tau) * (d2mat @ levels[j])
        rhs += hmat @ fv
        for load, row in zip(problem.loads, point_rows):
            qv = np.asarray(load.coefficient(x, th), dtype=float) * ones
            hq = hmat @ qv
            a -= 0.5 * np.outer(hq, row[1:-1])
            rhs += 0.5 * hq * float(row @ levels[j])
        if problem.integral_load is not None:
            srow = simpson_full_row(grid) * np.asarray(problem.integral_load(x, th), dtype=float) * ones
            hones = hmat @ ones
            a -= 0.5 * np.outer(hones, srow[1:-1])
            rhs += 0.5 * hones * float(srow @ levels[j])
        interior = np.linalg.solve(a, rhs)
        levels[j + 1, 1:-1] = interior
    return levels
