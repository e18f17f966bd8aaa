"""Independent reference implementations used only by the tests.

Everything here is deliberately written on a different route than the
package: dense matrices instead of banded solves, scipy Lagrange polynomials
instead of closed-form weights, a march over the levels instead of over
their increments, a load correction closed from its column solves instead
of its row solves.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import lagrange

from hallaire.stepper import ThomasFactor, thomas_factor, thomas_solve


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


def l1_lag_weights(k, alpha):
    """Weights c_k of the lags k >= 1, with no cancellation at large k.

    The difference of powers (k + 1/2)^b - (k - 1/2)^b, b = 1 - alpha, loses
    about eps k of its relative accuracy; here it is factored at the upper
    end as -(k + 1/2)^b expm1(b log1p(-1 / (k + 1/2))).
    """
    beta = 1.0 - alpha
    upper = np.asarray(k, dtype=float) + 0.5
    return -(upper**beta) * np.expm1(beta * np.log1p(-1.0 / upper))


def l1_lag_weight_decimal(k, alpha, digits=50):
    """c_k of one integer lag as a difference of powers in ``digits``-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = digits
        beta = Decimal(1.0 - alpha)
        half = Decimal("0.5")
        return (Decimal(int(k)) + half) ** beta - (Decimal(int(k)) - half) ** beta


def woodbury_solve(tri, columns, rows, b):
    """Solve (T + U W^T) x = b for a tridiagonal T and dense columns U (n x m) and rows W^T (m x n).

    ``tri`` is T or its ``ThomasFactor``; T need not be symmetric.  The
    correction is closed from the column solves Z = T^{-1} U, all in one
    sweep, through the capacitance matrix cap = I + W^T Z: y = T^{-1} b,
    x = y - Z cap^{-1} W^T y.  The march closes from its rows solved against
    T instead, so this shares no load algebra with it.  Rows or columns of
    the wrong shape are a ``ValueError``, a singular capacitance a
    ``LinAlgError``.
    """
    factor = tri if isinstance(tri, ThomasFactor) else thomas_factor(tri)
    n = factor.n
    columns = np.asarray(columns, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"load rows have shape {rows.shape}, expected (m, {n}): one row per load, one entry per unknown")
    m = len(rows)
    if columns.shape != (n, m):
        raise ValueError(f"load columns have shape {columns.shape}, expected ({n}, {m}): one per row")
    if not m:
        return thomas_solve(factor, b)
    z = thomas_solve(factor, columns.T)
    y = thomas_solve(factor, b)
    try:
        q = np.linalg.solve(np.eye(m) + rows @ z.T, np.matvec(rows, y)[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"singular capacitance matrix for the {m} load row(s)") from None
    return y - q @ z


def full_interpolation_row(xk, grid):
    """Cubic interpolation weights over all nodes, via Lagrange polynomials.

    The polynomials are built on the window's own coordinate, 0..3 at its
    nodes: on the nodes' positions their monomial coefficients grow as
    h^-3, and the weights lose digits to cancellation (5e-12 at nx = 40).
    """
    h = grid.h
    row = np.zeros(grid.nx + 1)
    nearest = int(round(xk / h))
    if abs(xk - nearest * h) <= 1e-12 * grid.length:
        row[nearest] = 1.0
        return row
    anchor = int(math.floor(xk / h))
    nodes = np.arange(anchor - 1, anchor + 3)
    for p, node in enumerate(nodes):
        basis = np.zeros(4)
        basis[p] = 1.0
        row[node] = float(lagrange(np.arange(4.0), basis)(xk / h - nodes[0]))
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
    history term is evaluated in its direct difference form.  A load acts on
    the half-layer average of its sample of the levels less its offset,
    (row y^j + row y^{j+1}) / 2 - g: the new level's half goes into the
    matrix, the rest into the right-hand side.  Returns the array of levels
    y^0..y^{nsteps}.
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
    m = len(point_rows) + (problem.integral_load is not None)

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
        g = np.zeros(m) if problem.load_offsets is None else np.asarray(problem.load_offsets(th), dtype=float)
        for load, row, gk in zip(problem.loads, point_rows, g):
            qv = np.asarray(load.coefficient(x, th), dtype=float) * ones
            hq = hmat @ qv
            a -= 0.5 * np.outer(hq, row[1:-1])
            rhs += hq * (0.5 * float(row @ levels[j]) - gk)
        if problem.integral_load is not None:
            srow = simpson_full_row(grid) * np.asarray(problem.integral_load(x, th), dtype=float) * ones
            hones = hmat @ ones
            a -= 0.5 * np.outer(hones, srow[1:-1])
            rhs += hones * (0.5 * float(srow @ levels[j]) - g[-1])
        interior = np.linalg.solve(a, rhs)
        levels[j + 1, 1:-1] = interior
    return levels
