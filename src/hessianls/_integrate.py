"""Deterministic quadrature helpers.

Cumulative integrals on hybrid linear/log grids are computed with fixed
Gauss-Legendre panels (one per cell), which is exact for the polynomial
model problems used as oracles and reproducible bit-for-bit across runs,
unlike adaptive routines whose subdivision depends on tolerances.
"""

from __future__ import annotations

import numpy as np

_GAUSS_X, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(12)


def panel_points(nodes: np.ndarray):
    """(half, pts): the half-width of every cell of ``nodes`` and its 12
    Gauss-Legendre points, shape (cells, 12); ``GAUSS_WEIGHTS`` weighs them
    per unit half-width."""
    lo = nodes[:-1]
    half = 0.5 * (nodes[1:] - lo)
    mid = lo + half
    return half, mid[:, None] + half[:, None] * _GAUSS_X[None, :]


def panel_cumulative(f, nodes: np.ndarray, start: float = -np.inf) -> np.ndarray:
    """Log of the cumulative integral of a positive integrand along ``nodes``.

    c[i] = ln(e^start + integral from nodes[0] to nodes[i]), one 12-point
    Gauss-Legendre panel per cell.  ``f`` maps the (cells, 12) Gauss points
    to (ln scale per cell, integrand / scale per point), so no integrand
    value need lie in the float range.  Cells are added after ``start`` by
    ``np.logaddexp.accumulate``: a range integrated in pieces, each started
    from the last value of the one before, adds them in one pass's order.
    """
    half, pts = panel_points(np.asarray(nodes, dtype=float))
    log_scale, vals = f(pts)
    with np.errstate(divide="ignore"):  # a cell whose integrand underflows adds nothing
        cells = log_scale + np.log(half * (vals @ GAUSS_WEIGHTS))
    return np.logaddexp.accumulate(np.concatenate([[start], cells]))


def cumulative_values(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of sampled values ``y`` over ``x``, starting at 0.

    Cumulative Simpson on a nonuniform grid (the rule and the operation
    order of scipy's ``cumulative_simpson``): each interval is integrated
    with the quadratic through it and a neighbouring node, the right one
    for even intervals, the left one for odd intervals and the last.  Two
    samples fall back to the trapezoid.
    """
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.asarray(x, dtype=float))
    if y.size < 3:
        parts = dx * (y[1:] + y[:-1]) / 2.0
    else:
        ahead = _simpson_pieces(y, dx)
        behind = _simpson_pieces(y[::-1], dx[::-1])[::-1]
        parts = np.empty(dx.size)
        parts[:-1:2] = ahead[::2]
        parts[1::2] = behind[::2]
        parts[-1] = behind[-1]
    out = np.empty(y.size)
    out[0] = 0.0
    np.cumsum(parts, out=out[1:])
    return out


def _simpson_pieces(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the quadratic through x_i, x_i+1, x_i+2."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


def fit_log_slope(r: np.ndarray, y: np.ndarray):
    """Least-squares slope of log y against log r.

    Returns (slope, stderr, intercept).  stderr is the standard error of
    the slope estimate from the residual variance; inputs must be
    positive and at least three points long for a finite stderr.
    """
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    if r.size != y.size or r.size < 2:
        raise ValueError("fit_log_slope needs matching arrays of length >= 2")
    if np.any(r <= 0) or np.any(y <= 0):
        raise ValueError("fit_log_slope requires positive samples")
    x = np.log(r)
    z = np.log(y)
    xbar = x.mean()
    dx = x - xbar
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("fit_log_slope requires distinct radii")
    slope = float(dx @ (z - z.mean())) / sxx
    intercept = float(z.mean() - slope * xbar)
    resid = z - (intercept + slope * x)
    dof = max(r.size - 2, 1)
    stderr = float(np.sqrt((resid @ resid) / dof / sxx))
    return slope, stderr, intercept
