"""Deterministic quadrature helpers.

Cumulative integrals on hybrid linear/log grids are computed with fixed
Gauss-Legendre panels (one per cell), which is exact for the polynomial
model problems used as oracles and reproducible bit-for-bit across runs,
unlike adaptive routines whose subdivision depends on tolerances.
"""

from __future__ import annotations

import numpy as np

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)


def panel_cumulative(f, nodes: np.ndarray) -> np.ndarray:
    """Cumulative integral of ``f`` along ``nodes``.

    Returns an array c with c[i] = integral from nodes[0] to nodes[i],
    using a 12-point Gauss-Legendre panel per cell.  ``f`` must accept an
    ndarray of evaluation points.
    """
    nodes = np.asarray(nodes, dtype=float)
    lo = nodes[:-1]
    half = 0.5 * (nodes[1:] - lo)
    mid = lo + half
    # all panel points at once: shape (cells, 12)
    pts = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    per_cell = half * (vals @ _GAUSS_W)
    out = np.empty(nodes.size)
    out[0] = 0.0
    np.cumsum(per_cell, out=out[1:])
    return out


def cumulative_values(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of sampled values ``y`` over ``x``, starting at 0.

    scipy's ``cumulative_simpson``: each interval is integrated with the
    quadratic through it and a neighbouring node, so the result is defined
    at every node and nonuniform spacing is allowed.
    """
    from scipy.integrate import cumulative_simpson

    out = cumulative_simpson(y, x=x, initial=0.0)
    return np.asarray(out)


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
