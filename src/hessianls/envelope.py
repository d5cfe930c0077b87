"""Growth-envelope quadrature: the flux transform and the tables built on it.

The criteria, bounds and break lines are all one transform of a flux
integral, F(r, inner) = (n r^(k-n) inner / C(n,k))^(1/k) with inner =
integral_0^r s^(n-1) b psi^gamma: psi = 1 gives the envelope integrand J,
psi = btilde the oscillation integrand, psi = a break line its slope.
Tables use fixed Gauss panels and composite Simpson (no ODE stepping), so
they are an independent oracle for the solver.
"""

from __future__ import annotations

import math

import numpy as np

from ._integrate import cumulative_values, panel_cumulative
from .core import ProblemParams, RadialGrid

# A node this close (relative) to a requested radius gives way to it: the
# sliver cell between them blows up Simpson's weights.  Grids built with 32
# nodes per decade have nodes one rounding error from the default ones and
# lost 6e-4 relative accuracy that way.
_MERGE_GAP = 1e-3


def flux_slope(params: ProblemParams, r, inner) -> np.ndarray:
    """F(r, inner) elementwise; 0 where r <= 0 or inner <= 0."""
    r, inner = np.broadcast_arrays(np.asarray(r, dtype=float),
                                   np.asarray(inner, dtype=float))
    out = np.zeros(r.shape)
    pos = (r > 0.0) & (inner > 0.0)
    n, k = params.n, params.k
    out[pos] = np.exp((math.log(n / params.cnk) + (k - n) * np.log(r[pos])
                       + np.log(inner[pos])) / k)
    return out


def fine_nodes(r_max: float, extra=()) -> np.ndarray:
    """Integration nodes on [0, r_max]: the default grid refined four times,
    with the positive radii of ``extra`` merged in."""
    nodes = RadialGrid.build(r_max, min(10.0, r_max), 48).refined(4)
    extra = np.unique(np.asarray(extra, dtype=float))
    extra = extra[extra > 0]
    if not extra.size:
        return nodes
    right = np.minimum(np.searchsorted(extra, nodes), extra.size - 1)
    gap = np.minimum(np.abs(extra[right] - nodes),
                     np.abs(extra[np.maximum(right - 1, 0)] - nodes))
    return np.union1d(nodes[gap > _MERGE_GAP * nodes], extra)


def linear_growth_tables(params: ProblemParams, b, nodes: np.ndarray):
    """(inner, J, integral_0^r J) on ``nodes`` (starting at 0) for the
    linearized envelope, u^gamma replaced by 1."""
    n = params.n
    nodes = np.asarray(nodes, dtype=float)
    inner = panel_cumulative(lambda s: s ** (n - 1) * np.asarray(b(s)), nodes)
    integrand = flux_slope(params, nodes, inner)
    return inner, integrand, cumulative_values(integrand, nodes)


def growth_primitive(params: ProblemParams, b_star, r):
    """integral_0^r J(s) ds for scalar or array r.

    The requested radii are merged into the integration nodes, so the
    primitive is evaluated exactly where asked rather than interpolated.
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    r_top = float(rr.max())
    if r_top == 0.0:
        out = np.zeros_like(rr)
    else:
        nodes = fine_nodes(r_top, rr)
        out = np.interp(rr, nodes, linear_growth_tables(params, b_star, nodes)[2])
    return float(out[0]) if np.isscalar(r) else out
