"""Growth-envelope quadrature: the flux transform and the tables built on it.

The criteria, bounds and break lines are all one transform of a flux
integral, F(r, inner) = (n r^(k-n) inner / C(n,k))^(1/k) with inner =
integral_0^r s^(n-1) b psi^gamma: psi = 1 gives the envelope integrand J,
psi = btilde the oscillation integrand, psi = a break line its slope.
:func:`flux_integral` is the only Gauss-panel integral of the package.
Tables use fixed Gauss panels and composite Simpson (no ODE stepping), so
they are an independent oracle for the solver, and so are the two
comparison routes built here: the explicit break line
(:func:`euler_polyline`) and the frozen right-hand side
(:func:`solve_linear_rhs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import cumulative_values, panel_cumulative
from .core import ProblemParams, RadialGrid
from .errors import CoefficientError, DomainTooLargeError, IntegrationError

# A node this close (relative) to a requested radius gives way to it: the
# sliver cell between them blows up Simpson's weights.  Grids built with 32
# nodes per decade have nodes one rounding error from the default ones and
# lost 6e-4 relative accuracy that way.
_MERGE_GAP = 1e-3

_DEFECT_SAMPLES_PER_SEGMENT = 8   # break-line defect samples per segment
_MAX_BREAKLINE_SEGMENTS = 1 << 18


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


def flux_integral(params: ProblemParams, b, nodes, psi=None) -> np.ndarray:
    """integral_nodes[0]^r s^(n-1) b(s) psi(s)^gamma at every node r, with
    one 12-point Gauss panel per cell; ``psi`` None stands for psi = 1."""
    n = params.n
    if psi is None:
        return panel_cumulative(lambda s: s ** (n - 1) * np.asarray(b(s)), nodes)
    gam = params.gamma
    return panel_cumulative(lambda s: s ** (n - 1) * np.asarray(b(s)) * psi(s) ** gam, nodes)


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
    nodes = np.asarray(nodes, dtype=float)
    inner = flux_integral(params, b, nodes)
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


def solve_linear_rhs(params: ProblemParams, b, grid: RadialGrid) -> np.ndarray:
    """Solution of the comparison problem with frozen right-hand side
    (u^gamma replaced by 1): ubar(r) at the grid nodes, by nested
    quadrature only."""
    return growth_primitive(params, b, grid.nodes)


# ---------------------------------------------------------------------------
# explicit break line (Euler polygon)
# ---------------------------------------------------------------------------

@dataclass
class BreakLine:
    """Piecewise-linear epsilon-approximate solution on [0, R].

    Flat at the center value out to ``r_flat`` (chosen so the slope
    functional stays below epsilon there), then explicit Euler segments on
    a uniform partition.  ``slopes[i]`` is the slope on
    (radii[i], radii[i+1]].
    """

    radii: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    epsilon: float
    r_flat: float

    def eval(self, r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        idx = np.clip(np.searchsorted(self.radii, rr, side="right") - 1, 0,
                      self.radii.size - 2)
        out = self.values[idx] + self.slopes[idx] * (rr - self.radii[idx])
        return float(out[0]) if np.isscalar(r) else out

    __call__ = eval


def euler_polyline(params: ProblemParams, b, r_end: float, epsilon: float) -> BreakLine:
    """Construct the explicit epsilon-approximate break line on [0, r_end].

    The construction doubles the uniform partition until the sampled
    defect |dpsi/dr - F[r, psi]| is below epsilon on every segment.  The
    line must stay inside the box [a, 2a]; leaving it raises
    DomainTooLargeError (the box is only guaranteed for small r_end).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if r_end <= 0:
        raise ValueError(f"r_end must be positive, got {r_end}")
    k, gam, a = params.k, params.gamma, params.a
    probe_r = np.linspace(0.0, r_end, 1025)
    probe_b = np.asarray(b(probe_r))
    if np.any(probe_b <= 0.0):
        raise CoefficientError("coefficient must be positive on [0, r_end]")
    b_max = float(probe_b.max())
    # flat head: F is below epsilon as long as r <= r_flat by the crude
    # bound F <= r (b_max (2a)^gamma / C(n,k))^(1/k)
    r_flat = params.cnk ** (1.0 / k) * epsilon / (b_max ** (1.0 / k) * (2.0 * a) ** (gam / k))
    r_flat = min(r_flat, r_end)

    segments = 16
    while True:
        line = _build_line(params, b, r_end, epsilon, r_flat, segments)
        if breakline_defect(line, params, b) < epsilon:
            return line
        segments *= 2
        if segments > _MAX_BREAKLINE_SEGMENTS:
            raise IntegrationError(
                f"break line did not reach defect < {epsilon:g} within "
                f"{_MAX_BREAKLINE_SEGMENTS} segments")


def _build_line(params: ProblemParams, b, r_end: float, epsilon: float,
                r_flat: float, segments: int) -> BreakLine:
    a = params.a
    if r_flat >= r_end:
        radii = np.array([0.0, r_end])
        values = np.array([a, a])
        slopes = np.array([0.0])
        return BreakLine(radii, values, slopes, epsilon, r_flat)
    radii = np.concatenate([[0.0], np.linspace(r_flat, r_end, segments + 1)])
    if r_flat == 0.0:
        radii = radii[1:]
    values = np.empty_like(radii)
    slopes = np.zeros(radii.size - 1)
    values[0] = a
    values[1] = a  # end of the flat head
    inner = float(flux_integral(params, b, np.linspace(0.0, r_flat, 33),
                                lambda s: np.full_like(s, a))[-1])
    for i in range(1, radii.size - 1):
        slope_i = float(flux_slope(params, radii[i], inner))
        slopes[i] = slope_i
        values[i + 1] = values[i] + slope_i * (radii[i + 1] - radii[i])
        if values[i + 1] >= 2.0 * a:
            raise DomainTooLargeError(
                f"break line left the box [a, 2a] at r = {radii[i + 1]:g}; "
                f"choose a smaller right endpoint than {r_end:g}")
        lo, value_lo = radii[i], values[i]
        inner += float(flux_integral(params, b, np.linspace(lo, radii[i + 1], 3),
                                     lambda s: value_lo + slope_i * (s - lo))[-1])
    return BreakLine(radii, values, slopes, epsilon, r_flat)


def breakline_defect(line: BreakLine, params: ProblemParams, b) -> float:
    """Largest sampled |dpsi/dr - F[r, psi]| over the line.

    Samples interior points of every segment (the defect vanishes at the
    left endpoints by construction) including the flat head.  The flux
    integral runs in one quadrature pass over two cells per sample.
    """
    cells = 2 * _DEFECT_SAMPLES_PER_SEGMENT
    lo = line.radii[:-1, None]
    sub = lo + np.diff(line.radii)[:, None] * (np.arange(1, cells + 1) / cells)
    sub[:, -1] = line.radii[1:]
    nodes = np.concatenate([line.radii[:1], sub.ravel()])
    inner = flux_integral(params, b, nodes, line.eval)
    slopes = np.repeat(line.slopes, _DEFECT_SAMPLES_PER_SEGMENT)
    return float(np.max(np.abs(slopes - flux_slope(params, nodes[2::2], inner[2::2]))))
