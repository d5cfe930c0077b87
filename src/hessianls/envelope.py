"""Growth-envelope quadrature: the flux transform and the tables built on it.

The criteria, bounds and break lines are all one transform of a flux
integral, F(r, inner) = (n r^(k-n) inner / C(n,k))^(1/k) with inner =
integral_0^r s^(n-1) b psi^gamma: psi = 1 gives the envelope integrand J,
psi = btilde the oscillation integrand, psi = a break line its slope.  The
package's Gauss-panel integral :func:`flux_integral` returns ln inner,
finite where inner is not, for :func:`flux_slope`; only the break line's
Euler recurrence, which needs each segment's integral before it can place
the next segment, sums the same panel points in plain floats.  Tables use
fixed Gauss panels and composite Simpson (no ODE stepping), so they are an
independent oracle for the solver, and so are the two comparison routes
built here: the explicit break line (:func:`euler_polyline`) and the
frozen right-hand side (:func:`solve_linear_rhs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import GAUSS_WEIGHTS, cumulative_values, panel_cumulative, panel_points
from .coefficients import check_coefficient
from .core import ProblemParams, RadialGrid
from .errors import DomainTooLargeError, IntegrationError

# A node this close (relative) to a requested radius gives way to it: the
# sliver cell between them blows up Simpson's weights.  Grids built with 32
# nodes per decade have nodes one rounding error from the default ones and
# lost 6e-4 relative accuracy that way.
_MERGE_GAP = 1e-3

_DEFECT_SAMPLES_PER_SEGMENT = 8   # break-line defect samples per segment
_MAX_BREAKLINE_SEGMENTS = 1 << 18
# The break line and its defect tabulate their Gauss points in blocks of at
# most this many segments, so a line near _MAX_BREAKLINE_SEGMENTS keeps its
# transient arrays at a few MB.
_BLOCK_SEGMENTS = 1024


def flux_slope(params: ProblemParams, r, log_inner) -> np.ndarray:
    """F(r, e^log_inner) elementwise; 0 where r <= 0."""
    r, log_inner = np.broadcast_arrays(np.asarray(r, dtype=float),
                                       np.asarray(log_inner, dtype=float))
    out = np.zeros(r.shape)
    pos = r > 0.0
    n, k = params.n, params.k
    out[pos] = np.exp((params.log_n_over_cnk + (k - n) * np.log(r[pos]) + log_inner[pos]) / k)
    return out


def flux_integral(params: ProblemParams, b, nodes, psi=None,
                  start: float = -math.inf) -> np.ndarray:
    """ln(e^start + integral_nodes[0]^r s^(n-1) b(s) psi(s)^gamma) at every
    node r (``psi`` None: psi = 1), one 12-point Gauss panel per cell scaled by
    s^(n-1) psi^gamma at its last, largest Gauss point, so no power overflows."""
    n, gam = params.n, params.gamma

    def weighted(pts):  # b may underflow to 0 here: a steep tail still integrates
        s, top = pts.ravel(), pts[:, -1:]
        vals = (pts / top) ** (n - 1) * check_coefficient(b(s), s, True).reshape(pts.shape)
        if psi is None:
            return (n - 1) * np.log(top[:, 0]), vals
        psi_vals = np.asarray(psi(s)).reshape(pts.shape)
        psi_top = psi_vals[:, -1:]
        return ((n - 1) * np.log(top[:, 0]) + gam * np.log(psi_top[:, 0]),
                vals * (psi_vals / psi_top) ** gam)
    return panel_cumulative(weighted, nodes, start)


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
    """(ln inner, J, integral_0^r J) on ``nodes`` (starting at 0) for the
    linearized envelope, u^gamma replaced by 1."""
    nodes = np.asarray(nodes, dtype=float)
    log_inner = flux_integral(params, b, nodes)
    integrand = flux_slope(params, nodes, log_inner)
    return log_inner, integrand, cumulative_values(integrand, nodes)


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
    b_max = float(check_coefficient(b(probe_r), probe_r).max())
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
    """One doubling round: b is evaluated once per block of segments, then
    the Euler recurrence runs in plain floats over each segment's 24 Gauss
    points (slope from the inner integral, box check, inner += the
    segment's integral).  The slope is F in flux_slope's order of
    operations, with libm's log and exp in place of numpy's."""
    a = params.a
    if r_flat >= r_end:
        radii = np.array([0.0, r_end])
        values = np.array([a, a])
        slopes = np.array([0.0])
        return BreakLine(radii, values, slopes, epsilon, r_flat)
    radii = np.concatenate([[0.0], np.linspace(r_flat, r_end, segments + 1)])
    if r_flat == 0.0:
        radii = radii[1:]
    k, gam, box = params.k, params.gamma, 2.0 * a
    inner = math.exp(flux_integral(params, b, np.linspace(0.0, r_flat, 33),
                                   lambda s: np.full_like(s, a))[-1])
    # the terms of log F that do not depend on inner, at every segment start
    log_heads = (params.log_n_over_cnk + (k - params.n) * np.log(radii[1:-1])).tolist()
    steps = np.diff(radii).tolist()
    values = [a, a]  # the center and the end of the flat head
    slopes = [0.0]
    for first in range(1, radii.size - 1, _BLOCK_SEGMENTS):
        stop = min(first + _BLOCK_SEGMENTS, radii.size - 1)
        offsets, weights = _segment_rows(params, b, radii[first:stop + 1])
        for i, offset_row, weight_row in zip(range(first, stop), offsets, weights):
            slope = math.exp((log_heads[i - 1] + math.log(inner)) / k) if inner > 0.0 else 0.0
            value_lo = values[i]
            value = value_lo + slope * steps[i]
            if value >= box:
                raise DomainTooLargeError(
                    f"break line left the box [a, 2a] at r = {radii[i + 1]:g}; "
                    f"choose a smaller right endpoint than {r_end:g}")
            slopes.append(slope)
            values.append(value)
            piece = 0.0
            for weight, offset in zip(weight_row, offset_row):
                piece += weight * (value_lo + slope * offset) ** gam
            inner += piece
    return BreakLine(radii, np.array(values), np.array(slopes), epsilon, r_flat)


def _segment_rows(params: ProblemParams, b, radii: np.ndarray):
    """Per segment of ``radii``, split at its midpoint into two Gauss panels:
    the offsets s - lo of its 24 points from the segment start and their
    weights w half s^(n-1) b(s), as lists of 24-element rows."""
    lo = radii[:-1]
    nodes = np.empty(2 * lo.size + 1)
    nodes[:-1:2] = lo
    nodes[1::2] = (radii[1:] - lo) / 2 + lo  # the midpoint np.linspace(lo, hi, 3) gives
    nodes[-1] = radii[-1]
    half, pts = panel_points(nodes)
    s = pts.ravel()
    weights = (s ** (params.n - 1) * np.asarray(b(s))).reshape(pts.shape) \
        * (half[:, None] * GAUSS_WEIGHTS)
    rows = (lo.size, 2 * GAUSS_WEIGHTS.size)
    return (pts.reshape(rows) - lo[:, None]).tolist(), weights.reshape(rows).tolist()


def breakline_defect(line: BreakLine, params: ProblemParams, b) -> float:
    """Largest sampled |dpsi/dr - F[r, psi]| over the line.

    Samples interior points of every segment (the defect vanishes at the
    left endpoints by construction) including the flat head.  The flux
    integral runs over two cells per sample, in blocks of segments, each
    block's running integral started from the last one's; psi at a Gauss
    point is taken from the segment the cell lies in.
    """
    cells = 2 * _DEFECT_SAMPLES_PER_SEGMENT
    fractions = np.arange(1, cells + 1) / cells
    radii, values, slopes = line.radii, line.values, line.slopes
    points = cells * GAUSS_WEIGHTS.size  # Gauss points per segment
    log_inner, worst = -math.inf, []
    for first in range(0, slopes.size, _BLOCK_SEGMENTS):
        stop = min(first + _BLOCK_SEGMENTS, slopes.size)
        lo = radii[first:stop, None]
        sub = lo + np.diff(radii[first:stop + 1])[:, None] * fractions
        sub[:, -1] = radii[first + 1:stop + 1]
        nodes = np.concatenate([radii[first:first + 1], sub.ravel()])
        block = flux_integral(params, b, nodes, lambda s: (
            values[first:stop, None] + slopes[first:stop, None] * (s.reshape(-1, points) - lo)
        ).ravel(), log_inner)
        log_inner = float(block[-1])
        sampled = np.repeat(slopes[first:stop], _DEFECT_SAMPLES_PER_SEGMENT)
        worst.append(np.max(np.abs(sampled - flux_slope(params, nodes[2::2], block[2::2]))))
    return float(np.max(worst))
