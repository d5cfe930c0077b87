"""Growth-envelope quadrature: the flux transform and every integral built on it.

The criteria, bounds and break lines are all one transform of a flux
integral, F(r, inner) = (n r^(k-n) inner / C(n,k))^(1/k) with inner =
integral_0^r s^(n-1) b psi^gamma: psi = 1 gives the envelope integrand J,
psi = btilde the oscillation integrand, psi = a break line its slope.  The
package's Gauss-panel integral :func:`flux_integral` returns ln inner,
finite where inner is not, for :func:`flux_slope`; only the break line's
Euler recurrence, which needs each segment's integral before it can place
the next segment, sums the same panel points in plain floats.  Every
envelope integral lives here: J, its primitive, btilde, I_osc and the two
moment integrals, whose outer integrals (and I_osc's inner one, pinned by
the golden sandwich report) are composite Simpson on :func:`fine_nodes`.
Only :class:`EnvelopeTables` lays a J table: a classify reads I_osc, the
moment integrals and the existence finite part from one, a sandwich I_osc
and its ceiling from one on its grid's nodes, and :func:`growth_primitive`
is one read of one.  The exact counts of that work (Gauss points, tabulated
b points, Simpson nodes, refined grids) are in the work ledger,
``tests/data/work_ledger.json``.
Tables use no ODE stepping, so they are an independent oracle for the
solver, and so are the two comparison routes built here: the explicit
break line (:func:`euler_polyline`) and the frozen right-hand side
(:func:`solve_linear_rhs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._integrate import GAUSS_WEIGHTS, cumulative_values, panel_cumulative, panel_points
from .coefficients import RadializedTriple, check_coefficient, triple_from_radial
from .core import MAX_GRID_NODES, ProblemParams, RadialGrid
from .errors import DomainTooLargeError, IntegrationError, ParameterError

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
# A defect against epsilon takes its first block this small: a failing
# round's largest sample is its first segments'.
_FIRST_BLOCK_SEGMENTS = 16
# The most Gauss panels flux_integral lays beyond the cells it is given
# (check_flux_budget refuses more, naming n, before any is laid): 20 MB per
# (panels, 12) array.
MAX_ADDED_PANELS = 2 * MAX_GRID_NODES


# A 12-point panel on [0, h] is exact for s^(n-1) only up to n = 24, and one on
# [a, c] resolves it while (n - 1) ln(c / a) <= 16, as the last of ceil(n / 16)
# even panels of a cell from 0 does.  One panel, the cell itself, for n <= 16.
def flux_panels(n: int) -> int:
    """ceil(n / 16): the Gauss panels :func:`flux_integral` lays per cell."""
    return -(-n // 16)


def check_flux_budget(n: int, cells: int) -> int:
    """flux_panels(n), the cut of each of ``cells`` cells; more than MAX_ADDED_PANELS
    added panels, cells * (flux_panels(n) - 1), are refused, naming n."""
    added = cells * (flux_panels(n) - 1)
    if added > MAX_ADDED_PANELS:
        raise ParameterError(f"n = {n}: {added} added flux panels, at most {MAX_ADDED_PANELS}")
    return flux_panels(n)


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
    node r (``psi`` None: psi = 1): flux_panels(n) even 12-point Gauss panels per
    cell, scaled by s^(n-1) psi^gamma at their largest point, so no power overflows."""
    n, gam, cut = params.n, params.gamma, check_flux_budget(params.n, len(nodes) - 1)
    if cut > 1:
        nodes = np.asarray(nodes, dtype=float)
        lo = nodes[:-1, None]
        nodes = np.append(lo + (nodes[1:, None] - lo) * (np.arange(cut) / cut), nodes[-1])

    def weighted(pts):  # b may underflow to 0 here: a steep tail still integrates
        s, top = pts.ravel(), pts[:, -1:]
        vals = (pts / top) ** (n - 1) * check_coefficient(b(s), s, True).reshape(pts.shape)
        if psi is None:
            return (n - 1) * np.log(top[:, 0]), vals
        psi_vals = np.asarray(psi(s)).reshape(pts.shape)
        psi_top = psi_vals[:, -1:]
        return ((n - 1) * np.log(top[:, 0]) + gam * np.log(psi_top[:, 0]),
                vals * (psi_vals / psi_top) ** gam)
    return panel_cumulative(weighted, nodes, start)[::cut]


def fine_nodes(r_max: float, extra=()) -> np.ndarray:
    """Integration nodes on [0, r_max]: the default grid refined four times,
    with the positive radii of ``extra`` merged in."""
    return merge_nodes(RadialGrid.build(r_max).refined(4), extra, _MERGE_GAP)


def merge_nodes(nodes: np.ndarray, extra, gap: float = 0.0) -> np.ndarray:
    """Sorted ``nodes`` and the positive radii of ``extra`` in one sorted set, each radius once;
    a node within relative ``gap`` of a merged radius gives way to it, unless last or asked for."""
    # sort and search: numpy's set routines import numpy.ma on first use
    extra = np.asarray(extra, dtype=float)
    extra = np.sort(extra[extra > 0])
    kept = np.arange(nodes.size) == nodes.size - 1   # the last node and the radii that are nodes
    if extra.size:
        # each radius once, and one that already is a node evicts no neighbour
        at = np.minimum(np.searchsorted(nodes, extra), nodes.size - 1)
        fresh = nodes[at] != extra
        kept[at[~fresh]] = True
        fresh[1:] &= extra[1:] != extra[:-1]
        extra = extra[fresh]
    if not extra.size:
        return nodes
    right = np.minimum(np.searchsorted(extra, nodes), extra.size - 1)
    near = np.minimum(np.abs(extra[right] - nodes),
                      np.abs(extra[np.maximum(right - 1, 0)] - nodes))
    # the kept nodes and the extra radii are disjoint: one sort merges them
    return np.sort(np.concatenate([nodes[kept | (near > gap * nodes)], extra]))


def linear_growth_tables(params: ProblemParams, b, nodes: np.ndarray):
    """(ln inner, J, integral_0^r J) on ``nodes`` (starting at 0) for the
    linearized envelope, u^gamma replaced by 1."""
    log_inner = flux_integral(params, b, nodes)
    integrand = flux_slope(params, nodes, log_inner)
    return log_inner, integrand, cumulative_values(integrand, nodes)


def growth_primitive(params: ProblemParams, b_star, r):
    """integral_0^r J(s) ds for scalar or array r, read from an :class:`EnvelopeTables`
    laid with r among its nodes: exact where asked, not interpolated."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    r_top = float(rr.max())
    out = np.zeros_like(rr) if r_top == 0.0 else EnvelopeTables(
        params, triple_from_radial(b_star), r_top, rr).primitive(rr)
    return float(out[0]) if np.isscalar(r) else out


def solve_linear_rhs(params: ProblemParams, b, grid: RadialGrid) -> np.ndarray:
    """Solution of the comparison problem with frozen right-hand side
    (u^gamma replaced by 1): ubar(r) at the grid nodes, by nested
    quadrature only."""
    return growth_primitive(params, b, grid.nodes)


def keller_osserman_integrand(b_star, r: float, params: ProblemParams) -> float:
    """J(r), from the flux integral over [0, r]."""
    if r < 0:
        raise ParameterError(f"radius must be nonnegative, got {r}")
    if r == 0.0:
        return 0.0
    return float(flux_slope(params, r, flux_integral(params, b_star, fine_nodes(r))[-1]))


def compute_b_tilde(b_star, s, params: ProblemParams):
    """Worst-case growth factor (1 + integral_0^s J)^(k gamma/(k-gamma))."""
    return _growth_factor(params, growth_primitive(params, b_star, s))


def _growth_factor(params: ProblemParams, primitive):
    """btilde from its primitive integral_0^s J."""
    power = params.k * params.gamma / (params.k - params.gamma)
    return (1.0 + primitive) ** power


def bounded_solution_bound(params: ProblemParams, b_star, r):
    """Closed-form pointwise bound for bounded-regime solutions:

        ( a^((k-gamma)/k) + (k-gamma)/k * integral_0^r J )^(k/(k-gamma)).

    Valid for every radial solve with coefficient below b_star; reduces to
    a at r = 0.
    """
    return solution_ceiling(params, growth_primitive(params, b_star, r))


def solution_ceiling(params: ProblemParams, primitive):
    """(a^((k-gamma)/k) + (k-gamma)/k * primitive)^(k/(k-gamma)), ``primitive`` integral_0^r J."""
    sub = params.sub_power
    return (params.a ** sub + sub * primitive) ** (1.0 / sub)


class EnvelopeTables:
    """What the finite parts of one op share on [0, r_max] for ``triple``.

    Each member is computed the first time it is read: the fine nodes (with
    ``radii`` merged in), b_* at the Gauss points of their cells' flux panels
    (checked once), the J table (ln inner, J, integral_0^r J) on them, and b_*
    and b_osc on the nodes.  So one classify tabulates b_* and J once for the
    existence, oscillation and moment criteria, and one sandwich once for I_osc
    and its supersolution ceiling.  This is the only J table builder: build one
    per op; nothing here outlives it.
    """

    def __init__(self, params: ProblemParams, triple: RadializedTriple, r_max: float,
                 radii=()):
        self.params, self.triple, self.r_max, self.radii = params, triple, r_max, radii
        self._star_gauss = None

    @cached_property
    def fine(self) -> np.ndarray:
        return fine_nodes(self.r_max, self.radii)

    def primitive(self, r) -> np.ndarray:
        """integral_0^r J, exactly, at radii ``r`` of :attr:`fine` (the constructor's ``radii``)."""
        return self.growth[2][np.searchsorted(self.fine, r)]

    def _star_at_gauss(self, s) -> np.ndarray:
        """b_* at ``s``, the Gauss points of the flux panels of :attr:`fine`:
        every flux integral here runs on those nodes at one n, so b_* is
        evaluated and checked on the first call only."""
        if self._star_gauss is None:
            self._star_gauss = check_coefficient(self.triple.b_star(s), s, nonnegative=True)
        return self._star_gauss

    @cached_property
    def growth(self):
        """(ln inner, J, integral_0^r J) on :attr:`fine`."""
        return linear_growth_tables(self.params, self._star_at_gauss, self.fine)

    @cached_property
    def star_fine(self) -> np.ndarray:
        return check_coefficient(self.triple.b_star(self.fine), self.fine, nonnegative=True)

    @cached_property
    def osc_fine(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.asarray(self.triple.b_osc(self.fine))


def oscillation_integral(tables: EnvelopeTables):
    """The [0, r_max] part of I_osc = integral F(r, integral_0^r s^(n-1) b_osc
    btilde) dr and the outer integrand at r_max (for the tail estimate)."""
    params, fine = tables.params, tables.fine
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # compute_b_tilde on ``fine`` would lay a second J table on a merged
        # copy of it; its primitive is this table's last column on ``fine``.
        btilde = _growth_factor(params, tables.growth[2])
        osc_vals = tables.osc_fine
        # In extreme-exponent regimes the oscillation underflows to zero
        # while the growth factor overflows; the product is then taken as
        # zero (no verdict depends on this finite part).
        integrand = np.where(osc_vals == 0.0, 0.0,
                             fine ** (params.n - 1) * osc_vals * btilde)
        # Simpson's inner integral can dip below 0 where the integrand is tiny
        outer = flux_slope(params, fine, np.log(np.maximum(cumulative_values(integrand, fine), 0)))
        return _total(outer, fine), float(outer[-1])


def radial_moment_integral(tables: EnvelopeTables) -> float:
    """The [0, r_max] part of integral r b_*^(1/k) dr, the radial moment of
    :class:`~hessianls.criteria.JensenReport`."""
    fine = tables.fine
    return float(cumulative_values(fine * tables.star_fine ** (1.0 / tables.params.k), fine)[-1])


def oscillation_moment_integral(tables: EnvelopeTables) -> float:
    """The [0, r_max] part of the oscillation moment bound of
    :class:`~hessianls.criteria.JensenReport`."""
    params, fine = tables.params, tables.fine
    k, n, gam = params.k, params.n, params.gamma
    log_inner1 = flux_integral(params, lambda s: tables._star_at_gauss(s) ** (1.0 / k), fine)
    ratio = np.zeros_like(fine)
    ratio[1:] = np.exp(log_inner1[1:] - (n - 1) * np.log(fine[1:]))
    double = cumulative_values(ratio, fine)
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = (1.0 + n / params.cnk ** (1.0 / k) * double) ** (gam / (k - gam))
        return _total(fine * tables.osc_fine ** (1.0 / k) * bracket, fine)


def _total(values, nodes) -> float:
    """Simpson integral of nonnegative samples; a NaN (inf - inf past the float range) reads inf."""
    return float(np.nan_to_num(cumulative_values(values, nodes)[-1], nan=np.inf, posinf=np.inf))


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
    flat head's integral is taken once and shared by the rounds, and each
    round's defect stops at its first block that reaches epsilon (a failing
    round usually fails on its first segments); the line itself is always
    built whole.  The line must stay inside the box [a, 2a]; leaving it
    raises DomainTooLargeError (the box is only guaranteed for small r_end).
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
    # integral_0^r_flat s^(n-1) b a^gamma, where the first segment's slope starts
    head = math.exp(flux_integral(params, b, np.linspace(0.0, r_flat, 33),
                                  lambda s: np.full_like(s, a))[-1]) if r_flat < r_end else 0.0

    segments = 16
    while True:
        line = _build_line(params, b, r_end, epsilon, r_flat, segments, head)
        if breakline_defect(line, params, b, epsilon) < epsilon:
            return line
        segments *= 2
        if segments > _MAX_BREAKLINE_SEGMENTS:
            raise IntegrationError(
                f"break line did not reach defect < {epsilon:g} within "
                f"{_MAX_BREAKLINE_SEGMENTS} segments")


def _build_line(params: ProblemParams, b, r_end: float, epsilon: float,
                r_flat: float, segments: int, head: float) -> BreakLine:
    """One doubling round from the flat head's integral ``head``: b is
    evaluated once per block of segments, then the Euler recurrence runs in
    plain floats over each segment's 24 Gauss points (slope from the inner
    integral, box check, inner += the segment's integral).  The slope is F
    in flux_slope's order of operations, with libm's log and exp in place of
    numpy's."""
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
    inner = head
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
    weights w half s^(n-1) b(s), as lists of 24-element rows.  Two panels per
    segment resolve s^(n-1) only while (n - 1) ln 2 <= 16; the defect, which
    runs through :func:`flux_integral`, still decides each round."""
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


def breakline_defect(line: BreakLine, params: ProblemParams, b,
                     epsilon: float | None = None) -> float:
    """Largest sampled |dpsi/dr - F[r, psi]| over the line, or with
    ``epsilon`` the largest up to the first block of segments where it is
    not below epsilon (so the verdict ``< epsilon`` is the same).

    Samples interior points of every segment (the defect vanishes at the
    left endpoints by construction) including the flat head.  The flux
    integral runs over two cells per sample, in blocks of segments (the
    first of at most _FIRST_BLOCK_SEGMENTS), each block's running integral
    started from the last one's; psi at a Gauss point is taken from the
    segment the cell lies in.  The blocks change no bit of the samples.
    """
    cells, cut = 2 * _DEFECT_SAMPLES_PER_SEGMENT, flux_panels(params.n)
    fractions = np.arange(1, cells + 1) / cells
    radii, values, slopes = line.radii, line.values, line.slopes
    points = cells * cut * GAUSS_WEIGHTS.size  # Gauss points per segment
    # a block lays as many Gauss points at every n, within the panel budget
    log_inner, worst, per_block = -math.inf, [], max(_BLOCK_SEGMENTS // cut, 1)
    first, size = 0, min(_FIRST_BLOCK_SEGMENTS, per_block)
    while first < slopes.size:
        stop = min(first + size, slopes.size)
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
        if epsilon is not None and not worst[-1] < epsilon:
            break
        first, size = stop, per_block
    return float(np.max(worst))
