"""Radial Cauchy solver for sigma_k(lambda(D^2 u)) = b(r) u^gamma.

The radial equation

    C(n-1, k-1) u'' (u'/r)^(k-1) + C(n-1, k) (u'/r)^k = b(r) u^gamma

is degenerate at the origin (u'(0) = 0 makes the principal coefficient
vanish), so the solver never steps the second-order form.  It propagates
the equivalent first-order system in (u, M),

    u'(r) = ( n r^(k-n) M(r) / C(n,k) )^(1/k),
    M'(r) = r^(n-1) b(r) u(r)^gamma,

whose right-hand side is smooth for r > 0, and starts from a fourth-order
series on a short initial interval where the (u, M) form is 0/0.  Beyond
it the system is stepped in logarithmic variables against s = ln r,

    d ln u / ds = r u'(r) / u,    d ln M / ds = r^n b(r) u^gamma / M,

by an embedded Dormand-Prince 5(4) pair in plain floats, with ln b(e^s)
from the profile's float closure; a tabulated profile is integrated node
to node, so no step straddles a kink.  Node values of (u, ln M) come from
the pair's continuous extension (the solve's dense evaluator) and u' from
the flux transform F(r, M) above, fed ln M (M leaves the float range where
u does not).  The second derivative is recovered algebraically from the
equation itself, through ln(b u^gamma / (u'/r)^k) (the ratio leaves the
float range for large k where u'' does not), so the sigma_k residual
(``residual_max``, the ``sigma_k_residual`` CSV column) is zero by
construction, up to rounding; it checks nothing about the integration.
:func:`conservation_defect` is the solve's runtime check: it recomputes M
from u by quadrature and compares it with the propagated M.

For admissible data (b positive and continuous, 0 < gamma < k) solutions
are entire: they cannot blow up at a finite radius.  Passing the overflow
guard on u therefore raises; it is never a normal outcome.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import core
from .coefficients import RadialProfile, check_coefficient
from .core import LOG_FLOAT_MAX, OVERFLOW_GUARD, ProblemParams, RadialCurve, RadialGrid
# The quadrature-only comparison routes live in envelope; their names stay
# bound here for callers that reach them as ``solver.*`` (the package
# namespace, verify, and perfbench/tracing.py, which also wraps
# ``solver.linear_growth_tables``).
from .envelope import (BreakLine, breakline_defect, euler_polyline,  # noqa: F401
                       flux_integral, flux_slope, linear_growth_tables, solve_linear_rhs)
from .errors import BlowupGuardError, IntegrationError, ParameterError

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12
# solve_cauchy runs the stepper at rel_tol / 10, which at MIN_REL_TOL is ten
# rounding units of ln u and ln M; a smaller rel_tol asks for more than the
# arithmetic can give, so specifications below it are refused.
MIN_REL_TOL = 100 * sys.float_info.epsilon

# The series start hands off at this radius or beyond, and at most a quarter
# of the way to the grid's first positive node.
_MIN_SERIES_RADIUS = 1e-12


# ---------------------------------------------------------------------------
# series start
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SeriesStart:
    """Fourth-order expansion of (u, M) about the origin.

    u(r) = a + c2 r^2/2 + c2 e r^4/4 + O(r^6) with c2 = (b(0) a^gamma /
    C(n,k))^(1/k); the r^4 term carries the quadratic variation of b and
    the feedback of u^gamma.
    """

    a: float
    c2: float
    e: float
    m0: float
    m2: float
    n: int

    def u(self, r):
        r2 = r * r
        return self.a + 0.5 * self.c2 * r2 + 0.25 * self.c2 * self.e * r2 * r2

    def log_moment(self, r):
        with np.errstate(divide="ignore"):  # ln M(0) = -inf
            return np.log(self.m0 + self.m2 * (r * r)) + self.n * np.log(r)


def _series_start(params: ProblemParams, b, r_probe: float) -> _SeriesStart:
    n, k, gam, a = params.n, params.k, params.gamma, params.a
    b0 = float(b(0.0))
    c2 = (b0 * a ** gam / params.cnk) ** (1.0 / k)
    # effective quadratic coefficient of b near 0 (exact for even smooth b)
    b2 = (float(b(r_probe)) - b0) / r_probe ** 2
    q = (n / (n + 2.0)) * (b2 / b0 + gam * c2 / (2.0 * a))
    m0 = b0 * a ** gam / n
    m2 = (b2 * a ** gam + b0 * a ** gam * gam * c2 / (2.0 * a)) / (n + 2.0)
    return _SeriesStart(a=a, c2=c2, e=q / k, m0=m0, m2=m2, n=n)


def _series_radius(params: ProblemParams, grid: RadialGrid, c2: float) -> float:
    # keep the handoff radius well inside both the grid and the curvature
    # length scale sqrt(a/c2) so the truncation error is O(r^6) ~ negligible
    r = 1e-4 * grid.r_lin
    r = min(r, 0.05 * math.sqrt(params.a / c2), 0.25 * float(grid.nodes[1]))
    return max(r, _MIN_SERIES_RADIUS)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) stepper
# ---------------------------------------------------------------------------

# The DOPRI5 tableau (Dormand & Prince 1980; Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.5): nodes C, stage weights A, fifth-order weights
# B (the last stage is the next step's first), error weights E = B - Bhat
# and the coefficients D of the free fourth-order continuous extension.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                                22 / 525, -1 / 40)
_D1, _D3, _D4, _D5, _D6, _D7 = (-12715105075 / 11282082432, 87487479700 / 32700410799,
                                -10690763975 / 1880347072, 701980252875 / 199316789632,
                                -1453857185 / 822651844, 69997945 / 29380423)

_LOG_GUARD = math.log(OVERFLOW_GUARD)
_MIN_STEP = 1e-12   # relative to max(1, |s|): a smaller step is a failed solve


def _exp(x: float) -> float:
    return math.exp(x) if x < LOG_FLOAT_MAX else math.inf


class _DenseOutput:
    """(u, ln M) at any radius of a solve, and what the solve cost.

    Below the handoff radius ``r_handoff`` the series start; beyond it the
    DOPRI5 continuous extension of each accepted step in s = ln r.  The
    counters ``rhs_evals``, ``accepted`` and ``rejected`` describe the
    stepper's work."""

    def __init__(self, series: _SeriesStart, r_handoff: float, starts, widths,
                 coeffs, rhs_evals: int, rejected: int):
        self.series = series
        self.r_handoff = r_handoff
        self._starts = np.asarray(starts)
        self._widths = np.asarray(widths)
        self._coeffs = np.asarray(coeffs).reshape(len(starts), 2, 5)
        self.rhs_evals = rhs_evals
        self.accepted = len(starts)
        self.rejected = rejected

    def __call__(self, r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        uu = np.empty_like(rr)
        log_m = np.empty_like(rr)
        low = rr <= self.r_handoff
        uu[low] = self.series.u(rr[low])
        log_m[low] = self.series.log_moment(rr[low])
        if np.any(~low):
            s = np.log(rr[~low])
            step = np.clip(np.searchsorted(self._starts, s, side="right") - 1,
                           0, self._starts.size - 1)
            theta = ((s - self._starts[step]) / self._widths[step])[:, None]
            back = 1.0 - theta
            c = self._coeffs[step]
            logs = c[..., 0] + theta * (c[..., 1] + back * (c[..., 2] + theta * (
                c[..., 3] + back * c[..., 4])))
            uu[~low] = np.exp(logs[:, 0])
            log_m[~low] = logs[:, 1]
        return uu, log_m


def _dopri5(f, s: float, y, stops, tol: float, abs_u: float):
    """Integrate y = (ln u, ln M) with y' = f(s, ln u, ln M) up to each of
    ``stops`` in turn (increasing; the last one is the end); no step
    crosses a stop.

    The error of a step is the RMS over both components of its embedded
    estimate, each scaled by ``tol`` (a relative error in u and M), plus
    ``abs_u``/u for ln u: an absolute floor of ``abs_u`` on u.  Returns the
    step starts, widths and dense-output coefficients, the number of RHS
    calls and of rejected steps.  Raises BlowupGuardError when u passes
    OVERFLOW_GUARD, IntegrationError when the step falls below _MIN_STEP.
    """
    exp = math.exp
    x, z = y
    fx, fz = f(s, x, z)
    evals, rejected = 1, 0
    scale = math.hypot(fx, fz) / (tol * math.sqrt(2.0))
    h = (0.01 / scale) ** 0.2 if scale > 0.0 else stops[-1] - s
    starts, widths, coeffs = [], [], []
    for stop in stops:
        while s < stop:
            if h < _MIN_STEP * max(1.0, abs(s)):
                raise IntegrationError(
                    f"adaptive integration failed at r = {exp(s):g}: the step size fell "
                    f"below {_MIN_STEP:g} in ln r", r=exp(s), u=_exp(x))
            last = s + h >= stop
            step = stop - s if last else h
            try:
                x2, z2 = f(s + _C2 * step, x + step * _A21 * fx, z + step * _A21 * fz)
                x3, z3 = f(s + _C3 * step, x + step * (_A31 * fx + _A32 * x2),
                           z + step * (_A31 * fz + _A32 * z2))
                x4, z4 = f(s + _C4 * step, x + step * (_A41 * fx + _A42 * x2 + _A43 * x3),
                           z + step * (_A41 * fz + _A42 * z2 + _A43 * z3))
                x5, z5 = f(s + _C5 * step,
                           x + step * (_A51 * fx + _A52 * x2 + _A53 * x3 + _A54 * x4),
                           z + step * (_A51 * fz + _A52 * z2 + _A53 * z3 + _A54 * z4))
                x6, z6 = f(stop if last else s + step,
                           x + step * (_A61 * fx + _A62 * x2 + _A63 * x3 + _A64 * x4
                                       + _A65 * x5),
                           z + step * (_A61 * fz + _A62 * z2 + _A63 * z3 + _A64 * z4
                                       + _A65 * z5))
                x_new = x + step * (_B1 * fx + _B3 * x3 + _B4 * x4 + _B5 * x5 + _B6 * x6)
                z_new = z + step * (_B1 * fz + _B3 * z3 + _B4 * z4 + _B5 * z5 + _B6 * z6)
                x7, z7 = f(stop if last else s + step, x_new, z_new)
                evals += 6
                ex = step * (_E1 * fx + _E3 * x3 + _E4 * x4 + _E5 * x5 + _E6 * x6 + _E7 * x7)
                ez = step * (_E1 * fz + _E3 * z3 + _E4 * z4 + _E5 * z5 + _E6 * z6 + _E7 * z7)
                sx = tol + abs_u * _exp(-max(x, x_new))
                err = math.sqrt(0.5 * ((ex / sx) ** 2 + (ez / tol) ** 2))
            except OverflowError:   # a trial stage left the float range: too long a step
                evals += 6
                err = math.inf
            if not err <= 1.0:
                rejected += 1
                h = step * (max(0.2, 0.9 * err ** -0.2) if err < math.inf else 0.2)
                continue
            starts.append(s)
            widths.append(step)
            for y0, y1, k1, k3, k4, k5, k6, k7 in ((x, x_new, fx, x3, x4, x5, x6, x7),
                                                   (z, z_new, fz, z3, z4, z5, z6, z7)):
                rise = y1 - y0
                bend = step * k1 - rise
                coeffs += (y0, rise, bend, rise - step * k7 - bend,
                           step * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6
                                   + _D7 * k7))
            s = stop if last else s + step
            x, z, fx, fz = x_new, z_new, x7, z7
            if x > _LOG_GUARD:
                raise BlowupGuardError(
                    f"solution exceeded the overflow guard {OVERFLOW_GUARD:g} at r = "
                    f"{exp(s):g}; the requested r_max = {exp(stops[-1]):g} is too large "
                    f"for this coefficient", r=exp(s), u=_exp(x))
            grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
            # a step cut short by a stop says little about the next one
            h = max(step * grow, h * min(grow, 1.0)) if last else step * grow
    return starts, widths, coeffs, evals, rejected


# ---------------------------------------------------------------------------
# main solver
# ---------------------------------------------------------------------------

def solve_cauchy(params: ProblemParams, b: RadialProfile, grid: RadialGrid,
                 rel_tol: float = DEFAULT_REL_TOL,
                 abs_tol: float = DEFAULT_ABS_TOL) -> RadialCurve:
    """Integrate the Cauchy problem u(0) = a, u'(0) = 0 out to the grid end.

    Parameters
    ----------
    params : ProblemParams
    b : RadialProfile
        Radial coefficient profile, positive and continuous.
    grid : RadialGrid
        Output nodes, the first positive one above 4 * _MIN_SERIES_RADIUS.
        Integration runs adaptively; the grid only selects where the curve
        is reported.
    rel_tol, abs_tol : float
        Relative tolerance on u and M (the stepper runs at rel_tol / 10)
        and an absolute floor abs_tol * max(1, a) on the error of u.

    Returns
    -------
    RadialCurve
        u, u', u'' at the nodes, with a dense (u, ln M) evaluator attached.
    """
    nodes = grid.nodes
    if not nodes[1] > 4.0 * _MIN_SERIES_RADIUS:
        raise ParameterError(f"the grid's first positive radius {nodes[1]:g} must exceed "
                             f"{4.0 * _MIN_SERIES_RADIUS:g} (four times the smallest series "
                             f"handoff radius); raise r_lin or r_max")
    check_coefficient(b(nodes), nodes)
    n, k, gam = params.n, params.k, params.gamma

    try:
        series = _series_start(params, b, r_probe=1e-3 * grid.r_lin)
    except OverflowError:  # from a ** gamma, the one power there that can raise it
        raise ParameterError(f"a^gamma overflows the float range (a = {params.a:g}, "
                             f"gamma = {gam:g}), so the series start at r = 0 cannot be "
                             f"formed") from None
    if series.c2 == 0.0:
        raise ParameterError(f"b(0) a^gamma / C(n, k) underflows to 0 (b(0) = {b(0.0):g}, "
                             f"a = {params.a:g}, gamma = {gam:g}), so the series start "
                             f"at r = 0 has no curvature")
    r_s = _series_radius(params, grid, series.c2)
    # M(r_s) / r_s^n: M itself may underflow for large n
    u_s, m_scaled = series.u(r_s), series.m0 + series.m2 * r_s * r_s
    if not (math.isfinite(u_s) and 0.0 < m_scaled < math.inf):
        raise BlowupGuardError(f"the series start at r = {r_s:g} overflows (u = {u_s:g}, "
                               f"M / r^n = {m_scaled:g}); the coefficient or the center "
                               f"value is too large", r=r_s, u=u_s)
    s_s = math.log(r_s)
    y0 = (math.log(u_s), math.log(m_scaled) + n * s_s)

    # d ln u / ds = r u' / u and d ln M / ds = r^n b u^gamma / M with s = ln r
    log_b = b.log_in_log_radius()
    exp = math.exp
    c_u = params.log_n_over_cnk / k
    p_u = (2 * k - n) / k

    def rhs(s, x, z):
        return exp(c_u + p_u * s + z / k - x), exp(n * s + log_b(s) + gam * x - z)

    s_end = math.log(grid.r_max)
    kinks = [math.log(r) for r in b.breakpoints.tolist() if r_s < r < grid.r_max]
    starts, widths, coeffs, evals, rejected = _dopri5(
        rhs, s_s, y0, kinks + [s_end], rel_tol / 10.0, abs_tol * max(1.0, params.a))
    dense = _DenseOutput(series, r_s, starts, widths, coeffs, evals, rejected)

    # r_s < nodes[1], so only r = 0 takes the series; there M = 0 and u' = 0.
    u, log_m = dense(nodes)
    du = flux_slope(params, nodes, log_m)
    d2u = _recover_d2u(params, b, nodes, u, du, series.c2)
    return RadialCurve(grid=grid, u=u, du=du, d2u=d2u, dense=dense)


def _recover_d2u(params: ProblemParams, b, r: np.ndarray, u: np.ndarray,
                 du: np.ndarray, c2: float) -> np.ndarray:
    """Invert the radial equation for u'' given (r, u, u'): with t = u'/r and
    C(n-1,k) / C(n-1,k-1) = (n-k)/k, u'' = t (rhs - (n-k)/k), rhs from
    :func:`_scaled_rhs`."""
    d2u = np.empty_like(r)
    d2u[0] = c2
    t = du[1:] / r[1:]
    d2u[1:] = t * (_scaled_rhs(params, b, r[1:], u[1:], t) - (params.n - params.k) / params.k)
    return d2u


def _log_mixed_binomial(params: ProblemParams) -> float:
    """ln C(n-1, k-1), the binomial of sigma_k's term in u''."""
    return math.log(core.binomial(params.n - 1, params.k - 1))


def _scaled_rhs(params: ProblemParams, b, r, u, t) -> np.ndarray:
    """b u^gamma / (t^k C(n-1,k-1)) from its log; b u^gamma / t^k itself may
    leave the float range where this ratio does not."""
    with np.errstate(divide="ignore"):  # b may underflow to 0
        return np.exp(np.log(b(r)) + params.gamma * np.log(u) - params.k * np.log(t)
                      - _log_mixed_binomial(params))


# ---------------------------------------------------------------------------
# curve checks and export
# ---------------------------------------------------------------------------

def _sigma_k_defect(curve: RadialCurve, params: ProblemParams, b) -> np.ndarray:
    """sigma_k(u'', u'/r) / (b u^gamma) - 1 at the curve's nodes.

    sigma_k is homogeneous of degree k, so it is taken at (u'', t) s / t with
    s^k C(n-1,k-1) = 1, where it reads sigma_k / (t^k C(n-1,k-1)) and is
    compared with :func:`_scaled_rhs`."""
    t = curve.du_over_r()
    s = math.exp(-_log_mixed_binomial(params) / params.k)
    lhs = np.asarray(core.sigma_j_radial(params.k, curve.d2u / t * s, s, params.n))
    return lhs / _scaled_rhs(params, b, curve.grid.nodes, curve.u, t) - 1.0


def residual_max(curve: RadialCurve, params: ProblemParams, b) -> float:
    """Largest relative defect of sigma_k(u'', u'/r) against b u^gamma.

    Zero up to rounding for solver curves, whose u'' is recovered from the
    equation; :func:`conservation_defect` is the solve's runtime check."""
    return float(np.max(np.abs(_sigma_k_defect(curve, params, b))))


def conservation_defect(curve: RadialCurve, params: ProblemParams, b) -> float:
    """Relative mismatch between the propagated moment M and its defining
    integral recomputed from the solution by quadrature, from their logs.

    This is the meaningful consistency check for this solver: the
    pointwise residual is zero by construction (u'' is recovered from the
    equation), whereas M ties u' to the history of u.  The quadrature
    evaluates u through the curve's dense output inside Gauss panels, so
    its own discretization error is negligible against the integrator
    tolerance being measured.
    """
    if curve.dense is None:
        raise ValueError("conservation check needs a curve with a dense evaluator")
    # the 12-point panels resolve s^(n-1) on the grid's first linear cells
    # only once they are cut about n/16 times
    fine = curve.grid.refined(max(2, math.ceil(params.n / 16)))
    log_quad = flux_integral(params, b, fine, lambda s: curve.dense(s)[0])
    pos = np.searchsorted(fine, curve.grid.nodes[1:])
    _, log_curve = curve.dense(curve.grid.nodes[1:])
    return float(np.max(np.abs(np.expm1(log_quad[pos] - log_curve))))


def write_curve_csv(curve: RadialCurve, path, params: ProblemParams, b) -> None:
    """Write the curve as CSV with header r,u,du,d2u,sigma_k_residual, the
    last column the relative defect sigma_k / (b u^gamma) - 1.

    Floats carry 17 significant digits so the file round-trips exactly.
    """
    r = curve.grid.nodes
    resid = _sigma_k_defect(curve, params, b)
    with open(path, "w", newline="") as handle:
        handle.write("r,u,du,d2u,sigma_k_residual\n")
        for i in range(r.size):
            handle.write(f"{r[i]:.17g},{curve.u[i]:.17g},{curve.du[i]:.17g},"
                         f"{curve.d2u[i]:.17g},{resid[i]:.17g}\n")


def read_curve_csv(path) -> RadialCurve:
    """Read a curve written by :func:`write_curve_csv`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    grid = RadialGrid(data[:, 0])
    return RadialCurve(grid=grid, u=data[:, 1], du=data[:, 2], d2u=data[:, 3])
