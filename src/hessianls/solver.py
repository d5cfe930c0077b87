"""Radial Cauchy solver for sigma_k(lambda(D^2 u)) = b(r) u^gamma.

The radial equation

    C(n-1, k-1) u'' (u'/r)^(k-1) + C(n-1, k) (u'/r)^k = b(r) u^gamma

is degenerate at the origin (u'(0) = 0 makes the principal coefficient
vanish), so the solver never steps the second-order form.  It propagates
the equivalent first-order system in (u, M),

    u'(r) = ( n r^(k-n) M(r) / C(n,k) )^(1/k),
    M'(r) = r^(n-1) b(r) u(r)^gamma,

whose right-hand side is smooth for r > 0, and starts from the Taylor
series of u and of M / r^n at the origin, where the (u, M) form is 0/0.
A power sum or a table gives b's series at 0 (:meth:`RadialProfile.taylor`),
from which the series are built to order 16 by recurrences and handed off at
the largest radius where their last two terms are below rel_tol / 100, at
most the grid's first positive node or a table's first positive radius; only
a callable profile, which has no series, keeps a fourth-order start from a
probed curvature on a short initial interval.  Beyond the handoff the system
is stepped in logarithmic variables against s = ln r,

    d ln u / ds = r u'(r) / u,    d ln M / ds = r^n b(r) u^gamma / M,

by an embedded Dormand-Prince 5(4) pair in plain floats, with ln b(e^s)
from the profile's pieces (:meth:`RadialProfile.log_pieces`): a closed form
is one piece holding its float closure, a tabulated profile one piece per
table cell, ending at the table's own log radius with the cell's own rule,
which also gives ln b at that radius, so no step straddles a kink and none
searches the table for its cell.  One kernel steps this system alone:
it evaluates each stage's right-hand side in place, and ln b once at a
step's end, which its last two stages share.  Each accepted step leaves one
flat record, from which the pair's continuous extension (the solve's dense
evaluator) lays its coefficients in one array pass.  Node values of (u,
ln M) come from that extension and u' from the flux transform F(r, M)
above, fed ln M (M leaves the float range where u does not).  The second
derivative is recovered algebraically from the equation itself, through
ln(b u^gamma / (u'/r)^k) with b the values checked on the nodes (the ratio
leaves the float range for large k where u'' does not), so the sigma_k residual
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
                       flux_integral, flux_slope, linear_growth_tables, merge_nodes,
                       solve_linear_rhs)
from .errors import BlowupGuardError, IntegrationError, ParameterError

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12
# solve_cauchy runs the stepper at rel_tol / 10, which at MIN_REL_TOL is ten
# rounding units of ln u and ln M; a smaller rel_tol asks for more than the
# arithmetic can give, so specifications below it are refused.
MIN_REL_TOL = 100 * sys.float_info.epsilon

# A callable's series start hands off at this radius or beyond; every start
# hands off at or before the grid's first positive node.
_MIN_SERIES_RADIUS = 1e-12
# A profile with a Taylor series at 0 (RadialProfile.taylor) starts from the
# series of u to this order, and of m = M / r^n to two orders less, out to the
# largest radius where the last two terms of each are at most _HANDOFF_SHARE
# of rel_tol.
_TAYLOR_ORDER = 16
_HANDOFF_SHARE = 1e-2


# ---------------------------------------------------------------------------
# series start
# ---------------------------------------------------------------------------

def _polynomial(coeffs, x):
    """sum_i coeffs[i] x^i by Horner's rule; x a float or an array."""
    total = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        total = total * x + c
    return total


@dataclass(frozen=True)
class _SeriesStart:
    """The Taylor series of (u, M) about the origin, in powers of rho = r / length.

    u / a = sum_i u_i rho^i and m / m0 = sum_i m_i rho^i for m = M / r^n,
    m0 = b(0) a^gamma / n, so u_0 = m_0 = 1, and u''(0) = c2 = (b(0) a^gamma
    / C(n,k))^(1/k).  :func:`_series_start` builds them; ``length`` keeps
    every coefficient near 1 where b varies no faster than u.
    """

    a: float
    c2: float
    m0: float
    n: int
    length: float
    u_coeffs: tuple
    m_coeffs: tuple

    def u(self, r):
        return self.a * _polynomial(self.u_coeffs, r / self.length)

    def scaled_moment(self, r):
        """M(r) / r^n, which stays in the float range where M may not."""
        return self.m0 * _polynomial(self.m_coeffs, r / self.length)

    def log_moment(self, r):
        with np.errstate(divide="ignore"):  # ln M(0) = -inf
            return np.log(self.scaled_moment(r)) + self.n * np.log(r)

    def radius(self, tol: float) -> float:
        """The largest r at which each of the last two terms of both series is
        at most tol / 2 (u / a >= 1 and m / m0 starts at 1), so that each
        series' truncation, estimated by those terms, is at most tol."""
        rho = math.inf
        for coeffs in (self.u_coeffs, self.m_coeffs):
            for i in (len(coeffs) - 2, len(coeffs) - 1):
                size = abs(coeffs[i])
                if not size < math.inf:
                    return 0.0
                if size > 0.0:
                    rho = min(rho, (0.5 * tol / size) ** (1.0 / i))
        return rho * self.length


def _series_start(params: ProblemParams, b_coeffs, length: float, c2: float,
                  order: int) -> _SeriesStart:
    """The series of u to ``order`` and of m to ``order`` - 2 from b's Taylor
    coefficients at 0 in powers of rho = r / ``length`` (``b_coeffs``, at least
    ``order`` - 1 of them, b_0 > 0), in one pass over the orders.

    With U = u / a, G = b U^gamma / b_0 and W = (m / m0)^(1/k), the equations
    n m + r m' = b u^gamma (M' = r^(n-1) b u^gamma, integrated termwise) and
    u' = r c2 W read, coefficient by coefficient in rho, m_i = n G_i / (n + i)
    and U_(i+2) = lam W_i / (i + 2) with lam = length^2 c2 / a.  U^gamma and
    (m / m0)^(1/k) come from J. C. P. Miller's recurrence for a power of a
    series with leading coefficient 1: f = h^alpha has f_i = sum_(j=1..i)
    ((alpha + 1) j / i - 1) h_j f_(i-j) (Knuth, TAOCP vol. 2, sec. 4.7)."""
    n, k, gam = params.n, params.k, params.gamma
    lam = length * length * c2 / params.a
    beta = [c / b_coeffs[0] for c in b_coeffs[:order - 1]]
    u = [1.0, 0.0, 0.5 * lam] + [0.0] * (order - 2)
    p, m, w = ([1.0] + [0.0] * (order - 2) for _ in range(3))
    a_gam, a_root = gam + 1.0, 1.0 / k + 1.0
    # an even b makes every series even: their odd coefficients stay 0
    stride = 1 if any(beta[1::2]) else 2
    for i in range(stride, order - 1, stride):
        p_i = g_i = w_i = 0.0
        for j in range(stride, i + 1, stride):
            p_i += (a_gam * j / i - 1.0) * u[j] * p[i - j]
        p[i] = p_i
        for j in range(0, i + 1, stride):
            g_i += beta[j] * p[i - j]
        m[i] = n * g_i / (n + i)
        for j in range(stride, i + 1, stride):
            w_i += (a_root * j / i - 1.0) * m[j] * w[i - j]
        w[i] = w_i
        u[i + 2] = lam * w_i / (i + 2)
    return _SeriesStart(a=params.a, c2=c2, m0=b_coeffs[0] * params.a ** gam / n, n=n,
                        length=length, u_coeffs=tuple(u), m_coeffs=tuple(m))


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


# An accepted step's record: s and the step's width, then for ln u and for
# ln M in turn the start and end values and the stages k1, k3, k4, k5, k6, k7.
_RECORD = 18


class _DenseOutput:
    """(u, ln M) at any radius of a solve, and what the solve cost.

    Up to the handoff radius ``r_handoff`` the Taylor polynomials of the
    series start (:class:`_SeriesStart`); beyond it the DOPRI5 continuous
    extension of each accepted step in s = ln r, whose
    coefficients are laid from the stepper's records in one array pass.  The
    counters describe the stepper's work: ``accepted`` and ``rejected``
    steps, and ``rhs_evals``, the right-hand-side evaluations: one to start
    and six per attempted step, which evaluate ln b five times (the last two
    stages share the step's end)."""

    def __init__(self, series: _SeriesStart, r_handoff: float, records, rejected: int):
        self.series = series
        self.r_handoff = r_handoff
        rec = np.array(records, dtype=float).reshape(-1, _RECORD)
        self._starts = rec[:, 0]
        self._widths = rec[:, 1]
        step = self._widths[:, None]
        y0, y1, k1, k3, k4, k5, k6, k7 = np.moveaxis(rec[:, 2:].reshape(-1, 2, 8), -1, 0)
        rise = y1 - y0
        bend = step * k1 - rise
        self._coeffs = np.stack(
            [y0, rise, bend, rise - step * k7 - bend,
             step * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)],
            axis=-1)
        self.accepted = rec.shape[0]
        self.rejected = rejected

    @property
    def rhs_evals(self) -> int:
        return 1 + 6 * (self.accepted + self.rejected)

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


def _dopri5(pieces, c_u: float, p_u: float, k: int, n: int, gam: float, s: float, y,
            tol: float, abs_u: float):
    """Integrate y = (x, z) = (ln u, ln M) against s = ln r through
    ``pieces`` in turn, each (stop, log_b) as
    :meth:`~hessianls.coefficients.RadialProfile.log_pieces` gives them
    (stops increasing; the last one is the end); no step crosses a stop.

    The right-hand side is evaluated stage by stage in place:

        x' = exp(c_u + p_u s + z / k - x),   z' = exp(n s + log_b(s) + gam x - z),

    with ``log_b`` the piece's float function s -> ln b(e^s), its stop
    included.  The sixth stage and the seventh (the next step's first) both
    sit at the step's end, where ln b is evaluated once, after the sixth
    stage's x'.  The error of a step
    is the RMS over both components of its embedded estimate, each scaled by
    ``tol`` (a relative error in u and M), plus ``abs_u``/u for ln u: an
    absolute floor of ``abs_u`` on u.  A stage that leaves the float range
    (OverflowError) rejects the step.  Returns the records of the accepted
    steps, ``_RECORD`` floats each in one flat list, and the number of
    rejected steps.  Raises BlowupGuardError when u passes OVERFLOW_GUARD,
    IntegrationError when the step falls below _MIN_STEP.
    """
    exp, sqrt, inf = math.exp, math.sqrt, math.inf
    k, n = float(k), float(n)   # the same quotients and products, without int operands
    x, z = y
    s_last = pieces[-1][0]
    fx = exp(c_u + p_u * s + z / k - x)
    fz = exp(n * s + pieces[0][1](s) + gam * x - z)
    rejected = 0
    scale = math.hypot(fx, fz) / (tol * sqrt(2.0))
    h = (0.01 / scale) ** 0.2 if scale > 0.0 else s_last - s
    records = []
    for stop, log_b in pieces:
        while s < stop:
            if h < _MIN_STEP * (s if s > 1.0 else -s if s < -1.0 else 1.0):
                raise IntegrationError(
                    f"adaptive integration failed at r = {exp(s):g}: the step size fell "
                    f"below {_MIN_STEP:g} in ln r", r=exp(s), u=_exp(x))
            last = s + h >= stop
            step = stop - s if last else h
            s_end = stop if last else s + step
            try:
                h21 = step * _A21
                s_i = s + _C2 * step
                xs, zs = x + h21 * fx, z + h21 * fz
                x2 = exp(c_u + p_u * s_i + zs / k - xs)
                z2 = exp(n * s_i + log_b(s_i) + gam * xs - zs)
                s_i = s + _C3 * step
                xs = x + step * (_A31 * fx + _A32 * x2)
                zs = z + step * (_A31 * fz + _A32 * z2)
                x3 = exp(c_u + p_u * s_i + zs / k - xs)
                z3 = exp(n * s_i + log_b(s_i) + gam * xs - zs)
                s_i = s + _C4 * step
                xs = x + step * (_A41 * fx + _A42 * x2 + _A43 * x3)
                zs = z + step * (_A41 * fz + _A42 * z2 + _A43 * z3)
                x4 = exp(c_u + p_u * s_i + zs / k - xs)
                z4 = exp(n * s_i + log_b(s_i) + gam * xs - zs)
                s_i = s + _C5 * step
                xs = x + step * (_A51 * fx + _A52 * x2 + _A53 * x3 + _A54 * x4)
                zs = z + step * (_A51 * fz + _A52 * z2 + _A53 * z3 + _A54 * z4)
                x5 = exp(c_u + p_u * s_i + zs / k - xs)
                z5 = exp(n * s_i + log_b(s_i) + gam * xs - zs)
                xs = x + step * (_A61 * fx + _A62 * x2 + _A63 * x3 + _A64 * x4 + _A65 * x5)
                zs = z + step * (_A61 * fz + _A62 * z2 + _A63 * z3 + _A64 * z4 + _A65 * z5)
                # stages 6 and 7 share the s terms of both exponents at s_end
                x_at_end = c_u + p_u * s_end
                x6 = exp(x_at_end + zs / k - xs)
                z_at_end = n * s_end + log_b(s_end)
                z6 = exp(z_at_end + gam * xs - zs)
                x_new = x + step * (_B1 * fx + _B3 * x3 + _B4 * x4 + _B5 * x5 + _B6 * x6)
                z_new = z + step * (_B1 * fz + _B3 * z3 + _B4 * z4 + _B5 * z5 + _B6 * z6)
                x7 = exp(x_at_end + z_new / k - x_new)
                z7 = exp(z_at_end + gam * x_new - z_new)
                ex = step * (_E1 * fx + _E3 * x3 + _E4 * x4 + _E5 * x5 + _E6 * x6 + _E7 * x7)
                ez = step * (_E1 * fz + _E3 * z3 + _E4 * z4 + _E5 * z5 + _E6 * z6 + _E7 * z7)
                top = x_new if x_new > x else x
                sx = tol + abs_u * exp(-top) if top > -LOG_FLOAT_MAX else inf
                err = sqrt(0.5 * ((ex / sx) ** 2 + (ez / tol) ** 2))
            except OverflowError:   # a trial stage left the float range: too long a step
                err = inf
            if not err <= 1.0:
                rejected += 1
                h = step * (max(0.2, 0.9 * err ** -0.2) if err < inf else 0.2)
                continue
            records += (s, step, x, x_new, fx, x3, x4, x5, x6, x7,
                        z, z_new, fz, z3, z4, z5, z6, z7)
            s = s_end
            x, z, fx, fz = x_new, z_new, x7, z7
            if x > _LOG_GUARD:
                raise BlowupGuardError(
                    f"solution exceeded the overflow guard {OVERFLOW_GUARD:g} at r = "
                    f"{exp(s):g}; the requested r_max = {exp(s_last):g} is too large "
                    f"for this coefficient", r=exp(s), u=_exp(x))
            grow = 0.9 * err ** -0.2 if err > 0.0 else 10.0
            if grow > 10.0:
                grow = 10.0
            # a step cut short by a stop says little about the next one
            held = h * grow if grow < 1.0 else h
            h = held if last and held > step * grow else step * grow
    return records, rejected


# ---------------------------------------------------------------------------
# main solver
# ---------------------------------------------------------------------------

def check_tolerances(rel_tol: float, abs_tol: float,
                     names=("rel_tol", "abs_tol")) -> None:
    """Refuse tolerances solve_cauchy cannot honour: rel_tol outside
    [MIN_REL_TOL, 1) or abs_tol not positive.  ``names`` label the two in
    the message."""
    if not MIN_REL_TOL <= rel_tol < 1.0:
        raise ParameterError(f"{names[0]}: must lie in [{MIN_REL_TOL:.3g}, 1), got {rel_tol}")
    if not abs_tol > 0.0:
        raise ParameterError(f"{names[1]}: must be positive, got {abs_tol}")



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
        and an absolute floor abs_tol * max(1, a) on the error of u; see
        :func:`check_tolerances` for the values accepted.

    Returns
    -------
    RadialCurve
        u, u', u'' at the nodes, with a dense (u, ln M) evaluator attached.
    """
    check_tolerances(rel_tol, abs_tol)
    nodes = grid.nodes
    if not nodes[1] > 4.0 * _MIN_SERIES_RADIUS:
        raise ParameterError(f"the grid's first positive radius {nodes[1]:g} must exceed "
                             f"{4.0 * _MIN_SERIES_RADIUS:g} (four times the smallest series "
                             f"handoff radius); raise r_lin or r_max")
    b_nodes = check_coefficient(b(nodes), nodes)
    n, k, gam = params.n, params.k, params.gamma

    series, r_s = _start(params, b, grid, rel_tol)
    # M(r_s) / r_s^n: M itself may underflow for large n
    u_s, m_scaled = series.u(r_s), series.scaled_moment(r_s)
    if not (math.isfinite(u_s) and 0.0 < m_scaled < math.inf):
        raise BlowupGuardError(f"the series start at r = {r_s:g} overflows (u = {u_s:g}, "
                               f"M / r^n = {m_scaled:g}); the coefficient or the center "
                               f"value is too large", r=r_s, u=u_s)
    s_s = math.log(r_s)
    y0 = (math.log(u_s), math.log(m_scaled) + n * s_s)

    # d ln u / ds = r u' / u = exp(c_u + p_u s + ln M / k - ln u) and
    # d ln M / ds = r^n b u^gamma / M with s = ln r
    c_u = params.log_n_over_cnk / k
    p_u = (2 * k - n) / k
    records, rejected = [], 0
    if r_s < grid.r_max:
        records, rejected = _dopri5(b.log_pieces(r_s, grid.r_max), c_u, p_u, k, n, gam, s_s,
                                    y0, rel_tol / 10.0, abs_tol * max(1.0, params.a))
    dense = _DenseOutput(series, r_s, records, rejected)

    # r_s <= nodes[1]: r = 0 and at most the first positive node take the
    # series; at r = 0, M = 0 and u' = 0.
    u, log_m = dense(nodes)
    du = flux_slope(params, nodes, log_m)
    d2u = _recover_d2u(params, b_nodes, nodes, u, du, series.c2)
    return RadialCurve(grid=grid, u=u, du=du, d2u=d2u, dense=dense)


def _start(params: ProblemParams, b: RadialProfile, grid: RadialGrid,
           rel_tol: float) -> tuple:
    """The series start of a solve and its handoff radius r_s, at most the
    grid's first positive node.

    A profile with a Taylor series at 0 (:meth:`RadialProfile.taylor`: a power
    sum, a table from r = 0) gives the series of u to _TAYLOR_ORDER, which
    hands off at the largest radius where its last two terms, and those of m,
    are at most _HANDOFF_SHARE of ``rel_tol`` (:meth:`_SeriesStart.radius`),
    however small, and not beyond the radius up to which b's series is b (a
    table's first positive radius).  Only a callable has none: it keeps the
    fourth-order start, b's curvature probed as (b(r_p) - b(0)) / r_p^2 at r_p
    = 1e-3 r_lin, handed off at min(1e-4 r_lin, 0.05 sqrt(a / c2), node / 4)
    but not below _MIN_SERIES_RADIUS."""
    node = float(grid.nodes[1])
    taylor = b.taylor(0)
    b0 = taylor[0][0] if taylor else float(b(0.0))
    try:
        a_gam = params.a ** params.gamma
    except OverflowError:  # the one power here that can raise it
        raise ParameterError(f"a^gamma overflows the float range (a = {params.a:g}, "
                             f"gamma = {params.gamma:g}), so the series start at r = 0 cannot "
                             f"be formed") from None
    c2 = (b0 * a_gam / params.cnk) ** (1.0 / params.k)
    if c2 == 0.0:
        raise ParameterError(f"b(0) a^gamma / C(n, k) underflows to 0 (b(0) = {b0:g}, "
                             f"a = {params.a:g}, gamma = {params.gamma:g}), so the series "
                             f"start at r = 0 has no curvature")
    # u's own length scale sqrt(a / c2), within the radii the series serves;
    # an infinite c2 leaves the node, and the start overflows in solve_cauchy
    length = min(math.sqrt(params.a / c2), node) or node
    if taylor:
        exact = taylor[1]
        length = min(length, exact)
        series = _series_start(params, b.taylor(_TAYLOR_ORDER - 2, length)[0], length, c2,
                               _TAYLOR_ORDER)
        # the smallest normal float only keeps ln r_s finite: a series with a
        # non-finite coefficient (radius 0) then fails in solve_cauchy
        return series, max(min(series.radius(_HANDOFF_SHARE * rel_tol), exact, node),
                           sys.float_info.min)
    r_probe = 1e-3 * grid.r_lin
    b2 = (float(b(r_probe)) - b0) / r_probe ** 2
    series = _series_start(params, [b0, 0.0, b2 * length * length], length, c2, 4)
    r_s = min(1e-4 * grid.r_lin, 0.05 * math.sqrt(params.a / c2), 0.25 * node)
    return series, max(r_s, _MIN_SERIES_RADIUS)


def _recover_d2u(params: ProblemParams, b_values: np.ndarray, r: np.ndarray,
                 u: np.ndarray, du: np.ndarray, c2: float) -> np.ndarray:
    """Invert the radial equation for u'' given (r, b(r), u, u'): with t =
    u'/r and C(n-1,k) / C(n-1,k-1) = (n-k)/k, u'' = t (rhs - (n-k)/k), rhs
    from :func:`_scaled_rhs`."""
    d2u = np.empty_like(r)
    d2u[0] = c2
    t = du[1:] / r[1:]
    d2u[1:] = t * (_scaled_rhs(params, b_values[1:], u[1:], t)
                   - (params.n - params.k) / params.k)
    return d2u


def _log_mixed_binomial(params: ProblemParams) -> float:
    """ln C(n-1, k-1), the binomial of sigma_k's term in u''."""
    return math.log(core.binomial(params.n - 1, params.k - 1))


def _scaled_rhs(params: ProblemParams, b_values, u, t) -> np.ndarray:
    """b u^gamma / (t^k C(n-1,k-1)) from its log, given the values of b; b
    u^gamma / t^k itself may leave the float range where this ratio does not."""
    with np.errstate(divide="ignore"):  # b may underflow to 0
        return np.exp(np.log(b_values) + params.gamma * np.log(u) - params.k * np.log(t)
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
    return lhs / _scaled_rhs(params, b(curve.grid.nodes), curve.u, t) - 1.0


def residual_max(curve: RadialCurve, params: ProblemParams, b) -> float:
    """Largest relative defect of sigma_k(u'', u'/r) against b u^gamma.

    Zero up to rounding for solver curves, whose u'' is recovered from the
    equation; :func:`conservation_defect` is the solve's runtime check."""
    return float(np.max(np.abs(_sigma_k_defect(curve, params, b))))


def conservation_nodes(grid: RadialGrid, radii) -> np.ndarray:
    """The nodes :func:`conservation_defect` lays: the grid's and the table ``radii`` inside."""
    return grid.nodes if radii is None else merge_nodes(grid.nodes, radii[radii < grid.r_max])


def conservation_defect(curve: RadialCurve, params: ProblemParams, b) -> float:
    """Relative mismatch between the propagated moment M and its defining
    integral recomputed from the solution by quadrature, from their logs.

    This is the meaningful consistency check for this solver: the
    pointwise residual is zero by construction (u'' is recovered from the
    equation), whereas M ties u' to the history of u.  The quadrature
    evaluates u through the curve's dense output inside Gauss panels, so
    its own discretization error is negligible against the integrator
    tolerance being measured.  It runs on the grid's own nodes, a table's
    radii inside merged in once each, so no panel straddles a kink of b.
    """
    if curve.dense is None:
        raise ValueError("conservation check needs a curve with a dense evaluator")
    nodes = conservation_nodes(curve.grid, b.radii)
    log_quad = flux_integral(params, b, nodes, lambda s: curve.dense(s)[0])
    pos = np.searchsorted(nodes, curve.grid.nodes[1:])
    _, log_curve = curve.dense(curve.grid.nodes[1:])
    return float(np.max(np.abs(np.expm1(log_quad[pos] - log_curve))))


def write_curve_csv(curve: RadialCurve, path, params: ProblemParams, b) -> None:
    """Write the curve as CSV with header r,u,du,d2u,sigma_k_residual, the
    last column the relative defect sigma_k / (b u^gamma) - 1.

    Floats carry 17 significant digits so the file round-trips exactly.  It
    lands by replace (:func:`core.output_file`) before this returns.
    """
    columns = (curve.grid.nodes, curve.u, curve.du, curve.d2u,
               _sigma_k_defect(curve, params, b))
    with core.output_file(path, newline="") as handle:
        handle.write("r,u,du,d2u,sigma_k_residual\n")
        # Python floats format faster than numpy scalars, to the same digits
        handle.writelines(f"{r:.17g},{u:.17g},{du:.17g},{d2u:.17g},{resid:.17g}\n"
                          for r, u, du, d2u, resid in zip(*(col.tolist() for col in columns)))


def read_curve_csv(path) -> RadialCurve:
    """Read a curve written by :func:`write_curve_csv`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    grid = RadialGrid(data[:, 0])
    return RadialCurve(grid=grid, u=data[:, 1], du=data[:, 2], d2u=data[:, 3])
