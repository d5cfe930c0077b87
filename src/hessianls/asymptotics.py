"""Exact power solutions and growth-rate verification.

For b(r) = r^-l with 0 <= l <= k - 1 the equation has the closed-form
entire solution u = C r^alpha with

    alpha = (2k - l) / (k - gamma),
    C = ( n / ( C(n,k) (n + (alpha - 2) k) alpha^k ) )^(1/(k - gamma)),

and every entire solution for a coefficient with that tail grows at the
same rate: u ~ r^alpha, u' ~ r^(alpha-1), u'' ~ r^(alpha-2), with the
amplitude trapped between two positive constants.  This module checks
solver output against those rates by log-log least squares over the last
two decades of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from ._integrate import fit_log_slope
from .core import ProblemParams, RadialCurve
from .errors import ParameterError

MAX_FIT_STDERR = 0.05
_MIN_FIT_NODES = 20


@dataclass(frozen=True)
class PowerSolution:
    """The closed-form solution u = amplitude * r^alpha for b = r^-l."""

    params: ProblemParams
    l: float
    alpha: float
    amplitude: float

    def u(self, r):
        return self.amplitude * np.asarray(r, dtype=float) ** self.alpha

    def du(self, r):
        return self.amplitude * self.alpha * np.asarray(r, dtype=float) ** (self.alpha - 1.0)

    def d2u(self, r):
        return (self.amplitude * self.alpha * (self.alpha - 1.0)
                * np.asarray(r, dtype=float) ** (self.alpha - 2.0))

    def residual(self, r):
        """Relative defect of sigma_k against r^-l u^gamma (zero up to
        rounding, at every radius)."""
        rr = np.asarray(r, dtype=float)
        t = self.du(rr) / rr
        lhs = np.asarray(core.sigma_j_radial(self.params.k, self.d2u(rr), t, self.params.n))
        rhs = rr ** (-self.l) * self.u(rr) ** self.params.gamma
        return (lhs - rhs) / rhs


def exact_power_solution(params: ProblemParams, l: float) -> PowerSolution:
    """Closed-form power solution; requires 0 <= l <= k - 1 (the regime
    where the exponent alpha exceeds 1 and the solution is admissibly
    convex at infinity)."""
    k, n, gam = params.k, params.n, params.gamma
    if not 0.0 <= l <= k - 1.0:
        raise ParameterError(f"exact power solutions need 0 <= l <= k-1, got l={l}")
    alpha = expected_rate(params, l)
    shape = n + (alpha - 2.0) * k
    # alpha > 1 and n >= k make this positive; assert rather than branch
    assert shape > 0.0, "degenerate shape factor despite admissible l"
    amplitude = (n / (params.cnk * shape * alpha ** k)) ** (1.0 / (k - gam))
    return PowerSolution(params=params, l=float(l), alpha=alpha, amplitude=amplitude)


def expected_rate(params: ProblemParams, l: float) -> float:
    """alpha = (2k - l)/(k - gamma), the growth rate forced by a
    coefficient tail r^-l (for l <= k - 1)."""
    return (2.0 * params.k - l) / (params.k - params.gamma)


@dataclass(frozen=True)
class FitResult:
    exponent: float
    stderr: float
    window: tuple
    npoints: int


def _tail_window(r: np.ndarray) -> tuple:
    """The last two decades of the radii: (lo, hi, mask of r in [lo, hi])."""
    hi = float(r.max())
    lo = hi / 100.0
    return lo, hi, (r >= lo) & (r <= hi)


def fit_exponent(r, values) -> FitResult:
    """Log-log least-squares exponent of ``values`` against ``r`` over the
    last two decades of the radii, where at least 20 positive samples must lie."""
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi, window = _tail_window(r)
    mask = window & (values > 0) & (r > 0)
    if np.count_nonzero(mask) < _MIN_FIT_NODES:
        raise ParameterError(
            f"exponent fit needs at least {_MIN_FIT_NODES} positive samples in "
            f"[{lo:g}, {hi:g}], found {int(np.count_nonzero(mask))}")
    slope, stderr, _ = fit_log_slope(r[mask], values[mask])
    return FitResult(exponent=slope, stderr=stderr, window=(lo, hi),
                     npoints=int(np.count_nonzero(mask)))


@dataclass
class RatesReport:
    """Fitted growth rates of (u, u', u'') against the expected ladder
    (alpha, alpha - 1, alpha - 2)."""

    alpha_expected: float
    fits: dict
    amplitude_ratio: float
    status: str  # "ok" | "inconclusive"
    notes: list = field(default_factory=list)


def verify_rates(curve: RadialCurve, params: ProblemParams, l: float) -> RatesReport:
    """Fit the growth rates of a solved curve over its last two decades.

    The report is "inconclusive" (never a hard failure) when any fit has
    standard error above ``MAX_FIT_STDERR``, or when a derivative is not
    positive on the window (possible outside the unbounded regime).
    """
    alpha = expected_rate(params, l)
    r = curve.grid.nodes
    _, _, window = _tail_window(r)  # lo > 0, so r > 0 on the window
    fits = {}
    notes = []
    status = "ok"
    for name, values in (("u", curve.u), ("du", curve.du), ("d2u", curve.d2u)):
        if np.any(values[window] <= 0):
            notes.append(f"{name} is not positive on the fit window; skipping")
            status = "inconclusive"
            continue
        fit = fit_exponent(r, values)
        fits[name] = fit
        if fit.stderr > MAX_FIT_STDERR:
            notes.append(f"{name} fit stderr {fit.stderr:.3g} exceeds {MAX_FIT_STDERR:g}")
            status = "inconclusive"
    scaled = curve.u[window] / r[window] ** alpha
    amplitude_ratio = float(scaled.max() / scaled.min())
    return RatesReport(alpha_expected=alpha, fits=fits,
                       amplitude_ratio=amplitude_ratio, status=status, notes=notes)
