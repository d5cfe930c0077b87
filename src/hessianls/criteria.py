"""Existence-type classification of entire solutions.

Whether every entire solution is unbounded ("Large") or bounded ones
exist is decided by the divergence of the growth-envelope integral

    J(r) = ( n r^(k-n) / C(n,k) * integral_0^r s^(n-1) b_*(s) ds )^(1/k),

with integral_0^inf J = inf  <=>  Large.  Divergence is never decided by
raw quadrature of an improper integral: profiles carry a declared or
fitted power-law tail exponent and the decision reduces to comparing that
exponent against a threshold.  For a tail b_* ~ r^-l the integrand decays
like r^((k - min(l, n))/k), so the integral diverges exactly when
min(l, n) <= 2k; in particular a dimension n <= 2k forces divergence no
matter how fast the coefficient decays, and the familiar "l <= 2k"
threshold is the n > 2k branch of that rule.

The oscillation-smallness check for non-radial coefficients bounds

    I_osc = integral_0^inf ( n r^(k-n)/C(n,k) *
             integral_0^r s^(n-1) b_osc(s) btilde(s) ds )^(1/k) dr,

where btilde is the worst-case growth factor (1 + integral_0^s J_*)^
(k gamma/(k - gamma)).  With tails b_* ~ r^-l (l < 2k) and b_osc ~ r^-m
the same two-branch algebra shows I_osc < inf exactly when n > 2k and

    m > m* = l + (2k - l) k / (k - gamma).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ._integrate import cumulative_values
from .asymptotics import fit_exponent
from .core import ProblemParams
from .coefficients import OSC_NEGLIGIBLE_REL_TOL, RadializedTriple, RadialProfile
from .envelope import (fine_nodes, flux_integral, flux_slope, growth_primitive,
                       linear_growth_tables)
from .errors import ParameterError

LARGE = "Large"
BOUNDED = "Bounded"
INCONCLUSIVE = "Inconclusive"


# ---------------------------------------------------------------------------
# tail exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    """Power-law tail exponent of a profile: b(r) ~ r^-exponent."""

    exponent: float
    stderr: float
    source: str  # "declared" or "fitted"

    @property
    def fitted(self) -> bool:
        return self.source == "fitted"


def tail_exponent_of(profile: RadialProfile) -> Optional[TailEstimate]:
    """Declared tail exponent if available, else a log-log least-squares
    fit of a tabulated profile's positive samples in
    :func:`~hessianls.asymptotics.fit_exponent`'s window (the last two
    decades of those samples).

    Returns None when neither route applies (no declared tail and too few
    positive samples in that window), which callers surface as an
    Inconclusive verdict rather than guessing.
    """
    if profile.tail_exponent is not None:
        return TailEstimate(float(profile.tail_exponent), 0.0, "declared")
    if profile.kind != "tabulated":
        return None
    keep = (profile.radii > 0) & (profile.values > 0)
    if not keep.any():
        return None
    try:
        fit = fit_exponent(profile.radii[keep], profile.values[keep])
    except ParameterError:  # too few positive samples in the window
        return None
    return TailEstimate(-fit.exponent, fit.stderr, "fitted")


# ---------------------------------------------------------------------------
# growth-envelope integrand and bounds
# ---------------------------------------------------------------------------

def keller_osserman_integrand(b_star, r: float, params: ProblemParams) -> float:
    """J(r), read from the envelope table on [0, r]."""
    if r < 0:
        raise ParameterError(f"radius must be nonnegative, got {r}")
    if r == 0.0:
        return 0.0
    _, integrand, _ = linear_growth_tables(params, b_star, fine_nodes(r))
    return float(integrand[-1])


def compute_b_tilde(b_star, s, params: ProblemParams):
    """Worst-case growth factor (1 + integral_0^s J)^(k gamma/(k-gamma))."""
    prim = growth_primitive(params, b_star, s)
    power = params.k * params.gamma / (params.k - params.gamma)
    return (1.0 + prim) ** power


def bounded_solution_bound(params: ProblemParams, b_star, r):
    """Closed-form pointwise bound for bounded-regime solutions:

        ( a^((k-gamma)/k) + (k-gamma)/k * integral_0^r J )^(k/(k-gamma)).

    Valid for every radial solve with coefficient below b_star; reduces to
    a at r = 0.
    """
    sub = params.sub_power
    prim = growth_primitive(params, b_star, r)
    return (params.a ** sub + sub * prim) ** (1.0 / sub)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class CriterionVerdict:
    """Outcome of a divergence criterion decided through tail exponents."""

    verdict: str
    tail_exponent: Optional[float]
    threshold: float
    finite_part: float
    evidence: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def classify_existence(b_star, params: ProblemParams,
                       r_max: float = 1e4) -> CriterionVerdict:
    """Large / Bounded / Inconclusive from the growth-envelope integral.

    ``b_star`` must be a RadialProfile (tail handling needs it); the
    finite part of the integral up to r_max is reported as evidence, the
    verdict itself comes from the tail exponent alone.
    """
    threshold = 2.0 * params.k
    est = tail_exponent_of(b_star)
    if est is None:
        return CriterionVerdict(
            INCONCLUSIVE, None, threshold, float("nan"),
            ["no declared tail exponent and not enough tabulated range to fit one"])
    finite = float(growth_primitive(params, b_star, r_max))
    evidence = [f"tail exponent {est.exponent:.6g} ({est.source})",
                f"integrand decays like r^((k - min(l, n))/k) with n = {params.n}, "
                f"k = {params.k}",
                f"finite part over [0, {r_max:g}] = {finite:.6g}"]
    if est.fitted:
        evidence.insert(1, f"fit standard error {est.stderr:.2g}")
        if abs(est.exponent - threshold) <= est.stderr and params.n > threshold:
            evidence.append("fitted exponent within one standard error of the "
                            "threshold; refusing to call the side")
            return CriterionVerdict(INCONCLUSIVE, est.exponent, threshold,
                                    finite, evidence)
    effective = min(est.exponent, float(params.n))
    if params.n <= threshold:
        evidence.append(f"dimension branch: n = {params.n} <= 2k forces divergence "
                        f"for every tail")
    if effective <= threshold:
        evidence.append("envelope integral diverges: every entire solution is unbounded")
        return CriterionVerdict(LARGE, est.exponent, threshold, finite, evidence)
    evidence.append("envelope integral converges: bounded entire solutions exist")
    return CriterionVerdict(BOUNDED, est.exponent, threshold, finite, evidence)


# ---------------------------------------------------------------------------
# oscillation smallness
# ---------------------------------------------------------------------------

def oscillation_threshold(params: ProblemParams, tail_star: float) -> float:
    """m* = l + (2k - l) k/(k - gamma), the smallest oscillation decay that
    keeps I_osc finite (in the n > 2k branch)."""
    k, gam = params.k, params.gamma
    return tail_star + (2.0 * k - tail_star) * k / (k - gam)


@dataclass
class OscillationReport:
    """Outcome of the oscillation-smallness test."""

    status: str  # "satisfied" | "violated" | "inconclusive"
    integral: float
    finite_part: float
    m_star: Optional[float]
    tail_star: Optional[float]
    tail_osc: Optional[float]
    evidence: list = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"

    def to_dict(self) -> dict:
        return asdict(self)


def oscillation_condition(triple: RadializedTriple, params: ProblemParams,
                          r_max: float = 1e4) -> OscillationReport:
    """Decide whether the oscillation b^* - b_* is small enough for the
    sandwich construction (finite I_osc)."""
    k, n, gam = params.k, params.n, params.gamma
    if triple.osc_negligible():
        return OscillationReport(
            "satisfied", 0.0, 0.0, None, None, None,
            ["oscillation is zero to relative tolerance "
             f"{OSC_NEGLIGIBLE_REL_TOL:g}: coefficient is radial"])
    est_star = tail_exponent_of(triple.b_star)
    est_osc = tail_exponent_of(triple.b_osc)
    if est_star is None or est_osc is None:
        return OscillationReport(
            "inconclusive", float("nan"), float("nan"), None,
            None if est_star is None else est_star.exponent,
            None if est_osc is None else est_osc.exponent,
            ["tail exponents unavailable for the envelopes"])
    l = est_star.exponent
    m = est_osc.exponent
    m_star = oscillation_threshold(params, l)
    # growth exponent of btilde along the envelope (zero once the envelope
    # integral converges)
    phi = (2.0 * k - l) * gam / (k - gam) if l < 2.0 * k else 0.0
    outer_exp = (k - min(m - phi, float(n))) / k
    finite, tail_value = _osc_finite_part(triple, params, r_max)
    evidence = [f"envelope tail l = {l:.6g} ({est_star.source}), "
                f"oscillation tail m = {m:.6g} ({est_osc.source})",
                f"threshold m* = {m_star:.6g}",
                f"outer integrand scales like r^{outer_exp:.6g}"]
    stderr = max(est_star.stderr, est_osc.stderr)
    if (est_star.fitted or est_osc.fitted) and abs(m - m_star) <= stderr:
        evidence.append("fitted tails within one standard error of the threshold")
        return OscillationReport("inconclusive", float("nan"), finite, m_star,
                                 l, m, evidence)
    if n <= 2 * k:
        evidence.append(f"dimension branch: n = {n} <= 2k, outer integrand cannot "
                        f"decay faster than r^((k-n)/k) >= r^-1")
    if outer_exp >= -1.0:
        evidence.append("oscillation integral diverges")
        return OscillationReport("violated", float("inf"), finite, m_star,
                                 l, m, evidence)
    tail_part = tail_value * r_max / (-1.0 - outer_exp)
    total = finite + tail_part
    evidence.append(f"finite part {finite:.6g} + tail estimate {tail_part:.6g}")
    return OscillationReport("satisfied", total, finite, m_star, l, m, evidence)


def _osc_finite_part(triple: RadializedTriple, params: ProblemParams,
                     r_max: float):
    """[0, r_max] part of I_osc by stacked quadrature; also returns the
    outer integrand value at r_max (for the tail estimate)."""
    fine = fine_nodes(r_max)
    with np.errstate(over="ignore", invalid="ignore"):
        btilde = compute_b_tilde(triple.b_star, fine, params)
        osc_vals = np.asarray(triple.b_osc(fine))
        # In extreme-exponent regimes the oscillation underflows to zero
        # while the growth factor overflows; the product is then taken as
        # zero (the verdict never depends on this finite part).
        integrand = np.where(osc_vals == 0.0, 0.0,
                             fine ** (params.n - 1) * osc_vals * btilde)
    outer = flux_slope(params, fine, cumulative_values(integrand, fine))
    finite = float(cumulative_values(outer, fine)[-1])
    return finite, float(outer[-1])


# ---------------------------------------------------------------------------
# moment-type sufficient conditions
# ---------------------------------------------------------------------------

@dataclass
class JensenReport:
    """The two moment-type conditions and their one-way implications.

    radial_moment: divergence of integral r b_*(r)^(1/k) dr (a sufficient
    condition for the envelope growth criterion, never necessary).

    oscillation_moment_bound: convergence of
    integral r b_osc^(1/k) (1 + n/C(n,k)^(1/k) * double integral of
    b_*^(1/k))^(gamma/(k-gamma)) dr (implied by oscillation smallness,
    not conversely).
    """

    radial_moment: dict
    oscillation_moment_bound: dict
    # proven one-way implications, target <- source; the reverse
    # directions are deliberately absent
    implied_by: dict = field(default_factory=lambda: {
        "envelope_growth_divergence": "radial_moment_divergence",
        "oscillation_moment_bound": "oscillation_smallness",
    })

    def to_dict(self) -> dict:
        return asdict(self)


def jensen_conditions(triple: RadializedTriple, params: ProblemParams,
                      r_max: float = 1e4) -> JensenReport:
    """Evaluate both moment conditions through tail exponents plus finite
    parts (same policy as the main criteria: no improper quadrature)."""
    k, n, gam = params.k, params.n, params.gamma
    est_star = tail_exponent_of(triple.b_star)
    fine = fine_nodes(r_max)

    star_vals = np.asarray(triple.b_star(fine)) ** (1.0 / k)
    moment_finite = float(cumulative_values(fine * star_vals, fine)[-1])
    if est_star is None:
        radial_moment = {"status": None, "tail_exponent": None,
                         "finite_part": moment_finite}
    else:
        exp_moment = 1.0 - est_star.exponent / k
        radial_moment = {
            "status": "divergent" if exp_moment >= -1.0 else "convergent",
            "tail_exponent": est_star.exponent,
            "finite_part": moment_finite,
        }

    if triple.osc_negligible():
        osc_bound = {"status": "convergent", "tail_exponent": None,
                     "finite_part": 0.0,
                     "note": "oscillation vanishes"}
        return JensenReport(radial_moment, osc_bound)

    est_osc = tail_exponent_of(triple.b_osc)
    inner1 = flux_integral(params, lambda s: np.asarray(triple.b_star(s)) ** (1.0 / k), fine)
    ratio = np.zeros_like(fine)
    ratio[1:] = inner1[1:] / fine[1:] ** (n - 1)
    double = cumulative_values(ratio, fine)
    bracket = (1.0 + n / params.cnk ** (1.0 / k) * double) ** (gam / (k - gam))
    osc_vals = np.asarray(triple.b_osc(fine)) ** (1.0 / k)
    osc_finite = float(cumulative_values(fine * osc_vals * bracket, fine)[-1])
    if est_osc is None or est_star is None:
        osc_bound = {"status": None, "tail_exponent": None,
                     "finite_part": osc_finite}
    else:
        l, m = est_star.exponent, est_osc.exponent
        phi = (2.0 - l / k) * gam / (k - gam) if l < 2.0 * k else 0.0
        exp3 = 1.0 - m / k + phi
        osc_bound = {
            "status": "convergent" if exp3 < -1.0 else "divergent",
            "tail_exponent": m,
            "finite_part": osc_finite,
        }
    return JensenReport(radial_moment, osc_bound)
