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
(k gamma/(k - gamma)).  With tails b_* ~ r^-l and b_osc ~ r^-m the same
two-branch algebra shows I_osc < inf exactly when n > 2k and m > m*, 2k
plus the growth exponent of btilde:

    m* = 2k + max(2k - l, 0) gamma / (k - gamma).

Every verdict, the two moment conditions included, compares one tail
exponent with 2k or m* through :func:`_exceeds`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ._integrate import cumulative_values
from .asymptotics import fit_exponent
from .core import ProblemParams
from .coefficients import (OSC_NEGLIGIBLE_REL_TOL, RadializedTriple, RadialProfile,
                           check_coefficient)
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


_REFUSED = "fitted tails within one standard error of the threshold"


def _exceeds(tail: float, threshold: float, *estimates: TailEstimate) -> Optional[bool]:
    """tail > threshold, or None (refused) when an estimate is fitted and
    ``tail`` lies within their largest standard error of the threshold."""
    if (any(est.fitted for est in estimates)
            and abs(tail - threshold) <= max(est.stderr for est in estimates)):
        return None
    return tail > threshold


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
    return _b_tilde(params, growth_primitive(params, b_star, s))


def _b_tilde(params: ProblemParams, primitive):
    """The growth factor of :func:`compute_b_tilde` from integral_0^s J."""
    power = params.k * params.gamma / (params.k - params.gamma)
    return (1.0 + primitive) ** power


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
    bounded = params.n > threshold and _exceeds(est.exponent, threshold, est)
    if params.n <= threshold:
        evidence.append(f"dimension branch: n = {params.n} <= 2k forces divergence "
                        f"for every tail")
    verdict, note = {
        None: (INCONCLUSIVE, _REFUSED),
        False: (LARGE, "envelope integral diverges: every entire solution is unbounded"),
        True: (BOUNDED, "envelope integral converges: bounded entire solutions exist"),
    }[bounded]
    evidence.append(note)
    return CriterionVerdict(verdict, est.exponent, threshold, finite, evidence)


# ---------------------------------------------------------------------------
# oscillation smallness
# ---------------------------------------------------------------------------

def oscillation_threshold(params: ProblemParams, tail_star: float) -> float:
    """m* = 2k + max(2k - l, 0) gamma/(k - gamma), the smallest oscillation
    decay that keeps I_osc finite (in the n > 2k branch); for l < 2k it
    equals l + (2k - l) k/(k - gamma)."""
    k, gam = params.k, params.gamma
    return 2.0 * k + max(2.0 * k - tail_star, 0.0) * gam / (k - gam)


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
    k, n = params.k, params.n
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
    l, m = est_star.exponent, est_osc.exponent
    m_star = oscillation_threshold(params, l)
    # the outer integrand scales like r^(-1 - gap/k); gap > 0 when satisfied
    gap = min(m - m_star, n - 2.0 * k)
    finite, tail_value = _osc_finite_part(triple, params, r_max)
    evidence = [f"envelope tail l = {l:.6g} ({est_star.source}), "
                f"oscillation tail m = {m:.6g} ({est_osc.source})",
                f"threshold m* = {m_star:.6g}",
                f"outer integrand scales like r^{-1.0 - gap / k:.6g}"]
    satisfied = n > 2 * k and _exceeds(m, m_star, est_star, est_osc)
    if satisfied is None:
        evidence.append(_REFUSED)
        return OscillationReport("inconclusive", float("nan"), finite, m_star,
                                 l, m, evidence)
    if n <= 2 * k:
        evidence.append(f"dimension branch: n = {n} <= 2k, outer integrand cannot "
                        f"decay faster than r^((k-n)/k) >= r^-1")
    if not satisfied:
        evidence.append("oscillation integral diverges")
        return OscillationReport("violated", float("inf"), finite, m_star,
                                 l, m, evidence)
    tail_part = tail_value * r_max * k / gap
    total = finite + tail_part
    evidence.append(f"finite part {finite:.6g} + tail estimate {tail_part:.6g}")
    return OscillationReport("satisfied", total, finite, m_star, l, m, evidence)


def _osc_finite_part(triple: RadializedTriple, params: ProblemParams,
                     r_max: float):
    """[0, r_max] part of I_osc by stacked quadrature; also returns the
    outer integrand value at r_max (for the tail estimate)."""
    fine = fine_nodes(r_max)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # compute_b_tilde on ``fine`` would merge it into a rebuilt copy of
        # itself; its primitive is the J table's last column on ``fine``.
        btilde = _b_tilde(params, linear_growth_tables(params, triple.b_star, fine)[2])
        osc_vals = np.asarray(triple.b_osc(fine))
        # In extreme-exponent regimes the oscillation underflows to zero
        # while the growth factor overflows; the product is then taken as
        # zero (the verdict never depends on this finite part).
        integrand = np.where(osc_vals == 0.0, 0.0,
                             fine ** (params.n - 1) * osc_vals * btilde)
        # Simpson's inner integral can dip below 0 where the integrand is tiny
        outer = flux_slope(params, fine, np.log(np.maximum(cumulative_values(integrand, fine), 0)))
        return _total(outer, fine), float(outer[-1])


def _total(values, nodes) -> float:
    """Simpson integral of nonnegative samples; a NaN (inf - inf past the float range) reads inf."""
    return float(np.nan_to_num(cumulative_values(values, nodes)[-1], nan=np.inf, posinf=np.inf))


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

    star_vals = check_coefficient(triple.b_star(fine), fine, nonnegative=True) ** (1.0 / k)
    moment_finite = float(cumulative_values(fine * star_vals, fine)[-1])
    # r b_*^(1/k) ~ r^(1 - l/k): convergent iff l > 2k
    radial_moment = _moment(moment_finite, est_star, 2.0 * k)

    if triple.osc_negligible():
        osc_bound = {"status": "convergent", "tail_exponent": None,
                     "finite_part": 0.0,
                     "note": "oscillation vanishes"}
        return JensenReport(radial_moment, osc_bound)

    est_osc = tail_exponent_of(triple.b_osc)
    log_inner1 = flux_integral(params, lambda s: np.asarray(triple.b_star(s)) ** (1.0 / k), fine)
    ratio = np.zeros_like(fine)
    ratio[1:] = np.exp(log_inner1[1:] - (n - 1) * np.log(fine[1:]))
    double = cumulative_values(ratio, fine)
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = (1.0 + n / params.cnk ** (1.0 / k) * double) ** (gam / (k - gam))
        osc_vals = np.asarray(triple.b_osc(fine)) ** (1.0 / k)
        osc_finite = _total(fine * osc_vals * bracket, fine)
    # the integrand scales like r^(1 - m/k) times the bracket's growth,
    # r^(max(2k - l, 0) gamma/(k (k - gamma))): convergent iff m > m*
    m_star = None if est_star is None else oscillation_threshold(params, est_star.exponent)
    return JensenReport(radial_moment, _moment(osc_finite, est_osc, m_star, est_star))


def _moment(finite: float, tail: Optional[TailEstimate], threshold: Optional[float],
            *others: Optional[TailEstimate]) -> dict:
    """One moment condition: convergent iff ``tail`` exceeds ``threshold``.
    Status None when a tail is missing, or when refused (with a note)."""
    if tail is None or None in others:
        return {"status": None, "tail_exponent": None, "finite_part": finite}
    above = _exceeds(tail.exponent, threshold, tail, *others)
    entry = {"status": {True: "convergent", False: "divergent"}.get(above),
             "tail_exponent": tail.exponent, "finite_part": finite}
    if above is None:
        entry["note"] = _REFUSED
    return entry
