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
exponent with 2k or m* through :func:`_exceeds`.  :func:`existence_verdict`
and :func:`oscillation_verdict` decide from the tails alone; the reports of
:func:`classify_existence`, :func:`oscillation_condition` and
:func:`jensen_conditions` add the finite parts of one op's
:class:`~hessianls.envelope.EnvelopeTables` as evidence.  Only tails,
thresholds and verdicts live here; every envelope integral is
:mod:`.envelope`'s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from .asymptotics import fit_exponent
from .core import ProblemParams
from .coefficients import OSC_NEGLIGIBLE_REL_TOL, RadializedTriple, RadialProfile
# The envelope integrals live in envelope; perfbench/tracing.py wraps
# growth_primitive, keller_osserman_integrand and bounded_solution_bound as
# ``criteria.*``.
from .envelope import (EnvelopeTables, bounded_solution_bound,  # noqa: F401
                       growth_primitive, keller_osserman_integrand, oscillation_integral,
                       oscillation_moment_integral, radial_moment_integral)
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


_EXISTENCE_NOTES = {
    INCONCLUSIVE: _REFUSED,
    LARGE: "envelope integral diverges: every entire solution is unbounded",
    BOUNDED: "envelope integral converges: bounded entire solutions exist",
}


def existence_verdict(b_star, params: ProblemParams):
    """(verdict, tail estimate) of the growth-envelope criterion, decided
    from b_*'s tail alone: no quadrature runs.  The estimate is None when
    b_* has no tail, which is Inconclusive."""
    est = tail_exponent_of(b_star)
    if est is None:
        return INCONCLUSIVE, None
    threshold = 2.0 * params.k
    bounded = params.n > threshold and _exceeds(est.exponent, threshold, est)
    return {None: INCONCLUSIVE, False: LARGE, True: BOUNDED}[bounded], est


def classify_existence(tables: EnvelopeTables) -> CriterionVerdict:
    """Large / Bounded / Inconclusive from the growth-envelope integral of
    ``tables``' b_*.

    The finite part of the integral up to r_max, the last entry of the J
    table, is reported as evidence; the verdict itself is
    :func:`existence_verdict`'s.
    """
    params, r_max = tables.params, tables.r_max
    threshold = 2.0 * params.k
    verdict, est = existence_verdict(tables.triple.b_star, params)
    if est is None:
        return CriterionVerdict(
            INCONCLUSIVE, None, threshold, float("nan"),
            ["no declared tail exponent and not enough tabulated range to fit one"])
    finite = float(tables.growth[2][-1])
    evidence = [f"tail exponent {est.exponent:.6g} ({est.source})",
                f"integrand decays like r^((k - min(l, n))/k) with n = {params.n}, "
                f"k = {params.k}",
                f"finite part over [0, {r_max:g}] = {finite:.6g}"]
    if est.fitted:
        evidence.insert(1, f"fit standard error {est.stderr:.2g}")
    if params.n <= threshold:
        evidence.append(f"dimension branch: n = {params.n} <= 2k forces divergence "
                        f"for every tail")
    evidence.append(_EXISTENCE_NOTES[verdict])
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


def oscillation_verdict(triple: RadializedTriple, params: ProblemParams):
    """(status, m*, envelope tail, oscillation tail) of the oscillation
    test, decided from the tails alone: no quadrature runs.  m* is None
    when the status needs no tails (a negligible oscillation, "satisfied")
    or a tail is missing ("inconclusive")."""
    if triple.osc_negligible():
        return "satisfied", None, None, None
    est_star = tail_exponent_of(triple.b_star)
    est_osc = tail_exponent_of(triple.b_osc)
    if est_star is None or est_osc is None:
        return "inconclusive", None, est_star, est_osc
    m_star = oscillation_threshold(params, est_star.exponent)
    satisfied = (params.n > 2 * params.k
                 and _exceeds(est_osc.exponent, m_star, est_star, est_osc))
    status = {None: "inconclusive", False: "violated", True: "satisfied"}[satisfied]
    return status, m_star, est_star, est_osc


def _outer_gap(params: ProblemParams, m_star: float, tail_osc: float) -> float:
    """The outer integrand of I_osc scales like r^(-1 - gap/k); gap > 0
    when the oscillation test is satisfied."""
    return min(tail_osc - m_star, params.n - 2.0 * params.k)


def oscillation_evidence(params: ProblemParams, status, m_star, est_star, est_osc) -> list:
    """The evidence lines of :func:`oscillation_verdict`'s outcome (its four
    values after ``params``) that need no quadrature: a refusal shows
    these alone, and :func:`oscillation_condition` adds the finite part of
    I_osc to a satisfied test."""
    if m_star is None and status == "satisfied":
        return ["oscillation is zero to relative tolerance "
                f"{OSC_NEGLIGIBLE_REL_TOL:g}: coefficient is radial"]
    if m_star is None:
        return ["tail exponents unavailable for the envelopes"]
    k, n = params.k, params.n
    l, m = est_star.exponent, est_osc.exponent
    evidence = [f"envelope tail l = {l:.6g} ({est_star.source}), "
                f"oscillation tail m = {m:.6g} ({est_osc.source})",
                f"threshold m* = {m_star:.6g}",
                f"outer integrand scales like r^{-1.0 - _outer_gap(params, m_star, m) / k:.6g}"]
    if status == "inconclusive":
        return evidence + [_REFUSED]
    if n <= 2 * k:
        evidence.append(f"dimension branch: n = {n} <= 2k, outer integrand cannot "
                        f"decay faster than r^((k-n)/k) >= r^-1")
    if status == "violated":
        evidence.append("oscillation integral diverges")
    return evidence


def oscillation_condition(tables: EnvelopeTables) -> OscillationReport:
    """Decide whether the oscillation b^* - b_* of ``tables``' triple is
    small enough for the sandwich construction (finite I_osc):
    :func:`oscillation_verdict`'s status, with the [0, r_max] part of I_osc
    and its tail as evidence."""
    params = tables.params
    verdict = oscillation_verdict(tables.triple, params)
    status, m_star, est_star, est_osc = verdict
    evidence = oscillation_evidence(params, *verdict)
    if m_star is None and status == "satisfied":
        return OscillationReport("satisfied", 0.0, 0.0, None, None, None, evidence)
    if m_star is None:
        return OscillationReport(
            "inconclusive", float("nan"), float("nan"), None,
            None if est_star is None else est_star.exponent,
            None if est_osc is None else est_osc.exponent, evidence)
    l, m = est_star.exponent, est_osc.exponent
    finite, tail_value = oscillation_integral(tables)
    if status == "inconclusive":
        return OscillationReport("inconclusive", float("nan"), finite, m_star,
                                 l, m, evidence)
    if status == "violated":
        return OscillationReport("violated", float("inf"), finite, m_star,
                                 l, m, evidence)
    tail_part = tail_value * tables.r_max * params.k / _outer_gap(params, m_star, m)
    total = finite + tail_part
    evidence.append(f"finite part {finite:.6g} + tail estimate {tail_part:.6g}")
    return OscillationReport("satisfied", total, finite, m_star, l, m, evidence)


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


def jensen_conditions(tables: EnvelopeTables) -> JensenReport:
    """Evaluate both moment conditions of ``tables``' triple through tail
    exponents plus finite parts (same policy as the main criteria: no
    improper quadrature)."""
    params, triple = tables.params, tables.triple
    est_star = tail_exponent_of(triple.b_star)
    # r b_*^(1/k) ~ r^(1 - l/k): convergent iff l > 2k
    radial_moment = _moment(radial_moment_integral(tables), est_star, 2.0 * params.k)

    if triple.osc_negligible():
        osc_bound = {"status": "convergent", "tail_exponent": None,
                     "finite_part": 0.0,
                     "note": "oscillation vanishes"}
        return JensenReport(radial_moment, osc_bound)

    osc_finite = oscillation_moment_integral(tables)
    # the integrand scales like r^(1 - m/k) times the bracket's growth,
    # r^(max(2k - l, 0) gamma/(k (k - gamma))): convergent iff m > m*
    m_star = None if est_star is None else oscillation_threshold(params, est_star.exponent)
    return JensenReport(radial_moment, _moment(osc_finite, tail_exponent_of(triple.b_osc),
                                               m_star, est_star))


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
