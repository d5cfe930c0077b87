"""Sub/supersolution sandwich for non-radial coefficients.

Any entire solution u of the full problem with coefficient b(x) between
its radial envelopes satisfies, by comparison,

    v <= u <= w    with   v solving the radial problem for b^* with v(0) = 1,
                          w solving the radial problem for b_* with w(0) = beta,

provided beta is large enough that the ordering v <= w actually holds.
When the oscillation-smallness integral I_osc is finite the choice
beta = 1 + I_osc + margin works; the oscillation check is therefore a
precondition for deriving beta automatically, and an explicit beta
bypasses it (useful for studying coefficients that sit outside the
smallness regime).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import RadializedTriple
from .core import ProblemParams, RadialCurve, RadialGrid, output_file, output_paths
from .criteria import (OscillationReport, oscillation_condition, oscillation_evidence,
                       oscillation_verdict)
from .envelope import EnvelopeTables, bounded_solution_bound, growth_primitive, solution_ceiling
from .errors import OrderingError, OscillationError, ParameterError
from .solver import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, check_tolerances, solve_cauchy,
                     write_curve_csv)


def supersolution_envelope(params: ProblemParams, b_star, beta: float, r):
    """Closed-form ceiling for the supersolution:

        ( beta^((k-gamma)/k) + (k-gamma)/k * integral_0^r J_* )^(k/(k-gamma)).

    Every radial solve with coefficient <= b_star and center <= beta stays
    below this curve.
    """
    return bounded_solution_bound(params.with_center(beta), b_star, r)


def bounded_dominance_bound(params: ProblemParams, b, r):
    """Pointwise dominance bound from the frozen-right-hand-side solution:

        u(r) <= 2^(gamma/(k-gamma)) * ( u(0) + ubar(r)^(k/(k-gamma)) ),

    with ubar the pure-quadrature growth primitive for the same b."""
    k, gam = params.k, params.gamma
    ubar = growth_primitive(params, b, r)
    return 2.0 ** (gam / (k - gam)) * (params.a + np.asarray(ubar) ** (k / (k - gam)))


@dataclass
class SandwichReport:
    """Constructed sandwich with its audit quantities."""

    params: ProblemParams
    beta: float
    margin: float
    v: RadialCurve
    w: RadialCurve
    min_margin: float
    envelope_excess: float
    oscillation: OscillationReport

    def to_dict(self, v_csv: Optional[str] = None, w_csv: Optional[str] = None) -> dict:
        return {
            "beta": self.beta,
            "margin": self.margin,
            "min_margin": self.min_margin,
            "envelope_excess": self.envelope_excess,
            "oscillation": self.oscillation.to_dict(),
            "v_csv": v_csv,
            "w_csv": w_csv,
        }

    def save(self, directory, triple: RadializedTriple) -> dict:
        """Write v.csv, w.csv and report.json into ``directory``: each beside its file
        first, and the three land in turn only once all are written (:func:`output_paths`)."""
        os.makedirs(directory, exist_ok=True)
        payload = self.to_dict(v_csv="v.csv", w_csv="w.csv")
        with output_paths(*(os.path.join(directory, name)
                            for name in ("v.csv", "w.csv", "report.json"))) as staged:
            write_curve_csv(self.v, staged[0], self.params.with_center(1.0), triple.b_upper)
            write_curve_csv(self.w, staged[1], self.params.with_center(self.beta), triple.b_star)
            with output_file(staged[2]) as handle:
                json.dump(payload, handle, indent=2)
        return payload


def build_sandwich(triple: RadializedTriple, params: ProblemParams,
                   grid: RadialGrid, beta: Optional[float] = None,
                   margin: Optional[float] = None,
                   rel_tol: float = DEFAULT_REL_TOL,
                   abs_tol: float = DEFAULT_ABS_TOL) -> SandwichReport:
    """Solve both envelope problems and certify the ordering v <= w.

    With ``beta`` unset the oscillation-smallness condition must hold; it
    supplies beta = 1 + I_osc + margin with margin defaulting to
    max(1, 0.1 I_osc).  An explicit beta skips the precondition.  If the
    ordering fails anyway the OrderingError reports the violating radius
    and a suggested larger margin.
    """
    check_tolerances(rel_tol, abs_tol)
    if beta is not None and not np.isfinite(beta):
        raise ParameterError(f"beta must be a finite number, got {beta}")
    if margin is not None and not 0.0 <= margin < np.inf:
        raise ParameterError(f"margin must be a finite number >= 0, got {margin}")
    if beta is not None and beta <= 1.0:  # refused before the J table and I_osc are built
        raise OrderingError(f"beta must exceed the subsolution center 1, got {beta}",
                            radius=0.0)
    if beta is None:
        # a refusal is decided from the tails: no quadrature runs
        verdict = oscillation_verdict(triple, params)
        if verdict[0] != "satisfied":
            raise OscillationError(
                f"oscillation-smallness check is {verdict[0]}; cannot derive a "
                f"starting height automatically (pass beta explicitly to force "
                f"a construction): {'; '.join(oscillation_evidence(params, *verdict))}")
    # one J table, on the grid's nodes, gives I_osc and the supersolution ceiling
    tables = EnvelopeTables(params, triple, grid.r_max, grid.nodes)
    osc = oscillation_condition(tables)
    if beta is None:
        if margin is None:
            margin = max(1.0, 0.1 * osc.integral)
        beta = 1.0 + osc.integral + margin
    else:
        margin = beta - 1.0 if margin is None else margin
    # the J table is laid, and held to the panel budget, before either solve
    env = solution_ceiling(params.with_center(beta), tables.primitive(grid.nodes))
    v = solve_cauchy(params.with_center(1.0), triple.b_upper, grid,
                     rel_tol=rel_tol, abs_tol=abs_tol)
    w = solve_cauchy(params.with_center(beta), triple.b_star, grid,
                     rel_tol=rel_tol, abs_tol=abs_tol)
    margins = w.u - v.u
    min_margin = float(margins.min())
    if min_margin < 0.0:
        bad = int(np.argmax(margins < 0.0))
        radius = float(grid.nodes[bad])
        raise OrderingError(
            f"supersolution fell below the subsolution at r = {radius:g} "
            f"(beta = {beta:g}); retry with a larger margin",
            radius=radius, suggested_margin=(margin or 1.0) + 2.0 * abs(min_margin))
    envelope_excess = float(np.max(w.u / env - 1.0))
    return SandwichReport(params=params, beta=float(beta), margin=float(margin),
                          v=v, w=w, min_margin=min_margin,
                          envelope_excess=envelope_excess, oscillation=osc)
