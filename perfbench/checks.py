"""Output checks.  Each returns a list of problems (empty means correct).

The expected answers come from closed-form rules, never from the package:

* verdict: Large iff min(l, n) <= 2k, with l the tail exponent of b_*;
* oscillation status: satisfied iff n > 2k and m > m* = l + (2k - l)k/(k - gamma)
  (the generator keeps m at least 0.5 away from m*, outside any refusal band);
* exit codes: 0 for builds and solves, 3 for refused sandwiches;
* automatic sandwiches: min_margin >= 0 and envelope_excess <= 1e-8;
* rates: alpha = (2k - l)/(k - gamma) and |alpha_fitted - alpha| <= ALPHA_TOL;
* verify: every invariant passed;
* solve curves and break lines: u against ``reference.py``.

A sweep cell that ends in IntegrationError, or whose fitted rate misses
ALPHA_TOL, is a failed cell: the sweep reports it in-row as documented, so
it counts in ``fail_share`` but is not a wrong answer.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# verify_rates calls a fit with a standard error above 0.05 inconclusive
# (asymptotics.MAX_FIT_STDERR); the same number bounds the exponent error.
ALPHA_TOL = 0.05
ENVELOPE_EXCESS_TOL = 1e-8
CURVE_REL_TOL = 1e-5
FAILED_CELL_ERRORS = ("IntegrationError", "BlowupGuardError")


def m_star(k, gamma, l):
    return l + (2.0 * k - l) * k / (k - gamma)


def expected_verdict(n, k, tail):
    return "Large" if min(tail, n) <= 2 * k else "Bounded"


def expected_osc(n, k, gamma, l, m):
    if n <= 2 * k:
        return "violated"
    if l >= 2 * k:
        return "satisfied" if m > 2 * k else "violated"
    return "satisfied" if m > m_star(k, gamma, l) else "violated"


def field_tails(coefficient):
    """(l, m) of a builtin field: tails of b_* and of the oscillation."""
    if coefficient["name"] == "counterexample":
        return 1.0, 1.0
    return float(coefficient["l"]), float(coefficient["m"])


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# -- sweep ---------------------------------------------------------------------

def check_sweep(op, code, csv_text):
    """(problems, cell stats) for one sweep op."""
    stats = {"cells": 0, "failed": 0, "eligible": 0, "solved": 0, "alpha_errors": []}
    if code != 0:
        return [f"sweep exited {code}"], stats
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    values = [v for _, v in op["vary"]]
    expected_cells = math.prod(len(v) for v in values)
    problems = []
    if len(rows) != expected_cells:
        problems.append(f"{len(rows)} rows for {expected_cells} cells")
    template = op["template"]
    for row in rows:
        stats["cells"] += 1
        n, k = int(row["n"]), int(row["k"])
        gamma = float(row["gamma"])
        kind = template["coefficient"]["kind"]
        tail = 0.0 if kind == "constant" else float(row["l"])
        label = f"cell n={n} k={k} gamma={gamma} l={tail}"
        if (n, k, row["kind"]) != (template["n"], template["k"], kind):
            problems.append(f"{label}: row does not match its spec")
        verdict = expected_verdict(n, k, tail)
        if row["verdict"] != verdict:
            problems.append(f"{label}: verdict {row['verdict']!r}, expected {verdict}")
        if row["osc_status"] != "satisfied":
            problems.append(f"{label}: radial coefficient has osc {row['osc_status']!r}")
        eligible = verdict == "Large" and tail <= k - 1
        error = row["error"]
        if not eligible:
            if error or row["alpha_expected"]:
                problems.append(f"{label}: unexpected rate fit or error {error!r}")
            continue
        stats["eligible"] += 1
        alpha = (2.0 * k - tail) / (k - gamma)
        if not row["alpha_expected"] or not _close(float(row["alpha_expected"]), alpha, 1e-9):
            problems.append(f"{label}: alpha_expected {row['alpha_expected']!r}, "
                            f"expected {alpha!r}")
        if error:
            if not error.startswith(FAILED_CELL_ERRORS):
                problems.append(f"{label}: error {error!r}")
            stats["failed"] += 1
            continue
        if not row["alpha_fitted"]:
            problems.append(f"{label}: no fitted rate")
            continue
        err = abs(float(row["alpha_fitted"]) - alpha)
        stats["alpha_errors"].append(err)
        if err <= ALPHA_TOL:
            stats["solved"] += 1
        else:
            stats["failed"] += 1
    return problems, stats


# -- classify / sandwich ------------------------------------------------------------

def check_classify(spec, code, payload):
    if code != 0:
        return [f"classify exited {code}"]
    if payload is None:
        return ["classify wrote no JSON"]
    n, k, gamma = spec["n"], spec["k"], spec["gamma"]
    coef = spec["coefficient"]
    problems = []
    if coef["kind"] == "builtin_field":
        l, m = field_tails(coef)
        osc = expected_osc(n, k, gamma, l, m)
        if not _close(payload["thresholds"]["m_star"], m_star(k, gamma, l), 1e-9):
            problems.append(f"m_star {payload['thresholds']['m_star']!r}")
    else:
        l = 0.0 if coef["kind"] == "constant" else float(coef["l"])
        osc = "satisfied"
    verdict = expected_verdict(n, k, l)
    got = payload["existence_verdict"]["verdict"]
    if got != verdict:
        problems.append(f"verdict {got!r}, expected {verdict}")
    got = payload["osc_condition"]["status"]
    if got != osc:
        problems.append(f"oscillation status {got!r}, expected {osc}")
    return problems


def check_sandwich(op, code, report, stderr, curves):
    """``curves`` is (v_u, w_u) read from v.csv and w.csv, or None."""
    mode = op["mode"]
    if mode == "refused":
        problems = [] if code == 3 else [f"refused sandwich exited {code}, expected 3"]
        if "precondition" not in stderr:
            problems.append("refusal does not name the precondition")
        return problems
    if code != 0:
        return [f"{mode} sandwich exited {code}"]
    if report is None or curves is None:
        return [f"{mode} sandwich wrote no report or curves"]
    problems = []
    if not report["min_margin"] >= 0.0:
        problems.append(f"min_margin {report['min_margin']!r} < 0")
    v_u, w_u = curves
    if v_u.shape != w_u.shape or np.any(w_u < v_u):
        problems.append("w < v somewhere in the saved curves")
    if mode == "auto":
        if not report["envelope_excess"] <= ENVELOPE_EXCESS_TOL:
            problems.append(f"envelope_excess {report['envelope_excess']!r}")
        if report["oscillation"]["status"] != "satisfied":
            problems.append(f"oscillation {report['oscillation']['status']!r}")
    else:
        if report["beta"] != op["beta"]:
            problems.append(f"beta {report['beta']!r}, expected {op['beta']!r}")
    return problems


# -- curves ---------------------------------------------------------------------------

def curve_error(r, u, ref_r, ref_u):
    """Largest relative error of u against the reference (inf if the radii
    differ)."""
    r, u = np.asarray(r), np.asarray(u)
    ref_r, ref_u = np.asarray(ref_r), np.asarray(ref_u)
    if r.shape != ref_r.shape or not np.allclose(r, ref_r, rtol=1e-15, atol=0.0):
        return math.inf
    return float(np.max(np.abs(u / ref_u - 1.0)))


def check_solve(code, summary, rel_err):
    if code != 0:
        return [f"solve exited {code}"]
    if summary is None:
        return ["solve wrote no summary"]
    problems = []
    if summary.get("gamma_k_ok") is not True:
        problems.append("curve left the Gamma_k cone")
    if not math.isfinite(summary.get("conservation_defect", math.nan)):
        problems.append(f"conservation defect {summary.get('conservation_defect')!r}")
    if not rel_err <= CURVE_REL_TOL:
        problems.append(f"u differs from the reference by {rel_err:.3g}")
    return problems


def breakline_tolerance(epsilon, r_end):
    """Distance allowed between an epsilon break line and the solution.

    The line's slope is within epsilon of the slope functional, so it
    drifts from the solution by at most about epsilon * r_end; a factor 2
    covers the feedback of the drift through u^gamma on r <= 0.6.
    """
    return 2.0 * epsilon * r_end


def check_breakline(op, line, reference_values):
    """``line`` is the BreakLine; ``reference_values`` is u on line.radii."""
    a, eps, r_end = op["a"], op["epsilon"], op["r_end"]
    radii, values = np.asarray(line.radii), np.asarray(line.values)
    problems = []
    if radii[0] != 0.0 or not _close(radii[-1], r_end) or np.any(np.diff(radii) <= 0):
        problems.append("break line radii do not partition [0, r_end]")
    if values[0] != a or np.any(values >= 2.0 * a) or np.any(np.diff(values) < 0):
        problems.append("break line leaves [a, 2a) or decreases")
    gap = float(np.max(np.abs(values - reference_values)))
    if not gap <= breakline_tolerance(eps, r_end):
        problems.append(f"break line is {gap:.3g} from the solution (eps {eps:g})")
    return problems


def check_verify(code, results):
    if code != 0:
        return [f"verify exited {code}"]
    if not results:
        return ["verify wrote no report"]
    failed = [r["name"] for r in results if not r.get("passed")]
    return [f"invariants failed: {failed}"] if failed else []
