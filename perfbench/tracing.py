"""Span and counter recording around the package's public functions.

The wrappers are installed from outside: ``Tracer.install()`` replaces each
listed function in every ``hessianls`` module namespace that binds it (the
package imports names with ``from .x import f``, so patching one module is
not enough) and ``Tracer.uninstall()`` puts the originals back.

Every wrapped call records a span (id, parent span, operation id, name,
start, end) and bumps counters.  Profile and field evaluations are called
thousands of times per solve, so their spans are aggregated: one record per
(parent span, name) holding the call count, the first start, the last end
and the summed duration.  Self time stays exact, because a parent only ever
subtracts the summed duration of its children.  Spans stay in memory until
``write`` saves them at the end of a run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("import", "cli", "core", "coefficients", "solver", "_integrate",
           "criteria", "sandwich", "asymptotics", "verify")
KINDS = ("constant", "power_tail", "tabulated", "callable")


def _points(value) -> int:
    return int(np.size(value))


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.records = []          # [sid, parent, op, name, start, end, dur, calls]
        self._leaf = {}            # (parent, name) -> record index
        self.counts = defaultdict(float)
        self.stack = [0]
        self.op = ""
        self.next_id = 1
        self.solve_depth = 0
        self.polyline_depth = 0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def begin(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, name: str, token):
        sid, parent, start = token
        stop = time.perf_counter()
        self.stack.pop()
        self.records.append([sid, parent, self.op, name, start, stop, stop - start, 1])
        return stop - start

    def leaf(self, name: str, start: float, stop: float):
        key = (self.stack[-1], name, self.op)
        index = self._leaf.get(key)
        if index is None:
            self._leaf[key] = len(self.records)
            self.records.append([self.next_id, self.stack[-1], self.op, name,
                                 start, stop, stop - start, 1])
            self.next_id += 1
        else:
            rec = self.records[index]
            rec[5] = stop
            rec[6] += stop - start
            rec[7] += 1

    # -- wrappers -----------------------------------------------------------

    def span_wrapper(self, name, fn, after=None, failed=None):
        tracer = self

        def wrapper(*args, **kwargs):
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(name, token)
                tracer.counts[name + ".calls"] += 1
                if failed is not None:
                    failed(tracer)
                raise
            tracer.end(name, token)
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def profile_wrapper(self, fn):
        tracer = self

        def wrapper(profile, r):
            start = time.perf_counter()
            result = fn(profile, r)
            stop = time.perf_counter()
            kind = profile.kind
            name = "coefficients.eval." + kind
            tracer.leaf(name, start, stop)
            tracer.counts["coefficients.eval_calls." + kind] += 1
            tracer.counts["coefficients.eval_points." + kind] += _points(r)
            if tracer.solve_depth and np.isscalar(r):
                tracer.counts["solver.rhs_evals"] += 1
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def field_wrapper(self, fn):
        tracer = self

        def wrapper(field, points):
            start = time.perf_counter()
            result = fn(field, points)
            tracer.leaf("coefficients.field_eval", start, time.perf_counter())
            tracer.counts["coefficients.field_points"] += _points(points) // field.dim
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hessianls"
                                      or mod_name.startswith("hessianls.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def _replace_method(self, cls, attrs, replacement):
        for attr in attrs:
            self._patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, replacement)

    def install(self):
        from hessianls import (_integrate, asymptotics, cli, coefficients, core,
                               criteria, sandwich, solver, verify)

        def depth(attr, fn):
            """Count how deep the calls to ``fn`` are nested."""
            tracer = self

            def wrapped(*args, **kwargs):
                setattr(tracer, attr, getattr(tracer, attr) + 1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    setattr(tracer, attr, getattr(tracer, attr) - 1)
            return wrapped

        def panel_nodes(tracer, args, kwargs, result):
            tracer.counts["_integrate.panel_nodes"] += _points(args[1])

        def csv_bytes(tracer, args, kwargs, result):
            tracer.counts["solver.csv_bytes"] += os.path.getsize(args[1])

        def segments(tracer, args, kwargs, result):
            tracer.counts["solver.breakline_segments"] += result.radii.size - 1

        def defect_round(tracer, args, kwargs, result):
            if tracer.polyline_depth:
                tracer.counts["solver.breakline_rounds"] += 1

        def invariants(tracer, args, kwargs, result):
            tracer.counts["verify.invariants_passed"] += sum(r.passed for r in result)

        def solve_failed(tracer):
            tracer.counts["solver.failed_solves"] += 1

        targets = [
            (cli, "main"), (cli, "load_spec"), (core, "gamma_k_membership"),
            (coefficients, "radialize"), (coefficients, "sphere_points"),
            (coefficients, "load_profile_csv"),
            (solver, "conservation_defect"), (solver, "residual_max"),
            (solver, "write_curve_csv"), (solver, "breakline_defect"),
            (solver, "linear_growth_tables"), (solver, "solve_linear_rhs"),
            (_integrate, "panel_cumulative"), (_integrate, "cumulative_values"),
            (_integrate, "fit_log_slope"),
            (criteria, "classify_existence"), (criteria, "oscillation_condition"),
            (criteria, "jensen_conditions"), (criteria, "growth_primitive"),
            (criteria, "tail_exponent_of"), (criteria, "keller_osserman_integrand"),
            (criteria, "bounded_solution_bound"),
            (sandwich, "build_sandwich"), (sandwich, "supersolution_envelope"),
            (sandwich, "bounded_dominance_bound"),
            (asymptotics, "verify_rates"), (asymptotics, "fit_exponent"),
            (asymptotics, "exact_power_solution"),
            (verify, "run_all"),
        ]
        hooks = {"solver.write_curve_csv": csv_bytes,
                 "solver.breakline_defect": defect_round,
                 "_integrate.panel_cumulative": panel_nodes,
                 "verify.run_all": invariants}
        for module, attr in targets:
            original = getattr(module, attr)
            name = module.__name__.split(".", 1)[1] + "." + attr
            self._replace_everywhere(original, self.span_wrapper(
                name, original, hooks.get(name)))

        solve = solver.solve_cauchy
        self._replace_everywhere(solve, depth("solve_depth", self.span_wrapper(
            "solver.solve_cauchy", solve, None, solve_failed)))
        polyline = solver.euler_polyline
        self._replace_everywhere(polyline, self.span_wrapper(
            "solver.euler_polyline", depth("polyline_depth", polyline), segments))

        profile_eval = self.profile_wrapper(coefficients.RadialProfile.__dict__["eval"])
        self._replace_method(coefficients.RadialProfile, ("eval", "__call__"), profile_eval)
        for cls in (coefficients.AnisotropicPowerField, coefficients.QuadraticRootField):
            self._replace_method(cls, ("eval", "__call__"),
                                 self.field_wrapper(cls.__dict__["eval"]))
        grid = core.RadialGrid
        self._replace_method(grid, ("refined",), self.span_wrapper(
            "core.refine", grid.__dict__["refined"]))
        report = sandwich.SandwichReport
        self._replace_method(report, ("save",), self.span_wrapper(
            "sandwich.save", report.__dict__["save"]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- operations -------------------------------------------------------------

    def start_op(self, op_id: str):
        self.op = op_id
        return self.begin()

    def end_op(self, kind: str, token):
        self.end("bench.op." + kind, token)
        self.op = ""

    # -- export -----------------------------------------------------------------

    def export(self):
        return {"records": self.records, "counts": dict(self.counts)}

    def merge(self, exported: dict, op_id: str, offset_parent: int):
        """Fold spans recorded in a child process under span ``offset_parent``."""
        base = self.next_id
        top = 0
        for sid, parent, _op, name, start, stop, dur, calls in exported["records"]:
            top = max(top, sid)
            self.records.append([base + sid, base + parent if parent else offset_parent,
                                 op_id, name, start, stop, dur, calls])
        self.next_id = base + top + 1
        for key, value in exported["counts"].items():
            self.counts[key] += value

    def write(self, path: str):
        with open(path, "w") as handle:
            handle.write("span,parent,op,name,start,end,duration,calls\n")
            for sid, parent, op, name, start, stop, dur, calls in self.records:
                handle.write(f"{sid},{parent},{op},{name},{start:.9f},{stop:.9f},"
                             f"{dur:.9f},{calls}\n")


def self_times(records):
    """name -> summed self time (duration minus the children's durations)."""
    child = defaultdict(float)
    for rec in records:
        child[rec[1]] += rec[6]
    out = defaultdict(float)
    for rec in records:
        out[rec[3]] += rec[6] - child.get(rec[0], 0.0)
    return out


def layer_metrics(tracer: Tracer, phase_s: float, import_s: float = 0.0):
    """The per-layer metrics of BENCHMARK.json from one traced phase."""
    counts = tracer.counts
    total = defaultdict(float)
    for rec in tracer.records:
        total[rec[3]] += rec[6]
    selfs = self_times(tracer.records)

    def c(key):
        return float(counts.get(key, 0.0))

    def t(name):
        return float(total.get(name, 0.0))

    m = {
        "import.s": (import_s, "s"),
        "cli.load_spec_s": (t("cli.load_spec"), "s"),
        "cli.main_s": (t("cli.main"), "s"),
    }
    for kind in KINDS:
        m[f"coefficients.eval_calls.{kind}"] = (c(f"coefficients.eval_calls.{kind}"), "count")
        m[f"coefficients.eval_points.{kind}"] = (c(f"coefficients.eval_points.{kind}"), "count")
        m[f"coefficients.eval_s.{kind}"] = (t(f"coefficients.eval.{kind}"), "s")
    solves = c("solver.solve_cauchy.calls")
    m.update({
        "coefficients.radialize_s": (t("coefficients.radialize"), "s"),
        "coefficients.sphere_points_s": (t("coefficients.sphere_points"), "s"),
        "coefficients.field_points": (c("coefficients.field_points"), "count"),
        "coefficients.load_csv_s": (t("coefficients.load_profile_csv"), "s"),
        "solver.solve_calls": (solves, "count"),
        "solver.solve_s": (t("solver.solve_cauchy"), "s"),
        "solver.failed_solves": (c("solver.failed_solves"), "count"),
        "solver.rhs_evals": (c("solver.rhs_evals"), "count"),
        "solver.rhs_evals_per_solve": (c("solver.rhs_evals") / solves if solves else 0.0,
                                       "count"),
        "solver.conservation_s": (t("solver.conservation_defect"), "s"),
        "solver.residual_s": (t("solver.residual_max"), "s"),
        "solver.csv_write_s": (t("solver.write_curve_csv"), "s"),
        "solver.csv_bytes": (c("solver.csv_bytes"), "bytes"),
        "solver.breakline_s": (t("solver.euler_polyline"), "s"),
        "solver.breakline_segments": (c("solver.breakline_segments"), "count"),
        "solver.breakline_rounds": (c("solver.breakline_rounds"), "count"),
        "solver.breakline_defect_s": (t("solver.breakline_defect"), "s"),
        "integrate.panel_calls": (c("_integrate.panel_cumulative.calls"), "count"),
        "integrate.panel_nodes": (c("_integrate.panel_nodes"), "count"),
        "integrate.panel_s": (t("_integrate.panel_cumulative"), "s"),
        "integrate.simpson_calls": (c("_integrate.cumulative_values.calls"), "count"),
        "integrate.simpson_s": (t("_integrate.cumulative_values"), "s"),
        "core.refine_calls": (c("core.refine.calls"), "count"),
        "core.refine_s": (t("core.refine"), "s"),
        "criteria.classify_s": (t("criteria.classify_existence"), "s"),
        "criteria.osc_s": (t("criteria.oscillation_condition"), "s"),
        "criteria.jensen_s": (t("criteria.jensen_conditions"), "s"),
        "criteria.growth_primitive_calls": (c("criteria.growth_primitive.calls"), "count"),
        "criteria.growth_primitive_s": (t("criteria.growth_primitive"), "s"),
        "criteria.tail_fit_s": (t("criteria.tail_exponent_of"), "s"),
        "sandwich.build_s": (t("sandwich.build_sandwich"), "s"),
        "sandwich.envelope_s": (t("sandwich.supersolution_envelope"), "s"),
        "sandwich.save_s": (t("sandwich.save"), "s"),
        "asymptotics.verify_rates_s": (t("asymptotics.verify_rates"), "s"),
        "asymptotics.fit_calls": (c("asymptotics.fit_exponent.calls"), "count"),
        "verify.run_all_s": (t("verify.run_all"), "s"),
        "verify.invariants_passed": (c("verify.invariants_passed"), "count"),
    })
    module_self = defaultdict(float)
    for name, value in selfs.items():
        module_self[name.split(".", 1)[0]] += value
    module_self["import"] += import_s
    for module in MODULES:
        value = module_self.get(module, 0.0)
        # metric names start with a letter: _integrate reports as integrate
        name = module.lstrip("_")
        m[f"{name}.self_s"] = (value, "s")
        m[f"{name}.share"] = (value / phase_s if phase_s > 0 else 0.0, "ratio")
    return m
