"""Command-line interface.

Subcommands: solve, classify, sandwich, sweep, verify.  Problem
specifications are JSON files of the form

    {
      "n": 3, "k": 1, "gamma": 0.5, "a": 1.0,
      "coefficient": {"kind": "power_tail", "l": 1.0},
      "grid": {"r_lin": 10.0, "r_max": 1e4, "nodes_per_decade": 48},
      "tolerances": {"rel": 1e-8, "abs": 1e-12}
    }

Exit codes: 0 success, 1 invalid specification, 2 integration failure,
3 inconclusive verdict or unmet precondition, 4 sandwich ordering
failure, 5 invariant suite failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import verify as verify_mod
from .asymptotics import expected_rate, verify_rates
from .coefficients import (BUILTIN_FIELDS, MAX_SPHERE_COUNT, MAX_SPHERE_DIM, MIN_SPHERE_COUNT,
                           RadialProfile, check_coefficient, load_profile_csv, radialize,
                           triple_from_radial)
from .core import (LOG_FLOAT_MAX, MAX_GRID_NODES, ProblemParams, RadialGrid,
                   gamma_k_membership)
from .criteria import (INCONCLUSIVE, LARGE, classify_existence, existence_verdict,
                       jensen_conditions, oscillation_condition, oscillation_verdict)
from .envelope import EnvelopeTables
from .errors import (BlowupGuardError, CoefficientError, IntegrationError,
                     OrderingError, OscillationError, ParameterError)
from .sandwich import build_sandwich
from .solver import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, check_tolerances, conservation_defect,
                     conservation_refinement, residual_max, solve_cauchy, write_curve_csv)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTEGRATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_ORDERING = 4
EXIT_VERIFY = 5


# ---------------------------------------------------------------------------
# specification parsing
# ---------------------------------------------------------------------------

def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ParameterError(f"{path}.{key}: required field missing")
    return mapping[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParameterError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"{path}: expected a string, got {value!r}")
    return value


_REQUIRED = object()  # a parameter without a default

# Every section of a spec is a table name -> (coercion, default).  A None
# default marks an optional parameter: absent or null, it stays out of the
# canonical spec and the constructor's own default applies.
_TOP_LEVEL = {"n": (_as_int, _REQUIRED), "k": (_as_int, _REQUIRED),
              "gamma": (_as_number, _REQUIRED), "a": (_as_number, 1.0)}
_GRID = {"r_lin": (_as_number, 10.0), "r_max": (_as_number, 1e4),
         "nodes_per_decade": (_as_int, 48)}
_TOLERANCES = {"rel": (_as_number, DEFAULT_REL_TOL), "abs": (_as_number, DEFAULT_ABS_TOL)}
# The coefficient a spec names: a radial kind by "kind", a non-radial builtin
# field by "name"; each maps to its constructor and its parameter table.
_RADIAL_KINDS = {
    "constant": (RadialProfile.constant, {"value": (_as_number, 1.0)}),
    "power_tail": (RadialProfile.power_tail, {
        "l": (_as_number, _REQUIRED), "m": (_as_number, None), "A": (_as_number, 0.0),
        "r0": (_as_number, 1.0), "scale": (_as_number, 1.0)}),
    "tabulated": (load_profile_csv, {
        "path": (_as_str, _REQUIRED), "tail_exponent": (_as_number, None)}),
}
_BUILTIN_FIELDS = {
    "counterexample": (BUILTIN_FIELDS["counterexample"], {}),
    "anisotropic_power": (BUILTIN_FIELDS["anisotropic_power"], {
        "l": (_as_number, _REQUIRED), "m": (_as_number, _REQUIRED),
        "amp": (_as_number, 1.0), "dim": (_as_int, 3)}),
}
# The names --vary takes: every numeric key of every table, mapped to its
# section (None for the top level).
_VARY_SECTIONS = {key: section for section, tables in (
    (None, [_TOP_LEVEL]), ("grid", [_GRID]), ("tolerances", [_TOLERANCES]),
    ("coefficient", [t for _, t in (*_RADIAL_KINDS.values(), *_BUILTIN_FIELDS.values())]))
    for table in tables for key, (coerce, _) in table.items() if coerce is not _as_str}
# Size budget.  RadialGrid.build holds a spec's grid to MAX_GRID_NODES and
# radialize the sphere count to MAX_SPHERE_COUNT; the spec reader holds the
# conservation check's refinement of the grid (solver.conservation_refinement)
# to twice MAX_GRID_NODES, naming spec.n.  The J tables (envelope.fine_nodes)
# do not refine the spec grid: they refine the default grid for r_max 4x (at
# most 59,185 nodes, at r_max near the float maximum) and merge in the radii
# asked for, the spec grid's nodes where sandwich asks.  That is at most
# about 110,000 nodes, 10 MB per (cells, 12) array of Gauss points.  The
# goldens and benchmarks ask for at most about 250 nodes and 256 points.


def _read_section(raw, table: dict, path: str, owner: str, fixed=()) -> dict:
    """``raw`` read through ``table``: unknown keys rejected, defaults filled
    in, values coerced; the ``fixed`` keys are allowed and left to the caller."""
    if not isinstance(raw, dict):
        raise ParameterError(f"{path}: expected an object")
    extra = sorted(set(raw) - set(fixed) - set(table))
    if extra:
        raise ParameterError(f"{path}.{extra[0]}: not a parameter of {owner}")
    out = {}
    for key, (coerce, default) in table.items():
        value = _need(raw, key, path) if default is _REQUIRED else raw.get(key, default)
        if value is not None or default is not None:
            out[key] = coerce(value, f"{path}.{key}")
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem specification (canonical form); ``built`` (the
    coefficient's RadialProfile or field) and ``built_grid`` are built once by from_dict."""

    params: ProblemParams
    coefficient: dict
    grid_cfg: dict
    tolerances: dict
    built: object = dataclass_field(repr=False, compare=False)
    built_grid: RadialGrid = dataclass_field(repr=False, compare=False)
    base_dir: str = dataclass_field(default=".", compare=False)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str = ".") -> "ProblemSpec":
        top = _read_section(raw, _TOP_LEVEL, "spec", "the spec",
                            fixed=("coefficient", "grid", "tolerances"))
        coefficient = cls._canonical_coefficient(_need(raw, "coefficient", "spec"))
        grid_cfg = _read_section(raw.get("grid", {}), _GRID, "spec.grid", "the grid")
        tolerances = _read_section(raw.get("tolerances", {}), _TOLERANCES,
                                   "spec.tolerances", "the tolerances")
        try:
            params = ProblemParams(**top)
        except ParameterError as exc:
            raise ParameterError(f"spec: {exc}") from None
        try:
            a_gamma = params.a ** params.gamma
        except OverflowError:
            a_gamma = math.inf
        if not 0.0 < a_gamma < math.inf:
            raise ParameterError(
                f"spec.a: a^gamma {'underflows to 0' if a_gamma == 0.0 else 'overflows'} for "
                f"a = {params.a:g}, gamma = {params.gamma:g}; the series start at r = 0 "
                f"needs it in the float range")
        try:
            grid = RadialGrid.build(**grid_cfg)
        except ParameterError as exc:
            raise ParameterError(f"spec.grid: {exc}") from None
        fine = (len(grid) - 1) * conservation_refinement(params.n) + 1
        if fine > 2 * MAX_GRID_NODES:
            raise ParameterError(f"spec.n: the conservation check refines the grid to {fine} "
                                 f"nodes at n = {params.n}; at most {2 * MAX_GRID_NODES}")
        if (params.n - 1) * math.log(max(grid_cfg["r_max"], 1.0)) > LOG_FLOAT_MAX:
            raise ParameterError(f"spec.n: s^(n-1) overflows the float range on [0, r_max] "
                                 f"for n = {params.n}, r_max = {grid_cfg['r_max']:g}")
        check_tolerances(tolerances["rel"], tolerances["abs"],
                         ("spec.tolerances.rel", "spec.tolerances.abs"))
        # The coefficient is built here and nowhere else, so its own checks
        # run on every subcommand and every sweep cell.
        kwargs = dict(coefficient)
        kind = kwargs.pop("kind")
        if "path" in kwargs:  # relative to the spec file (join keeps absolute paths)
            kwargs["path"] = os.path.join(base_dir, kwargs["path"])
        try:  # a radial kind's constructor, else the named field's
            built = (_RADIAL_KINDS.get(kind) or _BUILTIN_FIELDS[kwargs.pop("name")])[0](**kwargs)
        except CoefficientError as exc:
            raise CoefficientError(f"spec.coefficient: {exc}") from None
        if kind == "tabulated" and built.radii[0] > 0.0:  # every subcommand needs b(0)
            raise CoefficientError(f"spec.coefficient.path: profile CSV {kwargs['path']} "
                                   f"starts at r = {built.radii[0]:g}; b is needed from r = 0")
        if (kind == "tabulated" and built.tail_exponent is None
                and built.radii[-1] < grid_cfg["r_max"]):  # and up to r_max
            raise CoefficientError(f"spec.coefficient.tail_exponent: none declared, and profile "
                                   f"CSV {kwargs['path']} ends at r = {built.radii[-1]:g} "
                                   f"< spec.grid.r_max = {grid_cfg['r_max']:g}")
        if kind == "builtin_field" and built.dim != params.n:
            raise ParameterError(f"spec.coefficient: field dimension {built.dim} "
                                 f"does not match n = {params.n}")
        if kind == "builtin_field" and built.dim > MAX_SPHERE_DIM:
            raise CoefficientError(f"spec.coefficient.dim: sphere sampling supports "
                                   f"dim <= {MAX_SPHERE_DIM}, got {built.dim}")
        return cls(params=params, coefficient=coefficient, grid_cfg=grid_cfg,
                   tolerances=tolerances, built=built, built_grid=grid, base_dir=base_dir)

    @staticmethod
    def _canonical_coefficient(raw) -> dict:
        path = "spec.coefficient"
        if not isinstance(raw, dict):
            raise ParameterError(f"{path}: expected an object")
        kind = _as_str(_need(raw, "kind", path), f"{path}.kind")
        if kind == "builtin_field":
            name = _as_str(_need(raw, "name", path), f"{path}.name")
            if name not in _BUILTIN_FIELDS:
                raise ParameterError(f"{path}.name: unknown builtin field {name!r}")
            head, table, owner = ({"kind": kind, "name": name}, _BUILTIN_FIELDS[name][1],
                                  f"builtin field {name!r}")
        elif kind in _RADIAL_KINDS:
            head, table, owner = {"kind": kind}, _RADIAL_KINDS[kind][1], f"kind {kind!r}"
        else:
            raise ParameterError(f"{path}.kind: unknown kind {kind!r} (expected one "
                                 f"of {(*_RADIAL_KINDS, 'builtin_field')})")
        return {**head, **_read_section(raw, table, path, owner, fixed=head)}

    def to_dict(self) -> dict:
        return {
            "n": self.params.n,
            "k": self.params.k,
            "gamma": self.params.gamma,
            "a": self.params.a,
            "coefficient": dict(self.coefficient),
            "grid": dict(self.grid_cfg),
            "tolerances": dict(self.tolerances),
        }

    def grid(self) -> RadialGrid:
        return self.built_grid

    def is_radial(self) -> bool:
        return self.coefficient["kind"] in _RADIAL_KINDS

    def radial_profile(self) -> RadialProfile:
        if not self.is_radial():
            raise ParameterError(f"spec.coefficient: kind {self.coefficient['kind']!r} is "
                                 f"not a radial profile; use classify/sandwich for fields")
        return self.built

    def make_field(self):
        if self.is_radial():
            raise ParameterError("spec.coefficient: not a non-radial field")
        return self.built

    def triple(self, sphere_count: int = 256):
        if self.is_radial():
            return triple_from_radial(self.radial_profile())
        return radialize(self.make_field(), self.grid(), sphere_count=sphere_count)


def _sphere_count(args) -> int:
    if args.sphere_count < MIN_SPHERE_COUNT:
        raise ParameterError(f"--sphere-count: at least {MIN_SPHERE_COUNT}, "
                             f"got {args.sphere_count}")
    if args.sphere_count > MAX_SPHERE_COUNT:
        raise ParameterError(f"--sphere-count: at most {MAX_SPHERE_COUNT}, "
                             f"got {args.sphere_count}")
    return args.sphere_count


def load_spec(path) -> ProblemSpec:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ParameterError(f"spec file not found: {path}") from None
    except ValueError as exc:  # also an undecodable file or an over-long integer
        raise ParameterError(f"spec file {path} is not valid JSON: {exc}") from None
    return ProblemSpec.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _out_path(args_out, spec_path, suffix):
    if args_out:
        return args_out
    stem, _ = os.path.splitext(spec_path)
    return stem + suffix


def cmd_solve(args) -> int:
    spec = load_spec(args.spec)
    profile = spec.radial_profile()
    grid = spec.grid()
    curve = solve_cauchy(spec.params, profile, grid,
                         rel_tol=spec.tolerances["rel"],
                         abs_tol=spec.tolerances["abs"])
    curve_path = _out_path(args.curve, args.spec, "_curve.csv")
    write_curve_csv(curve, curve_path, spec.params, profile)
    summary = {
        "r_max": grid.r_max,
        "u_at_rmax": float(curve.u[-1]),
        "gamma_k_ok": bool(np.all(gamma_k_membership(curve, spec.params))),
        "residual_max": residual_max(curve, spec.params, profile),
        "conservation_defect": conservation_defect(curve, spec.params, profile),
        "curve_csv": curve_path,
    }
    if args.plot_data:
        plot_path = _out_path(None, args.spec, "_plotdata.csv")
        with open(plot_path, "w", newline="") as handle:
            handle.write("r,series,value\n")
            for name, vals in (("u", curve.u), ("du", curve.du), ("d2u", curve.d2u)):
                for r, v in zip(grid.nodes, vals):
                    handle.write(f"{r:.17g},{name},{v:.17g}\n")
        summary["plot_data_csv"] = plot_path
    summary_path = _out_path(args.summary, args.spec, "_summary.json")
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_classify(args) -> int:
    sphere_count = _sphere_count(args)
    spec = load_spec(args.spec)
    triple = spec.triple(sphere_count=sphere_count)
    tables = EnvelopeTables(spec.params, triple, spec.grid_cfg["r_max"])
    verdict = classify_existence(tables)
    osc = oscillation_condition(tables)
    jensen = jensen_conditions(tables)
    thresholds = {
        "l": verdict.tail_exponent,
        "m": osc.tail_osc,
        "m_star": osc.m_star,
        "existence_threshold": verdict.threshold,
    }
    payload = {
        "existence_verdict": verdict.to_dict(),
        "osc_condition": osc.to_dict(),
        "thresholds": thresholds,
        "moment_conditions": jensen.to_dict(),
    }
    text = json.dumps(payload, indent=2)
    if args.out:  # written first: a path that cannot be opened prints no verdict
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    if args.strict and (verdict.verdict == INCONCLUSIVE or osc.status == "inconclusive"):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_sandwich(args) -> int:
    sphere_count = _sphere_count(args)
    spec = load_spec(args.spec)
    triple = spec.triple(sphere_count=sphere_count)
    report = build_sandwich(triple, spec.params, spec.grid(), beta=args.beta,
                            margin=args.margin,
                            rel_tol=spec.tolerances["rel"],
                            abs_tol=spec.tolerances["abs"])
    out_dir = args.out or _out_path(None, args.spec, "_sandwich")
    payload = report.save(out_dir, triple)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    # the summary path is opened first: one that cannot be written is refused
    # before the suite runs
    out = open(args.json, "w") if args.json else contextlib.nullcontext()
    with out as handle:
        results = verify_mod.run_all()
        failed = [r for r in results if not r.passed]
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} invariants passed")
        if handle is not None:
            json.dump([r.to_dict() for r in results], handle, indent=2)
    return EXIT_OK if not failed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = ("n", "k", "gamma", "a", "kind", "l", "m", "verdict",
                  "osc_status", "m_star", "alpha_expected", "alpha_fitted",
                  "fit_stderr", "amplitude_ratio", "error")


def _apply_override(raw: dict, name: str, value) -> dict:
    """The spec ``raw`` with ``name`` set to ``value``; validation is left
    to ProblemSpec.from_dict, as for a spec file."""
    if name not in _VARY_SECTIONS:
        raise ParameterError(f"--vary {name}: unknown parameter (allowed: "
                             f"{tuple(_VARY_SECTIONS)})")
    out = json.loads(json.dumps(raw))
    section = _VARY_SECTIONS[name]
    (out.setdefault(section, {}) if section else out)[name] = value
    return out


def _sweep_cell(payload):
    raw, base_dir, fit_rates = payload
    row = {col: "" for col in _SWEEP_COLUMNS}
    try:
        # Raw values first, so a cell that fails validation still names itself.
        row.update({col: raw.get(col, "") for col in ("n", "k", "gamma", "a")})
        row.update({col: raw["coefficient"].get(col, "") for col in ("kind", "l", "m")})
        spec = ProblemSpec.from_dict(raw, base_dir=base_dir)
        row.update({"n": spec.params.n, "k": spec.params.k,
                    "gamma": spec.params.gamma, "a": spec.params.a,
                    "kind": spec.coefficient["kind"],
                    "l": spec.coefficient.get("l", ""),
                    "m": spec.coefficient.get("m", "")})
        triple = spec.triple(sphere_count=64)
        # Rows report verdicts only, so no finite part is computed; b_* is
        # still held to the admissibility rule wherever classify's would
        # meet it (not for a tail-less b_*, Inconclusive unevaluated).
        verdict, est = existence_verdict(triple.b_star, spec.params)
        grid = spec.grid()
        if est is not None:
            nodes = grid.nodes[1:]
            check_coefficient(triple.b_star(nodes), nodes, nonnegative=True)
        osc_status, m_star, _, _ = oscillation_verdict(triple, spec.params)
        row["verdict"] = verdict
        row["osc_status"] = osc_status
        row["m_star"] = "" if m_star is None else f"{m_star:.17g}"
        if (fit_rates and verdict == LARGE and spec.is_radial()
                and est.exponent <= spec.params.k - 1):  # a Large verdict has a tail
            tail = est.exponent
            alpha = expected_rate(spec.params, tail)
            row["alpha_expected"] = f"{alpha:.17g}"
            curve = solve_cauchy(spec.params, triple.b_star, grid,
                                 rel_tol=spec.tolerances["rel"],
                                 abs_tol=spec.tolerances["abs"])
            rates = verify_rates(curve, spec.params, tail)
            if "u" in rates.fits:
                row["alpha_fitted"] = f"{rates.fits['u'].exponent:.17g}"
                row["fit_stderr"] = f"{rates.fits['u'].stderr:.17g}"
            row["amplitude_ratio"] = f"{rates.amplitude_ratio:.17g}"
    except Exception as exc:  # noqa: BLE001 - per-cell failures stay in-row
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _spec_literal(text: str):
    """A --vary value read as a spec file would hold it: an integer literal
    is an int, anything else a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_vary(items):
    out = []
    for item in items or []:
        if "=" not in item:
            raise ParameterError(f"--vary {item!r}: expected name=v1,v2,...")
        name, _, values = item.partition("=")
        name = name.strip()
        try:
            vals = [_spec_literal(v) for v in values.split(",") if v.strip() != ""]
        except ValueError:
            raise ParameterError(f"--vary {item!r}: values must be numbers") from None
        if not vals:
            raise ParameterError(f"--vary {item!r}: no values given")
        if name in dict(out):
            raise ParameterError(f"--vary {name}: given twice")
        out.append((name, vals))
    return out


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ParameterError(f"--jobs: at least 1, got {args.jobs}")
    template = load_spec(args.spec)
    raw, base_dir = template.to_dict(), template.base_dir
    vary = _parse_vary(args.vary)
    combos = list(itertools.product(*[vals for _, vals in vary])) if vary else [()]
    payloads = []
    for combo in combos:
        cell = raw
        for (name, _), value in zip(vary, combo):
            cell = _apply_override(cell, name, value)
        payloads.append((cell, base_dir, not args.no_rates))
    # the pool forks all its workers at once: no more than cells or cores
    workers = min(args.jobs, len(payloads), os.cpu_count() or 1)
    # the arguments are checked; an output that cannot be written is refused
    # before any cell is solved
    out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with out as handle:
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_cell, payloads))
        else:
            rows = [_sweep_cell(p) for p in payloads]
        writer = csv.DictWriter(handle, _SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessianls",
        description="Radial k-Hessian Cauchy solver and growth classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate the radial Cauchy problem")
    p_solve.add_argument("spec")
    p_solve.add_argument("--curve", default=None, help="output CSV path")
    p_solve.add_argument("--summary", default=None, help="output JSON path")
    p_solve.add_argument("--plot-data", action="store_true",
                         help="also write a long-format CSV for plotting")
    p_solve.set_defaults(func=cmd_solve)

    p_classify = sub.add_parser("classify", help="Large/Bounded classification")
    p_classify.add_argument("spec")
    p_classify.add_argument("--out", default=None, help="also write JSON here")
    p_classify.add_argument("--strict", action="store_true",
                            help="exit 3 on any inconclusive verdict")
    p_classify.add_argument("--sphere-count", type=int, default=256)
    p_classify.set_defaults(func=cmd_classify)

    p_sand = sub.add_parser("sandwich", help="build the sub/supersolution pair")
    p_sand.add_argument("spec")
    p_sand.add_argument("--out", default=None, help="output directory")
    p_sand.add_argument("--beta", type=float, default=None,
                        help="explicit supersolution center (skips the "
                             "oscillation precondition)")
    p_sand.add_argument("--margin", type=float, default=None)
    p_sand.add_argument("--sphere-count", type=int, default=256)
    p_sand.set_defaults(func=cmd_sandwich)

    p_sweep = sub.add_parser("sweep", help="classification table over parameter "
                                           "ranges")
    p_sweep.add_argument("spec", help="template spec JSON")
    p_sweep.add_argument("--vary", action="append", default=[],
                         metavar="NAME=V1,V2,...",
                         help="parameter range; repeatable")
    p_sweep.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers")
    p_sweep.add_argument("--no-rates", action="store_true",
                         help="skip the solve-based rate fits")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--json", default=None, help="write machine summary here")
    p_verify.set_defaults(func=cmd_verify)
    return parser


# Built once per process: parse_args leaves the parser as it found it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, CoefficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (BlowupGuardError, IntegrationError) as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except OscillationError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except OrderingError as exc:
        print(f"ordering failure: {exc}", file=sys.stderr)
        return EXIT_ORDERING
    except OSError as exc:  # a spec or output path that cannot be opened as asked
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
