"""Record one point of the benchmark trajectory as BENCH_<src-tree>.json.

    python3 scripts/bench_record.py --root . --outdir .

For each workload, runs ``perfbench/run.py --trace 0`` in the checkout at
``--root``, for its ``BENCHMARK.json`` ``run_seconds`` and ``run.py``'s
default seed, and keeps the JSON object it prints last (the end-to-end
metrics, scaled to reference host speed) and, under ``raw_and_host``, the
``raw.*`` and ``host.*`` lines printed before it, so a point tells host drift
from a code change.  It adds the work the benchmark's tracer cannot see,
counted by this file on the checkout's own package: every row of the work
ledger ``tests/data/work_ledger.json`` (see :func:`counters`).  The file is
named after the git tree of the checkout's ``src``, which names the measured
code whichever commit carries it.  One run per workload is a single sample:
compare wall times only within one host and session, and only by more than
the spread of repeated runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version

WORKLOADS = ("radial-sweep", "field-comparison", "cli-cold")
REFERENCE = os.path.join("perfbench", "data", "reference.json")
SEED = 0  # perfbench/run.py's default
GOLDEN = os.path.join("perfbench", "golden.py")
# The benchmark's generator of the tabulated specs' tables.
TABLES = os.path.join("perfbench", "workloads.py")
# What each ledger row runs and its exact counts, beside this script's checkout.
LEDGER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "data", "work_ledger.json")
# Timed passes over the specs: us_per_step takes the least, us_per_step_median
# the median.
REPEATS = 15
ENVELOPE_COUNTS = ("gauss_points", "tabulated_b_points", "simpson_nodes", "refined_calls")
STEP_COUNTS = ("rhs_evals", "accepted", "rejected")
OP_COUNTS = (*ENVELOPE_COUNTS, "sphere_rows", "solves", *STEP_COUNTS)
BREAKLINE_COUNTS = ("gauss_points", "b_points", "defect_calls")
# Run in the measured checkout, this file's counters print every block of a point.
_COUNTERS_CHILD = ("import json, runpy, sys; "
                   "print(json.dumps(runpy.run_path(sys.argv[1])['counters']()))")


def counters() -> dict:
    """Every counted block of a point, run in this process on the package it
    imports: ``ledger``, each LEDGER row's :func:`row_counts` by name;
    ``stepper`` and ``stepper_tabulated``, STEP_COUNTS summed over the
    ``solve-<name>`` rows of the REFERENCE specs with a closed form and with a
    table, with :func:`stepper_counters` and :func:`start_counters` of those
    specs; ``envelope``, the golden classify row's ENVELOPE_COUNTS;
    ``breakline``, the break-line row."""
    with open(LEDGER) as handle:
        ledger = {row["name"]: row_counts(row) for row in json.load(handle)}
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    blocks = {}
    for block, tabulated in (("stepper", False), ("stepper_tabulated", True)):
        names = sorted(name for name, entry in reference.items()
                       if (entry["spec"]["coefficient"]["kind"] == "tabulated") == tabulated)
        totals = {key: sum(ledger[f"solve-{name}"][key] for name in names)
                  for key in STEP_COUNTS}
        specs = [reference[name]["spec"] for name in names]
        blocks[block] = {"specs": names, **totals, **start_counters(specs),
                         **stepper_counters(specs, totals["accepted"] + totals["rejected"])}
    return {**blocks,
            "envelope": {key: ledger["golden-classify"][key] for key in ENVELOPE_COUNTS},
            "breakline": ledger["break-line"], "ledger": ledger}


def row_counts(row: dict) -> dict:
    """The counts of one ledger row: the break line's, or :func:`op_counters`
    of its argv on its spec, {"golden": name} from ``perfbench/golden.py``'s
    SPECS or {"reference": name} from REFERENCE, each further key's value
    merged into the spec's entry of that key."""
    if row["run"] == "breakline":
        return breakline_counters()
    source, spec = dict(row.get("spec", {})), {}
    if "golden" in source:
        spec = runpy.run_path(GOLDEN)["SPECS"][source.pop("golden")]
    elif "reference" in source:
        with open(REFERENCE) as handle:
            spec = json.load(handle)[source.pop("reference")]["spec"]
    spec = {**spec, **{key: {**spec[key], **value} for key, value in source.items()}}
    return op_counters(row["run"], spec, row.get("exit", 0), row.get("warm", False))


def _write_spec(work: str, spec: dict) -> str:
    """Write ``spec`` to ``work``/spec.json, and the table its coefficient
    names beside it by TABLES; returns the spec's path."""
    coefficient = spec.get("coefficient", {})
    if coefficient.get("kind") == "tabulated":
        runpy.run_path(TABLES)["write_table"](coefficient["path"],
                                              os.path.join(work, coefficient["path"]))
    path = os.path.join(work, "spec.json")
    with open(path, "w") as handle:
        json.dump(spec, handle)
    return path


def _problems(specs: list) -> list:
    """The arguments of ``solve_cauchy`` for each of ``specs``, as ``hessianls solve`` passes them."""
    from hessianls.cli import load_spec

    with tempfile.TemporaryDirectory() as work:  # a spec reads its table when built
        specs = [load_spec(_write_spec(work, spec)) for spec in specs]
    return [(spec.params, spec.radial_profile(), spec.grid(), spec.tolerances["rel"],
             spec.tolerances["abs"]) for spec in specs]


def start_counters(specs: list) -> dict:
    """For each of ``specs`` in turn, solved as ``hessianls solve`` would: the
    series start's handoff radius (``r_handoff``) and the accepted steps that
    begin below the grid's first positive node (``start_steps``)."""
    import numpy as np

    from hessianls.solver import solve_cauchy

    radii, steps = [], []
    for problem in _problems(specs):
        dense = solve_cauchy(*problem).dense
        radii.append(dense.r_handoff)
        steps.append(int(np.count_nonzero(dense._starts < np.log(problem[2].nodes[1]))))
    return {"r_handoff": radii, "start_steps": steps}


def stepper_counters(specs: list, steps: int) -> dict:
    """us_per_step and us_per_step_median: the least and the median summed
    time of solving ``specs`` as ``hessianls solve`` would, over REPEATS
    runs, per attempted step in microseconds, ``steps`` (the ledger's) per
    run.  The times move with the host's load: they do not compare across
    recordings."""
    from hessianls.solver import solve_cauchy

    problems = _problems(specs)
    passes = []
    for _ in range(REPEATS):
        elapsed = 0.0
        for problem in problems:
            start = time.perf_counter()
            solve_cauchy(*problem)
            elapsed += time.perf_counter() - start
        passes.append(elapsed)
    return {"us_per_step": 1e6 * min(passes) / steps,
            "us_per_step_median": 1e6 * statistics.median(passes) / steps}


def op_counters(argv: list, spec: dict, exit_code: int = 0, warm: bool = False) -> dict:
    """OP_COUNTS of one ``hessianls`` op, ``argv`` with ``spec`` written by
    :func:`_write_spec` in place of ``{spec}`` and an output path in place of
    ``{out}``, run in this process on the package it imports, each counted
    where the package binds it: Gauss points laid by ``panel_points``, points
    at which a tabulated b is evaluated, Simpson nodes
    (``cumulative_values``), ``RadialGrid.refined`` calls, unit-sphere rows
    drawn by ``_sphere_table``, and the solves with their steps and RHS
    evaluations.  The op runs cold, with the unit-sphere blocks ``radialize``
    keeps cleared (``warm``: after one uncounted run), and must exit with
    ``exit_code`` (a refusal counts its work too)."""
    import numpy as np

    from hessianls import _integrate, cli, coefficients, envelope, solver
    from hessianls.coefficients import RadialProfile
    from hessianls.core import RadialGrid

    counts = dict.fromkeys(OP_COUNTS, 0)
    counted = _counter(counts)
    profile_eval = counted("tabulated_b_points", RadialProfile.__dict__["eval"],
                           lambda args, _: np.size(args[1]) if args[0].kind == "tabulated" else 0)
    dense = counted("solves", solver._DenseOutput)
    for key in STEP_COUNTS:
        dense = counted(key, dense, lambda args, result, key=key: getattr(result, key))
    patches = _gauss_point_patches(counted)
    patches += [(envelope, "cumulative_values", counted(
                    "simpson_nodes", _integrate.cumulative_values,
                    lambda args, result: result.size)),
                (RadialProfile, "eval", profile_eval), (RadialProfile, "__call__", profile_eval),
                (RadialGrid, "refined", counted("refined_calls", RadialGrid.__dict__["refined"])),
                (coefficients, "_sphere_table", counted(
                    "sphere_rows", coefficients._sphere_table, lambda args, result: len(result))),
                (solver, "_DenseOutput", dense)]
    coefficients._unit_block.cache_clear()
    with tempfile.TemporaryDirectory() as work:
        paths = {"spec": _write_spec(work, spec), "out": os.path.join(work, "out")}
        argv = [arg.format(**paths) for arg in argv]
        for patches in ([[], patches] if warm else [patches]):  # the last run counts
            with _patched(patches), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != exit_code:
                raise RuntimeError(f"hessianls {' '.join(argv)} exited {code}")
    return counts


def breakline_counters() -> dict:
    """The work of one break line, n = 4, k = 2, gamma = 1, b = 1 on [0, 0.5]
    at epsilon = 1e-3, built in this process on the package it imports:
    Gauss points laid by ``panel_points``, points at which b is evaluated
    and ``breakline_defect`` calls (one per doubling round)."""
    import numpy as np

    from hessianls import envelope
    from hessianls.coefficients import RadialProfile
    from hessianls.core import ProblemParams

    counts = dict.fromkeys(BREAKLINE_COUNTS, 0)
    counted = _counter(counts)
    b = counted("b_points", RadialProfile.constant(1.0),
                lambda args, result: int(np.size(args[0])))
    patches = _gauss_point_patches(counted)
    patches.append((envelope, "breakline_defect",
                    counted("defect_calls", envelope.breakline_defect)))
    with _patched(patches):
        envelope.euler_polyline(ProblemParams(n=4, k=2, gamma=1.0), b, 0.5, 1e-3)
    return counts


def _counter(counts: dict):
    """counted(key, function, amount): ``function`` wrapped to add
    amount(args, result), by default 1, to counts[key] on every call."""
    def counted(key, function, amount=lambda args, result: 1):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            counts[key] += amount(args, result)
            return result
        return wrapper
    return counted


def _gauss_point_patches(counted) -> list:
    """``panel_points`` counted into "gauss_points" wherever the package binds it."""
    from hessianls import _integrate, envelope

    return [(module, "panel_points", counted("gauss_points", _integrate.panel_points,
                                             lambda args, result: result[1].size))
            for module in (_integrate, envelope)]


@contextlib.contextmanager
def _patched(patches):
    """Set each (owner, name, replacement) for the block, then restore them."""
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _child(root: str, argv: list) -> str:
    """Standard output of ``python argv`` run in ``root`` on its own package."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    result = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout


def run_workload(root: str, workload: str, seconds: float) -> dict:
    lines = _child(root, [os.path.join("perfbench", "run.py"), "--workload", workload,
                          "--seed", str(SEED), "--seconds", str(seconds),
                          "--trace", "0"]).splitlines()
    result = json.loads(lines[-1])
    # the printed lines read "<name> <value> <unit>"
    result["raw_and_host"] = {name: {"value": float(value), "unit": unit}
                              for name, value, unit in (line.split() for line in lines[:-1]
                                                        if line.startswith(("raw.", "host.")))}
    return result


def checkout_counters(root: str) -> dict:
    """:func:`counters`, run in ``root`` on its own package."""
    return json.loads(_child(root, ["-c", _COUNTERS_CHILD, os.path.abspath(__file__)]))


def git(root: str, *args: str) -> str:
    return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def record(root: str, outdir: str, seconds: float | None = None) -> str:
    """Run every workload and the counters in ``root``; returns the file written.
    ``seconds`` defaults to the checkout's BENCHMARK.json ``run_seconds``."""
    if git(root, "status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"error: {root} has uncommitted changes; the record names a commit")
    if seconds is None:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            seconds = float(json.load(handle)["run_seconds"])
    src_tree = git(root, "rev-parse", "--short", "HEAD:src")
    payload = {
        "src_tree": src_tree,
        "perfbench_tree": git(root, "rev-parse", "--short", "HEAD:perfbench"),
        "seed": SEED,
        "seconds": seconds,
        "host": {"python": platform.python_version(), "numpy": version("numpy"),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": {name: run_workload(root, name, seconds) for name in WORKLOADS},
        **checkout_counters(root),
    }
    path = os.path.join(outdir, f"BENCH_{src_tree}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="checkout to measure (default: .)")
    parser.add_argument("--outdir", default=".", help="where the file goes (default: .)")
    args = parser.parse_args(argv)
    print(f"Wrote {record(os.path.abspath(args.root), args.outdir)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
