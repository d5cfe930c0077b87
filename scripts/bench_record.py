"""Record one point of the benchmark trajectory as BENCH_<src-tree>.json.

    python3 scripts/bench_record.py --root . --outdir .

For each workload, runs ``perfbench/run.py --trace 0`` in the checkout at
``--root`` as a subprocess, with that checkout's ``BENCHMARK.json``
``run_seconds`` and ``perfbench/run.py``'s default seed, and keeps the JSON
object it prints last (the end-to-end metrics, scaled to reference host
speed) and, under ``raw_and_host``, the ``raw.*`` metrics and ``host.*``
scale factors it prints before it (to the six digits printed), so a point
tells host drift from a code change.  It adds the stepper's own
counters, which the benchmark's tracer cannot see: the dense evaluator's
``rhs_evals``, ``accepted`` and ``rejected``, summed over the closed-form
specs of ``perfbench/data/reference.json``, solved by the checkout's own
package, and beside them ``us_per_step`` and ``us_per_step_median``, the
least and the median of 15 summed solve times of those specs per attempted
step, so the trajectory shows the stepper's cost next to its counts (only
the counts compare across recordings: the times move with the host's
load); under ``stepper_tabulated`` the same fields for the tabulated specs,
their tables written by ``perfbench/workloads.py``.  Under ``envelope`` it
adds the envelope work of the golden classify op of ``perfbench/golden.py``:
Gauss points, tabulated b points, Simpson nodes and ``RadialGrid.refined``
calls; under ``breakline`` the work of one break line (n = 4, k = 2, gamma =
1, b = 1 on [0, 0.5], epsilon = 1e-3): Gauss points, b points and
``breakline_defect`` calls.  The file is named after the git tree of
the checkout's ``src`` directory, which names the measured code whichever
commit carries it; the tree of ``perfbench`` inside names the benchmark
that measured it.  One run per workload is a single sample: compare wall
times only between files recorded on one host in one session, and only by
more than the spread of repeated runs.
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
# Timed passes over the specs: us_per_step takes the least, us_per_step_median
# the median.
REPEATS = 15
ENVELOPE_COUNTS = ("gauss_points", "tabulated_b_points", "simpson_nodes", "refined_calls")
BREAKLINE_COUNTS = ("gauss_points", "b_points", "defect_calls")
# Run in the measured checkout, this file's counters print the stepper's (on
# closed forms and on tables), the golden classify's and the break line's.
_COUNTERS_CHILD = ("import json, runpy, sys; script = runpy.run_path(sys.argv[1]); "
                   "reference = json.load(open(sys.argv[2])); "
                   "print(json.dumps({'stepper': script['stepper_counters'](reference), "
                   "'stepper_tabulated': script['stepper_counters'](reference, True), "
                   "'envelope': script['golden_envelope_counters'](), "
                   "'breakline': script['breakline_counters']()}))")


def stepper_counters(reference: dict, tabulated: bool = False) -> dict:
    """rhs_evals, accepted and rejected summed over the reference specs with
    a closed-form coefficient (``tabulated``: with a table, written by
    TABLES), each solved as ``hessianls solve`` would, and us_per_step and
    us_per_step_median: the least and the median summed solve time over
    REPEATS runs of them, in microseconds per attempted (accepted or
    rejected) step.  Only the step counts compare across recordings; the
    times move with the host's load."""
    from hessianls.cli import ProblemSpec
    from hessianls.solver import solve_cauchy

    chosen = {name: entry["spec"] for name, entry in sorted(reference.items())
              if (entry["spec"]["coefficient"]["kind"] == "tabulated") == tabulated}
    with tempfile.TemporaryDirectory() as tables:  # a spec reads its table when built
        if tabulated:
            write_table = runpy.run_path(TABLES)["write_table"]
            for spec in chosen.values():
                path = spec["coefficient"]["path"]
                write_table(path, os.path.join(tables, path))
        specs = {name: ProblemSpec.from_dict(spec, base_dir=tables)
                 for name, spec in chosen.items()}
    totals = {"specs": list(specs), "rhs_evals": 0, "accepted": 0, "rejected": 0}
    passes = []
    for repeat in range(REPEATS):
        elapsed = 0.0
        for spec in specs.values():
            problem = (spec.params, spec.radial_profile(), spec.grid(),
                       spec.tolerances["rel"], spec.tolerances["abs"])
            start = time.perf_counter()
            dense = solve_cauchy(*problem).dense
            elapsed += time.perf_counter() - start
            if not repeat:
                for key in ("rhs_evals", "accepted", "rejected"):
                    totals[key] += getattr(dense, key)
        passes.append(elapsed)
    steps = totals["accepted"] + totals["rejected"]
    totals["us_per_step"] = 1e6 * min(passes) / steps
    totals["us_per_step_median"] = 1e6 * statistics.median(passes) / steps
    return totals


def envelope_counters(argv: list, spec: dict, exit_code: int = 0) -> dict:
    """The envelope work of one ``hessianls`` op, ``argv`` with ``spec``
    written to a file in place of ``{spec}`` and an output directory in
    place of ``{out}``, run in this process on the package it imports:
    Gauss points laid by ``panel_points``, points at which a tabulated b is
    evaluated, Simpson nodes (``cumulative_values``) and
    ``RadialGrid.refined`` calls, each counted where the package binds it.
    The op must exit with ``exit_code`` (a refusal counts its work too)."""
    import numpy as np

    from hessianls import _integrate, cli, envelope
    from hessianls.coefficients import RadialProfile
    from hessianls.core import RadialGrid

    counts = dict.fromkeys(ENVELOPE_COUNTS, 0)
    counted = _counter(counts)

    def tabulated(args, result):
        return int(np.size(args[1])) if args[0].kind == "tabulated" else 0

    profile_eval = counted("tabulated_b_points", RadialProfile.__dict__["eval"], tabulated)
    patches = _gauss_point_patches(counted)
    patches += [(envelope, "cumulative_values", counted(
                    "simpson_nodes", _integrate.cumulative_values,
                    lambda args, result: result.size)),
                (RadialProfile, "eval", profile_eval), (RadialProfile, "__call__", profile_eval),
                (RadialGrid, "refined", counted("refined_calls", RadialGrid.__dict__["refined"],
                                                lambda args, result: 1))]
    with tempfile.TemporaryDirectory() as work:
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        argv = [arg.format(spec=spec_path, out=os.path.join(work, "out")) for arg in argv]
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
    patches.append((envelope, "breakline_defect", counted(
        "defect_calls", envelope.breakline_defect, lambda args, result: 1)))
    with _patched(patches):
        envelope.euler_polyline(ProblemParams(n=4, k=2, gamma=1.0), b, 0.5, 1e-3)
    return counts


def _counter(counts: dict):
    """counted(key, function, amount): ``function`` wrapped to add
    amount(args, result) to counts[key] on every call."""
    def counted(key, function, amount):
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


def golden_envelope_counters() -> dict:
    """:func:`envelope_counters` of the golden classify op of
    ``perfbench/golden.py``, run as that file runs it."""
    return envelope_counters(["classify", "{spec}"],
                             runpy.run_path(GOLDEN)["SPECS"]["classify-spec.json"])


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
    """{"stepper": stepper_counters, "stepper_tabulated": the same on the
    tables, "envelope": golden_envelope_counters, "breakline":
    breakline_counters}, run in ``root`` on its own package."""
    return json.loads(_child(root, ["-c", _COUNTERS_CHILD, os.path.abspath(__file__),
                                    REFERENCE]))


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
