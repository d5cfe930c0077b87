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
package, and beside them ``us_per_step``, the least of 5 summed solve
times of those specs per attempted step, so the trajectory shows the
stepper's cost next to its counts.  The file is named after the git tree of
the checkout's ``src`` directory, which names the measured code whichever
commit carries it; the tree of ``perfbench`` inside names the benchmark
that measured it.  One run per workload is a single sample: compare wall
times only between files recorded on one host in one session, and only by
more than the spread of repeated runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from importlib.metadata import version

WORKLOADS = ("radial-sweep", "field-comparison", "cli-cold")
REFERENCE = os.path.join("perfbench", "data", "reference.json")
SEED = 0  # perfbench/run.py's default
REPEATS = 5  # timed passes over the specs; us_per_step takes the least
# Run in the measured checkout, this file's stepper_counters prints its counters.
_COUNTERS_CHILD = ("import json, runpy, sys; counters = runpy.run_path(sys.argv[1])"
                   "['stepper_counters']; print(json.dumps(counters(json.load(open(sys.argv[2])))))")


def stepper_counters(reference: dict) -> dict:
    """rhs_evals, accepted and rejected summed over the reference specs with
    a closed-form coefficient, each solved as ``hessianls solve`` would, and
    us_per_step: the least summed solve time over REPEATS runs of them,
    in microseconds per attempted (accepted or rejected) step."""
    from hessianls.cli import ProblemSpec
    from hessianls.solver import solve_cauchy

    specs = {name: ProblemSpec.from_dict(entry["spec"])
             for name, entry in sorted(reference.items())
             if entry["spec"]["coefficient"]["kind"] != "tabulated"}
    totals = {"specs": list(specs), "rhs_evals": 0, "accepted": 0, "rejected": 0}
    best = math.inf
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
        best = min(best, elapsed)
    totals["us_per_step"] = 1e6 * best / (totals["accepted"] + totals["rejected"])
    return totals


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
        "stepper": checkout_counters(root),
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
