"""Golden outputs for a small fixed spec set.

    python3 perfbench/golden.py --write    # refreeze perfbench/golden/
    python3 perfbench/golden.py            # compare and print the deviation

The set covers the solve summary and curve CSV, the classify JSON, the
sandwich report, a sweep CSV and the ``verify --json`` report.  Outputs are
produced in-process through ``hessianls.cli.main`` under
``perfbench/out/golden`` (relative paths, so the paths embedded in the
summary stay the same) and compared byte for byte.  Files that differ are
also compared number by number; the deviation of a number is
|a - b| / max(|a|, |b|, 1), so values far below one are compared
absolutely.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
WORK_DIR = os.path.join("perfbench", "out", "golden")
TOLERANCE = 1e-6

SPECS = {
    "solve.json": "k2-midtail",
    "classify-spec.json": {"n": 3, "k": 1, "gamma": 0.5, "a": 1.0,
                           "coefficient": {"kind": "builtin_field",
                                           "name": "counterexample"},
                           "grid": {"r_max": 100.0, "nodes_per_decade": 16}},
    "sandwich-spec.json": {"n": 5, "k": 2, "gamma": 1.0, "a": 1.0,
                           "coefficient": {"kind": "builtin_field",
                                           "name": "anisotropic_power",
                                           "l": 1.0, "m": 8.0, "amp": 0.5, "dim": 5},
                           "grid": {"r_max": 100.0, "nodes_per_decade": 16}},
    "sweep-spec.json": {"n": 4, "k": 2, "gamma": 1.0, "a": 1.0,
                        "coefficient": {"kind": "power_tail", "l": 0.0},
                        "grid": {"r_max": 1e3}},
}

OUTPUTS = ("solve_summary.json", "solve_curve.csv", "classify.json",
           "sandwich/report.json", "sweep.csv", "verify.json")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _p(name):
    return os.path.join(WORK_DIR, name)


def produce():
    """Run the golden commands; returns the exit codes."""
    import hessianls.cli as cli
    import workloads

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    for name, spec in SPECS.items():
        if isinstance(spec, str):
            spec = workloads.SOLVE_CATALOG[spec]
        with open(_p(name), "w") as handle:
            json.dump(spec, handle)
    commands = [
        ["solve", _p("solve.json"), "--curve", _p("solve_curve.csv"),
         "--summary", _p("solve_summary.json")],
        ["classify", _p("classify-spec.json"), "--out", _p("classify.json")],
        ["sandwich", _p("sandwich-spec.json"), "--sphere-count", "64",
         "--out", _p("sandwich")],
        ["sweep", _p("sweep-spec.json"), "--vary", "l=0.5,3.0,5.0",
         "--vary", "gamma=0.5,1.5", "--out", _p("sweep.csv"), "--jobs", "1"],
        ["verify", "--json", _p("verify.json")],
    ]
    codes = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    return codes


def deviation(golden: str, got: str) -> float:
    """Largest numeric deviation between two texts (inf if their
    non-numeric parts or their number counts differ)."""
    if _NUMBER.sub("#", golden) != _NUMBER.sub("#", got):
        return math.inf
    worst = 0.0
    for a, b in zip(_NUMBER.findall(golden), _NUMBER.findall(got)):
        x, y = float(a), float(b)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1.0))
    return worst


def compare():
    """(mismatching files, largest deviation, problems)."""
    codes = produce()
    problems = [f"golden command {i} exited {c}" for i, c in enumerate(codes) if c]
    mismatches = 0
    worst = 0.0
    for name in OUTPUTS:
        with open(os.path.join(GOLDEN_DIR, name.replace("/", "_"))) as handle:
            want = handle.read()
        with open(_p(name)) as handle:
            got = handle.read()
        if got != want:
            mismatches += 1
            worst = max(worst, deviation(want, got))
    if worst > TOLERANCE:
        problems.append(f"golden outputs deviate by {worst:.3g} > {TOLERANCE:g}")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    return mismatches, worst, problems


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if "--write" in sys.argv[1:]:
        codes = produce()
        if any(codes):
            print(f"golden commands failed: {codes}", file=sys.stderr)
            return 1
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for name in OUTPUTS:
            shutil.copyfile(_p(name), os.path.join(GOLDEN_DIR, name.replace("/", "_")))
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        print(f"wrote {len(OUTPUTS)} golden files to {GOLDEN_DIR}")
        return 0
    mismatches, worst, problems = compare()
    print(f"golden mismatches {mismatches}, max deviation {worst:.3g}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
