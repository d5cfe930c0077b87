"""Self-tests of the benchmark itself.

    python3 perfbench/run.py --selftest

1. Seeded generation: the same seed gives an identical operation list and
   a different seed a different one, for every workload.
2. Checks: real outputs pass, and the same outputs with one deliberately
   wrong value are counted as failed (a failed op in ``Tally``, or a failed
   sweep cell for a rate outside its tolerance).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

import numpy as np


def _ops(workload, seed, rounds=3):
    import workloads

    return json.dumps([workloads.make_round(workload, seed, i) for i in range(rounds)],
                      sort_keys=True)


def test_seeded_generation():
    import workloads

    for workload in workloads.WORKLOADS:
        assert _ops(workload, 7) == _ops(workload, 7), f"{workload}: seed 7 not repeatable"
        assert _ops(workload, 7) != _ops(workload, 8), f"{workload}: seeds 7 and 8 agree"
        first = workloads.make_round(workload, 7, 0)
        assert json.dumps(first) != json.dumps(workloads.make_round(workload, 7, 1)), \
            f"{workload}: rounds repeat"


def _counts_as_failed(op, problems, stats=None):
    import run

    tally = run.Tally()
    tally.add(op, 0.1, problems, stats or {})
    return tally.failed_ops == 1 and tally.failed_units >= 1


def test_wrong_results_fail(workdir):
    import checks
    import reference
    import run
    import workloads

    executor = run.InProcess(workdir)

    # sweep: a flipped verdict is a wrong answer, a missed rate a failed cell
    op = workloads.warmup_op("radial-sweep")
    _, result = executor.run(op)
    (code, _, _), out = result
    with open(out) as handle:
        text = handle.read()
    problems, stats = checks.check_sweep(op, code, text)
    assert not problems and stats["failed"] == 0, problems
    assert _counts_as_failed(op, checks.check_sweep(
        op, code, text.replace("Large", "Bounded", 1))[0])
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[11] = repr(float(fields[11]) + 2 * checks.ALPHA_TOL)
    _, stats = checks.check_sweep(op, code, "\n".join([lines[0], ",".join(fields)]
                                                      + lines[2:]) + "\n")
    assert stats["failed"] == 1, stats
    assert _counts_as_failed(op, checks.check_sweep(op, 4, text)[0])

    # classify: wrong oscillation status or verdict
    op = workloads.warmup_op("field-comparison")
    _, result = executor.run(op)
    (code, _, _), out = result
    with open(out) as handle:
        payload = json.load(handle)
    assert not checks.check_classify(op["spec"], code, payload)
    for path, value in ((("osc_condition", "status"), "satisfied"),
                        (("existence_verdict", "verdict"), "Bounded")):
        wrong = copy.deepcopy(payload)
        wrong[path[0]][path[1]] = value
        assert _counts_as_failed(op, checks.check_classify(op["spec"], code, wrong))

    # sandwich: exit codes, margins, envelope excess
    refused = {"kind": "sandwich", "mode": "refused", "id": "t"}
    msg = "precondition not met: ..."
    assert not checks.check_sandwich(refused, 3, None, msg, None)
    assert _counts_as_failed(refused, checks.check_sandwich(refused, 0, None, msg, None))
    auto = {"kind": "sandwich", "mode": "auto", "id": "t"}
    good = {"min_margin": 0.5, "envelope_excess": -1e-3,
            "oscillation": {"status": "satisfied"}, "beta": 3.0}
    curves = (np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert not checks.check_sandwich(auto, 0, good, "", curves)
    for key, value in (("min_margin", -1e-9), ("envelope_excess", 1e-6)):
        wrong = dict(good, **{key: value})
        assert _counts_as_failed(auto, checks.check_sandwich(auto, 0, wrong, "", curves))
    assert _counts_as_failed(auto, checks.check_sandwich(
        auto, 0, good, "", (curves[1], curves[0])))

    # verify: one failed invariant
    results = [{"name": "a", "passed": True}, {"name": "b", "passed": True}]
    verify = {"kind": "verify", "id": "t"}
    assert not checks.check_verify(0, results)
    results[1]["passed"] = False
    assert _counts_as_failed(verify, checks.check_verify(0, results))

    # solve: the written curve against the independent reference
    import hessianls.cli as cli

    ref = reference.load_reference()["k1-constant"]
    spec = os.path.join(workdir, "solve.json")
    with open(spec, "w") as handle:
        json.dump(workloads.SOLVE_CATALOG["k1-constant"], handle)
    curve, summary = os.path.join(workdir, "c.csv"), os.path.join(workdir, "s.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", spec, "--curve", curve, "--summary", summary])
    data = np.loadtxt(curve, delimiter=",", skiprows=1, ndmin=2)
    with open(summary) as handle:
        summary = json.load(handle)
    err = checks.curve_error(data[:, 0], data[:, 1], ref["r"], ref["u"])
    assert not checks.check_solve(code, summary, err), err
    bumped = data[:, 1].copy()
    bumped[-1] *= 1.0 + 10 * checks.CURVE_REL_TOL
    err = checks.curve_error(data[:, 0], bumped, ref["r"], ref["u"])
    solve = {"kind": "solve", "id": "t"}
    assert _counts_as_failed(solve, checks.check_solve(code, summary, err))

    # break line: shifted off the solution
    import hessianls.solver as solver
    from hessianls.cli import ProblemSpec

    op = {"kind": "breakline", "id": "t", "n": 3, "k": 1, "gamma": 0.5, "a": 1.0,
          "coefficient": {"kind": "constant", "value": 1.0}, "r_end": 0.5,
          "epsilon": 1e-2}
    parsed = ProblemSpec.from_dict({key: op[key] for key in
                                    ("n", "k", "gamma", "a", "coefficient")})
    line = solver.euler_polyline(parsed.params, parsed.radial_profile(), 0.5, 1e-2)
    ref_u = reference.reference_u(op, op["coefficient"], line.radii)
    assert not checks.check_breakline(op, line, ref_u)
    line.values = line.values + 2 * checks.breakline_tolerance(1e-2, 0.5)
    line.values[0] = 1.0
    assert _counts_as_failed(op, checks.check_breakline(op, line, ref_u))


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    workdir = os.path.join("perfbench", "out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        test_seeded_generation()
        print("seeded generation: ok")
        test_wrong_results_fail(workdir)
        print("wrong results are counted as failed: ok")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
