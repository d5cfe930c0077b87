"""Smoke test: each script under scripts/ runs end to end on small inputs."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
REFERENCE = SCRIPTS.parent / "perfbench" / "data" / "reference.json"
LEDGER = SCRIPTS.parent / "tests" / "data" / "work_ledger.json"
# What a script's run below must print besides "Wrote".  The threshold map
# probes l = 5 > 2k, where m* = 2k.
PRINTED = {"threshold_map.py": "3/3 grid points flip as predicted\n"}


def _load(name):
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, args, outputs", [
    ("counterexample_study.py",
     ["--r-max", "20", "--nodes-per-decade", "8", "--sphere-count", "32"],
     ["study.json", "envelopes.csv"]),
    ("rate_sweep.py", ["--r-max", "1e3", "--l-values", "0", "0.5"],
     ["rate_sweep.json", "rate_sweep.csv"]),
    ("threshold_map.py",
     ["--l-values", "0", "1", "5", "--gamma-values", "1", "--probe", "--r-max", "50"],
     ["threshold_map.json", "threshold_map.csv"]),
])
def test_script_runs(name, args, outputs, tmp_path, monkeypatch, capsys):
    module = _load(name)
    monkeypatch.setattr(sys, "argv", [name, *args, "--outdir", str(tmp_path)])
    assert module.main() == 0
    for output in outputs:
        assert (tmp_path / output).stat().st_size > 0
    out = capsys.readouterr().out
    assert "Wrote" in out and PRINTED.get(name, "") in out


@pytest.fixture(scope="module")
def checkout_counters():
    """What the child run in this checkout prints, run once for the tests below."""
    return _load("bench_record.py").checkout_counters(str(SCRIPTS.parent))


def test_bench_record_stepper_counters(checkout_counters):
    # The child run in a checkout sums the ledger's solve rows of the six
    # closed-form reference specs, and in their own block of the two
    # tabulated ones, each solve costing 1 + 6 RHS calls per attempted step,
    # with the least and the median wall time per attempted step beside them,
    # and each spec's handoff radius and steps below its grid's first node.
    reference = json.loads(REFERENCE.read_text())
    for block, tabulated, count in (("stepper", False, 6), ("stepper_tabulated", True, 2)):
        counters = checkout_counters[block]
        assert counters["specs"] == sorted(
            name for name, entry in reference.items()
            if (entry["spec"]["coefficient"]["kind"] == "tabulated") == tabulated)
        rows = [checkout_counters["ledger"][f"solve-{name}"] for name in counters["specs"]]
        assert len(rows) == count and counters["accepted"] > 0
        for key in ("rhs_evals", "accepted", "rejected"):
            assert counters[key] == sum(row[key] for row in rows)
        assert counters["rhs_evals"] == count + 6 * (counters["accepted"] + counters["rejected"])
        assert 0.0 < counters["us_per_step"] <= counters["us_per_step_median"] < 1e4
        assert set(counters) == {"specs", "rhs_evals", "accepted", "rejected", "r_handoff",
                                 "start_steps", "us_per_step", "us_per_step_median"}
        assert len(counters["r_handoff"]) == len(counters["start_steps"]) == count
        assert all(1e-12 <= r <= 1.0 for r in counters["r_handoff"])
        assert all(0 <= steps < accepted for steps, accepted in zip(
            counters["start_steps"], (row["accepted"] for row in rows)))


def test_bench_record_envelope_counters(checkout_counters):
    # The child records every ledger row as the file holds it, and beside
    # them the blocks older points carry: the golden classify row's envelope
    # counts and the break-line row.
    module = _load("bench_record.py")
    ledger = checkout_counters["ledger"]
    assert set(checkout_counters) == {"stepper", "stepper_tabulated", "envelope", "breakline",
                                      "ledger"}
    assert ledger == {row["name"]: row["counts"] for row in json.loads(LEDGER.read_text())}
    assert checkout_counters["envelope"] == {key: ledger["golden-classify"][key]
                                             for key in module.ENVELOPE_COUNTS}
    assert checkout_counters["breakline"] == ledger["break-line"]
    assert list(checkout_counters["breakline"]) == list(module.BREAKLINE_COUNTS)


def test_bench_record_us_per_step_is_the_least_summed_time(monkeypatch):
    # Repeat 2 of 15 is the fastest: its summed solve time over both specs
    # sets us_per_step, the eighth fastest sets us_per_step_median, each per
    # attempted step of one repeat.
    module = _load("bench_record.py")
    reference = json.loads(REFERENCE.read_text())
    two = [entry["spec"] for name, entry in sorted(reference.items())
           if entry["spec"]["coefficient"]["kind"] != "tabulated"][:2]
    assert module.REPEATS == 15
    seconds = [(3.0, 2.0), (1.0, 1.5), (1.5, 3.0), (2.0, 1.0), (1.0, 2.0),
               (2.5, 2.5), (1.5, 1.25), (2.0, 2.0), (3.0, 2.5), (1.75, 1.5),
               (2.0, 2.25), (4.0, 3.0), (2.0, 1.75), (1.25, 1.5), (2.5, 2.25)]
    readings, now = [], 0.0
    for solve in (solve for repeat in seconds for solve in repeat):
        readings += [now, now + solve]
        now += solve
    clock = iter(readings)
    monkeypatch.setattr(module, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    assert sorted(map(sum, seconds))[7] == 4.0
    assert module.stepper_counters(two, steps=500) == {"us_per_step": 2.5e6 / 500,
                                                       "us_per_step_median": 4.0e6 / 500}


def test_bench_record_keeps_raw_and_host_lines(monkeypatch):
    # A run's scaled metrics come from its last line; the raw.* and host.*
    # lines printed before it are kept beside them, the others are not.
    module = _load("bench_record.py")
    printed = "\n".join([
        "[radial-sweep seed 0 trace 0]",
        f"{'ops_per_s':34s} {101.5:.6g} 1/s",
        f"{'raw.setup_s':34s} {0.61234567:.6g} s",
        f"{'raw.ops_per_s':34s} {93.25:.6g} 1/s",
        f"{'host.setup_scale':34s} {0.97:.6g} 1",
        f"{'host.run_scale':34s} {1.088:.6g} 1",
        f"{'op_count':34s} {1176:.6g} count",
        json.dumps({"correct": True, "attempted": 1176, "failed": 0,
                    "metrics": {"ops_per_s": {"value": 101.5, "unit": "1/s"}}}),
    ]) + "\n"
    argvs = []
    monkeypatch.setattr(module, "_child", lambda root, argv: argvs.append(argv) or printed)
    result = module.run_workload("checkout", "radial-sweep", 30.0)
    assert argvs[0][1:] == ["--workload", "radial-sweep", "--seed", "0", "--seconds", "30.0",
                            "--trace", "0"]
    assert result["metrics"] == {"ops_per_s": {"value": 101.5, "unit": "1/s"}}
    assert result["raw_and_host"] == {
        "raw.setup_s": {"value": 0.612346, "unit": "s"},
        "raw.ops_per_s": {"value": 93.25, "unit": "1/s"},
        "host.setup_scale": {"value": 0.97, "unit": "1"},
        "host.run_scale": {"value": 1.088, "unit": "1"}}


def test_bench_record_file_layout(monkeypatch, tmp_path):
    # record() without running the benchmark: every workload's last-line
    # JSON and the counters land in BENCH_<src-tree>.json, run for the
    # checkout's BENCHMARK.json run_seconds.
    module = _load("bench_record.py")
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    (checkout / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3}))
    answers = {("status", "--porcelain", "--untracked-files=no"): "",
               ("rev-parse", "--short", "HEAD:perfbench"): "abc1234",
               ("rev-parse", "--short", "HEAD:src"): "def5678"}
    monkeypatch.setattr(module, "git", lambda root, *args: answers[args])
    runs = []
    monkeypatch.setattr(module, "run_workload", lambda root, workload, seconds: runs.append(
        seconds) or {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "ops_per_s": {"value": float(len(workload)), "unit": "1/s"}}})
    monkeypatch.setattr(module, "checkout_counters", lambda root: {
        "stepper": {"rhs_evals": 7}, "envelope": {"refined_calls": 1}})
    path = module.record(str(checkout), str(tmp_path))
    assert path == str(tmp_path / "BENCH_def5678.json") and runs == [3.0] * 3
    payload = json.loads((tmp_path / "BENCH_def5678.json").read_text())
    assert set(payload) == {"src_tree", "perfbench_tree", "seed", "seconds", "host",
                            "workloads", "stepper", "envelope"}
    assert (payload["src_tree"], payload["perfbench_tree"]) == ("def5678", "abc1234")
    assert (payload["seed"], payload["seconds"]) == (0, 3.0)
    assert list(payload["workloads"]) == ["radial-sweep", "field-comparison", "cli-cold"]
    assert payload["workloads"]["cli-cold"]["metrics"]["ops_per_s"]["value"] == 8.0
    assert payload["stepper"] == {"rhs_evals": 7}
    assert payload["envelope"] == {"refined_calls": 1}
    answers[("status", "--porcelain", "--untracked-files=no")] = " M src/hessianls/core.py"
    with pytest.raises(SystemExit, match="uncommitted changes"):
        module.record(str(checkout), str(tmp_path))
