"""hessianls benchmark: three closed-loop workloads, output checks, metrics.

    python3 perfbench/run.py --workload radial-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
One client runs the workload's operations one after another (closed loop,
no think time).  Operations come in seeded rounds of fixed composition
(``workloads.py``); at least one round runs, another starts only when a
round as long as the last one still ends within ``--seconds``, and a
started round is always finished.  Gated times are scaled to reference
host speed by the probes of ``calibrate.py``, timed between operations.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of rounds twice, first plain and then with the tracing wrappers of
``tracing.py``, and prints the per-layer metrics, the tracing overhead and
the golden-output comparison.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Checks run between operations
and are not part of any timing.

``--selftest`` runs ``selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT = os.path.join("perfbench", "out")
SETUP_SAMPLES = 5
PROBE_BURST = 5    # host probes after each set-up and around the measured ops
TRACE_ROUNDS = {"radial-sweep": 1, "field-comparison": 2, "cli-cold": 1}
# Percentile of op_tail_ms: one with at least ten ops beyond it in a run of
# the usual length (1 radial-sweep round of 56 ops, 9-10 field-comparison
# rounds of 17, 3 cli-cold rounds of 7, where only the median qualifies).
# It is fixed, so a program that fits more rounds into a run is not judged
# at a higher one.
TAIL_PERCENTILE = {"radial-sweep": 80.0, "field-comparison": 90.0, "cli-cold": 50.0}
# One client and one thread: BLAS pools would only compete for the two
# cores with the process they serve.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------

class Executor:
    """Prepares, runs (timed) and checks one operation at a time."""

    def __init__(self, workdir: str, tracer=None):
        import checks
        import reference

        self.workdir = workdir
        self.tracer = tracer
        self.checks = checks
        self.reference = reference
        self.counter = 0

    def path(self, op, name):
        return os.path.join(self.workdir, f"{op['id']}-{self.counter}-{name}")

    def write_spec(self, op, spec, name="spec.json"):
        path = self.path(op, name)
        with open(path, "w") as handle:
            json.dump(spec, handle)
        return path

    def run(self, op):
        """(seconds, result) of one op; result carries everything the
        check needs."""
        self.counter += 1
        call = self.prepare(op)
        token = self.tracer.start_op(op["id"]) if self.tracer else None
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        if token is not None:
            self.tracer.end_op(op["kind"], token)
        return seconds, result


class InProcess(Executor):
    """radial-sweep and field-comparison: ``hessianls.cli.main`` and
    ``hessianls.solver.euler_polyline`` called in this process."""

    def __init__(self, workdir, tracer=None):
        super().__init__(workdir, tracer)
        import hessianls.cli
        import hessianls.solver

        self.cli = hessianls.cli
        self.solver = hessianls.solver

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def prepare(self, op):
        kind = op["kind"]
        if kind == "sweep":
            spec = self.write_spec(op, op["template"])
            out = self.path(op, "sweep.csv")
            argv = ["sweep", spec, "--out", out, "--jobs", "1"]
            for name, values in op["vary"]:
                argv += ["--vary", f"{name}=" + ",".join(repr(v) for v in values)]
            return lambda: (self._main(argv), out)
        if kind == "classify":
            spec = self.write_spec(op, op["spec"])
            out = self.path(op, "classify.json")
            return lambda: (self._main(["classify", spec, "--out", out]), out)
        if kind == "sandwich":
            spec = self.write_spec(op, op["spec"])
            out = self.path(op, "sandwich")
            argv = ["sandwich", spec, "--out", out]
            if op["mode"] == "forced":
                argv += ["--beta", repr(op["beta"])]
            return lambda: (self._main(argv), out)
        if kind == "breakline":
            from hessianls.cli import ProblemSpec

            spec = ProblemSpec.from_dict({key: op[key] for key in
                                          ("n", "k", "gamma", "a", "coefficient")})
            params, profile = spec.params, spec.radial_profile()
            return lambda: self.solver.euler_polyline(params, profile, op["r_end"],
                                                      op["epsilon"])
        raise ValueError(f"unknown op kind {kind!r}")

    def check(self, op, result):
        c = self.checks
        kind = op["kind"]
        if kind == "breakline":
            ref = self.reference.reference_u(op, op["coefficient"], result.radii)
            return c.check_breakline(op, result, ref), {}
        (code, stdout, stderr), out = result
        if kind == "sweep":
            text = _read(out) if code == 0 else ""
            return c.check_sweep(op, code, text)
        if kind == "classify":
            payload = json.loads(_read(out)) if code == 0 else None
            return c.check_classify(op["spec"], code, payload), {}
        report, curves = _sandwich_outputs(out) if code == 0 else (None, None)
        return c.check_sandwich(op, code, report, stderr, curves), {}


class ColdCLI(Executor):
    """cli-cold: one fresh ``python -m hessianls.cli`` child per op (the
    traced run starts ``launcher.py`` instead)."""

    def __init__(self, workdir, tracer=None, references=None):
        super().__init__(workdir, tracer)
        import workloads

        self.env = _child_env()
        self.references = references
        self.peak_rss_kb = 0
        self.import_s = 0.0
        for name in workloads.TABLES:
            workloads.write_table(name, os.path.join(workdir, name))

    def prepare(self, op):
        import workloads

        kind = op["kind"]
        outputs = {}
        if kind == "solve":
            spec = self.write_spec(op, workloads.SOLVE_CATALOG[op["catalog"]])
            outputs = {"curve": self.path(op, "curve.csv"),
                       "summary": self.path(op, "summary.json")}
            args = ["solve", spec, "--curve", outputs["curve"],
                    "--summary", outputs["summary"]]
        elif kind == "classify":
            spec = self.write_spec(op, op["spec"])
            outputs = {"json": self.path(op, "classify.json")}
            args = ["classify", spec, "--out", outputs["json"]]
        elif kind == "sandwich":
            spec = self.write_spec(op, op["spec"])
            outputs = {"dir": self.path(op, "sandwich")}
            args = ["sandwich", spec, "--out", outputs["dir"]]
        elif kind == "verify":
            outputs = {"json": self.path(op, "verify.json")}
            args = ["verify", "--json", outputs["json"]]
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        trace_out = self.path(op, "trace.json") if self.tracer else None
        if trace_out:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), trace_out,
                    "--"] + args
        else:
            argv = [sys.executable, "-m", "hessianls.cli"] + args
        stdout_path, stderr_path = self.path(op, "stdout"), self.path(op, "stderr")

        def call():
            with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            return os.waitstatus_to_exitcode(status), outputs, stderr_path, trace_out
        return call

    def run(self, op):
        seconds, result = super().run(op)
        trace_out = result[3]
        if trace_out and os.path.exists(trace_out):
            with open(trace_out) as handle:
                exported = json.load(handle)
            self.import_s += exported.pop("import_s")
            self.tracer.merge(exported, op["id"], self.tracer.records[-1][0])
        return seconds, result

    def check(self, op, result):
        c = self.checks
        code, outputs, stderr_path, _ = result
        kind = op["kind"]
        if kind == "solve":
            summary = json.loads(_read(outputs["summary"])) if code == 0 else None
            err = float("inf")
            if code == 0:
                data = _curve(outputs["curve"])
                ref = self.references[op["catalog"]]
                err = c.curve_error(data[:, 0], data[:, 1], ref["r"], ref["u"])
            return c.check_solve(code, summary, err), {"rel_err": err}
        if kind == "classify":
            payload = json.loads(_read(outputs["json"])) if code == 0 else None
            return c.check_classify(op["spec"], code, payload), {}
        if kind == "sandwich":
            report, curves = (_sandwich_outputs(outputs["dir"]) if code == 0
                              else (None, None))
            return c.check_sandwich(op, code, report, _read(stderr_path), curves), {}
        results = json.loads(_read(outputs["json"])) if code == 0 else None
        return c.check_verify(code, results), {}


def _read(path):
    with open(path) as handle:
        return handle.read()


def _curve(path):
    """Columns r, u, du, d2u, residual of a curve CSV."""
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _sandwich_outputs(directory):
    """(report, (v_u, w_u)) written by ``hessianls sandwich --out``."""
    report = json.loads(_read(os.path.join(directory, "report.json")))
    return report, (_curve(os.path.join(directory, "v.csv"))[:, 1],
                    _curve(os.path.join(directory, "w.csv"))[:, 1])


def make_executor(workload, workdir, tracer=None):
    if workload == "cli-cold":
        import reference

        return ColdCLI(workdir, tracer, reference.load_reference())
    return InProcess(workdir, tracer)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Latencies, unit counts and check outcomes of a measured phase."""

    def __init__(self):
        self.latencies = []           # (kind, seconds)
        self.units = 0
        self.failed_units = 0
        self.failed_ops = 0
        self.problems = []
        self.cells = {"cells": 0, "failed": 0, "eligible": 0, "solved": 0,
                      "alpha_errors": []}
        self.curve_errors = []

    def add(self, op, seconds, problems, stats):
        kind = op["kind"]
        if kind == "sandwich":
            kind = "sandwich_refused" if op["mode"] == "refused" else "sandwich"
        self.latencies.append((kind, seconds))
        if problems:
            self.failed_ops += 1
            self.problems.extend(f"{op['id']} {op['kind']}: {p}" for p in problems)
        if op["kind"] == "sweep":
            for key in ("cells", "failed", "eligible", "solved"):
                self.cells[key] += stats.get(key, 0)
            self.cells["alpha_errors"].extend(stats.get("alpha_errors", []))
            self.units += stats.get("cells", 0)
            self.failed_units += stats.get("failed", 0) + (1 if problems else 0)
        else:
            self.units += 1
            self.failed_units += 1 if problems else 0
        if "rel_err" in stats:
            self.curve_errors.append(stats["rel_err"])


def run_rounds(executor, workload, seed, first_round, rounds=None, seconds=None,
               tally=None, calibration=None):
    """Run whole rounds: ``rounds`` of them, or as many as fit into
    ``seconds`` (at least one; another starts only when a round as long
    as the last one still ends in time).  With ``calibration``, one host
    probe runs after each op's check."""
    import workloads

    tally = tally or Tally()
    start = time.perf_counter()
    index = first_round
    while True:
        round_start = time.perf_counter()
        for op in workloads.make_round(workload, seed, index):
            op_start = time.perf_counter()
            elapsed, result = executor.run(op)
            op_end = time.perf_counter()
            problems, stats = executor.check(op, result)
            tally.add(op, elapsed, problems, stats)
            if calibration is not None:
                calibration.ops.append((op_start, op_end))
                calibration.sample()
        index += 1
        if rounds is not None and index - first_round >= rounds:
            break
        now = time.perf_counter()
        if seconds is not None and 2.0 * now - round_start - start > seconds:
            break
    return tally, index - first_round


def quantile(values, percent):
    """Harrell-Davis estimate of the ``percent``-th percentile: a weighted
    mean of all order statistics (Beta weights), so it does not jump from
    one op to the next when a single latency changes rank."""
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    p = percent / 100.0
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def end_to_end(tally, setup, op_scales, peak_rss_mb, tail_percent):
    """Gated metrics and informational ones.  ``setup`` is (raw, scaled)
    set-up seconds; op i's time is multiplied by ``op_scales[i]``."""
    raw = [s for _, s in tally.latencies]
    times = [s * scale for s, scale in zip(raw, op_scales)]
    run_scale = sum(times) / sum(raw)
    beyond = sum(1 for s in raw if s > quantile(raw, tail_percent))
    setup_raw, setup_scaled = setup
    metrics = {
        "setup_s": (setup_scaled, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1e3 * quantile(times, 50.0), "ms"),
        "op_tail_ms": (1e3 * quantile(times, tail_percent), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "raw.setup_s": (setup_raw, "s"),
        "raw.ops_per_s": (len(raw) / sum(raw), "1/s"),
        "raw.op_p50_ms": (1e3 * quantile(raw, 50.0), "ms"),
        "raw.op_tail_ms": (1e3 * quantile(raw, tail_percent), "ms"),
        "host.setup_scale": (setup_scaled / setup_raw, "1"),
        "host.run_scale": (run_scale, "1"),
        "op_tail_percentile": (tail_percent, "%"),
        "op_tail_beyond": (beyond, "count"),
        "op_count": (len(times), "count"),
        "fail_share": (tally.failed_units / tally.units if tally.units else 0.0, "ratio"),
    }
    for kind in ("classify", "sandwich", "breakline", "solve", "verify"):
        values = [t for (k, _), t in zip(tally.latencies, times) if k == kind]
        if values:
            info[f"{kind}_p50_ms"] = (1e3 * quantile(values, 50.0), "ms")
    cells = tally.cells
    if cells["cells"]:
        sweep_s = sum(t for (k, _), t in zip(tally.latencies, times) if k == "sweep")
        info["sweep_cells_per_s"] = (cells["cells"] / sweep_s, "1/s")
        info["solved_share"] = (cells["solved"] / cells["eligible"]
                                if cells["eligible"] else 0.0, "ratio")
        info["alpha_max_err"] = (max(cells["alpha_errors"], default=0.0), "1")
    if tally.curve_errors:
        info["solve_max_rel_err"] = (max(tally.curve_errors), "1")
    return metrics, info


def peak_rss_self_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed, workdir):
    """Import, input generation and one warm-up op; returns the executor."""
    import workloads

    workloads.make_round(workload, seed, 0)
    executor = make_executor(workload, workdir)
    op = workloads.warmup_op(workload)
    _, result = executor.run(op)
    problems, _ = executor.check(op, result)
    if problems:
        raise RuntimeError(f"warm-up op failed: {problems}")
    return executor


def setup_probe(args) -> int:
    """Child process: time one cold set-up, then probe the host in the
    same process; print the seconds and the host factor."""
    start = time.perf_counter()
    workdir = _workdir(args, "setup")
    try:
        import hessianls.cli  # noqa: F401 - timed cold import

        setup(args.workload, args.seed, workdir)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import calibrate  # after the timing: it imports numpy and scipy

    calibration = calibrate.Calibration(warmup=2)
    calibration.sample(PROBE_BURST)
    print(f"{seconds!r} {calibration.scale()!r}")
    return 0


def setup_seconds(args):
    """(raw, scaled) medians of SETUP_SAMPLES cold set-ups, and the raw
    samples."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, env=_child_env(), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        seconds, scale = map(float, proc.stdout.strip().splitlines()[-1].split())
        raw.append(seconds)
        scaled.append(seconds * scale)
    return (statistics.median(raw), statistics.median(scaled)), raw


def _workdir(args, tag):
    path = os.path.join(OUT, f"{tag}-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def measured_run(args, workdir):
    import calibrate

    setup_s, samples = setup_seconds(args)
    executor = setup(args.workload, args.seed, workdir)
    calibration = calibrate.Calibration()
    calibration.sample(PROBE_BURST)
    tally, rounds = run_rounds(executor, args.workload, args.seed, 0,
                               seconds=args.seconds, calibration=calibration)
    calibration.sample(PROBE_BURST)
    rss = (executor.peak_rss_kb / 1024.0 if isinstance(executor, ColdCLI)
           else peak_rss_self_mb())
    metrics, info = end_to_end(tally, setup_s, calibration.op_scales(), rss,
                               TAIL_PERCENTILE[args.workload])
    lines = [f"set-up samples (s): {', '.join(f'{s:.3f}' for s in samples)}",
             f"host probe median {1e3 * calibration.median_s():.2f} ms "
             f"(reference {1e3 * calibrate.REFERENCE_S:.2f} ms)",
             f"rounds {rounds}, ops {len(tally.latencies)}, measured "
             f"{sum(s for _, s in tally.latencies):.2f} s"]
    return tally, metrics, info, lines


def traced_run(args, workdir):
    import golden
    import tracing

    executor = setup(args.workload, args.seed, workdir)
    mismatches, worst, golden_problems = golden.compare()
    tracer = tracing.Tracer()
    traced = make_executor(args.workload, workdir, tracer)
    plain_tally = Tally()
    traced_tally = Tally()
    for index in range(TRACE_ROUNDS[args.workload]):
        run_rounds(executor, args.workload, args.seed, index, rounds=1, tally=plain_tally)
        if args.workload != "cli-cold":
            tracer.install()
        try:
            run_rounds(traced, args.workload, args.seed, index, rounds=1,
                       tally=traced_tally)
        finally:
            tracer.uninstall()
    plain_s = sum(s for _, s in plain_tally.latencies)
    traced_s = sum(s for _, s in traced_tally.latencies)
    import_s = traced.import_s if isinstance(traced, ColdCLI) else 0.0
    metrics = tracing.layer_metrics(tracer, traced_s, import_s)
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    metrics["cli.golden_mismatches"] = (float(mismatches), "count")
    metrics["cli.golden_max_rel_dev"] = (worst, "ratio")
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv"))
    traced_tally.problems.extend(golden_problems)
    traced_tally.failed_ops += plain_tally.failed_ops + (1 if golden_problems else 0)
    traced_tally.problems.extend(plain_tally.problems)
    lines = [f"traced rounds {TRACE_ROUNDS[args.workload]}: plain {plain_s:.2f} s, "
             f"traced {traced_s:.2f} s, {len(tracer.records)} span records"]
    return traced_tally, metrics, {}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("radial-sweep", "field-comparison",
                                               "cli-cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hessianls", "__init__.py")):
        print(f"error: no package at {SRC}/hessianls; run from the root of a "
              f"hessianls checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # --jobs 1 must hold for the in-process sweeps
    os.environ.pop("HESSIANLS_JOBS", None)
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    workdir = _workdir(args, "run")
    try:
        if args.trace:
            tally, metrics, info, lines = traced_run(args, workdir)
        else:
            tally, metrics, info, lines = measured_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"[{args.workload} seed {args.seed} trace {args.trace}]")
    for line in lines:
        print(line)
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"{name:34s} {value:.6g} {unit}")
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED {problem}")
    attempted = len(tally.latencies)
    result = {
        "correct": not tally.problems,
        "attempted": attempted,
        "failed": tally.failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
