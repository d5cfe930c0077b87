"""Study the stock anisotropic coefficient that defeats the radial sandwich.

b(x) = 8 (2 x_1^2 + x_2^2 + x_3^2 + 1)^(-1/2) admits the exact entire
solution u(x) = 2 x_1^2 + x_2^2 + x_3^2 + 1 for k = 1, gamma = 1/2, yet
all of its spherical envelopes decay like 1/r, far short of the
oscillation-smallness threshold m* = 3.  The script radializes the field,
checks the tabulated envelopes against their closed forms, reports the
classification and oscillation verdicts, shows the automatic sandwich
refusal, then forces a construction with an explicit starting height and
measures where the subsolution envelope overtakes the known solution on
its slow rays.

Usage examples:
  python3 scripts/counterexample_study.py --outdir out_counterexample
  python3 scripts/counterexample_study.py --r-max 1000 --beta 2.2e6 \
      --sphere-count 512 --outdir out_counterexample
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

import numpy as np

from hessianls import (EnvelopeTables, OscillationError, ProblemParams, RadialGrid,
                       build_sandwich, classify_existence, make_builtin_field,
                       oscillation_condition, radialize)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r-max", type=float, default=100.0, help="domain radius")
    ap.add_argument("--nodes-per-decade", type=int, default=24)
    ap.add_argument("--sphere-count", type=int, default=256,
                    help="sample points per radius for the envelopes")
    ap.add_argument("--beta", type=float, default=None,
                    help="starting height for the forced construction "
                         "(default: just above the known solution's maximum)")
    ap.add_argument("--outdir", default="out_counterexample")
    args = ap.parse_args()

    field = make_builtin_field("counterexample")
    params = ProblemParams(n=field.dim, k=1, gamma=0.5, a=1.0)
    grid = RadialGrid.build(args.r_max, nodes_per_decade=args.nodes_per_decade)
    r = grid.nodes

    print(f"field: b(x) = {field.amp:g} (2 x1^2 + x2^2 + x3^2 + {field.shift:g})^(-1/2), "
          f"n = {params.n}, k = {params.k}, gamma = {params.gamma}")

    # sampled envelopes versus the closed forms
    triple = radialize(field, grid, sphere_count=args.sphere_count)
    star_exact, upper_exact = field.envelope_profiles()
    star_err = float(np.max(np.abs(triple.b_star(r) / star_exact(r) - 1.0)))
    upper_err = float(np.max(np.abs(triple.b_upper(r) / upper_exact(r) - 1.0)))
    print(f"radialized envelopes ({args.sphere_count} points/radius): "
          f"max rel error {star_err:.2e} (lower), {upper_err:.2e} (upper)")

    tables = EnvelopeTables(params, triple, args.r_max)
    verdict = classify_existence(tables)
    print(f"classification from the lower envelope: {verdict.verdict} "
          f"(tail {verdict.tail_exponent:g} vs threshold {verdict.threshold:g})")

    osc = oscillation_condition(tables)
    print(f"oscillation smallness: {osc.status} "
          f"(oscillation tail m = {osc.tail_osc:g}, threshold m* = {osc.m_star:g})")

    try:
        build_sandwich(triple, params, grid)
        print("unexpected: automatic sandwich construction succeeded")
        auto_refusal = None
    except OscillationError as exc:
        auto_refusal = str(exc)
        print(f"automatic sandwich refused: {auto_refusal.splitlines()[0]}")

    # force a construction anyway: w must start above the known solution's
    # maximum over the closed ball, u <= 2 r_max^2 + 1
    beta = args.beta if args.beta is not None else 2.2 * args.r_max ** 2
    report = build_sandwich(triple, params, grid, beta=beta)
    print(f"forced construction with beta = {beta:g}: ordering v <= w holds, "
          f"min margin {report.min_margin:g}")

    # compare both envelope solutions against the known solution along the
    # extreme rays of the quadratic form
    u_slow = r ** 2 + field.shift       # x2/x3 axes, weight 1
    u_fast = 2.0 * r ** 2 + field.shift  # x1 axis, weight 2
    above = report.v.u > u_slow
    upper_ok = bool(np.all(report.w.u >= u_fast - 1e-9 * report.w.u))
    print(f"upper clause: w >= u on every ray: {'holds' if upper_ok else 'FAILS'}")
    if np.any(above):
        first = int(np.argmax(above))
        print(f"lower clause: v <= u FAILS on the slow rays, first at "
              f"r = {r[first]:.4g} (v = {report.v.u[first]:.6g} > "
              f"u = {u_slow[first]:.6g})")
        print("  the forced envelope pair still brackets *a* solution of the "
              "radial comparison problems, but not this particular entire "
              "solution: its slow-ray curvature 2 is below the envelope "
              "problem's forced curvature v''(0) = 8/3")
    else:
        print("lower clause: v <= u holds on the slow rays")

    outp = Path(args.outdir)
    outp.mkdir(parents=True, exist_ok=True)
    with open(outp / "envelopes.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "v", "w", "u_slow_ray", "u_fast_ray",
                         "b_star", "b_upper"])
        for i in range(r.size):
            writer.writerow([r[i], report.v.u[i], report.w.u[i],
                             u_slow[i], u_fast[i],
                             float(triple.b_star(r[i])), float(triple.b_upper(r[i]))])
    summary = {
        "params": {"n": params.n, "k": params.k, "gamma": params.gamma},
        "r_max": args.r_max,
        "sphere_count": args.sphere_count,
        "envelope_rel_error": {"lower": star_err, "upper": upper_err},
        "classification": verdict.to_dict(),
        "oscillation": osc.to_dict(),
        "auto_refusal": auto_refusal,
        "forced_beta": beta,
        "ordering_min_margin": report.min_margin,
        "upper_clause_holds": upper_ok,
        "lower_clause_first_violation": (
            None if not np.any(above) else
            {"r": float(r[int(np.argmax(above))]),
             "v": float(report.v.u[int(np.argmax(above))]),
             "u_slow_ray": float(u_slow[int(np.argmax(above))])}),
    }
    (outp / "study.json").write_text(json.dumps(summary, indent=2, sort_keys=True),
                                     encoding="utf-8")
    print("Wrote", outp / "study.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
