"""Map the oscillation-smallness threshold m* over (l, gamma).

For a coefficient with radial tail r^-l and oscillation tail r^-m, the
sandwich construction needs n > 2k and m above

    m* = 2k + max(2k - l, 0) gamma/(k - gamma),

which is l + (2k - l) k/(k - gamma) = (2k^2 - l gamma)/(k - gamma) for
l < 2k and 2k for l >= 2k (the growth factor btilde stays bounded once the
envelope integral converges).  The script tabulates m* on a grid of
(l, gamma), records the Large/Bounded classification that the radial tail
alone dictates, and optionally verifies the flip empirically by
radializing an anisotropic field with oscillation tails just above and
just below the threshold.  The probe verdicts use the reported m* itself:
every criterion compares a tail exponent with its threshold by one rule,
and refuses ("inconclusive") only a fitted tail within its standard
error of the threshold; the probes' tails are declared, so they are
never refused.

Usage examples:
  python3 scripts/threshold_map.py --n 6 --k 2 --outdir out_thresholds
  python3 scripts/threshold_map.py --n 6 --k 2 --probe --r-max 500 \
      --outdir out_thresholds
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

import numpy as np

from hessianls import (AnisotropicPowerField, ProblemParams, RadialGrid,
                       RadialProfile, classify_existence,
                       oscillation_condition, oscillation_threshold, radialize)


def probe_flip(params: ProblemParams, l: float, m_star: float,
               r_max: float) -> dict:
    """Radialize fields with m = m* +- 0.5 and report both verdicts."""
    grid = RadialGrid.build(r_max, nodes_per_decade=16)
    out = {}
    for side, m in (("above", m_star + 0.5), ("below", m_star - 0.5)):
        field = AnisotropicPowerField(l=l, m=m, amp=0.5, dim=params.n)
        triple = radialize(field, grid, sphere_count=64)
        report = oscillation_condition(triple, params, r_max=r_max)
        out[side] = {"m": m, "status": report.status}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=6, help="space dimension")
    ap.add_argument("--k", type=int, default=2, help="Hessian order")
    ap.add_argument("--l-values", nargs="*", type=float, default=None,
                    help="radial tail exponents (default: 9 values in [0, 2k])")
    ap.add_argument("--gamma-values", nargs="*", type=float, default=None,
                    help="sublinear exponents (default: 5 fractions of k)")
    ap.add_argument("--probe", action="store_true",
                    help="verify the flip empirically at each grid point")
    ap.add_argument("--r-max", type=float, default=500.0,
                    help="domain radius for the empirical probes")
    ap.add_argument("--outdir", default="out_threshold_map")
    args = ap.parse_args()

    k = args.k
    l_values = (args.l_values if args.l_values is not None
                else list(np.linspace(0.0, 2.0 * k, 9)))
    gamma_values = (args.gamma_values if args.gamma_values is not None
                    else [k * f for f in (0.15, 0.35, 0.5, 0.75, 0.95)])

    rows = []
    for gamma in gamma_values:
        params = ProblemParams(n=args.n, k=k, gamma=float(gamma))
        for l in l_values:
            m_star = oscillation_threshold(params, float(l))
            verdict = classify_existence(RadialProfile.power_tail(float(l)),
                                         params, r_max=100.0)
            row = {"gamma": float(gamma), "l": float(l), "m_star": m_star,
                   "classification": verdict.verdict}
            if args.probe:
                flips = probe_flip(params, float(l), m_star, args.r_max)
                row["probe_above"] = flips["above"]["status"]
                row["probe_below"] = flips["below"]["status"]
            rows.append(row)

    outp = Path(args.outdir)
    outp.mkdir(parents=True, exist_ok=True)
    with open(outp / "threshold_map.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    (outp / "threshold_map.json").write_text(json.dumps(
        {"n": args.n, "k": k, "rows": rows}, indent=2, sort_keys=True),
        encoding="utf-8")

    print(f"oscillation threshold m* for n={args.n}, k={k} "
          f"(columns: l, rows: gamma)")
    print(f"{'gamma':>8} | " + " ".join(f"{l:8.3g}" for l in l_values))
    print("-" * (11 + 9 * len(l_values)))
    for gamma in gamma_values:
        cells = [row["m_star"] for row in rows if row["gamma"] == float(gamma)]
        print(f"{gamma:8.3g} | " + " ".join(f"{c:8.4g}" for c in cells))
    if args.probe:
        mismatches = [row for row in rows
                      if row["probe_above"] != "satisfied"
                      or row["probe_below"] != "violated"]
        print(f"empirical probes at m* +- 0.5: "
              f"{len(rows) - len(mismatches)}/{len(rows)} grid points flip as "
              f"predicted" + ("" if not mismatches else f"; mismatches: {mismatches}"))
    print("Wrote", outp / "threshold_map.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
