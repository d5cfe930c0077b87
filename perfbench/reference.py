"""Independent reference solutions for the curve-producing benchmark specs.

The radial problem sigma_k(lambda(D^2 u)) = b(r) u^gamma is integrated
here without ``hessianls.solver``: scipy's DOP853 at rtol 1e-13 on the
logarithmic system

    d ln u / d ln r = r u' / u  with  u' = (n r^(k-n) M / C(n,k))^(1/k),
    d ln M / d ln r = r^n b(r) u^gamma / M,

started from the leading series terms at r = 1e-10.  Tabulated
coefficients are evaluated by an own copy of the log-log interpolation
rule and integrated node to node, so their kinks never sit inside a step.
The package is used only for the output radii (``RadialGrid.build``).

    python3 perfbench/reference.py        # rewrite data/reference.json

``data/reference.json`` holds u at every grid node of every spec in
``workloads.SOLVE_CATALOG`` together with the relative gap to a second
solve at rtol 3e-14, an estimate of the reference's own error (about
1e-10, against about 1e-8 for the package solver at its default rtol).
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy.integrate import solve_ivp

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "data", "reference.json")
R_START = 1e-10


def profile_function(coefficient: dict, base_dir: str):
    """(b, breakpoints) for a radial coefficient spec; b takes a float."""
    kind = coefficient["kind"]
    if kind == "constant":
        value = float(coefficient.get("value", 1.0))
        return (lambda r: value), []
    if kind == "power_tail":
        l = float(coefficient["l"])
        amp = float(coefficient.get("A", 0.0))
        m = float(coefficient.get("m", 0.0))
        r0 = float(coefficient.get("r0", 1.0))
        scale = float(coefficient.get("scale", 1.0))

        def power(r):
            q = r0 * r0 + r * r
            return scale * (q ** (-l / 2.0) + (amp * q ** (-m / 2.0) if amp else 0.0))
        return power, []
    if kind == "tabulated":
        data = np.loadtxt(os.path.join(base_dir, coefficient["path"]),
                          delimiter=",", skiprows=1, ndmin=2)
        r_tab, b_tab = data[:, 0], data[:, 1]
        tail = coefficient.get("tail_exponent")

        def table(r):
            if r > r_tab[-1]:
                return float(b_tab[-1] * (r / r_tab[-1]) ** (-tail))
            i = int(np.clip(np.searchsorted(r_tab, r, side="right") - 1,
                            0, r_tab.size - 2))
            lo_r, hi_r, lo_b, hi_b = r_tab[i], r_tab[i + 1], b_tab[i], b_tab[i + 1]
            if lo_r > 0 and lo_b > 0 and hi_b > 0:
                w = math.log(r / lo_r) / math.log(hi_r / lo_r)
                return math.exp(math.log(lo_b) + w * math.log(hi_b / lo_b))
            return float(lo_b + (r - lo_r) / (hi_r - lo_r) * (hi_b - lo_b))
        return table, [float(x) for x in r_tab[1:]]
    raise ValueError(f"no reference for coefficient kind {kind!r}")


def reference_u(params: dict, coefficient: dict, radii, base_dir: str = ".",
                rtol: float = 1e-13) -> np.ndarray:
    """u at ``radii`` (nondecreasing, >= 0) for u(0) = a, u'(0) = 0."""
    n, k = int(params["n"]), int(params["k"])
    gam, a = float(params["gamma"]), float(params.get("a", 1.0))
    b, breaks = profile_function(coefficient, base_dir)
    log_c = math.log(n / math.comb(n, k))

    def rhs(s, y):
        ln_u, ln_m = y
        r = math.exp(s)
        return (math.exp(s + (log_c + (k - n) * s + ln_m) / k - ln_u),
                math.exp(n * s + math.log(b(r)) + gam * ln_u - ln_m))

    b0 = b(0.0)
    slope = (b(1e-6) - b0) / 1e-6
    r0 = R_START
    c2 = (b0 * a ** gam / math.comb(n, k)) ** (1.0 / k)
    y = np.array([math.log(a + 0.5 * c2 * r0 * r0),
                  math.log(a ** gam * r0 ** n * (b0 / n + slope * r0 / (n + 1.0)))])
    radii = np.asarray(radii, dtype=float)
    out = np.full(radii.size, a)
    targets = np.log(radii[radii > r0])
    first = radii.size - targets.size
    s_end = float(targets[-1]) if targets.size else math.log(r0)
    stops = [math.log(x) for x in breaks if r0 < x < math.exp(s_end)]
    edges = [math.log(r0)] + stops + [s_end]
    filled = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        inside = targets[(targets > lo) & (targets <= hi)]
        t_eval = inside if inside.size and inside[-1] == hi else np.append(inside, hi)
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=rtol, atol=rtol,
                        t_eval=t_eval)
        if sol.status != 0:
            raise RuntimeError(f"reference solve failed: {sol.message}")
        filled.extend(np.exp(sol.y[0, :inside.size]))
        y = sol.y[:, -1]
    out[first:] = filled
    return out


def grid_nodes(spec: dict) -> np.ndarray:
    from hessianls.core import RadialGrid

    grid = spec.get("grid", {})
    return RadialGrid.build(grid.get("r_max", 1e4), grid.get("r_lin", 10.0),
                            grid.get("nodes_per_decade", 48)).nodes


def build_reference(table_dir: str) -> dict:
    import workloads

    for name in workloads.TABLES:
        workloads.write_table(name, os.path.join(table_dir, name))
    out = {}
    for key, spec in workloads.SOLVE_CATALOG.items():
        r = grid_nodes(spec)
        u = reference_u(spec, spec["coefficient"], r, table_dir)
        tight = reference_u(spec, spec["coefficient"], r, table_dir, rtol=3e-14)
        out[key] = {"spec": spec, "r": [float(x) for x in r],
                    "u": [float(x) for x in u],
                    "self_error": float(np.max(np.abs(tight / u - 1.0)))}
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def main() -> int:
    import tempfile

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        ref = build_reference(tmp)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(ref, handle, indent=1)
        handle.write("\n")
    for key, item in ref.items():
        print(f"{key:14s} nodes {len(item['r']):4d}  self_error {item['self_error']:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
