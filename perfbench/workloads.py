"""Seeded operation lists for the three benchmark workloads.

Every workload is a closed loop over *rounds*.  A round is a fixed mix of
operations whose parameters are drawn from the seed, so each round has the
same composition (the same number of sweep cells per (n, k), the same
high-gamma/k corner cells, the same operation kinds) and only the values
inside each stratum change.  Runs always finish the round they started,
which keeps the metrics of different seeds comparable.

The generator only builds plain dictionaries; nothing here imports the
package under test.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("radial-sweep", "field-comparison", "cli-cold")

# -- radial-sweep ------------------------------------------------------------

# (n, k) pairs of the sweep grid: both branches of the dimension rule
# (n <= 2k forces Large) and k from 1 to 3.
SWEEP_PAIRS = ((3, 1), (4, 2), (5, 2), (6, 3))

# gamma / k strata for the power_tail ops; together they cover (0, 1).
GAMMA_STRATA = ((0.05, 0.3), (0.3, 0.6), (0.6, 0.9), (0.9, 0.95))

# The high-gamma/k corner, gamma = 29k/30 (2.9 at k = 3).  The second
# constant-coefficient op of every (n, k) carries one cell here; at k = 3 and
# r_max above about 1.1e3 it grinds for many seconds and ends in
# IntegrationError, which the benchmark counts as a failed cell.  It is never
# filtered out.
CORNER_GAMMA_FRACTION = 29.0 / 30.0

R_MAX_RANGE = (1e3, 1e5)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.4g}")


def _slot(rng: random.Random, lo: float, hi: float, index: int, count: int,
          log: bool = False, digits: int = 4) -> float:
    """A value from the ``index``-th of ``count`` equal sub-intervals of
    [lo, hi] (of [log lo, log hi] when ``log``)."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    x = lo + (hi - lo) * (index % count + rng.random()) / count
    return float(f"{math.exp(x) if log else x:.{digits}g}")


def _sweep_round(rng: random.Random, index: int):
    """Per (n, k): three power_tail ops per gamma stratum, each varying l
    across l <= k - 1 (rates fitted), k - 1 < l <= 2k and 2k < l <= 2k + 2;
    and two constant-coefficient ops varying gamma, the second one holding
    the corner.  Each op owns fixed sub-intervals of gamma, l and r_max; the
    seed draws inside them and shuffles the order."""
    pairs, strata, repeats = len(SWEEP_PAIRS), len(GAMMA_STRATA), 3
    slots = repeats * strata
    ops = []
    for p, (n, k) in enumerate(SWEEP_PAIRS):
        for s, (lo, hi) in enumerate(GAMMA_STRATA):
            for h in range(repeats):
                j = s + strata * h
                low = 0.0 if k == 1 else _slot(rng, 0.0, k - 1.0, j, slots, digits=3)
                ops.append({
                    "kind": "sweep",
                    "template": {"n": n, "k": k, "a": 1.0,
                                 "gamma": round(_slot(rng, lo, hi, repeats * p + h,
                                                      repeats * pairs) * k, 4),
                                 "coefficient": {"kind": "power_tail", "l": 0.0},
                                 "grid": {"r_max": _slot(rng, *R_MAX_RANGE,
                                                         5 * p + 3 * j,
                                                         pairs * slots, log=True)}},
                    "vary": [["l", [low,
                                    _slot(rng, k - 0.95, 2.0 * k, p + j, slots,
                                          digits=3),
                                    _slot(rng, 2.0 * k + 0.05, 2.0 * k + 2.0,
                                          p + 3 * j, slots, digits=3)]]],
                })
        gammas = [round(_slot(rng, lo, hi, p, pairs) * k, 4)
                  for lo, hi in GAMMA_STRATA[:3]]
        gammas.append(round(CORNER_GAMMA_FRACTION * k, 4))
        for half, values in enumerate((gammas[:2], gammas[2:])):
            ops.append({
                "kind": "sweep",
                "template": {"n": n, "k": k, "gamma": values[0], "a": 1.0,
                             "coefficient": {"kind": "constant", "value": 1.0},
                             "grid": {"r_max": _slot(rng, 1.2e3, R_MAX_RANGE[1],
                                                     3 * p + 5 * half, 2 * pairs,
                                                     log=True)}},
                "vary": [["gamma", values]],
            })
    rng.shuffle(ops)
    return ops


def sweep_warmup():
    """Cheap fixed op used during set-up (no grinding cell)."""
    return {"kind": "sweep",
            "template": {"n": 4, "k": 2, "gamma": 0.5, "a": 1.0,
                         "coefficient": {"kind": "power_tail", "l": 0.0},
                         "grid": {"r_max": 1e4}},
            "vary": [["l", [0.5, 3.0]]]}


# -- field-comparison ----------------------------------------------------------

# (n, k) with n > 2k, so the oscillation threshold m* decides the status.
FIELD_PAIRS = ((3, 1), (5, 2), (7, 3))


def m_star(k: int, gamma: float, l: float) -> float:
    """Oscillation threshold m* = l + (2k - l) k / (k - gamma)."""
    return l + (2.0 * k - l) * k / (k - gamma)


def _anisotropic(rng: random.Random, pair, role: int, r_max: float):
    """Anisotropic field spec; even roles put m above m*, odd roles below.
    Each role owns a sub-interval of gamma, l and the distance to m*."""
    n, k = pair
    gamma = round(_slot(rng, 0.2, 0.7, role, 4) * k, 4)
    l = _slot(rng, 0.0, 1.5 * k, role + 1, 4, digits=3)
    threshold = m_star(k, gamma, l)
    offset = _slot(rng, 0.5, 3.0, role + 2, 4)
    m = round(threshold + offset if role % 2 == 0 else max(0.5, threshold - offset), 3)
    return {"n": n, "k": k, "gamma": gamma, "a": 1.0,
            "coefficient": {"kind": "builtin_field", "name": "anisotropic_power",
                            "l": l, "m": m, "amp": _slot(rng, 0.2, 1.0, role, 4, digits=3),
                            "dim": n},
            "grid": {"r_max": r_max, "nodes_per_decade": 32}}


def _counterexample(rng: random.Random, k: int, r_max: float):
    gamma = round(rng.uniform(0.2, 0.8) * k, 4)
    return {"n": 3, "k": k, "gamma": gamma, "a": 1.0,
            "coefficient": {"kind": "builtin_field", "name": "counterexample"},
            "grid": {"r_max": r_max, "nodes_per_decade": 16}}


# Break-line families whose doubling stops at the same segment count for
# every draw (257 segments at epsilon 1e-3 for both, 33 at 1e-2 for (4, 2)),
# so seeds differ in values but not in work.
BREAKLINE_FAMILIES = {
    (3, 1): {"gamma": (0.4, 0.6), "value": (0.8, 1.2), "l": (0.0, 2.0)},
    (4, 2): {"gamma": (0.6, 1.4), "value": (0.8, 1.2)},
}


def _breakline(rng: random.Random, pair, epsilon: float):
    family = BREAKLINE_FAMILIES[pair]
    if "l" in family and rng.random() < 0.5:
        coef = {"kind": "power_tail", "l": round(rng.uniform(*family["l"]), 3)}
    else:
        coef = {"kind": "constant", "value": round(rng.uniform(*family["value"]), 3)}
    return {"kind": "breakline", "n": pair[0], "k": pair[1],
            "gamma": round(rng.uniform(*family["gamma"]), 4), "a": 1.0,
            "coefficient": coef, "r_end": round(rng.uniform(0.45, 0.55), 3),
            "epsilon": epsilon}


def _field_round(rng: random.Random, index: int):
    """Per (n, k) in FIELD_PAIRS: classify with m above and below m*, one
    automatic and one refused sandwich; plus a counterexample classify, a
    forced counterexample sandwich and three break lines."""
    count = 4 * len(FIELD_PAIRS)
    ops = []
    for p, pair in enumerate(FIELD_PAIRS):
        def spec(role):
            r_max = _slot(rng, 1e2, 1e4, 5 * p + 3 * role, count, log=True)
            return _anisotropic(rng, pair, role, r_max)
        ops += [
            {"kind": "classify", "spec": spec(0)},
            {"kind": "classify", "spec": spec(1)},
            {"kind": "sandwich", "mode": "auto", "spec": spec(2)},
            {"kind": "sandwich", "mode": "refused", "spec": spec(3)},
        ]
    # The forced counterexample pair stays ordered (exit 0) for r_max <= 200;
    # beyond, v overtakes w and the build ends in OrderingError (exit 4).
    ops += [
        {"kind": "classify", "spec": _counterexample(
            rng, 1 + index % 3, _log_uniform(rng, 1e2, 1e3))},
        {"kind": "sandwich", "mode": "forced",
         "spec": _counterexample(rng, 1, _log_uniform(rng, 1e2, 2e2)),
         "beta": _log_uniform(rng, 2e4, 1e5)},
        _breakline(rng, (4, 2), 1e-2),
        _breakline(rng, (3, 1), 1e-3),
        _breakline(rng, (4, 2), 1e-3),
    ]
    rng.shuffle(ops)
    return ops


def field_warmup():
    return {"kind": "classify",
            "spec": {"n": 3, "k": 1, "gamma": 0.5, "a": 1.0,
                     "coefficient": {"kind": "builtin_field", "name": "counterexample"},
                     "grid": {"r_max": 100.0, "nodes_per_decade": 16}}}


# -- cli-cold --------------------------------------------------------------------

# Curve-producing specs.  ``reference.py`` solves every one of them
# independently; keep the two in step (``data/reference.json`` is keyed by
# these ids).  ``tabulated`` entries name a TABLES entry written by the
# benchmark as CSV.
SOLVE_CATALOG = {
    "c2-power": {"n": 4, "k": 2, "gamma": 1.0, "a": 1.0,
                 "coefficient": {"kind": "power_tail", "l": 1.0},
                 "grid": {"r_max": 1e5}},
    "k1-constant": {"n": 3, "k": 1, "gamma": 0.5, "a": 2.0,
                    "coefficient": {"kind": "constant", "value": 1.0},
                    "grid": {"r_max": 1e4}},
    "k2-midtail": {"n": 5, "k": 2, "gamma": 0.6, "a": 1.0,
                   "coefficient": {"kind": "power_tail", "l": 3.0},
                   "grid": {"r_max": 1e4}},
    "k3-power": {"n": 6, "k": 3, "gamma": 1.5, "a": 1.0,
                 "coefficient": {"kind": "power_tail", "l": 0.5},
                 "grid": {"r_max": 1e4}},
    "k1-perturbed": {"n": 4, "k": 1, "gamma": 0.3, "a": 0.5,
                     "coefficient": {"kind": "power_tail", "l": 1.2, "A": 0.5,
                                     "m": 3.0, "r0": 2.0},
                     "grid": {"r_max": 1e4}},
    "k2-bounded": {"n": 7, "k": 2, "gamma": 1.2, "a": 1.0,
                   "coefficient": {"kind": "power_tail", "l": 5.0, "scale": 3.0},
                   "grid": {"r_max": 1e4}},
    "tab-k1": {"n": 3, "k": 1, "gamma": 0.5, "a": 1.0,
               "coefficient": {"kind": "tabulated", "path": "wavy-k1.csv",
                               "tail_exponent": 0.8},
               "grid": {"r_max": 1e4}},
    "tab-k2": {"n": 5, "k": 2, "gamma": 1.0, "a": 1.0,
               "coefficient": {"kind": "tabulated", "path": "wavy-k2.csv",
                               "tail_exponent": 1.5},
               "grid": {"r_max": 1e4}},
}

# name -> (tail exponent, table end radius, node count, wiggle amplitude)
TABLES = {
    "wavy-k1.csv": (0.8, 2e3, 400, 0.2),
    "wavy-k2.csv": (1.5, 1e4, 300, 0.3),
}


def table_rows(name: str):
    """Rows (r, b) of a tabulated coefficient: a smooth power tail with a
    logarithmic wiggle, b(r) = (1 + r^2)^(-l/2) (1 + w sin(2 ln(1 + r)))."""
    tail, r_end, count, wiggle = TABLES[name]
    rows = []
    for i in range(count):
        r = 0.0 if i == 0 else r_end ** (i / (count - 1.0)) - 1.0 + 1e-3 * i / count
        b = (1.0 + r * r) ** (-tail / 2.0) * (1.0 + wiggle * math.sin(2.0 * math.log1p(r)))
        rows.append((float(f"{r:.12g}"), float(f"{b:.12g}")))
    rows.sort()
    return rows


def write_table(name: str, path: str) -> None:
    with open(path, "w") as handle:
        handle.write("r,b\n")
        for r, b in table_rows(name):
            handle.write(f"{r!r},{b!r}\n")


_CLOSED_SOLVES = [key for key, spec in SOLVE_CATALOG.items()
                  if spec["coefficient"]["kind"] != "tabulated"]
_TABLE_SOLVES = [key for key, spec in SOLVE_CATALOG.items()
                 if spec["coefficient"]["kind"] == "tabulated"]


def _radial_classify(rng: random.Random):
    n, k = rng.choice(((3, 1), (4, 2), (5, 2), (6, 3), (7, 3)))
    gamma = round(rng.uniform(0.1, 0.9) * k, 4)
    l = round(rng.uniform(0.0, 2.0 * k + 2.0), 3)
    if abs(l - 2.0 * k) < 0.05:
        l = round(2.0 * k + 0.5, 3)
    return {"n": n, "k": k, "gamma": gamma, "a": 1.0,
            "coefficient": {"kind": "power_tail", "l": l},
            "grid": {"r_max": _log_uniform(rng, 1e3, 1e5)}}


def _cli_round(rng: random.Random, index: int):
    closed = rng.sample(_CLOSED_SOLVES, 2)
    ops = [
        {"kind": "solve", "catalog": closed[0]},
        {"kind": "solve", "catalog": closed[1]},
        {"kind": "solve", "catalog": rng.choice(_TABLE_SOLVES)},
        {"kind": "classify", "spec": _radial_classify(rng)},
        {"kind": "classify", "spec": _anisotropic(
            rng, rng.choice(FIELD_PAIRS), rng.randrange(4), _log_uniform(rng, 1e2, 1e4))},
        {"kind": "sandwich", "mode": "auto", "spec": _anisotropic(
            rng, rng.choice(FIELD_PAIRS), 2 * rng.randrange(2), _log_uniform(rng, 1e2, 1e4))},
        {"kind": "verify"},
    ]
    rng.shuffle(ops)
    return ops


def cli_warmup():
    return {"kind": "solve", "catalog": "k1-constant"}


# -- public entry points -------------------------------------------------------

_ROUNDS = {"radial-sweep": _sweep_round, "field-comparison": _field_round,
           "cli-cold": _cli_round}
_WARMUPS = {"radial-sweep": sweep_warmup, "field-comparison": field_warmup,
            "cli-cold": cli_warmup}


def make_round(workload: str, seed: int, index: int):
    """The ``index``-th round of ``workload`` for ``seed`` (a list of ops)."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _ROUNDS[workload](rng, index)
    for pos, op in enumerate(ops):
        op["id"] = f"r{index}.{pos}"
    return ops


def warmup_op(workload: str):
    op = _WARMUPS[workload]()
    op["id"] = "warmup"
    return op
