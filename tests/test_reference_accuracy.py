"""Solver accuracy against an independent reference.

``perfbench/data/reference.json`` holds u on the grid of 8 specs, solved
without ``hessianls.solver`` (log-variable DOP853 at rtol 1e-13, tables
node to node, own error about 1e-10).  At the default tolerance the solver
must land within ten times ``rel`` of it on every spec, and tightening
``rel`` must tighten the error, so a solver that stops converging fails
here even while its curves still look smooth.
"""

import numpy as np
import pytest

from conftest import PERFBENCH, REFERENCE
from hessianls.cli import ProblemSpec
from hessianls.solver import solve_cauchy

RELS = (1e-6, 1e-7, 1e-8)


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_error_within_ten_rel_and_shrinking(key, table_dir):
    item = REFERENCE[key]
    spec = ProblemSpec.from_dict(item["spec"], base_dir=table_dir)
    profile, grid = spec.radial_profile(), spec.grid()
    np.testing.assert_allclose(grid.nodes, item["r"], rtol=1e-15, atol=0.0)
    ref_u = np.asarray(item["u"])
    errors = [float(np.max(np.abs(solve_cauchy(spec.params, profile, grid, rel_tol=rel).u
                                  / ref_u - 1.0)))
              for rel in RELS]
    assert errors[-1] <= 10.0 * RELS[-1], errors
    assert errors[0] > errors[1] > errors[2], errors


@pytest.mark.parametrize("n, k, gamma, r_max", [(3, 3, 2.9, 1e3), (20, 10, 9.5, 100.0)])
def test_flux_beyond_the_float_range_matches_the_reference(n, k, gamma, r_max):
    # M passes the largest float near r = 833 and r = 69 (where these solves
    # once stopped); the solver carries ln M, and so does the reference
    raw = {"n": n, "k": k, "gamma": gamma, "coefficient": {"kind": "constant", "value": 1.0},
           "grid": {"r_max": r_max}}
    spec = ProblemSpec.from_dict(raw)
    grid = spec.grid()
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(PERFBENCH)
        import reference

        ref_u = reference.reference_u(raw, raw["coefficient"], grid.nodes)
    u = solve_cauchy(spec.params, spec.radial_profile(), grid).u
    assert np.max(np.abs(u / ref_u - 1.0)) <= 10.0 * spec.tolerances["rel"]
