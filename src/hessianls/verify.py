"""Self-contained invariant suite behind ``hessianls verify``.

Each invariant is a deterministic, fast check of a mathematical property
the package relies on (oracle identities, monotone comparisons,
conservation).  The suite is what an installation smoke test runs; the
pytest tree covers the same ground more exhaustively.

All checks call into the library through module attributes (for example
``core.sigma_j_radial``) so that an injected defect in a single operation
is observable here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import asymptotics, coefficients, core, criteria, envelope, sandwich, solver
from .core import ProblemParams, RadialGrid


@dataclass
class InvariantResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def _check(results, name, fn):
    try:
        detail = fn()
        results.append(InvariantResult(name, True, detail or "ok"))
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        results.append(InvariantResult(name, False, f"{type(exc).__name__}: {exc}"))


# ---------------------------------------------------------------------------
# individual invariants
# ---------------------------------------------------------------------------

def _pascal_rule():
    for n in range(1, 21):
        for k in range(1, n + 1):
            lhs = core.binomial(n, k)
            rhs = core.binomial(n - 1, k - 1) + core.binomial(n - 1, k)
            assert lhs == rhs, f"Pascal rule fails at ({n}, {k})"
    return "C(n,k) = C(n-1,k-1) + C(n-1,k) for n <= 20"


def _sigma_identity_spectrum():
    for n in range(3, 9):
        for j in range(1, n + 1):
            for t in (0.5, 1.0, 2.0):
                val = core.sigma_j_radial(j, t, t, n)
                expect = core.binomial(n, j) * t ** j
                assert math.isclose(val, expect, rel_tol=1e-12), (n, j, t)
    return "identity spectrum collapses to C(n,j) t^j"


def _profile_unit():
    prof = coefficients.RadialProfile.power_tail(l=0.0)
    r = np.geomspace(1e-3, 1e6, 40)
    assert np.allclose(prof(r), 1.0, rtol=1e-12)
    return "power tail with l = 0 is identically one"


def _radialize_radial_field():
    field = coefficients.AnisotropicPowerField(l=1.0, m=4.0, amp=0.0, dim=4)
    grid = RadialGrid.build(100.0, nodes_per_decade=16)
    triple = coefficients.radialize(field, grid, sphere_count=64)
    rel = np.max(np.abs(triple.b_upper.values - triple.b_star.values)
                 / triple.b_star.values)
    assert rel <= 1e-12, f"radial field produced envelope split {rel:g}"
    assert triple.osc_negligible()
    return f"radial field: envelopes agree to {rel:.2g}"


def _envelope_refinement():
    field = coefficients.make_builtin_field("counterexample")
    grid = RadialGrid.build(50.0, nodes_per_decade=12)
    coarse = coefficients.radialize(field, grid, sphere_count=64)
    fine = coefficients.radialize(field, grid, sphere_count=128)
    assert np.all(fine.b_star.values <= coarse.b_star.values + 1e-15)
    assert np.all(fine.b_upper.values >= coarse.b_upper.values - 1e-15)
    return "doubling the sphere sample only widens the envelopes"


def _solver_comparison():
    params = ProblemParams(n=4, k=2, gamma=1.0, a=1.0)
    grid = RadialGrid.build(200.0, nodes_per_decade=24)
    b1 = coefficients.RadialProfile.power_tail(l=1.0)
    b2 = b1.scaled(1.5)
    u1 = solver.solve_cauchy(params, b1, grid)
    u2 = solver.solve_cauchy(params.with_center(1.3), b2, grid)
    assert np.all(u2.u >= u1.u - 1e-9 * u2.u), "monotone comparison failed"
    return "larger coefficient and center give a larger solution"


def _solver_consistency():
    params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
    grid = RadialGrid.build(1e3, nodes_per_decade=24)
    b = coefficients.RadialProfile.constant(1.0)
    curve = solver.solve_cauchy(params, b, grid)
    resid = solver.residual_max(curve, params, b)
    cons = solver.conservation_defect(curve, params, b)
    member = core.gamma_k_membership(curve, params)
    assert resid < 1e-6, f"residual {resid:g}"
    assert cons < 1e-6, f"conservation defect {cons:g}"
    assert bool(np.all(member)), "curve left the admissible cone"
    return f"residual {resid:.2g}, conservation defect {cons:.2g}, cone ok"


def _series_start():
    params = ProblemParams(n=3, k=1, gamma=0.5, a=2.0)
    grid = RadialGrid.build(10.0, nodes_per_decade=24)
    b = coefficients.RadialProfile.constant(1.0)
    curve = solver.solve_cauchy(params, b, grid)
    c2 = (b(0.0) * params.a ** params.gamma / params.cnk) ** (1.0 / params.k)
    # k = 1: Laplace's u = a + c2 r^2/2 + gamma a^(gamma-1) c2 r^4 / (8 (n+2)) + ...
    series = curve.dense.series
    quadratic, quartic = (series.a * series.u_coeffs[i] / series.length ** i for i in (2, 4))
    assert math.isclose(quadratic, 0.5 * c2, rel_tol=1e-13), (quadratic, c2)
    expect = params.gamma * params.a ** (params.gamma - 1.0) * c2 / (8.0 * (params.n + 2))
    assert math.isclose(quartic, expect, rel_tol=1e-13), (quartic, expect)
    r = grid.nodes[1]
    expect = params.a + 0.5 * c2 * r * r
    got = curve.u[1]
    assert abs(got - expect) <= 1e-4 * abs(expect), (got, expect)
    return "quadratic start matches (b(0) a^gamma / C(n,k))^(1/k)"


def _linear_growth_oracle():
    params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
    grid = RadialGrid.build(50.0, nodes_per_decade=24)
    b = coefficients.RadialProfile.constant(1.0)
    ubar = solver.solve_linear_rhs(params, b, grid)
    expect = grid.nodes ** 2 / 6.0
    assert np.allclose(ubar, expect, rtol=1e-9, atol=1e-12)
    jval = criteria.keller_osserman_integrand(b, 9.0, params)
    assert math.isclose(jval, 3.0, rel_tol=1e-9)
    return "ubar = r^2/6 and J(r) = r/3 for b = 1, k = 1, n = 3"


def _btilde_oracle():
    params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
    b = coefficients.RadialProfile.constant(1.0)
    s = np.array([0.0, 1.0, 2.5])
    got = envelope.compute_b_tilde(b, s, params)
    expect = 1.0 + s ** 2 / 6.0
    assert np.allclose(got, expect, rtol=1e-8)
    return "btilde = (1 + s^2/6) for b = 1, k = 1, n = 3, gamma = 1/2"


def _classification_thresholds():
    params = ProblemParams(n=7, k=2, gamma=1.0, a=1.0)
    for l, expect in ((3.5, criteria.LARGE), (4.0, criteria.LARGE),
                      (4.5, criteria.BOUNDED)):
        prof = coefficients.RadialProfile.power_tail(l=l)
        verdict, _ = criteria.existence_verdict(prof, params)
        assert verdict == expect, (l, verdict)
        scaled, _ = criteria.existence_verdict(prof.scaled(7.0), params)
        assert scaled == expect, "verdict not scale invariant"
    return "power tails flip Large -> Bounded across l = 2k, scale invariant"


def _oscillation_threshold():
    for k, n in ((1, 4), (2, 6), (3, 8)):
        for gam_frac in (0.3, 0.6):
            for l_frac in (0.0, 0.5):
                params = ProblemParams(n=n, k=k, gamma=gam_frac * k, a=1.0)
                l = l_frac * k
                m_star = criteria.oscillation_threshold(params, l)
                expect = (2.0 * k * k - l * params.gamma) / (k - params.gamma)
                assert math.isclose(m_star, expect, rel_tol=1e-12)
                for delta, want in ((0.5, "satisfied"), (-0.5, "violated")):
                    triple = coefficients.RadializedTriple(
                        b_star=coefficients.RadialProfile.power_tail(l=l),
                        b_upper=coefficients.RadialProfile.power_tail(l=l),
                        b_osc=coefficients.RadialProfile.power_tail(l=m_star + delta),
                    )
                    status = criteria.oscillation_verdict(triple, params)[0]
                    assert status == want, (k, n, l, delta, status)
    return "m* matches (2k^2 - l gamma)/(k - gamma); +-0.5 flips the verdict"


def _bounded_bound():
    params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
    b = coefficients.RadialProfile.constant(1.0)
    r = np.array([0.0, 2.0, 5.0])
    got = criteria.bounded_solution_bound(params, b, r)
    expect = (1.0 + r ** 2 / 12.0) ** 2
    assert np.allclose(got, expect, rtol=1e-8)
    return "closed-form bound (1 + r^2/12)^2 reproduced"


def _dominance():
    params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
    grid = RadialGrid.build(500.0, nodes_per_decade=24)
    b = coefficients.RadialProfile.constant(1.0)
    curve = solver.solve_cauchy(params, b, grid)
    bound = sandwich.bounded_dominance_bound(params, b, grid.nodes)
    assert np.all(curve.u <= bound * (1.0 + 1e-8)), "dominance bound violated"
    return "solution stays under the frozen-right-hand-side dominance bound"


def _sandwich_radial():
    params = ProblemParams(n=5, k=2, gamma=1.0, a=1.0)
    grid = RadialGrid.build(100.0, nodes_per_decade=20)
    field = coefficients.AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)
    triple = coefficients.radialize(field, grid, sphere_count=64)
    report = sandwich.build_sandwich(triple, params, grid)
    assert report.min_margin >= 0.0
    assert report.envelope_excess <= 1e-8
    return (f"sandwich holds with beta = {report.beta:.3g}, "
            f"min margin {report.min_margin:.3g}")


def _breakline():
    params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
    b = coefficients.RadialProfile.constant(1.0)
    line = solver.euler_polyline(params, b, r_end=0.5, epsilon=1e-2)
    assert line.r_flat > 0 and np.all(line.values[line.radii <= line.r_flat]
                                      == params.a)
    defect = solver.breakline_defect(line, params, b)
    assert defect < line.epsilon
    return f"flat head to r = {line.r_flat:.3g}, sampled defect {defect:.2g}"


def _power_solution():
    params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
    ps = asymptotics.exact_power_solution(params, l=0.0)
    assert math.isclose(ps.alpha, 4.0, rel_tol=1e-14)
    assert math.isclose(ps.amplitude, 1.0 / 400.0, rel_tol=1e-14)
    r = np.geomspace(1.0, 1e4, 61)
    assert np.max(np.abs(ps.residual(r))) < 1e-12
    fit = asymptotics.fit_exponent(r, ps.u(r))
    assert abs(fit.exponent - 4.0) < 1e-10
    return "u = r^4/400 solves the k = 1 model exactly; fit recovers alpha = 4"


_INVARIANTS = (
    ("pascal_rule", _pascal_rule),
    ("sigma_identity_spectrum", _sigma_identity_spectrum),
    ("profile_unit", _profile_unit),
    ("radialize_radial_field", _radialize_radial_field),
    ("envelope_refinement", _envelope_refinement),
    ("solver_comparison", _solver_comparison),
    ("solver_consistency", _solver_consistency),
    ("series_start", _series_start),
    ("linear_growth_oracle", _linear_growth_oracle),
    ("btilde_oracle", _btilde_oracle),
    ("classification_thresholds", _classification_thresholds),
    ("oscillation_threshold", _oscillation_threshold),
    ("bounded_bound", _bounded_bound),
    ("dominance", _dominance),
    ("sandwich_radial", _sandwich_radial),
    ("breakline", _breakline),
    ("power_solution", _power_solution),
)


def run_all():
    """Run every invariant; returns a list of InvariantResult in a fixed
    order (the suite is deterministic end to end)."""
    results = []
    for name, fn in _INVARIANTS:
        _check(results, name, fn)
    return results
