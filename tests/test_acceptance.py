"""End-to-end acceptance criteria for the package.

Each criterion prints one ``[acceptance] ... PASS/FAIL`` line as it runs
(see ``conftest.criterion``).  The criteria pin concrete numbers and
tolerances; they are ordered, and the final criterion audits every solver
curve produced by the earlier ones.

Criterion 8 has two clauses.  The first (operator residual of the known
non-radial solution) passes.  The second (that the known solution is
contained between the radial envelope pair) fails and is expected to
fail; its docstring explains the analytic obstruction.  No other test in
the repository is allowed to be red.
"""

import time

import numpy as np
import pytest

from hessianls.asymptotics import exact_power_solution, verify_rates
from hessianls.coefficients import (
    QuadraticRootField,
    RadialProfile,
    RadializedTriple,
    radialize,
    ray_directions,
    triple_from_radial,
)
from hessianls.core import ProblemParams, RadialGrid, gamma_k_membership
from hessianls.criteria import (
    BOUNDED,
    LARGE,
    bounded_solution_bound,
    classify_existence,
    oscillation_condition,
    oscillation_threshold,
)
from hessianls.envelope import EnvelopeTables
from hessianls.sandwich import bounded_dominance_bound, build_sandwich
from hessianls.solver import (
    breakline_defect,
    euler_polyline,
    residual_max,
    solve_cauchy,
)

from conftest import criterion

# Every radial curve solved by the criteria below is appended here as
# (label, curve, params, profile); criterion 10 audits them all.
_TRACKED = []


def _solve_tracked(label, params, profile, grid, **kw):
    curve = solve_cauchy(params, profile, grid, **kw)
    _TRACKED.append((label, curve, params, profile))
    return curve


def test_c01_exact_power_oracles():
    """Closed-form power solutions: u = r^4/400 for (n,k,gamma,l) =
    (3,1,1/2,0) and u = r^3/45 for (3,2,1,1); operator residual below
    1e-10 at 50 radii spanning [1, 1e4]."""
    with criterion("criterion 1 (exact power oracles)"):
        radii = np.geomspace(1.0, 1e4, 50)

        sol_a = exact_power_solution(ProblemParams(n=3, k=1, gamma=0.5), 0.0)
        assert sol_a.alpha == pytest.approx(4.0, rel=1e-12)
        assert sol_a.amplitude == pytest.approx(1.0 / 400.0, rel=1e-12)
        assert np.max(np.abs(sol_a.residual(radii))) < 1e-10

        sol_b = exact_power_solution(ProblemParams(n=3, k=2, gamma=1.0), 1.0)
        assert sol_b.alpha == pytest.approx(3.0, rel=1e-12)
        assert sol_b.amplitude == pytest.approx(1.0 / 45.0, rel=1e-12)
        assert np.max(np.abs(sol_b.residual(radii))) < 1e-10


def test_c02_growth_rate_ladder():
    """Solving k=2, n=4, gamma=1 with b = (1+r^2)^(-1/2) out to r = 1e5
    reproduces the rate ladder (3, 2, 1) for (u, u', u'') within 3%,
    in under 30 seconds."""
    with criterion("criterion 2 (asymptotic rate ladder)"):
        params = ProblemParams(n=4, k=2, gamma=1.0)
        profile = RadialProfile.power_tail(1.0)
        start = time.time()
        curve = _solve_tracked("c02", params, profile, RadialGrid.build(1e5))
        elapsed = time.time() - start
        assert elapsed < 30.0
        report = verify_rates(curve, params, 1.0)
        assert report.status == "ok"
        assert report.fits["u"].exponent == pytest.approx(3.0, rel=0.03)
        assert report.fits["du"].exponent == pytest.approx(2.0, rel=0.03)
        assert report.fits["d2u"].exponent == pytest.approx(1.0, rel=0.03)


def test_c03_amplitude_attractor():
    """For k=1, n=3, gamma=1/2 and constant b = 1 the solution forgets its
    center value: u(r)/r^4 approaches 1/400 (within 5% at r = 1e5)."""
    with criterion("criterion 3 (universal amplitude)"):
        params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
        profile = RadialProfile.constant(1.0)
        curve = _solve_tracked("c03", params, profile, RadialGrid.build(1e5))
        amplitude = curve.u[-1] / 1e5**4
        assert amplitude == pytest.approx(1.0 / 400.0, rel=0.05)


def test_c04_classification_threshold():
    """The Large/Bounded verdict flips exactly at tail exponent 2k: for
    (k,n) in {(1,3),(2,5)}, l in {2k-1/2, 2k} is Large and l = 2k+1/2 is
    Bounded.  The bounded side is confirmed numerically for k=1, l=5/2:
    by r = 3e7 the solution sits below its closed-form ceiling and gains
    less than 1e-3 of its value over the last decade."""
    with criterion("criterion 4 (existence threshold)"):
        for k, n in ((1, 3), (2, 5)):
            params = ProblemParams(n=n, k=k, gamma=0.5 * k)
            for l, expected in ((2 * k - 0.5, LARGE), (2.0 * k, LARGE),
                                (2 * k + 0.5, BOUNDED)):
                verdict = classify_existence(EnvelopeTables(
                    params, triple_from_radial(RadialProfile.power_tail(l)), 100.0))
                assert verdict.verdict == expected, (k, n, l)

        params = ProblemParams(n=3, k=1, gamma=0.5)
        profile = RadialProfile.power_tail(2.5)
        grid = RadialGrid.build(3e7, nodes_per_decade=32)
        curve = _solve_tracked("c04", params, profile, grid)
        r, u = grid.nodes, curve.u
        ceiling = bounded_solution_bound(params, profile, r[-1])
        assert u[-1] <= ceiling * (1 + 1e-8)
        last_decade_gain = u[-1] - u[np.searchsorted(r, r[-1] / 10.0)]
        assert last_decade_gain < 1e-3 * u[-1]


def test_c05_oscillation_threshold_grid():
    """Across the 5x5x5 grid k in 1..5, gamma = k*{0.15,...,0.95},
    l = k*{0,...,0.8} (with n = 2k+2), the oscillation threshold equals
    (2k^2 - l*gamma)/(k - gamma) to 1e-12, and the smallness verdict
    flips between m = m* - 1/2 (violated) and m = m* + 1/2 (satisfied)."""
    with criterion("criterion 5 (oscillation threshold grid)"):
        for k in range(1, 6):
            n = 2 * k + 2
            for gfrac in (0.15, 0.35, 0.55, 0.75, 0.95):
                gamma = gfrac * k
                params = ProblemParams(n=n, k=k, gamma=gamma)
                for lfrac in (0.0, 0.2, 0.4, 0.6, 0.8):
                    l = lfrac * k
                    m_star = oscillation_threshold(params, l)
                    closed = (2.0 * k**2 - l * gamma) / (k - gamma)
                    assert m_star == pytest.approx(closed, rel=1e-12), (k, gamma, l)
                    star = RadialProfile.power_tail(l)
                    for m, expected in ((m_star + 0.5, "satisfied"),
                                        (m_star - 0.5, "violated")):
                        triple = RadializedTriple(
                            star, RadialProfile.power_tail(l, m=m, A=0.5),
                            RadialProfile.power_tail(m, scale=0.5))
                        report = oscillation_condition(EnvelopeTables(params, triple, 500.0))
                        assert report.status == expected, (k, gamma, l, m)


def test_c06_randomized_comparison():
    """25 seeded random parameter draws: raising the coefficient by a
    factor c >= 1 and the center value by delta >= 0 never lowers the
    solution anywhere on a shared grid (tolerance 1e-9 relative)."""
    with criterion("criterion 6 (randomized comparison)"):
        rng = np.random.default_rng(20260823)
        grid = RadialGrid.build(1e3, nodes_per_decade=25)
        for trial in range(25):
            k = int(rng.integers(1, 4))
            n = k + int(rng.integers(2, 5))
            n = max(n, 3)
            gamma = k * rng.uniform(0.1, 0.9)
            a1 = rng.uniform(0.5, 2.0)
            l = rng.uniform(0.0, 2.0 * k)
            scale = rng.uniform(0.5, 2.0)
            c = 1.0 if rng.random() < 0.3 else rng.uniform(1.05, 1.6)
            delta = 0.0 if rng.random() < 0.3 else rng.uniform(0.05, 0.5) * a1

            p1 = ProblemParams(n=n, k=k, gamma=gamma, a=a1)
            p2 = p1.with_center(a1 + delta)
            b1 = RadialProfile.power_tail(l, scale=scale)
            b2 = b1.scaled(c) if c != 1.0 else b1
            u1 = solve_cauchy(p1, b1, grid).u
            u2 = solve_cauchy(p2, b2, grid).u
            assert np.all(u2 >= u1 - 1e-9 * u2), (
                trial, k, n, gamma, c, delta,
                float(np.min((u2 - u1) / np.maximum(u2, 1e-300))),
            )


def test_c07_dominance_bound():
    """Ten parameter sets: every radial solve stays below the
    frozen-right-hand-side dominance bound
    2^(gamma/(k-gamma)) (a + ubar^(k/(k-gamma)))."""
    with criterion("criterion 7 (dominance bound)"):
        cases = [
            (3, 1, 0.5, 0.0, 1.0, 1.0),
            (3, 1, 0.25, 1.5, 2.0, 0.5),
            (3, 1, 0.8, 2.0, 0.5, 2.0),
            (4, 1, 0.5, 1.0, 1.0, 1.0),
            (4, 2, 1.0, 0.0, 1.0, 1.0),
            (5, 2, 0.5, 1.0, 1.5, 1.0),
            (5, 2, 1.5, 3.0, 1.0, 0.7),
            (6, 3, 2.0, 0.5, 1.0, 1.0),
            (6, 2, 1.2, 2.5, 0.8, 1.3),
            (7, 3, 1.0, 4.0, 1.0, 1.0),
        ]
        grid = RadialGrid.build(200.0, nodes_per_decade=24)
        for n, k, gamma, l, a, scale in cases:
            params = ProblemParams(n=n, k=k, gamma=gamma, a=a)
            profile = RadialProfile.power_tail(l, scale=scale)
            curve = solve_cauchy(params, profile, grid)
            bound = bounded_dominance_bound(params, profile, grid.nodes)
            assert np.all(curve.u <= bound * (1 + 1e-8)), (n, k, gamma, l)


_C8_FIELD = QuadraticRootField(weights=(2.0, 1.0, 1.0), shift=1.0, amp=8.0)
_C8_PARAMS = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)


def test_c08a_counterexample_is_exact():
    """The anisotropic coefficient b(x) = 8 (2x_1^2 + x_2^2 + x_3^2 + 1)^(-1/2)
    admits the entire solution u(x) = 2x_1^2 + x_2^2 + x_3^2 + 1 of
    Delta u = b u^(1/2): operator residual below 1e-12 at 100 sampled
    points."""
    with criterion("criterion 8a (non-radial exact solution)"):
        rays = ray_directions(3, 10)
        radii = np.geomspace(1e-2, 1e3, 10)
        pts = np.array([r * d for d in rays for r in radii])
        assert pts.shape[0] == 100
        u = _C8_FIELD.exact_solution(pts)
        sigma1 = float(_C8_FIELD.exact_hessian_eigenvalues().sum())
        residual = sigma1 - _C8_FIELD.eval(pts) * u**0.5
        assert np.max(np.abs(residual)) < 1e-12


def test_c08b_counterexample_containment():
    """EXPECTED TO FAIL (and must fail honestly, not be weakened).

    Claim under test: the known non-radial solution u lies between the
    radial envelope pair, v <= u <= w along rays out to r = 1e3, where v
    solves the radial problem for the spherical maximum b^* with v(0) =
    u(0) = 1 and w solves it for the spherical minimum b_* with a large
    center w(0) = beta = 2.2e6.

    Why this cannot hold: v is a subsolution of the full equation, and
    comparison arguments produce SOME entire solution above it -- they do
    not place every solution above it.  Concretely, near the origin
    v''(0) = b^*(0) v(0)^(1/2) / 3 = 8/3, while along the slow rays
    (x_1 = 0) the known solution has radial second derivative 2: v
    overtakes u already at r ~ 0.1 (v ~ 1 + 4r^2/3 vs u = 1 + r^2) and at
    the far end v(1e3) ~ 1.8e6 exceeds the slow-ray value u = 1e6 + 1.
    The upper clause u <= w does hold (w >= beta > max u on the window);
    the lower clause is the analytic obstruction: an oscillation with
    envelope tails b^*/b_* ~ 1/r is far below the smallness threshold
    m* = 3, and no radial subsolution built from b^* can stay under every
    solution of the anisotropic equation."""
    with criterion("criterion 8b (envelope containment of the known solution)"):
        grid = RadialGrid.build(1e3, nodes_per_decade=24)
        triple = radialize(_C8_FIELD, grid, sphere_count=256)
        report = build_sandwich(triple, _C8_PARAMS, grid, beta=2.2e6)
        _TRACKED.append(("c08b-v", report.v, _C8_PARAMS.with_center(1.0),
                         triple.b_upper))
        _TRACKED.append(("c08b-w", report.w, _C8_PARAMS.with_center(report.beta),
                         triple.b_star))
        rays = ray_directions(3, 16)
        r = grid.nodes
        for i, d in enumerate(rays):
            q = 2.0 * d[0] ** 2 + d[1] ** 2 + d[2] ** 2
            u_ray = 1.0 + q * r**2
            assert np.all(u_ray <= report.w.u * (1 + 1e-9)), (
                f"upper clause broke on ray {i}"
            )
            below = report.v.u <= u_ray * (1 + 1e-9)
            assert np.all(below), (
                f"lower clause v <= u fails on ray {i} (direction {d}) "
                f"first at r = {r[~below][0]:.3g}: "
                f"v = {report.v.u[~below][0]:.6g} > u = {u_ray[~below][0]:.6g}"
            )


def test_c09_breakline_approximation():
    """Explicit Euler break lines for k=1, n=3, b=1 on [0, 1/2]: the
    defect stays below each epsilon in {1e-2, 1e-3, 1e-4} and the sup
    distance to the true solution is monotone in epsilon (10% slack)."""
    with criterion("criterion 9 (break-line approximation)"):
        params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
        profile = RadialProfile.constant(1.0)
        curve = solve_cauchy(params, profile, RadialGrid.build(0.5))
        probe = np.linspace(0.0, 0.5, 513)
        u_ref = curve.dense(probe)[0]
        errors = []
        for epsilon in (1e-2, 1e-3, 1e-4):
            line = euler_polyline(params, profile, r_end=0.5, epsilon=epsilon)
            assert breakline_defect(line, params, profile) < epsilon
            errors.append(float(np.max(np.abs(line.eval(probe) - u_ref))))
        assert errors[1] <= 1.1 * errors[0]
        assert errors[2] <= 1.1 * errors[1]


def test_c10_curve_audit():
    """Every solver curve produced by the criteria above stays in the
    order-k Garding cone at every node and satisfies the equation with
    relative residual below 1e-6."""
    with criterion("criterion 10 (cone membership + residual audit)"):
        assert len(_TRACKED) >= 5, "earlier criteria must register their curves"
        for label, curve, params, profile in _TRACKED:
            assert gamma_k_membership(curve, params).all(), label
            assert residual_max(curve, params, profile) < 1e-6, label
