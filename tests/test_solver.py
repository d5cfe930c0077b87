"""Cauchy solver, break-line construction and growth quadrature."""

import warnings

import numpy as np
import pytest

from hessianls import cli
from hessianls.coefficients import RadialProfile
from hessianls.core import ProblemParams, RadialGrid, gamma_k_membership
from hessianls.envelope import flux_slope
from hessianls.errors import (
    BlowupGuardError,
    CoefficientError,
    DomainTooLargeError,
    IntegrationError,
)
from hessianls.solver import (
    breakline_defect,
    conservation_defect,
    euler_polyline,
    read_curve_csv,
    residual_max,
    solve_cauchy,
    solve_linear_rhs,
    write_curve_csv,
)

B_ONE = RadialProfile.constant(1.0)


class TestSolveCauchy:
    def test_basic_structure(self, laplace_params):
        grid = RadialGrid.build(100.0)
        curve = solve_cauchy(laplace_params, B_ONE, grid)
        assert curve.u[0] == laplace_params.a
        assert curve.du[0] == 0.0
        assert np.all(curve.du >= 0.0)
        assert np.all(np.diff(curve.u) > 0.0)
        assert np.all(curve.u > 0.0)

    def test_pointwise_residual_is_tiny(self, laplace_params):
        # u'' is recovered algebraically from the equation, so the nodewise
        # residual is at rounding level.
        grid = RadialGrid.build(1e3)
        curve = solve_cauchy(laplace_params, B_ONE, grid)
        assert residual_max(curve, laplace_params, B_ONE) < 1e-12

    def test_conservation_defect(self, laplace_params, hessian2_params):
        # The flux identity ties u' to the history of u; its defect tracks
        # the integrator tolerance.
        for params in (laplace_params, hessian2_params):
            grid = RadialGrid.build(1e3)
            curve = solve_cauchy(params, B_ONE, grid)
            assert conservation_defect(curve, params, B_ONE) < 1e-6

    def test_cone_membership_along_curve(self, hessian2_params):
        grid = RadialGrid.build(1e4)
        b = RadialProfile.power_tail(1.0)
        curve = solve_cauchy(hessian2_params, b, grid)
        assert gamma_k_membership(curve, hessian2_params).all()

    @pytest.mark.parametrize("kind", ["power_tail", "tabulated"])
    def test_nodes_come_from_the_dense_evaluator(self, hessian2_params, kind):
        # One evaluator: node u and M are the dense output at the nodes, and
        # u' is the flux transform of that M, bit for bit.
        b = RadialProfile.power_tail(1.0)
        if kind == "tabulated":
            r = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 120)])
            b = RadialProfile.tabulated(r, b(r), tail_exponent=1.0)
        grid = RadialGrid.build(1e3, nodes_per_decade=24)
        curve = solve_cauchy(hessian2_params, b, grid)
        u, moment = curve.dense(grid.nodes)
        np.testing.assert_array_equal(curve.u, u)
        np.testing.assert_array_equal(curve.du, flux_slope(hessian2_params, grid.nodes, moment))

    def test_series_start_expansion(self, laplace_params):
        # For k = 1, n = 3, gamma = 1/2, b = 1, a = 1 the center expansion
        # is u = 1 + r^2/6 + r^4/240 - r^6/30240 + O(r^8): the solver must
        # match to the r^6 remainder (plus integrator noise ~1e-8).
        grid = RadialGrid.build(0.5)
        curve = solve_cauchy(laplace_params, B_ONE, grid)
        r = grid.nodes
        series = 1.0 + r**2 / 6.0 + r**4 / 240.0
        assert np.all(np.abs(curve.u - series) <= 1e-4 * r**6 + 5e-8)
        assert curve.d2u[0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_tolerance_self_consistency(self, hessian2_params):
        grid = RadialGrid.build(100.0)
        b = RadialProfile.power_tail(1.0)
        loose = solve_cauchy(hessian2_params, b, grid, rel_tol=1e-8)
        tight = solve_cauchy(hessian2_params, b, grid, rel_tol=5e-9)
        np.testing.assert_allclose(loose.u, tight.u, rtol=1e-6)

    def test_comparison_in_coefficient_and_center(self, laplace_params):
        # Monotonicity: raising b or a raises the solution everywhere.
        grid = RadialGrid.build(300.0, nodes_per_decade=24)
        base = solve_cauchy(laplace_params, B_ONE, grid)
        bigger_b = solve_cauchy(laplace_params, RadialProfile.constant(1.3), grid)
        bigger_a = solve_cauchy(laplace_params.with_center(1.5), B_ONE, grid)
        assert np.all(bigger_b.u >= base.u - 1e-9 * bigger_b.u)
        assert np.all(bigger_a.u >= base.u - 1e-9 * bigger_a.u)

    def test_large_growth_tail_slope(self):
        # k = 2, n = 3, gamma = 1, b ~ r^-1: the entire solution grows like
        # r^3 (slope fitted over the last two decades within 2%).
        params = ProblemParams(n=3, k=2, gamma=1.0)
        grid = RadialGrid.build(1e4)
        curve = solve_cauchy(params, RadialProfile.power_tail(1.0), grid)
        r, u = grid.nodes, curve.u
        window = r >= 1e2
        slope = np.polyfit(np.log(r[window]), np.log(u[window]), 1)[0]
        assert slope == pytest.approx(3.0, rel=0.02)

    def test_bounded_coefficient_gives_bounded_solution(self, laplace_params):
        # l = 3 > 2k = 2: the solution flattens out (slowly, since l = n
        # makes the flux grow like log r, so increments decay like log r/r).
        grid = RadialGrid.build(1e4)
        curve = solve_cauchy(laplace_params, RadialProfile.power_tail(3.0), grid)
        r, u = grid.nodes, curve.u
        decade_values = u[np.searchsorted(r, [1e1, 1e2, 1e3, 1e4])]
        increments = np.diff(decade_values)
        assert np.all(np.diff(increments) < 0.0)
        assert increments[-1] < 2e-2 * u[-1]
        assert u[-1] < 5.0

    def test_no_finite_time_blowup_on_long_domain(self):
        # Sublinear growth is at most a power; r_max = 1e6 remains finite.
        params = ProblemParams(n=3, k=1, gamma=0.9, a=1.0)
        grid = RadialGrid.build(1e6, nodes_per_decade=24)
        curve = solve_cauchy(params, RadialProfile.constant(5.0), grid)
        assert np.isfinite(curve.u[-1])
        assert curve.u[-1] > 1e6  # it does grow without bound

    def test_overflow_guard(self):
        # An exponentially growing coefficient drives u past the guard
        # before the requested endpoint.
        params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
        b = RadialProfile.from_callable(lambda r: np.exp(np.minimum(np.asarray(r), 690.0)))
        grid = RadialGrid.build(1000.0, nodes_per_decade=16)
        with pytest.raises(BlowupGuardError) as exc:
            solve_cauchy(params, b, grid)
        assert 0.0 < exc.value.r < 1000.0

    def test_rejects_nonpositive_coefficient(self, laplace_params):
        grid = RadialGrid.build(10.0)
        dip = RadialProfile.from_callable(lambda r: 1.0 - np.asarray(r) ** 2 / 16.0)
        with pytest.raises(CoefficientError):
            solve_cauchy(laplace_params, dip, grid)

    def test_integration_failure_surfaces(self, laplace_params):
        # A near-singularity between probe nodes defeats the adaptive
        # integrator and must raise, not return garbage.
        grid = RadialGrid.build(10.0)
        spike = RadialProfile.from_callable(
            lambda r: 1.0 / np.abs(np.asarray(r) - 4.9999) ** 2
        )
        with pytest.raises(IntegrationError):
            solve_cauchy(laplace_params, spike, grid)

    def test_gamma_near_k_corner_solves_finite(self):
        # gamma = 29k/30: u reaches 8.5e98 and M 4.4e302 by r = 1e3, and
        # every reported quantity stays finite without a floating warning.
        params = ProblemParams(n=6, k=3, gamma=2.9)
        grid = RadialGrid.build(1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = solve_cauchy(params, B_ONE, grid)
            _, moment = curve.dense(grid.nodes)
        for values in (curve.u, curve.du, curve.d2u, moment):
            assert np.all(np.isfinite(values))
        assert curve.u[-1] == pytest.approx(8.48e98, rel=1e-2)
        assert moment[-1] > 1e302

    def test_flux_guard_names_the_moment(self):
        # Further out M passes the largest float while u is near 1e101.
        params = ProblemParams(n=6, k=3, gamma=2.9)
        with pytest.raises(BlowupGuardError, match="flux integral M") as exc:
            solve_cauchy(params, B_ONE, RadialGrid.build(37450.0))
        assert 1e3 < exc.value.r < 37450.0
        assert exc.value.moment == np.inf and np.isfinite(exc.value.u)

    def test_overflow_guard_names_u(self):
        params = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
        b = RadialProfile.from_callable(lambda r: np.exp(np.minimum(np.asarray(r), 690.0)))
        with pytest.raises(BlowupGuardError, match="solution exceeded the overflow guard"):
            solve_cauchy(params, b, RadialGrid.build(1000.0, nodes_per_decade=16))

    def test_smallest_accepted_rel_solves(self):
        # The criterion-2 problem at the smallest rel the CLI accepts.
        params = ProblemParams(n=4, k=2, gamma=1.0)
        b = RadialProfile.power_tail(1.0)
        grid = RadialGrid.build(1e5)
        tight = solve_cauchy(params, b, grid, rel_tol=cli._MIN_REL_TOL)
        default = solve_cauchy(params, b, grid)
        np.testing.assert_allclose(tight.u, default.u, rtol=1e-7)

    def test_stepper_counts(self, hessian2_params):
        # FSAL: one RHS call to start, six per attempted step.
        curve = solve_cauchy(hessian2_params, RadialProfile.power_tail(1.0),
                             RadialGrid.build(1e4))
        dense = curve.dense
        assert dense.accepted > 0
        assert dense.rhs_evals == 1 + 6 * (dense.accepted + dense.rejected)

    def test_curve_csv_roundtrip(self, laplace_params, tmp_path):
        grid = RadialGrid.build(50.0, nodes_per_decade=12)
        curve = solve_cauchy(laplace_params, B_ONE, grid)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path, laplace_params, B_ONE)
        back = read_curve_csv(path)
        np.testing.assert_array_equal(back.grid.nodes, grid.nodes)
        np.testing.assert_array_equal(back.u, curve.u)
        np.testing.assert_array_equal(back.du, curve.du)
        np.testing.assert_array_equal(back.d2u, curve.d2u)


class TestEulerPolyline:
    def test_flat_head_and_defect(self, laplace_params):
        line = euler_polyline(laplace_params, B_ONE, r_end=0.5, epsilon=1e-2)
        assert line.r_flat > 0.0
        # Expected flat head: C(n,k)^(1/k) eps / (b^(1/k) (2a)^(gamma/k))
        expected = 3.0 * 1e-2 / (2.0**0.5)
        assert line.r_flat == pytest.approx(expected, rel=1e-12)
        assert line.eval(line.r_flat / 2) == laplace_params.a
        assert breakline_defect(line, laplace_params, B_ONE) < 1e-2

    @pytest.mark.parametrize(
        "n,k,gamma,counts",
        [(3, 1, 0.5, (33, 257, 2049)), (4, 2, 1.0, (33, 257, 4097))],
    )
    def test_segment_counts_pinned(self, n, k, gamma, counts):
        # Segments (flat head included) of the accepted partition for
        # epsilon = 1e-2, 1e-3, 1e-4; b = 1 on [0, 1/2].
        params = ProblemParams(n=n, k=k, gamma=gamma)
        for epsilon, count in zip((1e-2, 1e-3, 1e-4), counts):
            line = euler_polyline(params, B_ONE, r_end=0.5, epsilon=epsilon)
            assert line.radii.size - 1 == count
            assert breakline_defect(line, params, B_ONE) < epsilon

    def test_stays_in_box(self, laplace_params):
        line = euler_polyline(laplace_params, B_ONE, r_end=0.5, epsilon=1e-3)
        vals = line.eval(np.linspace(0, 0.5, 200))
        assert np.all(vals >= laplace_params.a)
        assert np.all(vals < 2 * laplace_params.a)

    def test_converges_to_solution(self, laplace_params):
        grid = RadialGrid.build(0.5)
        curve = solve_cauchy(laplace_params, B_ONE, grid)
        u_exact = lambda r: curve.dense(r)[0]
        errors = []
        for eps in (1e-2, 1e-3):
            line = euler_polyline(laplace_params, B_ONE, r_end=0.5, epsilon=eps)
            probe = np.linspace(0.0, 0.5, 257)
            errors.append(float(np.max(np.abs(line.eval(probe) - u_exact(probe)))))
        assert errors[1] <= errors[0]
        assert errors[1] < 0.01

    def test_domain_too_large(self, laplace_params):
        # By r = 5 the solution exceeds 2a, so the box construction fails.
        with pytest.raises(DomainTooLargeError):
            euler_polyline(laplace_params, B_ONE, r_end=5.0, epsilon=1e-2)

    def test_invalid_inputs(self, laplace_params):
        with pytest.raises(ValueError):
            euler_polyline(laplace_params, B_ONE, r_end=0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            euler_polyline(laplace_params, B_ONE, r_end=-1.0, epsilon=1e-2)


class TestLinearGrowth:
    def test_laplace_oracle(self, laplace_params):
        # k = 1, n = 3, b = 1: ubar(r) = r^2 / 6 exactly.
        grid = RadialGrid.build(10.0)
        ubar = solve_linear_rhs(laplace_params, B_ONE, grid)
        np.testing.assert_allclose(ubar, grid.nodes**2 / 6.0, rtol=1e-10, atol=1e-14)

    def test_general_constant_oracle(self):
        # ubar solves the k-Hessian with rhs b alone:
        # ubar = r^2 / (2 C(n,k)^(1/k)) for constant b = 1.
        params = ProblemParams(n=4, k=2, gamma=1.0)
        grid = RadialGrid.build(10.0)
        ubar = solve_linear_rhs(params, B_ONE, grid)
        np.testing.assert_allclose(
            ubar, grid.nodes**2 / (2.0 * 6.0**0.5), rtol=1e-10, atol=1e-14
        )

    def test_scaling_in_b(self, hessian2_params):
        # b -> c b scales ubar by c^(1/k).
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        base = solve_linear_rhs(hessian2_params, B_ONE, grid)
        scaled = solve_linear_rhs(hessian2_params, RadialProfile.constant(4.0), grid)
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-10)
