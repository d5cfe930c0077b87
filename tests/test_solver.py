"""Cauchy solver, break-line construction and growth quadrature."""

import bisect
import json
import math
import warnings

import numpy as np
import pytest

from conftest import REFERENCE
from hessianls.cli import EXIT_OK, ProblemSpec, main
from hessianls.coefficients import RadialProfile
from hessianls.core import OVERFLOW_GUARD, ProblemParams, RadialGrid, gamma_k_membership
from hessianls import _integrate, envelope, solver
from hessianls.envelope import BreakLine, flux_integral, flux_slope
from hessianls.errors import (
    BlowupGuardError,
    CoefficientError,
    DomainTooLargeError,
    IntegrationError,
    ParameterError,
)
from hessianls.solver import (  # the DOPRI5 tableau and limits for the generic stepper
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _D1, _D3, _D4, _D5, _D6, _D7,
    _E1, _E3, _E4, _E5, _E6, _E7, _LOG_GUARD, _MIN_STEP, _exp,
)
from hessianls.solver import (
    MIN_REL_TOL,
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

    def test_tail_less_table_solves_to_its_last_radius(self, tmp_path, capsys):
        # math.log and numpy's log differ by an ulp at some radii, each way: a
        # table without a tail that ends at such a radius solves up to r_max
        # = that radius, in process and through ``hessianls solve``.
        candidates = np.geomspace(0.5, 2.0, 4001)
        split = {math.log(r) > lg: r for r, lg in zip(candidates.tolist(),
                                                       np.log(candidates).tolist())
                 if math.log(r) != lg}
        assert sorted(split) == [False, True]
        params = ProblemParams(n=3, k=1, gamma=0.5)
        for r in split.values():
            radii, values = [0.0, 0.25, r], [1.0, 0.95, 0.8]
            curve = solve_cauchy(params, RadialProfile.tabulated(radii, values),
                                 RadialGrid.build(r, r_lin=r))
            assert curve.grid.nodes[-1] == r and np.all(np.isfinite(curve.u))
            (tmp_path / "b.csv").write_text("r,b\n" + "".join(
                f"{x!r},{y!r}\n" for x, y in zip(radii, values)))
            (tmp_path / "spec.json").write_text(json.dumps({
                "n": 3, "k": 1, "gamma": 0.5, "a": 1.0,
                "coefficient": {"kind": "tabulated", "path": "b.csv"},
                "grid": {"r_max": r, "r_lin": r}}))
            assert main(["solve", str(tmp_path / "spec.json"),
                         "--curve", str(tmp_path / "curve.csv")]) == EXIT_OK, \
                capsys.readouterr().err
            assert json.loads(capsys.readouterr().out)["r_max"] == r

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

    @pytest.mark.parametrize("key", ["tab-k1", "tab-k2"])
    def test_conservation_defect_on_a_table_tracks_the_tolerance(self, key, table_dir):
        # The check's Gauss panels stop at the table's radii: a panel across
        # a kink of b measures the quadrature's error there (1.7e-6 and 1.0e-5
        # on these specs at any rel), not the integration's.
        spec = ProblemSpec.from_dict(REFERENCE[key]["spec"], base_dir=table_dir)
        b = spec.radial_profile()
        curve = solve_cauchy(spec.params, b, spec.grid(), rel_tol=1e-8)
        assert conservation_defect(curve, spec.params, b) < 1e-8

    @pytest.mark.parametrize("key", ["tab-k1", "tab-k2"])
    def test_conservation_nodes_are_the_grid_and_table_union(self, key, table_dir):
        # the grid's nodes and the table's radii inside, each once, as sorting
        # them together and dropping repeats laid them
        spec = ProblemSpec.from_dict(REFERENCE[key]["spec"], base_dir=table_dir)
        radii, grid = spec.radial_profile().radii, spec.grid()
        inner = radii[(radii > 0.0) & (radii < grid.r_max)]
        np.testing.assert_array_equal(solver.conservation_nodes(grid, radii),
                                      np.union1d(grid.nodes, inner))
        assert solver.conservation_nodes(grid, None) is grid.nodes

    def test_merge_without_gap_is_the_set_union(self):
        # repeats, radii that already are nodes, radii a rounding error off one,
        # zero and negative radii
        rng = np.random.default_rng(20261020)
        for _ in range(200):
            nodes = RadialGrid.build(10.0 ** rng.uniform(-1.0, 4.0)).nodes
            drawn = nodes[-1] * rng.random(rng.integers(0, 30))
            picked = rng.choice(nodes, rng.integers(0, 6))
            extra = np.concatenate([drawn, picked, np.nextafter(picked, np.inf),
                                    rng.choice(drawn, 3) if drawn.size else [], [0.0, -1.0]])
            rng.shuffle(extra)
            np.testing.assert_array_equal(envelope.merge_nodes(nodes, extra),
                                          np.union1d(nodes, extra[extra > 0.0]))

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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_coefficient_names_its_radius(self, laplace_params, bad):
        # inf (or NaN) on 4 < r < 6: the probe names the first grid node
        # there, not the node of the smallest value
        grid = RadialGrid.build(100.0)
        hole = RadialProfile.from_callable(
            lambda r: np.where((np.asarray(r) > 4.0) & (np.asarray(r) < 6.0), bad, 1.0))
        radius = grid.nodes[grid.nodes > 4.0][0]
        with pytest.raises(CoefficientError, match=rf"got {bad} at r = {radius:g}$"):
            solve_cauchy(laplace_params, hole, grid)

    @pytest.mark.parametrize("r_max, r_lin", [(1e3, 1e-198), (1e-119, 10.0)])
    def test_grid_below_the_series_start_is_refused(self, laplace_params, r_max, r_lin):
        # the first positive node lies below 4e-12, where the series start
        # can no longer hand off before it (b(r_probe) once divided by 0.0)
        grid = RadialGrid.build(r_max, r_lin=r_lin)
        with pytest.raises(ParameterError, match=rf"first positive radius {grid.nodes[1]:g} "
                                                 rf"must exceed 4e-12 .*; raise r_lin or r_max$"):
            solve_cauchy(laplace_params, B_ONE, grid)

    def test_underflowing_series_curvature_is_refused(self):
        # b(0) a^gamma = 1e-390 underflows though a^gamma does not: the
        # handoff radius sqrt(a / c2) once divided by c2 = 0
        params = ProblemParams(n=5, k=2, gamma=1.9, a=1e-100)
        with pytest.raises(ParameterError, match=r"b\(0\) a\^gamma / C\(n, k\) underflows to 0 "
                                                 r"\(b\(0\) = 1e-200, a = 1e-100, gamma = 1.9\)"):
            solve_cauchy(params, RadialProfile.constant(1e-200), RadialGrid.build(10.0))

    def test_overflowing_a_gamma_is_refused(self):
        # a^gamma = 1e570 passes the float range: a direct call (no spec in
        # between) once ended in OverflowError from the series start
        params = ProblemParams(n=5, k=2, gamma=1.9, a=1e300)
        with pytest.raises(ParameterError, match=r"a\^gamma overflows the float range "
                                                 r"\(a = 1e\+300, gamma = 1.9\)"):
            solve_cauchy(params, B_ONE, RadialGrid.build(10.0))

    @pytest.mark.parametrize("rel_tol, abs_tol, message", [
        (0.0, 1e-12, r"rel_tol: must lie in \[2.22e-14, 1\), got 0.0$"),
        (1e-300, 1e-12, r"rel_tol: must lie in .*, got 1e-300$"),
        (MIN_REL_TOL / 2, 1e-12, r"rel_tol: must lie in "),
        (-1e-8, 1e-12, r"rel_tol: must lie in .*, got -1e-08$"),
        (1.0, 1e-12, r"rel_tol: must lie in .*, got 1.0$"),
        (1e-8, -1.0, r"abs_tol: must be positive, got -1.0$"),
        (1e-8, 0.0, r"abs_tol: must be positive, got 0.0$")])
    def test_tolerances_it_cannot_honour_are_refused(self, monkeypatch, rel_tol, abs_tol,
                                                      message):
        # rel_tol = 0 once divided by zero, and a tiny one ground on for
        # millions of steps; the refusal comes before the first step
        def no_steps(*args):
            raise AssertionError("the stepper ran")

        monkeypatch.setattr(solver, "_dopri5", no_steps)
        params = ProblemParams(n=4, k=2, gamma=1.0)
        with pytest.raises(ParameterError, match=message):
            solve_cauchy(params, RadialProfile.power_tail(1.0), RadialGrid.build(1e4),
                         rel_tol=rel_tol, abs_tol=abs_tol)

    @pytest.mark.parametrize("n, k, gamma, r_max, per_decade", [
        (1029, 514, 0.5, 1.0, 32), (150, 2, 1.0, 100.0, 48)])
    def test_large_n_solves(self, n, k, gamma, r_max, per_decade):
        # n = 1029: M ~ r^n / n underflows near the origin while ln M does
        # not, so u' stays positive.  The conservation quadrature resolves
        # s^(n-1) on the linear cells (n = 150 once read 2.5e-3).
        params = ProblemParams(n=n, k=k, gamma=gamma)
        curve = solve_cauchy(params, B_ONE, RadialGrid.build(r_max, nodes_per_decade=per_decade))
        assert np.all(curve.du[1:] > 0.0) and np.all(np.isfinite(curve.d2u))
        assert gamma_k_membership(curve, params).all()
        assert conservation_defect(curve, params, B_ONE) < 1e-6

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
            _, log_moment = curve.dense(grid.nodes)
        for values in (curve.u, curve.du, curve.d2u, log_moment[1:]):
            assert np.all(np.isfinite(values))
        assert curve.u[-1] == pytest.approx(8.48e98, rel=1e-2)
        assert log_moment[-1] > np.log(1e302)

    def test_flux_beyond_the_float_range_solves(self):
        # Further out M passes the largest float near r = 1.1e3 (it once
        # stopped the solve there) while u, u' and u'' stay finite.
        params = ProblemParams(n=6, k=3, gamma=2.9)
        grid = RadialGrid.build(37450.0)
        curve = solve_cauchy(params, B_ONE, grid)
        _, log_moment = curve.dense(grid.nodes)
        assert log_moment[-1] > np.log(np.finfo(float).max)
        for values in (curve.u, curve.du, curve.d2u):
            assert np.all(np.isfinite(values))
        assert gamma_k_membership(curve, params).all()
        assert conservation_defect(curve, params, B_ONE) < 1e-6

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
        tight = solve_cauchy(params, b, grid, rel_tol=MIN_REL_TOL)
        default = solve_cauchy(params, b, grid)
        np.testing.assert_allclose(tight.u, default.u, rtol=1e-7)

    def test_stepper_counts(self, hessian2_params):
        # FSAL: one RHS call to start, six per attempted step.  rhs_evals is
        # defined so; TestStepperKernel checks it against the generic stepper's
        # own count of its calls.
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

    def test_failed_curve_write_leaves_the_old_file(self, laplace_params, tmp_path,
                                                    monkeypatch):
        # zip runs once the file is open, so the write fails part way; the
        # file lands by replace only when the write completes
        curve = solve_cauchy(laplace_params, B_ONE, RadialGrid.build(50.0, nodes_per_decade=12))
        path = tmp_path / "curve.csv"
        path.write_text("old contents\n")

        def fail(*args):
            raise OSError("failed on purpose")

        monkeypatch.setattr(solver, "zip", fail, raising=False)
        with pytest.raises(OSError, match="failed on purpose"):
            write_curve_csv(curve, path, laplace_params, B_ONE)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_curve_write_goes_through_a_link(self, laplace_params, tmp_path):
        # as open(path, "w") would: the linked file is replaced, not the link
        curve = solve_cauchy(laplace_params, B_ONE, RadialGrid.build(50.0, nodes_per_decade=12))
        (tmp_path / "curve.csv").write_text("old contents\n")
        (tmp_path / "link.csv").symlink_to("curve.csv")
        write_curve_csv(curve, tmp_path / "link.csv", laplace_params, B_ONE)
        assert (tmp_path / "link.csv").is_symlink()
        np.testing.assert_array_equal(read_curve_csv(tmp_path / "curve.csv").u, curve.u)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["curve.csv", "link.csv"]


# ---------------------------------------------------------------------------
# the stepper kernel against the generic stepper it replaced
# ---------------------------------------------------------------------------

def _generic_dopri5(f, s, y, stops, tol, abs_u):
    """The stepper as it was before its kernel: any y' = f(s, ln u, ln M), the
    dense coefficients laid per step in Python.  A test oracle only."""
    exp = math.exp
    x, z = y
    fx, fz = f(s, x, z)
    evals, rejected = 1, 0
    scale = math.hypot(fx, fz) / (tol * math.sqrt(2.0))
    h = (0.01 / scale) ** 0.2 if scale > 0.0 else stops[-1] - s
    starts, widths, coeffs = [], [], []
    for stop in stops:
        while s < stop:
            if h < _MIN_STEP * max(1.0, abs(s)):
                raise IntegrationError(
                    f"adaptive integration failed at r = {exp(s):g}: the step size fell "
                    f"below {_MIN_STEP:g} in ln r", r=exp(s), u=_exp(x))
            last = s + h >= stop
            step = stop - s if last else h
            try:
                x2, z2 = f(s + _C2 * step, x + step * _A21 * fx, z + step * _A21 * fz)
                x3, z3 = f(s + _C3 * step, x + step * (_A31 * fx + _A32 * x2),
                           z + step * (_A31 * fz + _A32 * z2))
                x4, z4 = f(s + _C4 * step, x + step * (_A41 * fx + _A42 * x2 + _A43 * x3),
                           z + step * (_A41 * fz + _A42 * z2 + _A43 * z3))
                x5, z5 = f(s + _C5 * step,
                           x + step * (_A51 * fx + _A52 * x2 + _A53 * x3 + _A54 * x4),
                           z + step * (_A51 * fz + _A52 * z2 + _A53 * z3 + _A54 * z4))
                x6, z6 = f(stop if last else s + step,
                           x + step * (_A61 * fx + _A62 * x2 + _A63 * x3 + _A64 * x4
                                       + _A65 * x5),
                           z + step * (_A61 * fz + _A62 * z2 + _A63 * z3 + _A64 * z4
                                       + _A65 * z5))
                x_new = x + step * (_B1 * fx + _B3 * x3 + _B4 * x4 + _B5 * x5 + _B6 * x6)
                z_new = z + step * (_B1 * fz + _B3 * z3 + _B4 * z4 + _B5 * z5 + _B6 * z6)
                x7, z7 = f(stop if last else s + step, x_new, z_new)
                evals += 6
                ex = step * (_E1 * fx + _E3 * x3 + _E4 * x4 + _E5 * x5 + _E6 * x6 + _E7 * x7)
                ez = step * (_E1 * fz + _E3 * z3 + _E4 * z4 + _E5 * z5 + _E6 * z6 + _E7 * z7)
                sx = tol + abs_u * _exp(-max(x, x_new))
                err = math.sqrt(0.5 * ((ex / sx) ** 2 + (ez / tol) ** 2))
            except OverflowError:
                evals += 6
                err = math.inf
            if not err <= 1.0:
                rejected += 1
                h = step * (max(0.2, 0.9 * err ** -0.2) if err < math.inf else 0.2)
                continue
            starts.append(s)
            widths.append(step)
            for y0, y1, k1, k3, k4, k5, k6, k7 in ((x, x_new, fx, x3, x4, x5, x6, x7),
                                                   (z, z_new, fz, z3, z4, z5, z6, z7)):
                rise = y1 - y0
                bend = step * k1 - rise
                coeffs += (y0, rise, bend, rise - step * k7 - bend,
                           step * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6
                                   + _D7 * k7))
            s = stop if last else s + step
            x, z, fx, fz = x_new, z_new, x7, z7
            if x > _LOG_GUARD:
                raise BlowupGuardError(
                    f"solution exceeded the overflow guard {OVERFLOW_GUARD:g} at r = "
                    f"{exp(s):g}; the requested r_max = {exp(stops[-1]):g} is too large "
                    f"for this coefficient", r=exp(s), u=_exp(x))
            grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
            h = max(step * grow, h * min(grow, 1.0)) if last else step * grow
    return starts, widths, coeffs, evals, rejected


def _bump(amp):
    """b = 1 + amp exp(-((r - 5) / 0.01)^2): steps that reach the bump overflow."""
    return RadialProfile.from_callable(
        lambda r: 1.0 + amp * np.exp(-((np.asarray(r) - 5.0) / 0.01) ** 2))


# name -> (n, k, gamma, profile, r_max) beside the reference specs
_KERNEL_CASES = {
    "corner": (4, 2, 1.9333, B_ONE, 1e4),  # gamma -> k: about 700 steps
    # trial stages overflow, the sixth's ln M' and the seventh's ln u' among them; it solves
    "overflow": (3, 1, 0.9, _bump(1e3), 100.0),
    "guard": (3, 1, 0.5, _bump(1e200), 100.0),  # BlowupGuardError after overflows
    "step-floor": (3, 1, 0.5, RadialProfile.from_callable(  # IntegrationError
        lambda r: 1.0 / np.abs(np.asarray(r) - 4.9999) ** 2), 10.0),
    # a table without a tail, solved to its last radius: the last piece has no tail rule
    "tail-less": (3, 1, 0.5, RadialProfile.tabulated([0.0, 0.5, 1.013397900012232],
                                                     [1.0, 0.95, 0.8]), 1.013397900012232),
}


def _kernel_case(name, table_dir):
    if name in REFERENCE:
        spec = ProblemSpec.from_dict(REFERENCE[name]["spec"], base_dir=table_dir)
        return (spec.params, spec.radial_profile(), spec.grid(), spec.tolerances["rel"],
                spec.tolerances["abs"])
    n, k, gamma, profile, r_max = _KERNEL_CASES[name]
    return (ProblemParams(n=n, k=k, gamma=gamma), profile, RadialGrid.build(r_max),
            solver.DEFAULT_REL_TOL, solver.DEFAULT_ABS_TOL)


class TestStepperKernel:
    @pytest.mark.parametrize("name", sorted(REFERENCE) + list(_KERNEL_CASES))
    def test_bit_identical_to_the_generic_stepper(self, monkeypatch, table_dir, name):
        # The kernel evaluates the log system in place, ln b once for the
        # last two stages, and lays the dense coefficients after the solve;
        # it steps ln b by the profile's pieces, one per table cell.  The
        # generic stepper, fed the right-hand side as a closure that looks
        # up the piece of s (the first whose stop is at or above s) and
        # stopped at the same radii, must take the same steps to the bit and
        # fail with the same message.
        params, profile, grid, rel_tol, abs_tol = _kernel_case(name, table_dir)
        kernel, seen = solver._dopri5, {"overflows": 0, "generic_s": [], "kernel_s": []}

        def noted(log_b, calls):
            return lambda s: calls.append(s) or log_b(s)

        def both(pieces, c_u, p_u, k, n, gam, s, y, tol, abs_u):
            seen["pieces"] = pieces
            stops, rules = [p[0] for p in pieces], [p[1] for p in pieces]
            generic_log_b = noted(lambda s: rules[bisect.bisect_left(stops, s)](s),
                                  seen["generic_s"])
            exp = math.exp

            def rhs(s, x, z):
                return exp(c_u + p_u * s + z / k - x), exp(n * s + generic_log_b(s) + gam * x - z)

            def noted_rhs(s, x, z):
                try:
                    return rhs(s, x, z)
                except OverflowError:
                    seen["overflows"] += 1
                    raise

            try:
                seen["generic"] = _generic_dopri5(noted_rhs, s, y, stops, tol, abs_u)
            except (BlowupGuardError, IntegrationError) as exc:
                seen["generic"] = exc
            kernel_pieces = [(stop, noted(rule, seen["kernel_s"])) for stop, rule in pieces]
            return kernel(kernel_pieces, c_u, p_u, k, n, gam, s, y, tol, abs_u)

        monkeypatch.setattr(solver, "_dopri5", both)
        try:
            dense = solve_cauchy(params, profile, grid, rel_tol, abs_tol).dense
        except (BlowupGuardError, IntegrationError) as exc:
            dense, generic = None, seen["generic"]
            assert (type(exc), str(exc), exc.r, exc.u) == (type(generic), str(generic),
                                                           generic.r, generic.u)
        # a table is stepped cell by cell, a closed form in one piece
        assert (len(seen["pieces"]) > 1) == (profile.kind == "tabulated")
        # ln b at the same radii in the same order, but once where the sixth
        # and seventh stages share the step's end
        calls = seen["generic_s"]
        assert seen["kernel_s"] == [s for i, s in enumerate(calls) if not i or s != calls[i - 1]]
        assert (seen["overflows"] > 0) == (name in ("overflow", "guard"))
        if dense is None:
            assert name in ("guard", "step-floor")
            return
        starts, widths, coeffs, evals, rejected = seen["generic"]
        assert np.array_equal(dense._starts, starts)
        assert np.array_equal(dense._widths, widths)
        assert np.array_equal(dense._coeffs, np.reshape(coeffs, (len(starts), 2, 5)))
        assert (dense.rhs_evals, dense.accepted, dense.rejected) == (
            evals, len(starts), rejected)
        if not seen["overflows"]:  # six RHS evaluations per attempt, five of ln b
            assert len(calls) == evals
            assert len(seen["kernel_s"]) == 1 + 5 * (dense.accepted + dense.rejected)


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

    @pytest.mark.parametrize("r_end,epsilon,name", [(np.nan, 1e-2, "r_end"),
                                                     (np.inf, 1e-2, "r_end"),
                                                     (0.5, np.nan, "epsilon")])
    def test_rejects_non_finite_inputs(self, laplace_params, r_end, epsilon, name):
        # NaN once passed both checks: r_end = nan gave a line of NaN values,
        # and r_end = inf or epsilon = nan ground out to the segment cap
        calls = []

        def b(s):
            calls.append(np.size(s))
            return B_ONE(s)

        with pytest.raises(ValueError, match=rf"^{name} must be positive"):
            euler_polyline(laplace_params, b, r_end=r_end, epsilon=epsilon)
        assert calls == []

    def test_rejects_nonpositive_coefficient(self, laplace_params):
        # b = 1 - r vanishes at r = 1, inside [0, r_end]; the probe names
        # its first point at or beyond it.
        b = RadialProfile.from_callable(lambda r: 1.0 - np.asarray(r))
        probe = np.linspace(0.0, 1.5, 1025)
        radius = probe[probe >= 1.0][0]
        with pytest.raises(CoefficientError, match=rf"finite and positive, got "
                                                   rf"{1.0 - radius:g} at r = {radius:g}$"):
            euler_polyline(laplace_params, b, r_end=1.5, epsilon=1e-2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_coefficient(self, laplace_params, bad):
        # NaN once gave a line of NaN values and inf a DomainTooLargeError
        b = RadialProfile.from_callable(
            lambda r: np.where((np.asarray(r) > 0.3) & (np.asarray(r) < 0.35), bad, 1.0))
        probe = np.linspace(0.0, 0.5, 1025)
        radius = probe[probe > 0.3][0]
        with pytest.raises(CoefficientError, match=rf"got {bad} at r = {radius:g}$"):
            euler_polyline(laplace_params, b, r_end=0.5, epsilon=1e-2)

    @pytest.mark.parametrize("n", [17, 40])
    def test_builds_where_flux_panels_are_cut(self, n):
        # beyond n = 16 the defect's cells are cut into flux panels, so its
        # Gauss points per segment come from the same rule
        params = ProblemParams(n=n, k=2, gamma=1.0)
        line = euler_polyline(params, B_ONE, r_end=0.5, epsilon=1e-3)
        assert breakline_defect(line, params, B_ONE) < 1e-3

    def test_segment_cap(self, laplace_params, monkeypatch):
        # epsilon = 1e-3 needs 257 segments (test_segment_counts_pinned);
        # under a cap of 64 the doubling gives up instead.
        monkeypatch.setattr(envelope, "_MAX_BREAKLINE_SEGMENTS", 64)
        with pytest.raises(IntegrationError, match="defect < 0.001 within 64 segments"):
            euler_polyline(laplace_params, B_ONE, r_end=0.5, epsilon=1e-3)


def _reference_build(params, b, r_end, epsilon, r_flat, segments):
    """The per-segment break-line loop the precomputed build replaced: two
    flux_integral calls on a three-node grid and one flux_slope per segment."""
    a = params.a
    if r_flat >= r_end:
        return BreakLine(np.array([0.0, r_end]), np.array([a, a]), np.array([0.0]),
                         epsilon, r_flat)
    radii = np.concatenate([[0.0], np.linspace(r_flat, r_end, segments + 1)])
    if r_flat == 0.0:
        radii = radii[1:]
    values = np.empty_like(radii)
    slopes = np.zeros(radii.size - 1)
    values[0] = a
    values[1] = a
    inner = float(flux_integral(params, b, np.linspace(0.0, r_flat, 33),
                                lambda s: np.full_like(s, a))[-1])
    for i in range(1, radii.size - 1):
        slope_i = float(flux_slope(params, radii[i], inner))
        slopes[i] = slope_i
        values[i + 1] = values[i] + slope_i * (radii[i + 1] - radii[i])
        if values[i + 1] >= 2.0 * a:
            raise DomainTooLargeError(
                f"break line left the box [a, 2a] at r = {radii[i + 1]:g}; "
                f"choose a smaller right endpoint than {r_end:g}")
        lo, value_lo = radii[i], values[i]
        inner = np.logaddexp(inner, flux_integral(params, b, np.linspace(lo, radii[i + 1], 3),
                                                  lambda s: value_lo + slope_i * (s - lo))[-1])
    return BreakLine(radii, values, slopes, epsilon, r_flat)


def _reference_defect(line, params, b):
    """The one-pass defect the blocked one replaced: psi through
    BreakLine.eval over every sample cell at once."""
    cells = 16
    lo = line.radii[:-1, None]
    sub = lo + np.diff(line.radii)[:, None] * (np.arange(1, cells + 1) / cells)
    sub[:, -1] = line.radii[1:]
    nodes = np.concatenate([line.radii[:1], sub.ravel()])
    inner = flux_integral(params, b, nodes, line.eval)
    slopes = np.repeat(line.slopes, cells // 2)
    return float(np.max(np.abs(slopes - flux_slope(params, nodes[2::2], inner[2::2]))))


def _reference_polyline(params, b, r_end, epsilon, r_flat):
    segments = 16
    while True:
        line = _reference_build(params, b, r_end, epsilon, r_flat, segments)
        if _reference_defect(line, params, b) < epsilon:
            return line
        segments *= 2


# The slope takes libm's log and exp where the reference loop took numpy's,
# and sums each segment's Gauss points in another order; over 140 lines
# (n <= 6, both profiles, epsilon 1e-2 and 1e-3) the slopes differed by at
# most 19 units in the last place and the values by at most one.
_SLOPE_ULPS = 32


class TestPrecomputedBreakLine:
    """The block-precomputed build and defect against the per-segment loop."""

    @pytest.mark.parametrize("n,k,gamma", [(3, 1, 0.5), (4, 2, 0.8), (5, 3, 1.5),
                                           (60, 3, 1.5), (100, 2, 1.0)])
    @pytest.mark.parametrize("b", [RadialProfile.constant(1.2), RadialProfile.power_tail(1.3)],
                             ids=["constant", "power_tail"])
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_matches_per_segment_loop(self, n, k, gamma, b, epsilon):
        params = ProblemParams(n=n, k=k, gamma=gamma)
        line = euler_polyline(params, b, r_end=0.5, epsilon=epsilon)
        ref = _reference_polyline(params, b, 0.5, epsilon, line.r_flat)
        np.testing.assert_array_equal(line.radii, ref.radii)
        assert np.all(np.abs(line.values - ref.values) <= np.spacing(ref.values))
        # the build lays ceil(n / 16) panels per segment, the loop twice as
        # many: at n = 60 and 100 the slopes differ by at most 124 units
        # in the last place
        ulps = max(_SLOPE_ULPS, 2 * n)
        assert np.all(np.abs(line.slopes - ref.slopes) <= ulps * np.spacing(ref.slopes))
        # the defect is a function of the line: bit-equal on the same line
        for each in (line, ref):
            assert breakline_defect(each, params, b) == _reference_defect(each, params, b)

    def test_flat_head_reaching_the_end(self, laplace_params):
        # r_flat = 3 eps / sqrt(2) = 0.0212 > r_end: one flat segment
        line = euler_polyline(laplace_params, B_ONE, r_end=0.01, epsilon=1e-2)
        ref = _reference_build(laplace_params, B_ONE, 0.01, 1e-2, line.r_flat, 16)
        for name in ("radii", "values", "slopes"):
            np.testing.assert_array_equal(getattr(line, name), getattr(ref, name))
        assert line.radii.tolist() == [0.0, 0.01]
        assert breakline_defect(line, laplace_params, B_ONE) == \
            _reference_defect(line, laplace_params, B_ONE)

    def test_leaves_the_box_where_the_loop_did(self, laplace_params):
        with pytest.raises(DomainTooLargeError) as new:
            euler_polyline(laplace_params, B_ONE, r_end=5.0, epsilon=1e-2)
        r_flat = 3.0 * 1e-2 / 2.0 ** 0.5
        with pytest.raises(DomainTooLargeError) as ref:
            _reference_polyline(laplace_params, B_ONE, 5.0, 1e-2, r_flat)
        assert str(new.value) == str(ref.value)
        assert "at r = " in str(new.value)

    @pytest.mark.parametrize("b", [B_ONE, RadialProfile.power_tail(0.7)],
                             ids=["constant", "power_tail"])
    def test_blocks_do_not_change_a_bit(self, monkeypatch, hessian2_params, b):
        whole = euler_polyline(hessian2_params, b, r_end=0.5, epsilon=1e-3)
        whole_defect = breakline_defect(whole, hessian2_params, b)
        assert whole.radii.size - 1 < envelope._BLOCK_SEGMENTS
        monkeypatch.setattr(envelope, "_BLOCK_SEGMENTS", 3)
        blocked = euler_polyline(hessian2_params, b, r_end=0.5, epsilon=1e-3)
        for name in ("radii", "values", "slopes"):
            np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name))
        assert breakline_defect(whole, hessian2_params, b) == whole_defect

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_b_calls_per_round(self, laplace_params, epsilon):
        calls = []

        def b(s):
            calls.append(np.size(s))
            return B_ONE(s)

        line = euler_polyline(laplace_params, b, r_end=0.5, epsilon=epsilon)
        segments = line.radii.size - 2  # the uniform part; the flat head is one more
        rounds = int(np.log2(segments // 16)) + 1
        assert 16 * 2 ** (rounds - 1) == segments
        # the positivity probe and the flat head once, then per round the
        # Gauss rows and the defect's first block of 16 segments, where each
        # failing round fails, and the accepted round's second block (the
        # per-segment loop made two per segment)
        assert len(calls) == 3 + 2 * rounds

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_defect_against_epsilon_keeps_the_verdict(self, monkeypatch, laplace_params,
                                                      epsilon):
        # Every round of the doubling, rebuilt: the defect against epsilon
        # stops early only on a line the full defect fails, and equals it on
        # a line that passes.
        rounds = []
        build = envelope._build_line
        monkeypatch.setattr(envelope, "_build_line",
                            lambda *args: rounds.append(build(*args)) or rounds[-1])
        euler_polyline(laplace_params, B_ONE, r_end=0.5, epsilon=epsilon)
        assert len(rounds) > 1
        for line in rounds:
            full = breakline_defect(line, laplace_params, B_ONE)
            early = breakline_defect(line, laplace_params, B_ONE, epsilon)
            assert (early < epsilon) == (full < epsilon) == (line is rounds[-1])
            assert early == full if full < epsilon else epsilon <= early <= full


class TestFluxIntegralRule:
    def test_nan_between_nodes_names_its_gauss_point(self, laplace_params):
        # NaN on 0.31 < r < 0.32 lies between the nodes 0.3 and 0.4: only
        # Gauss points of the cell between them see it
        nodes = np.linspace(0.0, 1.0, 11)
        b = RadialProfile.from_callable(
            lambda r: np.where((np.asarray(r) > 0.31) & (np.asarray(r) < 0.32), np.nan, 1.0))
        with pytest.raises(CoefficientError, match=r"finite and nonnegative, got nan "
                                                   r"at r = 0\.31\d*$"):
            flux_integral(laplace_params, b, nodes)

    def test_underflow_to_zero_is_admitted(self, laplace_params):
        # a steep tail underflows to 0 at large r; the quadrature takes it
        steep = RadialProfile.power_tail(200.0)
        nodes = np.geomspace(1.0, 1e4, 9)
        assert steep(nodes[-1]) == 0.0
        log_inner = flux_integral(laplace_params, steep, np.concatenate([[0.0], nodes]))
        assert log_inner[0] == -np.inf and np.all(np.isfinite(log_inner[1:]))


    @pytest.mark.parametrize("n", [40, 78, 150])
    def test_constant_b_is_the_closed_form_at_large_n(self, n):
        # integral_0^r s^(n-1) ds = r^n / n at every node of fine_nodes(100);
        # one plain panel per cell once missed it by 0.105 at n = 150
        nodes = envelope.fine_nodes(100.0)
        log_inner = flux_integral(ProblemParams(n=n, k=2, gamma=1.0), B_ONE, nodes)
        want = n * np.log(nodes[1:]) - math.log(n)
        assert np.max(np.abs(log_inner[1:] - want)) < 1e-10

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_small_n_lays_the_given_nodes(self, n, monkeypatch):
        given, seen = envelope.fine_nodes(100.0), []

        def spy(f, nodes, start=-np.inf):
            seen.append(nodes)
            return _integrate.panel_cumulative(f, nodes, start)
        monkeypatch.setattr(envelope, "panel_cumulative", spy)
        flux_integral(ProblemParams(n=n, k=1, gamma=0.5), B_ONE, given)
        assert len(seen) == 1 and seen[0] is given

    def test_panel_budget_refuses_by_name_before_any_panel(self, monkeypatch):
        def no_panels(*args, **kwargs):
            raise AssertionError("Gauss panels were laid")
        monkeypatch.setattr(_integrate, "panel_points", no_panels)
        monkeypatch.setattr(envelope, "panel_points", no_panels)
        # the J tables at r_max 1 cut 192 cells 62500-fold
        params = ProblemParams(n=10**6, k=1, gamma=0.5)
        with pytest.raises(ParameterError,
                           match=r"^n = 1000000: 11999808 added flux panels, at most 100000$"):
            flux_integral(params, B_ONE, envelope.fine_nodes(1.0))

    def test_panel_budget_counts_added_panels(self, monkeypatch):
        # n = 17 cuts each cell in two: 30 cells add 30 panels, 31 add 31
        monkeypatch.setattr(envelope, "MAX_ADDED_PANELS", 30)
        params = ProblemParams(n=17, k=2, gamma=1.0)
        assert np.isfinite(flux_integral(params, B_ONE, np.linspace(0.0, 1.0, 31))[-1])
        with pytest.raises(ParameterError, match="31 added flux panels, at most 30$"):
            flux_integral(params, B_ONE, np.linspace(0.0, 1.0, 32))

    @pytest.mark.parametrize("n, k, r_max", [(150, 5, 100.0), (1029, 514, 1.0)])
    def test_conservation_on_the_grid_own_nodes(self, n, k, r_max, monkeypatch):
        # no grid of the conservation check's own: flux_integral gets the
        # grid's nodes and cuts their cells for s^(n-1) itself
        params = ProblemParams(n=n, k=k, gamma=1.0)
        grid = RadialGrid.build(r_max)
        curve = solve_cauchy(params, B_ONE, grid)
        seen = []

        def spy(params, b, nodes, psi=None, start=-np.inf):
            seen.append(nodes)
            return flux_integral(params, b, nodes, psi, start)
        monkeypatch.setattr(solver, "flux_integral", spy)
        assert conservation_defect(curve, params, B_ONE) < 1e-6
        assert len(seen) == 1 and np.array_equal(seen[0], grid.nodes)


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
