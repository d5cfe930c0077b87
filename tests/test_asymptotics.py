"""Closed-form power solutions and growth-rate fitting."""

import numpy as np
import pytest

from hessianls.asymptotics import (
    PowerSolution,
    exact_power_solution,
    expected_rate,
    fit_exponent,
    verify_rates,
)
from hessianls.coefficients import RadialProfile
from hessianls.core import ProblemParams, RadialCurve, RadialGrid
from hessianls.errors import ParameterError
from hessianls.solver import solve_cauchy


class TestExactPowerSolution:
    def test_laplace_flat_oracle(self):
        # n = 3, k = 1, gamma = 1/2, l = 0: u = r^4/400.
        params = ProblemParams(n=3, k=1, gamma=0.5)
        sol = exact_power_solution(params, 0.0)
        assert sol.alpha == pytest.approx(4.0, rel=1e-14)
        assert sol.amplitude == pytest.approx(1.0 / 400.0, rel=1e-12)

    def test_hessian_oracle_n3(self):
        # n = 3, k = 2, gamma = 1, l = 1: u = r^3/45.
        params = ProblemParams(n=3, k=2, gamma=1.0)
        sol = exact_power_solution(params, 1.0)
        assert sol.alpha == pytest.approx(3.0, rel=1e-14)
        assert sol.amplitude == pytest.approx(1.0 / 45.0, rel=1e-12)

    def test_hessian_oracle_n4(self):
        # n = 4, k = 2, gamma = 1, l = 1: u = r^3/81.
        params = ProblemParams(n=4, k=2, gamma=1.0)
        sol = exact_power_solution(params, 1.0)
        assert sol.alpha == pytest.approx(3.0, rel=1e-14)
        assert sol.amplitude == pytest.approx(1.0 / 81.0, rel=1e-12)

    @pytest.mark.parametrize(
        "n,k,gamma,l",
        [
            (3, 1, 0.5, 0.0),
            (4, 2, 1.0, 0.5),
            (5, 2, 1.5, 1.0),
            (6, 3, 2.0, 1.7),
            (7, 3, 0.4, 2.0),
        ],
    )
    def test_residual_vanishes(self, n, k, gamma, l):
        # The defining property: sigma_k of the power profile equals
        # r^-l u^gamma identically.
        params = ProblemParams(n=n, k=k, gamma=gamma)
        sol = exact_power_solution(params, l)
        r = np.geomspace(1e-2, 1e6, 33)
        np.testing.assert_allclose(sol.residual(r), 0.0, atol=1e-12)

    def test_rejects_out_of_range_tail(self):
        params = ProblemParams(n=3, k=1, gamma=0.5)
        with pytest.raises(ParameterError):
            exact_power_solution(params, 0.5)  # l > k - 1
        with pytest.raises(ParameterError):
            exact_power_solution(params, -0.5)

    def test_expected_rate_formula(self):
        params = ProblemParams(n=5, k=2, gamma=1.0)
        assert expected_rate(params, 1.0) == pytest.approx(3.0)
        assert expected_rate(params, 0.0) == pytest.approx(4.0)


class TestFitExponent:
    def test_exact_power_recovered(self):
        r = np.geomspace(1.0, 1e4, 61)
        fit = fit_exponent(r, 5.0 * r**3.0)
        assert fit.exponent == pytest.approx(3.0, abs=1e-12)
        assert fit.stderr < 1e-12
        assert fit.npoints >= 20

    def test_window_selection(self):
        # Data that changes slope: the default window (last two decades)
        # must see only the tail behavior.
        r = np.geomspace(1.0, 1e4, 81)
        vals = np.where(r < 100.0, r**1.0, 100.0 ** (1.0 - 2.5) * r**2.5)
        fit = fit_exponent(r, vals)
        assert fit.exponent == pytest.approx(2.5, abs=1e-10)
        assert fit.window == (100.0, 1e4)
        # The window follows the radii given: the head alone fits its own slope.
        head = fit_exponent(r[r <= 50.0], vals[r <= 50.0])
        assert head.exponent == pytest.approx(1.0, abs=1e-10)

    def test_noise_inflates_stderr(self):
        r = np.geomspace(1.0, 1e4, 101)
        clean = fit_exponent(r, r**2.0)
        noisy = fit_exponent(r, r**2.0 * np.exp(0.2 * (-1.0) ** np.arange(r.size)))
        assert noisy.stderr > 100 * max(clean.stderr, 1e-300)
        assert noisy.exponent == pytest.approx(2.0, abs=3 * noisy.stderr + 1e-6)

    def test_too_few_samples(self):
        r = np.geomspace(1.0, 1e4, 10)
        with pytest.raises(ParameterError):
            fit_exponent(r, r**2.0)


def _synthetic_curve(params, l, r_max=1e4):
    """RadialCurve holding the closed-form power solution."""
    sol = exact_power_solution(params, l)
    grid = RadialGrid.build(r_max, nodes_per_decade=32)
    r = grid.nodes
    return sol, RadialCurve(grid, u=sol.u(r), du=sol.du(r), d2u=sol.d2u(r))


class TestVerifyRates:
    def test_exact_curve_passes(self):
        params = ProblemParams(n=3, k=2, gamma=1.0)
        sol, curve = _synthetic_curve(params, 1.0)
        report = verify_rates(curve, params, 1.0)
        assert report.status == "ok"
        assert report.alpha_expected == pytest.approx(3.0)
        assert report.fits["u"].exponent == pytest.approx(3.0, abs=1e-10)
        assert report.fits["du"].exponent == pytest.approx(2.0, abs=1e-10)
        assert report.fits["d2u"].exponent == pytest.approx(1.0, abs=1e-10)
        assert report.amplitude_ratio == pytest.approx(1.0, rel=1e-12)

    def test_solver_curve_close_to_rates(self):
        # A genuine solve against a tail-l coefficient approaches the
        # expected ladder (transients shrink but do not vanish by 1e4).
        params = ProblemParams(n=4, k=2, gamma=1.0)
        grid = RadialGrid.build(1e4)
        curve = solve_cauchy(params, RadialProfile.power_tail(1.0), grid)
        report = verify_rates(curve, params, 1.0)
        assert report.status == "ok"
        assert report.fits["u"].exponent == pytest.approx(3.0, rel=0.03)
        assert report.fits["du"].exponent == pytest.approx(2.0, rel=0.03)
        assert report.fits["d2u"].exponent == pytest.approx(1.0, rel=0.05)
        assert report.amplitude_ratio < 2.0

    def test_oscillatory_curve_is_inconclusive(self):
        # Slope noise well above the stderr cap must be flagged, not
        # silently averaged into a rate.
        params = ProblemParams(n=3, k=1, gamma=0.5)
        grid = RadialGrid.build(1e4, nodes_per_decade=32)
        r = grid.nodes
        wobble = np.exp(0.6 * np.sin(5.0 * np.log(np.maximum(r, 1e-6))))
        u = (1.0 + r**3) * wobble
        du = np.gradient(u, r)
        d2u = np.gradient(du, r)
        curve = RadialCurve(grid, u=u, du=du, d2u=d2u)
        report = verify_rates(curve, params, 0.0)
        assert report.status == "inconclusive"
        assert any("stderr" in note for note in report.notes)

    def test_nonpositive_derivative_is_inconclusive(self):
        params = ProblemParams(n=3, k=1, gamma=0.5)
        grid = RadialGrid.build(1e3, nodes_per_decade=32)
        r = grid.nodes
        u = np.full_like(r, 2.0)  # flat: du = 0 on the window
        curve = RadialCurve(grid, u=u, du=np.zeros_like(r), d2u=np.zeros_like(r))
        report = verify_rates(curve, params, 0.0)
        assert report.status == "inconclusive"
        assert "du" not in report.fits
