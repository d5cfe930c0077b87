"""Sub/supersolution sandwich construction and its closed-form ceilings."""

import json

import numpy as np
import pytest

from hessianls.coefficients import (
    AnisotropicPowerField,
    QuadraticRootField,
    RadialProfile,
    radialize,
    triple_from_radial,
)
from hessianls.core import ProblemParams, RadialGrid
from hessianls import envelope, sandwich
from hessianls.errors import OrderingError, OscillationError, ParameterError
from hessianls.sandwich import (
    bounded_dominance_bound,
    build_sandwich,
    supersolution_envelope,
)
from hessianls.solver import solve_cauchy

B_ONE = RadialProfile.constant(1.0)


class TestEnvelopes:
    def test_supersolution_envelope_oracle(self, laplace_params):
        # beta = 2, b = 1, k = 1, gamma = 1/2: (sqrt(2) + r^2/12)^2.
        r = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(
            supersolution_envelope(laplace_params, B_ONE, 2.0, r),
            (np.sqrt(2.0) + r**2 / 12.0) ** 2,
            rtol=1e-9,
        )

    def test_envelope_dominates_supersolution(self, laplace_params):
        grid = RadialGrid.build(100.0, nodes_per_decade=24)
        beta = 2.0
        w = solve_cauchy(laplace_params.with_center(beta), B_ONE, grid)
        env = supersolution_envelope(laplace_params, B_ONE, beta, grid.nodes)
        assert np.all(w.u <= env * (1 + 1e-8))

    def test_dominance_bound_oracle(self, laplace_params):
        # k = 1, gamma = 1/2: 2^(gamma/(k-gamma)) = 2 and
        # ubar = r^2/6 for b = 1, so the bound is 2 (1 + (r^2/6)^2).
        r = np.array([0.0, 2.0, 5.0])
        np.testing.assert_allclose(
            bounded_dominance_bound(laplace_params, B_ONE, r),
            2.0 * (1.0 + (r**2 / 6.0) ** 2),
            rtol=1e-9,
        )

    @pytest.mark.parametrize(
        "n,k,gamma,l,a",
        [
            (3, 1, 0.5, 0.0, 1.0),
            (3, 1, 0.3, 1.0, 2.0),
            (5, 2, 1.0, 1.5, 1.0),
            (5, 2, 1.7, 0.5, 0.7),
        ],
    )
    def test_dominance_bound_holds_along_solves(self, n, k, gamma, l, a):
        params = ProblemParams(n=n, k=k, gamma=gamma, a=a)
        b = RadialProfile.power_tail(l)
        grid = RadialGrid.build(200.0, nodes_per_decade=24)
        curve = solve_cauchy(params, b, grid)
        bound = bounded_dominance_bound(params, b, grid.nodes)
        assert np.all(curve.u <= bound * (1 + 1e-8))


class TestBuildSandwich:
    def test_radial_coefficient_gives_beta_two(self, laplace_params):
        # Radial triple: I_osc = 0, default margin 1, so beta = 2 exactly.
        grid = RadialGrid.build(50.0, nodes_per_decade=16)
        report = build_sandwich(triple_from_radial(B_ONE), laplace_params, grid)
        assert report.beta == 2.0
        assert report.margin == 1.0
        assert report.min_margin > 0.0
        assert report.oscillation.satisfied
        np.testing.assert_allclose(report.w.u[0] - report.v.u[0], 1.0, rtol=1e-12)

    def test_anisotropic_success(self, hessian2_params):
        # l = 1, m = 8 > m* = 7 in n = 5: the automatic construction goes
        # through, the ordering is strict and the supersolution respects
        # its closed-form ceiling.
        field = AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)
        grid = RadialGrid.build(1e3, nodes_per_decade=24)
        triple = radialize(field, grid, sphere_count=128)
        report = build_sandwich(triple, hessian2_params, grid)
        assert report.oscillation.satisfied
        assert report.beta > 1.0
        assert report.min_margin > 0.0
        assert report.envelope_excess <= 1e-8
        assert np.all(report.w.u >= report.v.u)

    def test_supersolution_monotone_in_beta(self, hessian2_params):
        field = AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        triple = radialize(field, grid, sphere_count=64)
        low = build_sandwich(triple, hessian2_params, grid, beta=3.0)
        high = build_sandwich(triple, hessian2_params, grid, beta=5.0)
        assert np.all(high.w.u >= low.w.u)
        np.testing.assert_array_equal(low.v.u, high.v.u)

    def test_one_j_table_per_sandwich(self, hessian2_params, monkeypatch):
        # the golden sandwich spec: I_osc and the supersolution ceiling read
        # one J table of b_*, laid on the grid's nodes
        field = AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        triple = radialize(field, grid, sphere_count=64)
        tables, calls = envelope.linear_growth_tables, []

        def counted(*args):
            calls.append(args)
            return tables(*args)
        monkeypatch.setattr(envelope, "linear_growth_tables", counted)
        report = build_sandwich(triple, hessian2_params, grid)
        assert report.oscillation.satisfied and report.oscillation.finite_part > 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("nodes_per_decade", [16, 32, 2400])
    def test_envelope_excess_is_the_public_ceilings(self, hessian2_params, nodes_per_decade):
        # the ceiling the sandwich reads from its table is supersolution_envelope's,
        # bit for bit, on the golden sandwich spec, on a grid not nested in the
        # fine nodes and on one whose nodes lie within the merge gap of each other
        field = AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)
        grid = RadialGrid.build(100.0, nodes_per_decade=nodes_per_decade)
        triple = radialize(field, grid, sphere_count=64)
        report = build_sandwich(triple, hessian2_params, grid)
        env = supersolution_envelope(hessian2_params, triple.b_star, report.beta, grid.nodes)
        assert report.envelope_excess == float(np.max(report.w.u / env - 1.0))

    def test_oscillation_precondition(self, laplace_params):
        # The stock counterexample field's oscillation decays like 1/r,
        # far below m* = 3: automatic construction must refuse.
        field = QuadraticRootField(weights=(2.0, 1.0, 1.0))
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        triple = radialize(field, grid, sphere_count=64)
        with pytest.raises(OscillationError):
            build_sandwich(triple, laplace_params, grid)

    def test_explicit_beta_bypasses_precondition(self, laplace_params):
        # A forced construction with a huge starting height still yields a
        # correctly ordered pair on a finite window.
        field = QuadraticRootField(weights=(2.0, 1.0, 1.0))
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        triple = radialize(field, grid, sphere_count=64)
        report = build_sandwich(triple, laplace_params, grid, beta=5e4)
        assert not report.oscillation.satisfied
        assert report.min_margin > 0.0

    def test_ordering_failure_reports_radius(self, laplace_params):
        # With a barely raised supersolution the faster-growing v (it sees
        # the larger envelope b^*) overtakes w at finite radius.
        field = QuadraticRootField(weights=(2.0, 1.0, 1.0))
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        triple = radialize(field, grid, sphere_count=64)
        with pytest.raises(OrderingError) as exc:
            build_sandwich(triple, laplace_params, grid, beta=1.5)
        assert 0.0 < exc.value.radius <= 100.0
        assert exc.value.suggested_margin > 0.5

    def test_beta_must_exceed_one(self, laplace_params):
        grid = RadialGrid.build(10.0)
        with pytest.raises(OrderingError):
            build_sandwich(triple_from_radial(B_ONE), laplace_params, grid, beta=0.9)

    @pytest.mark.parametrize("tolerances", [{"rel_tol": 0.0}, {"rel_tol": -1e-8},
                                            {"abs_tol": 0.0}])
    def test_tolerances_refused_before_any_work(self, laplace_params, monkeypatch,
                                                 tolerances):
        def no_work(*args, **kwargs):
            raise AssertionError("the oscillation check ran")

        monkeypatch.setattr(sandwich, "oscillation_condition", no_work)
        with pytest.raises(ParameterError, match=r"(rel|abs)_tol: must "):
            build_sandwich(triple_from_radial(B_ONE), laplace_params, RadialGrid.build(10.0),
                           **tolerances)

    def test_save_artifacts(self, laplace_params, tmp_path):
        grid = RadialGrid.build(20.0, nodes_per_decade=12)
        triple = triple_from_radial(B_ONE)
        report = build_sandwich(triple, laplace_params, grid)
        payload = report.save(tmp_path, triple)
        assert (tmp_path / "v.csv").exists()
        assert (tmp_path / "w.csv").exists()
        with open(tmp_path / "report.json") as handle:
            on_disk = json.load(handle)
        assert on_disk["beta"] == payload["beta"] == 2.0
        assert on_disk["oscillation"]["status"] == "satisfied"
        assert on_disk["v_csv"] == "v.csv"
