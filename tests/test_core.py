"""Combinatorics, radial sigma_j collapse, parameter/grid validation."""

import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hessianls import core
from hessianls.core import (
    MAX_GRID_NODES,
    ProblemParams,
    RadialCurve,
    RadialGrid,
    binomial,
    gamma_k_membership,
    sigma_j_radial,
)
from hessianls.errors import ParameterError


class TestBinomial:
    def test_oracle_values(self):
        assert binomial(5, 2) == 10
        assert binomial(10, 0) == 1
        assert binomial(7, 7) == 1
        assert binomial(64, 32) == math.comb(64, 32)
        assert isinstance(binomial(64, 32), int)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            binomial(-1, 0)
        with pytest.raises(ParameterError):
            binomial(3, -2)

    def test_or_zero_convention(self):
        # math.comb's rule: C(n, k) = 0 for k > n.
        assert binomial(3, 4) == 0
        assert binomial(3, 5) == 0
        assert binomial(0, 1) == 0
        assert binomial(3, 3) == 1

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    def test_pascal_rule(self, n, k):
        k = min(k, n)
        assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


class TestSigmaJRadial:
    def test_identity_spectrum_collapse(self):
        # When u'' equals u'/r the spectrum is t * Id and sigma_j must be
        # C(n, j) t^j.
        for n in (3, 5, 8):
            for j in range(1, n + 1):
                for t in (0.3, 1.0, 2.5):
                    expected = math.comb(n, j) * t**j
                    assert sigma_j_radial(j, t, t, n) == pytest.approx(expected, rel=1e-14)

    def test_laplacian_case(self):
        # j = 1 is the Laplacian: u'' + (n-1) u'/r.
        assert sigma_j_radial(1, 2.0, 2.0, 3) == pytest.approx(6.0)
        assert sigma_j_radial(1, 1.0, 0.5, 4) == pytest.approx(1.0 + 3 * 0.5)

    def test_exact_power_spectrum(self):
        # u = C r^3 with C = 1/45 in n = 3: at r = 1, u'' = 6C, u'/r = 3C,
        # and sigma_2 = C(2,2)(3C)^2 + C(2,1)(6C)(3C) = 9C^2 + 36C^2 = 45C^2.
        C = 1.0 / 45.0
        val = sigma_j_radial(2, 6 * C, 3 * C, 3)
        assert val == pytest.approx(45 * C**2, rel=1e-14)
        assert val == pytest.approx(C, rel=1e-14)

    def test_top_order_is_determinant(self):
        # j = n: C(n-1, n) = 0 so sigma_n = u'' (u'/r)^(n-1), the product of
        # all eigenvalues.
        assert sigma_j_radial(3, 2.0, 0.5, 3) == pytest.approx(2.0 * 0.25)

    def test_vectorized(self):
        d2u = np.array([1.0, 2.0, 3.0])
        t = np.array([1.0, 1.0, 2.0])
        out = sigma_j_radial(2, d2u, t, 4)
        expected = 3 * t**2 + 3 * d2u * t
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            sigma_j_radial(0, 1.0, 1.0, 3)
        with pytest.raises(ParameterError):
            sigma_j_radial(4, 1.0, 1.0, 3)

    @given(
        st.integers(min_value=3, max_value=9),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_matches_symmetric_polynomial(self, n, d2u, t):
        # Cross-check against the elementary symmetric polynomial of the
        # explicit spectrum (d2u, t, ..., t) computed via np.poly.
        eigs = np.array([d2u] + [t] * (n - 1))
        coeffs = np.poly(eigs)  # prod (x - eig): e_j = (-1)^j coeffs[j]
        for j in range(1, n + 1):
            expected = (-1) ** j * coeffs[j]
            got = sigma_j_radial(j, d2u, t, n)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestProblemParams:
    def test_valid(self):
        p = ProblemParams(n=4, k=2, gamma=1.5, a=2.0)
        assert p.cnk == 6
        assert p.sub_power == pytest.approx(0.25)

    def test_cnk_is_computed_once(self, monkeypatch):
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
        p = ProblemParams(n=40, k=20, gamma=1.5)
        for _ in range(5):
            assert p.cnk == comb(40, 20) and type(p.cnk) is int
        assert calls == [(40, 20)]
        # the cached value is no field: equality, hashing and pickling ignore it
        fresh = ProblemParams(n=40, k=20, gamma=1.5)
        assert p == fresh and hash(p) == hash(fresh)
        assert pickle.loads(pickle.dumps(p)).cnk == p.cnk

    def test_with_center(self):
        p = ProblemParams(n=3, k=1, gamma=0.5, a=1.0)
        q = p.with_center(7.0)
        assert q.a == 7.0 and q.n == p.n and q.k == p.k and q.gamma == p.gamma

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2, k=1, gamma=0.5),
            dict(n=3, k=0, gamma=0.5),
            dict(n=3, k=4, gamma=0.5),
            dict(n=3, k=1, gamma=0.0),
            dict(n=3, k=1, gamma=1.0),  # gamma must be strictly below k
            dict(n=3, k=1, gamma=-0.5),
            dict(n=3, k=1, gamma=0.5, a=0.0),
            dict(n=3, k=1, gamma=0.5, a=-1.0),
            dict(n=3, k=1, gamma=0.5, a=math.inf),
            dict(n=3, k=1, gamma=0.5, a=math.nan),
            dict(n=2000, k=1000, gamma=0.5),  # C(n, k) ~ 2e600
            dict(n=10**400, k=1, gamma=0.5),
            dict(n=10**400, k=10**400, gamma=0.5),  # C(n, k) = 1, but n is no float
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            ProblemParams(**{"a": 1.0, **kwargs})

    def test_binomial_within_float_range(self):
        assert ProblemParams(n=1029, k=514, gamma=0.5).cnk < sys.float_info.max
        with pytest.raises(ParameterError, match=r"C\(n, k\) .* float range, got n=1030, k=515"):
            ProblemParams(n=1030, k=515, gamma=0.5)

    def test_non_integer_orders_rejected(self):
        with pytest.raises(ParameterError):
            ProblemParams(n=3.0, k=1, gamma=0.5)
        with pytest.raises(ParameterError):
            ProblemParams(n=3, k=1.5, gamma=0.5)


class TestRadialGrid:
    def test_build_shape(self):
        g = RadialGrid.build(1e4, r_lin=10.0, nodes_per_decade=48)
        r = g.nodes
        assert r[0] == 0.0
        assert r[-1] == 1e4
        assert np.all(np.diff(r) > 0)
        # Linear head: uniform spacing up to r_lin.
        head = r[r <= 10.0 + 1e-12]
        np.testing.assert_allclose(np.diff(head), head[1], rtol=1e-12)
        # Log tail: roughly nodes_per_decade per decade.
        tail = r[r >= 10.0]
        ratios = tail[1:] / tail[:-1]
        np.testing.assert_allclose(ratios[:-1], ratios[0], rtol=1e-6)
        per_decade = 1.0 / math.log10(ratios[0])
        assert per_decade == pytest.approx(48, rel=0.05)

    def test_build_short_domain(self):
        g = RadialGrid.build(2.0, r_lin=10.0)
        assert g.r_max == 2.0
        # Entire grid is linear when r_max <= r_lin.
        np.testing.assert_allclose(np.diff(g.nodes), g.nodes[1], rtol=1e-12)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            RadialGrid.build(-1.0)
        with pytest.raises(ParameterError):
            RadialGrid.build(10.0, nodes_per_decade=2)
        for bad in (math.inf, math.nan):
            with pytest.raises(ParameterError):
                RadialGrid.build(bad)
            with pytest.raises(ParameterError):
                RadialGrid.build(10.0, r_lin=bad)
        with pytest.raises(ParameterError):
            RadialGrid(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ParameterError):
            RadialGrid(np.array([0.5, 1.0]))

    @pytest.mark.parametrize("r_max, r_lin, npd", [
        (1e4, 10.0, 48),  # the default grid
        (2.0, 10.0, 48), (5.0, 10.0, 4),  # r_max < r_lin: linear nodes only
        (10.001, 10.0, 48), (1.001, 1.0, 4),  # spans far below one decade
        (1e3, 10.0, 4), (1e6, 0.5, 333), (1e3, 10.0, 16_666),
        (5.0, 10.0, MAX_GRID_NODES - 1), (5.0, 10.0, MAX_GRID_NODES),
        (100.0, 10.0, MAX_GRID_NODES),  # 50001 linear and 50000 log-spaced nodes
        (1e154, 10.0, 48),  # the widest default grid a spec at n = 3 admits
        (10.0 + 1e-12, 10.0, 48), (1e300 * (1 + 1e-11), 1e300, 48),  # just clear of r_lin
        # a few ulps clear of r_lin: one log node strictly between r_lin and r_max
        (10.00000000000005, 10.0, 48), (1e300 * (1 + 1e-13), 1e300, 48),
        (math.nextafter(math.nextafter(10.0, math.inf), math.inf), 10.0, 48),
        # subnormal spans of 8 and 9 units of 5e-324: 8 linear cells still
        # lay distinct nodes
        (4e-323, 1.0, 4), (1e-320, 4e-323, 4), (4.4e-323, 1.0, 4),
    ])
    def test_count_held_to_the_cap_is_the_count_laid(self, monkeypatch, r_max, r_lin, npd):
        monkeypatch.setattr(core, "MAX_GRID_NODES", 10**9)
        size = RadialGrid.build(r_max, r_lin, npd).nodes.size
        monkeypatch.setattr(core, "MAX_GRID_NODES", size)
        assert RadialGrid.build(r_max, r_lin, npd).nodes.size == size
        monkeypatch.setattr(core, "MAX_GRID_NODES", size - 1)
        with pytest.raises(ParameterError, match=f" {size} nodes\\b.*; at most {size - 1}$"):
            RadialGrid.build(r_max, r_lin, npd)

    @pytest.mark.parametrize("r_max, r_lin, npd, field", [
        (100.0, 10.0, MAX_GRID_NODES, "nodes_per_decade"),
        (5.0, 10.0, 10**400, "nodes_per_decade"),
        (1e4, 10.0, 12_500, "r_max"),
        (1e308, 5e-324, 80, "r_max"),
        # log nodes that round onto r_lin or r_max (they once read "grid nodes
        # must be strictly increasing", naming no field)
        (10.000000000000002, 10.0, 48, "r_max"),
        (math.nextafter(1e300, math.inf), 1e300, 4, "r_max"),
        (1e300 * (1 + 2e-15), 1e300, 4, "r_max"),
        (math.nextafter(1e-300, 1.0), 1e-300, 1000, "r_max"),
        # two ulps above r_lin = 1.5 the one inner log node rounds onto r_max
        (math.nextafter(math.nextafter(1.5, math.inf), math.inf), 1.5, 48, "r_max"),
        # subnormal spans whose linear nodes round onto each other (they read
        # "grid nodes must be strictly increasing"): the field ending [0, span]
        (1e-320, 5e-324, 4, "r_lin"), (1e-320, 3.5e-323, 4, "r_lin"),
        (3e-323, 3.5e-323, 48, "r_max"), (3.5e-323, 1.0, 4, "r_max"),
        (1e-300, 2e-322, 48, "r_lin"),
    ])
    def test_beyond_the_cap_refused_before_any_array(self, monkeypatch, r_max, r_lin, npd,
                                                     field):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"a grid array was laid (numpy.{name})")

        monkeypatch.setattr(core, "np", NoArrays())
        with pytest.raises(ParameterError, match=f"^{field} = "):
            RadialGrid.build(r_max, r_lin, npd)

    def test_at_the_cap_builds(self):
        assert RadialGrid.build(5.0, 10.0, MAX_GRID_NODES - 1).nodes.size == MAX_GRID_NODES

    def test_refined_contains_original(self):
        g = RadialGrid.build(1e3, nodes_per_decade=16)
        fine = g.refined(4)
        assert fine.size > len(g)
        assert np.all(np.diff(fine) > 0)
        # Original nodes survive refinement.
        for r in g.nodes:
            assert np.any(np.isclose(fine, r, rtol=1e-13, atol=1e-300))

    @pytest.mark.parametrize("r_max, r_lin, npd", [
        (5.0, 10.0, 8), (1e3, 10.0, 16), (1e4, 10.0, 48), (1e6, 0.5, 32), (37.0, 10.0, 96),
    ])
    @pytest.mark.parametrize("factor", [2, 4, 7])
    def test_refined_matches_per_cell_loop(self, r_max, r_lin, npd, factor):
        # Reference: geometric sub-nodes in cells with lo > 0 and
        # hi/lo > 1.02, linear ones elsewhere, one cell at a time.
        g = RadialGrid.build(r_max, r_lin=r_lin, nodes_per_decade=npd)
        expected = [np.array([0.0])]
        for lo, hi in zip(g.nodes[:-1], g.nodes[1:]):
            space = np.geomspace if lo > 0 and hi / lo > 1.02 else np.linspace
            expected.append(space(lo, hi, factor + 1)[1:])
        np.testing.assert_array_equal(g.refined(factor), np.concatenate(expected))

    def test_refined_factor_one_is_identity(self):
        g = RadialGrid.build(100.0)
        assert g.refined(1) is g.nodes

    @given(
        st.floats(min_value=0.5, max_value=1e6),
        st.integers(min_value=4, max_value=64),
    )
    def test_build_properties(self, r_max, npd):
        g = RadialGrid.build(r_max, nodes_per_decade=npd)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == pytest.approx(r_max, rel=0, abs=0)
        assert np.all(np.diff(g.nodes) > 0)


class TestRadialCurve:
    def test_du_over_r_origin_limit(self):
        g = RadialGrid(np.array([0.0, 1.0, 2.0]))
        c = RadialCurve(g, u=[1.0, 1.5, 3.0], du=[0.0, 1.0, 2.0], d2u=[1.0, 1.0, 1.0])
        t = c.du_over_r()
        assert t[0] == 1.0  # identity limit u''(0)
        assert t[1] == 1.0
        assert t[2] == 1.0

    def test_shape_mismatch(self):
        g = RadialGrid(np.array([0.0, 1.0]))
        with pytest.raises(ParameterError):
            RadialCurve(g, u=[1.0, 2.0, 3.0], du=[0.0, 1.0], d2u=[1.0, 1.0])

    def test_membership_quadratic(self):
        # u = 1 + r^2 has Hessian 2*Id: inside every cone.
        g = RadialGrid.build(10.0)
        r = g.nodes
        c = RadialCurve(g, u=1 + r**2, du=2 * r, d2u=np.full_like(r, 2.0))
        for k in (1, 2, 3):
            p = ProblemParams(n=3, k=k, gamma=0.5 * k)
            assert gamma_k_membership(c, p).all()

    def test_membership_detects_concavity(self):
        # u with u'' < 0 somewhere fails k = 2 (sigma_2 needs both terms).
        g = RadialGrid(np.array([0.0, 1.0, 2.0, 3.0]))
        r = g.nodes
        u = np.sqrt(1 + r**2)
        du = r / u
        d2u = 1 / u**3 - 1e-2 - 0 * r
        d2u[2:] = -0.5
        c = RadialCurve(g, u=u, du=du, d2u=d2u)
        p = ProblemParams(n=4, k=2, gamma=1.0)
        ok = gamma_k_membership(c, p)
        assert not ok.all()
        assert ok[0]  # positive at the center

    def test_membership_monotone_in_k(self):
        # Cone order k membership implies membership for every j <= k, so
        # failing at small k means failing at larger k too.
        g = RadialGrid(np.array([0.0, 0.5, 1.0, 2.0]))
        r = g.nodes
        u = 1 + r**2 - 0.3 * r**3
        du = 2 * r - 0.9 * r**2
        d2u = 2 - 1.8 * r
        c = RadialCurve(g, u=u, du=du, d2u=d2u)
        masks = {}
        for k in (1, 2, 3):
            p = ProblemParams(n=4, k=k, gamma=0.5 * k)
            masks[k] = gamma_k_membership(c, p)
        assert np.all(masks[2] <= masks[1])
        assert np.all(masks[3] <= masks[2])
