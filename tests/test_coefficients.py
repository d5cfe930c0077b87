"""Radial profiles, sphere sampling, fields and radialized envelopes."""

import bisect
import math
import re
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hessianls import coefficients
from hessianls.coefficients import (
    MAX_SPHERE_COUNT,
    MIN_SPHERE_COUNT,
    AnisotropicPowerField,
    QuadraticRootField,
    RadialProfile,
    check_coefficient,
    load_profile_csv,
    make_builtin_field,
    ndtri,
    radialize,
    ray_directions,
    save_profile_csv,
    sphere_points,
    triple_from_radial,
)
from hessianls.core import RadialGrid
from hessianls.errors import CoefficientError, ProfileRangeError


class TestRadialProfile:
    def test_constant(self):
        b = RadialProfile.constant(3.5)
        assert b(0.0) == 3.5
        np.testing.assert_allclose(b(np.array([0.0, 1.0, 1e6])), 3.5)

    def test_power_tail_formula(self):
        b = RadialProfile.power_tail(2.0)
        r = np.array([0.0, 1.0, 10.0])
        np.testing.assert_allclose(b(r), (1 + r**2) ** -1.0, rtol=1e-15)
        assert b.tail_exponent == 2.0

    def test_power_tail_flat_is_one(self):
        b = RadialProfile.power_tail(0.0)
        r = np.geomspace(1e-3, 1e6, 40)
        np.testing.assert_allclose(b(r), 1.0, rtol=1e-15)

    def test_power_tail_with_perturbation(self):
        b = RadialProfile.power_tail(1.0, m=3.0, A=0.5, r0=2.0, scale=4.0)
        r = 3.0
        q = 4.0 + 9.0
        assert b(r) == pytest.approx(4.0 * (q**-0.5 + 0.5 * q**-1.5), rel=1e-14)
        assert b.tail_exponent == 1.0  # min(l, m)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(l=math.nan), dict(l=math.inf), dict(l=1.0, m=math.nan, A=0.5),
         dict(l=1.0, m=3.0, A=math.inf)],
    )
    def test_power_tail_rejects_non_finite(self, kwargs):
        with pytest.raises(CoefficientError, match="finite"):
            RadialProfile.power_tail(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(l=1.0, r0=0.0), "power_tail needs r0 > 0, got 0.0"),
        (dict(l=1.0, r0=-2.0), "power_tail needs r0 > 0, got -2.0"),
        (dict(l=1.0, scale=0.0), "power_tail needs scale > 0, got 0.0"),
        (dict(l=1.0, scale=-1.0), "power_tail needs scale > 0, got -1.0"),
        (dict(l=1.0, A=0.5), "power_tail with A != 0 needs the second exponent m"),
    ], ids=["r0-zero", "r0-negative", "scale-zero", "scale-negative", "A-without-m"])
    def test_power_tail_rejects_bad_shape(self, kwargs, message):
        with pytest.raises(CoefficientError) as exc:
            RadialProfile.power_tail(**kwargs)
        assert str(exc.value) == message

    def test_power_tail_positivity_guard(self):
        # A large negative perturbation makes the profile dip below zero.
        with pytest.raises(CoefficientError):
            RadialProfile.power_tail(1.0, m=1.0, A=-2.0)

    def test_scaled(self):
        b = RadialProfile.power_tail(1.5).scaled(7.0)
        r = np.geomspace(0.1, 100, 17)
        np.testing.assert_allclose(b(r), 7.0 * (1 + r**2) ** -0.75, rtol=1e-14)
        with pytest.raises(CoefficientError):
            b.scaled(-1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(CoefficientError):
            RadialProfile.constant(1.0)(-0.5)

    def test_zero_profile(self):
        z = RadialProfile.zero()
        assert z.is_zero()
        np.testing.assert_allclose(z(np.array([0.0, 5.0])), 0.0)

    @given(st.floats(min_value=0.0, max_value=6.0), st.floats(min_value=0.0, max_value=1e4))
    def test_power_tail_positive_everywhere(self, l, r):
        assert RadialProfile.power_tail(l)(r) > 0.0

    @pytest.mark.parametrize("profile", [
        RadialProfile.constant(2.5),
        RadialProfile.power_tail(1.3),
        RadialProfile.power_tail(1.3, m=4.7, A=0.6, r0=0.8, scale=2.0),
        AnisotropicPowerField(l=1.3, m=7.0, amp=0.5).envelope_profiles()[1],
        QuadraticRootField(weights=(2.0, 1.0, 1.0)).envelope_profiles()[0],
        RadialProfile.from_callable(lambda r: 3.0 * (1.0 + r * r) ** -0.65),
        RadialProfile.tabulated([0.0, 0.5, 2.0, 9.0, 40.0], [2.0, 1.5, 0.4, 0.1, 0.02],
                                tail_exponent=1.5),
    ], ids=["constant", "power_tail", "power_tail-perturbed", "anisotropic-upper",
            "counterexample-star", "callable", "tabulated"])
    def test_scalar_call_equals_array_call(self, profile):
        # Bit for bit: numpy's scalar power can differ by an ulp from its
        # array loop, so a scalar fast path must still take the array route.
        r = np.concatenate([[0.0], np.geomspace(1e-3, 1e5, 400)])
        assert [profile(float(x)) for x in r] == list(profile(r))

    @pytest.mark.parametrize("profile", [
        RadialProfile.constant(2.5),
        RadialProfile.power_tail(1.3),
        RadialProfile.power_tail(1.3, m=4.7, A=0.6, r0=0.8, scale=2.0),
        AnisotropicPowerField(l=1.3, m=7.0, amp=0.5).envelope_profiles()[1],
        QuadraticRootField(weights=(2.0, 1.0, 1.0)).envelope_profiles()[0],
        RadialProfile.from_callable(lambda r: 3.0 * (1.0 + r * r) ** -0.65),
        RadialProfile.tabulated([0.0, 0.5, 2.0, 9.0, 40.0], [2.0, 1.5, 0.4, 0.1, 0.02],
                                tail_exponent=1.5),
    ], ids=["constant", "power_tail", "power_tail-perturbed", "anisotropic-upper",
            "counterexample-star", "callable", "tabulated"])
    def test_log_closure_matches_log_of_eval(self, profile):
        # The solver's float pieces s -> ln b(e^s) against the array path,
        # nodes of the table included: each point in the piece whose stop
        # is the first at or above it.
        r = np.unique(np.concatenate([np.geomspace(1e-3, 1e5, 400), [0.5, 2.0, 9.0, 40.0]]))
        pieces = profile.log_pieces(r[0], r[-1])
        stops = [stop for stop, _ in pieces]
        got = np.array([pieces[bisect.bisect_left(stops, math.log(x))][1](math.log(x))
                        for x in r])
        want = np.log(profile(r))
        np.testing.assert_array_less(np.abs(got - want), 1e-14 * np.maximum(1.0, np.abs(want)))

    def test_log_closure_rejects_what_eval_rejects(self):
        table = RadialProfile.tabulated([1.0, 2.0], [1.0, 0.5])
        with pytest.raises(ProfileRangeError, match="beyond tabulated range"):
            table.log_pieces(1.5, 3.0)
        with pytest.raises(ProfileRangeError, match="below tabulated range"):
            table.log_pieces(0.5, 1.5)
        dip = RadialProfile.from_callable(lambda r: 1.0 - np.asarray(r))
        (_, log_dip), = dip.log_pieces(0.5, 3.0)
        with pytest.raises(CoefficientError, match="must be positive"):
            log_dip(math.log(2.0))
        with pytest.raises(CoefficientError, match="has no logarithm"):
            RadialProfile.zero().log_pieces(0.5, 3.0)


class TestTabulatedProfile:
    def test_loglog_interpolation_exact_on_powers(self):
        # Log-log interpolation reproduces pure power data exactly between
        # nodes.
        r_tab = np.geomspace(0.5, 1e3, 25)
        b = RadialProfile.tabulated(r_tab, r_tab**-2.0)
        probe = np.sqrt(r_tab[:-1] * r_tab[1:])  # geometric midpoints
        np.testing.assert_allclose(b(probe), probe**-2.0, rtol=1e-12)

    def test_linear_near_origin(self):
        # First cell starts at r = 0 where log-log is unavailable.
        b = RadialProfile.tabulated([0.0, 1.0, 2.0], [2.0, 4.0, 8.0])
        assert b(0.5) == pytest.approx(3.0, rel=1e-14)

    def test_tail_extrapolation(self):
        r_tab = np.geomspace(1.0, 100.0, 10)
        b = RadialProfile.tabulated(r_tab, 5.0 * r_tab**-1.5, tail_exponent=1.5)
        assert b(1e4) == pytest.approx(5.0 * 1e4**-1.5, rel=1e-12)

    def test_range_errors(self):
        b = RadialProfile.tabulated([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(ProfileRangeError):
            b(5.0)  # beyond range, no declared tail
        with pytest.raises(ProfileRangeError):
            b(0.5)  # below tabulated range

    def test_validation(self):
        with pytest.raises(CoefficientError):
            RadialProfile.tabulated([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(CoefficientError):
            RadialProfile.tabulated([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(CoefficientError):
            RadialProfile.tabulated([0.0], [1.0])
        # Zeros allowed only when strictly_positive is relaxed.
        with pytest.raises(CoefficientError):
            RadialProfile.tabulated([0.0, 1.0], [0.0, 1.0])
        ok = RadialProfile.tabulated([0.0, 1.0], [0.0, 1.0], strictly_positive=False)
        assert ok(0.0) == 0.0

    @staticmethod
    def _reference(r_tab, b_tab, tail, x):
        """Per-point table interpolation written out with bisect and math."""
        if x > r_tab[-1]:
            return b_tab[-1] * (x / r_tab[-1]) ** (-tail)
        i = min(bisect.bisect_right(r_tab, x) - 1, len(r_tab) - 2)
        r0, r1, b0, b1 = r_tab[i], r_tab[i + 1], b_tab[i], b_tab[i + 1]
        if r0 > 0 and b0 > 0 and b1 > 0:
            t = (math.log(x) - math.log(r0)) / (math.log(r1) - math.log(r0))
            return math.exp(math.log(b0) + t * (math.log(b1) - math.log(b0)))
        return b0 + (x - r0) / (r1 - r0) * (b1 - b0)

    def test_matches_per_point_reference(self):
        # Starts at r = 0, has zero values (cells with a zero end are
        # linear), positive log-log cells and a declared tail.
        r_tab = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 40.0, 100.0]
        b_tab = [2.0, 1.5, 0.0, 0.0, 0.7, 1.2, 0.3, 0.31, 0.02, 0.01]
        b = RadialProfile.tabulated(r_tab, b_tab, tail_exponent=1.5,
                                    strictly_positive=False)
        rng = np.random.default_rng(3)
        inside = rng.uniform(np.array(r_tab[:-1]), np.array(r_tab[1:]), (4, 9)).ravel()
        probe = np.concatenate([r_tab, inside, [100.0 * (1 + 1e-12), 150.0, 1e4]])
        expected = [self._reference(r_tab, b_tab, 1.5, float(x)) for x in probe]
        np.testing.assert_allclose(b(probe), expected, rtol=1e-13, atol=0.0)
        assert [b(float(x)) for x in probe] == list(b(probe))

    def test_csv_roundtrip_exact(self, tmp_path):
        r_tab = np.geomspace(0.31, 977.0, 33)
        vals = np.pi * r_tab**-1.37
        b = RadialProfile.tabulated(r_tab, vals, tail_exponent=1.37)
        path = tmp_path / "profile.csv"
        save_profile_csv(b, path)
        back = load_profile_csv(path, tail_exponent=1.37)
        # 17 significant digits round-trips doubles exactly.
        np.testing.assert_array_equal(back.radii, r_tab)
        np.testing.assert_array_equal(back.values, vals)

    def test_failed_csv_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        # zip runs once the file is open, so the write fails part way; the
        # file lands by replace only when the write completes
        b = RadialProfile.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.25], tail_exponent=1.0)
        path = tmp_path / "profile.csv"
        path.write_text("old contents\n")

        def fail(*args):
            raise OSError("failed on purpose")

        monkeypatch.setattr(coefficients, "zip", fail, raising=False)
        with pytest.raises(OSError, match="failed on purpose"):
            save_profile_csv(b, path)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("content, message", [
        ("r,b\n0,1\n1,2\n2,x\n", "line 4, column 2: 'x' is not a number"),
        ("r,b\n0,1\n\n1,2\nx,3\n", "line 5, column 1: 'x' is not a number"),
        ("r,b\n0,1\n1,2,3\n", "line 3: expected 2 columns, got 3"),
        ("r,b\n0,1\n \n1\n", "line 4: expected 2 columns, got 1"),
        ("0.5,1\n1,0.5\n2,0.25\n4,0.1\n", "line 1: expected the header r,b, got a row of numbers"),
        ("0.5,1,7\n1,0.5\n2,0.25\n", "line 1: expected the header r,b, got a row of numbers"),
    ], ids=["cell", "after-blank-line", "long-row", "short-row", "no-header",
            "no-header-long-row"])
    def test_csv_errors_name_the_file_line(self, tmp_path, content, message):
        # lines count from 1 with the header as line 1; blank lines count too
        path = tmp_path / "b.csv"
        path.write_text(content)
        with pytest.raises(CoefficientError) as exc:
            load_profile_csv(path)
        assert str(exc.value) == f"profile CSV {path}: {message}"

    @pytest.mark.parametrize("radii, values, message", [
        ([0.0, 2.0, 1.0], [1.0, 1.0, 0.5],
         "tabulated radii must be nonnegative and strictly increasing (sample 2)"),
        ([-1.0, 2.0], [1.0, 1.0],
         "tabulated radii must be nonnegative and strictly increasing (sample 0)"),
        ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0],
         "tabulated radii must be nonnegative and strictly increasing (sample 2)"),
        ([0.0, 1.0, 2.0], [1.0, 0.0, -1.0], "tabulated values must be positive (sample 1)"),
        ([0.0], [1.0], "tabulated profile needs at least 2 samples, got 1 (sample 1)"),
        ([0.0, 1.0, 2.0], [1.0, np.nan, 0.25], "tabulated radii and values must be finite (sample 1)"),
        ([0.0, 1.0, np.inf], [1.0, 0.5, 0.25], "tabulated radii and values must be finite (sample 2)"),
    ], ids=["unsorted", "negative-radius", "repeated-radius", "zero-value", "one-sample",
            "nan-value", "inf-radius"])
    def test_table_rules_name_the_first_offending_sample(self, radii, values, message):
        with pytest.raises(CoefficientError) as exc:
            RadialProfile.tabulated(radii, values)
        assert str(exc.value) == message

    @pytest.mark.parametrize("content, message", [
        ("r,b\n0,1\n2,1\n1,0.5\n",
         "line 4: tabulated radii must be nonnegative and strictly increasing"),
        ("r,b\n0,1\n\n1,0\n2,1\n", "line 4: tabulated values must be positive"),
        ("r,b\n", "line 2: tabulated profile needs at least 2 samples, got 0"),
        ("r,b\n0,1\n\n", "line 4: tabulated profile needs at least 2 samples, got 1"),
        ("r,b\n0,1\n1,nan\n2,0.25\n", "line 3: tabulated radii and values must be finite"),
        ("r,b\n0,1\n1,0.5\ninf,0.25\n", "line 4: tabulated radii and values must be finite"),
        ("r,b\n0,1\n1,-inf\n", "line 3: tabulated radii and values must be finite"),
    ], ids=["unsorted", "zero-after-blank-line", "header-only", "one-row", "nan-value",
            "inf-radius", "minus-inf-value"])
    def test_csv_table_rules_name_the_file_line(self, tmp_path, content, message):
        # The rules are RadialProfile.tabulated's; the loader turns the first
        # offending sample into its line (a missing row: the line past the end).
        path = tmp_path / "b.csv"
        path.write_text(content)
        with pytest.raises(CoefficientError) as exc:
            load_profile_csv(path)
        assert str(exc.value) == f"profile CSV {path}: {message}"

    def test_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("r,b\n0, 1\n\n1,0.5\n2,0.25\n\n")
        back = load_profile_csv(path, tail_exponent=1.0)
        np.testing.assert_array_equal(back.radii, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(back.values, [1.0, 0.5, 0.25])

    def test_csv_rejects_non_tabulated(self, tmp_path):
        with pytest.raises(CoefficientError):
            save_profile_csv(RadialProfile.constant(1.0), tmp_path / "x.csv")


def _outcome(log_b, s):
    """log_b(s), or the type and message of what it raised."""
    try:
        return log_b(s)
    except CoefficientError as exc:
        return type(exc), str(exc)


def _cell_formula(profile, cell, s):
    """ln b(e^s) by the rule of table cell ``cell`` written out from the
    per-cell table: log-log, linear in r, or past the last radius the tail;
    for a linear value that is not positive, the refusal as _outcome gives it."""
    cells = profile._cells
    lr, lb = float(cells.log_r[cell]), float(cells.log_b[cell])
    if cell == profile.radii.size - 1:
        return lb - profile.tail_exponent * (s - lr)
    if cells.loggable[cell]:
        return lb + (s - lr) * float(cells.slopes[cell])
    value = (float(cells.b[cell])
             + (math.exp(s) - float(cells.r[cell])) / float(cells.dr[cell]) * float(cells.db[cell]))
    if value > 0.0:
        return math.log(value)
    return CoefficientError, f"coefficient must be positive, got {value:g} at r = {math.exp(s):g}"


@st.composite
def _tables(draw):
    """A table from r = 0 or above it, with zero values (linear cells beside
    log-log ones) and a declared tail or none."""
    size = draw(st.integers(2, 12))
    start = draw(st.sampled_from([0.0, draw(st.floats(1e-3, 10.0))]))
    gaps = draw(st.lists(st.floats(1e-3, 50.0), min_size=size - 1, max_size=size - 1))
    radii = np.concatenate([[start], start + np.cumsum(gaps)])
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
                           min_size=size, max_size=size))
    tail = draw(st.one_of(st.none(), st.floats(0.0, 4.0)))
    return RadialProfile.tabulated(radii, values, tail_exponent=tail, strictly_positive=False)


class TestCellRules:
    """The table's per-cell eval and its stepper pieces share one formula per
    cell: eval on a log-log cell, the tail included, is exp of the cell's
    piece rule and elsewhere the linear formula written out here; each piece
    equals its cell's rule recomputed from the per-cell table."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_tables(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_eval_is_exp_of_the_piece_rule(self, profile, fractions):
        # A radius's cell starts at the last table radius at or below it;
        # past the last radius that is the tail cell, without a tail the
        # last radius itself stays in the last cell between radii.
        r_tab, cells, rules = profile.radii, profile._cells, profile._log_rules
        tailed = profile.tail_exponent is not None
        top = r_tab[-1] * (3.0 if tailed else 1.0)
        rr = np.concatenate([r_tab, r_tab[0] + np.array(fractions) * (top - r_tab[0])])
        with np.errstate(divide="ignore"):
            log_rr = np.log(rr).tolist()
        radii, last = r_tab.tolist(), r_tab.size - (1 if tailed else 2)
        want = np.empty_like(rr)
        logs, at = [], []
        for i, r in enumerate(rr.tolist()):
            cell = min(bisect.bisect_right(radii, r) - 1, last)
            if cell == r_tab.size - 1 or cells.loggable[cell]:
                logs.append(rules[cell](log_rr[i]))
                at.append(i)
            else:
                b, r_i, dr, db = (float(column[cell]) for column in
                                  (cells.b, cells.r, cells.dr, cells.db))
                want[i] = b + (r - r_i) / dr * db
        want[at] = np.exp(np.array(logs))
        got = profile(rr)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_tables(), st.floats(0.0, 1.0), st.one_of(st.floats(0.0, 1.0), st.integers(1, 12)))
    def test_pieces_equal_log_table(self, profile, start, end):
        # The stops are the table's own log radii, r_end's too when it is one
        # (an integer ``end`` picks it, the last one included), else
        # math.log(r_end).  Each piece's rule equals, bit for bit, the formula
        # of the cell its midpoint lies in (the tail past the last radius)
        # inside the piece, the ulp below its stop and at the stop itself.
        r_tab, log_r = profile.radii, profile._cells.log_r.tolist()
        bottom = max(r_tab[0], 1e-9)
        at_radius = isinstance(end, int)
        if at_radius:
            j = min(end, r_tab.size - 1)
            r_end = float(r_tab[j])
            r_start = bottom + 0.99 * start * (r_end - bottom)
        else:
            top = r_tab[-1] * (3.0 if profile.tail_exponent is not None else 1.0)
            r_start = bottom + start * (top - r_tab[0])
            r_end = r_start + max(end * (top - r_start), 1e-6)
        pieces = profile.log_pieces(r_start, r_end)
        assert [stop for stop, _ in pieces] == [
            lg for r, lg in zip(r_tab.tolist(), log_r) if r_start < r < r_end] + (
            [log_r[j]] if at_radius else [math.log(r_end)])
        below = math.log(r_start)
        for stop, rule in pieces:
            cell = bisect.bisect_right(log_r, 0.5 * (below + stop)) - 1
            points = [below + f * (stop - below) for f in (0.01, 0.25, 0.5, 0.75, 0.99)]
            for s in points + [math.nextafter(stop, -math.inf), stop]:
                assert _outcome(rule, s) == _cell_formula(profile, cell, s)
            below = stop

    def test_pieces_refuse_radii_outside_the_table(self):
        # the array path's range errors, never an index past the table
        table = RadialProfile.tabulated([0.5, 1.0, 2.0], [1.0, 0.5, 0.25])
        with pytest.raises(ProfileRangeError, match="radius 0.25 below tabulated range 0.5"):
            table.log_pieces(0.25, 2.0)
        with pytest.raises(ProfileRangeError, match="radius 3 beyond tabulated range 2 and"):
            table.log_pieces(0.75, 3.0)
        with pytest.raises(ProfileRangeError, match="radius 3 beyond tabulated range 2 and"):
            table.log_pieces(2.0, 3.0)

    def test_closed_forms_step_in_one_piece(self):
        for profile in (RadialProfile.constant(2.5), RadialProfile.power_tail(1.3),
                        RadialProfile.from_callable(lambda r: 1.0 + np.asarray(r))):
            (stop, rule), = profile.log_pieces(1e-3, 40.0)
            assert stop == math.log(40.0)
            assert rule(0.5) == pytest.approx(math.log(profile(math.exp(0.5))), rel=1e-14)


@st.composite
def _power_sums(draw):
    """A sum of one to three positive power terms with a common scale: each
    exponent 0 at times, so factors are dropped, and j up to 2."""
    terms = draw(st.lists(st.tuples(st.floats(0.05, 20.0), st.integers(0, 2),
                                    st.floats(0.1, 10.0),
                                    st.one_of(st.just(0.0), st.floats(-3.0, 12.0))),
                          min_size=1, max_size=3))
    return RadialProfile.power_sum(terms, draw(st.floats(1e-3, 1e3)))


class TestClosedForms:
    """Every closed form is a power sum, computed by one array formula in
    eval and one float rule in its stepper piece; the built-in fields'
    envelopes are such sums."""

    # eval(r) and exp of the rule at ln r agree to this many ulps per unit of
    # the largest log a term's factors take (at least 1): exp turns an ulp of
    # ln b into a relative error of that size.  Measured worst: 3.7.
    ULPS_PER_LOG = 8.0

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_power_sums(), st.lists(st.floats(-7.0, 12.0), min_size=1, max_size=40))
    def test_eval_is_exp_of_the_piece_rule(self, profile, logs):
        (_, rule), = profile.log_pieces(1e-4, 1e6)
        s = np.array(logs)
        r = np.exp(s)
        want = np.exp([rule(x) for x in logs])
        size = np.max([abs(math.log(c)) + 2 * j * np.abs(s)
                       + abs(p) / 2.0 * np.abs(np.log(rho ** 2 + r * r))
                       for c, j, rho, p in profile.terms], axis=0)
        size = np.maximum(1.0, size + abs(math.log(profile.scale)))
        got = profile(r)
        assert np.all(np.abs(got - want) <= self.ULPS_PER_LOG * size * np.spacing(got))

    def test_one_term_rules_drop_the_zero_exponents(self):
        # constant: a stored log; one power_tail term: ln scale - (l/2) ln(r0^2 + r^2)
        assert RadialProfile.constant(2.5).log_pieces(1.0, 2.0)[0][1](7.0) == math.log(2.5)
        (_, rule), = RadialProfile.power_tail(1.3, r0=0.8, scale=2.0).log_pieces(1.0, 2.0)
        r = math.exp(0.7)
        assert rule(0.7) == math.log(2.0) - 0.65 * math.log(0.8 ** 2 + r * r)

    @pytest.mark.parametrize("l, m, amp, dim", [
        (1.0, 8.0, 0.5, 3), (1.3, 7.0, 0.37, 5), (9.0, 7.3, 2.0, 2), (0.0, 0.5, 1.0, 4),
        (2.5, 1.1, 0.0, 3), (-0.5, 3.0, 0.8, 6)])
    def test_anisotropic_envelopes_are_the_field_on_its_axes(self, l, m, amp, dim):
        # b_* is b along e_2 and b^* along e_1, to the bit; both tails are the
        # field's, which reads them off these term sums (m = 7.3 reads
        # 7.300000000000001: the term's p is m + 2 rounded).
        field = AnisotropicPowerField(l=l, m=m, amp=amp, dim=dim)
        star, upper = field.envelope_profiles()
        r = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 400)])
        for profile, axis in ((star, 1), (upper, 0)):
            points = np.zeros((r.size, dim))
            points[:, axis] = r
            np.testing.assert_array_equal(profile(r), field(points))
        assert star.tail_exponent == field.tail_star
        assert upper.tail_exponent == field.tail_upper
        assert field.tail_upper == (min(l, (m + 2.0) - 2.0) if amp > 0 else l)

    @pytest.mark.parametrize("weights, shift, amp", [
        ((2.0, 1.0, 1.0), 1.0, 8.0), ((3.7, 0.2, 1.1, 5.0), 0.3, 0.37), ((1.0, 1.0), 7.9, 8.0)])
    def test_counterexample_envelopes_are_the_field_on_its_axes(self, weights, shift, amp):
        # b_* is b along the axis of the largest weight and b^* along the
        # smallest, to 4 ulps: amp / sqrt(w) and shift / w round once each
        field = QuadraticRootField(weights=weights, shift=shift, amp=amp)
        r = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 400)])
        for profile, axis in zip(field.envelope_profiles(),
                                 (np.argmax(weights), np.argmin(weights))):
            points = np.zeros((r.size, len(weights)))
            points[:, axis] = r
            want = field(points)
            assert np.all(np.abs(profile(r) - want) <= 4.0 * np.spacing(want))
            assert profile.tail_exponent == field.tail_star == field.tail_upper


def _quadratic_root(w, shift, amp):
    return lambda r: amp * (w * r ** 2 + shift) ** -0.5


# Each closed form beside its expression b(r), written out for mpmath, and the
# radius up to which its series at 0 converges.
_TAYLOR_CASES = {
    "constant": (RadialProfile.constant(2.5), lambda r: mpmath.mpf(2.5), math.inf),
    "power-tail": (RadialProfile.power_tail(1.3), lambda r: (1 + r ** 2) ** -0.65, 1.0),
    "power-tail-A-m-r0-scale": (
        RadialProfile.power_tail(0.7, m=3.0, A=0.5, r0=2.0, scale=3.0),
        lambda r: 3 * ((4 + r ** 2) ** -0.35 + 0.5 * (4 + r ** 2) ** -1.5), 2.0),
    "power-tail-growing-m": (
        RadialProfile.power_tail(1.2, m=-2.5, A=0.4, r0=1.5),
        lambda r: (2.25 + r ** 2) ** -0.6 + 0.4 * (2.25 + r ** 2) ** 1.25, 1.5),
    "anisotropic-star": (AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)
                         .envelope_profiles()[0], lambda r: (1 + r ** 2) ** -0.5, 1.0),
    "anisotropic-upper": (AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)
                          .envelope_profiles()[1],
                          lambda r: (1 + r ** 2) ** -0.5 + 0.5 * r ** 2 * (1 + r ** 2) ** -5, 1.0),
    "counterexample-star": (QuadraticRootField(weights=(2.0, 1.0, 1.0), shift=1.0, amp=8.0)
                            .envelope_profiles()[0], _quadratic_root(2, 1, 8), math.sqrt(0.5)),
    "counterexample-upper": (QuadraticRootField(weights=(2.0, 1.0, 1.0), shift=1.0, amp=8.0)
                             .envelope_profiles()[1], _quadratic_root(1, 1, 8), 1.0),
}


class TestTaylorSeries:
    """b's Taylor coefficients at 0 and the radius up to which their series is b."""

    @pytest.mark.parametrize("case", sorted(_TAYLOR_CASES))
    def test_power_sum_coefficients_match_mpmath(self, case):
        # orders 0-12, odd ones 0, each within 1e-14 of mpmath's at 40 digits
        profile, expression, radius = _TAYLOR_CASES[case]
        coeffs, exact_to = profile.taylor(12)
        with mpmath.workdps(40):
            want = [float(c) for c in mpmath.taylor(expression, 0, 12)]
        assert len(coeffs) == 13 and exact_to == radius
        assert coeffs[1::2] == [0.0] * 6
        for order in range(0, 13, 2):
            assert abs(coeffs[order] - want[order]) <= 1e-14 * abs(want[order]), order
        assert np.all(np.abs(want[1::2]) <= 1e-25)

    def test_unit_scales_each_order(self):
        profile = RadialProfile.power_tail(0.7, m=3.0, A=0.5, r0=2.0, scale=3.0)
        coeffs, unit_coeffs = profile.taylor(12)[0], profile.taylor(12, 0.25)[0]
        np.testing.assert_allclose(unit_coeffs, [c * 0.25 ** i for i, c in enumerate(coeffs)],
                                   rtol=1e-15, atol=0.0)

    def test_table_is_its_first_cell(self):
        # b0 + (db/dr) r exactly, up to the first positive radius
        table = RadialProfile.tabulated([0.0, 0.04, 1.0], [2.0, 2.3, 1.0], tail_exponent=1.0)
        coeffs, radius = table.taylor(4, 0.5)
        assert radius == 0.04
        assert coeffs[0] == 2.0 and coeffs[1] == pytest.approx(0.3 / 0.04 * 0.5, rel=1e-15)
        assert coeffs[2:] == [0.0] * 3
        r = np.linspace(0.0, 0.04, 9)
        np.testing.assert_allclose(table(r), coeffs[0] + coeffs[1] * r / 0.5, rtol=1e-15)

    def test_profiles_without_a_series(self):
        assert RadialProfile.from_callable(lambda r: 1.0 + r).taylor(12) is None
        assert RadialProfile.zero().taylor(12) is None
        assert RadialProfile.tabulated([0.5, 1.0], [1.0, 2.0]).taylor(12) is None


class TestAdmissibilityRule:
    """check_coefficient: finite and positive (or nonnegative), else the
    first offending value and its radius."""

    RADII = np.array([0.0, 1.0, 2.0, 3.0])

    def test_admissible_values_pass_unchanged(self):
        values = np.array([1.0, 0.5, 1e-300, 1e300])
        assert check_coefficient(values, self.RADII) is values
        zeros = np.array([1.0, 0.0, 0.0, 2.0])
        assert check_coefficient(zeros, self.RADII, nonnegative=True) is zeros
        assert check_coefficient(np.empty(0), np.empty(0)).size == 0

    @pytest.mark.parametrize("bad, shown, nonnegative", [
        (0.0, "0", False), (-2.5, "-2.5", False), (-2.5, "-2.5", True), (math.nan, "nan", False),
        (math.nan, "nan", True), (math.inf, "inf", False), (math.inf, "inf", True),
        (-math.inf, "-inf", True)])
    def test_names_the_first_offending_value_and_radius(self, bad, shown, nonnegative):
        sign = "nonnegative" if nonnegative else "positive"
        with pytest.raises(CoefficientError, match=rf"^coefficient must be finite and {sign}, "
                                                   rf"got {shown} at r = 2$"):
            check_coefficient(np.array([1.0, 1.0, bad, bad]), self.RADII, nonnegative)

    def test_rows_name_their_radius(self):
        # one row per radius, as radialize checks its (min, max) pairs
        rows = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, math.inf], [-1.0, 2.0]])
        with pytest.raises(CoefficientError, match=r"got inf at r = 2$"):
            check_coefficient(rows, self.RADII)

    def test_one_value_for_every_radius(self):
        with pytest.raises(CoefficientError, match=r"got -1 at r = 0$"):
            check_coefficient(-1.0, self.RADII)

    @pytest.mark.parametrize("profile", [RadialProfile.power_tail(-800.0),
                                         RadialProfile.power_tail(-800.0, -800.0, -0.5),
                                         RadialProfile.power_tail(1.5, r0=1e-200)],
                             ids=["overflow", "inf-minus-inf", "zero-to-a-negative-power"])
    def test_closed_forms_overflow_quietly(self, profile):
        # no RuntimeWarning (an error under this suite): the rule names the radius
        radii = np.array([0.0, 1.0, 3.0])
        values = profile(radii)
        assert not np.isfinite(values).all()
        with pytest.raises(CoefficientError, match=r"at r = [03]$"):
            check_coefficient(values, radii)

    def test_field_overflows_quietly(self):
        field = AnisotropicPowerField(l=-800.0, m=8.0)
        assert field(np.array([[3.0, 0.0, 0.0]]))[0] == math.inf


class TestSphereSampling:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_unit_norm(self, dim):
        pts = sphere_points(dim, 128)
        assert pts.shape == (128, dim)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-9)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_nested_prefixes(self, dim):
        small = sphere_points(dim, 64, radius_index=7)
        big = sphere_points(dim, 256, radius_index=7)
        np.testing.assert_array_equal(big[:64], small)

    def test_deterministic(self):
        a = sphere_points(3, 100, radius_index=3)
        b = sphere_points(3, 100, radius_index=3)
        np.testing.assert_array_equal(a, b)

    def test_radius_index_rotates(self):
        a = sphere_points(3, 32, radius_index=0)
        b = sphere_points(3, 32, radius_index=1)
        assert not np.allclose(a, b)

    def test_reasonably_uniform(self):
        # Quasi-uniform: the sample mean of x_1^2 over the sphere is 1/dim.
        for dim in (3, 6):
            pts = sphere_points(dim, 4096)
            assert np.mean(pts[:, 0] ** 2) == pytest.approx(1.0 / dim, rel=0.05)

    def test_invalid(self):
        with pytest.raises(CoefficientError):
            sphere_points(1, 10)
        with pytest.raises(CoefficientError):
            sphere_points(3, 0)

    @pytest.mark.parametrize("dim", [2, 3, 5, 16])
    def test_points_are_rows_of_the_table(self, dim):
        table = coefficients._sphere_table(dim, 64, 0, 40)
        assert table.shape == (40, 64, dim)
        for i in range(40):
            np.testing.assert_array_equal(sphere_points(dim, 64, radius_index=i), table[i])

    def test_ray_directions_axes_first(self):
        rays = ray_directions(3, 16)
        assert rays.shape == (16, 3)
        np.testing.assert_array_equal(rays[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(rays[1], [-1.0, 0.0, 0.0])
        np.testing.assert_array_equal(rays[4], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(np.linalg.norm(rays, axis=1), 1.0, rtol=1e-9)

    def test_ray_directions_clipped(self):
        rays = ray_directions(4, 3)
        assert rays.shape == (3, 4)


class TestFields:
    def test_counterexample_exactness(self):
        field = QuadraticRootField(weights=(2.0, 1.0, 1.0))
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]])
        u = field.exact_solution(pts)
        np.testing.assert_allclose(u, [1.0, 2 + 4 + 1 + 1], rtol=1e-15)
        # sigma_1 of diag(4, 2, 2) is 8 and b u^(1/2) = 8 u^(-1/2) u^(1/2):
        lam = field.exact_hessian_eigenvalues()
        sigma1 = lam.sum()
        b = field.eval(pts)
        np.testing.assert_allclose(b * np.sqrt(u), sigma1, rtol=1e-14)

    def test_counterexample_closed_envelopes(self):
        field = QuadraticRootField(weights=(2.0, 1.0, 1.0))
        star, upper = field.envelope_profiles()
        r = np.geomspace(0.1, 1e3, 20)
        np.testing.assert_allclose(star(r), 8.0 / np.sqrt(2 * r**2 + 1), rtol=1e-14)
        np.testing.assert_allclose(upper(r), 8.0 / np.sqrt(r**2 + 1), rtol=1e-14)
        assert field.tail_star == field.tail_upper == field.tail_osc == 1.0

    def test_field_validation(self):
        with pytest.raises(CoefficientError):
            QuadraticRootField(weights=(1.0,))
        with pytest.raises(CoefficientError):
            QuadraticRootField(weights=(1.0, -1.0))
        with pytest.raises(CoefficientError):
            AnisotropicPowerField(l=1.0, m=2.0, amp=-1.0, dim=3)
        with pytest.raises(CoefficientError):
            AnisotropicPowerField(l=1.0, m=2.0, amp=1.0, dim=1)

    def test_anisotropic_tails(self):
        field = AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)
        assert field.tail_star == 1.0
        assert field.tail_upper == 1.0
        assert field.tail_osc == 8.0
        slow = AnisotropicPowerField(l=3.0, m=2.0, amp=0.5, dim=5)
        assert slow.tail_upper == 2.0  # oscillation decays slower than base

    def test_builtin_registry(self):
        field = make_builtin_field("counterexample")
        assert isinstance(field, QuadraticRootField)
        field = make_builtin_field("anisotropic_power", l=1.0, m=8.0, amp=0.5, dim=5)
        assert isinstance(field, AnisotropicPowerField)
        assert make_builtin_field("anisotropic_power", l=1.0, m=8.0) == \
            AnisotropicPowerField(l=1.0, m=8.0, amp=1.0, dim=3)
        with pytest.raises(CoefficientError):
            make_builtin_field("no_such_field")

    @staticmethod
    def _points(dim, rows=4000):
        # seeded directions at radii spanning 1e-3 to 1e3
        rng = np.random.default_rng(dim)
        return rng.standard_normal((rows, dim)) * np.geomspace(1e-3, 1e3, rows)[:, None]

    @pytest.mark.parametrize("amp", [0.0, 0.5])
    @pytest.mark.parametrize("dim", range(2, 8))
    def test_anisotropic_eval_is_the_row_sum_formula(self, dim, amp):
        # Below 8 coordinates numpy's row sum adds them left to right, as
        # the column pass does, so b is the closed form with
        # np.sum(pts ** 2, axis=1) to the bit.
        field = AnisotropicPowerField(l=1.3, m=7.0, amp=amp, dim=dim)
        pts = self._points(dim)
        r2 = np.sum(pts ** 2, axis=1)
        expected = (1.0 + r2) ** (-field.l / 2.0)
        if amp:
            expected = expected + amp * pts[:, 0] ** 2 * (1.0 + r2) ** (-(field.m + 2.0) / 2.0)
        np.testing.assert_array_equal(field(pts), expected)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_anisotropic_eval_ignores_memory_layout(self, dim):
        # numpy's own row sum differs between C- and F-ordered points from
        # 8 coordinates on; the column pass reads both alike.
        field = AnisotropicPowerField(l=1.3, m=7.0, amp=0.5, dim=dim)
        pts = self._points(dim)
        np.testing.assert_array_equal(field(pts), field(np.asfortranarray(pts)))


def _per_radius_sphere_points(dim, count, i):
    """The sampler one radius at a time: per-lane phases from Python floats,
    then (for dim != 3) the normal quantile of a (count, dim) array."""
    def phase(lane):
        x = (i + 1) * (coefficients._GOLDEN ** -(lane + 1))
        return x - math.floor(x)

    if dim == 3:
        idx = np.arange(1, count + 1, dtype=np.int64)
        z = 2.0 * ((coefficients._halton(count, 1)[:, 0] + phase(0)) % 1.0) - 1.0
        z = np.clip(z, -1.0 + 1e-12, 1.0 - 1e-12)
        theta = 2.0 * math.pi * ((idx / coefficients._GOLDEN + phase(1)) % 1.0)
        rho = np.sqrt(1.0 - z * z)
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])
    phases = np.array([phase(j) for j in range(dim)])
    u = np.clip((coefficients._halton(count, dim) + phases) % 1.0, 1e-12, 1.0 - 1e-12)
    coords = ndtri(u)
    norms = np.linalg.norm(coords, axis=1)
    norms = np.where(norms == 0.0, 1.0, norms)
    return coords / norms[:, None]


def _per_radius_envelopes(field, nodes, count):
    star, upper = np.empty(nodes.size), np.empty(nodes.size)
    star[0] = upper[0] = field(np.zeros((1, field.dim)))[0]
    for i in range(1, nodes.size):
        vals = field(nodes[i] * _per_radius_sphere_points(field.dim, count, i))
        star[i], upper[i] = vals.min(), vals.max()
    return star, upper, np.maximum(upper - star, 0.0)


class CountingField:
    """Wraps a field and records the size of every call."""

    def __init__(self, field):
        self.field = field
        self.dim = field.dim
        self.sizes = []

    def __call__(self, points):
        self.sizes.append(len(points))
        return self.field(points)


class TestRadialize:
    def test_radial_field_collapses(self):
        # A purely radial field gives b_* = b^* and negligible oscillation.
        field = AnisotropicPowerField(l=1.5, m=4.0, amp=0.0, dim=4)
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        triple = radialize(field, grid, sphere_count=64)
        np.testing.assert_allclose(
            triple.b_star.values, triple.b_upper.values, rtol=1e-12
        )
        assert triple.osc_negligible()
        r = grid.nodes
        np.testing.assert_allclose(
            triple.b_star(r), (1 + r**2) ** -0.75, rtol=1e-9
        )

    @pytest.mark.parametrize("count", [0, MIN_SPHERE_COUNT - 1, MAX_SPHERE_COUNT + 1, 10**9])
    def test_sphere_count_beyond_its_bounds_is_refused_undrawn(self, monkeypatch, count):
        def undrawn(*args):
            raise AssertionError("unit-sphere rows were drawn")

        monkeypatch.setattr(coefficients, "_sphere_table", undrawn)
        monkeypatch.setattr(coefficients, "_unit_block", undrawn)
        field = AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=3)
        with pytest.raises(CoefficientError, match=re.escape(
                f"sphere_count must lie in [{MIN_SPHERE_COUNT}, {MAX_SPHERE_COUNT}], got {count}")):
            radialize(field, RadialGrid.build(10.0), count)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_anisotropic_envelopes_bracket_closed_form(self, dim):
        # The golden sandwich's field: the true min over |x| = r is at x_1 = 0
        # and the max at x_1 = r.  A sampled min can only lie above the true
        # one and a sampled max below it (to rounding), and the nested point
        # sets close both gaps as the sphere count doubles.
        field = AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=dim)
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        r = grid.nodes
        star_exact, upper_exact = (profile(r) for profile in field.envelope_profiles())
        gaps = []
        for count in (32, 64, 128, 256, 512):
            triple = radialize(field, grid, sphere_count=count)
            star_gap = triple.b_star(r) - star_exact
            upper_gap = upper_exact - triple.b_upper(r)
            assert np.all(star_gap >= -1e-13 * star_exact)
            assert np.all(upper_gap >= -1e-13 * upper_exact)
            if gaps:
                assert np.all(star_gap <= gaps[-1][0]) and np.all(upper_gap <= gaps[-1][1])
            gaps.append((star_gap, upper_gap))
        assert gaps[-1][0].sum() < 0.01 * gaps[0][0].sum()
        assert gaps[-1][1].sum() < 0.2 * gaps[0][1].sum()

    def test_counterexample_envelopes_match_closed_form(self):
        field = QuadraticRootField(weights=(2.0, 1.0, 1.0))
        grid = RadialGrid.build(100.0, nodes_per_decade=16)
        triple = radialize(field, grid, sphere_count=2048)
        r = grid.nodes
        star_exact = 8.0 / np.sqrt(2 * r**2 + 1)
        upper_exact = 8.0 / np.sqrt(r**2 + 1)
        # Sampled min is always >= the true min, max always <= the true max.
        assert np.all(triple.b_star(r) >= star_exact * (1 - 1e-12))
        assert np.all(triple.b_upper(r) <= upper_exact * (1 + 1e-12))
        np.testing.assert_allclose(triple.b_star(r), star_exact, rtol=5e-3)
        np.testing.assert_allclose(triple.b_upper(r), upper_exact, rtol=5e-3)
        # Declared tails flow through to the tabulated profiles.
        assert triple.b_star.tail_exponent == 1.0
        assert triple.b_osc.tail_exponent == 1.0
        assert not triple.osc_negligible()

    def test_envelopes_monotone_under_refinement(self):
        # Nested direction prefixes mean doubling the sample can only widen
        # the envelope band.
        field = QuadraticRootField(weights=(2.0, 1.0, 1.0))
        grid = RadialGrid.build(50.0, nodes_per_decade=12)
        coarse = radialize(field, grid, sphere_count=64)
        fine = radialize(field, grid, sphere_count=128)
        assert np.all(fine.b_star.values <= coarse.b_star.values + 1e-15)
        assert np.all(fine.b_upper.values >= coarse.b_upper.values - 1e-15)

    # (r_max, nodes_per_decade) per sphere count: every grid has more radii
    # than one block of that count holds, for every dim below.
    BLOCK_GRIDS = {32: (1e3, 256), 256: (1e3, 48), 2048: (1e2, 16)}

    @pytest.mark.parametrize("count", sorted(BLOCK_GRIDS))
    @pytest.mark.parametrize("field", [
        AnisotropicPowerField(l=1.5, m=3.0, amp=0.7, dim=2),
        AnisotropicPowerField(l=1.5, m=3.0, amp=0.7, dim=4),
        AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5),
        AnisotropicPowerField(l=2.0, m=5.0, amp=1.0, dim=7),
        AnisotropicPowerField(l=1.5, m=3.0, amp=0.7, dim=16),
        make_builtin_field("counterexample"),
    ], ids=["aniso-2", "aniso-4", "aniso-5", "aniso-7", "aniso-16", "counterexample-3"])
    def test_blocks_match_per_radius_loop(self, field, count):
        r_max, nodes_per_decade = self.BLOCK_GRIDS[count]
        grid = RadialGrid.build(r_max, nodes_per_decade=nodes_per_decade)
        assert len(grid) - 1 > coefficients._BLOCK_COORDS // (count * field.dim)
        triple = radialize(field, grid, sphere_count=count)
        star, upper, osc = _per_radius_envelopes(field, grid.nodes, count)
        np.testing.assert_array_equal(triple.b_star.values, star)
        np.testing.assert_array_equal(triple.b_upper.values, upper)
        np.testing.assert_array_equal(triple.b_osc.values, osc)

    @pytest.mark.parametrize("dim, count", [(3, 256), (7, 256), (5, 2048), (2, 32)])
    def test_one_field_call_per_block(self, dim, count):
        field = CountingField(AnisotropicPowerField(l=1.5, m=3.0, amp=0.7, dim=dim))
        grid = RadialGrid.build(1e3, nodes_per_decade=48)
        radialize(field, grid, sphere_count=count)
        radii = len(grid) - 1
        rows = max(1, coefficients._BLOCK_COORDS // (count * dim))
        assert field.sizes[0] == 1   # the centre
        assert len(field.sizes) == 1 + math.ceil(radii / rows)
        assert all(size <= rows * count for size in field.sizes)
        assert sum(field.sizes) == 1 + radii * count

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_names_its_radius(self, bad):
        # a NaN or inf on the shell 0.3 < |x| < 0.35 and at the origin
        class Holed:
            dim = 3

            def __init__(self, where):
                self.where = where

            def __call__(self, points):
                radius = np.linalg.norm(points, axis=1)
                return np.where(self.where(radius), bad, 1.0)

        grid = RadialGrid.build(1.0, r_lin=1.0, nodes_per_decade=64)
        radius = grid.nodes[(grid.nodes > 0.3) & (grid.nodes < 0.35)][0]
        with pytest.raises(CoefficientError, match=rf"got {bad} at r = {radius:g}$"):
            radialize(Holed(lambda r: (r > 0.3) & (r < 0.35)), grid)
        with pytest.raises(CoefficientError, match=rf"got {bad} at r = 0$"):
            radialize(Holed(lambda r: r == 0.0), grid)

    def test_overflowing_field_names_its_radius(self):
        # (1 + r^2)^400 passes the largest float beyond r = 2.2134
        grid = RadialGrid.build(100.0, nodes_per_decade=48)
        radius = grid.nodes[grid.nodes > 2.2134][0]
        with pytest.raises(CoefficientError, match=rf"got inf at r = {radius:g}$"):
            radialize(AnisotropicPowerField(l=-800.0, m=8.0), grid)

    def test_negative_field_names_its_radius(self):
        # b = 2 - |x| first reaches zero at the first node with r >= 2,
        # which sits inside a block, not at its start.
        class Cone:
            dim = 4

            def __call__(self, points):
                return 2.0 - np.linalg.norm(points, axis=1)

        grid = RadialGrid.build(1e2, nodes_per_decade=48)
        first_bad = int(np.argmax(grid.nodes >= 2.0))
        assert (first_bad - 1) % (coefficients._BLOCK_COORDS // (256 * 4)) != 0
        radius = grid.nodes[first_bad]
        with pytest.raises(CoefficientError, match=rf"finite and positive, got "
                                                   rf"{2.0 - radius:g} at r = {radius:g}$"):
            radialize(Cone(), grid)

    def test_rejects_small_sample(self):
        field = QuadraticRootField(weights=(2.0, 1.0, 1.0))
        grid = RadialGrid.build(10.0)
        with pytest.raises(CoefficientError):
            radialize(field, grid, sphere_count=8)

    def test_field_contract(self):
        # A field returns one value per point; anything else is rejected
        # with both shapes named, and the field's own errors propagate.
        grid = RadialGrid.build(10.0)

        class Field:
            dim = 3

            def __init__(self, fn):
                self.fn = fn

            def __call__(self, points):
                return self.fn(points)

        with pytest.raises(CoefficientError, match=r"expected shape \(1,\), got \(1, 1\)"):
            radialize(Field(lambda p: np.ones((len(p), 1))), grid, sphere_count=32)
        # 48 radii of 32 points fit one block: the field sees 1536 points.
        with pytest.raises(CoefficientError, match=r"expected shape \(1536,\), got \(\)"):
            radialize(Field(lambda p: np.ones(1) if len(p) == 1 else 2.0), grid,
                      sphere_count=32)
        with pytest.raises(ZeroDivisionError):
            radialize(Field(lambda p: 1.0 / 0.0), grid, sphere_count=32)

    def test_callable_contract(self):
        b = RadialProfile.from_callable(lambda r: 2.0 + 0.0 * np.asarray(r))
        np.testing.assert_array_equal(b(np.array([0.0, 1.0])), [2.0, 2.0])
        assert b(1.0) == 2.0
        flat = RadialProfile.from_callable(lambda r: 2.0)
        with pytest.raises(CoefficientError, match=r"expected shape \(3,\), got \(\)"):
            flat(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(CoefficientError, match=r"expected shape \(1,\), got \(\)"):
            flat(1.0)

    def test_triple_from_radial(self):
        b = RadialProfile.power_tail(2.0)
        triple = triple_from_radial(b)
        assert triple.b_star is b and triple.b_upper is b
        assert triple.b_osc.is_zero()
        assert triple.osc_negligible()


@pytest.fixture
def blocks():
    """The process's cache of unit-sphere blocks, emptied before and after."""
    coefficients._unit_block.cache_clear()
    yield coefficients._unit_block
    coefficients._unit_block.cache_clear()


class TestSphereRows:
    FIELD = AnisotropicPowerField(l=1.0, m=8.0, amp=0.5, dim=5)

    def _envelopes(self, grid, count=64):
        triple = radialize(self.FIELD, grid, sphere_count=count)
        return triple.b_star.values, triple.b_upper.values, triple.b_osc.values

    @staticmethod
    def _block_count(grid, dim=5, count=64):
        return -(-(len(grid) - 1) // (coefficients._BLOCK_COORDS // (count * dim)))

    def test_cold_warm_grown_and_prefix_runs_agree(self, blocks):
        # rows depend on the radius index only: a short grid's blocks are a
        # prefix of a long grid's, its last one sliced, whatever the radii
        short = RadialGrid.build(1e2, nodes_per_decade=64)
        long = RadialGrid.build(1e4, nodes_per_decade=64)
        assert 1 < self._block_count(short) < self._block_count(long)
        assert (len(short) - 1) % (coefficients._BLOCK_COORDS // (64 * 5)) != 0
        expect = {id(grid): _per_radius_envelopes(self.FIELD, grid.nodes, 64)
                  for grid in (short, long)}
        for grid in (short, long, long, short):   # cold, grown, warm, prefix
            for got, want in zip(self._envelopes(grid), expect[id(grid)]):
                assert np.array_equal(got, want)
        info = blocks.cache_info()
        assert info.misses == info.currsize == self._block_count(long)
        assert info.hits == self._block_count(short) * 2 + self._block_count(long)

    def test_kept_rows_are_read_only_rows_of_sphere_points(self, blocks):
        grid = RadialGrid.build(1e2, nodes_per_decade=64)
        radialize(self.FIELD, grid, sphere_count=64)
        step = coefficients._BLOCK_COORDS // (64 * 5)
        for first in range(1, len(grid), step):
            rows = blocks(5, 64, first, first + step)
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0, 0] = 0.0
            for j in range(step):
                points = sphere_points(5, 64, radius_index=first + j)
                assert points.flags.writeable and np.array_equal(points, rows[j])
        assert blocks.cache_info().misses == self._block_count(grid)

    def test_least_recently_used_key_goes_first(self, blocks):
        # 32 radii of up to 96 points in 5 dimensions: one block per count
        grid = RadialGrid.build(1e2, nodes_per_decade=16)
        maxsize = blocks.cache_info().maxsize
        assert maxsize * coefficients._BLOCK_COORDS <= coefficients._STORE_COORDS
        assert self._block_count(grid, count=64 + maxsize) == 1
        for count in range(64, 64 + maxsize):   # fills the cache
            radialize(self.FIELD, grid, sphere_count=count)
        radialize(self.FIELD, grid, sphere_count=64)   # 64 used again ...
        radialize(self.FIELD, grid, sphere_count=64 + maxsize)   # ... before a new one
        assert blocks.cache_info().currsize == maxsize
        misses = blocks.cache_info().misses
        radialize(self.FIELD, grid, sphere_count=64)
        assert blocks.cache_info().misses == misses
        radialize(self.FIELD, grid, sphere_count=65)   # the least recently used went
        assert blocks.cache_info().misses == misses + 1

    def test_request_beyond_the_budget_is_drawn_and_not_kept(self, blocks):
        # one row of 16384 points in 3 dimensions exceeds a block
        field = make_builtin_field("counterexample")
        small = RadialGrid.build(10.0, nodes_per_decade=8)
        big = RadialGrid.build(10.0, nodes_per_decade=24)
        assert 16384 * 3 > coefficients._BLOCK_COORDS
        radialize(field, small, sphere_count=64)
        kept = blocks.cache_info()
        triple = radialize(field, big, sphere_count=16384)
        star, upper, osc = _per_radius_envelopes(field, big.nodes, 16384)
        assert np.array_equal(triple.b_star.values, star)
        assert np.array_equal(triple.b_upper.values, upper)
        assert np.array_equal(triple.b_osc.values, osc)
        assert blocks.cache_info() == kept

    def test_two_threads_on_a_cold_cache_agree(self, blocks):
        grid = RadialGrid.build(1e4, nodes_per_decade=64)
        expect = _per_radius_envelopes(self.FIELD, grid.nodes, 64)
        start = threading.Barrier(2)
        results = [None, None]

        def run(slot):
            start.wait()
            results[slot] = self._envelopes(grid)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            for values, want in zip(got, expect):
                assert np.array_equal(values, want)
        assert blocks.cache_info().currsize == self._block_count(grid)

