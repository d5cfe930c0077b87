"""Command-line interface: spec parsing, subcommands, exit codes."""

import contextlib
import csv
import errno
import importlib
import io
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hessianls import cli, core, envelope, sandwich
from hessianls.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTEGRATION,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_ORDERING,
    EXIT_VERIFY,
    ProblemSpec,
)
from hessianls.coefficients import BUILTIN_FIELDS
from hessianls.errors import CoefficientError, IntegrationError, ParameterError


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _constant_spec(**over):
    spec = {
        "n": 3,
        "k": 1,
        "gamma": 0.5,
        "a": 1.0,
        "coefficient": {"kind": "constant", "value": 1.0},
        "grid": {"r_max": 1000.0, "nodes_per_decade": 32},
    }
    spec.update(over)
    return spec


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _documented_schema():
    """The README's key tables: ({section: {key: default, None if required}},
    {coefficient kind or field name: keys}, names --vary accepts)."""
    text = README.read_text().split("## Command line")[1].split("\n## ")[0]
    sections, coefficients = {}, {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| ") and len(cells) == 4 and cells[1].startswith("`"):
            section = None if cells[0] == "top level" else cells[0].strip("`")
            default = None if cells[2] == "required" else float(cells[2])
            sections.setdefault(section, {})[cells[1].strip("`")] = default
        elif line.startswith("| `") and len(cells) == 2:
            keys = set(re.findall(r"`(\w+)`", cells[1]))
            if cells[0].startswith("`builtin_field`"):
                keys.add("name")
            coefficients[re.findall(r"`(\w+)`", cells[0])[-1]] = keys
    vary = text.split("the numeric keys of the tables above:")[1].split(";")[0]
    return sections, coefficients, set(re.findall(r"`(\w+)`", vary))


# The parameters of every coefficient kind and builtin field (as the README
# lists them), each with a minimal valid coefficient object.
_COEFFICIENT_KEYS = {
    "constant": ({"kind": "constant"}, {"value"}),
    "power_tail": ({"kind": "power_tail", "l": 1.0}, {"l", "m", "A", "r0", "scale"}),
    "tabulated": ({"kind": "tabulated", "path": "b.csv"}, {"path", "tail_exponent"}),
    "counterexample": ({"kind": "builtin_field", "name": "counterexample"}, {"name"}),
    "anisotropic_power": ({"kind": "builtin_field", "name": "anisotropic_power",
                           "l": 1.0, "m": 8.0}, {"name", "l", "m", "amp", "dim"}),
}
_ALL_COEFFICIENT_KEYS = set().union(*(keys for _, keys in _COEFFICIENT_KEYS.values()))


def _large_n_spec(n):
    """Overrides of :func:`_constant_spec` for dimension ``n`` at r_max = 1e4,
    where n = 78 is the largest dimension whose weight s^(n-1) stays finite."""
    return {"n": n, "k": 3, "gamma": 1.0, "coefficient": {"kind": "power_tail", "l": 1.5},
            "grid": {"r_max": 1e4}}


def _counterexample_spec(r_max=100.0):
    return {
        "n": 3,
        "k": 1,
        "gamma": 0.5,
        "a": 1.0,
        "coefficient": {"kind": "builtin_field", "name": "counterexample"},
        "grid": {"r_max": r_max, "nodes_per_decade": 16},
    }


# Values a mutated spec key can take: in range, out of range, the wrong type
# or not finite.  Radii and node counts stay small, so no drawn spec builds a
# large grid.  Tails down to l, m = -400 overflow on the grid (from r = 5.8
# at -400), so the coefficient itself can be inadmissible there.
_BAD_VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([1]),
                        st.just({}), st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
_KEY_VALUES = {
    "n": st.integers(-1, 12), "k": st.integers(-1, 12),
    "gamma": st.floats(-1.0, 13.0), "a": st.floats(-1.0, 1e3),
    "value": st.floats(-1.0, 1e3), "l": st.floats(-3.0, 8.0) | st.floats(-400.0, -3.0),
    "m": st.floats(-3.0, 12.0) | st.floats(-400.0, -3.0),
    "A": st.floats(-2.0, 2.0), "r0": st.floats(-1.0, 10.0), "scale": st.floats(-1.0, 10.0),
    "amp": st.floats(-1.0, 2.0), "dim": st.integers(-1, 6),
    "r_lin": st.floats(-1.0, 1e3), "r_max": st.floats(-1.0, 1e3),
    "nodes_per_decade": st.integers(-2, 32),
    "rel": st.floats(-1.0, 2.0) | st.sampled_from([0.0, 1e-15, 2.2e-14, 2.3e-14, 1.0]),
    "abs": st.floats(-1.0, 1.0) | st.just(0.0),
}
# (n, k) with C(n, k) near or beyond the float range, or n itself beyond it.
_LARGE_NK = [(1029, 514), (1030, 515), (2000, 1000), (10**6, 1), (10**6, 10**6),
             (10**400, 1), (10**400, 10**400)]
# Drawn at r_max <= 1, where s^(n-1) stays finite: (1029, 514) solves with ln M
# far below the float range, and (10^6, 1) meets the size budget.
_SMALL_R_MAX_NK = [(1029, 514), (10**6, 1)]
_SECTION_KEYS = {None: ("n", "k", "gamma", "a"), "grid": ("r_lin", "r_max", "nodes_per_decade"),
                 "tolerances": ("rel", "abs")}
_BASE_COEFFICIENTS = [
    {"kind": "constant", "value": 1.0}, {"kind": "power_tail", "l": 1.5, "m": 4.0, "A": 0.5},
    {"kind": "power_tail", "l": -400.0},
    {"kind": "builtin_field", "name": "anisotropic_power", "l": 1.0, "m": 8.0},
    {"kind": "builtin_field", "name": "counterexample"}]


@st.composite
def _mutated_specs(draw):
    coefficient = dict(draw(st.sampled_from(_BASE_COEFFICIENTS)))
    owner = coefficient.get("name", coefficient["kind"])
    own_keys = tuple(sorted(_COEFFICIENT_KEYS[owner][1] - {"name"}))
    raw = _constant_spec(coefficient=coefficient, tolerances={})
    raw["n"], raw["k"] = draw(st.sampled_from([(3, 1)] * 7 + _LARGE_NK))
    if (raw["n"], raw["k"]) in _SMALL_R_MAX_NK and draw(st.booleans()):
        raw["grid"]["r_max"] = draw(st.floats(0.01, 1.0))
    elif raw["n"] == 3 and draw(st.integers(0, 3)) == 0:
        # gamma near k, where M leaves the float range long before u does
        raw["n"], raw["k"] = draw(st.sampled_from([(3, 3), (6, 3), (20, 10)]))
        raw["gamma"] = raw["k"] * draw(st.floats(0.5, 29 / 30))
        raw["grid"]["r_max"] = draw(st.floats(1.0, 37450.0 if raw["n"] < 20 else 100.0))
    for _ in range(draw(st.integers(1, 2))):
        section = draw(st.sampled_from([None, "coefficient", "grid", "tolerances"]))
        target = raw if section is None else raw[section]
        if not isinstance(target, dict):
            continue
        keys = own_keys if section == "coefficient" else _SECTION_KEYS[section]
        key = draw(st.sampled_from(keys)) if keys else "value"
        mutation = draw(st.sampled_from(["range"] * 6 + ["type", "unknown key", "section"]))
        if mutation == "range":
            target[key] = draw(_KEY_VALUES[key])
        elif mutation == "type":
            target[key] = draw(_BAD_VALUES)
        elif mutation == "unknown key":
            target[key + "x"] = 1.0
        elif section is not None:
            raw[section] = draw(_BAD_VALUES)
    return raw


# Exit codes each fuzzed command may end in, with the stderr lines each prints.
_FUZZ_EXITS = {
    "classify": {EXIT_OK: 0, EXIT_INVALID: 1, EXIT_INCONCLUSIVE: 0},
    "solve": {EXIT_OK: 0, EXIT_INVALID: 1, EXIT_INTEGRATION: 1},
    "sandwich": {EXIT_OK: 0, EXIT_INVALID: 1, EXIT_INTEGRATION: 1, EXIT_INCONCLUSIVE: 1,
                 EXIT_ORDERING: 1},
    "sweep": {EXIT_OK: 0, EXIT_INVALID: 1},
}


@st.composite
def _vary_items(draw):
    """A --vary argument: a spec key (or an unknown one) and two drawn values,
    numbers in and out of range or text that is no number."""
    name = draw(st.sampled_from(sorted(cli._VARY_SECTIONS) + ["gama"]))
    value = (_KEY_VALUES.get(name, st.floats(-1.0, 10.0)).map(repr)
             | st.sampled_from(["nan", "-inf", "1e400", "", "x", "3.5"]))
    return f"{name}={draw(value)},{draw(value)}"


class TestProblemSpec:
    def test_roundtrip_identity(self):
        raw = {
            "n": 5,
            "k": 2,
            "gamma": 1.0,
            "a": 2.0,
            "coefficient": {"kind": "power_tail", "l": 1.0, "m": 8.0, "A": 0.5},
            "grid": {"r_max": 500.0},
            "tolerances": {"rel": 1e-9},
        }
        first = ProblemSpec.from_dict(raw)
        second = ProblemSpec.from_dict(first.to_dict())
        assert first == second
        assert second.to_dict() == first.to_dict()

    def test_defaults_filled(self):
        spec = ProblemSpec.from_dict(
            {"n": 3, "k": 1, "gamma": 0.5, "coefficient": {"kind": "constant"}}
        )
        assert spec.params.a == 1.0
        assert spec.grid_cfg["r_max"] == 1e4
        assert spec.tolerances["rel"] == 1e-8
        assert spec.is_radial()

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.update(gamma=1.0), "gamma"),
            (lambda d: d.update(k=4), "k"),
            (lambda d: d.update(a=0.0), "a"),
            (lambda d: d.pop("coefficient"), "coefficient"),
            (lambda d: d["coefficient"].update(kind="mystery"), "kind"),
            (lambda d: d["coefficient"].update(l=2.0), "not a parameter"),
            (lambda d: d.update(grid={"r_max": -5.0}), "r_max"),
            (lambda d: d.update(a=float("inf")), "spec.a: expected a finite number"),
            (lambda d: d.update(grid={"r_max": float("inf")}),
             "spec.grid.r_max: expected a finite number"),
            (lambda d: d.update(coefficient={"kind": "power_tail", "l": float("nan")}),
             "spec.coefficient.l: expected a finite number"),
            (lambda d: d.update(a=10**400), "spec.a: expected a finite number, got 1000"),
        ],
    )
    def test_validation_messages_name_the_field(self, mutate, fragment):
        raw = _constant_spec()
        mutate(raw)
        with pytest.raises(ParameterError) as exc:
            ProblemSpec.from_dict(raw)
        assert fragment in str(exc.value)

    def test_parameter_table_matches_documented_keys(self):
        sections, coefficients, vary = _documented_schema()
        assert set(cli._BUILTIN_FIELDS) == set(BUILTIN_FIELDS)
        tables = {**{kind: set(params) for kind, (_, params) in cli._RADIAL_KINDS.items()},
                  **{name: {"name", *params}
                     for name, (_, params) in cli._BUILTIN_FIELDS.items()}}
        assert tables == {owner: keys for owner, (_, keys) in _COEFFICIENT_KEYS.items()}
        assert tables == coefficients
        spec_tables = {None: cli._TOP_LEVEL, "grid": cli._GRID, "tolerances": cli._TOLERANCES}
        assert sections == {
            section: {key: None if default is cli._REQUIRED else default
                      for key, (_, default) in table.items()}
            for section, table in spec_tables.items()}
        assert vary == set(cli._VARY_SECTIONS)

    @pytest.mark.parametrize("owner,key", [
        (owner, key) for owner, (_, keys) in _COEFFICIENT_KEYS.items()
        for key in sorted(_ALL_COEFFICIENT_KEYS - keys)])
    def test_foreign_coefficient_key_rejected(self, tmp_path, capsys, owner, key):
        coefficient = dict(_COEFFICIENT_KEYS[owner][0], **{key: 1.0})
        spec_path = _write(tmp_path, "spec.json", _constant_spec(coefficient=coefficient))
        assert cli.main(["classify", spec_path]) == EXIT_INVALID
        assert f"error: spec.coefficient.{key}: not a parameter of" in capsys.readouterr().err

    # Examples take 1-11 ms; one that hangs fails by name after 2 s.
    @settings(derandomize=True, database=None, max_examples=300, deadline=2000)
    @given(raw=_mutated_specs(), vary=_vary_items())
    def test_mutated_spec_parses_or_names_the_field(self, tmp_path_factory, raw, vary):
        # A spec that parses is solved or rejected by one error line:
        # `classify --strict`, `solve` and a `sweep --vary` on a radial
        # coefficient, `classify` and `sandwich` on a field.  A RuntimeWarning
        # is an error under this suite.
        try:
            spec = ProblemSpec.from_dict(raw)
        except (ParameterError, CoefficientError) as exc:
            assert str(exc).startswith("spec"), str(exc)
            return
        work = tmp_path_factory.mktemp("spec")
        spec_path = str(work / "spec.json")
        pathlib.Path(spec_path).write_text(json.dumps(raw))
        commands = ([["classify", spec_path, "--strict"], ["solve", spec_path],
                     ["sweep", spec_path, "--vary", vary, "--out", str(work / "sweep.csv")]]
                    if spec.is_radial() else
                    [["classify", spec_path, "--sphere-count", "32"],
                     ["sandwich", spec_path, "--sphere-count", "32", "--out", str(work / "s")]])
        for argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            err = stderr.getvalue()
            assert code in _FUZZ_EXITS[argv[0]], err
            assert "Traceback" not in err
            assert err.count("\n") == _FUZZ_EXITS[argv[0]][code], err

    @pytest.mark.parametrize("grid, fragment", [
        ({"nodes_per_decade": 10**6}, "spec.grid: nodes_per_decade = 1000000 lays 1000001 "
                                      "nodes on [0, r_lin] alone; at most 50000"),
        ({"nodes_per_decade": 10**400}, f"spec.grid: nodes_per_decade = {10**400} lays "
                                        f"{10**400 + 1} nodes on [0, r_lin] alone"),
        ({"r_lin": 1e-300, "r_max": 1e300, "nodes_per_decade": 100},
         "spec.grid: r_max = 1e+300 lies 600 decades beyond r_lin = 1e-300: 60101 nodes; "
         "at most 50000"),
        ({"r_lin": 5e-324, "r_max": 1e308, "nodes_per_decade": 80}, "spec.grid: r_max = 1e+308 "),
        # 50001 linear nodes and 50000 log-spaced ones: 100001 in all
        ({"r_lin": 10.0, "r_max": 100.0, "nodes_per_decade": 50_000},
         "spec.grid: nodes_per_decade = 50000 lays 50001 nodes on [0, r_lin] alone"),
        # n = 10^6 cuts the 48 cells of the grid at r_max = 1 62500-fold
        ({"r_max": 1.0, "nodes_per_decade": 48, "n": 10**6},
         "spec.n: n = 1000000: 2999952 added flux panels, at most 100000"),
        # one ulp above r_lin: both log10 read 1.0 and the log nodes fall onto r_lin
        ({"r_max": 10.000000000000002},
         "spec.grid: r_max = 10.000000000000002 is too close above r_lin = 10.0: its 2 "
         "log-spaced nodes would round onto r_lin or r_max"),
        # subnormal spans: the linear nodes round onto each other
        ({"r_lin": 5e-324, "r_max": 1e-320, "nodes_per_decade": 4},
         "spec.grid: r_lin = 5e-324 is too small: the 8 linear cells on [0, r_lin] would "
         "round onto each other"),
        ({"r_lin": 3.5e-323, "r_max": 3e-323},
         "spec.grid: r_max = 3e-323 is too small: the 48 linear cells on [0, r_max] would "
         "round onto each other"),
    ], ids=["dense", "beyond-float", "wide", "widest", "decade-dense", "dimension",
            "onto-r_lin", "subnormal-r_lin", "subnormal-r_max"])
    def test_grid_beyond_the_budget_is_rejected_unbuilt(self, monkeypatch, tmp_path, capsys,
                                                        grid, fragment):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"a grid array was laid (numpy.{name})")

        def no_refinement(*args, **kwargs):
            raise AssertionError("the conservation grid was laid")

        grid = dict(grid)
        if "n" in grid:  # the spec's own grid fits; its refinement must not be laid
            monkeypatch.setattr(cli.RadialGrid, "refined", no_refinement)
        else:
            monkeypatch.setattr(core, "np", NoArrays())
        raw = _constant_spec(n=grid.pop("n", 3), grid=grid)
        with pytest.raises(ParameterError, match=re.escape(fragment)):
            ProblemSpec.from_dict(raw)
        assert cli.main(["classify", _write(tmp_path, "spec.json", raw)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {fragment}")

    def test_grid_budget_admits_the_widest_default_grid(self):
        # n = 3 admits r_max up to about 1e154 (s^2 stays finite): at 48 nodes
        # per decade from r_lin = 10 that is 7200 nodes
        raw = _constant_spec(grid={"r_max": 1e154, "nodes_per_decade": 48})
        assert ProblemSpec.from_dict(raw).grid_cfg["r_max"] == 1e154

    def test_grid_built_once_when_read(self, monkeypatch):
        builds = []
        build = cli.RadialGrid.build
        monkeypatch.setattr(cli.RadialGrid, "build",
                            lambda *args, **kwargs: builds.append(1) or build(*args, **kwargs))
        spec = ProblemSpec.from_dict(_counterexample_spec())
        assert spec.grid() is spec.grid()
        assert np.array_equal(spec.triple(sphere_count=32).b_star.radii, spec.grid().nodes)
        assert builds == [1]

    @pytest.mark.parametrize("command", ["classify", "sandwich"])
    def test_sphere_count_beyond_the_budget_is_rejected(self, monkeypatch, tmp_path, capsys,
                                                        command):
        def no_radialize(*args, **kwargs):
            raise AssertionError("the field was radialized")

        monkeypatch.setattr(cli, "radialize", no_radialize)
        spec_path = _write(tmp_path, "spec.json", _counterexample_spec())
        for count, bound in ((10**9, "at most 16384"), (31, "at least 32"), (0, "at least 32")):
            argv = [command, spec_path, "--sphere-count", str(count)]
            assert cli.main(argv) == EXIT_INVALID
            assert capsys.readouterr().err == f"error: --sphere-count: {bound}, got {count}\n"

    @pytest.mark.parametrize("n, cells, added", [
        (200000, 8, 99992), (200016, 8, 100000), (145472, 11, 100001)])
    def test_flux_budget_read_as_the_kernel_lays_it(self, n, cells, added):
        # r_max = 1 lays `cells` linear cells; the reader refuses, as spec.n,
        # exactly where flux_integral refuses the same nodes
        raw = _constant_spec(n=n, grid={"r_max": 1.0, "nodes_per_decade": cells})
        params = core.ProblemParams(n=n, k=1, gamma=0.5)
        nodes = core.RadialGrid.build(1.0, nodes_per_decade=cells).nodes
        assert len(nodes) == cells + 1
        if added <= 100_000:
            assert ProblemSpec.from_dict(raw).params.n == n
            assert np.isfinite(envelope.flux_integral(params, lambda s: np.ones_like(s),
                                                      nodes)[-1])
            return
        with pytest.raises(ParameterError) as kernel:
            envelope.flux_integral(params, lambda s: np.ones_like(s), nodes)
        assert str(kernel.value) == f"n = {n}: {added} added flux panels, at most 100000"
        with pytest.raises(ParameterError) as reader:
            ProblemSpec.from_dict(raw)
        assert str(reader.value) == f"spec.n: {kernel.value}"

    def test_flux_budget_counts_a_table_radii(self, monkeypatch, tmp_path, capsys):
        # 50,001 radii on [0, 10]: 49,984 inside the grid's 48 cells and off
        # its nodes make 50,032 cells, cut three-fold at n = 33
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")
        monkeypatch.setattr(cli, "solve_cauchy", no_solve)
        r = np.linspace(0.0, 10.0, 50_001)
        (tmp_path / "b.csv").write_text(
            "r,b\n" + "".join(f"{x!r},{1.0 / (1.0 + x)!r}\n" for x in r.tolist()))
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            n=33, coefficient={"kind": "tabulated", "path": "b.csv"}, grid={"r_max": 10.0}))
        assert cli.main(["solve", spec_path]) == EXIT_INVALID
        assert capsys.readouterr().err == \
            "error: spec.n: n = 33: 100064 added flux panels, at most 100000\n"

    def test_field_dimension_must_match_n(self):
        raw = _counterexample_spec()
        raw["n"] = 4  # counterexample field lives in dimension 3
        with pytest.raises(ParameterError, match="^spec.coefficient: field dimension 3 "
                                                 "does not match n = 4$"):
            ProblemSpec.from_dict(raw)


class TestSolveCommand:
    def test_writes_curve_and_summary(self, tmp_path, capsys):
        spec_path = _write(tmp_path, "spec.json", _constant_spec())
        assert cli.main(["solve", spec_path]) == EXIT_OK
        summary = json.loads((tmp_path / "spec_summary.json").read_text())
        assert summary["gamma_k_ok"] is True
        assert summary["residual_max"] < 1e-12
        assert summary["conservation_defect"] < 1e-6
        # u ~ r^4/400 with an O(r^-1.3) relative transient: ~6% at r = 1e3.
        assert summary["u_at_rmax"] == pytest.approx(1e3**4 / 400.0, rel=0.1)
        curve_rows = (tmp_path / "spec_curve.csv").read_text().splitlines()
        assert curve_rows[0] == "r,u,du,d2u,sigma_k_residual"
        assert len(curve_rows) > 50
        out = capsys.readouterr().out
        assert json.loads(out)["u_at_rmax"] == summary["u_at_rmax"]

    def test_cone_test_past_the_float_binomials(self, tmp_path, capsys):
        # C(1099, 549) is beyond the float range; the cone test forms no binomial
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            n=1100, k=1090, gamma=1.0, grid={"r_max": 1.0}))
        assert cli.main(["solve", spec_path]) == EXIT_OK
        summary = json.loads((tmp_path / "spec_summary.json").read_text())
        assert summary["gamma_k_ok"] is True
        assert summary["conservation_defect"] < 1e-6
        capsys.readouterr()

    def test_table_read_once_per_solve(self, monkeypatch, tmp_path, capsys):
        # The spec builds its coefficient when it is read; nothing builds it again.
        calls = []
        load, table = cli._RADIAL_KINDS["tabulated"]

        def counting_load(*args, **kwargs):
            calls.append(args)
            return load(*args, **kwargs)

        monkeypatch.setitem(cli._RADIAL_KINDS, "tabulated", (counting_load, table))
        (tmp_path / "b.csv").write_text("r,b\n0,1\n1,0.5\n2,0.25\n")
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            coefficient={"kind": "tabulated", "path": "b.csv", "tail_exponent": 2.0},
            grid={"r_max": 100.0, "nodes_per_decade": 16}))
        assert cli.main(["solve", spec_path]) == EXIT_OK
        assert len(calls) == 1
        capsys.readouterr()

    def test_self_consistent_under_tolerance_change(self, tmp_path):
        loose_path = _write(tmp_path, "loose.json", _constant_spec())
        tight_path = _write(
            tmp_path, "tight.json",
            _constant_spec(tolerances={"rel": 5e-9, "abs": 1e-12}),
        )
        assert cli.main(["solve", loose_path]) == EXIT_OK
        assert cli.main(["solve", tight_path]) == EXIT_OK
        loose = json.loads((tmp_path / "loose_summary.json").read_text())
        tight = json.loads((tmp_path / "tight_summary.json").read_text())
        assert loose["u_at_rmax"] == pytest.approx(tight["u_at_rmax"], rel=1e-6)

    def test_plot_data(self, tmp_path):
        spec_path = _write(
            tmp_path, "spec.json", _constant_spec(grid={"r_max": 10.0})
        )
        assert cli.main(["solve", spec_path, "--plot-data"]) == EXIT_OK
        with open(tmp_path / "spec_plotdata.csv") as handle:
            rows = list(csv.DictReader(handle))
        series = {row["series"] for row in rows}
        assert series == {"u", "du", "d2u"}
        assert len(rows) % 3 == 0

    def test_plot_data_path_in_summary_file(self, tmp_path, capsys):
        spec_path = _write(tmp_path, "spec.json", _constant_spec(grid={"r_max": 10.0}))
        assert cli.main(["solve", spec_path, "--plot-data"]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        written = json.loads((tmp_path / "spec_summary.json").read_text())
        assert written == printed
        assert written["plot_data_csv"] == str(tmp_path / "spec_plotdata.csv")

    def test_rejects_field_spec(self, tmp_path, capsys):
        spec_path = _write(tmp_path, "spec.json", _counterexample_spec())
        assert cli.main(["solve", spec_path]) == EXIT_INVALID
        assert "radial" in capsys.readouterr().err

    def test_integration_failure_exit_code(self, tmp_path, monkeypatch):
        spec_path = _write(tmp_path, "spec.json", _constant_spec())

        def boom(*args, **kwargs):
            raise IntegrationError("synthetic failure", r=1.0)

        monkeypatch.setattr(cli, "solve_cauchy", boom)
        assert cli.main(["solve", spec_path]) == EXIT_INTEGRATION


    def test_series_start_overflow_exit_code(self, tmp_path, capsys):
        # b(0) a^gamma = 1e315 overflows, so the series start cannot be formed
        # before any step.  (b = 1e305 with a = 1 once overflowed too, from a
        # handoff held at r >= 1e-12; it now hands off below that and solves.)
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            k=3, a=1e20, coefficient={"kind": "constant", "value": 1e305}))
        assert cli.main(["solve", spec_path]) == EXIT_INTEGRATION
        assert "series start" in capsys.readouterr().err

    @pytest.mark.parametrize("n, k, gamma, r_max", [
        (6, 3, 2.9, 37450.0), (6, 3, 2.9, 1e5), (3, 3, 2.9, 1e3), (20, 10, 9.5, 100.0)])
    def test_flux_beyond_the_float_range_solves(self, tmp_path, capsys, n, k, gamma, r_max):
        # gamma near k: M leaves the float range long before u reaches the
        # overflow guard (near r = 1.1e3, 833 and 69); these solves once
        # stopped there with exit 2.
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            n=n, k=k, gamma=gamma, grid={"r_max": r_max}))
        assert cli.main(["solve", spec_path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert math.isfinite(summary["u_at_rmax"]) and summary["gamma_k_ok"] is True
        assert summary["conservation_defect"] < 1e-6

    def test_large_k_solve_writes_finite_strict_json(self, tmp_path, capsys):
        # b u^gamma / (u'/r)^k passes the float range from r = 0.6 at k = 514;
        # u'' and the residual come from its log, so no NaN reaches the summary.
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            n=1029, k=514, gamma=1.0, coefficient={"kind": "power_tail", "l": 1.5},
            grid={"r_max": 1.0}))
        assert cli.main(["solve", spec_path]) == EXIT_OK
        assert capsys.readouterr().err == ""

        def not_json(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((tmp_path / "spec_summary.json").read_text(),
                             parse_constant=not_json)
        assert summary["residual_max"] < 1e-12
        curve = np.loadtxt(tmp_path / "spec_curve.csv", delimiter=",", skiprows=1)
        assert curve.shape == (49, 5) and np.isfinite(curve).all()


class TestClassifyCommand:
    def test_non_finite_spec_number_exits_invalid(self, tmp_path, capsys):
        # json writes NaN for float("nan"); a NaN tail must never reach the
        # classifier, where it compares false against every threshold.
        raw = _constant_spec(coefficient={"kind": "power_tail", "l": float("nan")})
        spec_path = _write(tmp_path, "spec.json", raw)
        assert cli.main(["classify", spec_path]) == EXIT_INVALID
        assert "spec.coefficient.l" in capsys.readouterr().err

    @pytest.mark.parametrize("content, fragment", [
        (None, "not found"),
        ("r,b\n0,1\n2,x\n", "line 3, column 2: 'x' is not a number"),
        ("r,b\n0,1\n2,0.5,3\n", "line 3: expected 2 columns, got 3"),
        ("r,b\n0,1\n1,nan\n2,0.25\n", "line 3: tabulated radii and values must be finite"),
        ("r,b\n0,1\n1,0.5\ninf,0.25\n", "line 4: tabulated radii and values must be finite"),
    ], ids=["missing", "non-numeric", "ragged", "nan-value", "inf-radius"])
    def test_unreadable_table_exits_invalid(self, tmp_path, capsys, content, fragment):
        if content is not None:
            (tmp_path / "b.csv").write_text(content)
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            coefficient={"kind": "tabulated", "path": "b.csv", "tail_exponent": 2.0}))
        for command in ("classify", "solve"):
            assert cli.main([command, spec_path]) == EXIT_INVALID
            err = capsys.readouterr().err
            assert err.startswith(f"error: spec.coefficient: profile CSV {tmp_path / 'b.csv'}: ")
            assert fragment in err
            if content is None:
                assert err.count(str(tmp_path / "b.csv")) == 1

    def test_counterexample_payload(self, tmp_path, capsys):
        spec_path = _write(tmp_path, "spec.json", _counterexample_spec())
        out_path = tmp_path / "classify.json"
        code = cli.main(["classify", spec_path, "--strict", "--out", str(out_path)])
        assert code == EXIT_OK  # Large and violated are both definite
        payload = json.loads(out_path.read_text())
        assert payload["existence_verdict"]["verdict"] == "Large"
        assert payload["osc_condition"]["status"] == "violated"
        assert payload["thresholds"]["m_star"] == pytest.approx(3.0)
        assert payload["thresholds"]["existence_threshold"] == 2.0
        assert payload["moment_conditions"]["implied_by"] == {
            "envelope_growth_divergence": "radial_moment_divergence",
            "oscillation_moment_bound": "oscillation_smallness",
        }
        capsys.readouterr()

    def test_strict_flags_inconclusive(self, tmp_path, capsys):
        # A short tabulated profile with no declared tail cannot be
        # classified; --strict turns that into exit 3.
        csv_path = tmp_path / "b.csv"
        csv_path.write_text("r,b\n0,1\n2,0.5\n5,0.2\n10,0.1\n")
        raw = _constant_spec(
            coefficient={"kind": "tabulated", "path": "b.csv"},
            grid={"r_max": 10.0},
        )
        spec_path = _write(tmp_path, "spec.json", raw)
        assert cli.main(["classify", spec_path]) == EXIT_OK
        capsys.readouterr()
        assert cli.main(["classify", spec_path, "--strict"]) == EXIT_INCONCLUSIVE
        out = json.loads(capsys.readouterr().out)
        assert out["existence_verdict"]["verdict"] == "Inconclusive"

    def test_radial_spec_classifies(self, tmp_path, capsys):
        raw = _constant_spec(coefficient={"kind": "power_tail", "l": 2.5})
        spec_path = _write(tmp_path, "spec.json", raw)
        assert cli.main(["classify", spec_path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["existence_verdict"]["verdict"] == "Bounded"
        assert payload["osc_condition"]["status"] == "satisfied"


class TestInadmissibleCoefficient:
    """Every subcommand rejects a coefficient that overflows on its radii
    by one line naming the value and the first such radius (exit 1)."""

    @staticmethod
    def _run(tmp_path, capsys, coefficient, commands, r_max=100.0):
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            coefficient=coefficient, grid={"r_max": r_max}))
        for command in commands:
            out_dir = tmp_path / command
            code = cli.main([command, spec_path, "--out" if command != "solve" else "--curve",
                             str(out_dir)])
            yield code, capsys.readouterr()

    def test_overflowing_power_tail(self, tmp_path, capsys):
        # (1 + r^2)^400 passes the largest float beyond r = 2.2134; classify
        # meets it at a Gauss point, solve at a grid node of the same cell
        for code, captured in self._run(tmp_path, capsys, {"kind": "power_tail", "l": -800.0},
                                        ("classify", "solve")):
            assert code == EXIT_INVALID
            assert captured.out == ""
            match = re.fullmatch(r"error: coefficient must be finite and \w+, got inf "
                                 r"at r = (\S+)\n", captured.err)
            assert match, captured.err
            assert 2.2134 < float(match.group(1)) < 2.3

    def test_overflowing_field(self, tmp_path, capsys):
        coefficient = {"kind": "builtin_field", "name": "anisotropic_power",
                       "l": -800.0, "m": 8.0}
        for code, captured in self._run(tmp_path, capsys, coefficient, ("classify", "sandwich")):
            assert code == EXIT_INVALID
            assert captured.err == ("error: coefficient must be finite and positive, "
                                    "got inf at r = 2.29167\n")
        assert not (tmp_path / "sandwich").exists()

    def test_overflowing_power_tail_in_sweep_row(self, tmp_path):
        # a sweep cell holds b_* to the rule on its grid's positive nodes, so
        # the row names the grid node past r = 2.2134, not classify's Gauss point
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            coefficient={"kind": "power_tail", "l": 0.0}, grid={"r_max": 100.0}))
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--vary", "l=-800,1", "--out",
                         str(out_path)]) == EXIT_OK
        with open(out_path) as handle:
            rejected, valid = csv.DictReader(handle)
        assert rejected["error"] == ("CoefficientError: coefficient must be finite and "
                                     "nonnegative, got inf at r = 2.29167")
        assert rejected["verdict"] == rejected["osc_status"] == ""
        assert (valid["verdict"], valid["error"]) == ("Large", "")

    def test_underflowing_tail_still_classifies(self, tmp_path, capsys):
        # l = 200 underflows to 0 beyond r = 42; the quadrature admits zero
        [(code, captured)] = self._run(tmp_path, capsys, {"kind": "power_tail", "l": 200.0},
                                       ("classify",), r_max=1e4)
        assert code == EXIT_OK and captured.err == ""
        assert json.loads(captured.out)["existence_verdict"]["verdict"] == "Bounded"

    def test_oscillation_beyond_the_float_range_reads_inf(self, tmp_path, capsys):
        # b_osc ~ r^56.7 stays finite while the oscillation integrands pass
        # the largest float: both finite parts read inf, without a warning
        # (once NaN and five RuntimeWarnings)
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            coefficient={"kind": "builtin_field", "name": "anisotropic_power",
                         "l": 1.0, "m": -56.7}))
        assert cli.main(["classify", spec_path, "--sphere-count", "32"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        osc, bound = report["osc_condition"], report["moment_conditions"]["oscillation_moment_bound"]
        assert (osc["status"], osc["finite_part"]) == ("violated", math.inf)
        assert (bound["status"], bound["finite_part"]) == ("divergent", math.inf)


class TestSandwichCommand:
    def test_flux_budget_refused_before_either_solve(self, monkeypatch, tmp_path, capsys):
        # the spec grid's 8 cells pass the budget at n = 190000; the
        # supersolution ceiling's J table, on 192 fine cells, does not
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")
        monkeypatch.setattr(sandwich, "solve_cauchy", no_solve)
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            n=190000, coefficient={"kind": "power_tail", "l": 1.0},
            grid={"r_max": 1.0, "nodes_per_decade": 8}))
        assert cli.main(["sandwich", spec_path, "--out", str(tmp_path / "sw")]) == EXIT_INVALID
        assert capsys.readouterr().err == \
            "error: n = 190000: 2279808 added flux panels, at most 100000\n"
        assert not (tmp_path / "sw").exists()

    def test_counterexample_precondition_exit(self, tmp_path, capsys):
        spec_path = _write(tmp_path, "spec.json", _counterexample_spec())
        assert cli.main(["sandwich", spec_path]) == EXIT_INCONCLUSIVE
        assert "precondition" in capsys.readouterr().err

    def test_explicit_beta_forces_construction(self, tmp_path, capsys):
        spec_path = _write(tmp_path, "spec.json", _counterexample_spec())
        out_dir = tmp_path / "sw"
        code = cli.main(
            ["sandwich", spec_path, "--beta", "50000", "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["beta"] == 50000.0
        assert report["min_margin"] > 0.0
        assert (out_dir / "v.csv").exists() and (out_dir / "w.csv").exists()
        capsys.readouterr()

    def test_ordering_failure_exit(self, tmp_path, capsys):
        spec_path = _write(tmp_path, "spec.json", _counterexample_spec())
        assert cli.main(["sandwich", spec_path, "--beta", "1.5"]) == EXIT_ORDERING
        assert "ordering" in capsys.readouterr().err

    def test_beta_at_most_one_refused_before_any_work(self, monkeypatch, tmp_path, capsys):
        # beta <= 1 cannot lie above the subsolution's center: it is refused
        # before the J table, I_osc or either solve is built
        def refused(*args, **kwargs):
            raise AssertionError("work done before beta was checked")

        monkeypatch.setattr(sandwich, "oscillation_condition", refused)
        monkeypatch.setattr(sandwich, "solve_cauchy", refused)
        spec_path = _write(tmp_path, "spec.json", _counterexample_spec())
        assert cli.main(["sandwich", spec_path, "--beta", "0.5"]) == EXIT_ORDERING
        assert capsys.readouterr().err == (
            "ordering failure: beta must exceed the subsolution center 1, got 0.5\n")

    @pytest.mark.parametrize("args, option", [
        (["--beta", "nan"], "beta"),
        (["--beta", "inf"], "beta"),
        (["--margin", "nan"], "margin"),
        (["--beta", "3", "--margin", "inf"], "margin"),
        (["--margin", "-5"], "margin"),
    ])
    def test_non_finite_option_exits_invalid(self, tmp_path, capsys, args, option):
        # the output directory, made before the work, goes with its new parent
        spec_path = _write(tmp_path, "spec.json", _constant_spec())
        out_dir = tmp_path / "runs" / "sw"
        assert cli.main(["sandwich", spec_path, "--out", str(out_dir), *args]) == EXIT_INVALID
        assert f"error: {option} must be a finite number" in capsys.readouterr().err
        assert not out_dir.parent.exists()

    def test_anisotropic_auto_build(self, tmp_path, capsys):
        raw = {
            "n": 5,
            "k": 2,
            "gamma": 1.0,
            "coefficient": {
                "kind": "builtin_field",
                "name": "anisotropic_power",
                "l": 1.0,
                "m": 8.0,
                "amp": 0.5,
                "dim": 5,
            },
            "grid": {"r_max": 100.0, "nodes_per_decade": 16},
        }
        spec_path = _write(tmp_path, "spec.json", raw)
        out_dir = tmp_path / "sw"
        code = cli.main(
            ["sandwich", spec_path, "--sphere-count", "64", "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["oscillation"]["status"] == "satisfied"
        assert report["min_margin"] > 0.0
        capsys.readouterr()


class TestVerifyCommand:
    def test_green_path(self, tmp_path, capsys):
        json_path = tmp_path / "inv.json"
        assert cli.main(["verify", "--json", str(json_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "invariants passed" in out
        assert "FAIL" not in out
        results = json.loads(json_path.read_text())
        assert all(r["passed"] for r in results)

    def test_deterministic_output(self, capsys):
        assert cli.main(["verify"]) == EXIT_OK
        first = capsys.readouterr().out
        assert cli.main(["verify"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_mutation_exit_code(self, monkeypatch, capsys):
        import hessianls.core

        original = hessianls.core.sigma_j_radial
        monkeypatch.setattr(
            hessianls.core,
            "sigma_j_radial",
            lambda j, d2u, t, n: -np.asarray(original(j, d2u, t, n)),
        )
        assert cli.main(["verify"]) == EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out


class TestSweepCommand:
    def _template(self, tmp_path, **over):
        raw = {
            "n": 3,
            "k": 1,
            "gamma": 0.5,
            "coefficient": {"kind": "power_tail", "l": 1.0},
            "grid": {"r_max": 50.0, "nodes_per_decade": 16},
        }
        raw.update(over)
        return _write(tmp_path, "template.json", raw)

    def test_verdict_flips_across_threshold(self, tmp_path):
        spec_path = self._template(tmp_path)
        out_path = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", spec_path, "--vary", "l=1.5,2.5", "--no-rates",
             "--out", str(out_path)]
        )
        assert code == EXIT_OK
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert [row["verdict"] for row in rows] == ["Large", "Bounded"]
        assert all(row["error"] == "" for row in rows)

    def test_cartesian_product_order(self, tmp_path):
        spec_path = self._template(tmp_path)
        out_path = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", spec_path, "--vary", "gamma=0.3,0.6", "--vary", "l=1,2",
             "--no-rates", "--out", str(out_path)]
        )
        assert code == EXIT_OK
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert [(row["gamma"], row["l"]) for row in rows] == [
            ("0.3", "1.0"), ("0.3", "2.0"), ("0.6", "1.0"), ("0.6", "2.0")
        ]

    def test_invalid_cells_error_in_row(self, tmp_path):
        # gamma >= k is invalid; the sweep records the error in the row
        # instead of aborting the whole table.
        spec_path = self._template(tmp_path)
        out_path = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", spec_path, "--vary", "gamma=0.5,1.0", "--no-rates",
             "--out", str(out_path)]
        )
        assert code == EXIT_OK
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["error"] == ""
        assert "gamma" in rows[1]["error"]

    def test_rejected_cell_row_names_the_cell(self, tmp_path):
        spec_path = self._template(tmp_path)
        out_path = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", spec_path, "--vary", "l=nan,1", "--no-rates", "--out", str(out_path)]
        )
        assert code == EXIT_OK
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert [rows[0][col] for col in ("n", "k", "gamma", "kind", "l")] == [
            "3", "1", "0.5", "power_tail", "nan"]
        assert rows[0]["error"].startswith("ParameterError: spec.coefficient.l")
        assert rows[1]["l"] == "1.0" and rows[1]["error"] == ""

    @pytest.mark.parametrize("vary, first_n, error", [
        ("n=3.5,4", "3.5", "spec.n: expected an integer, got 3.5"),
        ("n=4.0,4", "4.0", "spec.n: expected an integer, got 4.0"),
        ("nodes_per_decade=16.7,16", "4",
         "spec.grid.nodes_per_decade: expected an integer, got 16.7"),
    ], ids=["n-fraction", "n-float-literal", "nodes-fraction"])
    def test_vary_values_read_as_spec_literals(self, tmp_path, vary, first_n, error):
        # A non-integer n or node count is rejected in-row, never truncated;
        # the valid cell is the row the unvaried template gives.
        spec_path = self._template(tmp_path, n=4, k=2, gamma=1.0)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--vary", vary, "--no-rates",
                         "--out", str(out_path)]) == EXIT_OK
        rejected, valid = out_path.read_text().splitlines()[1:]
        assert rejected.startswith(f"{first_n},2,1.0,")
        assert next(csv.reader([rejected]))[-1] == f"ParameterError: {error}"
        assert valid == "4,2,1.0,1.0,power_tail,1.0,,Large,satisfied,,,,,,"

    def test_error_with_comma_stays_in_error_column(self, tmp_path):
        spec_path = self._template(tmp_path, n=4, k=2, gamma=1.0)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--vary", "n=3.5,4", "--no-rates",
                         "--out", str(out_path)]) == EXIT_OK
        with open(out_path, newline="") as handle:
            rejected = next(csv.DictReader(handle))
        assert rejected["error"] == "ParameterError: spec.n: expected an integer, got 3.5"
        assert None not in rejected  # DictReader's key for fields beyond the header

    def test_deterministic_across_job_counts(self, tmp_path):
        spec_path = self._template(tmp_path)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        args = ["sweep", spec_path, "--vary", "l=1.0,2.0,3.0", "--no-rates"]
        assert cli.main(args + ["--out", str(serial)]) == EXIT_OK
        assert cli.main(args + ["--out", str(parallel), "--jobs", "2"]) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("cores, cells, workers", [
        (64, 2, 2), (64, 3, 3), (2, 3, 2), (None, 3, None)])
    def test_pool_no_larger_than_cells_or_cores(self, tmp_path, monkeypatch,
                                                cores, cells, workers):
        # an in-process stand-in records the pool size, so a large --jobs
        # forks nothing here; None means no pool at all
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        spec_path = self._template(tmp_path)
        values = ",".join(f"{l:.1f}" for l in range(1, cells + 1))
        args = ["sweep", spec_path, "--vary", f"l={values}", "--no-rates"]
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert cli.main(args + ["--out", str(serial)]) == EXIT_OK
        assert sizes == []
        assert cli.main(args + ["--out", str(pooled), "--jobs", "100000"]) == EXIT_OK
        assert sizes == ([] if workers is None else [workers])
        assert serial.read_bytes() == pooled.read_bytes()

    def test_rate_fit_columns(self, tmp_path):
        # l = 0 <= k - 1 in the Large regime triggers the solve-based fit.
        spec_path = self._template(
            tmp_path,
            coefficient={"kind": "power_tail", "l": 0.0},
            grid={"r_max": 1000.0, "nodes_per_decade": 24},
        )
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--out", str(out_path)]) == EXIT_OK
        with open(out_path) as handle:
            row = next(csv.DictReader(handle))
        assert float(row["alpha_expected"]) == pytest.approx(4.0)
        assert float(row["alpha_fitted"]) == pytest.approx(4.0, rel=0.2)

    @staticmethod
    def _noisy_table(tmp_path):
        # boundary-exponent data with alternating noise: the fitted tail lies
        # within one standard error of 2 (test_criteria's fitted tie)
        r = np.concatenate([[0.0], np.geomspace(0.1, 1e4, 101)])
        b = (1 + r**2) ** -1.0 * np.exp(0.3 * (-1.0) ** np.arange(r.size))
        path = tmp_path / "table.csv"
        path.write_text("r,b\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(r, b)))
        return {"kind": "tabulated", "path": path.name}

    @pytest.mark.parametrize("case", [
        # n <= 2k: Large for every tail
        ({"n": 4, "k": 2, "gamma": 1.0}, {"kind": "power_tail", "l": 1.0},
         "l=1,5", [("Large", "satisfied"), ("Large", "satisfied")]),
        # n > 2k: the tail decides
        ({"n": 5, "k": 2, "gamma": 1.0}, {"kind": "power_tail", "l": 1.0},
         "l=3,5", [("Large", "satisfied"), ("Bounded", "satisfied")]),
        # a fitted tail in the refusal band at n = 3 > 2k; n <= 2k at k = 2
        ({"n": 3, "k": 1, "gamma": 0.5}, "table", "k=1,2",
         [("Inconclusive", "satisfied"), ("Large", "satisfied")]),
        # m* = 7 for l = 1, k = 2, gamma = 1
        ({"n": 5, "k": 2, "gamma": 1.0}, {"kind": "builtin_field",
                                          "name": "anisotropic_power",
                                          "l": 1.0, "m": 6.0, "amp": 0.5, "dim": 5},
         "m=6,8", [("Large", "violated"), ("Large", "satisfied")]),
    ], ids=["n-le-2k", "n-gt-2k", "fitted-in-band", "field-m-around-m-star"])
    def test_rows_match_classify(self, tmp_path, capsys, case):
        # A row's verdicts come from the tails alone; classify --out on the
        # same cell (the sweep's 64 sphere points) reports the same ones.
        top, coefficient, vary, expected = case
        if coefficient == "table":
            coefficient = self._noisy_table(tmp_path)
        raw = {**top, "coefficient": coefficient, "grid": {"r_max": 1e3, "nodes_per_decade": 16}}
        spec_path = _write(tmp_path, "template.json", raw)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--vary", vary, "--no-rates",
                         "--out", str(out_path)]) == EXIT_OK
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert [(row["verdict"], row["osc_status"]) for row in rows] == expected
        name, values = vary.split("=")
        for row, value in zip(rows, values.split(",")):
            assert row["error"] == ""
            cell = _write(tmp_path, "cell.json", cli._apply_override(raw, name, int(value)))
            report = tmp_path / "classify.json"
            assert cli.main(["classify", cell, "--out", str(report),
                             "--sphere-count", "64"]) == EXIT_OK
            payload = json.loads(report.read_text())
            m_star = payload["osc_condition"]["m_star"]
            assert row["verdict"] == payload["existence_verdict"]["verdict"]
            assert row["osc_status"] == payload["osc_condition"]["status"]
            assert row["m_star"] == ("" if m_star is None else f"{m_star:.17g}")
        capsys.readouterr()

    def test_sweep_computes_no_finite_part(self, tmp_path, capsys, monkeypatch):
        # Rows print no finite part, so a sweep runs neither envelope
        # integral, rate fits included; classify still does.
        from hessianls import criteria, envelope

        def forbidden(*args, **kwargs):
            raise AssertionError("finite-part quadrature in a sweep")

        for module in (criteria, envelope):
            for name in ("growth_primitive", "oscillation_integral"):
                monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(envelope, "linear_growth_tables", forbidden)  # classify's J table
        radial = self._template(tmp_path, coefficient={"kind": "power_tail", "l": 0.0},
                                grid={"r_max": 1e3, "nodes_per_decade": 16})
        field = _write(tmp_path, "field.json", {
            "n": 3, "k": 1, "gamma": 0.5, "grid": {"r_max": 100.0, "nodes_per_decade": 16},
            "coefficient": {"kind": "builtin_field", "name": "anisotropic_power",
                            "l": 1.0, "m": 3.5}})
        for spec_path, vary, expected in ((radial, "l=0,1.5,2.5", ["Large", "Large", "Bounded"]),
                                          (field, "m=2.5,3.5", ["Large", "Large"])):
            out_path = tmp_path / "sweep.csv"
            assert cli.main(["sweep", spec_path, "--vary", vary,
                             "--out", str(out_path)]) == EXIT_OK
            with open(out_path) as handle:
                rows = list(csv.DictReader(handle))
            assert [row["verdict"] for row in rows] == expected
            assert all(row["error"] == "" for row in rows)
        assert rows[0]["osc_status"] == "violated" and rows[1]["osc_status"] == "satisfied"
        with pytest.raises(AssertionError, match="finite-part quadrature"):
            cli.main(["classify", radial])
        capsys.readouterr()

    def test_vary_validation(self, tmp_path, capsys):
        spec_path = self._template(tmp_path)
        assert cli.main(["sweep", spec_path, "--vary", "bogus=1,2"]) == EXIT_INVALID
        assert "--vary" in capsys.readouterr().err
        assert cli.main(["sweep", spec_path, "--vary", "l=x,y"]) == EXIT_INVALID
        capsys.readouterr()

    def test_field_cell_rejected_when_read(self, tmp_path):
        spec_path = self._template(tmp_path, coefficient={
            "kind": "builtin_field", "name": "anisotropic_power", "l": 1.0, "m": 8.0})
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--vary", "amp=0.5,-1", "--no-rates",
                         "--out", str(out_path)]) == EXIT_OK
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["error"] == "" and rows[0]["verdict"] == "Large"
        assert rows[1]["error"] == "CoefficientError: spec.coefficient: amp must be nonnegative"
        assert rows[1]["verdict"] == ""

    @pytest.mark.parametrize("vary, message", [
        ("l", "--vary 'l': expected name=v1,v2,..."),
        ("l=", "--vary 'l=': no values given"),
        ("l=,", "--vary 'l=,': no values given"),
    ], ids=["no-equals", "no-values", "only-commas"])
    def test_vary_needs_a_name_and_values(self, tmp_path, capsys, vary, message):
        spec_path = self._template(tmp_path)
        assert cli.main(["sweep", spec_path, "--vary", vary]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_vary_name_given_twice_is_rejected(self, tmp_path, capsys):
        spec_path = self._template(tmp_path)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--vary", "l=0.5", "--vary", "gamma=0.25",
                         "--vary", "l=3.0", "--out", str(out_path)]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: --vary l: given twice\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_rejected(self, tmp_path, capsys, jobs):
        spec_path = self._template(tmp_path)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--vary", "l=1,2", "--jobs", jobs,
                         "--out", str(out_path)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: --jobs: at least 1, got {jobs}\n"
        assert not out_path.exists()

    def test_vary_accepts_every_numeric_spec_key(self, tmp_path, capsys):
        spec_path = self._template(tmp_path)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", spec_path, "--vary", "r_lin=5,10", "--vary", "rel=1e-9",
                         "--vary", "abs=1e-13", "--no-rates", "--out", str(out_path)]) == EXIT_OK
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 and all(row["error"] == "" for row in rows)
        assert cli.main(["sweep", spec_path, "--vary", "bogus=1"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert all(repr(name) in err for name in cli._VARY_SECTIONS)
        assert "'tail_exponent'" in err and "'path'" not in err


class TestParserReuse:
    def test_back_to_back_calls_match_fresh_parsers(self, tmp_path, monkeypatch, capsys):
        # main builds its parser once per process; a run of in-process calls
        # gives the stdout, stderr, exit codes and files of calls that each
        # build their own, and no --vary list leaks into the next call.
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            coefficient={"kind": "power_tail", "l": 1.0},
            grid={"r_max": 100.0, "nodes_per_decade": 16}))
        calls = [["sweep", spec_path, "--vary", "l=1,3", "--no-rates"],
                 ["sweep", spec_path, "--vary", "gamma=0.25", "--no-rates",
                  "--out", "{out}/sweep.csv"],
                 ["classify", spec_path, "--out", "{out}/classify.json"],
                 ["sweep", spec_path, "--vary"]]

        def run(out):
            out.mkdir()
            results = []
            for argv in calls:
                try:
                    code = cli.main([arg.format(out=out) for arg in argv])
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results, {path.name: path.read_bytes() for path in out.iterdir()}

        assert cli._parser() is cli._parser()
        reused = run(tmp_path / "reused")
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = run(tmp_path / "fresh")
        assert reused == fresh
        codes = [code for code, _, _ in reused[0]]
        assert codes == [EXIT_OK, EXIT_OK, EXIT_OK, 2]
        assert len(reused[0][0][1].splitlines()) == 3  # header and the two l cells
        assert reused[1]["sweep.csv"].count(b"\n") == 2  # header and one gamma cell
        assert "expected one argument" in reused[0][3][2]


class TestTopLevelErrors:
    def test_missing_spec_file(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path / "nope.json")]) == EXIT_INVALID
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["classify", str(path)]) == EXIT_INVALID
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "solve"])
    @pytest.mark.parametrize("over, message", [
        ({"gama": 0.5}, "spec.gama: not a parameter of the spec"),
        ({"grid": {"rmax": 50}}, "spec.grid.rmax: not a parameter of the grid"),
        ({"tolerance": {"rel": 1e-8}}, "spec.tolerance: not a parameter of the spec"),
        ({"tolerances": {"abs": -1}}, "spec.tolerances.abs: must be positive"),
        ({"tolerances": {"rel": 0}}, "spec.tolerances.rel: must lie in [2.22e-14, 1)"),
        ({"tolerances": {"rel": 1e-15}}, "spec.tolerances.rel: must lie in"),
        ({"grid": {"r_lin": 0}}, "spec.grid: r_lin must be positive"),
        ({"n": 2000, "k": 1000}, "spec: n and C(n, k) must lie within the float range"),
        (_large_n_spec(79), "spec.n: s^(n-1) overflows the float range on [0, r_max] "
                            "for n = 79, r_max = 10000"),
        ({"grid": {"r_lin": 2.2e-308, "r_max": 1e3, "nodes_per_decade": 32}},
         "spec.grid: r_lin = 2.2e-308 is too small: r_max / r_lin overflows"),
        ({"grid": {"r_lin": 2.2e-309, "r_max": 1e3, "nodes_per_decade": 32}},
         "spec.grid: r_lin = 2.2e-309 is too small: r_max / r_lin overflows"),
        # a^gamma = 0: the series start once divided by its curvature c2 = 0;
        # a^gamma beyond the float range: it once raised OverflowError
        ({"n": 5, "k": 2, "gamma": 1.9, "a": 1e-200, "grid": {"r_max": 10.0}},
         "spec.a: a^gamma underflows to 0 for a = 1e-200, gamma = 1.9; "),
        ({"n": 1029, "k": 514, "gamma": 500.0, "a": 1e-3, "grid": {"r_max": 1.0}},
         "spec.a: a^gamma underflows to 0 for a = 0.001, gamma = 500; "),
        ({"n": 5, "k": 2, "gamma": 1.9, "a": 1e300, "grid": {"r_max": 10.0}},
         "spec.a: a^gamma overflows for a = 1e+300, gamma = 1.9; "),
    ], ids=["top-typo", "grid-typo", "section-typo", "abs-negative", "rel-zero",
            "rel-clamped", "r_lin-zero", "binomial-overflow", "weight-overflow",
            "r_lin-tiny", "r_lin-subnormal", "a-gamma-underflow", "a-gamma-underflow-large-k",
            "a-gamma-overflow"])
    def test_spec_rejected_when_read(self, tmp_path, capsys, command, over, message):
        # Every subcommand rejects the same specs, before any work is done.
        spec_path = _write(tmp_path, "spec.json", _constant_spec(**over))
        assert cli.main([command, spec_path]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["classify", "sandwich", "solve", "sweep"])
    @pytest.mark.parametrize("n, coefficient, message", [
        (3, {"amp": -1}, "spec.coefficient: amp must be nonnegative"),
        (3, {"dim": 1}, "spec.coefficient: dim must be >= 2"),
        (4, {}, "spec.coefficient: field dimension 3 does not match n = 4"),
        (20, {"dim": 20}, "spec.coefficient.dim: sphere sampling supports dim <= 16, got 20"),
        (3, {"name": "mystery"}, "spec.coefficient.name: unknown builtin field 'mystery'"),
    ], ids=["amp-negative", "dim-one", "dim-not-n", "dim-beyond-sampler", "unknown-name"])
    def test_field_rejected_when_read(self, monkeypatch, tmp_path, capsys, command, n,
                                      coefficient, message):
        # A builtin field is built, and its own checks run, when the spec is
        # read: no subcommand, sweep template included, gets as far as radialize.
        def no_radialize(*args, **kwargs):
            raise AssertionError("the field was radialized")

        monkeypatch.setattr(cli, "radialize", no_radialize)
        field = {"kind": "builtin_field", "name": "anisotropic_power", "l": 1.0, "m": 8.0,
                 **coefficient}
        spec_path = _write(tmp_path, "spec.json", _constant_spec(n=n, coefficient=field))
        assert cli.main([command, spec_path]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_largest_n_for_r_max_classifies(self, tmp_path, capsys):
        # (n - 1) ln r_max just below ln of the largest float: s^(n-1) stays finite
        spec_path = _write(tmp_path, "spec.json", _constant_spec(**_large_n_spec(78)))
        assert cli.main(["classify", spec_path]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["existence_verdict"]
        assert verdict["finite_part"] == pytest.approx(15835.68, rel=1e-6)

    def test_overlong_integer_literal(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"n": ' + "1" * 5000 + "}")
        assert cli.main(["classify", str(path)]) == EXIT_INVALID
        assert "is not valid JSON" in capsys.readouterr().err

    def test_invalid_params_exit(self, tmp_path, capsys):
        spec_path = _write(tmp_path, "spec.json", _constant_spec(gamma=1.0))
        assert cli.main(["solve", spec_path]) == EXIT_INVALID
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, target", [
        (["classify", "{dir}"], "{dir}"),
        (["classify", "{spec}", "--out", "{dir}"], "{dir}"),
        (["solve", "{spec}", "--curve", "{dir}"], "{dir}"),
        (["solve", "{spec}", "--summary", "{dir}"], "{dir}"),
        (["sweep", "{spec}", "--out", "{dir}"], "{dir}"),
        (["verify", "--json", "{dir}"], "{dir}"),
        (["sandwich", "{spec}", "--out", "{file}"], "{file}"),
        (["classify", "{spec}", "--out", ""], "No such file or directory: ''"),
    ], ids=["classify-spec", "classify-out", "solve-curve", "solve-summary", "sweep-out",
            "verify-json", "sandwich-out", "classify-out-empty"])
    def test_unopenable_path_exits_invalid(self, monkeypatch, tmp_path, capsys, argv, target):
        # A directory where a file is read or written, an empty output path, or
        # a file where the sandwich directory goes: one error line naming the
        # path, no traceback, and nothing on stdout.  classify, sweep, verify
        # and sandwich refuse their output before any work: no criterion runs,
        # no cell is solved, the suite does not run and no envelope is solved;
        # solve opens its summary before it writes the curve.
        paths = {"dir": str(tmp_path / "taken"), "file": str(tmp_path / "taken.txt"),
                 "spec": _write(tmp_path, "spec.json", _constant_spec(
                     grid={"r_max": 50.0, "nodes_per_decade": 16}))}
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken.txt").write_text("")

        worked = []

        def refused(*args, **kwargs):   # a sweep cell keeps its error in its row
            worked.append(args)
            raise AssertionError("work done before the output path was opened")

        for criterion in ("classify_existence", "oscillation_condition", "jensen_conditions"):
            monkeypatch.setattr(cli, criterion, refused)
        if argv[0] in ("sweep", "verify", "sandwich"):
            monkeypatch.setattr(cli, "solve_cauchy", refused)
            monkeypatch.setattr(cli.verify_mod, "run_all", refused)
            monkeypatch.setattr(sandwich, "solve_cauchy", refused)
        assert cli.main([arg.format(**paths) for arg in argv]) == EXIT_INVALID
        assert not worked
        assert not (tmp_path / "spec_curve.csv").exists()
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert target.format(**paths) in err

    @pytest.mark.parametrize("argv, targets, failing", [
        (["classify", "{spec}", "--out", "{old}"], ["old"], "classify_existence"),
        (["verify", "--json", "{old}"], ["old"], "verify.run_all"),
        (["sweep", "{spec}", "--out", "{old}", "--jobs", "1"], ["old"], "_sweep_cell"),
        (["solve", "{spec}", "--summary", "{old}"], ["old"], "write_curve_csv"),
        (["solve", "{spec}", "--plot-data"], ["spec_plotdata.csv"], "write_curve_csv"),
        # zip runs once the curve file is open: the write fails part way
        (["solve", "{spec}", "--curve", "{old}"], ["old"], "solver.zip"),
        (["sandwich", "{spec}", "--out", "{old}"], ["old/v.csv", "old/w.csv", "old/report.json"],
         "solver.zip"),
    ], ids=["classify-out", "verify-json", "sweep-out", "solve-summary", "solve-plot-data",
            "solve-curve", "sandwich-out"])
    def test_failing_command_leaves_an_existing_output_as_it_was(
            self, monkeypatch, tmp_path, capsys, argv, targets, failing):
        # each output is written beside its path and moved onto it only when
        # its writing completes: a failure leaves the old files, and no new
        # file, in their directory
        paths = {"old": str(tmp_path / "old"), "spec": _write(tmp_path, "spec.json", _constant_spec(
            grid={"r_max": 50.0, "nodes_per_decade": 16}))}
        for target in targets:
            (tmp_path / target).parent.mkdir(exist_ok=True)
            (tmp_path / target).write_text("old contents\n")
        before = sorted(tmp_path.rglob("*"))

        def fail(*args, **kwargs):
            raise CoefficientError("failed on purpose")

        owner, _, name = failing.rpartition(".")
        # raising=False: a builtin such as zip is shadowed in the module
        monkeypatch.setattr(importlib.import_module(f"hessianls.{owner}") if owner else cli,
                            name, fail, raising=False)
        assert cli.main([arg.format(**paths) for arg in argv]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: failed on purpose\n"
        for target in targets:
            assert (tmp_path / target).read_text() == "old contents\n", target
        assert sorted(tmp_path.rglob("*")) == before

    def test_sandwich_files_land_together(self, monkeypatch, tmp_path, capsys):
        # v.csv is written before w.csv fails: none of the three new files
        # lands, the old ones stay byte for byte and nothing is left beside them
        spec = _write(tmp_path, "spec.json", _constant_spec(
            grid={"r_max": 50.0, "nodes_per_decade": 16}))
        old = {name: f"old {name}\n".encode() for name in ("v.csv", "w.csv", "report.json")}
        (tmp_path / "sw").mkdir()
        for name, contents in old.items():
            (tmp_path / "sw" / name).write_bytes(contents)
        write, written = sandwich.write_curve_csv, []

        def second_fails(curve, path, *args):
            if written:
                raise CoefficientError("failed on purpose")
            write(curve, path, *args)
            written.append(path)
        monkeypatch.setattr(sandwich, "write_curve_csv", second_fails)
        assert cli.main(["sandwich", spec, "--out", str(tmp_path / "sw")]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: failed on purpose\n"
        assert len(written) == 1
        assert {path.name: path.read_bytes() for path in (tmp_path / "sw").iterdir()} == old

    def test_failing_replace_names_the_files_that_landed(self, monkeypatch, tmp_path, capsys):
        # the three files land in turn: when w.csv's replace fails after
        # v.csv's landed, the error names v.csv as replaced and the other two
        # as left as they were, and no new file is left beside them
        spec = _write(tmp_path, "spec.json", _constant_spec(
            grid={"r_max": 50.0, "nodes_per_decade": 16}))
        out = pathlib.Path(os.path.realpath(tmp_path / "sw"))
        out.mkdir()
        for name in ("v.csv", "w.csv", "report.json"):
            (out / name).write_text(f"old {name}\n")
        replace = os.replace

        def fails_on_w(source, target):
            if os.path.basename(target) == "w.csv":
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            replace(source, target)
        monkeypatch.setattr(os, "replace", fails_on_w)
        assert cli.main(["sandwich", spec, "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}; already replaced: "
            f"{out / 'v.csv'}; left as they were: {out / 'w.csv'}, {out / 'report.json'}: "
            f"'{out / 'w.csv'}'\n")
        assert sorted(path.name for path in out.iterdir()) == ["report.json", "v.csv", "w.csv"]
        assert (out / "v.csv").read_text().startswith("r,u,du,d2u,sigma_k_residual\n")
        assert [(out / name).read_text() for name in ("w.csv", "report.json")] == [
            "old w.csv\n", "old report.json\n"]

    def test_output_replaces_the_file_as_open_would_write_it(self, tmp_path, capsys):
        # classify --out, solve --curve and the three sandwich files each
        # replace an old file, leave nothing beside it, and take the mode a
        # fresh open(path, "w") gives
        spec = _write(tmp_path, "spec.json", _constant_spec(grid={"r_max": 50.0}))
        names = ["curve.csv", "sandwich/report.json", "sandwich/v.csv", "sandwich/w.csv",
                 "verdict.json"]
        (tmp_path / "sandwich").mkdir()
        for name in names:
            (tmp_path / name).write_text("old contents\n")
        assert cli.main(["classify", spec, "--out", str(tmp_path / "verdict.json")]) == EXIT_OK
        assert json.loads((tmp_path / "verdict.json").read_text()) == json.loads(
            capsys.readouterr().out)
        assert cli.main(["solve", spec, "--curve", str(tmp_path / "curve.csv")]) == EXIT_OK
        capsys.readouterr()
        assert cli.main(["sandwich", spec, "--out", str(tmp_path / "sandwich")]) == EXIT_OK
        assert json.loads((tmp_path / "sandwich" / "report.json").read_text()) == json.loads(
            capsys.readouterr().out)
        for name in ("curve.csv", "sandwich/v.csv", "sandwich/w.csv"):
            assert (tmp_path / name).read_text().startswith("r,u,du,d2u,sigma_k_residual\n")
        assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")) == \
            sorted(names + ["sandwich", "spec.json", "spec_summary.json"])
        fresh = tmp_path / "fresh"
        with open(fresh, "w"):
            pass
        for name in names:
            assert (tmp_path / name).stat().st_mode == fresh.stat().st_mode, name

    @pytest.mark.parametrize("command", ["classify", "solve", "sandwich", "sweep"])
    @pytest.mark.parametrize("tail", [{"tail_exponent": 1.0}, {}], ids=["tail", "no-tail"])
    def test_table_above_zero_refused_by_name(self, tmp_path, capsys, command, tail):
        # Every subcommand evaluates b from r = 0 (the series start, the J
        # tables' first cell), so a table that starts later is refused when the
        # spec is read, naming the field and the first radius.
        (tmp_path / "b.csv").write_text("r,b\n0.5,1\n1,0.5\n2,0.25\n5,0.1\n10,0.05\n")
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            coefficient={"kind": "tabulated", "path": "b.csv", **tail}, grid={"r_max": 10.0}))
        assert cli.main([command, spec_path]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: spec.coefficient.path: profile CSV {tmp_path / 'b.csv'} starts at "
            f"r = 0.5; b is needed from r = 0\n")

    @pytest.mark.parametrize("command", ["classify", "solve", "sandwich", "sweep"])
    def test_tail_less_table_short_of_r_max_refused_by_name(self, tmp_path, capsys, command):
        # Every subcommand evaluates b up to r_max, so a table without a tail
        # that ends before it is refused when the spec is read, naming the
        # tail exponent and r_max; a sweep cell says so in its row, beside a
        # cell whose r_max is the table's end.
        (tmp_path / "b.csv").write_text("r,b\n0,1\n2,0.5\n5,0.2\n")
        spec_path = _write(tmp_path, "spec.json", _constant_spec(
            coefficient={"kind": "tabulated", "path": "b.csv"},
            grid={"r_max": 5.0 if command == "sweep" else 10.0}))
        message = (f"spec.coefficient.tail_exponent: none declared, and profile CSV "
                   f"{tmp_path / 'b.csv'} ends at r = 5 < spec.grid.r_max = 10")
        if command == "sweep":
            out_path = tmp_path / "sweep.csv"
            assert cli.main(["sweep", spec_path, "--vary", "r_max=5,10", "--no-rates",
                             "--out", str(out_path)]) == EXIT_OK
            with open(out_path) as handle:
                at_end, beyond = csv.DictReader(handle)
            assert (at_end["verdict"], at_end["error"]) == ("Inconclusive", "")
            assert (beyond["verdict"], beyond["error"]) == ("", f"CoefficientError: {message}")
            return
        assert cli.main([command, spec_path]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"
