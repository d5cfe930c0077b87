"""The package's modules import one way, from the top layer down.

Each module of ``src/hessianls`` may import only modules below it in
``LAYERS``; ``__init__`` gathers the public names and is exempt.  The
Gauss-panel rule ``panel_cumulative`` is reached only through
``envelope.flux_integral``, so only ``envelope`` imports it, and the
12-point rule itself is built once, in ``_integrate``, as is the one log of
a running sum (``np.logaddexp``) that carries every flux integral.  One
helper, ``envelope.flux_cells``, cuts cells into panels for s^(n-1): the
flux integral and the break line's build both lay their Gauss points on its
panels, and the build's and the defect's blocks have one size rule.  Every
envelope integral lives in ``envelope``: only it imports the Simpson rule
``cumulative_values`` or calls ``fine_nodes``, and ``criteria`` imports no
quadrature at all.  The float bound ln(max float) is defined once, in
``core``, next to the one binomial and ln(n / C(n, k)); a spec's coefficient
is built in one place, ``ProblemSpec.from_dict``; and one function,
``coefficients.check_coefficient``, decides whether a coefficient's values
are admissible, wherever b meets radii.  A table's float ln b in ln r has one
form, the per-cell pieces of ``RadialProfile.log_pieces``, and only ``solver``
steps by them; a declared tail is the table's last log-log cell, so each
cell has one rule, log-log or linear.  Every closed form is a sum of power
terms, computed by one array formula and one float rule, the built-in
fields' envelopes included.  ``radialize`` draws its unit-sphere rows from one
per-process store in ``coefficients``.  Every file the package writes is
opened by one helper, ``core.output_file``, and lands by replace.  Each
size bound lives where its arrays are laid: the grid cap in ``core``, the
flux-panel budget in ``envelope`` and both sphere-count bounds in
``coefficients``; ``cli`` only names the spec field.  One helper,
``envelope.merge_nodes``, merges radii into a node set, for the J tables'
fine nodes and the conservation check's nodes alike.  One builder lays a J
table, ``EnvelopeTables.growth``: ``growth_primitive`` reads such a table at
radii merged into its nodes, and interpolates nothing.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hessianls"
LAYERS = ("errors", "core", "_integrate", "coefficients", "envelope", "asymptotics",
          "solver", "criteria", "sandwich", "verify", "cli")


def _relative_imports(module):
    """(imported module, imported names) for every relative import of ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names]
            if node.module is None:  # from . import a, b
                yield from ((name, []) for name in names)
            else:
                yield node.module, names


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_down(module):
    upward = [target for target, _ in _relative_imports(module)
              if LAYERS.index(target) >= LAYERS.index(module)]
    assert upward == []


@pytest.mark.parametrize("module", LAYERS)
def test_only_envelope_imports_panel_cumulative(module):
    imports = [target for target, names in _relative_imports(module)
               if "panel_cumulative" in names]
    assert imports == (["_integrate"] if module == "envelope" else [])


@pytest.mark.parametrize("module", LAYERS)
def test_only_envelope_imports_cumulative_values(module):
    imports = [target for target, names in _relative_imports(module)
               if "cumulative_values" in names]
    assert imports == (["_integrate"] if module == "envelope" else [])


@pytest.mark.parametrize("module", LAYERS)
def test_only_envelope_calls_fine_nodes(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "fine_nodes"]
    assert bool(calls) == (module == "envelope")


def test_one_j_table_builder():
    # every J table is EnvelopeTables.growth's; growth_primitive reads one at
    # radii among its nodes, so it neither lays nodes nor interpolates
    trees = {module: ast.parse((PACKAGE / f"{module}.py").read_text()) for module in LAYERS}
    callers = {f"{module}.{name}" for module, tree in trees.items()
               for name, function in _functions(tree)
               if any(isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                   "linear_growth_tables") for node in ast.walk(function))}
    assert callers == {"envelope.EnvelopeTables.growth"}
    primitive = dict(_functions(trees["envelope"]))["growth_primitive"]
    calls = {ast.unparse(node.func) for node in ast.walk(primitive) if isinstance(node, ast.Call)}
    assert calls.isdisjoint({"fine_nodes", "np.interp"}) and "EnvelopeTables" in calls


def test_criteria_imports_no_quadrature():
    imports = dict(_relative_imports("criteria"))
    assert "_integrate" not in imports
    names = {name for listed in imports.values() for name in listed}
    assert names.isdisjoint({"fine_nodes", "flux_integral", "flux_slope",
                             "linear_growth_tables", "check_coefficient"})


@pytest.mark.parametrize("module", LAYERS)
def test_one_gauss_rule(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert ("leggauss" in source) == (module == "_integrate")


@pytest.mark.parametrize("module", LAYERS)
def test_one_log_cumulative(module):
    # panel_cumulative adds the cells of every flux integral in log space
    source = (PACKAGE / f"{module}.py").read_text()
    assert ("logaddexp" in source) == (module == "_integrate")


@pytest.mark.parametrize("module", LAYERS)
def test_one_float_bound(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert ("math.log(sys.float_info.max)" in source) == (module == "core")


@pytest.mark.parametrize("module", LAYERS)
def test_one_log_flux_constant(module):
    # ln(n / C(n, k)) is ProblemParams.log_n_over_cnk, computed nowhere else
    source = (PACKAGE / f"{module}.py").read_text()
    assert bool(re.search(r"log\([\w.]*n / [\w.]*cnk\)", source)) == (module == "core")


@pytest.mark.parametrize("module", LAYERS)
def test_one_admissibility_rule(module):
    # coefficients.check_coefficient holds the rule and its message
    source = (PACKAGE / f"{module}.py").read_text()
    defined = {name for name, _ in _functions(ast.parse(source))}
    assert ("check_coefficient" in defined) == (module == "coefficients")
    assert ("coefficient must be" in source) == (module == "coefficients")


# Where a coefficient meets radii: each of these applies the rule, itself or
# (``criteria.jensen_conditions``) through ``envelope.radial_moment_integral``,
# which reads b_* on the fine nodes from ``EnvelopeTables.star_fine``.
_CHECKED_AT = {"solver": ("solve_cauchy",),
               "envelope": ("flux_integral", "euler_polyline", "EnvelopeTables._star_at_gauss",
                            "EnvelopeTables.star_fine"),
               "coefficients": ("radialize",), "criteria": ("jensen_conditions",)}
_APPLIES_RULE = {"criteria": "radial_moment_integral"}


@pytest.mark.parametrize("module", sorted(_CHECKED_AT))
def test_coefficient_checked_where_it_meets_radii(module):
    functions = dict(_functions(ast.parse((PACKAGE / f"{module}.py").read_text())))
    for name in _CHECKED_AT[module]:
        calls = [node for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
                 and ast.unparse(node.func) == _APPLIES_RULE.get(module, "check_coefficient")]
        assert calls, f"{module}.{name}"
    if module == "solver":  # the series start leaves b(0) to the grid probe
        assert not any(isinstance(node, ast.Raise)
                       for node in ast.walk(functions["_series_start"]))


@pytest.mark.parametrize("module", ("__init__",) + LAYERS)
def test_one_binomial(module):
    assert "binomial_or_zero" not in (PACKAGE / f"{module}.py").read_text()


def _functions(tree):
    """(name, node) of every top-level function and method (``Class.method``)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


@pytest.mark.parametrize("module", ("__init__",) + LAYERS)
def test_one_store_of_sphere_rows(module):
    # radialize reaches kept unit-sphere rows only through the block cache
    # and draws the table itself only for a row beyond a block; sphere_points
    # draws its one row itself
    source = (PACKAGE / f"{module}.py").read_text()
    if module != "coefficients":
        assert not re.search(r"_sphere_table|_unit_block", source)
        return
    functions = dict(_functions(ast.parse(source)))

    def callers(name):
        return {caller for caller, function in functions.items()
                if any(isinstance(node, ast.Call) and ast.unparse(node.func) == name
                       for node in ast.walk(function))}

    assert callers("_sphere_table") == {"_unit_block", "radialize", "sphere_points"}
    assert callers("_unit_block") == {"radialize"}
    assert [ast.unparse(node) for node in functions["_unit_block"].decorator_list] == [
        "lru_cache(maxsize=_STORE_COORDS // _BLOCK_COORDS)"]
    assert not re.search(r"\bthreading\b|OrderedDict", source)


@pytest.mark.parametrize("module", ("__init__",) + LAYERS)
def test_one_float_log_of_b(module):
    # ln b in s = ln r has one float view, RadialProfile.log_pieces: the
    # coefficients module bisects no table for it and keeps no whole-range
    # closure, and only the solver steps by it
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "log_pieces"]
    assert bool(calls) == (module == "solver")
    if module == "coefficients":
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "bisect" not in imported
        assert "RadialProfile.log_in_log_radius" not in dict(_functions(tree))


def test_one_formula_per_table_cell():
    # the tail has no rule, log differences or list entry of its own: every
    # table rule is a log-log or a linear cell's
    tree = ast.parse((PACKAGE / "coefficients.py").read_text())
    functions = dict(_functions(tree))
    assert "_tail_rule" not in functions
    cell_table, = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "_CellTable"]
    fields = {node.target.id for node in cell_table.body if isinstance(node, ast.AnnAssign)}
    assert "slopes" in fields and not fields & {"dlog_r", "dlog_b"}
    returned, = [node.value for node in ast.walk(functions["RadialProfile._log_rules"])
                 if isinstance(node, ast.Return)]
    assert isinstance(returned, ast.ListComp) and isinstance(returned.elt, ast.IfExp)
    assert sorted(ast.unparse(branch.func) for branch in (returned.elt.body, returned.elt.orelse)
                  if isinstance(branch, ast.Call)) == ["_linear_rule", "_loglog_rule"]


def test_one_closed_form():
    # every closed form is a power sum: eval, the float rule and scaled never
    # branch on the constant or power_tail kind, no field envelope is a
    # callable profile, and power_tail leaves its tail to the one derivation
    functions = dict(_functions(ast.parse((PACKAGE / "coefficients.py").read_text())))
    for name in ("RadialProfile.eval", "RadialProfile._log_formula", "RadialProfile.scaled"):
        compared = {node.value for compare in ast.walk(functions[name])
                    if isinstance(compare, ast.Compare) and "kind" in ast.unparse(compare)
                    for node in ast.walk(compare) if isinstance(node, ast.Constant)}
        assert not compared & {"constant", "power_tail"}, name
    envelopes = [function for name, function in functions.items()
                 if name.endswith(".envelope_profiles")]
    assert len(envelopes) == 2
    assert not any(isinstance(node, ast.Attribute) and node.attr == "from_callable"
                   for function in envelopes for node in ast.walk(function))
    assert not any(isinstance(node, ast.Call) and ast.unparse(node.func) == "min"
                   for node in ast.walk(functions["RadialProfile.power_tail"]))


def _opens_for_writing(tree):
    """Every call of ``open`` whose mode holds w, a or x, or is not a literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(not isinstance(mode, ast.Constant) or set(mode.value) & set("wax")
                   for mode in modes):
                yield node


def test_one_file_writer():
    # every file the package writes is made by core.output_file beside its
    # target and moved onto it by replace: no other code opens a file to write
    trees = {module: ast.parse((PACKAGE / f"{module}.py").read_text())
             for module in ("__init__",) + LAYERS}
    writers = {module: list(_opens_for_writing(tree)) for module, tree in trees.items()}
    assert [module for module, calls in writers.items() if calls] == ["core"]
    helper = dict(_functions(trees["core"]))["output_file"]
    assert writers["core"] == list(_opens_for_writing(helper)) and len(writers["core"]) == 1


def test_spec_coefficient_built_only_when_read():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    tables = {"_RADIAL_KINDS", "_BUILTIN_FIELDS"}
    # The constructors, spelled as the table definitions spell them.
    constructors = {ast.unparse(entry.elts[0]) for node in tree.body
                    if isinstance(node, ast.Assign) and node.targets[0].id in tables
                    for entry in node.value.values}
    assert constructors == {"RadialProfile.constant", "RadialProfile.power_tail",
                            "load_profile_csv", "BUILTIN_FIELDS['counterexample']",
                            "BUILTIN_FIELDS['anisotropic_power']"}

    def reaches_a_constructor(node):
        """``node`` names a constructor, or takes entry [0] of a table row."""
        if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)) \
                and ast.unparse(node) in constructors:
            return True
        return (isinstance(node, ast.Subscript) and ast.unparse(node.slice) == "0"
                and any(isinstance(sub, ast.Name) and sub.id in tables
                        for sub in ast.walk(node.value)))

    builders = {name for name, function in _functions(tree)
                if any(reaches_a_constructor(node) for node in ast.walk(function))}
    assert builders == {"ProblemSpec.from_dict"}


# Each size bound and the one module that defines it.
_SIZE_BOUNDS = {"MAX_GRID_NODES": "core", "MIN_SPHERE_COUNT": "coefficients",
                "MAX_SPHERE_COUNT": "coefficients", "flux_panels": "envelope",
                "MAX_ADDED_PANELS": "envelope", "check_flux_budget": "envelope"}


@pytest.mark.parametrize("module", ("__init__",) + LAYERS)
def test_one_home_per_size_bound(module):
    source = (PACKAGE / f"{module}.py").read_text()
    tree = ast.parse(source)
    defined = {name for name, _ in _functions(tree)} | {
        target.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)}
    for name, home in _SIZE_BOUNDS.items():
        assert (name in defined) == (module == home), name
    assert bool(re.search(r"50_?000\b", source)) == (module == "core")
    assert bool(re.search(r"1 << 14|16384", source)) == (module == "coefficients")
    # the flux panel rule ceil(n / 16) is written once
    assert bool(re.search(r"n\s*//?\s*16\b", source)) == (module == "envelope")


def test_one_node_merge():
    envelope = dict(_functions(ast.parse((PACKAGE / "envelope.py").read_text())))
    solver = dict(_functions(ast.parse((PACKAGE / "solver.py").read_text())))

    def calls(function):
        return {ast.unparse(node.func) for node in ast.walk(function)
                if isinstance(node, ast.Call)}
    assert "merge_nodes" in calls(envelope["fine_nodes"])
    assert "merge_nodes" in calls(solver["conservation_nodes"])
    assert "conservation_nodes" in calls(solver["conservation_defect"])
    for function in (envelope["fine_nodes"], solver["conservation_nodes"],
                     solver["conservation_defect"]):
        assert calls(function).isdisjoint({"np.sort", "np.unique", "np.concatenate"})


def test_one_panel_layout():
    # envelope.flux_cells is the only code that cuts cells for s^(n-1): the
    # flux integral and the break line's build lay their panels through it,
    # the build alone reads their points, and both break-line loops take
    # their block size from one expression
    functions = dict(_functions(ast.parse((PACKAGE / "envelope.py").read_text())))

    def callers(name):
        return {caller for caller, function in functions.items()
                if any(isinstance(node, ast.Call) and ast.unparse(node.func) == name
                       for node in ast.walk(function))}

    assert callers("flux_cells") == {"flux_integral", "_segment_rows"}
    assert callers("check_flux_budget") == {"flux_cells"}
    assert callers("panel_points") == {"_segment_rows"}
    assert callers("_block_segments") == {"_build_line", "breakline_defect"}
    assert {caller for caller, function in functions.items()
            if any(isinstance(node, ast.Name) and node.id == "_BLOCK_SEGMENTS"
                   for node in ast.walk(function))} == {"_block_segments"}


def test_cli_holds_no_node_arithmetic():
    source = (PACKAGE / "cli.py").read_text()
    for fragment in ("decades", "// 32", "/ 16", "MAX_GRID_NODES", "_MAX_SPHERE_COUNT",
                     "_check_grid_budget", "refined(", "flux_panels", "MAX_ADDED_PANELS", "2 *"):
        assert fragment not in source, fragment
    functions = dict(_functions(ast.parse(source)))
    calls = {ast.unparse(node.func) for node in ast.walk(functions["ProblemSpec.from_dict"])
             if isinstance(node, ast.Call)}
    # the reader holds the kernel's own budget to the conservation check's own nodes
    assert {"RadialGrid.build", "check_flux_budget", "conservation_nodes"} <= calls
    grid = functions["ProblemSpec.grid"]
    assert [ast.unparse(node) for node in grid.body] == ["return self.built_grid"]
