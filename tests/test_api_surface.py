"""Names the benchmark tracer wraps stay bound where it looks for them.

``perfbench/tracing.py`` resolves every target with a bare
``getattr(module, name)``; a refactor that moves a function and drops the
old binding breaks ``perfbench/run.py --trace 1`` without failing any
other test.  The list is kept here, not imported from the tracer, so the
two must be changed together on purpose.
"""

import importlib
import inspect

import pytest

TRACED_FUNCTIONS = [
    ("cli", "main"), ("cli", "load_spec"),
    ("core", "gamma_k_membership"),
    ("coefficients", "radialize"), ("coefficients", "sphere_points"),
    ("coefficients", "load_profile_csv"),
    ("solver", "conservation_defect"), ("solver", "residual_max"),
    ("solver", "write_curve_csv"), ("solver", "breakline_defect"),
    ("solver", "linear_growth_tables"), ("solver", "solve_linear_rhs"),
    ("solver", "solve_cauchy"), ("solver", "euler_polyline"),
    ("_integrate", "panel_cumulative"), ("_integrate", "cumulative_values"),
    ("_integrate", "fit_log_slope"),
    ("criteria", "classify_existence"), ("criteria", "oscillation_condition"),
    ("criteria", "jensen_conditions"), ("criteria", "growth_primitive"),
    ("criteria", "tail_exponent_of"), ("criteria", "keller_osserman_integrand"),
    ("criteria", "bounded_solution_bound"),
    ("sandwich", "build_sandwich"), ("sandwich", "supersolution_envelope"),
    ("sandwich", "bounded_dominance_bound"),
    ("asymptotics", "verify_rates"), ("asymptotics", "fit_exponent"),
    ("asymptotics", "exact_power_solution"),
    ("verify", "run_all"),
]

TRACED_METHODS = [
    ("coefficients", "RadialProfile", ("eval", "__call__")),
    ("coefficients", "AnisotropicPowerField", ("eval", "__call__")),
    ("coefficients", "QuadraticRootField", ("eval", "__call__")),
    ("core", "RadialGrid", ("refined",)),
    ("sandwich", "SandwichReport", ("save",)),
]


@pytest.mark.parametrize("module,name", TRACED_FUNCTIONS)
def test_traced_function_is_bound(module, name):
    assert callable(getattr(importlib.import_module("hessianls." + module), name))


@pytest.mark.parametrize("module,cls,attrs", TRACED_METHODS)
def test_traced_method_is_defined_on_the_class(module, cls, attrs):
    owner = getattr(importlib.import_module("hessianls." + module), cls)
    for attr in attrs:
        # the tracer reads cls.__dict__[attr], so inheritance is not enough
        assert callable(owner.__dict__[attr])


def test_panel_cumulative_takes_nodes_positionally():
    # the tracer's node counter reads args[1]
    from hessianls._integrate import panel_cumulative

    params = list(inspect.signature(panel_cumulative).parameters.values())
    assert [p.name for p in params[:2]] == ["f", "nodes"]
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
