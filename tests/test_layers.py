"""The package's modules import one way, from the top layer down.

Each module of ``src/hessianls`` may import only modules below it in
``LAYERS``; ``__init__`` gathers the public names and is exempt.  The
Gauss-panel rule ``panel_cumulative`` is reached only through
``envelope.flux_integral``, so only ``envelope`` imports it.
"""

import ast
import pathlib

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
