"""Shared fixtures, the acceptance-line reporter and the memory cap."""

import contextlib
import json
import os
import resource
import sys

import pytest

from hessianls.core import ProblemParams, RadialGrid

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
# The 8 specs of the independent reference solutions, with u on their grids.
with open(os.path.join(PERFBENCH, "data", "reference.json")) as _handle:
    REFERENCE = json.load(_handle)

# A runaway allocation fails its test with MemoryError instead of getting the
# whole run killed: the test process's address space is capped at 4 GiB.  The
# cap only ever lowers the limit it finds.
_ADDRESS_SPACE_CAP = 4 << 30
_soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
if _soft == resource.RLIM_INFINITY or _soft > _ADDRESS_SPACE_CAP:
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, _hard))


@pytest.fixture
def laplace_params():
    """k = 1 (Laplacian) in dimension 3, square-root nonlinearity."""
    return ProblemParams(n=3, k=1, gamma=0.5, a=1.0)


@pytest.fixture
def hessian2_params():
    """k = 2 in dimension 5 (strictly above the n = 2k threshold)."""
    return ProblemParams(n=5, k=2, gamma=1.0, a=1.0)


@pytest.fixture
def short_grid():
    return RadialGrid.build(100.0, nodes_per_decade=24)


@pytest.fixture(scope="session")
def table_dir(tmp_path_factory):
    """The tabulated coefficients of the reference specs, written by the
    benchmark's own generator."""
    path = tmp_path_factory.mktemp("tables")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(PERFBENCH)
        import workloads

        for name in workloads.TABLES:
            workloads.write_table(name, str(path / name))
    return str(path)


_ACCEPTANCE_RESULTS = []


@contextlib.contextmanager
def criterion(label):
    """Record one pass/fail line per acceptance criterion.

    Lines are emitted immediately (visible under ``-s`` and in the
    captured output of failing tests) and replayed in a terminal-summary
    section, which bypasses capture in every pytest mode.
    """
    try:
        yield
    except BaseException:
        _ACCEPTANCE_RESULTS.append((label, "FAIL"))
        sys.__stdout__.write(f"[acceptance] {label}: FAIL\n")
        sys.__stdout__.flush()
        raise
    else:
        _ACCEPTANCE_RESULTS.append((label, "PASS"))
        sys.__stdout__.write(f"[acceptance] {label}: PASS\n")
        sys.__stdout__.flush()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, status in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"[acceptance] {label}: {status}")
