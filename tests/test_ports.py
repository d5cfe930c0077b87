"""The numpy ports of scipy routines match scipy bit for bit, and the
package runs without importing scipy.

scipy stays a test dependency: it is the independent oracle here.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.special import ndtri as scipy_ndtri

from hessianls._integrate import cumulative_values
from hessianls.coefficients import ndtri

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_ndtri_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20231018)
    # the quantile's three branches meet at exp(-2) and exp(-32)
    p = np.concatenate([rng.random(100_000),
                        [1e-12, 1.0 - 1e-12, 0.5, np.exp(-2.0), 1.0 - np.exp(-2.0),
                         np.exp(-32.0), 1e-20, 1e-300, 1.0 - 1e-16]])
    np.testing.assert_array_equal(ndtri(p), scipy_ndtri(p))


def test_ndtri_keeps_the_shape():
    p = np.array([[0.1, 0.5], [0.9, 0.999]])
    np.testing.assert_array_equal(ndtri(p), scipy_ndtri(p))
    # a (rows, count, dim) block as radialize passes it, with both tails
    # and the branch edges exp(-2) and exp(-32) on each side
    rng = np.random.default_rng(7)
    block = rng.random((5, 64, 7))
    edges = [np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0), 1.0 - np.exp(-32.0),
             np.nextafter(np.exp(-2.0), 0.0), np.nextafter(np.exp(-2.0), 1.0),
             np.nextafter(np.exp(-32.0), 0.0), np.nextafter(np.exp(-32.0), 1.0),
             1e-12, 1.0 - 1e-12, 1e-300, 0.5]
    block[2, :len(edges), 3] = edges
    block[4, -len(edges):, 0] = edges[::-1]
    got = ndtri(block)
    assert got.shape == block.shape
    np.testing.assert_array_equal(got, scipy_ndtri(block))
    np.testing.assert_array_equal(np.signbit(got), np.signbit(scipy_ndtri(block)))


@pytest.mark.parametrize("size", [2, 3, 4, 5, 301])
def test_cumulative_values_matches_cumulative_simpson(size):
    rng = np.random.default_rng(size)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0, size - 1))])
    y = np.sin(x) + rng.normal(size=size)
    np.testing.assert_array_equal(cumulative_values(y, x),
                                  cumulative_simpson(y, x=x, initial=0.0))


def test_cold_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hessianls.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
