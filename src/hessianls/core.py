"""Shared domain types for radial k-Hessian problems.

For a smooth radial function u(|x|) the eigenvalues of the Hessian are
(u'', u'/r, ..., u'/r) with u'/r repeated n-1 times.  Every elementary
symmetric function of that spectrum therefore collapses to two binomial
terms, which is the identity the whole package funnels through:

    sigma_j = C(n-1, j) * (u'/r)^j  +  C(n-1, j-1) * u'' * (u'/r)^(j-1)

At the origin u'/r -> u''(0), so the spectrum degenerates to the identity
direction and sigma_j has the limit C(n, j) * u''(0)^j.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError

# Hard ceiling on u before a solve is declared invalid; entire solutions
# cannot reach this at finite radius for admissible coefficients.
OVERFLOW_GUARD = 1e300

# ln of the largest float: exp(x) overflows for x above it.
LOG_FLOAT_MAX = math.log(sys.float_info.max)

# The most nodes RadialGrid.build lays: 400 kB per array over the grid.
MAX_GRID_NODES = 50_000


def binomial(n: int, k: int) -> int:
    """Exact integer binomial coefficient C(n, k), zero for k > n as in
    math.comb; negative arguments raise ParameterError."""
    if n < 0 or k < 0:
        raise ParameterError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def sigma_j_radial(j, d2u, du_over_r, n):
    """j-th elementary symmetric function of the radial Hessian spectrum.

    Parameters
    ----------
    j : int
        Order of the symmetric function, 1 <= j <= n.
    d2u : float or ndarray
        Radial second derivative u''.
    du_over_r : float or ndarray
        The repeated eigenvalue u'/r (use the limit u''(0) at r = 0).
    n : int
        Space dimension.

    Returns
    -------
    float or ndarray
        C(n-1, j) * t^j + C(n-1, j-1) * (d2u * t^(j-1)) with t = du_over_r;
        the binomial multiplies last, so arguments scaled to make this O(1)
        keep every product in the float range.
    """
    if not 1 <= j <= n:
        raise ParameterError(f"sigma_j_radial requires 1 <= j <= n, got j={j}, n={n}")
    c_pure = binomial(n - 1, j)
    c_mixed = binomial(n - 1, j - 1)
    return c_pure * du_over_r ** j + c_mixed * (d2u * du_over_r ** (j - 1))


@dataclass(frozen=True)
class ProblemParams:
    """Admissible data for the radial Cauchy problem.

    n : space dimension, n >= 3
    k : Hessian order, 1 <= k <= n; n and C(n, k) lie within the float range
    gamma : sublinear exponent, 0 < gamma < k
    a : center value u(0) = a > 0
    """

    n: int
    k: int
    gamma: float
    a: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.k, int):
            raise ParameterError("n and k must be integers")
        if self.n < 3:
            raise ParameterError(f"n must be >= 3, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ParameterError(f"k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")
        # log C(n, k) = log C(n, j), j = min(k, n - k), summed over the factors
        # (n - i) / (i + 1), never the integer itself: each factor is >= 1 and
        # the sum passes the bound after at most 515 of them, however large n is.
        log_cnk = 0.0
        for i in range(min(self.k, self.n - self.k)):
            log_cnk += math.log(self.n - i) - math.log(i + 1)
            if log_cnk > LOG_FLOAT_MAX:
                break
        if log_cnk > LOG_FLOAT_MAX or self.n > sys.float_info.max:
            raise ParameterError(f"n and C(n, k) must lie within the float range, "
                                 f"got n={self.n}, k={self.k}")
        if not (0.0 < self.gamma < self.k):
            raise ParameterError(
                f"gamma must satisfy 0 < gamma < k, got gamma={self.gamma}, k={self.k}"
            )
        if not 0.0 < self.a < math.inf:
            raise ParameterError(f"a must be positive and finite, got {self.a}")

    @cached_property
    def cnk(self) -> int:
        """C(n, k), the sigma_k of the identity spectrum (an exact integer,
        computed on first use)."""
        return binomial(self.n, self.k)

    @cached_property
    def log_n_over_cnk(self) -> float:
        """ln(n / C(n, k)), the constant term of the flux transform's log."""
        return math.log(self.n / self.cnk)

    @property
    def sub_power(self) -> float:
        """(k - gamma)/k, the exponent governing the sublinear envelope."""
        return (self.k - self.gamma) / self.k

    def with_center(self, a: float) -> "ProblemParams":
        """Copy of the parameters with a different center value."""
        return ProblemParams(self.n, self.k, self.gamma, a)


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii starting at 0.

    Nodes are linear up to ``r_lin`` and log-spaced beyond, which resolves
    the center (where the solution is quadratic) without wasting nodes on
    the power-law tail.
    """

    nodes: np.ndarray
    r_lin: float = 10.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ParameterError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ParameterError("grid must start at r = 0")
        if not np.all(np.diff(nodes) > 0):
            raise ParameterError("grid nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def build(cls, r_max: float, r_lin: float = 10.0, nodes_per_decade: int = 48) -> "RadialGrid":
        """max(8, nodes_per_decade) + 1 linear nodes on [0, min(r_lin, r_max)], then
        max(2, ceil(nodes_per_decade * decades)) log-spaced ones up to r_max > r_lin;
        a count beyond MAX_GRID_NODES, a span so small that the linear nodes would
        round onto each other, or an r_max so close above r_lin that the log nodes
        would round onto r_lin or r_max, is refused before any array is laid."""
        if not 0 < r_max < math.inf:
            raise ParameterError(f"r_max must be positive and finite, got {r_max}")
        if not 0 < r_lin < math.inf:
            raise ParameterError(f"r_lin must be positive and finite, got {r_lin}")
        if nodes_per_decade < 4:
            raise ParameterError(f"nodes_per_decade must be at least 4, got {nodes_per_decade}")
        n_lin = max(8, nodes_per_decade)
        if n_lin + 1 > MAX_GRID_NODES:  # before nodes_per_decade meets a float
            raise ParameterError(f"nodes_per_decade = {nodes_per_decade} lays {n_lin + 1} "
                                 f"nodes on [0, r_lin] alone; at most {MAX_GRID_NODES}")
        decades = math.log10(r_max) - math.log10(r_lin)  # finite where r_max / r_lin is not
        n_log = max(2, math.ceil(nodes_per_decade * decades)) if r_max > r_lin else 0
        if n_lin + 1 + n_log > MAX_GRID_NODES:
            raise ParameterError(f"r_max = {r_max:g} lies {decades:.4g} decades beyond r_lin = "
                                 f"{r_lin:g}: {n_lin + 1 + n_log} nodes; at most {MAX_GRID_NODES}")
        if r_max / r_lin == math.inf:
            raise ParameterError(f"r_lin = {r_lin:g} is too small: r_max / r_lin overflows")
        # Just above r_lin the log nodes laid below can round onto r_lin or r_max:
        # the first and the next-to-last of them, computed as scalars with the
        # same expressions, must lie strictly between.
        if n_log:
            step = decades / n_log
            first, last = r_lin * 10.0 ** step, r_lin * 10.0 ** ((n_log - 1) * step)
            if not (r_lin < first and last < r_max):
                raise ParameterError(f"r_max = {r_max!r} is too close above r_lin = {r_lin!r}: "
                                     f"its {n_log} log-spaced nodes would round onto r_lin or "
                                     f"r_max; set r_max to r_lin or further out")
        # A subnormal span rounds the linear nodes laid below onto each other:
        # np.linspace lays i * step, or (i / n_lin) * span where step underflows
        # to 0 (then n_lin + 1 nodes share at most n_lin / 2 + 1 values), so the
        # last two, computed as scalars, must be in order.  The span ends at
        # r_lin, or at r_max below it, and that field is named.
        name, span = ("r_lin", r_lin) if r_lin <= r_max else ("r_max", r_max)
        step = span / n_lin
        if not (step > 0.0 and (n_lin - 1) * step < span):
            raise ParameterError(f"{name} = {span!r} is too small: the {n_lin} linear cells on "
                                 f"[0, {name}] would round onto each other")
        r_lin = span
        log_part = r_lin * 10.0 ** np.linspace(0.0, decades, n_log + 1)[1:]
        nodes = np.concatenate([np.linspace(0.0, r_lin, n_lin + 1), log_part])
        nodes[-1] = r_max  # r_lin itself where r_max <= r_lin
        return cls(nodes, r_lin=r_lin)

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return self.nodes.size

    def refined(self, factor: int) -> np.ndarray:
        """Nodes with ``factor`` - 1 extra points inserted per cell
        (geometric inside log cells, linear near the origin)."""
        if factor <= 1:
            return self.nodes
        lo, hi = self.nodes[:-1], self.nodes[1:]
        cells = np.linspace(lo, hi, factor + 1, axis=1)
        with np.errstate(divide="ignore"):
            geo = (lo > 0) & (hi / lo > 1.02)
        cells[geo] = np.geomspace(lo[geo], hi[geo], factor + 1, axis=1)
        return np.concatenate([[0.0], cells[:, 1:].ravel()])


@dataclass
class RadialCurve:
    """A radial function sampled on a grid, with derivatives.

    Solver output satisfies u(0) = a, u'(0) = 0, u nondecreasing and
    positive.  ``dense`` (optional) evaluates (u, ln M) between nodes, where
    M is the flux integral the solver propagates alongside u; a solver's
    evaluator also carries the stepper's counts (``rhs_evals``,
    ``accepted``, ``rejected``) and its handoff radius ``r_handoff``, up to
    which it evaluates the Taylor series of the start and beyond which the
    stepper's steps.
    """

    grid: RadialGrid
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    dense: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("u", "du", "d2u"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.nodes.shape:
                raise ParameterError(f"{name} must match the grid shape")
            object.__setattr__(self, name, arr)

    def du_over_r(self) -> np.ndarray:
        """The repeated Hessian eigenvalue u'/r, with the identity limit
        u''(0) substituted at the origin."""
        r = self.grid.nodes
        t = np.empty_like(r)
        t[0] = self.d2u[0]
        t[1:] = self.du[1:] / r[1:]
        return t


def gamma_k_membership(curve: RadialCurve, params: ProblemParams) -> np.ndarray:
    """Node-wise test that the Hessian spectrum lies in the Garding cone of
    order k: sigma_j(u'', t, ..., t) / t^j = C(n-1, j) + C(n-1, j-1) u''/t,
    t = u'/r, is positive for every j <= k exactly when u''/t > -(n-k)/k, as
    (n-j)/j falls in j.  t <= 0 counts as outside, and at r = 0 (t = u''(0)) as u''(0) > 0."""
    t = curve.du_over_r()
    ok = t > 0.0
    ratio = np.divide(curve.d2u, t, out=np.zeros_like(t), where=ok)
    return ok & (ratio > -(params.n - params.k) / params.k)


@contextlib.contextmanager
def output_paths(*paths):
    """New paths beside ``paths``, one each, for the block to write: once it completes they
    replace ``paths`` in turn (none before all are written), and if it raises they are removed.
    An empty path or a directory is refused before the block.  A replace that fails after
    others landed raises its OSError naming the targets already replaced and those left as
    they were."""
    staged = []
    for path in paths:
        if not os.fspath(path):   # as open("") refuses it
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), os.fspath(path))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        target = os.path.realpath(path)   # a link is written through, as by open(path, "w")
        directory, name = os.path.split(target)
        staged.append((target, os.path.join(directory, f".{name}.{os.urandom(6).hex()}")))
    try:
        yield [temporary for _, temporary in staged]
        for done, (target, temporary) in enumerate(staged):
            try:
                os.replace(temporary, target)
            except OSError as exc:
                if not done:
                    raise
                raise type(exc)(exc.errno, (
                    f"{exc.strerror or exc}; already replaced: "
                    f"{', '.join(landed for landed, _ in staged[:done])}; left as they were: "
                    f"{', '.join(kept for kept, _ in staged[done:])}"), target) from exc
    except BaseException:
        for _, temporary in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temporary)
        raise


@contextlib.contextmanager
def output_file(path, newline=None):
    """A text handle (None for a ``path`` of None) on a new file beside ``path``, which
    replaces it when the block completes and is removed if it raises; made at once, so a
    path that cannot be written is refused before any work.  Every output goes through it."""
    if path is None:
        yield None
        return
    with output_paths(path) as (temporary,):
        try:   # "x" never opens an existing file, and makes one as open(path, "w") would
            handle = open(temporary, "x", newline=newline)
        except OSError as exc:   # named by the target, not the new file
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        with handle:
            yield handle
