"""Coefficient models: radial profiles and radialized non-radial fields.

A radial profile is the function b(r) fed to the solver and the growth
criteria.  Non-radial coefficients b(x) enter through their radial
envelopes

    b_*(r) = min over the sphere of radius r,
    b^*(r) = max over the sphere of radius r,
    b_osc  = b^* - b_*,

sampled on deterministic quasi-uniform sphere point sets so that results
are reproducible and refining the sampling can only widen the envelopes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import RadialGrid, output_file
from .errors import CoefficientError, ProfileRangeError, TableError

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Probe radii used to certify positivity of closed-form profiles.
_POSITIVITY_PROBES = np.concatenate([[0.0], np.geomspace(1e-6, 1e8, 57)])

# Oscillation at most this fraction of the b_* scale counts as zero.
OSC_NEGLIGIBLE_REL_TOL = 1e-12


def check_coefficient(values, radii, nonnegative: bool = False) -> np.ndarray:
    """The admissibility rule: ``values`` of b at ``radii`` (one value or row per
    radius) as an array if all are finite and positive (``nonnegative``: >= 0,
    where underflow is harmless), else CoefficientError naming the first."""
    vals = np.asarray(values)
    ok = (vals >= 0.0 if nonnegative else vals > 0.0) & (vals < math.inf)
    if ok.all():
        return vals
    first = int(np.argmin(ok.ravel()))  # row by row: the first radius, then its value
    raise CoefficientError(
        f"coefficient must be finite and {'nonnegative' if nonnegative else 'positive'}, got "
        f"{vals.flat[first]:g} at r = {np.ravel(radii)[first * np.size(radii) // ok.size]:g}")


def _one_per_point(values, count: int, source: str) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.shape != (count,):
        raise CoefficientError(f"{source} must return one value per point: "
                               f"expected shape {(count,)}, got {out.shape}")
    return out


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

def _positive_log(value: float, s: float) -> float:
    if not value > 0.0:
        raise CoefficientError(f"coefficient must be positive, got {value:g} "
                               f"at r = {math.exp(s):g}")
    return math.log(value)


class _CellTable(NamedTuple):
    """A table's radii ``r`` and values ``b``, their logs, and per cell i,
    from r[i] on, the slope in (log r, log b) and the flag that picks its
    rule: log-log where r[i] and both values are positive, else linear in r
    by the differences ``dr`` and ``db``.  A declared tail is the last cell,
    log-log of slope -tail_exponent."""

    r: np.ndarray
    b: np.ndarray
    log_r: np.ndarray
    log_b: np.ndarray
    dr: np.ndarray
    db: np.ndarray
    slopes: np.ndarray
    loggable: np.ndarray

    def loglog(self, r: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """b at radii ``r`` by the log-log rule of their cells ``cell``, exp of _loglog_rule."""
        return np.exp(self.log_b[cell] + (np.log(r) - self.log_r[cell]) * self.slopes[cell])

    def linear(self, r: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """b at radii ``r`` by the linear rule of their cells ``cell``."""
        return self.b[cell] + (r - self.r[cell]) / self.dr[cell] * self.db[cell]


# The float rules of one table cell in s = ln r, plain formulas in the cell's
# constants: the stepper's pieces call each only inside its own cell, up to
# the cell's end and at it.  A table makes one per cell, so their constants are
# bound as defaults: fewer objects to build than closure cells.

def _loglog_rule(lb: float, lr: float, slope: float):
    def log_cell(s, lb=lb, lr=lr, slope=slope):
        return lb + (s - lr) * slope
    return log_cell


def _linear_rule(r: float, b: float, dr: float, db: float):
    def log_cell(s, r=r, b=b, dr=dr, db=db, exp=math.exp, log=math.log):
        value = b + (exp(s) - r) / dr * db
        return log(value) if value > 0.0 else _positive_log(value, s)
    return log_cell


def _power_rule(scale: float, terms: tuple):
    """The float rule s -> ln b(e^s) of a power sum.  One term is one straight
    line, ln(scale c) + 2 j s - (p/2) ln(rho^2 + e^(2s)), each factor of
    exponent 0 dropped; a longer sum adds its terms as eval does, then logs."""
    exp, log = math.exp, math.log
    if len(terms) > 1:
        floats = [(c, j, rho ** 2, -p / 2.0) for c, j, rho, p in terms]

        def log_sum(s):
            r = exp(s)
            r2, total = r * r, 0.0
            for c, j, rho_sq, power in floats:
                total += c * r2 ** j * (rho_sq + r2) ** power
            return _positive_log(scale * total, s)
        return log_sum
    (c, j, rho, p), = terms
    lead, twice_j, rho_sq, half_p = log(scale * c), 2.0 * j, rho ** 2, p / 2.0
    if not p:
        return (lambda s: lead + twice_j * s) if j else (lambda s: lead)

    def log_term(s):
        r = exp(s)
        return lead - half_p * log(rho_sq + r * r)
    return (lambda s: log_term(s) + twice_j * s) if j else log_term


@dataclass(frozen=True)
class RadialProfile:
    """A nonnegative coefficient profile b(r) on [0, infinity).

    kind is one of "constant", "power_tail", "tabulated", "callable",
    "zero".  Use the class-method constructors rather than the raw
    dataclass constructor.

    A closed form, the fields' envelopes included, is a power sum
    scale * sum_i c_i r^(2 j_i) (rho_i^2 + r^2)^(-p_i/2) over ``terms``
    (c_i, j_i, rho_i, p_i), c_i != 0, integer j_i >= 0, rho_i > 0: constant(v)
    is (1, 0, 1, 0) with scale v, power_tail(l, m, A, r0, scale) is (1, 0, r0,
    l) and (A, 0, r0, m).  Its tail exponent is the smallest p_i - 2 j_i and
    its Taylor coefficients at 0 the binomial series of its terms
    (:meth:`taylor`).  :meth:`eval` and :meth:`log_pieces` have one formula
    each.

    Tabulated profiles interpolate linearly in (log r, log b) between
    positive samples and linearly in r near zero samples or the origin;
    beyond the last radius they extrapolate with the declared tail
    exponent, a last log-log cell of slope -tail_exponent, or raise
    ProfileRangeError if none was declared.  :meth:`eval` and the stepper's
    :meth:`log_pieces` compute each cell by the same formula.
    """

    kind: str
    terms: Optional[tuple] = None
    scale: float = 1.0
    radii: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    tail_exponent: Optional[float] = None
    func: Optional[Callable] = None
    strictly_positive: bool = True

    # -- constructors -------------------------------------------------------

    @classmethod
    def power_sum(cls, terms: Sequence[tuple], scale: float = 1.0,
                  kind: str = "power_tail") -> "RadialProfile":
        """scale * sum of c r^(2j) (rho^2 + r^2)^(-p/2) over ``terms``
        (c, j, rho, p); its tail exponent is the smallest p - 2j."""
        terms = tuple((float(c), int(j), float(rho), float(p)) for c, j, rho, p in terms)
        if not terms or not all(c != 0.0 and j >= 0 and rho > 0.0 for c, j, rho, _ in terms):
            raise CoefficientError(f"power sum terms need c != 0, j >= 0, rho > 0: {terms}")
        return cls(kind=kind, terms=terms, scale=float(scale),
                   tail_exponent=min(p - 2 * j for _, j, _, p in terms))

    @classmethod
    def constant(cls, value: float = 1.0) -> "RadialProfile":
        if value <= 0:
            raise CoefficientError(f"constant profile must be positive, got {value}")
        return cls.power_sum([(1.0, 0, 1.0, 0.0)], value, kind="constant")

    @classmethod
    def power_tail(cls, l: float, m: Optional[float] = None, A: float = 0.0,
                   r0: float = 1.0, scale: float = 1.0) -> "RadialProfile":
        for name, value in (("l", l), ("m", m), ("A", A), ("r0", r0), ("scale", scale)):
            if value is not None and not math.isfinite(value):
                raise CoefficientError(f"power_tail needs a finite {name}, got {value}")
        if r0 <= 0:
            raise CoefficientError(f"power_tail needs r0 > 0, got {r0}")
        if scale <= 0:
            raise CoefficientError(f"power_tail needs scale > 0, got {scale}")
        if A != 0.0 and m is None:
            raise CoefficientError("power_tail with A != 0 needs the second exponent m")
        prof = cls.power_sum([(1.0, 0, r0, l)] + ([(A, 0, r0, m)] if A != 0.0 else []), scale)
        probe = prof.eval(_POSITIVITY_PROBES)
        # Reject genuinely negative profiles (possible when A < 0).  Very
        # steep tails may underflow to float zero at extreme radii; that is
        # harmless for the tail-exponent criteria, and the solver re-checks
        # strict positivity on its own grid before integrating.
        if np.any(probe < 0.0):
            raise CoefficientError("power_tail profile is not positive everywhere")
        return prof

    @classmethod
    def tabulated(cls, radii: Sequence[float], values: Sequence[float],
                  tail_exponent: Optional[float] = None,
                  strictly_positive: bool = True) -> "RadialProfile":
        r = np.asarray(radii, dtype=float)
        b = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != b.shape:
            raise CoefficientError("tabulated profile needs matching 1-d arrays")
        if r.size < 2:
            # too short: the first offending sample is the first missing one
            raise TableError(f"tabulated profile needs at least 2 samples, got {r.size}", r.size)
        bad = np.flatnonzero(~(np.isfinite(r) & np.isfinite(b)))
        if bad.size:
            raise TableError("tabulated radii and values must be finite", bad[0])
        bad = np.flatnonzero(~np.concatenate([[r[0] >= 0], np.diff(r) > 0]))
        if bad.size:
            raise TableError("tabulated radii must be nonnegative and strictly increasing", bad[0])
        bad = np.flatnonzero(b <= 0 if strictly_positive else b < 0)
        if bad.size:
            sign = "positive" if strictly_positive else "nonnegative"
            raise TableError(f"tabulated values must be {sign}", bad[0])
        r = r.copy()
        b = b.copy()
        r.setflags(write=False)
        b.setflags(write=False)
        return cls(kind="tabulated", radii=r, values=b,
                   tail_exponent=None if tail_exponent is None else float(tail_exponent),
                   strictly_positive=strictly_positive)

    @classmethod
    def from_callable(cls, func: Callable, tail_exponent: Optional[float] = None) -> "RadialProfile":
        """Profile b(r) = func(r); ``func`` maps a 1-d array of radii to one value each."""
        return cls(kind="callable", func=func,
                   tail_exponent=None if tail_exponent is None else float(tail_exponent))

    @classmethod
    def zero(cls) -> "RadialProfile":
        return cls(kind="zero", strictly_positive=False, tail_exponent=None)

    # -- evaluation ---------------------------------------------------------

    def eval(self, r):
        """Evaluate the profile; accepts scalars or arrays."""
        scalar = np.isscalar(r)
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(rr < 0):
            raise CoefficientError("profiles are defined for r >= 0 only")
        if self.terms:   # each term from the left, factors of exponent 0 dropped
            r2, out = rr ** 2, None
            # overflow (also 0 ** -p, inf - inf) is quiet: check_coefficient reports it
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                for c, j, rho, p in self.terms:
                    term = c * r2 ** j if j else c
                    if p:
                        term = term * (rho ** 2 + r2) ** (-p / 2.0)
                    out = term if out is None else out + term
                # a sum of constants broadcasts to every radius
                out = np.multiply(self.scale, out, out=np.empty_like(rr))
        elif self.kind == "tabulated":
            out = self._eval_table(rr)
        elif self.kind == "callable":
            out = _one_per_point(self.func(rr), rr.size, "callable profile")
        elif self.kind == "zero":
            out = np.zeros_like(rr)
        else:  # pragma: no cover - constructors forbid this
            raise CoefficientError(f"unknown profile kind {self.kind!r}")
        return float(out[0]) if scalar else out

    __call__ = eval

    @cached_property
    def _cells(self) -> "_CellTable":
        """The per-cell table of a tabulated profile, built once."""
        r_tab, b_tab = self.radii, self.values
        # log 0 = -inf: the slope of a cell from r = 0 or a zero value is
        # inf or nan, and its flag sends it to the linear rule
        with np.errstate(divide="ignore", invalid="ignore"):
            log_r, log_b = np.log(r_tab), np.log(b_tab)
            slopes = np.diff(log_b) / np.diff(log_r)
        loggable = (r_tab[:-1] > 0) & (b_tab[:-1] > 0) & (b_tab[1:] > 0)
        if self.tail_exponent is not None:  # the tail: one more log-log cell
            slopes = np.append(slopes, -self.tail_exponent)
            loggable = np.append(loggable, True)
        return _CellTable(r_tab, b_tab, log_r, log_b, np.diff(r_tab), np.diff(b_tab),
                          slopes, loggable)

    def _check_range(self, rr: np.ndarray) -> None:
        """ProfileRangeError for a radius of ``rr`` below the table, or past
        it without a tail."""
        r_tab = self.radii
        if self.tail_exponent is None and np.any(rr > r_tab[-1]):
            raise ProfileRangeError(
                f"radius {float(rr[rr > r_tab[-1]][0]):g} beyond tabulated range "
                f"{r_tab[-1]:g} and no tail exponent declared")
        if np.any(rr < r_tab[0]):
            raise ProfileRangeError(
                f"radius {float(rr.min()):g} below tabulated range {r_tab[0]:g}")

    def _eval_table(self, rr: np.ndarray) -> np.ndarray:
        """The table at ``rr``: each point's cell, the tail past the last radius,
        is found once and only its rule is computed, from the cached per-cell table."""
        self._check_range(rr)
        cells = self._cells
        cell = np.minimum(np.searchsorted(self.radii, rr, side="right") - 1,
                          cells.slopes.size - 1)
        loglog = cells.loggable[cell]
        if loglog.all():
            return cells.loglog(rr, cell)
        out = np.empty_like(rr)
        at = np.flatnonzero(loglog)
        out[at] = cells.loglog(rr[at], cell[at])
        at = np.flatnonzero(~loglog)
        out[at] = cells.linear(rr[at], cell[at])
        return out

    def _log_formula(self) -> Callable[[float], float]:
        """The float function s -> ln b(e^s) of a closed form: a power sum's
        rule, or a callable profile's ``func`` on one point.  A non-positive
        value raises CoefficientError, as does a zero profile, which has no
        logarithm."""
        if self.terms:
            return _power_rule(self.scale, self.terms)
        if self.kind == "callable":
            func, exp = self.func, math.exp

            def log_callable(s):
                value = _one_per_point(func(np.array([exp(s)])), 1, "callable profile")[0]
                return _positive_log(float(value), s)
            return log_callable
        raise CoefficientError(f"profile of kind {self.kind!r} has no logarithm")

    @cached_property
    def _log_rules(self) -> list:
        """The float rules of a tabulated profile in s = ln r: entry i is
        cell i's, log-log or linear as ``_cells.loggable`` picks, the tail
        cell's included."""
        cells = self._cells
        lr, lb, r, b = (cells.log_r.tolist(), cells.log_b.tolist(),
                        cells.r.tolist(), cells.b.tolist())
        dr, db = cells.dr.tolist(), cells.db.tolist()
        return [_loglog_rule(lb[i], lr[i], slope) if flag
                else _linear_rule(r[i], b[i], dr[i], db[i])
                for i, (flag, slope) in enumerate(zip(cells.loggable.tolist(),
                                                      cells.slopes.tolist()))]

    def log_pieces(self, r_start: float, r_end: float) -> list:
        """ln b in s = ln r from r_start to r_end > r_start, as
        :func:`~hessianls.solver.solve_cauchy` steps it: pieces (stop, log_b)
        in order, ``log_b`` the float function s -> ln b(e^s) up to the stop
        and at it.  A closed form is one piece ending at math.log(r_end).  A
        table has one piece per cell between them, ending at the table's own
        log radius (``_cells.log_r``) with the cell's rule, so no step
        straddles a kink or searches the table; an r_end inside a cell or in
        the tail, the last cell, ends the last piece at math.log(r_end).  On
        a log-log cell ``eval(r)`` is exp of ``log_b(log r)`` bit for bit, on
        a linear one to rounding; a non-positive value raises
        CoefficientError, a radius outside the table the ProfileRangeError of
        :meth:`eval`."""
        if self.kind != "tabulated":
            return [(math.log(r_end), self._log_formula())]
        self._check_range(np.array([r_start, r_end]))
        rules = self._log_rules
        first = int(np.searchsorted(self.radii, r_start, side="right"))
        end = int(np.searchsorted(self.radii, r_end, side="right"))
        pieces = list(zip(self._cells.log_r[first:end].tolist(), rules[first - 1:end - 1]))
        if self.radii[end - 1] != r_end:   # the cell of r_end, or the tail past the last radius
            pieces.append((math.log(r_end), rules[end - 1]))
        return pieces

    def taylor(self, order: int, unit: float = 1.0) -> Optional[tuple]:
        """b's Taylor coefficients at r = 0 in powers of r / ``unit``, orders 0 to
        ``order`` as a list, and the radius up to which their series is b; None
        for a profile without one (a callable or zero profile, a table from r > 0).

        A power sum's term c r^(2j) (rho^2 + r^2)^(-p/2) is c rho^(-p) r^(2j)
        times the binomial series of (1 + r^2/rho^2)^(-p/2), which converges to
        it up to rho (everywhere for p = 0); a table's first cell, from r = 0,
        is b0 + (db/dr) r exactly up to the table's first positive radius."""
        coeffs = [0.0] * (order + 1)
        if self.terms:
            radius = math.inf
            for c, j, rho, p in self.terms:
                term = self.scale * c * rho ** -p * unit ** (2 * j)
                ratio = (unit / rho) * (unit / rho) if p else 0.0
                for i in range(order // 2 - j + 1):   # binom(-p/2, i) ratio^i from i = 0
                    coeffs[2 * (j + i)] += term
                    term *= (-0.5 * p - i) / (i + 1) * ratio
                if p:
                    radius = min(radius, rho)
            return coeffs, radius
        if self.kind == "tabulated" and self.radii[0] == 0.0:
            coeffs[0] = float(self.values[0])
            if order:
                coeffs[1] = float(self._cells.db[0] / self._cells.dr[0]) * unit
            return coeffs, float(self.radii[1])
        return None

    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "tabulated":
            return bool(np.all(self.values == 0.0))
        return False

    def scaled(self, c: float) -> "RadialProfile":
        """The profile multiplied by a positive constant."""
        if c <= 0:
            raise CoefficientError("scaling constant must be positive")
        if self.terms:
            return RadialProfile.power_sum(self.terms, self.scale * c, self.kind)
        if self.kind == "tabulated":
            return RadialProfile.tabulated(self.radii, self.values * c, self.tail_exponent,
                                           self.strictly_positive)
        if self.kind == "callable":
            inner = self.func
            return RadialProfile.from_callable(lambda r: c * np.asarray(inner(r)),
                                               self.tail_exponent)
        raise CoefficientError(f"cannot scale profile of kind {self.kind!r}")


def save_profile_csv(profile: RadialProfile, path) -> None:
    """Write a tabulated profile by replace, as two-column CSV with an ``r,b`` header."""
    if profile.kind != "tabulated":
        raise CoefficientError("only tabulated profiles round-trip through CSV")
    with output_file(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["r", "b"])
        for r, b in zip(profile.radii, profile.values):
            writer.writerow([f"{r:.17g}", f"{b:.17g}"])


def load_profile_csv(path, tail_exponent: Optional[float] = None) -> RadialProfile:
    """Read a two-column ``r,b`` CSV written by :func:`save_profile_csv`.

    The first line is the header and blank lines are skipped.  A missing or
    unreadable file, a first line of numbers (a table without its header),
    a row without exactly two cells, a cell that is not a number and
    a table that breaks a rule of :meth:`RadialProfile.tabulated` raise
    CoefficientError naming the file and the line (counted from 1, the header
    being line 1; past the end for a missing row), for a cell its column."""
    rows, lines = [], []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            if header and all(map(_is_number, header)):
                raise CoefficientError(f"profile CSV {path}: line 1: expected the header r,b, "
                                       f"got a row of numbers")
            for cells in reader:
                if not any(cell.strip() for cell in cells):
                    continue
                where = f"profile CSV {path}: line {reader.line_num}"
                if len(cells) != 2:
                    raise CoefficientError(f"{where}: expected 2 columns, got {len(cells)}")
                rows.append([_csv_number(cell, f"{where}, column {column}")
                             for column, cell in enumerate(cells, start=1)])
                lines.append(reader.line_num)
            lines.append(reader.line_num + 1)
    except FileNotFoundError:
        raise CoefficientError(f"profile CSV {path}: file not found") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CoefficientError(f"profile CSV {path}: {exc}") from None
    data = np.array(rows, dtype=float).reshape(-1, 2)
    try:
        return RadialProfile.tabulated(data[:, 0], data[:, 1], tail_exponent)
    except TableError as exc:
        raise CoefficientError(f"profile CSV {path}: line {lines[exc.index]}: {exc.rule}") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _csv_number(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CoefficientError(f"{where}: {cell!r} is not a number") from None


# ---------------------------------------------------------------------------
# deterministic sphere sampling
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# One Halton base per coordinate: the largest dimension the sphere sampler
# (and so radialize) supports.
MAX_SPHERE_DIM = len(_PRIMES)

# radialize samples from MIN_SPHERE_COUNT to MAX_SPHERE_COUNT points per sphere.
MIN_SPHERE_COUNT = 32
MAX_SPHERE_COUNT = 1 << 14

# radialize draws its radii in blocks of at most this many sphere
# coordinates (rows * count * dim), so its transient arrays stay a few
# hundred kB whatever the sphere count.
_BLOCK_COORDS = 32768

# radialize keeps at most this many unit-sphere coordinates per process, in
# _STORE_COORDS // _BLOCK_COORDS blocks: 2^20 (8 MiB), about twice the
# 256-point rows of a 129-radius grid in each of dims 3, 5 and 7.
_STORE_COORDS = 1 << 20

# Cephes ndtri: rational approximations of the normal quantile on
# |y - 1/2| <= 3/8 (P0/Q0) and, with z = sqrt(-2 ln y), on 2 <= z < 8
# (P1/Q1) and 8 <= z <= 64 (P2/Q2); Q polynomials have a leading 1.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: np.ndarray, coef, leading_one: bool = False) -> np.ndarray:
    """Horner's rule, highest power first (cephes polevl / p1evl), in place
    on one fresh array."""
    out = x + coef[0] if leading_one else np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise on (0, 1), any shape.

    The cephes algorithm, operation for operation, so sphere samples match
    those drawn with scipy.special.ndtri.  Each branch gathers its elements
    by index and does its arithmetic in place in cephes' order, so a large
    block costs a handful of array passes.  The two logarithms of the tail
    branch use libm's ``math.log``: the envelope tails of the golden
    sandwich are ill-conditioned enough that one ulp there shows."""
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    upper = flat > 1.0 - _EXP_M2
    y = flat.copy()
    high = np.flatnonzero(upper)
    y[high] = 1.0 - flat[high]
    central = y > _EXP_M2
    out = np.empty(flat.shape)
    mid = np.flatnonzero(central)
    yc = y[mid]
    yc -= 0.5
    y2 = yc * yc
    xc = _polevl(y2, _NDTRI_P0)
    xc *= y2
    xc /= _polevl(y2, _NDTRI_Q0, True)
    xc *= yc
    xc += yc
    xc *= _SQRT_2PI
    out[mid] = xc
    tail = np.flatnonzero(~central)
    x = np.fromiter(map(math.log, y[tail].tolist()), float)
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = np.fromiter(map(math.log, x.tolist()), float)
    x0 /= x
    np.subtract(x, x0, out=x0)
    z = 1.0 / x
    x1 = _polevl(z, _NDTRI_P1)
    x1 *= z
    x1 /= _polevl(z, _NDTRI_Q1, True)
    far = np.flatnonzero(x >= 8.0)   # p below exp(-32)
    if far.size:
        zf = z[far]
        x1f = _polevl(zf, _NDTRI_P2)
        x1f *= zf
        x1f /= _polevl(zf, _NDTRI_Q2, True)
        x1[far] = x1f
    xt = x1 - x0
    flip = np.flatnonzero(upper[tail])
    xt[flip] = x0[flip] - x1[flip]
    out[tail] = xt
    return out.reshape(p.shape)


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """van der Corput radical inverse of integer indices in the given base."""
    idx = np.asarray(indices, dtype=np.int64).copy()
    out = np.zeros(idx.shape, dtype=float)
    denom = 1.0
    while np.any(idx > 0):
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


@lru_cache(maxsize=32)
def _halton(count: int, dim: int) -> np.ndarray:
    """(count, dim) radical inverses of 1..count in the first ``dim`` prime
    bases; independent of the radius, so computed once per (count, dim)."""
    idx = np.arange(1, count + 1, dtype=np.int64)
    table = np.column_stack([_radical_inverse(idx, p) for p in _PRIMES[:dim]])
    table.setflags(write=False)
    return table


def _sphere_table(dim: int, count: int, first: int, stop: int) -> np.ndarray:
    """(stop - first, count, dim) table: row j holds the first ``count``
    sphere points of radius index first + j (see :func:`sphere_points`).

    The rotation of radius index i in lane j is the fractional part of
    (i + 1) * golden^-(j + 1), with the lane factor a Python float."""
    if dim < 2:
        raise CoefficientError(f"sphere sampling needs dim >= 2, got {dim}")
    if count < 1:
        raise CoefficientError("count must be positive")
    if dim > MAX_SPHERE_DIM:
        raise CoefficientError(f"sphere sampling supports dim <= {MAX_SPHERE_DIM}")
    lanes = 2 if dim == 3 else dim
    factors = np.array([_GOLDEN ** -(j + 1) for j in range(lanes)])
    phases = np.arange(first + 1, stop + 1, dtype=np.int64)[:, None] * factors
    phases -= np.floor(phases)
    if dim == 3:
        # spiral: bit-reversed latitudes, golden-angle longitudes
        idx = np.arange(1, count + 1, dtype=np.int64)
        z = _halton(count, 1)[:, 0] + phases[:, :1]
        z -= z >= 1.0
        z = np.clip(2.0 * z - 1.0, -1.0 + 1e-12, 1.0 - 1e-12)
        theta = 2.0 * math.pi * ((idx / _GOLDEN + phases[:, 1:]) % 1.0)
        rho = np.sqrt(1.0 - z * z)
        return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=-1)
    u = _halton(count, dim) + phases[:, None, :]
    u -= u >= 1.0   # the fractional part: u < 2, so u - 1 is exact
    coords = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12, out=u))
    norms = np.linalg.norm(coords, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    coords /= norms
    return coords


@lru_cache(maxsize=_STORE_COORDS // _BLOCK_COORDS)
def _unit_block(dim: int, count: int, first: int, end: int) -> np.ndarray:
    """The read-only _sphere_table(dim, count, first, end) of one radialize
    block, kept for the life of the process.  Rows depend only on (dim,
    count, radius index), never on the radii, and block boundaries only on
    (dim, count), so a block serves every grid that reaches it."""
    table = _sphere_table(dim, count, first, end)
    table.setflags(write=False)
    return table


def sphere_points(dim: int, count: int, radius_index: int = 0) -> np.ndarray:
    """First ``count`` points of a deterministic quasi-uniform sequence on
    the unit sphere in ``dim`` dimensions, as a (count, dim) array.

    Prefixes are nested: the first N points of the sequence for a given
    (dim, radius_index) are unchanged when count grows, so envelope minima
    can only decrease and maxima only increase under refinement.

    dim == 3 uses a spiral placement (bit-reversed latitudes, golden-angle
    longitudes); higher dimensions map a Halton sequence through the
    normal quantile and normalize.  ``radius_index`` rotates the sequence
    so neighbouring radii do not share identical directions.  This is the
    one-radius row of the table :func:`radialize` draws a block of radii
    from, so both give the same points bit for bit.
    """
    return _sphere_table(dim, count, radius_index, radius_index + 1)[0]


def ray_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic unit directions: the 2*dim signed axes first, then
    quasi-uniform fill from :func:`sphere_points`."""
    axes = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        axes.append(e.copy())
        e[j] = -1.0
        axes.append(e)
    axes = np.array(axes)
    if count <= axes.shape[0]:
        return axes[:count]
    extra = sphere_points(dim, count - axes.shape[0], radius_index=1000)
    return np.vstack([axes, extra])


# ---------------------------------------------------------------------------
# non-radial fields and radialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticRootField:
    """b(x) = amp * (sum_j w_j x_j^2 + shift)^(-1/2).

    The spherical envelopes are closed-form: the minimum over |x| = r is
    attained where the quadratic form is largest (weight max(w)) and the
    maximum where it is smallest.  With weights (2, 1, 1), shift 1 and
    amp 8 the function u(x) = 2 x_1^2 + x_2^2 + x_3^2 + 1 solves
    Laplace-type case k = 1 with exponent gamma = 1/2 exactly, which makes
    this field the stock example of an oscillation too large for the
    radial sandwich criteria (b_osc decays like 1/r only).
    """

    weights: tuple
    shift: float = 1.0
    amp: float = 8.0

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) < 2 or any(x <= 0 for x in w):
            raise CoefficientError("weights must be positive and of length >= 2")
        if self.shift <= 0 or self.amp <= 0:
            raise CoefficientError("shift and amp must be positive")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return len(self.weights)

    # all three envelopes decay like 1/r
    tail_star = tail_upper = tail_osc = 1.0

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        q = pts ** 2 @ np.asarray(self.weights)
        return self.amp / np.sqrt(q + self.shift)

    __call__ = eval

    def envelope_profiles(self):
        """Closed-form (b_*, b^*): amp (w r^2 + shift)^(-1/2) is the power term
        (amp / sqrt(w), 0, sqrt(shift / w), 1), for w = max(w) and min(w)."""
        return tuple(RadialProfile.power_sum([(self.amp / math.sqrt(w), 0,
                                               math.sqrt(self.shift / w), 1.0)])
                     for w in (max(self.weights), min(self.weights)))

    def exact_solution(self, points: np.ndarray) -> np.ndarray:
        """u(x) = q(x) + shift, exact when amp equals sigma_k of the
        constant Hessian diag(2 w) and gamma = 1/2."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts ** 2 @ np.asarray(self.weights) + self.shift

    def exact_hessian_eigenvalues(self) -> np.ndarray:
        return 2.0 * np.asarray(self.weights)


@dataclass(frozen=True)
class AnisotropicPowerField:
    """b(x) = (1+|x|^2)^(-l/2) + amp * x_1^2 * (1+|x|^2)^(-(m+2)/2).

    Smooth, positive, with radial part decaying like r^-l and an
    anisotropic oscillation of order r^-m; the oscillation exponent m is
    a free dial for exercising the smallness criteria on either side of
    their threshold.
    """

    l: float
    m: float
    amp: float = 1.0
    dim: int = 3

    def __post_init__(self):
        if self.dim < 2:
            raise CoefficientError("dim must be >= 2")
        if self.amp < 0:
            raise CoefficientError("amp must be nonnegative")

    @property
    def tail_star(self) -> float:
        return self.envelope_profiles()[0].tail_exponent

    @property
    def tail_upper(self) -> float:
        return self.envelope_profiles()[1].tail_exponent

    @property
    def tail_osc(self) -> float:
        return float(self.m)

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # 1 + |x|^2 with |x|^2 summed over the coordinates in order, one
        # column pass each: numpy's row reduction runs a loop per point.
        x1 = pts[:, 0] * pts[:, 0]
        q = x1.copy()
        for j in range(1, pts.shape[1]):
            col = pts[:, j]
            q += col * col
        q += 1.0
        # overflow (and 0 * inf) is quiet: check_coefficient reports it
        with np.errstate(over="ignore", invalid="ignore"):
            base = q ** (-self.l / 2.0)
            return base if self.amp == 0.0 else \
                base + self.amp * x1 * q ** (-(self.m + 2.0) / 2.0)

    __call__ = eval

    def envelope_profiles(self):
        """Closed-form (b_*, b^*): b along e_2 and along e_1, the power terms
        (1, 0, 1, l) and, for amp > 0, (amp, 1, 1, m + 2)."""
        star = [(1.0, 0, 1.0, self.l)]
        upper = star + ([(self.amp, 1, 1.0, self.m + 2.0)] if self.amp > 0 else [])
        return RadialProfile.power_sum(star), RadialProfile.power_sum(upper)


BUILTIN_FIELDS = {
    "counterexample": partial(QuadraticRootField, weights=(2.0, 1.0, 1.0), shift=1.0, amp=8.0),
    "anisotropic_power": AnisotropicPowerField,
}


def make_builtin_field(name: str, **kwargs):
    try:
        factory = BUILTIN_FIELDS[name]
    except KeyError:
        raise CoefficientError(
            f"unknown builtin field {name!r}; available: {sorted(BUILTIN_FIELDS)}") from None
    return factory(**kwargs)


@dataclass(frozen=True)
class RadializedTriple:
    """Spherical envelopes of a non-radial coefficient on a grid."""

    b_star: RadialProfile
    b_upper: RadialProfile
    b_osc: RadialProfile

    def osc_negligible(self) -> bool:
        """True when the oscillation is zero to within OSC_NEGLIGIBLE_REL_TOL
        of the envelope scale (i.e. the field is radial for all practical
        purposes)."""
        if self.b_osc.is_zero():
            return True
        if self.b_osc.kind == "tabulated" and self.b_star.kind == "tabulated":
            scale = float(np.max(self.b_star.values))
            return bool(np.max(self.b_osc.values) <= OSC_NEGLIGIBLE_REL_TOL * scale)
        return False


def triple_from_radial(profile: RadialProfile) -> RadializedTriple:
    """Degenerate triple for a genuinely radial coefficient."""
    return RadializedTriple(profile, profile, RadialProfile.zero())


def radialize(field, grid: RadialGrid, sphere_count: int = 256) -> RadializedTriple:
    """Tabulate the spherical envelopes of ``field`` on ``grid``.

    ``sphere_count`` points per radius (MIN_SPHERE_COUNT to MAX_SPHERE_COUNT)
    are drawn from the nested deterministic sequence, rotated per radius.
    The minimum over the sample overestimates b_* and the maximum
    underestimates b^*, and both converge monotonically as the count
    doubles.

    The radii go in blocks of at most _BLOCK_COORDS coordinates (at least
    one radius each): the block's unit-sphere rows, kept by
    :func:`_unit_block` unless one row alone exceeds a block, one field call
    on the block's (radii * sphere_count, dim) points and a per-radius min
    and max.  The envelopes equal those of a one-radius-at-a-time loop bit
    for bit, and go through :func:`check_coefficient` once, the origin
    included.
    """
    if not MIN_SPHERE_COUNT <= sphere_count <= MAX_SPHERE_COUNT:
        raise CoefficientError(f"sphere_count must lie in [{MIN_SPHERE_COUNT}, "
                               f"{MAX_SPHERE_COUNT}], got {sphere_count}")
    dim = getattr(field, "dim", None)
    if dim is None:
        raise CoefficientError("field must expose its dimension via a 'dim' attribute")
    nodes = grid.nodes
    star = np.empty(nodes.size)
    upper = np.empty(nodes.size)
    star[0] = upper[0] = _one_per_point(field(np.zeros((1, dim))), 1, "field")[0]
    step = max(1, _BLOCK_COORDS // (sphere_count * dim))
    for first in range(1, nodes.size, step):
        stop = min(first + step, nodes.size)
        unit = (_sphere_table(dim, sphere_count, first, stop)
                if sphere_count * dim > _BLOCK_COORDS   # one row beyond a block: not kept
                else _unit_block(dim, sphere_count, first, first + step)[:stop - first])
        pts = nodes[first:stop, None, None] * unit
        vals = _one_per_point(field(pts.reshape(-1, dim)), pts.shape[0] * sphere_count,
                              "field").reshape(-1, sphere_count)
        star[first:stop] = vals.min(axis=1)
        upper[first:stop] = vals.max(axis=1)
    # a row's min and max hold its first offending value (NaN propagates)
    check_coefficient(np.column_stack([star, upper]), nodes)
    osc = np.maximum(upper - star, 0.0)
    tail_star = getattr(field, "tail_star", None)
    tail_upper = getattr(field, "tail_upper", None)
    tail_osc = getattr(field, "tail_osc", None)
    return RadializedTriple(
        b_star=RadialProfile.tabulated(nodes, star, tail_exponent=tail_star),
        b_upper=RadialProfile.tabulated(nodes, upper, tail_exponent=tail_upper),
        b_osc=RadialProfile.tabulated(nodes, osc, tail_exponent=tail_osc,
                                      strictly_positive=False),
    )
