"""Scalar bounds feeding the stability tests.

``summarize`` extracts sup/inf norms of the coefficients, the sign-split
norms of the neutral coefficient, and the delay bounds; ``integral_summary``
bounds the integrals of b over the delay intervals (the quantities used by
the unbounded-delay test).  Every field is either an analytic override taken
from the spec file or a grid estimate, and the provenance is recorded so
that downstream verdicts can be labeled "certified" vs "numerically
supported".

Sign convention: for any u, u+ = max(u, 0) and u- = max(-u, 0), so that
u = u+ - u- pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .eqspec import SAMPLE_BLOCK, EquationSpec, GridExtrema, grid_extrema
from .expr import DomainError, Expr

GRID_ESTIMATE = "grid-estimate"
ANALYTIC = "analytic-override"

DEFAULT_GRID = 100_000
DEFAULT_PANELS = 2048
_INTEGRAL_SAMPLES = 513  # sample times t of integral_summary
_LIMSUP_SAMPLES = 257    # sample times t of estimate_limsup_int_b
_SIMPSON_BLOCK = 16      # integrals per Simpson block; bounds its node arrays to 16 x (panels + 1)

# Cumulative table of the integral of b: 6-node Gauss-Legendre on cells of
# width TABLE_CELL from t0, evaluated SAMPLE_BLOCK // 6 cells at a time.
TABLE_CELL = 0.01
_TABLE_BLOCK = SAMPLE_BLOCK // 6
# Longest table, in cells (2 MiB per array; a window of about 2,600).  Its
# 1.6 million evaluations of b are about what Simpson spends on the 1,026
# intervals of integral_summary, so longer windows go to Simpson.
_MAX_TABLE_CELLS = 2 ** 18
# nodes and weights of the 6-point Gauss-Legendre rule on [-1, 1]
_GL_NODES = np.array([-0.932469514203152027812302, -0.661209386466264513661400,
                      -0.238619186083196908630502, 0.238619186083196908630502,
                      0.661209386466264513661400, 0.932469514203152027812302])
_GL_WEIGHTS = np.array([0.171324492379170345040296, 0.360761573048138607569834,
                        0.467913934572691047389870, 0.467913934572691047389870,
                        0.360761573048138607569834, 0.171324492379170345040296])

# An override of a supremum below its grid value, or of an infimum above
# it, by more than this slack times max(1, |t0|, |horizon|) is refuted.
# Evaluation rounding stays far below it (lags are t - g(t) at t up to the
# horizon).
REFUTE_SLACK = 1e-12
# the fields estimated by grid extrema, in ParameterSummary order, and the infima among them
_SAMPLED = ("norm_a", "inf_a", "norm_a_plus", "norm_a_minus", "norm_b", "inf_b", "sigma", "tau", "delta")
_INFIMA = ("inf_a", "inf_b", "delta")


class SummaryError(ValueError):
    """Summary invariants cannot be met (e.g. b not positive on the window)."""


class QuadratureError(ValueError):
    """No admissible sample points for an integral bound."""


@dataclass(frozen=True)
class ParameterSummary:
    """Norms, infima and delay bounds over the analysis window.

    ``provenance`` maps each field name to "analytic-override" or
    "grid-estimate".  ``limit_tau`` (the limit of t - h(t), when it exists)
    is never grid-estimated: a limit cannot be confirmed by finite sampling,
    so it is populated only from an analytic override.
    """

    norm_a: float
    inf_a: float
    norm_a_plus: float
    norm_a_minus: float
    norm_b: float
    inf_b: float
    sigma: float
    tau: float
    delta: float
    limit_tau: float | None = None
    limsup_int_b: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.norm_a < 1.0):
            raise SummaryError(f"norm_a must lie in [0, 1), got {self.norm_a}")
        if not (0.0 < self.inf_b <= self.norm_b):
            raise SummaryError(f"need 0 < inf_b <= norm_b, got {self.inf_b}, {self.norm_b}")
        if not (0.0 <= self.delta <= self.tau):
            raise SummaryError(f"need 0 <= delta <= tau, got {self.delta}, {self.tau}")
        if self.sigma < 0.0:
            raise SummaryError(f"sigma must be >= 0, got {self.sigma}")

    def certified(self, fields: tuple[str, ...]) -> bool:
        return all(self.provenance.get(f) == ANALYTIC for f in fields)

    def scale_b(self, r: float) -> ParameterSummary:
        """The summary with r * b for b (built directly: ``dataclasses.replace`` costs twice as much)."""
        return ParameterSummary(
            self.norm_a, self.inf_a, self.norm_a_plus, self.norm_a_minus, r * self.norm_b, r * self.inf_b,
            self.sigma, self.tau, self.delta, self.limit_tau,
            None if self.limsup_int_b is None else r * self.limsup_int_b, self.provenance)

    def to_dict(self) -> dict:
        out = {
            "norm_a": self.norm_a,
            "inf_a": self.inf_a,
            "norm_a_plus": self.norm_a_plus,
            "norm_a_minus": self.norm_a_minus,
            "norm_b": self.norm_b,
            "inf_b": self.inf_b,
            "sigma": self.sigma,
            "tau": self.tau,
            "delta": self.delta,
            "limit_tau": self.limit_tau,
            "limsup_int_b": self.limsup_int_b,
            "provenance": dict(self.provenance),
            # reading of the sign-split definition; see module docstring
            "sign_split_convention": "u- = max(-u, 0)",
        }
        return out


@dataclass(frozen=True)
class IntegralSummary:
    """Bounds on the integrals of b over the delay intervals.

    tilde_delta <= int_{h(t)}^t b <= tilde_tau and int_{g(t)}^t b <=
    tilde_sigma on the sampled window; tilde_tau0 = (1 - norm_a)/e exactly.
    """

    tilde_delta: float
    tilde_tau: float
    tilde_sigma: float
    tilde_tau0: float
    norm_a: float
    inf_a: float
    provenance: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0.0 <= self.tilde_delta <= self.tilde_tau):
            raise SummaryError(
                f"need 0 <= tilde_delta <= tilde_tau, got {self.tilde_delta}, {self.tilde_tau}")
        if self.tilde_sigma < 0.0:
            raise SummaryError(f"tilde_sigma must be >= 0, got {self.tilde_sigma}")

    def certified(self, fields: tuple[str, ...]) -> bool:
        return all(self.provenance.get(f) == ANALYTIC for f in fields)

    def to_dict(self) -> dict:
        return {
            "tilde_delta": self.tilde_delta,
            "tilde_tau": self.tilde_tau,
            "tilde_sigma": self.tilde_sigma,
            "tilde_tau0": self.tilde_tau0,
            "norm_a": self.norm_a,
            "inf_a": self.inf_a,
            "provenance": dict(self.provenance),
            "notes": list(self.notes),
        }


def _pick(ov: dict, prov: dict, name: str, estimate=None):
    """The analytic override of ``name`` if the spec has one, else
    ``estimate()`` (None when there is no estimate); records the provenance."""
    if name in ov:
        prov[name] = ANALYTIC
        return float(ov[name])
    if estimate is None:
        return None
    prov[name] = GRID_ESTIMATE
    return float(estimate())


def summarize(spec: EquationSpec, grid_points: int = DEFAULT_GRID,
              extrema: GridExtrema | None = None) -> ParameterSummary:
    """Extract the scalar bounds, preferring analytic overrides.

    Grid extrema can under-estimate suprema and over-estimate infima; the
    per-field provenance lets callers distinguish certified bounds from
    sampled ones.  ``extrema`` are the spec's grid extrema on
    ``grid_points`` points, as ``validate`` reports them; they are sampled
    here when None.  An override that the grid extrema refute (see
    REFUTE_SLACK) raises SummaryError.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if extrema is None:
        extrema = grid_extrema(spec, grid_points)
    elif extrema.grid_points != grid_points:
        raise ValueError(f"extrema sampled on {extrema.grid_points} points, not {grid_points}")

    ov = spec.overrides
    slack = REFUTE_SLACK * max(1.0, abs(spec.t0), abs(spec.horizon))
    for name in _SAMPLED:
        if name in ov:
            sampled = getattr(extrema, name)
            sup = name not in _INFIMA
            if (sampled - ov[name] if sup else ov[name] - sampled) > slack:
                raise SummaryError(
                    f"override {name} = {ov[name]:.12g} is refuted: it lies "
                    f"{'below' if sup else 'above'} the grid {'supremum' if sup else 'infimum'} "
                    f"{sampled:.12g} ({grid_points} points)")

    prov: dict[str, str] = {}
    summary = {name: _pick(ov, prov, name, lambda: getattr(extrema, name)) for name in _SAMPLED}
    summary["limit_tau"] = _pick(ov, prov, "limit_tau")
    summary["limsup_int_b"] = _pick(ov, prov, "limsup_int_b")
    if summary["inf_b"] <= 0.0:
        raise SummaryError(f"b must stay positive on the window; estimated inf b = {summary['inf_b']}")
    return ParameterSummary(**summary, provenance=prov)


def simpson(expr, lo, hi, panels: int = DEFAULT_PANELS):
    """Composite Simpson quadrature of an expression over [lo, hi].

    ``lo`` and ``hi`` may be arrays of limits: the result is then an array
    with one integral per entry, each bit-identical to the scalar call,
    because the nodes come from the same ``linspace`` formula and the sum
    over each row is numpy's pairwise reduction, as for a 1-D array.
    Scalar limits give a float.  ``panels`` counts subintervals (rounded
    up to even).  Errors are those of the first failing entry in order.
    """
    lo_v = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_v = np.atleast_1d(np.asarray(hi, dtype=float))
    n = panels + (panels % 2)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    out = np.zeros(lo_v.shape)
    reversed_rows = np.flatnonzero(hi_v < lo_v)
    stop = reversed_rows[0] if reversed_rows.size else len(out)
    # zero-width rows stay 0.0 and out of linspace, which switches a whole
    # block to another formula when any row has a zero step
    rows = np.flatnonzero(hi_v[:stop] != lo_v[:stop])
    for k in range(0, len(rows), _SIMPSON_BLOCK):
        r = rows[k:k + _SIMPSON_BLOCK]
        out[r] = _simpson_rows(expr, lo_v[r], hi_v[r], n, w)
    if reversed_rows.size:
        raise ValueError("empty or reversed integration range")
    return float(out[0]) if np.ndim(lo) == 0 and np.ndim(hi) == 0 else out


def _simpson_rows(expr, lo, hi, n, w):
    xs = np.linspace(lo, hi, n + 1, axis=1)
    try:
        ys = expr.eval_array(xs.ravel()).reshape(xs.shape)
    except DomainError:
        if len(lo) > 1:  # the first failing row wins, whatever order the tree met them in
            for i in range(len(lo)):
                _simpson_rows(expr, lo[i:i + 1], hi[i:i + 1], n, w)
        raise
    return (hi - lo) / (3.0 * n) * np.sum(w * ys, axis=1)


def _has_abs(e: Expr) -> bool:
    return e.kind == "abs" or any(_has_abs(c) for c in e.args)


class IntegralsOfB:
    """Integrals of a spec's b over subintervals of its window.

    Each integral is B(hi) - B(lo), where B(x) = int_{t0}^x b is read from
    one cumulative table: 6-node Gauss-Legendre on the cells
    [t0 + k H, t0 + (k + 1) H] of width H = TABLE_CELL, built on first use,
    plus the same rule on the partial cell up to x.  Two cases take
    composite Simpson per interval (``simpson``) instead: a b containing
    ``abs``, whose kinks cost the rule its order, and a window of more than
    _MAX_TABLE_CELLS cells.  One object serves every integral of one
    request; nothing is kept between requests.
    """

    def __init__(self, spec: EquationSpec):
        self.b = spec.b
        self.t0 = spec.t0
        self.horizon = spec.horizon
        self.tabulated = (not _has_abs(spec.b)
                          and spec.horizon - spec.t0 <= _MAX_TABLE_CELLS * TABLE_CELL)

    def over(self, lo, hi) -> np.ndarray:
        """int_lo^hi b for arrays of limits, one integral per entry."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not self.tabulated:
            return simpson(self.b, lo, hi)
        if np.any(hi < lo):
            raise ValueError("empty or reversed integration range")
        n = len(lo)
        x = np.concatenate((lo, hi))
        big, small = self._table
        k = np.clip(np.floor((x - self.t0) / TABLE_CELL), 0, len(big) - 1).astype(np.intp)
        left = k * TABLE_CELL + self.t0
        partial = self._gauss(left, x - left)
        big, small = big[k], small[k]
        return (big[n:] - big[:n]) + (small[n:] - small[:n]) + (partial[n:] - partial[:n])

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """B at the cell edges t0 + k H, k = 0 .. (number of full cells), as
        the sum of two arrays: the running sum of the cell integrals, and the
        running sum of its rounding errors (each step's error is exact, by
        Knuth's two-sum), so a difference of B over many cells keeps the
        accuracy of the cells instead of losing one rounding of B per cell."""
        cells = int((self.horizon - self.t0) / TABLE_CELL)
        c = np.empty(cells + 1)
        c[0] = 0.0
        for k in range(0, cells, _TABLE_BLOCK):
            # the rounded edges, as over() computes them, so the cells tile [t0, x]
            edges = np.arange(k, min(k + _TABLE_BLOCK, cells) + 1) * TABLE_CELL + self.t0
            c[k + 1:k + len(edges)] = self._gauss(edges[:-1], np.diff(edges))
        big = np.cumsum(c)
        # two-sum error of big[k] = big[k-1] + c[k]: (big[k-1] - (big[k] - step))
        # + (c[k] - step), with step = big[k] - big[k-1]; in place, so the
        # table takes three window-length arrays
        step = big[1:] - big[:-1]
        c[1:] -= step
        step -= big[1:]
        step += big[:-1]
        c[1:] += step
        return big, np.cumsum(c, out=c)

    def _gauss(self, left: np.ndarray, width: np.ndarray) -> np.ndarray:
        """The Gauss-Legendre rule over [left, left + width], per entry."""
        half = 0.5 * width
        nodes = (left + half)[:, None] + half[:, None] * _GL_NODES
        return half * (self.b.eval_array(nodes.ravel()).reshape(nodes.shape) @ _GL_WEIGHTS)


def _delay_integrals(spec: EquationSpec, ts, lower, family: str, notes: list,
                     integrals: IntegralsOfB) -> list[float]:
    """int_{lower(t)}^t b at the samples whose lower limit is not before t0."""
    mask = lower >= spec.t0
    skipped = int(np.sum(~mask))
    if skipped:
        notes.append(f"skipped {skipped} sample(s) with {family}(t) < t0 for the {family}-integral")
    if not np.any(mask):
        raise QuadratureError(
            f"{family}(t) < t0 at every sample; no admissible range for the {family}-integral")
    return integrals.over(lower[mask], ts[mask]).tolist()


def integral_summary(spec: EquationSpec, integrals: IntegralsOfB | None = None) -> IntegralSummary:
    """Bound int_{h(t)}^t b and int_{g(t)}^t b over a grid of t.

    Sample points whose delay argument falls before t0 (no b there) are
    skipped and noted.  Analytic overrides win over quadrature estimates.
    ``integrals`` evaluates the integrals; a new IntegralsOfB when None.
    """
    if integrals is None:
        integrals = IntegralsOfB(spec)
    ts = spec.grid(_INTEGRAL_SAMPLES)
    hv = spec.h.eval_array(ts)
    gv = spec.g.eval_array(ts)

    ov = spec.overrides
    prov: dict[str, str] = {}
    notes: list[str] = []
    int_h = [] if {"tilde_tau", "tilde_delta"} <= ov.keys() else _delay_integrals(spec, ts, hv, "h", notes, integrals)
    int_g = [] if "tilde_sigma" in ov else _delay_integrals(spec, ts, gv, "g", notes, integrals)
    tilde_tau = _pick(ov, prov, "tilde_tau", lambda: max(int_h))
    tilde_delta = _pick(ov, prov, "tilde_delta", lambda: min(int_h))
    tilde_sigma = _pick(ov, prov, "tilde_sigma", lambda: max(int_g))

    av = None if {"norm_a", "inf_a"} <= ov.keys() else spec.a.eval_array(ts)
    norm_a = _pick(ov, prov, "norm_a", lambda: np.max(np.abs(av)))
    inf_a = _pick(ov, prov, "inf_a", lambda: np.min(av))
    prov["tilde_tau0"] = prov["norm_a"]

    return IntegralSummary(
        tilde_delta=tilde_delta, tilde_tau=tilde_tau, tilde_sigma=tilde_sigma,
        tilde_tau0=(1.0 - norm_a) / math.e, norm_a=norm_a, inf_a=inf_a,
        provenance=prov, notes=tuple(notes),
    )


def estimate_limsup_int_b(spec: EquationSpec, window: float,
                          integrals: IntegralsOfB | None = None) -> float:
    """Grid estimate of limsup_t int_{t-window}^t b, over the window tail.

    Uses the last half of [t0, horizon]; an analytic override is preferable
    whenever available (the estimate is flagged as such by callers).
    ``integrals`` evaluates the integrals; a new IntegralsOfB when None.
    """
    lo = 0.5 * (spec.t0 + spec.horizon)
    lo = max(lo, spec.t0 + window)
    if lo >= spec.horizon:
        lo = spec.t0 + window
    if lo > spec.horizon:
        raise QuadratureError("window longer than the analysis horizon")
    ts = np.linspace(lo, spec.horizon, _LIMSUP_SAMPLES)
    if integrals is None:
        integrals = IntegralsOfB(spec)
    return float(max(integrals.over(ts - window, ts).tolist()))
