"""Scalar bounds feeding the stability tests.

``summarize`` extracts sup/inf norms of the coefficients, the sign-split
norms of the neutral coefficient, and the delay bounds; ``integral_summary``
adds to that summary the bounds on the integrals of b over the delay
intervals (the quantities used by the unbounded-delay test).  Every field
is either an analytic override taken from the spec file or a grid
estimate, and the provenance is recorded so that downstream verdicts can
be labeled "certified" vs "numerically supported".

Sign convention: for any u, u+ = max(u, 0) and u- = max(-u, 0), so that
u = u+ - u- pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .eqspec import FIELD_TREE, INFIMA, SAMPLE_BLOCK, EquationSpec, Extrema
from .expr import DomainError, Expr

GRID_ESTIMATE = "grid-estimate"
ANALYTIC = "analytic-override"

DEFAULT_GRID = 100_000
DEFAULT_PANELS = 2048
_INTEGRAL_SAMPLES = 513  # sample times t of integral_summary
_LIMSUP_SAMPLES = 257    # sample times t of estimate_limsup_int_b
_SIMPSON_BLOCK = 16      # integrals per Simpson block; bounds its node arrays to 16 x (panels + 1)

# Cumulative table of the integral of b: 6-node Gauss-Legendre on cells of one
# width from t0, evaluated SAMPLE_BLOCK // 6 cells at a time.  The width is the
# first of _TABLE_WIDTHS, coarsest first, whose cells pass the check of
# IntegralsOfB._cells; the last, TABLE_CELL, is taken unchecked.
TABLE_CELL = 0.01
_TABLE_WIDTHS = (0.08, 0.04, 0.02, TABLE_CELL)
# A width passes when the rule over each pair of adjacent cells agrees with its
# sum over the two cells to within this, relative.  The rule's error is
# O(width^13), so the cells' own error is then about 2^-13 of that gap.
_TABLE_AGREE = 1e-13
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
# the fields estimated by grid extrema, in ParameterSummary order
_SAMPLED = tuple(FIELD_TREE)


class SummaryError(ValueError):
    """Summary invariants cannot be met (e.g. b not positive on the window)."""


class QuadratureError(ValueError):
    """No admissible sample points for an integral bound."""


# the fields that scale with b: r * b for b multiplies each by r
B_LINEAR = ("norm_b", "inf_b", "limsup_int_b", "tilde_tau", "tilde_delta", "tilde_sigma")


@dataclass(frozen=True)
class ParameterSummary:
    """Norms, infima, delay bounds and integral bounds over the analysis window.

    ``provenance`` maps each field name to "analytic-override" or
    "grid-estimate".  ``limit_tau`` (the limit of t - h(t), when it exists)
    is never grid-estimated: a limit cannot be confirmed by finite sampling,
    so it is populated only from an analytic override.  The bounds on the
    integrals of b, tilde_delta <= int_{h(t)}^t b <= tilde_tau and
    int_{g(t)}^t b <= tilde_sigma, are None until ``integral_summary`` fills
    them in; ``notes`` then names the samples it skipped.  ``sampled``
    names the trees (a, b, g, h) whose grid ``summarize`` sampled itself,
    and ``constant_delays`` whether both lags are constant on the window
    (``Extrema.constant_delays``), which the constant-delay baselines
    require; both are left out of comparisons, ``repr`` and ``to_dict``.
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
    tilde_tau: float | None = None
    tilde_delta: float | None = None
    tilde_sigma: float | None = None
    provenance: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    sampled: tuple[str, ...] = field(default=(), compare=False, repr=False)
    constant_delays: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.norm_a < 1.0):
            raise SummaryError(f"norm_a must lie in [0, 1), got {self.norm_a}")
        if not (0.0 < self.inf_b <= self.norm_b):
            raise SummaryError(f"need 0 < inf_b <= norm_b, got {self.inf_b}, {self.norm_b}")
        if not (0.0 <= self.delta <= self.tau):
            raise SummaryError(f"need 0 <= delta <= tau, got {self.delta}, {self.tau}")
        if self.sigma < 0.0:
            raise SummaryError(f"sigma must be >= 0, got {self.sigma}")
        if self.tilde_tau is not None and not (0.0 <= self.tilde_delta <= self.tilde_tau):
            raise SummaryError(
                f"need 0 <= tilde_delta <= tilde_tau, got {self.tilde_delta}, {self.tilde_tau}")
        if self.tilde_sigma is not None and self.tilde_sigma < 0.0:
            raise SummaryError(f"tilde_sigma must be >= 0, got {self.tilde_sigma}")

    @property
    def tilde_tau0(self) -> float:
        """The integral lag scale (1 - ||a||) / e."""
        return (1.0 - self.norm_a) / math.e

    def certified(self, fields: tuple[str, ...]) -> bool:
        return all(self.provenance.get(f) == ANALYTIC for f in fields)

    def scale_b(self, r: float) -> ParameterSummary:
        """The summary with r * b for b."""
        return replace(self, **{f: None if (v := getattr(self, f)) is None else r * v for f in B_LINEAR})

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        out.update(provenance=dict(self.provenance), notes=list(self.notes),
                   # reading of the sign-split definition; see module docstring
                   sign_split_convention="u- = max(-u, 0)")
        return out


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


def summarize(spec: EquationSpec, extrema: Extrema | None = None) -> ParameterSummary:
    """Extract the scalar bounds, preferring analytic overrides.

    Grid extrema can under-estimate suprema and over-estimate infima; the
    per-field provenance lets callers distinguish certified bounds from
    sampled ones.  ``extrema`` are the spec's grid extrema on the
    request's grid, as ``validate`` reports them; ``Extrema(spec,
    DEFAULT_GRID)`` when None.  A tree (a, b, g or h) is sampled only when
    it has a field without an override, or an override that the spec's
    enclosure does not clear (``Enclosure.clears``: then no grid value can
    refute it).  The bounds come from overrides and the grid only, never
    from the enclosure, so the summary is the one that sampling every tree
    gives; the enclosure decides ``constant_delays`` alone
    (``Extrema.constant_delays``).  An override that the grid extrema
    refute (see REFUTE_SLACK) raises SummaryError.
    """
    if extrema is None:
        extrema = Extrema(spec, DEFAULT_GRID)

    ov = spec.overrides
    slack = REFUTE_SLACK * max(1.0, abs(spec.t0), abs(spec.horizon))
    known = extrema.values
    before = len(extrema.sampled)
    extrema.sample({FIELD_TREE[name] for name in _SAMPLED if name not in known
                    and (name not in ov or not extrema.enclosure.clears(name, ov[name], slack))})
    for name in _SAMPLED:
        if name in ov and name in known:
            sampled = known[name]
            sup = name not in INFIMA
            if (sampled - ov[name] if sup else ov[name] - sampled) > slack:
                raise SummaryError(
                    f"override {name} = {ov[name]:.12g} is refuted: it lies "
                    f"{'below' if sup else 'above'} the grid {'supremum' if sup else 'infimum'} "
                    f"{sampled:.12g} ({extrema.grid_points} points)")

    prov: dict[str, str] = {}
    summary = {name: _pick(ov, prov, name, lambda: known[name]) for name in _SAMPLED}
    summary["limit_tau"] = _pick(ov, prov, "limit_tau")
    summary["limsup_int_b"] = _pick(ov, prov, "limsup_int_b")
    if summary["inf_b"] <= 0.0:
        raise SummaryError(f"b must stay positive on the window; estimated inf b = {summary['inf_b']}")
    return ParameterSummary(**summary, provenance=prov, sampled=tuple(extrema.sampled[before:]),
                            constant_delays=extrema.constant_delays)


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
    [t0 + k H, t0 + (k + 1) H] of width H = ``cell``, built on first use,
    plus the same rule on the partial cell up to x.  H is the coarsest of
    0.08, 0.04, 0.02 at which the rule over each pair of adjacent cells
    agrees with its sum over the two to 1e-13, relative, else TABLE_CELL.
    Two cases take composite Simpson per interval (``simpson``) instead: a
    b containing ``abs``, whose kinks cost the rule its order, and a window
    longer than _MAX_TABLE_CELLS * TABLE_CELL.  One object serves every
    integral of one request; nothing is kept between requests.
    """

    def __init__(self, spec: EquationSpec):
        self.b = spec.b
        self.t0 = spec.t0
        self.horizon = spec.horizon
        self.tabulated = (not _has_abs(spec.b)
                          and spec.horizon - spec.t0 <= _MAX_TABLE_CELLS * TABLE_CELL)

    @property
    def cell(self) -> float:
        """The table's cell width H (the table is built on first use)."""
        return self._table[0]

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
        cell, big, small = self._table
        k = np.clip(np.floor((x - self.t0) / cell), 0, len(big) - 1).astype(np.intp)
        left = k * cell + self.t0
        partial = self._gauss(left, x - left)
        big, small = big[k], small[k]
        return (big[n:] - big[:n]) + (small[n:] - small[:n]) + (partial[n:] - partial[:n])

    @cached_property
    def _table(self) -> tuple[float, np.ndarray, np.ndarray]:
        """The cell width H, and B at the cell edges t0 + k H, k = 0 ..
        (number of full cells), as the sum of two arrays: the running sum of
        the cell integrals, and the running sum of its rounding errors (each
        step's error is exact, by Knuth's two-sum), so a difference of B over
        many cells keeps the accuracy of the cells instead of losing one
        rounding of B per cell."""
        for width in _TABLE_WIDTHS:
            c = self._cells(width, checked=width != _TABLE_WIDTHS[-1])
            if c is not None:
                break
        big = np.cumsum(c)
        # two-sum error of big[k] = big[k-1] + c[k]: (big[k-1] - (big[k] - step))
        # + (c[k] - step), with step = big[k] - big[k-1]; in place, so the
        # table takes three window-length arrays
        step = big[1:] - big[:-1]
        c[1:] -= step
        step -= big[1:]
        step += big[:-1]
        c[1:] += step
        return width, big, np.cumsum(c, out=c)

    def _cells(self, width: float, checked: bool) -> np.ndarray | None:
        """0 and the rule over each full cell of ``width`` from t0.  If
        ``checked``, None as soon as a block of cells, or the partial cell
        from the last edge to the horizon, fails ``_agrees``."""
        cells = int((self.horizon - self.t0) / width)
        c = np.empty(cells + 1)
        c[0] = 0.0
        for k in range(0, cells, _TABLE_BLOCK):
            # the rounded edges, as over() computes them, so the cells tile [t0, x]
            edges = np.arange(k, min(k + _TABLE_BLOCK, cells) + 1) * width + self.t0
            c[k + 1:k + len(edges)] = block = self._gauss(edges[:-1], np.diff(edges))
            if checked and not self._agrees(edges, block):
                return None
        if checked:
            tail = np.array([cells * width + self.t0, self.horizon])
            if not self._agrees(tail, self._gauss(tail[:1], np.diff(tail))):
                return None
        return c

    def _agrees(self, edges: np.ndarray, cells: np.ndarray) -> bool:
        """Whether the rule over each pair of adjacent cells (an odd last
        one paired with its left neighbour) agrees with the sum of the rule
        over the two to _TABLE_AGREE, relative; a single cell is checked
        against its two halves.  A NaN fails."""
        if len(cells) == 1:
            mid = 0.5 * (edges[0] + edges[1])
            whole = cells
            parts = np.sum(self._gauss(np.array([edges[0], mid]), np.array([mid - edges[0], edges[1] - mid])))
        else:
            j = np.minimum(np.arange(0, len(cells), 2), len(cells) - 2)
            whole = self._gauss(edges[j], edges[j + 2] - edges[j])
            parts = cells[j] + cells[j + 1]
        return bool(np.all(np.abs(whole - parts) <= _TABLE_AGREE * np.abs(whole)))

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


def integral_summary(spec: EquationSpec, summary: ParameterSummary,
                     integrals: IntegralsOfB | None = None) -> ParameterSummary:
    """``summary`` with the bounds on int_{h(t)}^t b and int_{g(t)}^t b over a
    grid of t filled in.

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
    prov = dict(summary.provenance)
    notes: list[str] = []
    int_h = [] if {"tilde_tau", "tilde_delta"} <= ov.keys() else _delay_integrals(spec, ts, hv, "h", notes, integrals)
    int_g = [] if "tilde_sigma" in ov else _delay_integrals(spec, ts, gv, "g", notes, integrals)
    return replace(summary, tilde_tau=_pick(ov, prov, "tilde_tau", lambda: max(int_h)),
                   tilde_delta=_pick(ov, prov, "tilde_delta", lambda: min(int_h)),
                   tilde_sigma=_pick(ov, prov, "tilde_sigma", lambda: max(int_g)),
                   provenance=prov, notes=tuple(notes))


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
