"""Equation model: (x(t) - a(t) x(g(t)))' = -b(t) x(h(t)) on a finite window.

An EquationSpec bundles the four coefficient/delay expressions, an optional
forcing term, the analysis window [t0, horizon] standing in for the right
half-line, and optional analytic overrides for the scalar bounds that the
stability tests consume.  ``validate`` checks the structural assumptions:
first by an interval enclosure of every tree, and where that proves them
all, without sampling; else on a dense uniform grid, with witnesses for
every violation.  Its report carries the grid extrema that
``params.summarize`` turns into scalar bounds, sampled in blocks in the
same pass as the checks on the grid route, and per tree when
``summarize`` asks for them on the enclosure route.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .expr import MAX_EXPR_DEPTH, Expr, lag_enclosure, parse_expr

# Override keys accepted in spec files.  The tilde_* entries bound the
# integrals of b over the delay intervals; limsup_int_b feeds the classical
# constant-delay baselines.
OVERRIDE_KEYS = frozenset({
    "norm_a", "inf_a", "norm_a_plus", "norm_a_minus",
    "norm_b", "inf_b", "sigma", "tau", "delta", "limit_tau",
    "tilde_tau", "tilde_delta", "tilde_sigma", "limsup_int_b",
})


_SPEC_KEYS = frozenset({"a", "b", "g", "h", "t0", "horizon", "f", "overrides", "name"})

DEFAULT_GRID = 100_000  # points of the grid that validate and summarize sample by default
# What load_spec skips to count the nesting of JSON text: a string (an
# unterminated one runs to the end), or a run of neither brackets nor quotes.
_JSON_SKIP = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[^][{}"]+', re.S)
_JSON_NEST = {"[": 1, "{": 1, "]": -1, "}": -1}


class SpecError(ValueError):
    """Malformed specification file or inconsistent window."""


@dataclass(frozen=True, eq=False)
class EquationSpec:
    """Symbolic description of one neutral delay equation.

    Immutable after construction; all analysis operations are pure, so a
    spec can be shared freely across threads.
    """

    a: Expr
    b: Expr
    g: Expr
    h: Expr
    t0: float
    horizon: float
    f: Expr | None = None
    overrides: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if not (self.t0 >= 0.0):
            raise SpecError(f"t0 must be >= 0, got {self.t0}")
        if not (self.horizon > self.t0):
            raise SpecError(f"horizon must exceed t0, got [{self.t0}, {self.horizon}]")
        bad = set(self.overrides) - OVERRIDE_KEYS
        if bad:
            raise SpecError(f"unknown override keys: {sorted(bad)}")

    def grid(self, points: int) -> np.ndarray:
        return np.linspace(self.t0, self.horizon, points)

    def to_dict(self) -> dict:
        out = {
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "g": self.g.to_json(),
            "h": self.h.to_json(),
            "t0": self.t0,
            "horizon": self.horizon,
        }
        if self.f is not None:
            out["f"] = self.f.to_json()
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "EquationSpec":
        unknown = set(d) - _SPEC_KEYS
        if unknown:
            raise SpecError(f"unknown specification keys: {sorted(unknown)}")
        raw = d.get("overrides", {})
        if not isinstance(raw, dict):
            raise SpecError(f"overrides must be a JSON object, got {json.dumps(raw)}")
        try:
            overrides = {k: float(v) for k, v in raw.items()}
            bad = sorted(k for k, v in overrides.items() if not math.isfinite(v))
            if bad:
                raise SpecError(f"non-finite override values: {bad}")
            return cls(
                a=parse_expr(d["a"]),
                b=parse_expr(d["b"]),
                g=parse_expr(d["g"]),
                h=parse_expr(d["h"]),
                t0=float(d["t0"]),
                horizon=float(d["horizon"]),
                f=parse_expr(d["f"]) if "f" in d else None,
                overrides=overrides,
                name=str(d.get("name", "")),
            )
        except SpecError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"malformed specification: {exc}") from exc


def load_spec(path) -> EquationSpec:
    """Read a JSON specification file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    # Depth first, as the decoder recurses once a level.  The top-level object
    # holds the expressions, and text nests no deeper than it has brackets.
    if text.count("[") + text.count("{") > MAX_EXPR_DEPTH + 1:
        nesting = accumulate(map(_JSON_NEST.__getitem__, _JSON_SKIP.sub("", text)))
        if max(nesting, default=0) > MAX_EXPR_DEPTH + 1:
            raise SpecError(f"{path}: expressions nested deeper than {MAX_EXPR_DEPTH} levels")
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer of more digits than int() converts
        raise SpecError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError(f"top-level JSON object expected in {path}")
    return EquationSpec.from_dict(data)


def save_spec(spec: EquationSpec, path) -> None:
    Path(path).write_text(json.dumps(spec.to_dict(), indent=2) + "\n")


@dataclass(frozen=True)
class AssumptionCheck:
    """One structural assumption, its verdict, and violation witnesses."""

    check_id: str
    description: str
    passed: bool
    witnesses: tuple[float, ...] = ()


TREES = ("a", "b", "g", "h")

# each tree's grid extrema, in sampling order, and how each combines over blocks:
# sup |a|, inf a, sup a+, sup a-, sup b, inf b, sup (t - g(t)), and sup and inf of t - h(t)
_TREE_FIELDS = {
    "a": (("norm_a", np.max), ("inf_a", np.min), ("norm_a_plus", np.max), ("norm_a_minus", np.max)),
    "b": (("norm_b", np.max), ("inf_b", np.min)),
    "g": (("sigma", np.max),),
    "h": (("tau", np.max), ("delta", np.min)),
}
# the tree of each grid extremum, in _TREE_FIELDS order, and the infima among them
FIELD_TREE = {name: tree for tree, fields in _TREE_FIELDS.items() for name, _ in fields}
INFIMA = ("inf_a", "inf_b", "delta")


ENCLOSURE_CELLS = 1024


@dataclass(frozen=True)
class Enclosure:
    """Bounds that no grid sample can pass, from the interval extension of
    each tree on the ENCLOSURE_CELLS cells of one grid (``_cells``;
    ``Expr.enclose`` and ``lag_enclosure``).  ``bounds`` holds, for each
    grid extremum of _TREE_FIELDS, an upper bound of a supremum or a lower
    bound of an infimum; ``lag_g_inf`` is a lower bound of t - g(t), and
    ``denominators`` whether every quotient denominator is proven finite
    and of one strict sign.  A NaN bound is unproven.  The cells cover the
    window, and a cell's bounds hold the float value at each of its
    points, so what the bounds prove holds on every grid.

    ``cells`` maps each tree (a, b, and g and h for their lags t - g(t)
    and t - h(t)) to its lower and upper bounds per cell, with which
    ``Extrema.sample`` prunes that grid; it stays out of ``==``."""

    bounds: dict
    lag_g_inf: float
    denominators: bool
    cells: dict = field(compare=False, repr=False)

    @property
    def proves_checks(self) -> bool:
        """Whether no grid can fail the domain checks, a1_a, a1_b, a3_g,
        a3_h or a4: every margin holds, and both lags are finite."""
        b = self.bounds
        return (self.denominators and b["norm_a"] < 1.0 and b["inf_b"] > 0.0
                and self.lag_g_inf >= 0.0 and b["sigma"] < math.inf
                and b["delta"] >= 0.0 and b["tau"] < math.inf)

    def clears(self, name: str, override: float, slack: float) -> bool:
        """Whether no grid value of field ``name`` can refute an override of
        it: the bound exceeds a supremum's override, or falls below an
        infimum's, by at most ``slack``, in the float test that refutes."""
        bound = self.bounds[name]
        return (override - bound if name in INFIMA else bound - override) <= slack


def enclose(spec: EquationSpec, points: int) -> Enclosure:
    """The enclosure of a, b, t - g, t - h and every quotient denominator
    of ``spec`` on the cells of its grid of ``points`` points."""
    lo, hi = _spans(spec, points, *_cells(points))
    with np.errstate(all="ignore"):
        cells = {tree: (lag_enclosure if tree in ("g", "h") else Expr.enclose)(getattr(spec, tree), lo, hi)
                 for tree in TREES}
        (a_lo, a_hi), (b_lo, b_hi), (g_lo, g_hi), (h_lo, h_hi) = (
            (float(x[0].min()), float(x[1].max())) for x in cells.values())
        dens = [den.enclose(lo, hi) for tree in TREES for den in getattr(spec, tree).denominators()]
    bounds = dict(norm_a=float(np.maximum(abs(a_lo), abs(a_hi))), inf_a=a_lo,
                  norm_a_plus=float(np.maximum(a_hi, 0.0)), norm_a_minus=float(np.maximum(-a_lo, 0.0)),
                  norm_b=b_hi, inf_b=b_lo, sigma=g_hi, tau=h_hi, delta=h_lo)
    one_sign = all(np.all((d_lo > 0.0) & (d_hi < math.inf)) or np.all((d_hi < 0.0) & (d_lo > -math.inf))
                   for d_lo, d_hi in dens)
    return Enclosure(bounds, g_lo, bool(one_sign), cells)


class Extrema:
    """The grid extrema of one spec on ``grid_points`` points (the fields
    of _TREE_FIELDS), sampled one tree at a time.  ``sample`` samples the
    given trees (a, b, g or h) not known yet; ``values`` maps each field of
    the trees known to its grid extremum, ``sampled`` lists the trees
    sampled here, in order, and ``evaluated`` maps each of them to the
    grid nodes evaluated for it (``grid_points`` on the block pass, plus
    the nodes of a search that gave up).  ``enclosure`` is the spec's
    Enclosure on this grid, computed on first use, and ``constant_delays``
    what its bounds say of the lags."""

    def __init__(self, spec: EquationSpec, grid_points: int, values: dict | None = None,
                 enclosure: Enclosure | None = None):
        if grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        self.spec = spec
        self.grid_points = grid_points
        self.values = {} if values is None else dict(values)  # field -> grid extremum
        self.sampled: list[str] = []
        self.evaluated: dict[str, int] = {}
        self._enclosure = enclosure

    @property
    def enclosure(self) -> Enclosure:
        if self._enclosure is None:
            self._enclosure = enclose(self.spec, self.grid_points)
        return self._enclosure

    @property
    def constant_delays(self) -> bool:
        """Whether both lags t - g(t) and t - h(t) stay within 1e-9 max(1,
        window) of a constant, by the enclosure's bounds on its cells: no
        varying lag hides between samples, and a NaN bound is not constant."""
        enc = self.enclosure
        tol = 1e-9 * max(1.0, self.spec.horizon - self.spec.t0)
        return (enc.bounds["sigma"] - enc.lag_g_inf <= tol
                and enc.bounds["tau"] - enc.bounds["delta"] <= tol)

    def sample(self, trees) -> None:
        """Sample those of ``trees`` not known yet.  Each tree's max and min
        come from its probe cells and the cells whose bounds beat them
        (``_prune``), or, where that search gives up, from one block pass
        (``_sample``), which gives the same bits.  Either way a failure is
        raised where the evaluation meets it: the searches tree by tree in
        TREES order, then the block pass over the trees they left."""
        known = {FIELD_TREE[name] for name in self.values}
        todo = [t for t in TREES if t in trees and t not in known]
        if not todo:
            return
        points = self.grid_points
        rows = {}
        for tree in todo:
            extremes, self.evaluated[tree] = _prune(self.spec, points, tree, self.enclosure.cells[tree])
            if extremes is not None:
                rows[tree] = _tree_row(tree, None, *extremes)
        rest = [t for t in todo if t not in rows]
        if rest:
            block = _sample(self.spec, points, rest)[0]
            for tree in rest:
                rows[tree] = [block[name] for name, _ in _TREE_FIELDS[tree]]
                self.evaluated[tree] += points
        for tree in todo:
            self.values.update((name, float(v)) for (name, _), v in zip(_TREE_FIELDS[tree], rows[tree]))
        self.sampled += todo


class ValidationReport(Extrema):
    """Per-assumption verdicts, how they were reached, and the grid extrema.

    ``route`` is "enclosure" when the enclosure on ``cells`` cells proved
    every check but ``a3_reach_*`` and ``f_finite`` (proven or sampled on
    its own): no grid point of a, b, g or h was evaluated, and no tree is
    known until ``sample`` is called.  It is "grid" when the checks were
    sampled on the grid, in one pass that also took the extrema of every
    tree (NaN when a denominator check failed: the trees cannot then be
    sampled)."""

    def __init__(self, spec: EquationSpec, grid_points: int, checks, route: str,
                 values: dict | None, enclosure: Enclosure):
        super().__init__(spec, grid_points, values, enclosure)
        self.checks: tuple[AssumptionCheck, ...] = tuple(checks)
        self.route = route

    cells = ENCLOSURE_CELLS

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        self.sample(TREES)
        return {
            "passed": self.passed,
            "checks": [
                {
                    "id": c.check_id,
                    "description": c.description,
                    "passed": c.passed,
                    "witnesses": list(c.witnesses),
                }
                for c in self.checks
            ],
            "estimates": {name: self.values[name] for name in ("norm_a", "inf_b", "norm_b", "sigma", "tau", "delta")},
            "grid_points": self.grid_points,
        }


_MAX_WITNESSES = 8

# Points per sampling block.  Blocks of 8192 doubles (64 KiB) stay below
# glibc's mmap threshold, so the allocator reuses them instead of mapping
# fresh zeroed pages for every array, as it does for 100k-point arrays.
SAMPLE_BLOCK = 8192


def grid_blocks(spec: EquationSpec, points: int):
    """``spec.grid(points)`` in consecutive blocks of at most SAMPLE_BLOCK
    points, bit for bit (``_nodes``)."""
    for start in range(0, points, SAMPLE_BLOCK):
        yield _nodes(spec, points, np.arange(start, min(start + SAMPLE_BLOCK, points), dtype=float))


# A tree takes the block pass when more than this share of its cells can
# still beat the extrema of the probe cells.  Bounds that tie in every
# cell, as those of a lag t - (t + c) do, would have the search evaluate
# the grid anyway, cell by cell.
_PRUNE_MAX_SHARE = 0.5


def _nodes(spec: EquationSpec, points: int, idx: np.ndarray) -> np.ndarray:
    """The grid nodes of the non-decreasing indices ``idx``, bit for bit as
    ``linspace`` computes them: node i is i * step + t0, or i / (points - 1)
    * (horizon - t0) + t0 when the step underflows to 0, the last the horizon."""
    width = spec.horizon - spec.t0
    step = width / (points - 1)
    ts = idx * step if step else idx / (points - 1) * width
    ts += spec.t0
    if idx[-1] == points - 1:
        ts[idx == points - 1] = spec.horizon
    return ts


def _cells(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and last node index of each of the ENCLOSURE_CELLS cells of
    a grid: neighbours share the node k (points - 1) // ENCLOSURE_CELLS, and
    on fewer than ENCLOSURE_CELLS + 1 points some cells hold a single node."""
    ends = np.arange(ENCLOSURE_CELLS + 1) * (points - 1) // ENCLOSURE_CELLS
    return ends[:-1], ends[1:]


def _spans(spec: EquationSpec, points: int, first: np.ndarray, last: np.ndarray):
    """The times [node first[k], node last[k]], which hold the nodes
    first[k]..last[k] as the nodes before the last never decrease; a cell
    that ends at the horizon spans node points - 2, which can pass it."""
    lo, hi = _nodes(spec, points, first), _nodes(spec, points, last)
    end = last == points - 1
    lo[end] = np.minimum(lo[end], spec.horizon)
    hi[end] = max(_nodes(spec, points, np.array([points - 2]))[0], spec.horizon)
    return lo, hi


def _range_nodes(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The indices first[k], ..., last[k] of each range, in turn."""
    counts = last - first + 1
    starts = np.cumsum(counts) - counts
    return np.arange(starts[-1] + counts[-1]) + np.repeat(first - starts, counts)


def _maxima(spec: EquationSpec, points: int, tree: str, first: np.ndarray, last: np.ndarray,
            n: int) -> np.ndarray:
    """The max of a tree's values at the grid nodes first[k]..last[k] of
    the given cells and, with n = 2, of minus them; a NaN value makes both
    NaN.  The cells are evaluated SAMPLE_BLOCK // 2 // (nodes a cell) at a
    time, one at least.  Batches of up to a whole block raised the peak RSS
    of the simulate benchmark from 68.0 to 72.8 MB in 8 of 8 runs, where
    half blocks read 66.5 (2-CPU container, Python 3.11, numpy 2.4)."""
    best = np.full(n, -math.inf)
    batch = max(1, SAMPLE_BLOCK // 2 // int((last - first).max() + 1))
    for start in range(0, len(first), batch):
        idx = _range_nodes(first[start:start + batch], last[start:start + batch])
        v = _tree_values(spec, tree, _nodes(spec, points, idx))
        best = np.maximum(best, (v.max(),) if n == 1 else (v.max(), -v.min()))
    return best


def _prune(spec: EquationSpec, points: int, tree: str, bounds):
    """The grid max and min of one tree's values (``_tree_values``; the max
    alone for g), by branch and bound on the enclosure cells, and the nodes
    evaluated.

    It evaluates the probe cells: the cell of the highest upper bound and
    the cell of the lowest lower bound.  Then it evaluates, in one pass,
    every other cell whose bounds strictly beat the probe's extrema.  A cell
    that cannot beat them holds no node that changes them, so the extrema
    are the grid's, bit for bit.  They are None (the tree takes the block
    pass) when a cell bound is NaN, when more than _PRUNE_MAX_SHARE of the
    cells still beat the probe's extrema, or when an extremum is NaN or a
    zero, whose sign the block pass picks by the order of its reductions;
    a zero that the probe cells settle gives None before any other cell is
    evaluated."""
    # upper bounds of the values maximized: the tree's, and minus them but
    # for g, whose minimum no field reads
    goals = (bounds[1],) if tree == "g" else (bounds[1], -bounds[0])
    if any(np.isnan(goal).any() for goal in goals):
        return None, 0
    first, last = _cells(points)
    sizes = last - first + 1
    probe = np.array(sorted({int(np.argmax(goal)) for goal in goals}))
    best = _maxima(spec, points, tree, first[probe], last[probe], len(goals))
    evaluated = int(sizes[probe].sum())
    if any(top == 0.0 and not np.delete(goal > 0.0, probe).any() for goal, top in zip(goals, best)):
        return None, evaluated  # a zero extremum that no cell can beat
    with np.errstate(invalid="ignore"):  # an infinite bound against an equal maximum beats nothing
        excess = goals[0] - best[0]
        open_cells = (excess if len(goals) == 1 else np.fmax(excess, goals[1] - best[1])) > 0.0
    open_cells[probe] = False
    if open_cells.sum() > _PRUNE_MAX_SHARE * len(open_cells):
        return None, evaluated
    if open_cells.any():
        best = np.maximum(best, _maxima(spec, points, tree, first[open_cells], last[open_cells], len(goals)))
        evaluated += int(sizes[open_cells].sum())
    if not np.all((best != 0.0) & (best == best)):
        return None, evaluated
    return (best[0], -best[1] if len(best) == 2 else None), evaluated


class _Witnesses:
    """The first _MAX_WITNESSES flagged times of one check, over all blocks."""

    def __init__(self):
        self.times: list[float] = []

    def add(self, ts, bad_mask) -> None:
        room = _MAX_WITNESSES - len(self.times)
        if room > 0:
            self.times.extend(ts[np.flatnonzero(bad_mask)[:room]].tolist())

    def check(self, check_id, description) -> AssumptionCheck:
        return AssumptionCheck(check_id, description, not self.times, tuple(self.times))


_SAMPLED_CHECKS = (
    ("a1_a", "|a(t)| <= A0 < 1"),
    ("a1_b", "0 < b0 <= b(t) <= B0"),
    ("a3_g", "g(t) <= t"),
    ("a3_h", "h(t) <= t"),
    ("a4", "0 <= t-g(t) and 0 <= t-h(t) with finite bounds"),
)
_DOMAIN = "quotient denominator in {}(t) bounded away from zero"
_FORCING = ("f_finite", "forcing f(t) defined and finite")


def _a_norms(av, top, bottom):
    """sup |a|, sup a+ and sup a- over one block, from its max and min when
    both are nonzero: each is then one of them, 0.0, or a NaN where the
    block holds one.  With a zero they come from the whole block, as a
    max of signed zeros need not pick the same one."""
    if top != 0.0 and bottom != 0.0:
        return max(abs(top), abs(bottom)), max(top, 0.0), max(-bottom, 0.0)
    return np.max(np.abs(av)), np.max(np.maximum(av, 0.0)), np.max(np.maximum(-av, 0.0))


def _tree_values(spec: EquationSpec, tree: str, ts: np.ndarray) -> np.ndarray:
    """a or b at ``ts``, or the lag t - g(t) or t - h(t), as sampled."""
    v = getattr(spec, tree).eval_array(ts)
    return np.subtract(ts, v, out=v) if tree in ("g", "h") else v


def _tree_row(tree: str, values, top, bottom) -> tuple:
    """One tree's grid extrema (its fields of _TREE_FIELDS, in order) over
    ``values``, from their max and min."""
    if tree == "a":
        norm_a, a_plus, a_minus = _a_norms(values, top, bottom)
        return norm_a, bottom, a_plus, a_minus
    return (top,) if tree == "g" else (top, bottom)


def _sample(spec: EquationSpec, points: int, trees) -> tuple[dict, dict[str, AssumptionCheck]]:
    """One pass over the grid in blocks for ``trees`` (in TREES order): their
    grid extrema by field, and the checks of _SAMPLED_CHECKS by id (each
    settled only when its trees are sampled; a4 needs g and h).  Per block
    it takes the max and min of a, b, t - g and t - h, and builds a check's
    witness mask only where these show a possible violation or a non-finite
    value.  Per-block extrema combine exactly, so the values equal those of
    whole-grid reductions, whichever trees are sampled together.  An
    evaluation error is that of the first block where a tree fails, the
    first such tree in TREES order."""
    rows = []
    wit = {cid: _Witnesses() for cid, _ in _SAMPLED_CHECKS}
    for ts in grid_blocks(spec, points):
        v = {tree: _tree_values(spec, tree, ts) for tree in trees}
        row = []
        if "a" in v:
            av = v["a"]
            a_row = _tree_row("a", av, av.max(), av.min())
            row += a_row
            # each test and mask fails on NaN, so NaN values are witnesses
            if not a_row[0] < 1.0:
                wit["a1_a"].add(ts, ~(np.abs(av) < 1.0))
        if "b" in v:
            bv = v["b"]
            top, bottom = bv.max(), bv.min()
            row += _tree_row("b", bv, top, bottom)
            if not bottom > 0.0:
                wit["a1_b"].add(ts, ~(bv > 0.0))
        lags = {}
        for tree in ("g", "h"):
            if tree in v:
                lag = v[tree]
                top, bottom = lag.max(), lag.min()
                lags[tree] = lag, top, bottom
                row += _tree_row(tree, lag, top, bottom)
                if not bottom >= 0.0:
                    wit[f"a3_{tree}"].add(ts, lag < 0.0)
        if len(lags) == 2:
            (lag_g, g_top, g_bottom), (lag_h, h_top, h_bottom) = lags["g"], lags["h"]
            if not (-math.inf < g_bottom and g_top < math.inf and -math.inf < h_bottom and h_top < math.inf):
                wit["a4"].add(ts, ~np.isfinite(lag_g) | ~np.isfinite(lag_h))
        rows.append(row)
    per_block = np.array(rows)
    fields = [field for tree in trees for field in _TREE_FIELDS[tree]]
    values = {name: float(combine(per_block[:, i])) for i, (name, combine) in enumerate(fields)}
    return values, {cid: wit[cid].check(cid, description) for cid, description in _SAMPLED_CHECKS}


def _defined(e: Expr, ts: np.ndarray) -> np.ndarray:
    """e at ts, NaN where one of its quotient denominators is zero: each is
    evaluated only where those before it, the ones inside it first, are
    nonzero, so nothing raises."""
    dens = list(e.denominators())[::-1]  # a denominator after those inside it
    if not dens:
        return e.eval_array(ts)
    ok = np.ones(len(ts), dtype=bool)
    for den in dens:
        ok[ok] = den.eval_array(ts[ok]) != 0.0
    v = np.full(len(ts), math.nan)
    v[ok] = e.eval_array(ts[ok])
    return v


def _sign_changes(dv: np.ndarray, last_sign: float):
    """Where the values dv change sign from the value before, the first from
    ``last_sign`` (a NaN or a zero changes nothing), and the sign of the last."""
    sign = np.sign(dv)
    change = np.empty(len(dv), dtype=bool)
    change[0] = sign[0] * last_sign < 0
    change[1:] = sign[1:] * sign[:-1] < 0
    return change, sign[-1]


def _domain_check(label, den, spec, points) -> AssumptionCheck:
    """Zero, non-finite, or a sign change between adjacent samples (across
    block boundaries too) of one quotient denominator, NaN where one inside
    it is zero.  A block that is finite and of one strict sign can hold none
    of these except at its first point, against the last sign of the block
    before."""
    wit = _Witnesses()
    last_sign = 0.0
    for ts in grid_blocks(spec, points):
        dv = _defined(den, ts)
        bottom, top = dv.min(), dv.max()
        if 0.0 < bottom and top < math.inf or -math.inf < bottom and top < 0.0:
            sign = 1.0 if bottom > 0.0 else -1.0
            if sign * last_sign < 0:
                wit.add(ts[:1], [True])
            last_sign = sign
            continue
        change, last_sign = _sign_changes(dv, last_sign)
        wit.add(ts, (dv == 0.0) | ~np.isfinite(dv) | change)
    return wit.check(f"domain_{label}", _DOMAIN.format(label))


def _forcing_check(spec: EquationSpec, points: int) -> AssumptionCheck:
    """The forcing f is defined and finite at every grid point, and has no
    pole between two: proven when its enclosure on the cells of the grid is
    finite (a denominator that may reach 0 makes it NaN), else sampled in
    blocks.  A zero quotient denominator is a witness, as a non-finite value
    is and as a sign change of a denominator between adjacent samples
    (across block boundaries too) is."""
    f = spec.f
    with np.errstate(all="ignore"):
        f_lo, f_hi = f.enclose(*_spans(spec, points, *_cells(points)))
    if np.all((-math.inf < f_lo) & (f_hi < math.inf)):
        return AssumptionCheck(*_FORCING, True)
    dens = list(f.denominators())
    last_signs = [0.0] * len(dens)
    wit = _Witnesses()
    with np.errstate(all="ignore"):
        for ts in grid_blocks(spec, points):
            bad = ~np.isfinite(_defined(f, ts))
            for i, den in enumerate(dens):
                change, last_signs[i] = _sign_changes(_defined(den, ts), last_signs[i])
                bad |= change
            wit.add(ts, bad)
    return wit.check(*_FORCING)


def validate(spec: EquationSpec, grid_points: int = DEFAULT_GRID) -> ValidationReport:
    """Check the structural assumptions on a uniform grid over the window.

    Violations are report entries with witness times, never exceptions.
    Checked, in order: quotient denominators stay nonzero and do not change
    sign; |a| stays below 1 and b stays positive and bounded; g(t) <= t and
    h(t) <= t; the delays reach past t0 by the end of the window (finite-
    horizon proxy for the delays being unbounded above); the lags
    t - g(t) and t - h(t) are nonnegative with finite bounds; and, when
    the spec has a forcing f, that f is defined and finite.

    The spec's Enclosure comes first.  When it proves every check but the
    reach checks, no grid can fail them, and the grid is not sampled: the
    report's route is "enclosure", and its extrema are sampled on request.
    Otherwise the route is "grid": every check is sampled on the grid, and
    the grid extrema with them in one pass.  The reach checks evaluate g and
    h at the horizon on either route.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    enclosure = enclose(spec, grid_points)
    dens = [(label, den) for label in TREES for den in getattr(spec, label).denominators()]
    if enclosure.proves_checks:
        checks = [AssumptionCheck(f"domain_{label}", _DOMAIN.format(label), True) for label, _ in dens]
        sampled = {cid: AssumptionCheck(cid, description, True) for cid, description in _SAMPLED_CHECKS}
        values, route = None, "enclosure"
    else:
        # Quotient denominators first, over the whole grid: a zero
        # denominator would raise from the evaluation of a, b, g or h.
        checks = [_domain_check(label, den, spec, grid_points) for label, den in dens]
        if any(not c.passed for c in checks):
            # a singular coefficient cannot be sampled further; the domain
            # entries already carry witnesses
            return ValidationReport(spec, grid_points, checks, "grid",
                                    dict.fromkeys(FIELD_TREE, math.nan), enclosure)
        values, sampled = _sample(spec, grid_points, TREES)
        route = "grid"
    checks += [sampled[cid] for cid in ("a1_a", "a1_b", "a3_g", "a3_h")]
    # Finite-horizon proxy: on [t0, horizon] we can only check that the delay
    # arguments eventually exceed t0; unboundedness above is out of reach.
    for label, e in (("g", spec.g), ("h", spec.h)):
        try:
            reached = e.evaluate(spec.horizon) > spec.t0
        except ValueError:  # math.sin or math.cos of an infinity
            reached = False
        checks.append(AssumptionCheck(
            f"a3_reach_{label}", f"{label}(horizon) > t0 (finite-horizon proxy for {label} -> inf)",
            bool(reached), () if reached else (float(spec.horizon),)))
    checks.append(sampled["a4"])
    if spec.f is not None:
        checks.append(_forcing_check(spec, grid_points))
    return ValidationReport(spec, grid_points, checks, route, values, enclosure)
