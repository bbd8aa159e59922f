"""Equation model: (x(t) - a(t) x(g(t)))' = -b(t) x(h(t)) on a finite window.

An EquationSpec bundles the four coefficient/delay expressions, an optional
forcing term, the analysis window [t0, horizon] standing in for the right
half-line, and optional analytic overrides for the scalar bounds that the
stability tests consume.  ``validate`` checks the structural assumptions on
a dense uniform grid and reports witnesses for every violation, together
with the grid extrema that ``params.summarize`` turns into scalar bounds;
one pass over the grid, in blocks, computes both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expr import DomainError, Expr, parse_expr

# Override keys accepted in spec files.  The tilde_* entries bound the
# integrals of b over the delay intervals; limsup_int_b feeds the classical
# constant-delay baselines.
OVERRIDE_KEYS = frozenset({
    "norm_a", "inf_a", "norm_a_plus", "norm_a_minus",
    "norm_b", "inf_b", "sigma", "tau", "delta", "limit_tau",
    "tilde_tau", "tilde_delta", "tilde_sigma", "limsup_int_b",
})


_SPEC_KEYS = frozenset({"a", "b", "g", "h", "t0", "horizon", "f", "overrides", "name"})


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
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed specification: {exc}") from exc


def load_spec(path) -> EquationSpec:
    """Read a JSON specification file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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


@dataclass(frozen=True)
class GridExtrema:
    """Grid extrema of the coefficients and lags over ``grid_points``
    uniform samples of the window: sup |a|, inf a, sup a+, sup a-, sup b,
    inf b, sup (t - g(t)), and sup and inf of t - h(t)."""

    norm_a: float
    inf_a: float
    norm_a_plus: float
    norm_a_minus: float
    norm_b: float
    inf_b: float
    sigma: float
    tau: float
    delta: float
    grid_points: int


@dataclass(frozen=True)
class ValidationReport(GridExtrema):
    """Per-assumption verdicts plus the grid extrema they were sampled with."""

    checks: tuple[AssumptionCheck, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
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
            "estimates": {
                "norm_a": self.norm_a,
                "inf_b": self.inf_b,
                "norm_b": self.norm_b,
                "sigma": self.sigma,
                "tau": self.tau,
                "delta": self.delta,
            },
            "grid_points": self.grid_points,
        }


_MAX_WITNESSES = 8

# Points per sampling block.  Blocks of 8192 doubles (64 KiB) stay below
# glibc's mmap threshold, so the allocator reuses them instead of mapping
# fresh zeroed pages for every array, as it does for 100k-point arrays.
SAMPLE_BLOCK = 8192


def grid_blocks(spec: EquationSpec, points: int):
    """``spec.grid(points)`` in consecutive blocks of at most SAMPLE_BLOCK
    points, bit for bit: each node is i * step + t0 and the last is the
    horizon, as numpy's ``linspace`` computes them."""
    step = (spec.horizon - spec.t0) / (points - 1)
    for start in range(0, points, SAMPLE_BLOCK):
        ts = np.arange(start, min(start + SAMPLE_BLOCK, points), dtype=float)
        ts *= step
        ts += spec.t0
        if start + SAMPLE_BLOCK >= points:
            ts[-1] = spec.horizon
        yield ts


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


# how each field of GridExtrema combines over blocks, in field order
_COMBINE = (np.max, np.min, np.max, np.max, np.max, np.min, np.max, np.max, np.min)


def _a_norms(av, top, bottom):
    """sup |a|, sup a+ and sup a- over one block, from its max and min when
    both are nonzero: each is then one of them, 0.0, or a NaN where the
    block holds one.  With a zero they come from the whole block, as a
    max of signed zeros need not pick the same one."""
    if top != 0.0 and bottom != 0.0:
        return max(abs(top), abs(bottom)), max(top, 0.0), max(-bottom, 0.0)
    return np.max(np.abs(av)), np.max(np.maximum(av, 0.0)), np.max(np.maximum(-av, 0.0))


def _sample(spec: EquationSpec, points: int) -> tuple[GridExtrema, dict[str, AssumptionCheck]]:
    """One pass over the grid in blocks: the grid extrema, and the checks of
    _SAMPLED_CHECKS by id.  Per block it takes the max and min of a, b,
    t - g and t - h, and builds a check's witness mask only where these
    show a possible violation or a non-finite value.  Per-block extrema
    combine exactly, so the values equal those of whole-grid reductions."""
    rows = []
    wit = {cid: _Witnesses() for cid, _ in _SAMPLED_CHECKS}
    for ts in grid_blocks(spec, points):
        try:
            av = spec.a.eval_array(ts)
            bv = spec.b.eval_array(ts)
            lag_g = spec.g.eval_array(ts)
            lag_h = spec.h.eval_array(ts)
        except DomainError:
            # raise what whole-grid evaluation in the order a, b, g, h raises
            for e in (spec.a, spec.b, spec.g, spec.h):
                e.eval_array(spec.grid(points))
            raise
        np.subtract(ts, lag_g, out=lag_g)
        np.subtract(ts, lag_h, out=lag_h)
        a_top, a_bottom = av.max(), av.min()
        b_top, b_bottom = bv.max(), bv.min()
        g_top, g_bottom = lag_g.max(), lag_g.min()
        h_top, h_bottom = lag_h.max(), lag_h.min()
        norm_a, a_plus, a_minus = _a_norms(av, a_top, a_bottom)
        rows.append((norm_a, a_bottom, a_plus, a_minus, b_top, b_bottom, g_top, h_top, h_bottom))
        # each test fails on NaN, so NaN blocks are searched as well
        if not norm_a < 1.0:
            wit["a1_a"].add(ts, np.abs(av) >= 1.0)
        if not b_bottom > 0.0:
            wit["a1_b"].add(ts, bv <= 0.0)
        if not g_bottom >= 0.0:
            wit["a3_g"].add(ts, lag_g < 0.0)
        if not h_bottom >= 0.0:
            wit["a3_h"].add(ts, lag_h < 0.0)
        if not (-math.inf < g_bottom and g_top < math.inf and -math.inf < h_bottom and h_top < math.inf):
            wit["a4"].add(ts, ~np.isfinite(lag_g) | ~np.isfinite(lag_h))
    per_block = np.array(rows)
    extrema = GridExtrema(*(float(f(per_block[:, i])) for i, f in enumerate(_COMBINE)),
                          grid_points=points)
    return extrema, {cid: wit[cid].check(cid, description) for cid, description in _SAMPLED_CHECKS}


def grid_extrema(spec: EquationSpec, grid_points: int) -> GridExtrema:
    """The grid extrema alone, without the structural checks."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    return _sample(spec, grid_points)[0]


def _domain_check(label, den, spec, points) -> AssumptionCheck:
    """Zero, non-finite, or a sign change between adjacent samples (across
    block boundaries too) of one quotient denominator.  A block that is
    finite and of one strict sign can hold none of these except at its
    first point, against the last sign of the block before."""
    wit = _Witnesses()
    last_sign = 0.0
    for ts in grid_blocks(spec, points):
        dv = den.eval_array(ts)
        bottom, top = dv.min(), dv.max()
        if 0.0 < bottom and top < math.inf or -math.inf < bottom and top < 0.0:
            sign = 1.0 if bottom > 0.0 else -1.0
            if sign * last_sign < 0:
                wit.add(ts[:1], [True])
            last_sign = sign
            continue
        sign = np.sign(dv)
        sign_change = np.empty(len(ts), dtype=bool)
        sign_change[0] = sign[0] * last_sign < 0
        sign_change[1:] = sign[1:] * sign[:-1] < 0
        wit.add(ts, (dv == 0.0) | ~np.isfinite(dv) | sign_change)
        last_sign = sign[-1]
    return wit.check(f"domain_{label}", f"quotient denominator in {label}(t) bounded away from zero")


def validate(spec: EquationSpec, grid_points: int = 100_000) -> ValidationReport:
    """Check the structural assumptions on a uniform grid over the window.

    Violations are report entries with witness times, never exceptions.
    Checked, in order: quotient denominators stay nonzero and do not change
    sign; |a| stays below 1 and b stays positive and bounded; g(t) <= t and
    h(t) <= t; the delays reach past t0 by the end of the window (finite-
    horizon proxy for the delays being unbounded above); the lags
    t - g(t) and t - h(t) are nonnegative with finite bounds.  The report
    carries the grid extrema, sampled in the same pass as the checks.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    # Quotient denominators first, over the whole grid: a zero denominator
    # would raise from the evaluation of a, b, g or h.
    checks = [_domain_check(label, den, spec, grid_points)
              for label, e in (("a", spec.a), ("b", spec.b), ("g", spec.g), ("h", spec.h))
              for den in e.denominators()]
    if any(not c.passed for c in checks):
        # a singular coefficient cannot be sampled further; the domain
        # entries already carry witnesses
        return ValidationReport(*(float("nan"),) * len(_COMBINE), grid_points, tuple(checks))

    extrema, sampled = _sample(spec, grid_points)
    checks += [sampled[cid] for cid in ("a1_a", "a1_b", "a3_g", "a3_h")]
    # Finite-horizon proxy: on [t0, horizon] we can only check that the delay
    # arguments eventually exceed t0; unboundedness above is out of reach.
    for label, e in (("g", spec.g), ("h", spec.h)):
        reached = e.evaluate(spec.horizon) > spec.t0
        checks.append(AssumptionCheck(
            f"a3_reach_{label}", f"{label}(horizon) > t0 (finite-horizon proxy for {label} -> inf)",
            bool(reached), () if reached else (float(spec.horizon),)))
    checks.append(sampled["a4"])
    return ValidationReport(**vars(extrema), checks=tuple(checks))
