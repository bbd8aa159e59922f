"""Equation model: (x(t) - a(t) x(g(t)))' = -b(t) x(h(t)) on a finite window.

An EquationSpec bundles the four coefficient/delay expressions, an optional
forcing term, the analysis window [t0, horizon] standing in for the right
half-line, and optional analytic overrides for the scalar bounds that the
stability tests consume.  ``validate`` checks the structural assumptions on
a dense uniform grid and reports witnesses for every violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expr import Expr, parse_expr

# Override keys accepted in spec files.  The tilde_* entries bound the
# integrals of b over the delay intervals; limsup_int_b feeds the classical
# constant-delay baselines.
OVERRIDE_KEYS = frozenset({
    "norm_a", "inf_a", "norm_a_plus", "norm_a_minus",
    "norm_b", "inf_b", "sigma", "tau", "delta", "limit_tau",
    "tilde_tau", "tilde_delta", "tilde_sigma", "limsup_int_b",
})


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
class ValidationReport:
    """Per-assumption verdicts plus grid-estimated scalar bounds."""

    checks: tuple[AssumptionCheck, ...]
    norm_a: float
    inf_b: float
    norm_b: float
    sigma: float
    tau: float
    delta: float
    grid_points: int

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


def _check(check_id, description, ts, bad_mask) -> AssumptionCheck:
    idx = np.nonzero(bad_mask)[0]
    if idx.size == 0:
        return AssumptionCheck(check_id, description, True)
    wit = tuple(float(ts[i]) for i in idx[:_MAX_WITNESSES])
    return AssumptionCheck(check_id, description, False, wit)


def validate(spec: EquationSpec, grid_points: int = 100_000) -> ValidationReport:
    """Check the structural assumptions on a uniform grid over the window.

    Violations are report entries with witness times, never exceptions.
    Checked, in order: quotient denominators stay nonzero and do not change
    sign; |a| stays below 1 and b stays positive and bounded; g(t) <= t and
    h(t) <= t; the delays reach past t0 by the end of the window (finite-
    horizon proxy for the delays being unbounded above); the lags
    t - g(t) and t - h(t) are nonnegative with finite bounds.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    ts = spec.grid(grid_points)
    checks: list[AssumptionCheck] = []

    # Quotient denominators: zero or a sign change across adjacent samples
    # means the expression is not bounded away from zero on the window.
    for label, e in (("a", spec.a), ("b", spec.b), ("g", spec.g), ("h", spec.h)):
        for den in e.denominators():
            dv = den.eval_array(ts)
            bad = (dv == 0.0) | ~np.isfinite(dv)
            sign_change = np.zeros_like(bad)
            sign_change[1:] = np.sign(dv[1:]) * np.sign(dv[:-1]) < 0
            checks.append(_check(
                f"domain_{label}",
                f"quotient denominator in {label}(t) bounded away from zero",
                ts, bad | sign_change,
            ))
    if any(not c.passed for c in checks):
        # a singular coefficient cannot be sampled further; the domain
        # entries already carry witnesses
        nan = float("nan")
        return ValidationReport(checks=tuple(checks), norm_a=nan, inf_b=nan,
                                norm_b=nan, sigma=nan, tau=nan, delta=nan,
                                grid_points=grid_points)

    av = spec.a.eval_array(ts)
    bv = spec.b.eval_array(ts)
    gv = spec.g.eval_array(ts)
    hv = spec.h.eval_array(ts)

    norm_a = float(np.max(np.abs(av)))
    inf_b = float(np.min(bv))
    norm_b = float(np.max(bv))
    lag_g = ts - gv
    lag_h = ts - hv
    sigma = float(np.max(lag_g))
    tau = float(np.max(lag_h))
    delta = float(np.min(lag_h))

    checks.append(_check("a1_a", "|a(t)| <= A0 < 1", ts, np.abs(av) >= 1.0))
    checks.append(_check("a1_b", "0 < b0 <= b(t) <= B0", ts, bv <= 0.0))
    checks.append(_check("a3_g", "g(t) <= t", ts, lag_g < 0.0))
    checks.append(_check("a3_h", "h(t) <= t", ts, lag_h < 0.0))
    # Finite-horizon proxy: on [t0, horizon] we can only check that the delay
    # arguments eventually exceed t0; unboundedness above is out of reach.
    tail = np.array([spec.horizon])
    checks.append(AssumptionCheck(
        "a3_reach_g", "g(horizon) > t0 (finite-horizon proxy for g -> inf)",
        bool(spec.g.evaluate(spec.horizon) > spec.t0),
        () if spec.g.evaluate(spec.horizon) > spec.t0 else (float(tail[0]),),
    ))
    checks.append(AssumptionCheck(
        "a3_reach_h", "h(horizon) > t0 (finite-horizon proxy for h -> inf)",
        bool(spec.h.evaluate(spec.horizon) > spec.t0),
        () if spec.h.evaluate(spec.horizon) > spec.t0 else (float(tail[0]),),
    ))
    checks.append(_check("a4", "0 <= t-g(t) and 0 <= t-h(t) with finite bounds",
                         ts, ~np.isfinite(lag_g) | ~np.isfinite(lag_h)))

    return ValidationReport(
        checks=tuple(checks),
        norm_a=norm_a, inf_b=inf_b, norm_b=norm_b,
        sigma=sigma, tau=tau, delta=delta,
        grid_points=grid_points,
    )
