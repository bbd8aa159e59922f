"""Constructive objects behind the stability tests.

The shift-and-scale operator (S y)(t) = a(t) y(g(t)) (zero once g drops
below t0), its geometric-series inverse (E - S)^{-1} = sum_j S^j with a
certified truncation, and the infinite-series coefficient
B(t) = b(t) sum_j prod_{k<j} a(h(g^[k](t))) of the equivalent non-neutral
equation, where g^[k] is the k-fold composition of g.  An empty product
equals one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eqspec import EquationSpec
from .params import ParameterSummary

TAIL_TOL = 1e-10  # bound on the discarded tail of every truncated series


@dataclass(frozen=True)
class TruncationCert:
    """Certificate for a truncated geometric-tail series.

    ``terms`` were kept; the discarded tail is bounded by ``tail_bound``
    (ratio^terms * scale / (1 - ratio)), which is <= ``tol`` and minimal in
    the number of terms; ``tol`` is ``TAIL_TOL``.
    """

    terms: int
    tail_bound: float
    tol: float


def _terms_for(ratio: float, scale: float, tol: float) -> int:
    """Smallest J with ratio^J * scale / (1 - ratio) <= tol."""
    if scale == 0.0 or ratio == 0.0:
        return 1
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"series ratio must lie in (0, 1), got {ratio}")
    target = tol * (1.0 - ratio) / scale
    if target >= 1.0:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(ratio)))


def _tail(ratio: float, scale: float, terms: int) -> float:
    return ratio ** terms * scale / (1.0 - ratio) if ratio > 0.0 else 0.0


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function sampled on a uniform grid, linearly interpolated inside its
    domain; queries below t0 return 0 (the operator's cut-off convention)."""

    t0: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if len(self.values) < 2:
            raise ValueError("need at least two samples")

    @property
    def t1(self) -> float:
        return self.t0 + self.step * (len(self.values) - 1)

    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(len(self.values))

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        inside, j, frac = self._weights(ts)
        out = np.zeros(ts.shape)
        out[inside] = self.values[j] * (1.0 - frac) + self.values[j + 1] * frac
        return out

    def _weights(self, ts: np.ndarray):
        """The queries at or above t0, and their interpolation indices and weights."""
        if np.any(ts > self.t1 + 1e-9 * self.step):
            raise ValueError("query above the sampled domain")
        inside = ts >= self.t0
        pos = (ts[inside] - self.t0) / self.step
        j = np.clip(np.floor(pos).astype(np.int64), 0, len(self.values) - 2)
        return inside, j, pos - j

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _shift(spec: EquationSpec, y: SampledFunction):
    """v -> S v for values v on y's grid, with g, a and the interpolation
    weights at g computed once."""
    ts = y.times()
    gv, av = spec.g.eval_array(ts), spec.a.eval_array(ts)
    keep = gv >= spec.t0
    a_keep, (inside, j, frac) = av[keep], y._weights(gv[keep])

    def shift(v: np.ndarray) -> np.ndarray:
        at_g = np.zeros(len(a_keep))
        at_g[inside] = v[j] * (1.0 - frac) + v[j + 1] * frac
        out = np.zeros_like(av)
        out[keep] = a_keep * at_g
        return out
    return shift


def apply_S(spec: EquationSpec, y: SampledFunction) -> SampledFunction:
    """One application of the neutral shift-and-scale operator on y's grid."""
    return SampledFunction(y.t0, y.step, _shift(spec, y)(y.values))


def neumann_inverse(spec: EquationSpec, y: SampledFunction) -> tuple[SampledFunction, TruncationCert]:
    """Apply (E - S)^{-1} = sum_j S^j to y with a geometric tail of at
    most ``TAIL_TOL``.

    ||a|| is the spec's norm_a override when it has one, else the sampled
    sup of |a| on y's grid.  The result satisfies
    ||result|| <= ||y|| / (1 - ||a||) + TAIL_TOL, which is asserted.
    """
    if "norm_a" in spec.overrides:
        norm_a = float(spec.overrides["norm_a"])
    else:
        norm_a = float(np.max(np.abs(spec.a.eval_array(y.times()))))
    if not (0.0 <= norm_a < 1.0):
        raise ValueError(f"need ||a|| < 1 for the geometric series, got {norm_a}")

    scale = y.sup_norm()
    terms = _terms_for(norm_a, scale, TAIL_TOL)
    total = y.values.copy()
    term = y.values
    if terms > 1:
        shift = _shift(spec, y)
    for _ in range(terms - 1):
        term = shift(term)
        total += term
    out = SampledFunction(y.t0, y.step, total)
    tail = _tail(norm_a, scale, terms)
    bound = scale / (1.0 - norm_a) + TAIL_TOL
    assert out.sup_norm() <= bound + 1e-12 * max(1.0, bound), (
        f"inverse norm {out.sup_norm()} exceeds certified bound {bound}")
    return out, TruncationCert(terms, tail, TAIL_TOL)


def big_B(
    spec: EquationSpec,
    t: float,
    summary: ParameterSummary,
    positive_part: bool = False,
) -> tuple[float, TruncationCert]:
    """Series coefficient of the equivalent infinite-delay equation at time t.

    The ratio and bounds come from the caller's ``summary`` of ``spec``, and
    the terms kept leave a tail of at most ``TAIL_TOL``.  Factors
    a(h(g^[k](t))) use the convention a = a0 below t0; the ``positive_part``
    variant uses a+ factors with the convention a = 0 below t0.  In the
    standard variant (which presumes inf a > 0) the value is asserted to lie
    in [b0/(1 - a0), ||b||/(1 - ||a||)].
    """
    ratio = summary.norm_a_plus if positive_part else summary.norm_a
    if not positive_part and summary.inf_a <= 0.0:
        raise ValueError("standard series coefficient requires inf a > 0")

    terms = _terms_for(ratio, summary.norm_b, TAIL_TOL) if ratio > 0.0 else 1
    bt = spec.b.evaluate(t)
    a_at, g_at, h_at = spec.a.evaluate, spec.g.evaluate, spec.h.evaluate
    total = 0.0
    product = 1.0  # empty product
    u = float(t)
    for j in range(terms):
        total += product
        arg = h_at(u)
        if arg >= spec.t0:
            factor = a_at(arg)
        else:
            factor = 0.0 if positive_part else summary.inf_a
        if positive_part:
            factor = max(factor, 0.0)
        product *= factor
        u = g_at(u)
    value = bt * total
    tail = _tail(ratio, summary.norm_b, terms)

    if not positive_part:
        lo = summary.inf_b / (1.0 - summary.inf_a)
        hi = summary.norm_b / (1.0 - summary.norm_a)
        slack = tail + 1e-9 * max(1.0, hi)
        assert lo - slack <= value <= hi + slack, (
            f"series coefficient {value} at t={t} outside [{lo}, {hi}]")
    return value, TruncationCert(terms, tail, TAIL_TOL)
