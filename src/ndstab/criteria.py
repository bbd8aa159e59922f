"""Explicit stability tests for the neutral equation.

Each check returns a CriterionVerdict carrying applicability (with a
reason), satisfaction, the margin of the decisive strict inequality
(right-hand side minus left-hand side; positive means satisfied), the
witness alpha for alpha-parameterized tests, and the claimed stability
kind.  Margins are reported only for applicable verdicts; inapplicable
ones carry NaN so that "satisfied iff margin > 0" holds unconditionally.

The alpha-parameterized tests are AlphaTest records of one shape,
"lhs < rhs(alpha), admissible when alpha * scale <= cap", and their alpha
intervals and amplitude bands come from the same records, each edge at the
float where the check flips.  The main test
(THEOREM1) gates alpha by the lag scale tau0 = (1 - ||a||) / (e ||b||)
against delta and compares tau ||b|| + sigma ||a|| ||b|| (1 - a0) /
(1 - ||a||)^2 against (1 - ||a||) (1 + alpha/e).  The sign-split variant
(THEOREM2) uses the positive-part norm ||a+|| and adds a ||a-|| term; the
integral variant (THEOREM3) uses bounds on the integrals of b over the
delay intervals and claims asymptotic stability.  Two classical
constant-delay baselines are included for comparison.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, replace
from types import SimpleNamespace

from .eqspec import EquationSpec
from .params import (
    IntegralsOfB,
    ParameterSummary,
    QuadratureError,
    SummaryError,
    estimate_limsup_int_b,
    integral_summary,
    summarize,
)

UNIFORM_EXPONENTIAL = "uniform-exponential"
ASYMPTOTIC = "asymptotic"

CERTIFIED = "certified"
NUMERIC = "numerically-supported"

_NAN = float("nan")


class MissingLimit(ValueError):
    """The limit of t - h(t) is required but no analytic override exists."""


class NotConstant(ValueError):
    """The test needs a constant neutral coefficient."""


class NotNonDelayed(ValueError):
    """The test needs h(t) = t (no retarded delay)."""


@dataclass(frozen=True)
class CriterionVerdict:
    """Auditable outcome of one stability test."""

    criterion: str
    applicable: bool
    reason: str
    satisfied: bool
    margin: float
    witness_alpha: float | None
    stability_kind: str
    certification: str
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "applicable": self.applicable,
            "satisfied": self.satisfied,
            "margin": None if math.isnan(self.margin) else self.margin,
            "alpha": self.witness_alpha,
            "kind": self.stability_kind,
            "certification": self.certification,
            "notes": [self.reason] + list(self.notes) if self.reason else list(self.notes),
        }


@dataclass(frozen=True)
class AlphaInterval:
    """Feasible alpha range, with endpoint openness flags."""

    lower: float
    upper: float
    lower_open: bool
    upper_open: bool
    empty: bool

    def contains(self, alpha: float) -> bool:
        if self.empty:
            return False
        above = alpha > self.lower if self.lower_open else alpha >= self.lower
        below = alpha < self.upper if self.upper_open else alpha <= self.upper
        return above and below

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


_EMPTY_INTERVAL = AlphaInterval(_NAN, _NAN, True, True, True)


def _not_applicable(criterion, reason, kind, cert, alpha=None, notes=()):
    return CriterionVerdict(criterion, False, reason, False, _NAN, alpha, kind, cert, tuple(notes))


def _decide(criterion, margin, kind, cert, alpha=None, notes=()):
    return CriterionVerdict(criterion, True, "", margin > 0.0, margin, alpha, kind, cert, tuple(notes))


# -- characteristic lag scales ------------------------------------------------

def tau0(summary: ParameterSummary) -> float:
    """Lag scale (1 - ||a||) / (e ||b||)."""
    if summary.norm_b <= 0.0:
        raise ValueError("norm_b must be positive")
    return (1.0 - summary.norm_a) / (math.e * summary.norm_b)


def tau_bar(summary: ParameterSummary) -> float:
    """Sign-split lag scale (1 - ||a+||) / (e ||b||)."""
    if summary.norm_b <= 0.0:
        raise ValueError("norm_b must be positive")
    return (1.0 - summary.norm_a_plus) / (math.e * summary.norm_b)


# -- the alpha-parameterized tests ---------------------------------------------

def _rhs(s: ParameterSummary, alpha: float) -> float:
    return (1.0 - s.norm_a) * (1.0 + alpha / math.e)


@dataclass(frozen=True)
class AlphaTest:
    """One alpha-parameterized test: ``lhs(s) < rhs(s, alpha)`` (and ``0 <
    lower(s, alpha)`` if given), admissible when ``alpha * scale <= cap`` for
    ``(scale, cap) = gate(s)`` (``<`` when ``strict``).  ``requires(s)``
    returns the reason another hypothesis fails, or raises when the test
    cannot be posed; ``gate_message`` formats a failed gate from ``op``,
    ``x = alpha * scale`` and ``cap``.  ``rhs`` rises and ``lower`` falls,
    affinely, in alpha.
    """

    name: str
    kind: str
    fields: tuple[str, ...]
    lhs: Callable[..., float]
    gate: Callable[..., tuple[float, float]] = lambda s: (0.0, 0.0)
    gate_message: str = ""
    rhs: Callable[..., float] = _rhs
    lower: Callable[..., float] | None = None
    requires: Callable[..., str | None] = lambda s: None
    strict: bool = False
    notes: tuple[str, ...] = ()

    def _gate_fails(self, summary, alpha: float) -> bool:
        scale, cap = self.gate(summary)
        return alpha * scale >= cap if self.strict else alpha * scale > cap

    def _outside(self, summary, alpha: float) -> bool:  # true from some alpha up
        return self._gate_fails(summary, alpha) or (
            self.lower is not None and not self.lower(summary, alpha) > 0.0)

    def check(self, summary: ParameterSummary, alpha: float) -> CriterionVerdict:
        """The verdict at a fixed alpha in [0, 1]."""
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        reason = self.requires(summary)
        cert = _cert(summary, self.fields)
        if reason is None and self._gate_fails(summary, alpha):
            scale, cap = self.gate(summary)
            reason = self.gate_message.format(op="<" if self.strict else "<=", x=alpha * scale, cap=cap)
        if reason is not None:
            return _not_applicable(self.name, reason, self.kind, cert, alpha, self.notes)
        margin = self.rhs(summary, alpha) - self.lhs(summary)
        if self.lower is not None:
            margin = min(self.lower(summary, alpha), margin)
        return _decide(self.name, margin, self.kind, cert, alpha, self.notes)

    def best_alpha(self, summary: ParameterSummary) -> float:
        """min(1, cap / scale), where the margin (increasing in alpha) is
        largest under the non-strict gate.  cap / scale can round up past
        the gate, so it steps down to the first alpha that passes."""
        scale, cap = self.gate(summary)
        if scale <= 0.0:
            return 1.0
        alpha = min(1.0, cap / scale)
        while alpha * scale > cap:
            alpha = math.nextafter(alpha, 0.0)
        return alpha

    def alpha_interval(self, summary: ParameterSummary) -> AlphaInterval:
        """The alphas in [0, 1] at which ``check`` is applicable and
        satisfied, with each edge where ``check`` flips.  A strict
        inequality's edge is open, at the nearest alpha outside; the
        non-strict gate's edge, and one clipped at 0 or 1, is closed."""
        if self.requires(summary) is not None:
            return _EMPTY_INTERVAL
        lhs, (scale, cap) = self.lhs(summary), self.gate(summary)
        r0, r1 = self.rhs(summary, 0.0), self.rhs(summary, 1.0)

        def holds(alpha):  # the decisive inequality, true from some alpha up
            return self.rhs(summary, alpha) - lhs > 0.0

        if not holds(1.0) or self._outside(summary, 0.0):
            return _EMPTY_INTERVAL
        lower, lower_open = 0.0, False
        if not holds(0.0):
            edge = _edge(holds, min(1.0, max(0.0, (lhs - r0) / (r1 - r0))))
            lower, lower_open = math.nextafter(edge, 0.0), True
        upper, upper_open = 1.0, False
        if self._outside(summary, 1.0):
            guess = cap / scale if scale > 0.0 else 1.0
            if self.lower is not None:
                l0 = self.lower(summary, 0.0)
                guess = min(guess, l0 / (l0 - self.lower(summary, 1.0)))
            upper = _edge(lambda alpha: self._outside(summary, alpha), min(1.0, max(0.0, guess)))
            upper_open = self.strict or not self._gate_fails(summary, upper)
            if not upper_open:
                upper = math.nextafter(upper, 0.0)
        if lower > upper or (lower == upper and (lower_open or upper_open)):
            return _EMPTY_INTERVAL
        return AlphaInterval(lower, upper, lower_open, upper_open, False)

    def r_band(self, summary: ParameterSummary, alpha: float) -> tuple[float, float]:
        """The band [r_lower, r_upper) of r at which ``check(summary.scale_b(r),
        alpha)`` holds, for a test without ``lower`` whose ``lhs`` is linear in
        b and whose scale / cap varies as 1 / b: the least r whose gate passes
        and the least r at which the decisive inequality fails.  A probe at r
        writes r * b into one copy of the summary, not a new summary."""
        if self.requires(summary) is not None:
            return math.inf, -math.inf
        probe = SimpleNamespace(**vars(summary))

        def at(r):  # summary.scale_b(r) to callables that read b as norm_b and inf_b
            probe.norm_b, probe.inf_b = r * summary.norm_b, r * summary.inf_b
            ParameterSummary.__post_init__(probe)  # raises where scale_b(r) does
            return probe

        scale, cap = self.gate(summary)
        if alpha * scale > 0.0 and cap > 0.0:
            r_lower = _edge(lambda r: not self._gate_fails(at(r), alpha), alpha * scale / cap)
        else:
            r_lower = math.inf if self._gate_fails(summary, alpha) else 0.0

        def fails(r):  # the decisive inequality, from some r up
            s = at(r)
            return not self.rhs(s, alpha) - self.lhs(s) > 0.0

        lhs = self.lhs(summary)
        return r_lower, _edge(fails, self.rhs(summary, alpha) / lhs) if lhs else math.inf


_F64, _I64 = struct.Struct("d"), struct.Struct("q")
_INF_KEY = _I64.unpack(_F64.pack(math.inf))[0]


def _edge(flips: Callable[[float], bool], x: float) -> float:
    """The least float in (0, inf] at which ``flips``, false at 0 and true at
    inf, turns true.  From the guess ``x`` it steps one float (one bit
    pattern) at a time, doubling the stride until ``flips`` changes, then
    bisects, so a guess a few floats off costs a few calls.  From a guess
    >= 0 the first step is ``math.nextafter``, so a guess at the edge or one
    float off it costs two calls and no bit-pattern round trip."""
    at = lambda k: flips(_F64.unpack(_I64.pack(k))[0])
    if not x >= 0.0:
        lo = hi = _I64.unpack(_F64.pack(x))[0]
        stride, down = 1, at(hi)
    elif flips(x):
        below = math.nextafter(x, 0.0)
        if not below or not flips(below):
            return x
        hi, stride, down = _I64.unpack(_F64.pack(below))[0], 2, True
    else:
        above = math.nextafter(x, math.inf)
        if above == math.inf or flips(above):
            return above
        lo, stride, down = _I64.unpack(_F64.pack(above))[0], 2, False
    if down:
        while (lo := max(hi - stride, 0)) and at(lo):
            hi, stride = lo, 2 * stride
    else:
        while (hi := min(lo + stride, _INF_KEY)) < _INF_KEY and not at(hi):
            lo, stride = hi, 2 * stride
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if at(mid) else (mid, hi)
    return _F64.unpack(_I64.pack(hi))[0]


def _positive_a(s: ParameterSummary) -> str | None:
    return "a(t) >= a0 > 0 fails" if s.inf_a <= 0.0 else None


def _sigma_term(s: ParameterSummary) -> float:
    one_minus = 1.0 - s.norm_a
    return s.sigma * s.norm_a * s.norm_b * (1.0 - s.inf_a) / (one_minus * one_minus)


def _cert(s: ParameterSummary, fields) -> str:
    return CERTIFIED if s.certified(fields) else NUMERIC


# -- main test ------------------------------------------------------------------

_FIELDS_T1 = ("norm_a", "inf_a", "norm_b", "sigma", "tau", "delta")

# Main bounded-delay test.
THEOREM1 = AlphaTest(
    "theorem1", UNIFORM_EXPONENTIAL, _FIELDS_T1,
    lhs=lambda s: s.tau * s.norm_b + _sigma_term(s),
    gate=lambda s: (tau0(s), s.delta), requires=_positive_a,
    gate_message="gate alpha*tau0 {op} delta fails ({x:.6g} > {cap:.6g})")
check_theorem1 = THEOREM1.check
alpha_interval_theorem1 = THEOREM1.alpha_interval
COROLLARY_MAIN_A = replace(THEOREM1, name="corollary_main_a")
COROLLARY_MAIN_B = replace(THEOREM1, name="corollary_main_b")


def check_corollary_main(summary: ParameterSummary) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Endpoint cases of the main test: part a) is alpha = 1 with the gate
    tau0 <= delta, part b) is alpha = 0 (gate vacuous)."""
    return COROLLARY_MAIN_A.check(summary, 1.0), COROLLARY_MAIN_B.check(summary, 0.0)


def _limiting_lag(s: ParameterSummary) -> str | None:
    if s.limit_tau is None:
        raise MissingLimit("corollary3 needs the analytic limit of t - h(t) (limit_tau override)")
    return _positive_a(s)


# Two-sided test for delays with a limiting lag, strict on both sides as printed:
# alpha (1-||a||)/e < tau ||b|| < (1-||a||)(1+alpha/e) - sigma-term, with tau
# the analytic limit of t - h(t) (never grid-estimated).
COROLLARY3 = AlphaTest(
    "corollary3", UNIFORM_EXPONENTIAL, ("norm_a", "inf_a", "norm_b", "sigma", "limit_tau"),
    lhs=lambda s: s.limit_tau * s.norm_b,
    rhs=lambda s, alpha: _rhs(s, alpha) - _sigma_term(s),
    lower=lambda s, alpha: s.limit_tau * s.norm_b - alpha * (1.0 - s.norm_a) / math.e,
    requires=_limiting_lag)
check_corollary3 = COROLLARY3.check


def _constant_a(s: ParameterSummary) -> None:
    if s.norm_a != s.inf_a:
        raise NotConstant(
            f"constant neutral coefficient required (norm_a={s.norm_a}, inf_a={s.inf_a})")


# Constant neutral coefficient a = a0, where the sigma term reduces to sigma a ||b|| / (1 - a).
COROLLARY1 = AlphaTest(
    "corollary1", UNIFORM_EXPONENTIAL, _FIELDS_T1,
    lhs=lambda s: s.tau * s.norm_b + s.sigma * s.norm_a * s.norm_b / (1.0 - s.norm_a),
    gate=lambda s: (1.0, s.delta * math.e * s.norm_b / (1.0 - s.norm_a)), requires=_constant_a,
    gate_message="gate alpha {op} delta*e*||b||/(1-a) fails ({x:.6g} > {cap:.6g})")
check_corollary1 = COROLLARY1.check


def check_corollary2(summary: ParameterSummary) -> CriterionVerdict:
    """Non-delayed right side (h(t) = t, so tau = delta = 0).

    Decisive inequality: sigma ||a|| ||b|| (1 - a0) / (1 - ||a||)^3 < 1.
    """
    if summary.tau > 0.0:
        raise NotNonDelayed(f"h(t) = t required (tau = {summary.tau})")
    fields = ("norm_a", "inf_a", "norm_b", "sigma")
    cert = _cert(summary, fields)
    # positivity of a is part of the hypothesis unless the neutral term is
    # absent altogether (norm_a = 0 reduces to a plain first-order equation)
    if summary.inf_a <= 0.0 and summary.norm_a > 0.0:
        return _not_applicable("corollary2", "a(t) >= a0 > 0 fails", UNIFORM_EXPONENTIAL, cert)
    one_minus = 1.0 - summary.norm_a
    lhs = summary.sigma * summary.norm_a * summary.norm_b * (1.0 - summary.inf_a) / one_minus ** 3
    return _decide("corollary2", 1.0 - lhs, UNIFORM_EXPONENTIAL, cert)


# -- sign-split variant --------------------------------------------------------

_FIELDS_T2 = ("norm_a", "norm_a_plus", "norm_a_minus", "norm_b", "sigma", "tau", "delta")

# Sign-split test; no positivity restriction on a.
THEOREM2 = AlphaTest(
    "theorem2", UNIFORM_EXPONENTIAL, _FIELDS_T2,
    lhs=lambda s: (s.tau * s.norm_b
                   + s.sigma * s.norm_a_plus * s.norm_b / ((1.0 - s.norm_a_plus) * (1.0 - s.norm_a_plus))
                   + s.norm_a_minus * s.norm_b / (1.0 - s.norm_a_plus)),
    rhs=lambda s, alpha: 1.0 - s.norm_a + alpha * (1.0 - s.norm_a_plus) / math.e,
    gate=lambda s: (tau_bar(s), s.delta),
    gate_message="gate alpha*tau_bar {op} delta fails ({x:.6g} vs {cap:.6g})")
check_theorem2 = THEOREM2.check

# The sign-split test under sup a >= sup(-a), where ||a+|| = ||a|| and the
# right-hand side factors as (1 - ||a||)(1 + alpha/e).
THEOREM2_REMARK = AlphaTest(
    "theorem2_remark", UNIFORM_EXPONENTIAL, _FIELDS_T2,
    # (1 - a) ** 2 rather than THEOREM2's (1 - a) * (1 - a): the two can
    # differ in the last bit
    lhs=lambda s: (s.tau * s.norm_b
                   + s.sigma * s.norm_a * s.norm_b / (1.0 - s.norm_a) ** 2
                   + s.norm_a_minus * s.norm_b / (1.0 - s.norm_a)),
    gate=THEOREM2.gate,
    gate_message="gate alpha*tau_bar {op} delta fails ({x:.6g} > {cap:.6g})",
    requires=lambda s: None if s.norm_a == s.norm_a_plus else "needs sup a >= sup(-a) (||a|| = ||a+||)")
check_theorem2_remark = THEOREM2_REMARK.check
COROLLARY5_A = replace(THEOREM2, name="corollary5_a", strict=True)
COROLLARY5_B = replace(THEOREM2, name="corollary5_b")


def check_corollary5(summary: ParameterSummary) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Endpoint cases of the sign-split test: part a) is alpha = 1 with the
    strict gate tau_bar < delta, part b) is alpha = 0."""
    return COROLLARY5_A.check(summary, 1.0), COROLLARY5_B.check(summary, 0.0)


# -- unbounded-delay variant ---------------------------------------------------

# Integral-delay test (delays may be unbounded), with tilde_tau0 = (1 - ||a||)/e.
THEOREM3 = AlphaTest(
    "theorem3", ASYMPTOTIC, ("tilde_tau", "tilde_delta", "tilde_sigma", "norm_a", "inf_a"),
    lhs=lambda s: s.tilde_tau + s.tilde_sigma * s.norm_a * (1.0 - s.inf_a) / ((1.0 - s.norm_a) * (1.0 - s.norm_a)),
    gate=lambda s: (s.tilde_tau0, s.tilde_delta), requires=_positive_a,
    gate_message="gate alpha*tilde_tau0 {op} tilde_delta fails ({x:.6g} > {cap:.6g})",
    notes=("hypotheses assumed, not verified numerically: int b = inf, b != 0 almost everywhere",))
theorem3_lhs = THEOREM3.lhs


def check_theorem3(summary: ParameterSummary, alpha: float) -> CriterionVerdict:
    """THEOREM3 at a fixed alpha in (0, 1], on a summary with its integral bounds."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return THEOREM3.check(summary, alpha)


def theorem3_verdict(spec: EquationSpec, summary: ParameterSummary, alpha: float | None = None,
                     integrals: IntegralsOfB | None = None) -> CriterionVerdict:
    """THEOREM3 at ``alpha``, or at its best alpha when None, on ``summary``
    with its integral bounds (filled in by ``integral_summary`` when it has
    none); not applicable, with the reason, when alpha is 0 or the bounds
    cannot be built."""
    if alpha is not None and alpha <= 0.0:
        reason = "alpha must be positive"
    else:
        try:
            if summary.tilde_tau is None:
                summary = integral_summary(spec, summary, integrals)
        except (SummaryError, QuadratureError) as exc:
            reason = str(exc)
        else:
            if alpha is None:
                alpha = THEOREM3.best_alpha(summary)
            if alpha > 0.0:
                return THEOREM3.check(summary, alpha)
            reason = f"gate alpha*tilde_tau0 <= tilde_delta = {summary.tilde_delta:.6g} admits no alpha > 0"
    # the overrides are what would make the integral bounds certified
    cert = CERTIFIED if set(THEOREM3.fields) <= spec.overrides.keys() else NUMERIC
    return _not_applicable("theorem3", reason, ASYMPTOTIC, cert, alpha, THEOREM3.notes)


# -- classical constant-delay baselines ----------------------------------------

def yu_threshold(norm_a: float) -> float:
    """3/2-type threshold 3/2 - 2 A0 (2 - A0) on the limsup-integral scale."""
    return 1.5 - 2.0 * norm_a * (2.0 - norm_a)


def tang_zou_threshold(norm_a: float) -> float | None:
    """Refined threshold: 3/2 - 2 A0 for A0 < 1/4, sqrt(2(1 - 2 A0)) for
    1/4 <= A0 < 1/2, undefined above."""
    if norm_a < 0.25:
        return 1.5 - 2.0 * norm_a
    if norm_a < 0.5:
        return math.sqrt(2.0 * (1.0 - 2.0 * norm_a))
    return None


_BASELINE_NOTES = ("hypotheses assumed: constant delays, continuous coefficients, int b = inf",)
_BASELINE_FIELDS = ("norm_a", "limsup_int_b")


def _baseline(criterion: str, summary: ParameterSummary, limsup_int_b: float,
              threshold: float | None, out_of_range: str) -> CriterionVerdict:
    """Decide ``limsup_int_b < threshold``; a None threshold is out of range."""
    cert = _cert(summary, _BASELINE_FIELDS)
    if not summary.constant_delays:
        return _not_applicable(criterion, "constant delays required", ASYMPTOTIC, cert)
    if threshold is None:
        return _not_applicable(criterion, out_of_range, ASYMPTOTIC, cert)
    return _decide(criterion, threshold - limsup_int_b, ASYMPTOTIC, cert, notes=_BASELINE_NOTES)


def check_prop_yu(summary: ParameterSummary, limsup_int_b: float) -> CriterionVerdict:
    """Classical 3/2-type asymptotic stability baseline.

    ``limsup_int_b`` is limsup_t int_{t-tau}^t b; applicable only for
    constant delays (``summary.constant_delays``) and a positive threshold.
    """
    thr = yu_threshold(summary.norm_a)
    return _baseline(
        "prop_yu", summary, limsup_int_b, thr if thr > 0.0 else None,
        f"threshold 3/2 - 2*A0*(2-A0) = {thr:.6g} is not positive (A0 = {summary.norm_a:.6g})")


def check_prop_tang_zou(summary: ParameterSummary, limsup_int_b: float) -> CriterionVerdict:
    """Refined constant-delay baseline; case selected by A0."""
    return _baseline("prop_tang_zou", summary, limsup_int_b,
                     tang_zou_threshold(summary.norm_a), f"A0 = {summary.norm_a:.6g} >= 1/2 is out of range")


# -- orchestration --------------------------------------------------------------

def best_verdict(spec: EquationSpec, summary: ParameterSummary | None = None) -> list[CriterionVerdict]:
    """Run every applicable test, optimizing alpha where parameterized, on
    ``summary`` (``summarize(spec)`` when None; theorem 3 takes its integral
    bounds as they are, and fills them in when it has none).

    Returns all verdicts for audit, sorted best first (satisfied before
    unsatisfied, larger margin first).
    """
    if summary is None:
        summary = summarize(spec)
    verdicts: list[CriterionVerdict] = []

    a_star = THEOREM1.best_alpha(summary)
    verdicts.append(THEOREM1.check(summary, a_star))
    verdicts.extend(check_corollary_main(summary))

    if summary.limit_tau is not None:
        iv = COROLLARY3.alpha_interval(summary)
        verdicts.append(COROLLARY3.check(summary, iv.midpoint if not iv.empty else a_star))

    if summary.norm_a == summary.inf_a:
        verdicts.append(COROLLARY1.check(summary, COROLLARY1.best_alpha(summary)))

    if summary.tau == 0.0:
        verdicts.append(check_corollary2(summary))

    verdicts += [test.check(summary, test.best_alpha(summary)) for test in (THEOREM2, THEOREM2_REMARK)]
    verdicts.extend(check_corollary5(summary))

    integrals = IntegralsOfB(spec)  # one table of the integral of b for both estimates
    verdicts.append(theorem3_verdict(spec, summary, None, integrals))

    limsup = summary.limsup_int_b
    try:
        if limsup is None:
            limsup = estimate_limsup_int_b(spec, summary.tau, integrals) if summary.tau > 0.0 else 0.0
    except QuadratureError as exc:
        cert = _cert(summary, _BASELINE_FIELDS)
        verdicts += [_not_applicable(c, str(exc), ASYMPTOTIC, cert) for c in ("prop_yu", "prop_tang_zou")]
    else:
        verdicts.append(check_prop_yu(summary, limsup))
        verdicts.append(check_prop_tang_zou(summary, limsup))

    def key(v: CriterionVerdict):
        margin = v.margin if not math.isnan(v.margin) else -math.inf
        return (v.satisfied, margin)

    return sorted(verdicts, key=key, reverse=True)
