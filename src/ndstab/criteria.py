"""Explicit stability tests for the neutral equation.

Each check returns a CriterionVerdict carrying applicability (with a
reason), satisfaction, the margin of the decisive strict inequality
(right-hand side minus left-hand side; positive means satisfied), the
witness alpha for alpha-parameterized tests, and the claimed stability
kind.  Margins are reported only for applicable verdicts; inapplicable
ones carry NaN so that "satisfied iff margin > 0" holds unconditionally.

The alpha-parameterized family works like this: a characteristic lag scale
tau0 = (1 - ||a||) / (e ||b||) gates the admissible alpha via
alpha * tau0 <= delta, and the decisive inequality compares

    tau ||b|| + sigma ||a|| ||b|| (1 - a0) / (1 - ||a||)^2

against (1 - ||a||) (1 + alpha/e).  The sign-split variant replaces the
geometric factors by the positive-part norm ||a+|| and adds a
||a-|| ||b|| / (1 - ||a+||) term; the integral variant replaces
tau ||b||, sigma ||a|| ||b||, delta ||b|| by bounds on the integrals of b
over the delay intervals and claims asymptotic (not uniform exponential)
stability.  Two classical constant-delay baselines (the 3/2-type test and
its square-root refinement) are included for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eqspec import EquationSpec
from .params import (
    IntegralsOfB,
    IntegralSummary,
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


def _check_alpha_unit(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


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


# -- alpha-parameterized main test --------------------------------------------

_FIELDS_T1 = ("norm_a", "inf_a", "norm_b", "sigma", "tau", "delta")


def _sigma_term(s: ParameterSummary) -> float:
    one_minus = 1.0 - s.norm_a
    return s.sigma * s.norm_a * s.norm_b * (1.0 - s.inf_a) / (one_minus * one_minus)


def _lhs_main(s: ParameterSummary) -> float:
    return s.tau * s.norm_b + _sigma_term(s)


def _rhs(one_minus: float, alpha: float) -> float:
    return one_minus * (1.0 + alpha / math.e)


def _clipped_interval(lower: float, upper: float, lower_open: bool, upper_open: bool) -> AlphaInterval:
    """Intersect an alpha range with [0, 1]; a clipped endpoint is closed."""
    if lower < 0.0:
        lower, lower_open = 0.0, False
    if upper > 1.0:
        upper, upper_open = 1.0, False
    if lower > upper or (lower == upper and (lower_open or upper_open)):
        return _EMPTY_INTERVAL
    return AlphaInterval(lower, upper, lower_open, upper_open, False)


def _cert(s: ParameterSummary | IntegralSummary, fields) -> str:
    return CERTIFIED if s.certified(fields) else NUMERIC


def check_theorem1(summary: ParameterSummary, alpha: float,
                   criterion: str = "theorem1") -> CriterionVerdict:
    """Main bounded-delay test at a fixed alpha in [0, 1].

    Applicable when a stays positive (inf a > 0) and alpha * tau0 <= delta
    (non-strict gate); satisfied when the decisive inequality holds
    strictly.  Claims uniform exponential stability.
    """
    _check_alpha_unit(alpha)
    cert = _cert(summary, _FIELDS_T1)
    if summary.inf_a <= 0.0:
        return _not_applicable(criterion, "a(t) >= a0 > 0 fails", UNIFORM_EXPONENTIAL, cert, alpha)
    if alpha * tau0(summary) > summary.delta:
        return _not_applicable(
            criterion, f"gate alpha*tau0 <= delta fails ({alpha * tau0(summary):.6g} > {summary.delta:.6g})",
            UNIFORM_EXPONENTIAL, cert, alpha)
    return _decide(criterion, _rhs(1.0 - summary.norm_a, alpha) - _lhs_main(summary),
                   UNIFORM_EXPONENTIAL, cert, alpha)


def alpha_interval_theorem1(summary: ParameterSummary) -> AlphaInterval:
    """Closed-form alpha range on which check_theorem1 is applicable and satisfied.

    The lower endpoint comes from the strict decisive inequality (open
    unless it clips at 0), the upper endpoint from the non-strict gate
    (closed unless it clips at 1); the range is intersected with [0, 1].
    """
    if summary.inf_a <= 0.0:
        return _EMPTY_INTERVAL
    lower = math.e * (_lhs_main(summary) / (1.0 - summary.norm_a) - 1.0)
    return _clipped_interval(lower, summary.delta / tau0(summary), True, False)


def check_corollary_main(summary: ParameterSummary) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Endpoint cases of the main test: part a) is alpha = 1 with the gate
    tau0 <= delta, part b) is alpha = 0 (gate vacuous)."""
    part_a = check_theorem1(summary, 1.0, criterion="corollary_main_a")
    part_b = check_theorem1(summary, 0.0, criterion="corollary_main_b")
    return part_a, part_b


def check_corollary3(summary: ParameterSummary, alpha: float) -> CriterionVerdict:
    """Two-sided test for delays with a limiting lag.

    Requires the analytic limit of t - h(t) (never grid-estimated).  Both
    inequalities are strict as printed:
    alpha (1-||a||)/e < tau ||b|| < (1-||a||)(1+alpha/e) - sigma-term.
    """
    _check_alpha_unit(alpha)
    if summary.limit_tau is None:
        raise MissingLimit("corollary3 needs the analytic limit of t - h(t) (limit_tau override)")
    fields = ("norm_a", "inf_a", "norm_b", "sigma", "limit_tau")
    cert = _cert(summary, fields)
    if summary.inf_a <= 0.0:
        return _not_applicable("corollary3", "a(t) >= a0 > 0 fails", UNIFORM_EXPONENTIAL, cert, alpha)
    one_minus = 1.0 - summary.norm_a
    tb = summary.limit_tau * summary.norm_b
    lower_margin = tb - alpha * one_minus / math.e
    upper_margin = _rhs(one_minus, alpha) - _sigma_term(summary) - tb
    return _decide("corollary3", min(lower_margin, upper_margin),
                   UNIFORM_EXPONENTIAL, cert, alpha)


def _corollary1_gate(s: ParameterSummary) -> float:
    return s.delta * math.e * s.norm_b / (1.0 - s.norm_a)


def check_corollary1(summary: ParameterSummary, alpha: float) -> CriterionVerdict:
    """Constant neutral coefficient case.

    Gate alpha <= delta e ||b|| / (1 - a) (non-strict), decisive inequality
    tau ||b|| + sigma a ||b|| / (1 - a) < (1 - a)(1 + alpha/e).
    """
    _check_alpha_unit(alpha)
    if summary.norm_a != summary.inf_a:
        raise NotConstant(
            f"constant neutral coefficient required (norm_a={summary.norm_a}, inf_a={summary.inf_a})")
    a = summary.norm_a
    cert = _cert(summary, _FIELDS_T1)
    gate = _corollary1_gate(summary)
    if alpha > gate:
        return _not_applicable("corollary1", f"gate alpha <= delta*e*||b||/(1-a) fails ({alpha:.6g} > {gate:.6g})",
                               UNIFORM_EXPONENTIAL, cert, alpha)
    lhs = summary.tau * summary.norm_b + summary.sigma * a * summary.norm_b / (1.0 - a)
    return _decide("corollary1", _rhs(1.0 - a, alpha) - lhs, UNIFORM_EXPONENTIAL, cert, alpha)


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


def _lhs_split(s: ParameterSummary) -> float:
    one_minus_p = 1.0 - s.norm_a_plus
    return (s.tau * s.norm_b
            + s.sigma * s.norm_a_plus * s.norm_b / (one_minus_p * one_minus_p)
            + s.norm_a_minus * s.norm_b / one_minus_p)


def check_theorem2(summary: ParameterSummary, alpha: float,
                   criterion: str = "theorem2", strict_gate: bool = False) -> CriterionVerdict:
    """Sign-split test; no positivity restriction on a.

    Gate alpha * tau_bar <= delta (strict when ``strict_gate``); decisive
    inequality LHS < 1 - ||a|| + alpha (1 - ||a+||)/e.
    """
    _check_alpha_unit(alpha)
    cert = _cert(summary, _FIELDS_T2)
    tb = tau_bar(summary)
    gate_ok = alpha * tb < summary.delta if strict_gate else alpha * tb <= summary.delta
    if not gate_ok:
        op = "<" if strict_gate else "<="
        return _not_applicable(
            criterion, f"gate alpha*tau_bar {op} delta fails ({alpha * tb:.6g} vs {summary.delta:.6g})",
            UNIFORM_EXPONENTIAL, cert, alpha)
    rhs = 1.0 - summary.norm_a + alpha * (1.0 - summary.norm_a_plus) / math.e
    return _decide(criterion, rhs - _lhs_split(summary), UNIFORM_EXPONENTIAL, cert, alpha)


def check_theorem2_remark(summary: ParameterSummary, alpha: float) -> CriterionVerdict:
    """Sign-split test specialized to sup a >= sup(-a) (i.e. ||a|| = ||a+||).

    Under that hypothesis the positive-part norms coincide with ||a|| and
    the right-hand side factors as (1 - ||a||)(1 + alpha/e).
    """
    _check_alpha_unit(alpha)
    cert = _cert(summary, _FIELDS_T2)
    if summary.norm_a != summary.norm_a_plus:
        return _not_applicable("theorem2_remark", "needs sup a >= sup(-a) (||a|| = ||a+||)",
                               UNIFORM_EXPONENTIAL, cert, alpha)
    tb = tau_bar(summary)
    if alpha * tb > summary.delta:
        return _not_applicable(
            "theorem2_remark", f"gate alpha*tau_bar <= delta fails ({alpha * tb:.6g} > {summary.delta:.6g})",
            UNIFORM_EXPONENTIAL, cert, alpha)
    # spelled out rather than _lhs_split: (1 - a) ** 2 and (1 - a) * (1 - a)
    # can differ in the last bit
    a = summary.norm_a
    lhs = (summary.tau * summary.norm_b
           + summary.sigma * a * summary.norm_b / (1.0 - a) ** 2
           + summary.norm_a_minus * summary.norm_b / (1.0 - a))
    return _decide("theorem2_remark", _rhs(1.0 - a, alpha) - lhs, UNIFORM_EXPONENTIAL, cert, alpha)


def check_corollary5(summary: ParameterSummary) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Endpoint cases of the sign-split test: part a) is alpha = 1 with the
    strict gate tau_bar < delta, part b) is alpha = 0."""
    part_a = check_theorem2(summary, 1.0, criterion="corollary5_a", strict_gate=True)
    part_b = check_theorem2(summary, 0.0, criterion="corollary5_b")
    return part_a, part_b


# -- unbounded-delay variant ---------------------------------------------------

_FIELDS_T3 = ("tilde_tau", "tilde_delta", "tilde_sigma", "norm_a", "inf_a")

_T3_NOTES = (
    "hypotheses assumed, not verified numerically: int b = inf, b != 0 almost everywhere",
)


def theorem3_lhs(isummary: IntegralSummary) -> float:
    """Left-hand side of the integral-delay decisive inequality."""
    one_minus = 1.0 - isummary.norm_a
    return isummary.tilde_tau + isummary.tilde_sigma * isummary.norm_a * (1.0 - isummary.inf_a) / (one_minus * one_minus)


def check_theorem3(isummary: IntegralSummary, alpha: float) -> CriterionVerdict:
    """Integral-delay test (delays may be unbounded); claims asymptotic stability.

    Gate alpha * tilde_tau0 <= tilde_delta with tilde_tau0 = (1 - ||a||)/e;
    decisive inequality
    tilde_tau + tilde_sigma ||a|| (1 - a0)/(1 - ||a||)^2 < (1 - ||a||)(1 + alpha/e).
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    cert = _cert(isummary, _FIELDS_T3)
    if isummary.inf_a <= 0.0:
        return _not_applicable("theorem3", "a(t) >= a0 > 0 fails", ASYMPTOTIC, cert, alpha, _T3_NOTES)
    if alpha * isummary.tilde_tau0 > isummary.tilde_delta:
        return _not_applicable(
            "theorem3",
            f"gate alpha*tilde_tau0 <= tilde_delta fails "
            f"({alpha * isummary.tilde_tau0:.6g} > {isummary.tilde_delta:.6g})",
            ASYMPTOTIC, cert, alpha, _T3_NOTES)
    margin = _rhs(1.0 - isummary.norm_a, alpha) - theorem3_lhs(isummary)
    return _decide("theorem3", margin, ASYMPTOTIC, cert, alpha, _T3_NOTES)


def theorem3_not_applicable(spec: EquationSpec, reason: str,
                            alpha: float | None) -> CriterionVerdict:
    """Theorem 3 verdict when the test cannot run: alpha = 0, or no integral
    summary.  Certified exactly when check_theorem3 would be."""
    cert = CERTIFIED if set(_FIELDS_T3) <= spec.overrides.keys() else NUMERIC
    return _not_applicable("theorem3", reason, ASYMPTOTIC, cert, alpha, _T3_NOTES)


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


def _baseline(criterion: str, summary: ParameterSummary, limsup_int_b: float,
              constant_delays: bool, threshold: float | None, out_of_range: str) -> CriterionVerdict:
    """Decide ``limsup_int_b < threshold``; a None threshold is out of range."""
    cert = _cert(summary, ("norm_a", "limsup_int_b"))
    if not constant_delays:
        return _not_applicable(criterion, "constant delays required", ASYMPTOTIC, cert)
    if threshold is None:
        return _not_applicable(criterion, out_of_range, ASYMPTOTIC, cert)
    return _decide(criterion, threshold - limsup_int_b, ASYMPTOTIC, cert, notes=_BASELINE_NOTES)


def check_prop_yu(summary: ParameterSummary, limsup_int_b: float,
                  constant_delays: bool = True) -> CriterionVerdict:
    """Classical 3/2-type asymptotic stability baseline.

    ``limsup_int_b`` is limsup_t int_{t-tau}^t b; applicable only for
    constant delays and a positive threshold.
    """
    thr = yu_threshold(summary.norm_a)
    return _baseline(
        "prop_yu", summary, limsup_int_b, constant_delays, thr if thr > 0.0 else None,
        f"threshold 3/2 - 2*A0*(2-A0) = {thr:.6g} is not positive (A0 = {summary.norm_a:.6g})")


def check_prop_tang_zou(summary: ParameterSummary, limsup_int_b: float,
                        constant_delays: bool = True) -> CriterionVerdict:
    """Refined constant-delay baseline; case selected by A0."""
    return _baseline("prop_tang_zou", summary, limsup_int_b, constant_delays,
                     tang_zou_threshold(summary.norm_a), f"A0 = {summary.norm_a:.6g} >= 1/2 is out of range")


# -- orchestration --------------------------------------------------------------

def _delays_constant(spec: EquationSpec, samples: int = 2001, rel_tol: float = 1e-9) -> bool:
    ts = spec.grid(samples)
    lag_g = ts - spec.g.eval_array(ts)
    lag_h = ts - spec.h.eval_array(ts)
    span = max(1.0, spec.horizon - spec.t0)
    return (float(lag_g.max() - lag_g.min()) <= rel_tol * span
            and float(lag_h.max() - lag_h.min()) <= rel_tol * span)


def optimal_alpha(gate_scale: float, gate_cap: float) -> float:
    """Margin is affine increasing in alpha, so the best admissible alpha is
    min(1, cap/scale) (closed-form; no search)."""
    if gate_scale <= 0.0:
        return 1.0
    return min(1.0, gate_cap / gate_scale)


def corollary3_alpha_interval(summary: ParameterSummary) -> AlphaInterval:
    """Open alpha range on which the two-sided limiting-lag test holds."""
    if summary.inf_a <= 0.0 or summary.limit_tau is None:
        return _EMPTY_INTERVAL
    one_minus = 1.0 - summary.norm_a
    tb = summary.limit_tau * summary.norm_b
    lower = math.e * ((tb + _sigma_term(summary)) / one_minus - 1.0)
    return _clipped_interval(lower, tb * math.e / one_minus, True, True)


def best_verdict(
    spec: EquationSpec,
    summary: ParameterSummary | None = None,
    isummary: IntegralSummary | None = None,
    grid_points: int | None = None,
) -> list[CriterionVerdict]:
    """Run every applicable test, optimizing alpha where parameterized.

    Returns all verdicts for audit, sorted best first (satisfied before
    unsatisfied, larger margin first).
    """
    if summary is None:
        summary = summarize(spec, grid_points or 100_000)
    verdicts: list[CriterionVerdict] = []

    a_star = optimal_alpha(tau0(summary), summary.delta)
    verdicts.append(check_theorem1(summary, a_star))
    verdicts.extend(check_corollary_main(summary))

    if summary.limit_tau is not None:
        iv = corollary3_alpha_interval(summary)
        alpha3 = iv.midpoint if not iv.empty else a_star
        verdicts.append(check_corollary3(summary, alpha3))

    if summary.norm_a == summary.inf_a:
        verdicts.append(check_corollary1(summary, min(1.0, _corollary1_gate(summary))))

    if summary.tau == 0.0:
        verdicts.append(check_corollary2(summary))

    a_star2 = optimal_alpha(tau_bar(summary), summary.delta)
    verdicts.append(check_theorem2(summary, a_star2))
    verdicts.append(check_theorem2_remark(summary, a_star2))
    verdicts.extend(check_corollary5(summary))

    integrals = IntegralsOfB(spec)  # one table of the integral of b for both estimates
    if isummary is None:
        try:
            isummary = integral_summary(spec, integrals)
        except (SummaryError, QuadratureError) as exc:
            verdicts.append(theorem3_not_applicable(spec, str(exc), None))
    if isummary is not None:
        a_star3 = optimal_alpha(isummary.tilde_tau0, isummary.tilde_delta)
        if a_star3 > 0.0:
            verdicts.append(check_theorem3(isummary, a_star3))

    const_delays = _delays_constant(spec)
    if summary.limsup_int_b is not None:
        limsup = summary.limsup_int_b
    else:
        try:
            limsup = estimate_limsup_int_b(spec, summary.tau, integrals) if summary.tau > 0.0 else 0.0
        except ValueError:
            limsup = None
    if limsup is not None:
        verdicts.append(check_prop_yu(summary, limsup, const_delays))
        verdicts.append(check_prop_tang_zou(summary, limsup, const_delays))

    def key(v: CriterionVerdict):
        margin = v.margin if not math.isnan(v.margin) else -math.inf
        return (v.satisfied, margin)

    return sorted(verdicts, key=key, reverse=True)
