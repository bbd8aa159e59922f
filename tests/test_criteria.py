import math
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bare, random_summary, summarize_at
from ndstab import criteria
from ndstab.criteria import (
    MissingLimit,
    NotConstant,
    NotNonDelayed,
    alpha_interval_theorem1,
    best_verdict,
    check_corollary1,
    check_corollary2,
    check_corollary3,
    check_corollary5,
    check_corollary_main,
    check_prop_tang_zou,
    check_prop_yu,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    tau0,
    tau_bar,
)
from ndstab.eqspec import EquationSpec
from ndstab.expr import absval, add, const, scale, sin, tvar
from ndstab.params import IntegralsOfB, ParameterSummary, SummaryError, integral_summary, summarize

T = tvar()


def mk(norm_a, inf_a, norm_b, sigma, tau, delta, inf_b=None, plus=None, minus=None,
       limit_tau=None, limsup=None):
    return ParameterSummary(
        norm_a=norm_a, inf_a=inf_a,
        norm_a_plus=norm_a if plus is None else plus,
        norm_a_minus=0.0 if minus is None else minus,
        norm_b=norm_b, inf_b=norm_b if inf_b is None else inf_b,
        sigma=sigma, tau=tau, delta=delta,
        limit_tau=limit_tau, limsup_int_b=limsup,
    )


EX1 = mk(0.6, 0.6, 1.0, 0.2, 0.14, 0.14, limit_tau=0.14)
EX2 = mk(0.6, 0.4, 0.15, 1.0, 1.0, 1.0, inf_b=0.8 * 0.15)
EX4 = mk(0.6, -0.6, 0.15, 0.2, 0.5, 0.5, inf_b=0.05, plus=0.6, minus=0.6, limit_tau=0.5)


# -- lag scales -------------------------------------------------------------------

def test_tau0_values():
    assert tau0(mk(0.6, 0.4, 0.15, 1, 1, 1)) == pytest.approx(0.4 / (0.15 * math.e), abs=1e-15)
    assert tau0(mk(0.0, 0.0, 1 / math.e, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    # applicability scale of the near-critical benchmark at r = 0.0587
    v = tau0(mk(0.499, 0.497, 0.0587, math.pi, math.pi, math.pi))
    assert v == pytest.approx(0.501 / (math.e * 0.0587), abs=1e-15)
    assert v == pytest.approx(math.pi, abs=2e-3)


def test_tau_bar_value():
    assert tau_bar(EX4) == pytest.approx(0.4 / (math.e * 0.15), abs=1e-15)


# -- main test --------------------------------------------------------------------

def test_theorem1_ex2_alpha1():
    v = check_theorem1(EX2, 1.0)
    assert v.applicable and v.satisfied
    lhs = 0.15 * (1 + 2.25)
    rhs = 0.4 * (1 + 1 / math.e)
    assert lhs == pytest.approx(0.4875, abs=1e-15)
    assert v.margin == pytest.approx(rhs - lhs, abs=1e-14)
    assert v.margin == pytest.approx(0.059652, abs=1e-5)


def test_theorem1_fails_at_larger_amplitude():
    s = mk(0.6, 0.4, 0.2, 1.0, 1.0, 1.0)
    v = check_theorem1(s, 1.0)
    assert v.applicable and not v.satisfied
    assert v.margin == pytest.approx(0.4 * (1 + 1 / math.e) - 0.65, abs=1e-14)


def test_theorem1_gate_on_sign():
    v = check_theorem1(mk(0.6, 0.0, 0.1, 0.2, 0.5, 0.5), 0.5)
    assert not v.applicable and not v.satisfied
    assert "a0" in v.reason
    assert math.isnan(v.margin)


def test_theorem1_rejects_alpha_outside_unit():
    with pytest.raises(ValueError):
        check_theorem1(EX2, 1.5)


def test_alpha_interval_ex1():
    iv = alpha_interval_theorem1(EX1)
    assert not iv.empty
    assert iv.lower == pytest.approx(0.1 * math.e, abs=1e-12)
    assert iv.upper == pytest.approx(0.35 * math.e, abs=1e-12)
    assert iv.lower_open and not iv.upper_open


def test_alpha_interval_empty_for_infeasible_amplitude():
    s = mk(0.6, 0.4, 0.2, 1.0, 1.0, 1.0)
    assert alpha_interval_theorem1(s).empty


def test_alpha_interval_entire_unit_interval():
    # sigma = 0, tau ||b|| < 1 - ||a||, delta >= tau0
    s = mk(0.3, 0.3, 0.5, 0.0, 1.0, 1.0)
    assert 1.0 * 0.5 < 0.7 and s.delta >= tau0(s)
    iv = alpha_interval_theorem1(s)
    assert (iv.lower, iv.upper) == (0.0, 1.0)
    assert not iv.lower_open and not iv.upper_open


@pytest.mark.parametrize("guess", [1e-300, 1e-9 * (1.0 - 1e-7), 1e-9, 1e-9 * (1.0 + 1e-7), 0.9, math.inf])
def test_edge_reaches_a_far_edge_in_few_calls(guess):
    # 1e-9 (1 -+ 1e-7) lie about 4e8 floats from 1e-9: one float per step
    # would take that many calls, a doubling stride takes under 200
    calls = []

    def flips(x):
        calls.append(x)
        assert len(calls) < 200
        return x >= 1e-9

    assert criteria._edge(flips, guess) == 1e-9
    assert criteria._edge(lambda x: False, guess) == math.inf  # never true: the sentinel


def _edge_on_bit_patterns(flips, x):
    """_edge with every probe taken through the float's bit pattern."""
    f64, i64 = struct.Struct("d"), struct.Struct("q")
    inf_key = i64.unpack(f64.pack(math.inf))[0]
    at = lambda k: flips(f64.unpack(i64.pack(k))[0])
    lo = hi = i64.unpack(f64.pack(x))[0]
    stride = 1
    if at(hi):
        while (lo := max(hi - stride, 0)) and at(lo):
            hi, stride = lo, 2 * stride
    else:
        while (hi := min(lo + stride, inf_key)) < inf_key and not at(hi):
            lo, stride = hi, 2 * stride
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if at(mid) else (mid, hi)
    return f64.unpack(i64.pack(hi))[0]


def test_edge_equals_the_bit_pattern_search():
    # same edge, from at most as many calls, for guesses at the edge, a
    # few floats off it, far off, at 0 and at inf, and for negative guesses
    def steps(x, n):
        for _ in range(abs(n)):
            x = math.nextafter(x, math.inf if n > 0 else 0.0)
        return x

    for edge in (5e-324, 1e-300, 1e-9, 0.3, 1.0, 7.5e300, sys.float_info.max, math.inf):
        guesses = [steps(edge, n) for n in (-5, -2, -1, 0, 1, 2, 5)]
        guesses += [0.0, 1e-310, 0.5 * edge, 2.0 * edge, math.inf, -1.0]
        for x in guesses:
            calls = [[], []]
            got = criteria._edge(lambda r: calls[0].append(r) or r >= edge, x)
            want = _edge_on_bit_patterns(lambda r: calls[1].append(r) or r >= edge, x)
            assert got == want == edge and len(calls[0]) <= len(calls[1]), (edge, x)


def test_r_band_probe_raises_where_scale_b_does():
    # at alpha = 1e-30 the gate edge is first probed near r = 5e-31, where
    # r * inf_b underflows to 0, so scale_b(r) is no summary
    s = mk(0.3, 0.2, 1.0, 0.5, 1.0, 0.5, inf_b=1e-300)
    message = "need 0 < inf_b <= norm_b, got 0.0, 5.15"
    with pytest.raises(SummaryError, match=message):
        s.scale_b(5.15e-31)
    with pytest.raises(SummaryError, match=message):
        criteria.THEOREM1.r_band(s, 1e-30)
    assert criteria.THEOREM1.r_band(s, 0.5) == (0.2575156088200096, 0.6657234822309874)


def test_alpha_interval_edge_far_from_its_guess():
    # the floats are dense near 0: this lower edge, at alpha = 1e-9, lies
    # about 1e9 floats from the root of the affine inequality
    tau = 0.7 * (1.0 + 1e-9 / math.e)
    s = mk(0.3, 0.3, 1.0, 0.0, tau, tau)
    iv = alpha_interval_theorem1(s)
    assert iv.lower == pytest.approx(1e-9, rel=1e-6) and iv.lower_open
    assert not check_theorem1(s, iv.lower).satisfied
    assert check_theorem1(s, math.nextafter(iv.lower, 1.0)).satisfied


def test_alpha_interval_edges_match_the_check():
    # every edge, and the floats on either side of it, lies on the side of
    # the interval that check puts it (0 and 1 are checked as well)
    rng = np.random.default_rng(3)
    cells = 0
    for _ in range(3000):
        s = random_summary(rng)
        s = replace(s, limit_tau=rng.uniform(s.delta, s.tau))
        constant_a = replace(s, inf_a=s.norm_a, norm_a_plus=s.norm_a, norm_a_minus=0.0)
        for test in (criteria.THEOREM1, criteria.THEOREM2, criteria.COROLLARY1, criteria.COROLLARY3):
            summary = constant_a if test is criteria.COROLLARY1 else s
            iv = test.alpha_interval(summary)
            edges = [] if iv.empty else [iv.lower, iv.upper]
            for alpha in (0.0, 1.0, *edges, *(math.nextafter(e, d) for e in edges for d in (0.0, 1.0))):
                if 0.0 <= alpha <= 1.0:
                    v = test.check(summary, alpha)
                    assert iv.contains(alpha) == (v.applicable and v.satisfied), (test.name, summary, alpha)
                    cells += 1
    assert cells > 3000 * 4 * 2


# -- endpoint corollaries ------------------------------------------------------------

def test_corollary_main_near_critical_bound():
    # part b) threshold on the coefficient amplitude
    r_crit = 0.501 / (math.pi * (1 + 0.499 * 0.503 / 0.501 ** 2))
    for r, expect in ((0.99 * r_crit, True), (1.01 * r_crit, False)):
        s = mk(0.499, 0.497, r, math.pi, math.pi, math.pi)
        _, part_b = check_corollary_main(s)
        assert part_b.satisfied is expect
    assert r_crit == pytest.approx(0.079737, abs=1e-6)


def test_corollary_main_part_a_needs_gate():
    s = mk(0.6, 0.6, 1.0, 0.2, 0.14, 0.0)  # delta = 0 < tau0
    part_a, _ = check_corollary_main(s)
    assert not part_a.applicable


def test_corollary_main_non_neutral_reduction():
    # norm_a -> 0, sigma = 0: part b) reduces to tau ||b|| < 1
    s = mk(0.0, 1e-9, 0.9, 0.0, 1.0, 0.5)
    _, part_b = check_corollary_main(s)
    assert part_b.satisfied
    assert part_b.margin == pytest.approx(1.0 - 0.9, abs=1e-12)


def test_corollary3_ex1_alpha_dependence():
    assert check_corollary3(EX1, 0.5).satisfied
    assert not check_corollary3(EX1, 0.0).satisfied
    assert not check_corollary3(EX1, 1.0).satisfied  # lower bound fails: 0.4/e > 0.14
    iv = criteria.COROLLARY3.alpha_interval(EX1)
    assert iv.lower_open and iv.upper_open  # both inequalities are strict
    assert iv.contains(0.5) and iv.upper == pytest.approx(0.14 * math.e / 0.4, abs=1e-12)


def test_corollary3_needs_limit():
    with pytest.raises(MissingLimit):
        check_corollary3(mk(0.6, 0.6, 1.0, 0.2, 0.14, 0.14), 0.5)


def test_corollary1_worked_case():
    s = mk(0.55, 0.55, 1.0, 0.1, 0.1, 0.1)
    v = check_corollary1(s, 0.6)
    assert v.applicable and v.satisfied
    lhs = 0.1 + 0.1 * 0.55 / 0.45
    rhs = 0.45 * (1 + 0.6 / math.e)
    assert v.margin == pytest.approx(rhs - lhs, abs=1e-14)
    # gate just beyond its bound flips to not applicable
    assert not check_corollary1(s, 0.61).applicable


def test_corollary1_alpha0_reduction():
    s = mk(0.55, 0.55, 1.0, 0.0, 0.3, 0.0)
    v = check_corollary1(s, 0.0)
    assert v.margin == pytest.approx(0.45 - 0.3, abs=1e-14)


def test_corollary1_rejects_variable_a():
    with pytest.raises(NotConstant):
        check_corollary1(EX2, 0.5)


def test_corollary2_cases():
    v = check_corollary2(mk(0.6, 0.4, 0.1, 1.0, 0.0, 0.0))
    assert v.satisfied and v.margin == pytest.approx(1 - 0.5625, abs=1e-12)
    v = check_corollary2(mk(0.6, 0.4, 1.0, 0.0, 0.0, 0.0))
    assert v.satisfied and v.margin == 1.0
    v = check_corollary2(mk(0.6, 0.4, 0.3, 2.0, 0.0, 0.0))
    assert not v.satisfied and v.margin == pytest.approx(1 - 3.375, abs=1e-12)
    with pytest.raises(NotNonDelayed):
        check_corollary2(EX1)


# -- sign-split test -----------------------------------------------------------------

def test_theorem2_ex4_alpha_045():
    v = check_theorem2(EX4, 0.45)
    assert v.applicable and v.satisfied
    lhs = 0.075 + 0.1125 + 0.225
    rhs = 0.4 + 0.45 * 0.4 / math.e
    assert lhs == pytest.approx(0.4125, abs=1e-15)
    assert v.margin == pytest.approx(rhs - lhs, abs=1e-14)


def test_theorem2_alpha_threshold():
    thr = 0.0125 * math.e / 0.4
    assert thr == pytest.approx(0.084946, abs=1e-6)
    assert check_theorem2(EX4, 1.001 * thr).satisfied
    assert not check_theorem2(EX4, 0.999 * thr).satisfied


def test_theorem2_nonnegative_constant_reduction():
    # a- = 0 and constant a: the sigma term carries 1/(1-c)^2 with no (1-a0)
    c, b, tau, sigma = 0.3, 0.4, 0.5, 0.7
    s = mk(c, c, b, sigma, tau, 0.5)
    v = check_theorem2(s, 0.0)
    lhs = tau * b + sigma * c * b / ((1 - c) * (1 - c))
    assert v.margin == pytest.approx((1 - c) - lhs, abs=1e-14)


def test_corollary5_ex4():
    part_a, part_b = check_corollary5(EX4)
    assert not part_a.applicable  # tau_bar ~ 0.981 is not < delta = 0.5
    assert "tau_bar" in part_a.reason
    assert part_b.applicable and not part_b.satisfied
    assert part_b.margin == pytest.approx(0.4 - 0.4125, abs=1e-14)


# -- integral-delay test ---------------------------------------------------------------

EX5I = replace(
    mk(0.55, 0.55, 0.25, 0.5, 2.0 / 3.0, 1.0 / 3.0),
    tilde_delta=0.25 * math.log(2.0), tilde_tau=0.25 * math.log(2.0), tilde_sigma=0.25 * math.log(3.0),
)


def test_theorem3_pantograph_alphas():
    v1 = check_theorem3(EX5I, 1.0)
    assert v1.applicable and v1.satisfied
    assert v1.stability_kind == "asymptotic"
    lhs = 0.25 * math.log(2.0) + 0.25 * math.log(3.0) * 0.55 * 0.45 / 0.2025
    assert v1.margin == pytest.approx(0.45 * (1 + 1 / math.e) - lhs, abs=1e-13)
    assert check_theorem3(EX5I, 0.36).satisfied
    assert not check_theorem3(EX5I, 0.30).satisfied


def test_theorem3_requires_positive_alpha():
    with pytest.raises(ValueError):
        check_theorem3(EX5I, 0.0)


def test_theorem3_hypothesis_note_present():
    v = check_theorem3(EX5I, 1.0)
    assert any("int b" in n for n in v.notes)


# -- baselines -------------------------------------------------------------------------

def test_prop_yu_thresholds():
    assert criteria.yu_threshold(0.0) == 1.5
    assert criteria.yu_threshold(0.499) == pytest.approx(0.002002, abs=1e-12)
    assert criteria.yu_threshold(0.5) == pytest.approx(0.0, abs=1e-15)
    s = mk(0.5, 0.1, 1.0, 0.0, 1.0, 1.0)
    assert not check_prop_yu(s, 0.1).applicable


def test_prop_tang_zou_thresholds():
    assert criteria.tang_zou_threshold(0.499) == pytest.approx(math.sqrt(0.004), abs=1e-15)
    assert criteria.tang_zou_threshold(0.1) == pytest.approx(1.3, abs=1e-15)
    assert criteria.tang_zou_threshold(0.6) is None
    s = mk(0.6, 0.1, 1.0, 0.0, 1.0, 1.0)
    assert not check_prop_tang_zou(s, 0.1).applicable


def test_baselines_reject_variable_delays():
    s = mk(0.3, 0.1, 1.0, 0.0, 1.0, 1.0)
    s = replace(s, constant_delays=False)
    assert not check_prop_yu(s, 0.1).applicable
    assert not check_prop_tang_zou(s, 0.1).applicable


# -- margin structure --------------------------------------------------------------------

def test_margin_zero_is_not_satisfied():
    # engineer an exact zero margin: rhs == lhs
    s = mk(0.0, 0.5, 1.0, 0.0, 1.0, 1.0)  # lhs = tau*b = 1, rhs = 1 at alpha=0
    v = check_theorem1(s, 0.0)
    assert v.margin == 0.0 and not v.satisfied


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_margin_monotonicity(seed, alpha):
    rng = np.random.default_rng(seed)
    s = random_summary(rng)
    v = check_theorem1(s, alpha)
    if not v.applicable:
        return
    bump = 1.05

    def margin_of(**kw):
        base = dict(norm_a=s.norm_a, inf_a=s.inf_a, norm_b=s.norm_b,
                    sigma=s.sigma, tau=s.tau, delta=s.delta)
        base.update(kw)
        s2 = mk(base["norm_a"], base["inf_a"], base["norm_b"],
                base["sigma"], base["tau"], base["delta"])
        rhs = (1 - s2.norm_a) * (1 + alpha / math.e)
        lhs = s2.tau * s2.norm_b + s2.sigma * s2.norm_a * s2.norm_b * (1 - s2.inf_a) / (1 - s2.norm_a) ** 2
        return rhs - lhs

    m0 = margin_of()
    if s.tau > 0:
        assert margin_of(tau=s.tau * bump) < m0
    if s.sigma > 0 and s.norm_a > 0:
        assert margin_of(sigma=s.sigma * bump) < m0
    assert margin_of(norm_b=s.norm_b * bump) < m0
    if alpha < 0.9:
        v_hi = check_theorem1(s, alpha + 0.05)
        if v_hi.applicable:
            assert v_hi.margin > v.margin


def test_best_verdict_ex1(ex1):
    verdicts = {v.criterion: v for v in best_verdict(ex1, summarize(ex1))}
    c3 = verdicts["corollary3"]
    assert c3.satisfied
    assert c3.witness_alpha == pytest.approx(0.61161, abs=1e-4)  # interval midpoint
    assert not verdicts["prop_yu"].applicable
    assert not verdicts["prop_tang_zou"].applicable
    assert verdicts["theorem1"].satisfied  # feasible at alpha near the gate cap


def test_constant_delay_baselines_see_a_lag_that_varies_between_samples():
    # h's lag 1 + 0.5 |sin(t / 2)| is 1.0 at every node of the 2,001-point
    # grid of [0, 4000 pi], whose step is 2 pi, and reaches 1.5 between them
    spec = EquationSpec(a=const(0.1), b=const(0.3), g=add(T, const(-0.5)),
                        h=add(T, const(-1.0), scale(-0.5, absval(sin(scale(0.5, T))))),
                        t0=0.0, horizon=4000 * math.pi)
    ts = spec.grid(2001)
    assert np.ptp(ts - spec.h.eval_array(ts)) < 1e-9
    verdicts = {v.criterion: v for v in best_verdict(spec, summarize(spec))}
    for name in ("prop_yu", "prop_tang_zou"):
        assert not verdicts[name].applicable and verdicts[name].reason == "constant delays required"
    assert verdicts["theorem1"].satisfied  # the paper's tests still decide it


def test_best_verdict_ex4(ex4):
    verdicts = {v.criterion: v for v in best_verdict(ex4, summarize(ex4))}
    assert verdicts["theorem2"].satisfied
    assert not verdicts["theorem1"].applicable  # a changes sign


def test_best_verdict_trivial_nondelayed():
    from ndstab.eqspec import EquationSpec
    from ndstab.expr import const, tvar
    spec = EquationSpec(a=const(0.0), b=const(1.0), g=tvar(), h=tvar(),
                        t0=0.0, horizon=10.0)
    verdicts = {v.criterion: v for v in best_verdict(spec, summarize_at(spec, 2001))}
    assert verdicts["corollary2"].satisfied
    assert verdicts["corollary2"].margin == 1.0


def test_every_verdict_reads_the_summary_sup_a_and_inf_a():
    # a = 0.4 + 0.3 cos(8.0425 t) aliases on integral_summary's 513 sample
    # times, where it looks constant near 0.34; every verdict, theorem 3
    # included, reads the summary's sup |a| near 0.7 and inf a near 0.1
    from ndstab.eqspec import EquationSpec
    from ndstab.expr import add, const, cos, div, scale, tvar
    from ndstab.params import estimate_limsup_int_b
    t = tvar()
    spec = EquationSpec(a=add(const(0.4), scale(0.3, cos(scale(8.0425, t)))), b=div(const(0.2), t),
                        g=div(t, const(2.0)), h=div(t, const(3.0)), t0=1.0, horizon=401.0)
    summary = summarize(spec)
    full = integral_summary(spec, summary, IntegralsOfB(spec))
    assert (full.norm_a, full.inf_a) == (summary.norm_a, summary.inf_a)
    assert summary.norm_a > 0.69 and summary.inf_a < 0.11
    records = {r.name: r for r in (criteria.THEOREM1, criteria.COROLLARY_MAIN_A, criteria.COROLLARY_MAIN_B,
                                   criteria.THEOREM2, criteria.THEOREM2_REMARK, criteria.COROLLARY5_A,
                                   criteria.COROLLARY5_B, criteria.THEOREM3)}
    limsup = estimate_limsup_int_b(spec, summary.tau, IntegralsOfB(spec))
    variable = replace(summary, constant_delays=False)
    baselines = {"prop_yu": check_prop_yu(variable, limsup),
                 "prop_tang_zou": check_prop_tang_zou(variable, limsup)}
    verdicts = best_verdict(spec, summary)
    assert {v.criterion for v in verdicts} == records.keys() | baselines.keys()
    for v in verdicts:
        want = baselines.get(v.criterion) or records[v.criterion].check(full, v.witness_alpha)
        assert v == want, v.criterion
    assert next(v for v in verdicts if v.criterion == "theorem3").applicable


def test_verdict_sorted_satisfied_first(ex4):
    verdicts = best_verdict(ex4, summarize(ex4))
    flags = [v.satisfied for v in verdicts]
    assert flags == sorted(flags, reverse=True)


def test_verdict_json_shape(ex1):
    d = best_verdict(ex1, summarize(ex1))[0].to_dict()
    assert set(d) == {"criterion", "applicable", "satisfied", "margin",
                      "alpha", "kind", "certification", "notes"}


# -- the optimal alpha passes its own gate --------------------------------------------

RECORDS = (criteria.THEOREM1, criteria.COROLLARY1, criteria.THEOREM2,
           criteria.THEOREM2_REMARK, criteria.THEOREM3)


def test_theorem3_best_alpha_passes_its_gate_where_cap_over_scale_rounds_up():
    a = 0.5921365739418385
    isum = replace(mk(a, a, 1.0, 0.5, 0.5, 0.5), tilde_delta=0.04897892123258726,
                   tilde_tau=0.04897892123258726, tilde_sigma=0.0784554857250167)
    assert isum.tilde_tau0 == 0.15004456925254636
    cap_over_scale = isum.tilde_delta / isum.tilde_tau0
    assert cap_over_scale == 0.3264291501956913
    assert cap_over_scale * isum.tilde_tau0 > isum.tilde_delta  # the old optimum fails its gate
    alpha = criteria.THEOREM3.best_alpha(isum)
    assert alpha == math.nextafter(cap_over_scale, 0.0)
    v = check_theorem3(isum, alpha)
    assert v.applicable and v.satisfied


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 0.99), st.floats(0.0, 1.0), st.floats(1e-3, 10.0), st.floats(0.0, 3.0),
       st.floats(0.0, 3.0))
def test_best_alpha_passes_its_own_gate(norm_a, plus_share, norm_b, delta, tilde_delta):
    s = ParameterSummary(norm_a=norm_a, inf_a=norm_a, norm_a_plus=norm_a * plus_share,
                         norm_a_minus=0.0, norm_b=norm_b, inf_b=norm_b, sigma=0.5,
                         tau=delta, delta=delta, tilde_tau=tilde_delta, tilde_delta=tilde_delta,
                         tilde_sigma=0.5)
    for test in RECORDS:
        scale, cap = test.gate(s)
        alpha = test.best_alpha(s)
        assert 0.0 <= alpha <= 1.0 and alpha * scale <= cap
        # lowered from the gate optimum only while it failed the gate
        optimum = min(1.0, cap / scale)
        assert alpha == optimum or (alpha < optimum and math.nextafter(alpha, 2.0) * scale > cap)
        assert not test.check(s, alpha).reason.startswith("gate")


# -- the hand-written checks the AlphaTest records replaced, kept as the reference ---------

def _ref_cert(s, fields):
    return "certified" if s.certified(fields) else "numerically-supported"


def _ref_na(criterion, reason, kind, cert, alpha, notes=()):
    return criteria.CriterionVerdict(criterion, False, reason, False, math.nan, alpha, kind, cert, notes)


def _ref_decide(criterion, margin, kind, cert, alpha, notes=()):
    return criteria.CriterionVerdict(criterion, True, "", margin > 0.0, margin, alpha, kind, cert, notes)


def _ref_unit(alpha):
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _ref_rhs(one_minus, alpha):
    return one_minus * (1.0 + alpha / math.e)


_REF_T1 = ("norm_a", "inf_a", "norm_b", "sigma", "tau", "delta")
_REF_T2 = ("norm_a", "norm_a_plus", "norm_a_minus", "norm_b", "sigma", "tau", "delta")
_REF_T3 = ("tilde_tau", "tilde_delta", "tilde_sigma", "norm_a", "inf_a")
_REF_T3_NOTES = ("hypotheses assumed, not verified numerically: int b = inf, b != 0 almost everywhere",)
_UE = "uniform-exponential"


def ref_theorem1(summary, alpha, criterion="theorem1"):
    _ref_unit(alpha)
    cert = _ref_cert(summary, _REF_T1)
    if summary.inf_a <= 0.0:
        return _ref_na(criterion, "a(t) >= a0 > 0 fails", _UE, cert, alpha)
    if alpha * tau0(summary) > summary.delta:
        return _ref_na(
            criterion, f"gate alpha*tau0 <= delta fails ({alpha * tau0(summary):.6g} > {summary.delta:.6g})",
            _UE, cert, alpha)
    one_minus = 1.0 - summary.norm_a
    sigma_term = summary.sigma * summary.norm_a * summary.norm_b * (1.0 - summary.inf_a) / (one_minus * one_minus)
    return _ref_decide(criterion, _ref_rhs(one_minus, alpha) - (summary.tau * summary.norm_b + sigma_term),
                       _UE, cert, alpha)


def ref_corollary1(summary, alpha):
    _ref_unit(alpha)
    if summary.norm_a != summary.inf_a:
        raise NotConstant(
            f"constant neutral coefficient required (norm_a={summary.norm_a}, inf_a={summary.inf_a})")
    a = summary.norm_a
    cert = _ref_cert(summary, _REF_T1)
    gate = summary.delta * math.e * summary.norm_b / (1.0 - summary.norm_a)
    if alpha > gate:
        return _ref_na("corollary1", f"gate alpha <= delta*e*||b||/(1-a) fails ({alpha:.6g} > {gate:.6g})",
                       _UE, cert, alpha)
    lhs = summary.tau * summary.norm_b + summary.sigma * a * summary.norm_b / (1.0 - a)
    return _ref_decide("corollary1", _ref_rhs(1.0 - a, alpha) - lhs, _UE, cert, alpha)


def ref_theorem2(summary, alpha, criterion="theorem2", strict_gate=False):
    _ref_unit(alpha)
    cert = _ref_cert(summary, _REF_T2)
    tb = tau_bar(summary)
    gate_ok = alpha * tb < summary.delta if strict_gate else alpha * tb <= summary.delta
    if not gate_ok:
        op = "<" if strict_gate else "<="
        return _ref_na(
            criterion, f"gate alpha*tau_bar {op} delta fails ({alpha * tb:.6g} vs {summary.delta:.6g})",
            _UE, cert, alpha)
    rhs = 1.0 - summary.norm_a + alpha * (1.0 - summary.norm_a_plus) / math.e
    one_minus_p = 1.0 - summary.norm_a_plus
    lhs = (summary.tau * summary.norm_b
           + summary.sigma * summary.norm_a_plus * summary.norm_b / (one_minus_p * one_minus_p)
           + summary.norm_a_minus * summary.norm_b / one_minus_p)
    return _ref_decide(criterion, rhs - lhs, _UE, cert, alpha)


def ref_theorem2_remark(summary, alpha):
    _ref_unit(alpha)
    cert = _ref_cert(summary, _REF_T2)
    if summary.norm_a != summary.norm_a_plus:
        return _ref_na("theorem2_remark", "needs sup a >= sup(-a) (||a|| = ||a+||)", _UE, cert, alpha)
    tb = tau_bar(summary)
    if alpha * tb > summary.delta:
        return _ref_na(
            "theorem2_remark", f"gate alpha*tau_bar <= delta fails ({alpha * tb:.6g} > {summary.delta:.6g})",
            _UE, cert, alpha)
    a = summary.norm_a
    lhs = (summary.tau * summary.norm_b
           + summary.sigma * a * summary.norm_b / (1.0 - a) ** 2
           + summary.norm_a_minus * summary.norm_b / (1.0 - a))
    return _ref_decide("theorem2_remark", _ref_rhs(1.0 - a, alpha) - lhs, _UE, cert, alpha)


def ref_theorem3(isummary, alpha):
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    cert = _ref_cert(isummary, _REF_T3)
    if isummary.inf_a <= 0.0:
        return _ref_na("theorem3", "a(t) >= a0 > 0 fails", "asymptotic", cert, alpha, _REF_T3_NOTES)
    if alpha * isummary.tilde_tau0 > isummary.tilde_delta:
        return _ref_na(
            "theorem3",
            f"gate alpha*tilde_tau0 <= tilde_delta fails "
            f"({alpha * isummary.tilde_tau0:.6g} > {isummary.tilde_delta:.6g})",
            "asymptotic", cert, alpha, _REF_T3_NOTES)
    one_minus = 1.0 - isummary.norm_a
    lhs = isummary.tilde_tau + isummary.tilde_sigma * isummary.norm_a * (1.0 - isummary.inf_a) / (one_minus * one_minus)
    return _ref_decide("theorem3", _ref_rhs(one_minus, alpha) - lhs, "asymptotic", cert, alpha, _REF_T3_NOTES)


def ref_corollary3(summary, alpha):
    _ref_unit(alpha)
    if summary.limit_tau is None:
        raise MissingLimit("corollary3 needs the analytic limit of t - h(t) (limit_tau override)")
    fields = ("norm_a", "inf_a", "norm_b", "sigma", "limit_tau")
    cert = _ref_cert(summary, fields)
    if summary.inf_a <= 0.0:
        return _ref_na("corollary3", "a(t) >= a0 > 0 fails", _UE, cert, alpha)
    one_minus = 1.0 - summary.norm_a
    tb = summary.limit_tau * summary.norm_b
    sigma_term = summary.sigma * summary.norm_a * summary.norm_b * (1.0 - summary.inf_a) / (one_minus * one_minus)
    lower_margin = tb - alpha * one_minus / math.e
    upper_margin = _ref_rhs(one_minus, alpha) - sigma_term - tb
    return _ref_decide("corollary3", min(lower_margin, upper_margin), _UE, cert, alpha)


def _outcome(check, *args):
    try:
        return repr(check(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


_PAIRS = (
    (ref_theorem1, check_theorem1),
    (ref_corollary1, check_corollary1),
    (ref_theorem2, check_theorem2),
    (ref_theorem2_remark, criteria.check_theorem2_remark),
    (ref_corollary3, check_corollary3),
    (lambda s, a: (ref_theorem1(s, 1.0, "corollary_main_a"), ref_theorem1(s, 0.0, "corollary_main_b")),
     lambda s, a: check_corollary_main(s)),
    (lambda s, a: (ref_theorem2(s, 1.0, "corollary5_a", strict_gate=True),
                   ref_theorem2(s, 0.0, "corollary5_b")),
     lambda s, a: check_corollary5(s)),
)


def _assert_records_match_reference(s, isum, rng):
    # 0, 1, a random alpha and each gate's cap / scale (the parent's optimum)
    alphas = [0.0, 1.0, float(rng.uniform()), min(1.0, s.delta / tau0(s)), min(1.0, s.delta / tau_bar(s)),
              min(1.0, s.delta * math.e * s.norm_b / (1.0 - s.norm_a))]
    for alpha in alphas:
        for ref, record in _PAIRS:
            assert _outcome(record, s, alpha) == _outcome(ref, s, alpha), (s, alpha)
    for alpha in (0.0, 1.0, float(rng.uniform()), min(1.0, isum.tilde_delta / isum.tilde_tau0)):
        assert _outcome(check_theorem3, isum, alpha) == _outcome(ref_theorem3, isum, alpha), (isum, alpha)


def _random_provenance(rng, fields):
    return {f: "analytic-override" for f in fields if rng.uniform() < 0.7}


def test_records_match_the_reference_on_random_summaries():
    rng = np.random.default_rng(20240611)
    for _ in range(2000):
        s = random_summary(rng)
        if rng.uniform() < 0.2:  # constant a
            s = replace(s, inf_a=s.norm_a, norm_a_plus=s.norm_a, norm_a_minus=0.0)
        if rng.uniform() < 0.1:  # h(t) = t
            s = replace(s, tau=0.0, delta=0.0)
        if rng.uniform() < 0.8:  # a limiting lag
            s = replace(s, limit_tau=rng.uniform(s.delta, s.tau))
        s = replace(s, provenance=_random_provenance(rng, _REF_T2 + ("inf_a", "limit_tau")))
        tilde_tau = rng.uniform(0.0, 2.0)
        isum = replace(s, tilde_delta=rng.uniform(0.0, tilde_tau), tilde_tau=tilde_tau,
                       tilde_sigma=rng.uniform(0.0, 2.0),
                       provenance={**s.provenance, **_random_provenance(rng, _REF_T3)})
        _assert_records_match_reference(s, isum, rng)


def test_records_match_the_reference_on_the_corpus(corpus):
    rng = np.random.default_rng(5)
    for spec in corpus.values():
        for variant in (spec, bare(spec)):
            s = summarize_at(variant, 20001)
            if s.limit_tau is None:  # a limiting lag, so that corollary3 is decided
                s = replace(s, limit_tau=0.5 * (s.delta + s.tau))
            _assert_records_match_reference(s, integral_summary(variant, s, IntegralsOfB(variant)), rng)
