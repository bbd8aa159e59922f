"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_summary
from ndstab import criteria
from ndstab.cli import run
from ndstab.criteria import (
    alpha_interval_theorem1,
    check_prop_tang_zou,
    check_prop_yu,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    tau_bar,
)
from ndstab.eqspec import EquationSpec
from ndstab.params import IntegralsOfB, ParameterSummary, integral_summary, summarize
from ndstab.report import scale_b, sweep_alpha_r
from ndstab.series import SampledFunction, neumann_inverse
from ndstab.simulate import (
    SeededHistory,
    decay_rate,
    fundamental,
    integrate,
    lemma4_check,
    lemma5_condition,
)


def report(num, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}  {detail}")
    assert ok, f"criterion {num}: {detail}"


E = math.e


def test_criterion_01_alpha_interval(ex1):
    summary = summarize(ex1)
    iv = alpha_interval_theorem1(summary)  # warm-up call
    t0 = time.perf_counter()
    iv = alpha_interval_theorem1(summary)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(iv.lower - 0.1 * E) < 1e-12
        and abs(iv.upper - 0.35 * E) < 1e-12
        and abs(iv.lower - 0.271828) < 1e-6
        and abs(iv.upper - 0.35 * E) < 1e-6   # 0.951399; see decisions ledger
        and iv.lower_open and not iv.upper_open
        and elapsed < 1e-3
    )
    report(1, ok, f"interval ({iv.lower:.6f}, {iv.upper:.6f}] in {elapsed * 1e6:.0f} us")


def test_criterion_02_sweep_band(ex2):
    alphas = [i / 100 for i in range(101)]
    t0 = time.perf_counter()
    rows = sweep_alpha_r(summarize(ex2), alphas)
    elapsed = time.perf_counter() - t0
    at1 = rows[-1]
    ok = (
        len(rows) == 101
        and abs(at1.r_upper - (1.6 / 13) * (1 + 1 / E)) < 1e-12
        and abs(at1.r_upper - 0.168354) < 1e-6
        and abs(at1.r_lower - 0.4 / E) < 1e-12
        and abs(at1.r_lower - 0.147152) < 1e-6
        and elapsed < 0.1
    )
    report(2, ok, f"alpha=1 band [{at1.r_lower:.6f}, {at1.r_upper:.6f}) in {elapsed * 1e3:.1f} ms")


def test_criterion_03_sign_split_example(ex4):
    s = summarize(ex4)
    lhs = (s.tau * s.norm_b
           + s.sigma * s.norm_a_plus * s.norm_b / (1 - s.norm_a_plus) ** 2
           + s.norm_a_minus * s.norm_b / (1 - s.norm_a_plus))
    thr = E * (lhs - (1 - s.norm_a)) / (1 - s.norm_a_plus)
    tb = tau_bar(s)
    v = check_theorem2(s, 0.45)
    ok = (
        abs(lhs - 0.4125) < 1e-12
        and abs(thr - 0.084939) < 1e-4
        and abs(tb - 0.4 / (0.15 * E)) < 1e-12   # 0.981012; see decisions ledger
        and abs(tb - 0.98) < 5e-3
        and v.applicable and v.satisfied
    )
    report(3, ok, f"lhs={lhs} alpha_thr={thr:.6f} tau_bar={tb:.6f} satisfied@0.45={v.satisfied}")


def test_criterion_04_integral_test(ex5):
    isum = integral_summary(ex5, summarize(ex5), IntegralsOfB(ex5))
    lhs = criteria.theorem3_lhs(isum)
    v1 = check_theorem3(isum, 1.0)
    v36 = check_theorem3(isum, 0.36)
    v30 = check_theorem3(isum, 0.30)
    ok = (
        abs(isum.tilde_tau - 0.25 * math.log(2)) < 1e-8
        and abs(isum.tilde_delta - 0.25 * math.log(2)) < 1e-8
        and abs(isum.tilde_sigma - 0.25 * math.log(3)) < 1e-8
        and abs(lhs - 0.508974) < 1e-4
        and isum.tilde_tau0 == (1 - 0.55) / E   # 0.165546; see decisions ledger
        and abs(isum.tilde_tau0 - 0.1655) < 5e-5
        and v1.satisfied and v36.satisfied and not v30.satisfied
    )
    report(4, ok, f"lhs={lhs:.6f} tau0~={isum.tilde_tau0:.6f} "
                  f"sat@1={v1.satisfied} sat@0.36={v36.satisfied} sat@0.30={v30.satisfied}")


def test_criterion_05_baselines():
    tz = criteria.tang_zou_threshold(0.499)
    yu = criteria.yu_threshold(0.499)
    s6 = ParameterSummary(norm_a=0.6, inf_a=0.6, norm_a_plus=0.6, norm_a_minus=0.0,
                          norm_b=1.0, inf_b=1.0, sigma=0.2, tau=0.14, delta=0.14)
    na_yu = not check_prop_yu(s6, 0.14).applicable
    na_tz = not check_prop_tang_zou(s6, 0.14).applicable
    ok = (
        abs(tz - math.sqrt(0.004)) < 1e-12
        and abs(tz - 0.063246) < 1e-6
        and abs(yu - (1.5 - 2 * 0.499 * (2 - 0.499))) < 1e-15  # 0.002002; see ledger
        and abs(yu - 0.002) < 5e-4
        and na_yu and na_tz
    )
    report(5, ok, f"sqrt-threshold={tz:.6f} 3/2-threshold={yu:.6f} "
                  f"n/a at A0=0.6: {na_yu and na_tz}")


def _histories(spec):
    from ndstab.expr import sin, tvar
    probe = np.linspace(spec.t0, spec.t0 + 301.0, 2048)
    reach = min(float(np.min(spec.g.eval_array(probe))),
                float(np.min(spec.h.eval_array(probe))))
    lo = min(spec.t0 - 1.0, reach - 1e-6)
    return (1.0, sin(tvar()), SeededHistory(42, lo, spec.t0))


def test_criterion_06_soundness_corpus(corpus):
    # criterion-satisfying parameter points for each benchmark equation
    points = {"ex1": 1.0, "ex2": 0.15, "ex3": 0.05, "ex4": 1.0, "ex5": 1.0}
    t_start = time.perf_counter()
    results = []
    for ex_id, spec in corpus.items():
        run_spec = scale_b(spec, points[ex_id]) if points[ex_id] != 1.0 else spec
        for hist in _histories(run_spec):
            traj = integrate(run_spec, hist, spec.t0 + 300.0, 1e-3)
            est = decay_rate(traj, warmup=0.0, window=30.0)
            results.append((ex_id, repr(hist)[:24], est.verdict))
    elapsed = time.perf_counter() - t_start
    bad = [r for r in results if r[2] != "decaying"]
    ok = not bad and elapsed <= 60.0
    report(6, ok, f"{len(results)} runs all decaying in {elapsed:.1f} s"
                  + (f"; failures: {bad}" if bad else ""))


def test_criterion_07_reconstruction(ex1):
    from ndstab.expr import absval, add, const, cos, scale, tvar
    # zero prehistory plus a forcing that switches on smoothly after one lag:
    # 0.5 (1 - cos r) of the ramp r = ((t - t_on) + |t - t_on|) / 2, which is 0
    # before t_on and t - t_on after
    t_on = ex1.t0 + 0.14
    lag = add(tvar(), const(-t_on))
    ramp = scale(0.5, add(lag, absval(lag)))
    forced = replace(ex1, f=scale(0.5, add(const(1.0), scale(-1.0, cos(ramp)))))
    traj = integrate(forced, 0.0, ex1.t0 + 30.0, 1e-3)
    y = SampledFunction(traj.t0, traj.step, traj.y.copy())
    recon, cert = neumann_inverse(ex1, y)
    err = float(np.max(np.abs(recon.values - traj.x)))
    ok = err <= 1e-4
    report(7, ok, f"max |x - inverse(y)| = {err:.3g} with {cert.terms} series terms")


def test_criterion_08_lemma_suite():
    from ndstab.expr import add, const, tvar
    t = tvar()
    ok_boundary, margin = lemma5_condition(const(1.0), add(t, const(-1.0 / E)),
                                           np.linspace(1.0, 30.0, 59))
    traj = fundamental(const(0.3), add(t, const(-1.0)), 0.0, 50.0, 1e-2)
    positive = float(np.min(traj.x)) > 0.0
    val = lemma4_check(const(0.3), add(t, const(-1.0)),
                       np.arange(0.0, 50.0001, 0.1), 50.0, 2e-2)
    ok = ok_boundary and abs(margin) < 1e-12 and positive and val <= 1.0 + 1e-3
    report(8, ok, f"boundary margin={margin:.2g}, min X={float(np.min(traj.x)):.3g}, "
                  f"kernel integral max={val:.6f}")


def test_criterion_09_reduction_identities():
    rng = np.random.default_rng(2024)
    worst_31 = worst_21 = 0.0
    checked = 0
    while checked < 100:
        s = random_summary(rng)
        if s.inf_a <= 0.0:
            continue
        c = s.inf_b  # constant b
        s_const = ParameterSummary(
            norm_a=s.norm_a, inf_a=s.inf_a, norm_a_plus=s.norm_a_plus,
            norm_a_minus=s.norm_a_minus, norm_b=c, inf_b=c,
            sigma=s.sigma, tau=s.tau, delta=s.delta)
        isum = replace(s_const, tilde_delta=c * s.delta, tilde_tau=c * s.tau, tilde_sigma=c * s.sigma)
        alpha = rng.uniform(0.01, 1.0)
        v1 = check_theorem1(s_const, alpha)
        v3 = check_theorem3(isum, alpha)
        assert v1.applicable == v3.applicable
        if v1.applicable:
            worst_31 = max(worst_31, abs(v1.margin - v3.margin))
        checked += 1

    for _ in range(100):
        c = rng.uniform(0.01, 0.9)
        b = rng.uniform(0.01, 2.0)
        tau, sigma = rng.uniform(0, 2), rng.uniform(0, 2)
        alpha = rng.uniform(0.0, 1.0)
        s2 = ParameterSummary(norm_a=c, inf_a=c, norm_a_plus=c, norm_a_minus=0.0,
                              norm_b=b, inf_b=b, sigma=sigma, tau=tau, delta=tau)
        v2 = check_theorem2(s2, alpha)
        if not v2.applicable:
            continue
        # the main-test shape with the (1 - a0) factor replaced by 1
        lhs_shape = tau * b + sigma * c * b / ((1 - c) * (1 - c))
        rhs = (1 - c) * (1 + alpha / E)
        worst_21 = max(worst_21, abs(v2.margin - (rhs - lhs_shape)))
    ok = worst_31 <= 1e-12 and worst_21 <= 1e-12
    report(9, ok, f"margin deviations: integral-vs-main {worst_31:.2g}, "
                  f"split-vs-shape {worst_21:.2g}")


def test_criterion_10_interval_consistency():
    rng = np.random.default_rng(77)
    disagreements = 0
    for _ in range(1000):
        s = random_summary(rng)
        iv = alpha_interval_theorem1(s)
        for alpha in rng.uniform(0.0, 1.0, 100):
            v = check_theorem1(s, float(alpha))
            if (v.applicable and v.satisfied) != iv.contains(float(alpha)):
                disagreements += 1
    ok = disagreements == 0
    report(10, ok, f"{disagreements} disagreements over 100000 samples")


def test_criterion_11_discrepancy_ledger(capsys):
    from ndstab.report import load_waivers, reproduce_examples, unwaived_mismatches
    reports = reproduce_examples(with_simulation=False)
    mismatches = sorted(m for r in reports for m in r.mismatches())
    expected = sorted(["ex3:r_band_upper", "ex3:r_band_lower",
                       "ex4:rhs_at_alpha_0.45", "ex5:rhs_at_alpha_1"])
    code = run(["examples", "--all", "--no-simulation"])
    capsys.readouterr()
    ok = mismatches == expected and code == 0
    report(11, ok, f"mismatches {mismatches} waived; examples exit code {code}")
