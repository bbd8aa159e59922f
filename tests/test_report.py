import io
import json
import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import summarize_at
from ndstab import criteria, report
from ndstab.eqspec import EquationSpec
from ndstab.expr import absval, add, const, cos, div, scale, sin, tvar
from ndstab.params import ParameterSummary, summarize
from ndstab.report import (
    compare_baselines,
    load_waivers,
    reproduce_examples,
    scale_b,
    sweep_alpha_r,
    unwaived_mismatches,
    write_sweep_csv,
)

T = tvar()


def test_sweep_closed_form_spot_values(ex2):
    rows = {r.alpha: r for r in sweep_alpha_r(summarize(ex2), [0.0, 0.5, 1.0])}
    assert rows[1.0].r_upper == pytest.approx((1.6 / 13) * (1 + 1 / math.e), abs=1e-12)
    assert rows[1.0].r_lower == pytest.approx(0.4 / math.e, abs=1e-12)
    assert rows[0.0].r_upper == pytest.approx(1.6 / 13, abs=1e-12)
    assert rows[0.0].r_lower == 0.0
    assert rows[0.5].r_lower == pytest.approx(0.073576, abs=1e-6)
    assert rows[0.5].r_upper == pytest.approx(0.145715, abs=1e-6)
    assert all(r.feasible for r in rows.values())


def _lagged(rng, lag0, lag1, fn):
    """t - lag0 - lag1 |fn(omega t)|, as the generated specs write a lag."""
    parts = [T, const(-lag0)]
    if lag1:
        parts.append(scale(-lag1, absval(fn(scale(rng.uniform(0.5, 2.0), T)))))
    return add(*parts)


def _spec_like_generated(rng, i):
    """A unit-amplitude b family shaped like the generated `analyze` specs:
    constant, oscillating or sign-changing a, and constant, varying or
    pantograph lags."""
    if i % 5 == 4:
        return EquationSpec(a=const(rng.uniform(0.1, 0.6)), b=div(const(1.0), T),
                            g=div(T, const(rng.uniform(1.5, 4.0))), h=div(T, const(rng.uniform(1.5, 4.0))),
                            t0=1.0, horizon=rng.choice((200.0, 400.0)))
    a = (const(rng.uniform(0.1, 0.7)),
         add(const(rng.uniform(0.25, 0.6)), scale(rng.uniform(0.02, 0.2), cos(T))),
         scale(rng.uniform(0.2, 0.7), sin(T)))[i % 3]
    b1 = rng.uniform(0.05, 0.3)
    b = const(1.0) if i % 2 else add(const(1.0 - b1), scale(b1, sin(T)))
    tau0 = rng.uniform(0.1, 2.0)
    varying = (i // 2) % 2
    tau1 = varying * rng.uniform(0.1, 0.5) * tau0
    sigma0 = rng.uniform(0.2, 0.6) * tau0 if (i // 3) % 2 else rng.uniform(1.5, 3.0) * (tau0 + tau1)
    sigma1 = varying * rng.uniform(0.1, 0.5) * sigma0
    return EquationSpec(a=a, b=b, g=_lagged(rng, sigma0, sigma1, cos), h=_lagged(rng, tau0, tau1, sin),
                        t0=0.0, horizon=rng.choice((200.0, 300.0, 400.0)))


def test_sweep_cells_match_main_test(ex2):
    # 1000 random (alpha, r) cells agree with the direct test membership
    rng = np.random.default_rng(42)
    alphas = rng.uniform(0.0, 1.0, 40)
    rs = rng.uniform(0.01, 0.25, 25)
    for row in sweep_alpha_r(summarize(ex2), alphas):
        for r in rs:
            v = criteria.check_theorem1(summarize_at(scale_b(ex2, r), 101), row.alpha)
            assert (row.r_lower <= r < row.r_upper) == (v.applicable and v.satisfied), (row.alpha, r)
    # and on 50 random summaries, 1000 cells each, plus each row's edges and
    # their neighbours; b enters the summary as norm_b and inf_b, which scale
    # by r exactly as sampling r * b does
    pyrng = random.Random(42)
    for i in range(50):
        spec = _spec_like_generated(pyrng, i)
        s = summarize_at(spec, 1001)
        alphas = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 38)))
        rs = rng.uniform(0.001, 1.0, 25)
        assert summarize_at(scale_b(spec, rs[0]), 1001) == s.scale_b(rs[0])
        for row in sweep_alpha_r(s, alphas):
            edges = [e for e in (row.r_lower, row.r_upper) if 0.0 < e < math.inf]
            for r in [*rs, *edges, *(math.nextafter(e, d) for e in edges for d in (0.0, math.inf))]:
                v = criteria.check_theorem1(s.scale_b(r), row.alpha)
                assert (row.r_lower <= r < row.r_upper) == (v.applicable and v.satisfied), (i, row.alpha, r)


@pytest.mark.parametrize("name, r", [("ex2", 0.15), ("ex3", 0.05), ("generated", 0.37)])
def test_scaled_summary_is_the_summary_of_the_scaled_spec(corpus, name, r):
    # reproduce_examples scales ex2's and ex3's summaries instead of
    # summarizing their scaled specs again
    spec = corpus[name] if name in corpus else _spec_like_generated(random.Random(3), 0)
    want, got = summarize(scale_b(spec, r)), summarize(spec).scale_b(r)
    for f in fields(ParameterSummary):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


def test_sweep_csv_deterministic(ex2):
    alphas = [i / 10 for i in range(11)]
    blobs = []
    for _ in range(2):
        fh = io.StringIO()
        write_sweep_csv(sweep_alpha_r(summarize(ex2), alphas), fh)
        blobs.append(fh.getvalue())
    assert blobs[0] == blobs[1]
    header, first = blobs[0].split("\r\n")[:2]
    assert header == "alpha,r_lower,r_upper"
    assert first.startswith("0,")


@pytest.mark.parametrize("name", ["ex2", "ex3", "ex4"])
def test_reference_grid_of_a_is_the_override_free_summary(corpus, name):
    spec = corpus[name]
    grid, summary = report._grid(spec), summarize_at(replace(spec, overrides={}), 20001)
    assert (grid["norm_a"], grid["inf_a"]) == (summary.norm_a, summary.inf_a)
    assert spec.overrides  # the summary with the overrides would read them instead


def test_reports_match_flags(corpus):
    reports = {r.example_id: r for r in reproduce_examples(with_simulation=False)}

    q1 = {q.name: q for q in reports["ex1"].quantities}
    assert q1["alpha_interval_lower"].match and q1["alpha_interval_upper"].match
    assert abs(q1["alpha_interval_lower"].derived - 0.272) < 1e-3

    q3 = {q.name: q for q in reports["ex3"].quantities}
    assert not q3["r_band_upper"].match and not q3["r_band_lower"].match
    assert q3["part_b_r_upper"].match
    assert q3["r_band_upper"].derived == pytest.approx(0.079737, abs=1e-6)
    assert reports["ex3"].notes  # discrepancy note is carried

    q4 = {q.name: q for q in reports["ex4"].quantities}
    assert q4["sign_split_lhs"].match and q4["sign_split_lhs"].derived == 0.4125
    assert q4["alpha_threshold"].match
    assert not q4["rhs_at_alpha_0.45"].match

    q5 = {q.name: q for q in reports["ex5"].quantities}
    assert q5["integral_lhs"].match
    assert not q5["rhs_at_alpha_1"].match

    assert all(c.holds for r in reports.values() for c in r.claims)


def test_known_mismatches_are_waived():
    reports = reproduce_examples(with_simulation=False)
    waived = load_waivers()
    mismatches = [m for r in reports for m in r.mismatches()]
    assert set(mismatches) == {
        "ex3:r_band_upper", "ex3:r_band_lower",
        "ex4:rhs_at_alpha_0.45", "ex5:rhs_at_alpha_1",
    }
    assert unwaived_mismatches(reports, waived) == []
    assert unwaived_mismatches(reports, set()) != []


def test_report_json_provenance_tags():
    rep = reproduce_examples(ids=("ex1",), with_simulation=False)[0]
    d = rep.to_dict()
    assert all("method" in q for q in d["quantities"])
    assert {q["method"] for q in d["quantities"]} <= {"closed-form", "grid-estimate", "quadrature"}


def test_compare_baselines_near_critical(ex3):
    rows = {r["criterion"]: r for r in compare_baselines(summarize(ex3))}
    assert rows["baseline_sqrt"]["threshold"] == pytest.approx(0.063246, abs=1e-6)
    assert rows["baseline_3_2"]["threshold"] == pytest.approx(0.002002, abs=1e-9)
    assert rows["corollary_main_b"]["applicable"]
    # converted threshold shows this library's test is sharper on the shared scale
    note = rows["corollary_main_b"]["note"]
    assert "limsup" in note
    converted = float(note.split()[-1])
    assert converted > rows["baseline_sqrt"]["threshold"]


def test_compare_baselines_not_applicable_at_large_a(ex1):
    rows = {r["criterion"]: r for r in compare_baselines(summarize(ex1))}
    assert not rows["baseline_3_2"]["applicable"]
    assert not rows["baseline_sqrt"]["applicable"]
    assert rows["baseline_3_2"]["threshold"] is None


def test_compare_baselines_classical_limit():
    from ndstab.eqspec import EquationSpec
    from ndstab.expr import add, const, tvar
    t = tvar()
    spec = EquationSpec(a=const(0.0), b=const(1.0), g=t, h=add(t, const(-1.0)),
                        t0=0.0, horizon=50.0)
    rows = {r["criterion"]: r for r in compare_baselines(summarize(spec))}
    assert rows["baseline_3_2"]["threshold"] == pytest.approx(1.5, abs=1e-12)
