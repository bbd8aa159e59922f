import json

import numpy as np
import pytest

from conftest import bare
from ndstab.eqspec import TREES, EquationSpec, SpecError, load_spec, save_spec, validate
from ndstab.expr import MAX_EXPR_DEPTH, absval, add, const, div, mul, scale, sin, tvar

T = tvar()


def test_validate_ex1_passes_with_expected_estimates(ex1):
    rep = validate(bare(ex1), 10_000)
    assert rep.passed
    rep.sample(TREES)
    est = rep.values
    assert est["norm_a"] == pytest.approx(0.6, abs=1e-12)
    assert est["sigma"] == pytest.approx(0.2, abs=1e-4)
    assert est["tau"] == pytest.approx(0.14, abs=1e-12)
    assert est["delta"] == pytest.approx(0.14, abs=1e-12)
    assert est["norm_b"] == 1.0 and est["inf_b"] == 1.0


def test_validate_fails_for_unit_neutral_coefficient():
    spec = EquationSpec(a=const(1.0), b=const(1.0), g=T, h=T, t0=0.0, horizon=10.0)
    rep = validate(spec, 101)
    assert not rep.passed
    fail = next(c for c in rep.failures() if c.check_id == "a1_a")
    assert fail.witnesses and fail.witnesses[0] == 0.0  # every fail carries a witness


def test_validate_pantograph_delays(ex5):
    rep = validate(bare(ex5), 10_000)
    assert rep.passed
    ok = {c.check_id: c.passed for c in rep.checks}
    assert ok["a3_g"] and ok["a3_h"] and ok["a3_reach_g"] and ok["a3_reach_h"]


def test_validate_detects_advanced_argument():
    spec = EquationSpec(a=const(0.1), b=const(1.0), g=add(T, const(0.5)), h=T,
                        t0=0.0, horizon=10.0)
    rep = validate(spec, 101)
    bad = next(c for c in rep.failures() if c.check_id == "a3_g")
    assert bad.witnesses


def test_validate_detects_nonpositive_b():
    spec = EquationSpec(a=const(0.1), b=const(-0.5), g=T, h=T, t0=0.0, horizon=10.0)
    rep = validate(spec, 101)
    assert any(c.check_id == "a1_b" for c in rep.failures())


# 0.5 sin(1e308 t^2): the argument overflows to inf past t = 1.3408, and sin(inf) is NaN
_NAN_PAST_1_34 = scale(0.5, sin(scale(1e308, mul(T, T))))


@pytest.mark.parametrize("tree, check_id", [("a", "a1_a"), ("b", "a1_b")])
def test_validate_flags_nan_coefficients(tree, check_id):
    coefficients = dict(a=const(0.5), b=const(1.0), g=add(T, const(-1.0)), h=add(T, const(-1.0)))
    coefficients[tree] = _NAN_PAST_1_34 if tree == "a" else add(const(1.0), _NAN_PAST_1_34)
    with np.errstate(all="ignore"):
        rep = validate(EquationSpec(**coefficients, t0=0.0, horizon=10.0), 100_000)
    assert rep.route == "grid" and [c.check_id for c in rep.failures()] == [check_id]
    witnesses = rep.failures()[0].witnesses
    assert len(witnesses) == 8 and 1.3408 < witnesses[0] < 1.3409


def test_validate_flags_denominator_zero_crossing():
    # denominator 4t crosses zero inside [-1, 1]... windows start at t0 >= 0,
    # so probe with a denominator vanishing at an interior point instead
    from ndstab.expr import div
    spec = EquationSpec(a=const(0.1), b=div(const(1.0), add(T, const(-5.0))),
                        g=T, h=T, t0=0.0, horizon=10.0)
    rep = validate(spec, 101)
    assert any(c.check_id == "domain_b" and not c.passed for c in rep.checks)


@pytest.mark.parametrize("points", [101, 1001])
def test_refinement_never_flips_fail_to_pass(points):
    # nested grids: doubling density keeps every coarse sample
    spec = EquationSpec(a=const(0.999), b=const(1.0), g=T, h=T, t0=0.0, horizon=10.0)
    coarse = validate(spec, points)
    fine = validate(spec, 2 * points - 1)
    for c_coarse, c_fine in zip(coarse.checks, fine.checks):
        assert not (not c_coarse.passed and c_fine.passed)
    for rep in (coarse, fine):
        rep.sample(("a", "b"))
    assert fine.values["norm_a"] >= coarse.values["norm_a"]
    assert fine.values["inf_b"] <= coarse.values["inf_b"]


def test_spec_roundtrip(tmp_path, ex3):
    path = tmp_path / "spec.json"
    save_spec(ex3, path)
    again = load_spec(path)
    assert again.to_dict() == ex3.to_dict()


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(SpecError):
        load_spec(tmp_path / "nope.json")


def test_load_spec_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SpecError):
        load_spec(p)


def test_load_spec_malformed_expression(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"a": ["wat"], "b": ["const", 1], "g": ["t"],
                             "h": ["t"], "t0": 0, "horizon": 1}))
    with pytest.raises(SpecError):
        load_spec(p)


def test_from_dict_bounds_the_expression_depth():
    chain = ["t"]
    for _ in range(1_999):
        chain = ["sin", chain]
    d = {"a": ["const", 0.3], "b": ["const", 1.0], "g": ["t"], "h": ["t"], "t0": 0.0, "horizon": 1.0}
    for key in ("a", "f"):
        with pytest.raises(SpecError) as exc:
            EquationSpec.from_dict({**d, key: chain})
        assert str(exc.value) == f"malformed specification: expression nested deeper than {MAX_EXPR_DEPTH} levels"


def test_validate_checks_the_forcing():
    base = dict(a=const(0.3), b=const(1.0), g=add(T, const(-1.0)), h=add(T, const(-1.0)),
                t0=0.0, horizon=10.0)
    ids = [c.check_id for c in validate(EquationSpec(**base), 11).checks]
    assert "f_finite" not in ids

    def forcing_check(f, points=11):
        rep = validate(EquationSpec(**base, f=f), points)
        assert [c.check_id for c in rep.checks] == ids + ["f_finite"]
        return rep.checks[-1]

    # proven by the enclosure, or sampled: NaN, a pole on the grid, and one
    # inside another quotient's denominator, which is not evaluated there
    assert forcing_check(sin(T)).passed
    assert forcing_check(const(float("nan"))).witnesses == tuple(float(t) for t in range(8))
    assert forcing_check(div(const(1.0), add(T, const(-5.0)))).witnesses == (5.0,)
    assert forcing_check(div(const(1.0), div(const(1.0), add(T, const(-5.0))))).witnesses == (5.0,)
    assert forcing_check(scale(1e308, scale(1e308, T))).witnesses == tuple(float(t) for t in range(1, 9))
    # a pole between grid points: its denominator changes sign
    assert forcing_check(div(const(1.0), add(T, const(-5.5)))).witnesses == (6.0,)
    # the default grid misses t = 5
    past_5 = float(np.linspace(0.0, 10.0, 100_000)[50_000])
    assert forcing_check(div(const(1.0), add(T, const(-5.0))), 100_000).witnesses == (past_5,)
    assert forcing_check(div(const(1.0), absval(add(T, const(-5.5))))).passed


def test_validate_reports_a_zero_inside_a_denominator():
    # a's denominator 1 / (t - 5) is not evaluated at t = 5, where its own
    # denominator is zero: both are witnesses there, and nothing raises
    spec = EquationSpec(a=div(const(0.1), div(const(1.0), add(T, const(-5.0)))), b=const(1.0),
                        g=add(T, const(-1.0)), h=add(T, const(-1.0)), t0=0.0, horizon=10.0)
    rep = validate(spec, 11)
    assert [(c.check_id, c.witnesses) for c in rep.failures()] == [("domain_a", (5.0,))] * 2


def test_spec_rejects_bad_window():
    with pytest.raises(SpecError):
        EquationSpec(a=const(0.1), b=const(1.0), g=T, h=T, t0=5.0, horizon=5.0)


def test_spec_rejects_unknown_override():
    with pytest.raises(SpecError):
        EquationSpec(a=const(0.1), b=const(1.0), g=T, h=T, t0=0.0, horizon=1.0,
                     overrides={"norm_q": 1.0})
