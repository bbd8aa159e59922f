"""The blocked sampling pass and the pruned search against whole-grid references.

``validate`` and ``summarize`` sample the grid in blocks of SAMPLE_BLOCK
points, or evaluate only the enclosure cells that can hold each extremum;
the references below evaluate every coefficient on the whole grid at once,
as the two functions did before.  Outputs must be identical, NaN and
signed zeros included (compared through ``json.dumps``, which writes
floats by ``repr``), and so must any error raised.
"""

import json
import math
import random

import numpy as np
import pytest

from conftest import bare, summarize_at
from ndstab import eqspec
from ndstab.eqspec import (ENCLOSURE_CELLS, FIELD_TREE, SAMPLE_BLOCK, TREES, Enclosure, EquationSpec, Extrema,
                           grid_blocks, validate)
from ndstab.expr import absval, add, const, cos, div, mul, scale, sin, tvar
from ndstab.params import ANALYTIC, GRID_ESTIMATE, ParameterSummary, SummaryError, summarize
from test_expr import _random_tree

T = tvar()
SIZES = (SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2, 100_000)


@pytest.fixture(autouse=True)
def _search_every_grid(monkeypatch):
    """Search grids of any size, not only those of _MIN_CELL_NODES nodes a
    cell or more, so that the references below check the search on small
    grids too; and check that every call of _nodes gets the non-decreasing
    indices it requires."""
    monkeypatch.setattr(eqspec, "_MIN_CELL_NODES", 0)
    nodes = eqspec._nodes

    def checked_nodes(spec, points, idx):
        assert np.all(idx[1:] >= idx[:-1]), idx
        return nodes(spec, points, idx)

    monkeypatch.setattr(eqspec, "_nodes", checked_nodes)


# -- whole-grid references ------------------------------------------------------------

def _reference_check(check_id, description, ts, bad_mask):
    idx = np.nonzero(bad_mask)[0]
    return {"id": check_id, "description": description, "passed": idx.size == 0,
            "witnesses": [float(ts[i]) for i in idx[:8]]}


def reference_validate(spec, grid_points):
    ts = spec.grid(grid_points)
    checks = []
    for label, e in (("a", spec.a), ("b", spec.b), ("g", spec.g), ("h", spec.h)):
        for den in e.denominators():
            dv = den.eval_array(ts)
            bad = (dv == 0.0) | ~np.isfinite(dv)
            sign_change = np.zeros_like(bad)
            sign_change[1:] = np.sign(dv[1:]) * np.sign(dv[:-1]) < 0
            checks.append(_reference_check(
                f"domain_{label}", f"quotient denominator in {label}(t) bounded away from zero",
                ts, bad | sign_change))
    nan = float("nan")
    est = dict(norm_a=nan, inf_b=nan, norm_b=nan, sigma=nan, tau=nan, delta=nan)
    if all(c["passed"] for c in checks):
        av = spec.a.eval_array(ts)
        bv = spec.b.eval_array(ts)
        lag_g = ts - spec.g.eval_array(ts)
        lag_h = ts - spec.h.eval_array(ts)
        est = dict(norm_a=float(np.max(np.abs(av))), inf_b=float(np.min(bv)),
                   norm_b=float(np.max(bv)), sigma=float(np.max(lag_g)),
                   tau=float(np.max(lag_h)), delta=float(np.min(lag_h)))
        checks.append(_reference_check("a1_a", "|a(t)| <= A0 < 1", ts, ~(np.abs(av) < 1.0)))
        checks.append(_reference_check("a1_b", "0 < b0 <= b(t) <= B0", ts, ~(bv > 0.0)))
        checks.append(_reference_check("a3_g", "g(t) <= t", ts, lag_g < 0.0))
        checks.append(_reference_check("a3_h", "h(t) <= t", ts, lag_h < 0.0))
        for label, e in (("g", spec.g), ("h", spec.h)):
            ok = e.evaluate(spec.horizon) > spec.t0
            checks.append({"id": f"a3_reach_{label}",
                           "description": f"{label}(horizon) > t0 (finite-horizon proxy for {label} -> inf)",
                           "passed": bool(ok), "witnesses": [] if ok else [spec.horizon]})
        checks.append(_reference_check("a4", "0 <= t-g(t) and 0 <= t-h(t) with finite bounds",
                                       ts, ~np.isfinite(lag_g) | ~np.isfinite(lag_h)))
    return {"passed": all(c["passed"] for c in checks), "checks": checks,
            "estimates": est, "grid_points": grid_points}


def reference_extrema(spec, grid_points):
    """The nine grid extrema, without overrides."""
    ts = spec.grid(grid_points)
    av = spec.a.eval_array(ts)
    bv = spec.b.eval_array(ts)
    lag_g = ts - spec.g.eval_array(ts)
    lag_h = ts - spec.h.eval_array(ts)
    return {
        "norm_a": float(np.max(np.abs(av))), "inf_a": float(np.min(av)),
        "norm_a_plus": float(np.max(np.maximum(av, 0.0))),
        "norm_a_minus": float(np.max(np.maximum(-av, 0.0))),
        "norm_b": float(np.max(bv)), "inf_b": float(np.min(bv)),
        "sigma": float(np.max(lag_g)), "tau": float(np.max(lag_h)), "delta": float(np.min(lag_h)),
    }


def reference_summarize(spec, grid_points):
    """The summary without overrides (their refutation is not in the reference)."""
    out = reference_extrema(spec, grid_points)
    if out["inf_b"] <= 0.0:
        raise SummaryError(f"b must stay positive on the window; estimated inf b = {out['inf_b']}")
    return _fields(ParameterSummary(**out))


def _outcome(fn, *args):
    try:
        return json.dumps(fn(*args))
    except ValueError as exc:  # SummaryError, DomainError
        return f"{type(exc).__name__}: {exc}"


def _fields(summary):
    out = summary.to_dict()
    del out["provenance"], out["sign_split_convention"]
    return out


def _summary_fields(spec, grid_points):
    s = summarize_at(spec, grid_points)
    assert set(s.provenance.values()) == {GRID_ESTIMATE}
    return _fields(s)


def _grid_extrema(spec, grid_points):
    """The extrema by branch and bound over the spec's enclosure cells,
    where its bounds allow."""
    with np.errstate(all="ignore"):
        extrema = Extrema(spec, grid_points)
        extrema.sample(TREES)
    return extrema.values


def assert_matches_reference(spec, grid_points):
    got = _outcome(_grid_extrema, spec, grid_points)
    assert got == _outcome(reference_extrema, spec, grid_points), (spec, grid_points)
    got = _outcome(lambda: validate(spec, grid_points).to_dict())
    assert got == _outcome(reference_validate, spec, grid_points), (spec, grid_points)
    got = _outcome(_summary_fields, spec, grid_points)
    assert got == _outcome(reference_summarize, spec, grid_points), (spec, grid_points)


# -- tests ------------------------------------------------------------------------------

@pytest.mark.parametrize("points", SIZES + (3, 2 * SAMPLE_BLOCK, 20_001))
def test_grid_blocks_reproduce_the_grid(ex5, points):
    blocks = list(grid_blocks(ex5, points))
    assert all(len(b) <= SAMPLE_BLOCK for b in blocks)
    assert np.array_equal(np.concatenate(blocks), ex5.grid(points))


@pytest.mark.parametrize("t0, horizon, points", [
    (0.0, 1.5e-323, 10),  # the step underflows to 0: linspace's i / (n - 1) * width branch
    (0.0, 1.5e-323, 2), (0.0, 5e-324, 100_000),
    (1.0, 401.0, 2), (1.0, 401.0, 8_193), (0.3, 7.7, 100_000)])
def test_grid_blocks_are_the_grid_bit_for_bit(t0, horizon, points):
    spec = EquationSpec(a=const(0.1), b=const(1.0), g=T, h=T, t0=t0, horizon=horizon)
    assert np.concatenate(list(grid_blocks(spec, points))).tobytes() == spec.grid(points).tobytes()


@pytest.mark.parametrize("points", SIZES)
def test_corpus_matches_whole_grid_reference(corpus, points):
    for spec in corpus.values():
        assert_matches_reference(bare(spec), points)


def _bench_lag(lag0, lag1, fn, omega):
    """t - lag0 - lag1 |fn(omega t)|, as the benchmark's varying lags."""
    return add(T, const(-lag0), scale(-lag1, absval(fn(scale(omega, T)))))


# cos(c t) peaks every 16 enclosure cells, on a cell edge; the grids of
# 1,025 and 4,097 points hold every edge as a node.
_C = 2.0 * math.pi / (16 * 400.0 / ENCLOSURE_CELLS)
PRUNED = {
    "peaks on cell edges": EquationSpec(
        a=scale(0.5, cos(scale(_C, T))), b=add(const(1.0), scale(0.5, cos(scale(_C, T)))),
        g=add(T, const(-1.0), scale(-0.5, absval(cos(scale(_C, T))))),
        h=add(T, const(-0.5), scale(-0.25, cos(scale(_C, T)))), t0=0.0, horizon=400.0),
    "t0 > 0 and a horizon that is not round": EquationSpec(
        a=add(scale(0.4, sin(scale(1.7, T))), scale(0.1, cos(scale(0.3, T)))),
        b=add(const(0.8), scale(0.3, sin(T))), g=_bench_lag(0.9, 0.2, cos, 1.3),
        h=add(T, const(-0.3), scale(-0.1, sin(scale(2.1, T)))), t0=3.7, horizon=257.3141592),
    "bench-shaped lags": EquationSpec(
        a=add(const(0.4), scale(0.15, cos(T))), b=scale(0.8, add(const(0.8), scale(0.2, sin(T)))),
        g=_bench_lag(0.9, 0.2, cos, 1.3), h=_bench_lag(0.3, 0.1, sin, 1.3), t0=0.0, horizon=60.0),
}


@pytest.mark.parametrize("label", sorted(PRUNED))
def test_pruned_search_matches_whole_grid_reference(label):
    spec = PRUNED[label]
    for points in SIZES + (ENCLOSURE_CELLS + 1, 4 * ENCLOSURE_CELLS + 1):
        assert_matches_reference(spec, points)
    extrema = Extrema(spec, 100_000)
    extrema.sample(TREES)
    assert all(n < 5_000 for n in extrema.evaluated.values()), extrema.evaluated


def test_search_reaches_a_cell_that_beats_by_less_than_1e_12():
    # The tightest sound bounds: each cell's own grid max and min.  A decoy
    # cell, bounded one ulp past the grid max, is searched first; the cell
    # that holds the max beats what the decoy holds by less than 1e-12.
    spec = EquationSpec(a=add(const(0.5), scale(2e-7, sin(T))), b=const(1.0), g=T, h=T,
                        t0=0.0, horizon=400.0)
    av = spec.a.eval_array(spec.grid(100_000))
    lo, hi = (np.array([f(av[i:j + 1]) for i, j in zip(*eqspec._cells(100_000))]) for f in (np.min, np.max))
    for bound, top, outward in ((hi, av.max(), math.inf), (lo, av.min(), -math.inf)):
        runner_up = np.argmax(np.where(bound != top, np.abs(bound - 0.5), -1.0))
        assert 0.0 < abs(top - bound[runner_up]) < 1e-12
        bound[runner_up] = np.nextafter(top, outward)
    enclosure = Enclosure(dict.fromkeys(FIELD_TREE, math.nan), math.nan, False, {"a": (lo, hi)})
    extrema = Extrema(spec, 100_000, enclosure=enclosure)
    extrema.sample(("a",))
    assert extrema.evaluated["a"] < 5_000
    assert extrema.values == {k: v for k, v in reference_extrema(spec, 100_000).items() if FIELD_TREE[k] == "a"}


def test_search_batches_open_runs_best_bound_first():
    # The corner bounds of sin(t / 2) cos(t / 2) leave runs of more than
    # SAMPLE_BLOCK nodes open, so they are batched best bound first, and
    # each batch's nodes are put back in order for _nodes.
    c = mul(sin(scale(0.5, T)), cos(scale(0.5, T)))
    spec = EquationSpec(a=scale(0.8, c), b=add(const(1.0), scale(0.5, c)), g=T, h=T, t0=0.0, horizon=400.0)
    assert_matches_reference(spec, 100_000)
    extrema = Extrema(spec, 100_000)
    extrema.sample(("a", "b"))
    assert SAMPLE_BLOCK < extrema.evaluated["a"] < 20_000 and extrema.evaluated["b"] < 20_000


# The trees that each corpus spec prunes.  The others, the constant lags,
# take the block pass: t - (t - c) rounds differently at each node, while
# the bounds tie in every cell.  ex1's g prunes: sigma reads only the max
# of its lag 0.2 |sin t|, not its min of 0.0.
CORPUS_PRUNED = {"ex1": "abg", "ex2": "abg", "ex3": "ab", "ex4": "abg", "ex5": "abgh"}


def test_corpus_pruning_routes(corpus, monkeypatch):
    monkeypatch.undo()  # the rule of the program, not _search_every_grid's
    for name, spec in corpus.items():
        rep = validate(spec, 100_000)
        rep.sample(TREES)
        assert rep.route == "enclosure" and rep.sampled == list(TREES), name
        pruned = "".join(t for t in TREES if rep.evaluated[t] < 5_000)
        assert pruned == CORPUS_PRUNED[name], (name, rep.evaluated)
        assert all(rep.evaluated[t] >= 100_000 for t in TREES if t not in pruned), (name, rep.evaluated)
    extrema = Extrema(corpus["ex2"], 100_000)  # its enclosure, computed on first use
    extrema.sample(TREES)
    assert "".join(t for t in TREES if extrema.evaluated[t] < 5_000) == CORPUS_PRUNED["ex2"]
    points = 32 * ENCLOSURE_CELLS  # the smallest grid searched, and one node fewer
    for n, pruned in ((points, "abg"), (points - 1, "")):
        extrema = Extrema(corpus["ex2"], n)
        extrema.sample(TREES)
        assert "".join(t for t in TREES if extrema.evaluated[t] < n) == pruned, (n, extrema.evaluated)


def _random_spec(rng, wrapped):
    a, b, g, h = (_random_tree(rng, rng.randint(0, 3)) for _ in range(4))
    if wrapped:  # inside the assumptions unless a tree is non-finite
        a, b = scale(0.6, sin(a)), add(const(1.5), sin(b))
        g, h = add(T, scale(-0.5, absval(sin(g)))), add(T, scale(-0.5, absval(cos(h))))
    return EquationSpec(a=a, b=b, g=g, h=h, t0=rng.choice((0.0, 1.0)),
                        horizon=rng.choice((10.0, 400.0)))


def test_random_trees_match_whole_grid_reference():
    rng = random.Random(6)
    specs = [_random_spec(rng, wrapped=False) for _ in range(16)]
    while len(specs) < 32:  # and 16 that pass validation, so summaries are reached
        spec = _random_spec(rng, wrapped=True)
        with np.errstate(all="ignore"):
            passed = _outcome(lambda: validate(spec, 101).passed) == "true"
        if passed:
            specs.append(spec)
    with np.errstate(all="ignore"):  # the trees overflow and take sin(inf)
        for spec in specs:
            for points in SIZES:
                assert_matches_reference(spec, points)


def _unit_step_spec(**coefficients):
    """A spec whose grid of 2 * SAMPLE_BLOCK + 5 points is t = 0, 1, 2, ..."""
    n = 2 * SAMPLE_BLOCK + 5
    base = dict(a=const(0.5), b=const(1.0), g=add(T, const(-1.0)), h=add(T, const(-1.0)),
                t0=0.0, horizon=float(n - 1))
    return EquationSpec(**{**base, **coefficients}), n


def test_witnesses_across_a_block_boundary():
    # b <= 0 at t = SAMPLE_BLOCK - 5 .. SAMPLE_BLOCK + 3: nine violations, of
    # which the first eight straddle the boundary of the first two blocks
    spec, n = _unit_step_spec(b=add(absval(add(T, const(-(SAMPLE_BLOCK - 1.0)))), const(-4.5)))
    rep = validate(spec, n)
    a1_b = next(c for c in rep.checks if c.check_id == "a1_b")
    assert a1_b.witnesses == tuple(float(SAMPLE_BLOCK + i) for i in range(-5, 3))
    assert_matches_reference(spec, n)


@pytest.mark.parametrize("offset", [0.0, -0.5])
def test_denominator_sign_change_at_a_block_boundary(offset):
    # the denominator is zero at the first point of the second block, or
    # changes sign between the last point of the first block and it
    spec, n = _unit_step_spec(a=div(const(0.1), add(T, const(-(SAMPLE_BLOCK + offset)))))
    rep = validate(spec, n)
    assert [c.witnesses for c in rep.failures()] == [(float(SAMPLE_BLOCK),)]
    assert_matches_reference(spec, n)


_N = 2 * SAMPLE_BLOCK + 5  # the grid of _unit_step_spec: t = 0, 1, ..., _N - 1
_HUGE = scale(1e308, scale(1e308, sin(T)))  # -inf or inf, and 0.0 at t = 0
_INF_TIMES_SIN = mul(const(math.inf), sin(T))  # NaN at t = 0, -inf or inf elsewhere
_NAN_AT_0 = div(const(1.0), add(const(1.0), absval(mul(T, const(math.inf)))))  # 0.0 but NaN at t = 0


def _ramp(c):
    """2 max(t - c, 0), as |t - c| + (t - c)."""
    x = add(T, const(-c))
    return add(absval(x), x)


# Cases where the max and min of a block do not settle the fields and
# checks alone: zeros of either sign, |a| = 1 exactly, non-finite values,
# violations in the last, partial block only, and denominators that touch
# zero at a block boundary.
DEGENERATE = {
    "a = 0.0": dict(a=const(0.0)),
    "a = -0.0": dict(a=const(-0.0)),
    "a <= 0 with a -0.0": dict(a=scale(-0.5, absval(sin(T)))),
    "a >= 0 with a 0.0": dict(a=mul(sin(T), sin(T))),
    "a = cos t, 1 at t = 0": dict(a=cos(T)),
    "a = -1": dict(a=const(-1.0)),
    "a = 1 at the last point only": dict(a=div(T, const(_N - 1.0))),
    "a overflows to inf": dict(a=_HUGE),
    "a is NaN at t = 0": dict(a=_INF_TIMES_SIN),
    "a is 0.3 but NaN at t = 0": dict(a=add(const(0.3), _NAN_AT_0)),
    "b overflows to inf": dict(b=add(const(1.0), absval(_HUGE))),
    "b is NaN at t = 0": dict(b=add(const(1.0), absval(_INF_TIMES_SIN))),
    "b is 1 but NaN at t = 0": dict(b=add(const(1.0), _NAN_AT_0)),
    "b <= 0 in the last block only": dict(b=add(const(_N - 2.5), scale(-1.0, T))),
    "t - g is -inf": dict(g=add(T, absval(_HUGE))),
    "t - h is inf": dict(h=add(T, scale(-1.0, absval(_HUGE)))),
    "t - h is NaN at t = 0": dict(h=add(T, _INF_TIMES_SIN)),
    "t - g is 1 but NaN at t = 0": dict(g=add(T, const(-1.0), _NAN_AT_0)),
    "h > t in the last block only": dict(h=add(T, const(-1.0), _ramp(_N - 2.5))),
    "g > t in the last block only": dict(g=add(T, const(-1.0), _ramp(_N - 3.5))),
    "denominator touches 0 at the first point of block 2":
        dict(a=div(const(0.1), absval(add(T, const(-SAMPLE_BLOCK))))),
    "denominator touches 0 at the last point of block 1":
        dict(b=div(const(1.0), absval(add(T, const(1.0 - SAMPLE_BLOCK))))),
    "denominator touches -0.0 at the last point":
        dict(g=div(T, scale(-1.0, absval(add(T, const(1.0 - _N)))))),
    "denominator is inf": dict(h=div(T, add(const(2.0), absval(_HUGE)))),
    "denominator is NaN at t = 0": dict(a=div(const(0.1), add(const(2.0), absval(_INF_TIMES_SIN)))),
}


@pytest.mark.parametrize("label", sorted(DEGENERATE))
def test_degenerate_blocks_match_whole_grid_reference(label):
    spec, n = _unit_step_spec(**DEGENERATE[label])
    with np.errstate(all="ignore"):
        for points in (n, SAMPLE_BLOCK + 1, 3, 100_000):
            assert_matches_reference(spec, points)


def test_degenerate_witnesses():
    def witnesses(label, check_id):
        spec, n = _unit_step_spec(**DEGENERATE[label])
        with np.errstate(all="ignore"):
            return next(c.witnesses for c in validate(spec, n).checks if c.check_id == check_id)

    assert witnesses("a = 1 at the last point only", "a1_a") == (_N - 1.0,)
    assert witnesses("b <= 0 in the last block only", "a1_b") == (_N - 2.0, _N - 1.0)
    assert witnesses("h > t in the last block only", "a3_h") == (_N - 1.0,)
    assert witnesses("g > t in the last block only", "a3_g") == (_N - 2.0, _N - 1.0)
    assert witnesses("t - h is NaN at t = 0", "a4")[0] == 0.0
    assert witnesses("denominator touches 0 at the first point of block 2", "domain_a") == (float(SAMPLE_BLOCK),)
    assert witnesses("denominator touches 0 at the last point of block 1", "domain_b") == (SAMPLE_BLOCK - 1.0,)
    assert witnesses("denominator touches -0.0 at the last point", "domain_g") == (_N - 1.0,)


def test_summarize_error_names_the_first_singular_coefficient():
    # a's pole is in the last block, b's in the first: the error is a's, as
    # whole-grid evaluation in the order a, b, g, h raises it
    spec, n = _unit_step_spec(a=div(const(0.1), add(T, const(-(2.0 * SAMPLE_BLOCK)))),
                              b=div(const(1.0), add(T, const(-3.0))))
    assert _outcome(_summary_fields, spec, n) == _outcome(reference_summarize, spec, n)
    assert str(2.0 * SAMPLE_BLOCK) in _outcome(_summary_fields, spec, n)


def test_summarize_with_validation_extrema(corpus):
    for spec in corpus.values():
        rep = validate(spec, 4096)
        assert summarize(spec, rep) == summarize_at(spec, 4096)


def test_extrema_need_two_points(ex1):
    with pytest.raises(ValueError, match="grid_points must be >= 2"):
        summarize(ex1, Extrema(ex1, 1))


def test_overrides_refuted_by_the_grid():
    spec = EquationSpec(a=add(const(0.3), scale(0.2, sin(T))), b=add(const(1.0), scale(0.5, sin(T))),
                        g=add(T, const(-0.2), scale(-0.1, absval(sin(T)))),
                        h=add(T, const(-0.14), scale(-0.05, sin(T))), t0=0.0, horizon=50.0)
    exact = _grid_extrema(spec, 1001)
    s = summarize_at(EquationSpec(**{**vars(spec), "overrides": exact}), 1001)
    assert set(s.provenance.values()) == {ANALYTIC}
    slack = 1e-12 * 50.0
    for name, value in exact.items():
        infimum = name in ("inf_a", "inf_b", "delta")
        within = value + slack / 2 if infimum else value - slack / 2
        summarize_at(EquationSpec(**{**vars(spec), "overrides": {**exact, name: within}}), 1001)
        false = value + 2 * slack if infimum else value - 2 * slack
        with pytest.raises(SummaryError, match=f"override {name} = .* is refuted"):
            summarize_at(EquationSpec(**{**vars(spec), "overrides": {**exact, name: false}}), 1001)
