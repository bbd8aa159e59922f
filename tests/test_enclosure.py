"""The interval enclosures and the enclosure-first ``validate``.

Containment: every float sample that ``eval_array`` (or the lag
``t - g(t)`` that ``validate`` samples) gives on a grid lies inside the
enclosure of each cell that holds its time; a NaN sample needs NaN bounds.

Parity: the enclosure route of ``validate`` and ``summarize`` gives what
the grid route gives.  The grid route is forced by replacing
``eqspec.enclose`` with an enclosure that proves nothing.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bare, summarize_at
from ndstab import cli, criteria, eqspec, params, report
from ndstab.eqspec import ENCLOSURE_CELLS, Enclosure, EquationSpec, validate
from ndstab.expr import TRIG_ALLOWANCE, absval, add, const, cos, div, lag_enclosure, scale, sin, tvar
from ndstab.params import SummaryError, summarize
from test_expr import _TREES, _random_tree

T = tvar()


def _cells_of(edges, ts):
    """For each time, the index of a cell that starts at it or holds it, and
    of a cell that ends at it or holds it."""
    last = len(edges) - 2
    right = np.clip(np.searchsorted(edges, ts, side="right") - 1, 0, last)
    left = np.clip(np.searchsorted(edges, ts, side="left") - 1, 0, last)
    for k in (right, left):
        assert np.all((edges[k] <= ts) & (ts <= edges[k + 1]))
    return right, left


def assert_contains(bounds, edges, ts, values, label):
    """Every value lies within the bounds of both cells its time lies in."""
    lo, hi = bounds
    for k in _cells_of(edges, ts):
        unproven = np.isnan(lo[k]) | np.isnan(hi[k])
        inside = (lo[k] <= values) & (values <= hi[k])
        bad = ~(unproven | inside)
        assert not bad.any(), (label, ts[bad][:3], values[bad][:3], lo[k][bad][:3], hi[k][bad][:3])


_WINDOWS = st.tuples(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1e4)),
    st.one_of(st.sampled_from((1e-3, 0.5, 10.0, 400.0)), st.floats(1e-6, 1e4)),
).map(lambda w: (w[0], w[0] + w[1])).filter(lambda w: w[1] > w[0])
_POINTS = st.integers(2, 3000)
_LAG_CONSTS = st.sampled_from((1.5, 2.0, 3.0, -2.0, 0.5, 1.0, math.inf, 1e-300)) | st.floats(-10.0, 10.0)


def _lag_shapes(rest):
    """Delay arguments: t plus other operands (t at any position), t / c,
    t alone, and any tree."""
    return st.one_of(
        st.builds(lambda xs, i: add(*xs[:i], T, *xs[i:]), st.lists(rest, min_size=1, max_size=3),
                  st.integers(0, 3)),
        st.builds(lambda xs: add(T, *xs), st.lists(  # t - c - w|sin|: every other operand <= 0
            st.builds(lambda c: scale(-c, absval(sin(T))), st.floats(0.0, 2.0)), min_size=1, max_size=2)),
        st.builds(lambda c: div(T, const(c)), _LAG_CONSTS),
        st.just(T),
        rest,
    )


def _grid_and_edges(window, points):
    t0, horizon = window
    spec = EquationSpec(a=T, b=T, g=T, h=T, t0=t0, horizon=horizon)
    ts = np.concatenate(list(eqspec.grid_blocks(spec, points)))
    edges = np.linspace(t0, horizon, ENCLOSURE_CELLS + 1)
    return ts, edges


@settings(max_examples=300, deadline=None)
@given(e=_TREES, window=_WINDOWS, points=_POINTS)
@example(e=sin(T), window=(0.0, 10.0), points=1001)         # a peak inside a cell
@example(e=cos(T), window=(0.0, 10.0), points=1001)
@example(e=scale(0.6, sin(T)), window=(0.0, 400.0), points=100_000)
@example(e=div(const(1.0), add(T, const(-5.0))), window=(0.0, 10.0), points=101)
def test_enclosure_contains_every_grid_sample(e, window, points):
    ts, edges = _grid_and_edges(window, points)
    with np.errstate(all="ignore"):
        bounds = e.enclose(edges[:-1], edges[1:])
        try:
            values = e.eval_array(ts)
        except ValueError:  # a zero denominator on the grid: unproven somewhere
            assert np.isnan(bounds[0]).any()
            return
    assert_contains(bounds, edges, ts, values, e.to_json())


@settings(max_examples=300, deadline=None)
@given(g=_lag_shapes(_TREES), window=_WINDOWS, points=_POINTS)
@example(g=add(T, const(-0.14)), window=(0.0, 400.0), points=100_000)
@example(g=add(T, scale(-0.2, absval(sin(T)))), window=(0.0, 400.0), points=100_000)
@example(g=div(T, const(3.0)), window=(1.0, 400.0), points=100_000)
def test_lag_enclosure_contains_every_grid_lag(g, window, points):
    ts, edges = _grid_and_edges(window, points)
    with np.errstate(all="ignore"):
        bounds = lag_enclosure(g, edges[:-1], edges[1:])
        try:
            lags = ts - g.eval_array(ts)
        except ValueError:
            assert np.isnan(bounds[0]).any()
            return
    assert_contains(bounds, edges, ts, lags, g.to_json())


def test_lag_enclosures_cancel_t():
    # without cancelling t the bounds would be a cell width (0.39) apart
    edges = np.linspace(0.0, 400.0, ENCLOSURE_CELLS + 1)
    for g, lag in ((add(T, const(-0.14)), 0.14), (add(const(-1.0), T), 1.0), (T, 0.0)):
        lo, hi = lag_enclosure(g, edges[:-1], edges[1:])
        assert np.all(hi - lo <= 1e-12) and np.all(np.abs(lo - lag) <= 1e-12)
    lo, hi = lag_enclosure(div(T, const(3.0)), edges[:-1], edges[1:])
    assert np.allclose(lo, edges[:-1] * 2.0 / 3.0, rtol=0, atol=1e-12)
    # t - 0.2 |sin t| is 0.0 at multiples of pi: its float lag is >= 0 exactly
    lo, _ = lag_enclosure(add(T, scale(-0.2, absval(sin(T)))), edges[:-1], edges[1:])
    assert lo.min() == 0.0


def test_trig_bounds_are_tight_away_from_extrema():
    edges = np.linspace(0.0, 10.0, ENCLOSURE_CELLS + 1)
    lo, hi = sin(T).enclose(edges[:-1], edges[1:])
    assert lo.min() == -1.0 - TRIG_ALLOWANCE and hi.max() == 1.0 + TRIG_ALLOWANCE
    # sin is 1-Lipschitz: each cell's bounds are at most its width apart, plus the allowance
    assert np.all(hi - lo <= np.diff(edges) + 2 * TRIG_ALLOWANCE + 1e-16)


def assert_cells_hold_their_nodes(spec, points):
    """The cells of a grid run over its nodes in order, neighbours sharing
    one, and every node's a, b, t - g and t - h lies within the bounds of
    each cell whose index range holds it (a NaN value needs NaN bounds)."""
    first, last = eqspec._cells(points)
    assert first[0] == 0 and last[-1] == points - 1
    assert np.array_equal(first[1:], last[:-1]) and np.all(first <= last)
    idx = eqspec._range_nodes(first, last)
    cell = np.repeat(np.arange(ENCLOSURE_CELLS), last - first + 1)
    ts = np.concatenate(list(eqspec.grid_blocks(spec, points)))
    with np.errstate(all="ignore"):
        enc = eqspec.enclose(spec, points)
        for tree in eqspec.TREES:
            lo, hi = (bound[cell] for bound in enc.cells[tree])
            try:
                values = eqspec._tree_values(spec, tree, ts)[idx]
            except ValueError:  # a zero denominator on the grid: unproven somewhere
                assert np.isnan(lo).any()
                continue
            bad = ~((lo <= values) & (values <= hi) | np.isnan(lo) | np.isnan(hi))
            assert not bad.any(), (spec, points, tree, ts[idx][bad][:3], values[bad][:3], lo[bad][:3], hi[bad][:3])


PARTITION_SIZES = (2, 3, 1_024, 1_025, 1_026, 4_001, 32_768, 100_000)


def test_cells_hold_their_nodes_on_the_corpus(corpus):
    for spec in corpus.values():
        for points in PARTITION_SIZES:
            assert_cells_hold_their_nodes(spec, points)


def test_cells_hold_their_nodes_on_random_trees():
    rng = random.Random(19)
    for _ in range(12):
        a, b, g, h = (_random_tree(rng, rng.randint(0, 3)) for _ in range(4))
        t0 = rng.choice((0.0, 1.0, 1e4))
        spec = EquationSpec(a=a, b=b, g=g, h=h, t0=t0, horizon=t0 + rng.choice((1e-3, 10.0, 400.0)))
        for points in PARTITION_SIZES:
            assert_cells_hold_their_nodes(spec, points)


def test_last_cell_holds_a_node_past_the_horizon():
    # On a window of three subnormals, node 4 of 6 rounds past the horizon.
    spec = EquationSpec(a=T, b=T, g=T, h=add(T, scale(-0.5, T)), t0=0.0, horizon=1.5e-323)
    ts = np.concatenate(list(eqspec.grid_blocks(spec, 6)))
    assert ts[4] > spec.horizon == ts[5]
    assert_cells_hold_their_nodes(spec, 6)


def test_zero_denominator_interval_is_unproven_not_raised():
    lo, hi = div(const(1.0), add(T, const(-5.0))).enclose(np.array([4.0, 6.0]), np.array([6.0, 7.0]))
    assert np.isnan(lo[0]) and np.isnan(hi[0])
    assert lo[1] == pytest.approx(0.5) and hi[1] == pytest.approx(1.0)


# -- routes and parity ------------------------------------------------------------------

def _no_proof(spec, points):
    """An enclosure that proves, clears and prunes nothing: the grid route,
    and the block pass."""
    unproven = np.full(ENCLOSURE_CELLS, math.nan)
    return Enclosure(dict.fromkeys(eqspec.FIELD_TREE, math.nan), math.nan, False,
                     dict.fromkeys(eqspec.TREES, (unproven, unproven)))


def _bench_like_specs():
    """Bounded-lag and pantograph specs like those the benchmark generates,
    each with and without its overrides."""
    def lagged(lag0, lag1, fn, omega):
        return add(T, const(-lag0), scale(-lag1, absval(fn(scale(omega, T)))))

    bounded = EquationSpec(
        a=add(const(0.4), scale(0.15, cos(T))), b=scale(0.8, add(const(0.8), scale(0.2, sin(T)))),
        g=lagged(0.9, 0.2, cos, 1.3), h=lagged(0.3, 0.1, sin, 1.3), t0=0.0, horizon=60.0,
        overrides=dict(norm_a=0.55, inf_a=0.25, norm_a_plus=0.55, norm_a_minus=0.0, norm_b=0.8,
                       inf_b=0.8 * 0.6, sigma=1.1, tau=0.4, delta=0.3), name="bounded")
    constant = EquationSpec(
        a=scale(0.5, sin(T)), b=const(0.7), g=add(T, const(-2.0)), h=add(T, const(-0.5)),
        t0=0.0, horizon=60.0, overrides=dict(norm_a=0.5, inf_a=-0.5, norm_a_plus=0.5, norm_a_minus=0.5,
                                             norm_b=0.7, inf_b=0.7, sigma=2.0, tau=0.5, delta=0.5,
                                             limit_tau=0.5, limsup_int_b=0.35), name="constant")
    pantograph = EquationSpec(
        a=const(0.3), b=div(const(0.2), T), g=div(T, const(2.5)), h=div(T, const(3.0)),
        t0=1.0, horizon=200.0, overrides=dict(norm_a=0.3, inf_a=0.3, norm_a_plus=0.3, norm_a_minus=0.0,
                                              tilde_tau=0.2 * math.log(3.0), tilde_delta=0.2 * math.log(3.0),
                                              tilde_sigma=0.2 * math.log(2.5)), name="pantograph")
    specs = {}
    for spec in (bounded, constant, pantograph):
        specs[spec.name] = spec
        specs[spec.name + "-bare"] = bare(spec)
    return specs


def _failing_specs():
    """Specs that fail a check or refute an override, and specs at the
    edge of what the enclosure proves."""
    base = dict(a=const(0.5), b=const(1.0), g=add(T, const(-1.0)), h=add(T, const(-1.0)),
                t0=0.0, horizon=50.0)
    return {
        "|a| touches 1": EquationSpec(**{**base, "a": cos(T)}),
        "b touches 0": EquationSpec(**{**base, "b": absval(sin(T))}),
        "g(t) = t at isolated points, as in ex1":
            EquationSpec(**{**base, "g": add(T, scale(-0.2, absval(sin(T))))}),
        "h(t) > t": EquationSpec(**{**base, "h": add(T, scale(0.1, sin(T)))}),
        "zero denominator": EquationSpec(**{**base, "b": div(const(1.0), add(T, const(-5.0)))}),
        "refuted override": EquationSpec(**{**base, "a": scale(0.6, sin(T)), "overrides": {"norm_a": 0.5}}),
        "override within the slack": EquationSpec(**{**base, "overrides": {"norm_a": 0.5 - 1e-14}}),
        # the slack is 1e-12 * 50: an override 2 slacks below the sup is refuted
        "override just past the slack": EquationSpec(**{**base, "overrides": {
            "norm_a": 0.5 - 1e-10, "inf_a": 0.5, "norm_a_plus": 0.5, "norm_a_minus": 0.0}}),
        "override of a free tree": EquationSpec(**{**base, "a": scale(0.6, sin(T)),
                                                   "overrides": {"norm_a": 0.6, "inf_a": -0.6}}),
    }


def _parity_specs(corpus):
    specs = dict(corpus)
    specs.update({name + "-bare": bare(spec) for name, spec in corpus.items()})
    specs.update(_bench_like_specs())
    specs.update(_failing_specs())
    return specs


def _summary_outcome(spec, points, extrema=None):
    try:
        return repr(summarize(spec, extrema or eqspec.Extrema(spec, points)))
    except (SummaryError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _routes(spec, points):
    """What validate and summarize give: passed, checks with witnesses, the
    summary from the report and without it, and the estimates (read last,
    as reading them samples every tree)."""
    rep = validate(spec, points)
    with_report = _summary_outcome(spec, points, rep) if rep.passed else None
    return (with_report, _summary_outcome(spec, points), rep.to_dict()), rep.route


@pytest.mark.parametrize("points", [4_001, 100_000])
def test_enclosure_and_grid_routes_agree(corpus, monkeypatch, points):
    specs = _parity_specs(corpus)
    with np.errstate(all="ignore"):
        fast = {name: _routes(spec, points) for name, spec in specs.items()}
        monkeypatch.setattr(eqspec, "enclose", _no_proof)
        slow = {name: _routes(spec, points) for name, spec in specs.items()}
    for name in specs:
        assert fast[name][0] == slow[name][0], name
        assert slow[name][1] == "grid"
    routes = {name: fast[name][1] for name in specs}
    assert all(routes[name] == "enclosure" for name in list(corpus) + list(_bench_like_specs())), routes
    for name in ("|a| touches 1", "b touches 0", "h(t) > t", "zero denominator"):
        assert routes[name] == "grid" and not validate(specs[name], points).passed


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_routes_agree(corpus, monkeypatch, tmp_path):
    paths = []
    for name, spec in _parity_specs(corpus).items():
        path = tmp_path / f"{len(paths)}.json"
        eqspec.save_spec(spec, path)
        paths.append(str(path))
    commands = [["check", "--json"], ["check"], ["compare", "--json"],
                ["sweep", "--alpha-grid", "0:1:0.25"], ["simulate", "--t-end", "2.5"],
                ["fundamental", "--s", "1.5", "--t-end", "3"]]

    def outcomes():
        with np.errstate(all="ignore"):
            return [_cli([cmd[0], path, *cmd[1:]]) for path in paths for cmd in commands]

    fast = outcomes()
    # the baselines read the lags' constancy from the enclosure on either
    # route: keep the one the real enclosure gives
    constant_delays, enclose = eqspec.Extrema.constant_delays.fget, eqspec.enclose
    monkeypatch.setattr(eqspec.Extrema, "constant_delays", property(lambda self: constant_delays(
        eqspec.Extrema(self.spec, self.grid_points, enclosure=enclose(self.spec, self.grid_points)))))
    monkeypatch.setattr(eqspec, "enclose", _no_proof)
    assert outcomes() == fast
    assert {code for code, _, _ in fast} == {0, 2}


def test_report_records_its_route(ex1, ex5):
    rep = validate(ex1, 1001)
    assert (rep.route, rep.cells) == ("enclosure", ENCLOSURE_CELLS)
    assert rep.sampled == []
    assert summarize(ex1, rep).sampled == ()  # every field is overridden and cleared
    assert rep.sampled == []
    # ex5 overrides only the fields of a: summarize samples b, g and h in one pass
    rep = validate(ex5, 1001)
    assert summarize(ex5, rep).sampled == ("b", "g", "h")
    ref = validate(bare(ex5), 1001)
    ref.sample(("h",))
    assert rep.values["tau"] == ref.values["tau"]  # the grid value, read from the same pass
    rep = validate(EquationSpec(a=cos(T), b=const(1.0), g=T, h=T, t0=0.0, horizon=1.0), 101)
    assert (rep.route, rep.sampled) == ("grid", [])
    assert summarize(bare(ex1), validate(bare(ex1), 1001)).sampled == ("a", "b", "g", "h")


def test_summary_sampled_trees_stay_out_of_its_record(ex5):
    s = summarize_at(ex5, 1001)
    assert s.sampled == ("b", "g", "h")
    assert "sampled" not in s.to_dict() and "sampled" not in repr(s)
    assert s == summarize(ex5, eqspec.Extrema(ex5, 1001, enclosure=_no_proof(ex5, 1001)))


def test_corpus_specs_prove_every_check(corpus):
    for name, spec in corpus.items():
        enc = eqspec.enclose(spec, 100_000)
        assert enc.proves_checks, name
        assert all(enc.clears(k, v, 1e-12 * 400.0) for k, v in spec.overrides.items()
                   if k in eqspec.FIELD_TREE), name


# -- the lags' constancy, read from the request's enclosure ----------------------------

def _one_cell_constancy(spec):
    """Both lags enclosed on one cell, the whole window, and tested against
    1e-9 max(1, window): how the baselines decided constancy before the
    request's enclosure on its cells did."""
    lo, hi = np.array([spec.t0]), np.array([spec.horizon])
    tol = 1e-9 * max(1.0, spec.horizon - spec.t0)
    with np.errstate(all="ignore"):
        return all(float(np.ptp(lag_enclosure(e, lo, hi))) <= tol for e in (spec.g, spec.h))


CONSTANCY_SIZES = (2, 3, 1_025, 100_000)


def test_summary_constancy_matches_one_cell_on_the_corpus(corpus):
    specs = {**corpus, **{name + "-bare": bare(spec) for name, spec in corpus.items()}, **_bench_like_specs()}
    decided = set()
    for name, spec in specs.items():
        want = _one_cell_constancy(spec)
        decided.add(want)
        for points in CONSTANCY_SIZES:
            with np.errstate(all="ignore"):
                s = summarize(spec, validate(spec, points))
            assert s.constant_delays == want, (name, points)
            assert s.constant_delays == summarize_at(spec, points).constant_delays
    assert decided == {True, False}
    s = summarize_at(corpus["ex3"], 1001)
    assert "constant_delays" not in s.to_dict() and "constant_delays" not in repr(s)
    assert s == replace(s, constant_delays=not s.constant_delays)


def test_extrema_constancy_matches_one_cell_on_random_trees():
    rng = random.Random(20)
    decided = []
    for _ in range(60):
        a, b = (_random_tree(rng, rng.randint(0, 3)) for _ in range(2))
        g, h = (rng.choice((_random_tree(rng, rng.randint(0, 3)), add(T, _random_tree(rng, rng.randint(0, 2))),
                            add(T, const(-rng.uniform(0.0, 2.0)))))
                for _ in range(2))
        t0 = rng.choice((0.0, 1.0, 1e4))
        spec = EquationSpec(a=a, b=b, g=g, h=h, t0=t0, horizon=t0 + rng.choice((1e-3, 10.0, 400.0)))
        want = _one_cell_constancy(spec)
        decided.append(want)
        for points in CONSTANCY_SIZES:
            assert eqspec.Extrema(spec, points).constant_delays == want, (spec.to_dict(), points)
    assert 5 < sum(decided) < 55


def test_check_encloses_the_lags_only_in_validate_and_summarize(corpus, monkeypatch, tmp_path):
    calls = []
    enclose_lag = lag_enclosure

    def counted(*args):
        calls.append(1)
        return enclose_lag(*args)

    for mod in (eqspec, criteria, params, report, cli):
        if getattr(mod, "lag_enclosure", None) is enclose_lag:
            monkeypatch.setattr(mod, "lag_enclosure", counted)
    for name, spec in corpus.items():
        path = tmp_path / f"{name}.json"
        eqspec.save_spec(spec, path)
        del calls[:]
        rep = validate(spec, 100_000)
        in_validate = len(calls)
        summary = summarize(spec, rep)
        in_request = len(calls)
        criteria.best_verdict(spec, summary)
        assert len(calls) == in_request and in_validate == 2, name
        del calls[:]
        assert _cli(["check", str(path)])[0] == 0
        assert len(calls) == in_request, name


def test_check_sees_a_lag_that_varies_between_samples(tmp_path):
    # h's lag 1 + 0.5 |sin(t / 2)| is 1.0 at every node of a 2,001-point grid
    # of [0, 4000 pi] and reaches 1.5 between them
    spec = EquationSpec(a=const(0.1), b=const(0.3), g=add(T, const(-0.5)),
                        h=add(T, const(-1.0), scale(-0.5, absval(sin(scale(0.5, T))))),
                        t0=0.0, horizon=4000 * math.pi)
    path = tmp_path / "aliased.json"
    eqspec.save_spec(spec, path)
    for points in ("2001", "100000"):
        code, out, _ = _cli(["check", str(path), "--json", "--grid", points])
        verdicts = {v["criterion"]: v for v in json.loads(out)}
        assert code == 0
        for name in ("prop_yu", "prop_tang_zou"):
            assert not verdicts[name]["applicable"] and verdicts[name]["notes"] == ["constant delays required"]
