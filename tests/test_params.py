import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import bare, summarize_at
from ndstab import criteria, params
from ndstab.eqspec import EquationSpec
from ndstab.expr import DomainError, add, const, div, mul, scale, sin, tvar
from ndstab.params import (
    ANALYTIC,
    DEFAULT_PANELS,
    GRID_ESTIMATE,
    IntegralsOfB,
    SummaryError,
    estimate_limsup_int_b,
    integral_summary,
    simpson,
    summarize,
)

T = tvar()


def test_summarize_ex2_estimates(ex2):
    s = summarize_at(bare(ex2), 100_000)
    assert s.norm_a == pytest.approx(0.6, abs=1e-6)
    assert s.inf_a == pytest.approx(0.4, abs=1e-6)
    assert s.sigma == pytest.approx(1.0, abs=1e-6)
    assert s.tau == pytest.approx(1.0, abs=1e-12)
    assert s.delta == pytest.approx(1.0, abs=1e-12)
    assert s.norm_b == pytest.approx(1.0, abs=1e-6)
    assert s.provenance["norm_a"] == GRID_ESTIMATE
    assert s.limit_tau is None  # never grid-estimated


def test_summarize_ex4_sign_split(ex4):
    s = summarize_at(bare(ex4), 100_000)
    assert s.norm_a == pytest.approx(0.6, abs=1e-6)
    assert s.norm_a_plus == pytest.approx(0.6, abs=1e-6)
    assert s.norm_a_minus == pytest.approx(0.6, abs=1e-6)
    assert s.norm_b == pytest.approx(0.15, abs=1e-6)
    assert s.tau == pytest.approx(0.5, abs=1e-12)
    assert s.sigma == pytest.approx(0.2, abs=1e-6)
    assert s.norm_a == pytest.approx(max(s.norm_a_plus, s.norm_a_minus), abs=1e-12)


def test_summarize_degenerate_non_neutral():
    spec = EquationSpec(a=const(0.0), b=const(1.0), g=T, h=T, t0=0.0, horizon=10.0)
    s = summarize_at(spec, 1001)
    assert s.norm_a == 0.0 and s.sigma == 0.0 and s.tau == 0.0 and s.delta == 0.0


def test_summarize_prefers_overrides(ex1):
    s = summarize_at(ex1, 1001)
    assert s.norm_a == 0.6 and s.provenance["norm_a"] == ANALYTIC
    assert s.limit_tau == 0.14 and s.provenance["limit_tau"] == ANALYTIC


def test_summarize_rejects_nonpositive_b():
    spec = EquationSpec(a=const(0.1), b=sin(T), g=T, h=T, t0=0.0, horizon=10.0)
    with pytest.raises(SummaryError):
        summarize_at(spec, 1001)


def test_sign_split_pointwise_identity(corpus):
    for spec in corpus.values():
        ts = spec.grid(4097)
        av = spec.a.eval_array(ts)
        plus = np.maximum(av, 0.0)
        minus = np.maximum(-av, 0.0)
        np.testing.assert_array_equal(av, plus - minus)
        assert float(np.max(plus * minus)) == 0.0


def test_refining_grid_monotone(ex2):
    spec = bare(ex2)
    coarse = summarize_at(spec, 2001)
    fine = summarize_at(spec, 4001)
    assert fine.norm_a >= coarse.norm_a
    assert fine.norm_b >= coarse.norm_b
    assert fine.sigma >= coarse.sigma
    assert fine.tau >= coarse.tau
    assert fine.inf_a <= coarse.inf_a
    assert fine.inf_b <= coarse.inf_b
    assert fine.delta <= coarse.delta


def test_simpson_exact_for_cubic():
    # Simpson integrates cubics exactly: int_0^2 t^3 dt = 4
    from ndstab.expr import mul
    e = mul(T, T, T)
    assert simpson(e, 0.0, 2.0, 8) == pytest.approx(4.0, abs=1e-13)


def _families(spec):
    """(lo, hi) limits of the h-, g- and limsup families integral_summary and
    estimate_limsup_int_b integrate b over."""
    ts = spec.grid(513)
    for lower in (spec.h.eval_array(ts), spec.g.eval_array(ts)):
        keep = lower >= spec.t0
        yield lower[keep], ts[keep]
    tau = summarize(spec).tau
    tail = np.linspace(max(0.5 * (spec.t0 + spec.horizon), spec.t0 + tau), spec.horizon, 257)
    yield tail - tau, tail


def _one_by_one(expr, lo, hi):
    return np.array([simpson(expr, float(a), float(b)) for a, b in zip(lo, hi)])


def test_array_simpson_equals_scalar_calls(corpus):
    # bit-identical per row: this guards numpy's per-row pairwise summation
    for ex_id, spec in corpus.items():
        for lo, hi in _families(spec):
            assert np.array_equal(simpson(spec.b, lo, hi), _one_by_one(spec.b, lo, hi)), ex_id
    spec = corpus["ex4"]
    lo = np.array([0.5, 2.0, 2.0, 3.0])
    hi = np.array([1.5, 2.0, 4.0, 3.0])  # zero-width rows give 0.0
    assert np.array_equal(simpson(spec.b, lo, hi), _one_by_one(spec.b, lo, hi))
    assert isinstance(simpson(spec.b, 0.5, 1.5), float)


def test_array_simpson_raises_the_first_scalar_failure():
    def first_error(expr, lo, hi):
        with pytest.raises(ValueError) as one:
            _one_by_one(expr, lo, hi)
        with pytest.raises(ValueError) as batch:
            simpson(expr, np.array(lo), np.array(hi))
        assert (type(batch.value), str(batch.value)) == (type(one.value), str(one.value))
        return batch.value

    quotient = div(const(1.0), add(T, const(-5.0)))
    assert "empty or reversed" in str(first_error(quotient, [0.0, 2.0, 1.0], [1.0, 1.0, 5.0]))
    assert isinstance(first_error(quotient, [0.0, 1.0, 2.0], [1.0, 5.0, 1.0]), DomainError)
    # the tree meets t = 7 before t = 3 in a joint evaluation; the row order decides
    two_poles = add(div(const(1.0), add(T, const(-7.0))), div(const(1.0), add(T, const(-3.0))))
    err = first_error(two_poles, [2.0, 6.0], [4.0, 8.0])
    assert "t=3.0" in str(err)


def _one_row(expr, lo, hi, panels=DEFAULT_PANELS):
    """The scalar call's outcome and its one-row array call's, each as the
    bits of a float or the type and message of the error."""
    def outcome(lo, hi):
        try:
            v = simpson(expr, lo, hi, panels)
        except ValueError as exc:
            return type(exc), str(exc)
        return type(v), np.asarray(v, dtype=float).reshape(-1).view(np.int64).tolist()
    got = outcome(lo, hi)
    want = outcome(np.array([lo], dtype=float), np.array([hi], dtype=float))
    if want[0] is np.ndarray:
        want = (float, want[1])
    return got, want


def test_scalar_simpson_equals_its_one_row_array_call(corpus):
    for spec in corpus.values():
        for lo, hi in ((spec.t0, spec.t0 + 1.7), (spec.t0 + 0.3, spec.horizon), (spec.t0 + 2, spec.t0 + 2)):
            for panels in (2, 7, 64, DEFAULT_PANELS):
                got, want = _one_row(spec.b, lo, hi, panels)
                assert got == want and got[0] is float, (spec.name, lo, hi, panels)
    quotient = div(const(1.0), add(T, const(-5.0)))
    got, want = _one_row(quotient, 1.0, 0.0)  # reversed
    assert got == want == (ValueError, "empty or reversed integration range")
    got, want = _one_row(quotient, 4.0, 6.0)  # t = 5 is a node
    assert got == want and got[0] is DomainError and "t=5.0" in got[1]
    with np.errstate(over="ignore"):  # int limit; t * t overflows to inf
        got, want = _one_row(mul(T, T), 3, 1.0e300)
    assert got == want and got[0] is float


def test_limsup_estimate_matches_per_point_loop(ex4):
    tau = summarize(ex4).tau
    tail = np.linspace(max(0.5 * (ex4.t0 + ex4.horizon), ex4.t0 + tau), ex4.horizon, 257)
    assert estimate_limsup_int_b(ex4, tau) == max(_one_by_one(ex4.b, tail - tau, tail).tolist())


def test_integral_summary_pantograph(ex5):
    isum = integral_summary(ex5, summarize(ex5))
    assert isum.tilde_tau == pytest.approx(0.25 * math.log(2.0), abs=1e-10)
    assert isum.tilde_delta == pytest.approx(0.25 * math.log(2.0), abs=1e-10)
    assert isum.tilde_sigma == pytest.approx(0.25 * math.log(3.0), abs=1e-10)
    assert isum.tilde_tau0 == (1.0 - 0.55) / math.e
    assert any("skipped" in n for n in isum.notes)  # h(t) < t0 region is skipped


def test_integral_summary_constant_b_matches_delay_bounds():
    # b = c, h = t - tau: the integral bounds are c * (delay bounds)
    c, lag = 0.7, 1.3
    spec = EquationSpec(a=const(0.2), b=const(c),
                        g=add(T, const(-0.4)), h=add(T, const(-lag)),
                        t0=0.0, horizon=50.0)
    s = summarize_at(spec, 10_001)
    isum = integral_summary(spec, s)
    assert isum.tilde_tau == pytest.approx(c * s.tau, abs=1e-10)
    assert isum.tilde_delta == pytest.approx(c * s.delta, abs=1e-10)
    assert isum.tilde_sigma == pytest.approx(c * s.sigma, abs=1e-10)


def test_integral_summary_reads_no_a():
    # a is singular at one of the 513 sample times: the bounds come from b,
    # g and h, and A0 and a0 stay those of the summary passed in
    good = EquationSpec(a=const(0.2), b=const(0.7), g=add(T, const(-0.4)), h=add(T, const(-1.3)),
                        t0=0.0, horizon=50.0)
    bad = replace(good, a=div(const(0.2), add(T, const(-float(good.grid(513)[7])))))
    s = summarize_at(good, 10_001)
    assert integral_summary(bad, s) == integral_summary(good, s)


def test_integral_summary_tilde_tau0_formula(ex5):
    isum = integral_summary(ex5, summarize(ex5))
    assert isum.tilde_tau0 == pytest.approx(0.165545748527149, abs=1e-12)


def test_summary_serialization_carries_provenance(ex1):
    d = summarize_at(ex1, 1001).to_dict()
    assert d["provenance"]["norm_a"] == ANALYTIC
    assert d["sign_split_convention"] == "u- = max(-u, 0)"


# -- the cumulative table of the integral of b ----------------------------------------------

def _integrals(b, t0=0.0, horizon=400.0):
    return IntegralsOfB(EquationSpec(a=const(0.1), b=b, g=T, h=T, t0=t0, horizon=horizon))


def test_table_rule_is_six_point_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(6)
    np.testing.assert_allclose(params._GL_NODES, nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(params._GL_WEIGHTS, weights, rtol=0, atol=1e-15)


def _wave(omega):
    return add(const(0.9), scale(0.1, sin(scale(omega, T))))


def test_table_matches_closed_forms(monkeypatch):
    rng = np.random.default_rng(6)
    hi = np.concatenate((rng.uniform(2.0, 400.0, 500), [2.0, 400.0]))
    lo = hi - rng.uniform(0.0, 2.0, hi.size)
    lo[-1] = 0.0
    # pantograph: int_{t/q}^t c/s ds = c ln q, from t0 = 1 to the horizon
    t = np.concatenate([np.linspace(q, 400.0, 513) for q in (1.5, 2.0, 4.0)])
    q = np.repeat([1.5, 2.0, 4.0], 513)
    cases = {"const": (const(0.7), 0.0, lo, hi, 0.7 * (hi - lo)),
             "sin t": (_wave(1.0), 0.0, lo, hi, 0.9 * (hi - lo) - 0.1 * (np.cos(hi) - np.cos(lo))),
             "sin 20t": (_wave(20.0), 0.0, lo, hi, 0.9 * (hi - lo) - 0.005 * (np.cos(20.0 * hi) - np.cos(20.0 * lo))),
             "c/t": (div(const(0.3), T), 1.0, t / q, t, 0.3 * np.log(q))}
    for name, (b, t0, a, z, exact) in cases.items():  # the width the table picks
        integrals = _integrals(b, t0=t0)
        assert integrals.tabulated
        np.testing.assert_allclose(integrals.over(a, z), exact, rtol=0, atol=1e-14, err_msg=name)
    rejected = {}
    for width in params._TABLE_WIDTHS:
        monkeypatch.setattr(params, "_TABLE_WIDTHS", (width,))  # that width, unchecked
        for name, (b, t0, a, z, exact) in cases.items():
            integrals = _integrals(b, t0=t0)
            error = np.max(np.abs(integrals.over(a, z) - exact))
            if width != params.TABLE_CELL and integrals._cells(width, checked=True) is None:
                rejected[name, width] = error
            else:
                assert integrals.cell == width and error <= 1e-14, (name, width, error)
    # the one width the check turns down here would miss the bound
    assert list(rejected) == [("sin 20t", 0.08)] and rejected["sin 20t", 0.08] > 1e-14
    integrals = _integrals(div(const(0.3), T), t0=1.0)
    assert np.array_equal(integrals.over([5.0, 7.5], [5.0, 7.5]), [0.0, 0.0])
    with pytest.raises(ValueError, match="empty or reversed"):
        integrals.over([2.0], [1.0])


def test_table_takes_the_coarsest_width_that_passes(corpus):
    coarsest = params._TABLE_WIDTHS[0]
    assert coarsest == 0.08
    for ex_id in ("ex1", "ex2", "ex3", "ex5"):
        assert IntegralsOfB(corpus[ex_id]).cell == coarsest, ex_id
    # b of a generated bounded-lag spec: amp * (1 - b1 + b1 sin t)
    assert _integrals(scale(0.8, add(const(0.85), scale(0.15, sin(T))))).cell == coarsest
    assert _integrals(_wave(50.0)).cell == params.TABLE_CELL
    assert _integrals(div(const(0.3), T), t0=0.05).cell < coarsest  # steep near t0


    class NaNOn:
        """A b that is NaN on [lo, hi] and 1 elsewhere."""
        kind, args = "nan-on", ()

        def __init__(self, lo, hi):
            self.lo, self.hi = lo, hi

        def eval_array(self, ts):
            ts = np.asarray(ts, dtype=float)
            return np.where((ts >= self.lo) & (ts <= self.hi), np.nan, 1.0)

    # each interval holds nodes at every width: inside the window; in the
    # last cell of the first block of _TABLE_BLOCK cells (1365, an odd count);
    # past the last full cell, with a horizon of 400.05
    for lo, hi, horizon in ((5.0, 5.1, 400.0), (109.15, 109.19, 400.0), (400.01, 400.05, 400.05)):
        spec = SimpleNamespace(b=NaNOn(lo, hi), t0=0.0, horizon=horizon)
        assert IntegralsOfB(spec).cell == params.TABLE_CELL, (lo, hi)


def _reference_table(integrals):
    """B on cells of TABLE_CELL with no check: the rule per cell in blocks
    of _TABLE_BLOCK cells, then the running sum and its two-sum error."""
    h = params.TABLE_CELL
    cells = int((integrals.horizon - integrals.t0) / h)
    c = np.zeros(cells + 1)
    for k in range(0, cells, params._TABLE_BLOCK):
        edges = np.arange(k, min(k + params._TABLE_BLOCK, cells) + 1) * h + integrals.t0
        c[k + 1:k + len(edges)] = integrals._gauss(edges[:-1], np.diff(edges))
    big = np.cumsum(c)
    step = big[1:] - big[:-1]
    err = np.zeros_like(c)
    err[1:] = (big[:-1] - (big[1:] - step)) + (c[1:] - step)
    return big, np.cumsum(err)


def test_finest_width_is_the_unchecked_table(ex2, monkeypatch):
    tables = [_integrals(_wave(50.0))]  # fails every coarser width
    monkeypatch.setattr(params, "_TABLE_WIDTHS", (params.TABLE_CELL,))
    tables += [IntegralsOfB(ex2), _integrals(div(const(0.3), T), t0=1.0, horizon=37.005)]
    for integrals in tables:
        cell, big, small = integrals._table
        want_big, want_small = _reference_table(integrals)
        assert cell == params.TABLE_CELL
        assert np.array_equal(big, want_big) and np.array_equal(small, want_small)


def test_kinked_b_and_long_windows_keep_simpson(ex4):
    # ex4's b contains abs: integral_summary takes Simpson's values bit for bit
    isum = integral_summary(ex4, summarize(ex4))
    ts = ex4.grid(513)
    lower = ex4.h.eval_array(ts)
    int_h = simpson(ex4.b, lower[lower >= ex4.t0], ts[lower >= ex4.t0]).tolist()
    assert (isum.tilde_tau, isum.tilde_delta) == (max(int_h), min(int_h))
    lower = ex4.g.eval_array(ts)
    assert isum.tilde_sigma == max(simpson(ex4.b, lower[lower >= ex4.t0], ts[lower >= ex4.t0]).tolist())
    assert not IntegralsOfB(ex4).tabulated
    # a window of more than 2**18 cells is not tabulated
    long = _integrals(const(0.5), horizon=params._MAX_TABLE_CELLS * params.TABLE_CELL + 1.0)
    assert not long.tabulated
    assert np.array_equal(long.over([1.0, 2000.0], [3.0, 2000.5]), simpson(const(0.5), [1.0, 2000.0], [3.0, 2000.5]))


def test_best_verdict_builds_one_table(ex2, monkeypatch):
    built = []

    class Counting(IntegralsOfB):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(params, "IntegralsOfB", Counting)
    monkeypatch.setattr(criteria, "IntegralsOfB", Counting)
    names = {v.criterion for v in criteria.best_verdict(ex2)}
    assert {"theorem3", "prop_yu"} <= names and "limsup_int_b" not in ex2.overrides
    assert len(built) == 1
