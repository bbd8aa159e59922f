import hashlib
import inspect
import io
import math
import os
import random
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ndstab import simulate
from ndstab.eqspec import EquationSpec, SpecError, load_spec
from ndstab.expr import DomainError, Expr, absval, add, const, cos, div, scale, sin, tvar
from ndstab.simulate import (
    FixedPointDivergence,
    SeededHistory,
    Trajectory,
    decay_rate,
    fundamental,
    integrate,
    lemma4_check,
    lemma5_condition,
)

T = tvar()


def spec_of(a, b, g, h, t0=0.0, horizon=500.0):
    return EquationSpec(a=a, b=b, g=g, h=h, t0=t0, horizon=horizon)


# -- basic integration accuracy ---------------------------------------------------

def test_reduces_to_scalar_ode():
    spec = spec_of(const(0.0), const(1.0), T, T)
    traj = integrate(spec, 1.0, 1.0, 1e-3)
    assert abs(traj.x[-1] - math.exp(-1.0)) < 1e-6


def test_degenerate_neutral_closed_form():
    # (0.5 x)' = -x  =>  x(t) = e^{-2t}
    spec = spec_of(const(0.5), const(1.0), T, T)
    traj = integrate(spec, 1.0, 1.0, 1e-3)
    assert abs(traj.x[-1] - math.exp(-2.0)) < 1e-6
    assert abs(traj.y[-1] - 0.5 * math.exp(-2.0)) < 1e-6


def test_ex1_decays(ex1):
    traj = integrate(ex1, 1.0, 60.0, 1e-3)
    est = decay_rate(traj, warmup=0.0, window=10.0)
    assert est.verdict == "decaying"
    assert est.rate > 0.0


def test_neutral_identity_invariant(ex1):
    traj = integrate(ex1, 1.0, 20.0, 1e-3)
    ts = traj.times()
    av = ex1.a.eval_array(ts)
    gv = ex1.g.eval_array(ts)
    resid = 0.0
    for n in range(traj.n):
        q = float(gv[n])
        xg = 1.0 if q < ts[0] else traj.x_at(q)
        resid = max(resid, abs(traj.y[n] - traj.x[n] + av[n] * xg))
    assert resid <= 1e-10


def test_fixed_point_iteration_bound(ex1):
    traj = integrate(ex1, 1.0, 30.0, 1e-3)
    bound = math.ceil(math.log(1e-12) / math.log(0.6)) + 2
    assert traj.fp_iterations_max <= bound
    assert traj.fp_residual_max < 1e-12


def test_step_halving_converges(corpus):
    from ndstab.report import scale_b
    reps = {"ex1": 1.0, "ex2": 0.15, "ex3": 0.05, "ex4": 1.0, "ex5": 1.0}
    for ex_id, spec in corpus.items():
        run = scale_b(spec, reps[ex_id]) if reps[ex_id] != 1.0 else spec
        t_end = spec.t0 + 5.0
        vals = [integrate(run, 1.0, t_end, d).x[-1] for d in (4e-3, 2e-3, 1e-3)]
        e_coarse = abs(vals[0] - vals[1])
        e_fine = abs(vals[1] - vals[2])
        assert e_fine <= e_coarse or e_coarse < 1e-12


# -- convergence order ------------------------------------------------------------

ORDER_STEP = 0.02


def _step_errors(spec, ts, path):
    """max |x - x_ref| over the times ts, from history 1, at steps
    ORDER_STEP / 2^k for k = 0 to 4, with x_ref at ORDER_STEP / 256; every
    run takes ``path``."""
    steps = ORDER_STEP / 2.0 ** np.arange(5)
    runs = [integrate(spec, 1.0, ts[-1], h) for h in (*steps, ORDER_STEP / 256)]
    assert {r.path for r in runs} == {path}
    ref = runs.pop().x_at(ts)
    return steps, np.array([np.max(np.abs(r.x_at(ts) - ref)) for r in runs])


@pytest.mark.parametrize("name", ["ex2", "ex4", "ex5"])
def test_chunked_path_converges_at_order_2(corpus, name):
    # RK4 with linearly interpolated lookups is second order where x is smooth
    # between breaking points; measured 1.96 to 2.07 on these three
    spec = corpus[name]
    _, errors = _step_errors(spec, spec.t0 + np.array([5.0, 10.0, 20.0]), "chunked")
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all((1.85 < orders) & (orders < 2.15)), orders


def test_ex3_error_is_within_a_multiple_of_the_step_squared(ex3):
    # ex3's lag pi is no multiple of the step, so the grid's offset from each
    # breaking point k pi changes with the step and the observed order
    # scatters (2.69, 1.15, 1.64, 2.88); the error stays under 0.64 h^2
    steps, errors = _step_errors(ex3, ex3.t0 + np.array([5.0, 10.0, 20.0]), "chunked")
    assert np.all(errors < 1.0 * steps ** 2), errors / steps ** 2


def test_scalar_path_error_is_first_order_in_the_step_while_the_neutral_lag_is_shorter():
    # a node whose neutral lag sigma is under one step h interpolates x
    # linearly between itself and the node before, which errs by about
    # sigma (h - sigma) / 2 |x''|: first order in h while sigma << h (observed
    # orders 1.08, 1.19, 1.45 and 1.96 as h falls towards sigma).  Here sigma
    # is 1.2e-4 to 1.7e-4, and the error stays under 0.37 sigma h
    spec = load_spec(Path(__file__).parent / "data" / "in_step.json")
    steps, errors = _step_errors(spec, np.array([1.0, 1.5, 2.0]), "scalar")
    assert np.all(errors < 0.5 * 1.7e-4 * steps), errors / (1.7e-4 * steps)


def test_divergence_detected_for_expanding_neutral_term():
    spec = spec_of(const(1.5), const(1.0), add(T, const(-1e-4)), T)
    with pytest.raises(FixedPointDivergence):
        integrate(spec, 1.0, 0.5, 1e-3)


def test_pantograph_history_reaches_below_t0(ex5):
    traj = integrate(ex5, 1.0, 4.0, 1e-3)
    assert np.all(np.isfinite(traj.x))
    # x(g(t)) queries hit [1/3, 1] early on; identity must still hold
    q = ex5.g.evaluate(1.5)
    assert q < ex5.t0


def test_seeded_history_reproducible():
    h1 = SeededHistory(7, -2.0, 0.0)
    h2 = SeededHistory(7, -2.0, 0.0)
    ts = np.linspace(-3.0, 0.0, 17)  # clamps below the node range
    np.testing.assert_array_equal(h1.eval_array(ts), h2.eval_array(ts))
    below, first = h1.eval_array(np.array([-2.5, -2.0]))
    assert below == first


@pytest.mark.parametrize("history", [lambda t: 1.0, "1.0"], ids=["callable", "str"])
def test_a_history_that_is_not_a_number_expr_or_seeded_history_is_a_type_error(history):
    spec = spec_of(const(0.0), const(1.0), T, add(T, const(-0.5)))
    with pytest.raises(TypeError, match="^history must be a number, an Expr or a SeededHistory, got "):
        integrate(spec, history, 1.0, 1e-2)
    assert integrate(spec, np.float64(1.0), 1.0, 1e-2).x.tolist() == integrate(spec, 1, 1.0, 1e-2).x.tolist()


def test_x_at_on_an_array_is_the_scalar_calls(ex1):
    # bit for bit, at nodes, between them, before t0 and past t_end, where
    # x_at extends the first and the last two nodes linearly
    traj = integrate(ex1, 1.0, ex1.t0 + 2.0, 1e-2)
    rng = np.random.default_rng(4)
    ts = np.concatenate((rng.uniform(traj.t0 - 1.5, traj.t_end + 1.5, 500), traj.times(),
                         [traj.t0 - 1e-300, traj.t0 - 0.5 * traj.step, traj.t_end + 0.5 * traj.step]))
    got = traj.x_at(ts)
    assert got.dtype == np.float64 and got.shape == ts.shape
    want = [traj.x_at(t) for t in ts.tolist()]
    assert all(type(v) is float for v in want)
    assert got.tobytes() == np.array(want).tobytes()


def test_trajectory_csv(tmp_path, ex1):
    traj = integrate(ex1, 1.0, 1.0, 1e-1)
    out = tmp_path / "traj.csv"
    with open(out, "w", newline="") as fh:
        traj.write_csv(fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == traj.n + 1


# -- wavefront recovery and block CSV writer against their sequential forms -----------

def _reference_lookup(qs, x, committed, t0, step, phi_vals):
    out = np.empty(len(qs))
    below = qs < t0
    out[below] = phi_vals[below]
    inside = ~below
    pos = (qs[inside] - t0) / step
    j = np.clip(np.floor(pos).astype(np.int64), 0, committed - 1)
    frac = pos - j
    out[inside] = x[j] * (1.0 - frac) + x[j + 1] * frac
    return out


def _reference_advance_chunked(x, y, tn, a_n, g_n, b_s, h_s, f_s, phi_h, phi_g,
                               t0, step, n_steps, k_chunk, stats):
    """The chunked integrator as it was before wavefront recovery: lookups
    and node classes per chunk, hard nodes recovered one by one."""
    pos = 0
    while pos < n_steps:
        end = min(pos + k_chunk, n_steps)
        j0, j1 = 2 * pos, 2 * end
        xq = _reference_lookup(h_s[j0:j1 + 1], x, pos, t0, step, phi_h[j0:j1 + 1])
        F = -b_s[j0:j1 + 1] * xq + f_s[j0:j1 + 1]
        dy = (step / 6.0) * (F[:-2:2] + 4.0 * F[1::2] + F[2::2])
        y[pos + 1:end + 1] = y[pos] + np.cumsum(dy)

        idx = np.arange(pos + 1, end + 1)
        lag = tn[idx] - g_n[idx]
        qg = g_n[idx]
        near = lag < 1e-14
        below = ~near & (qg < t0)
        easy = ~near & ~below & (qg <= tn[pos])
        hard = ~(near | below | easy)
        ii = idx[near]
        x[ii] = y[ii] / (1.0 - a_n[ii])
        ii = idx[below]
        x[ii] = y[ii] + a_n[ii] * phi_g[ii]
        ii = idx[easy]
        x[ii] = y[ii] + a_n[ii] * _reference_lookup(qg[easy], x, pos, t0, step,
                                                    np.zeros(len(ii)))
        for i in idx[hard].tolist():
            yi, ai = y[i], a_n[i]
            q = (g_n[i] - t0) / step
            j = min(int(q), i - 1)
            frac = q - j
            x[i] = x[i - 1]
            for it in range(1, 101):
                new = yi + ai * (x[j] + frac * (x[j + 1] - x[j]))
                resid = abs(new - x[i])
                x[i] = new
                if resid < 1e-12:
                    stats.iters_max = max(stats.iters_max, it)
                    stats.resid_max = max(stats.resid_max, resid)
                    break
            else:
                raise FixedPointDivergence(
                    f"x-recovery did not contract at t={t0 + step * i} "
                    "(|a| >= 1 or broken spec?)")
        pos = end


def _integrate_both(*args):
    return integrate(*args), _reference_integrate(*args)


# neutral lag 0.003 |sin t| dips below one step near multiples of pi
LAG_UNDER_STEP = spec_of(const(0.4), const(1.0), add(T, scale(-0.003, absval(sin(T)))),
                         add(T, const(-0.05)))
# pantograph g = t/1.2, h = t/3: the neutral lag t/6 is the shorter one
PANTOGRAPH_SHORT_NEUTRAL = spec_of(const(0.5), div(const(0.2), T), div(T, const(1.2)),
                                   div(T, const(3.0)), t0=1.0)
# x moves by up to about 1e-12 per step, so rounds converge in two
# iterations, or in one, or mix both; with b = 1e-10 every node takes one
SLOW_DRIFT = spec_of(const(0.5), scale(2e-9, absval(sin(T))), add(T, const(-0.05)),
                     add(T, const(-0.2)))
STILL = spec_of(const(0.5), const(1e-10), add(T, const(-0.05)), add(T, const(-0.2)))
# g = t - 0.02 - 0.015 |sin 100 t| goes back and forth, so the interpolation
# index of a later hard node can fall below an earlier one's
WIGGLY = spec_of(const(0.5), const(1.0), add(T, const(-0.02), scale(-0.015, absval(sin(scale(100.0, T))))),
                 add(T, const(-0.1)))


@pytest.mark.parametrize("name, t_end", [("ex4", 30.0), ("ex1", 30.0),
                                         ("lag_under_step", 10.0), ("pantograph", 20.0),
                                         ("slow_drift", 10.0), ("still", 5.0),
                                         ("wiggly", 5.0)])
def test_wavefront_recovery_matches_sequential_loop(corpus, name, t_end):
    spec = {"lag_under_step": LAG_UNDER_STEP, "pantograph": PANTOGRAPH_SHORT_NEUTRAL,
            "slow_drift": SLOW_DRIFT, "still": STILL, "wiggly": WIGGLY}.get(name) or corpus.get(name)
    new, ref = _integrate_both(spec, 1.0, t_end, 1e-3)
    assert new.path == "chunked" and new.nodes_hard > 0
    assert np.array_equal(new.x, ref.x)
    assert np.array_equal(new.y, ref.y)
    assert new.fp_iterations_max == ref.fp_iterations_max
    assert new.fp_residual_max == ref.fp_residual_max
    if name == "lag_under_step":
        assert new.nodes_self > 0
    if name == "pantograph":
        assert new.nodes_below > 0
    if name == "slow_drift":
        assert new.fp_iterations_max == 2 and new.fp_residual_max > 0.0
    if name == "still":
        assert new.fp_iterations_max == 1 and new.fp_residual_max > 0.0


@pytest.mark.parametrize("case", ["expanding"])
def test_wavefront_divergence_reports_the_sequential_node(case):
    spec = spec_of(const(1.5), const(1.0), add(T, const(-0.003)), add(T, const(-0.02)))
    new, ref = _divergence_messages(spec, 1.0, 6.0, 1e-3)
    assert new == ref


def _divergence_messages(*args):
    """The FixedPointDivergence messages of integrate and of its reference."""
    messages = []
    for run in (integrate, _reference_integrate):
        with pytest.raises(FixedPointDivergence) as exc, \
                np.errstate(over="ignore", invalid="ignore"):
            run(*args)
        messages.append(str(exc.value))
    return messages


def test_recovery_branch_counts_add_up_to_steps(ex4):
    traj = integrate(ex4, 1.0, 30.0, 1e-3)
    counts = (traj.nodes_near, traj.nodes_below, traj.nodes_easy, traj.nodes_hard,
              traj.nodes_self)
    assert traj.path == "chunked"
    assert sum(counts) == traj.n - 1
    assert min(traj.nodes_easy, traj.nodes_hard, traj.nodes_self) > 0
    # the scalar path counts the same branches, with no easy nodes
    scalar = integrate(spec_of(const(0.5), const(1.0), add(T, const(-5e-4)),
                               add(T, const(-2e-3))), 1.0, 1.0, 1e-3)
    assert scalar.path == "scalar"
    assert scalar.nodes_easy == 0 and scalar.nodes_self == scalar.n - 1


def test_block_csv_writer_matches_per_row_format():
    n = 2 * simulate._CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    y = x[::-1].copy()
    x[[0, 1, 2, 3, 4, 5, n - 1]] = [-0.0, 1e-300, 1e300, math.inf, math.nan, -math.inf, 0.0]
    traj = Trajectory(t0=0.5, step=1e-3, x=x, y=y, fp_iterations_max=1, fp_residual_max=0.0)
    out = io.StringIO()
    traj.write_csv(out)
    ts = traj.times()
    rows = [f"{ts[i]:.12g},{x[i]:.12g},{y[i]:.12g}\r\n" for i in range(n)]
    assert out.getvalue() == "t,x,y\r\n" + "".join(rows)


def _reference_write_csv(traj, fh):
    """Trajectory.write_csv as one % operation per block of 4096 rows."""
    fh.write("t,x,y\r\n")
    for lo in range(0, traj.n, 4096):
        hi = min(lo + 4096, traj.n)
        ts = traj.t0 + traj.step * np.arange(lo, hi)
        block = np.column_stack((ts, traj.x[lo:hi], traj.y[lo:hi]))
        fh.write("%.12g,%.12g,%.12g\r\n" * len(block) % tuple(block.ravel().tolist()))


class _Digest:
    """A text sink that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("ascii"))


def _assert_csv_bytes_match(traj):
    new, ref = _Digest(), _Digest()
    traj.write_csv(new)
    _reference_write_csv(traj, ref)
    if new.sha.digest() != ref.sha.digest():
        out, want = io.StringIO(), io.StringIO()
        traj.write_csv(out)
        _reference_write_csv(traj, want)
        bad = [(a, b) for a, b in zip(out.getvalue().split("\r\n"), want.getvalue().split("\r\n"))
               if a != b]
        pytest.fail(f"{len(bad)} rows differ, first {bad[:3]}")


def _csv_traj(values, t0=0.5, step=1e-3):
    values = np.asarray(values, dtype=float)
    return Trajectory(t0=t0, step=step, x=values, y=values[::-1].copy(),
                      fp_iterations_max=1, fp_residual_max=0.0)


def _finite_bit_patterns(rng, count):
    """Random 64-bit patterns as doubles, the finite ones: subnormal, huge, either sign."""
    values = rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def _near_ties(rng, count):
    """13-digit decimals that end in 5, and both their float neighbours."""
    digits = rng.integers(10**11, 10**12, count).tolist()
    exps = rng.integers(-30, 31, count).tolist()
    ties = np.array([float(f"{d}5e{p}") for d, p in zip(digits, exps)])
    return np.concatenate((ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)))


def _decade_edges():
    """10^k and 9.99999999999d * 10^k for d = 0..9, with their float neighbours."""
    values = np.array([float(f"1e{k}") for k in range(-300, 300)]
                      + [float(f"9.99999999999{d}e{k}") for k in range(-300, 300) for d in range(10)])
    return np.concatenate((values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)))


CSV_FAMILIES = {
    "bits": lambda rng: _finite_bit_patterns(rng, 60_000),
    "scaled_normal": lambda rng: rng.standard_normal(60_000) * 10.0 ** rng.integers(-30, 31, 60_000),
    "near_ties": lambda rng: _near_ties(rng, 20_000),
    "decade_edges": lambda rng: np.concatenate((_decade_edges(), -_decade_edges())),
    "integers": lambda rng: np.arange(-30_000, 30_000, dtype=float) * 997.0,
    "specials": lambda rng: np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                                      -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                                      1e-280, 9.99999999999e-281, 1e280, 9.99999999999e279,
                                      1e-5, 9.999999999995e-5, 1e-4, 0.5, 1e11, 1e12, 999999999999.5,
                                      123456789012.0, 1234567890123.0, 0.1, 0.3, 2.0 / 3.0]),
}


@pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
def test_csv_bytes_match_percent_format_on_value_families(family):
    # about 280,000 values over the families, in x and reversed in y
    values = CSV_FAMILIES[family](np.random.default_rng(11))
    _assert_csv_bytes_match(_csv_traj(values))


@pytest.mark.parametrize("t0, step", [(0.0, 1e-3), (-7.25, 1e-2), (1e5, 0.1), (0.0, 1.0 / 3.0),
                                      (-1.0, 1e-7)])
def test_csv_bytes_match_percent_format_on_time_grids(t0, step):
    n = 30_000
    _assert_csv_bytes_match(_csv_traj(np.sin(np.arange(n) * 0.37) * 10.0 ** (np.arange(n) % 9 - 4),
                                      t0=t0, step=step))


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex4"])
def test_csv_bytes_match_percent_format_on_corpus_trajectories(case, corpus):
    t_end = {"ex1": 300.0, "ex2": 50.0, "ex4": 300.0}[case]
    _assert_csv_bytes_match(integrate(corpus[case], 1.0, t_end, 1e-3))


@pytest.mark.parametrize("n", [1, simulate._CSV_BLOCK_ROWS, simulate._CSV_BLOCK_ROWS + 1])
def test_csv_bytes_match_percent_format_at_block_edges(n):
    rng = np.random.default_rng(n)
    _assert_csv_bytes_match(_csv_traj(rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)))


def test_write_csv_raises_no_numpy_warning():
    # a library call runs under numpy's default error state, not cli.run's
    values = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300, -1e-300, 1.0])
    out = io.StringIO()
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        _csv_traj(values).write_csv(out)
    assert out.getvalue().splitlines()[1:4] == ["0.5,nan,1", "0.501,inf,-1e-300", "0.502,-inf,1e+300"]


# Memory of write_csv beyond its trajectory: one block of rows formatted at a
# time, about 1 MB, as the % operation of 4096 rows it replaces held.  A
# whole-run temporary would cost at least 8 bytes a row.
CSV_BUDGET = 1_500_000


def test_write_csv_memory_is_a_block_budget():
    rng = np.random.default_rng(5)
    peaks = []
    with open(os.devnull, "w", newline="") as sink:
        for n in (10_001, 60_001):
            traj = _csv_traj(rng.standard_normal(n))
            tracemalloc.start()
            try:
                traj.write_csv(sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) <= CSV_BUDGET, peaks
    assert peaks[1] - peaks[0] < 2 * (60_001 - 10_001), peaks


# -- scalar loop on Python floats against its numpy-scalar form ---------------------

def _reference_history(history):
    """The history at one time, read one scalar at a time."""
    if isinstance(history, Expr):
        return history.evaluate
    if isinstance(history, SeededHistory):
        return lambda t: float(np.interp(t, history.nodes_t, history.nodes_v))
    return lambda t: float(history)


def _reference_recover_node(i, x, y, a_n, g_n, t0, step, hist_scalar, stats):
    yi = y[i]
    ai = a_n[i]
    q = g_n[i]
    t_i = t0 + step * i
    if t_i - q < 1e-14:
        x[i] = yi / (1.0 - ai)
        return
    if q < t0:
        x[i] = yi + ai * float(hist_scalar(q))
        return
    pos = (q - t0) / step
    j = min(int(pos), i - 1)
    frac = pos - j
    x[i] = x[i - 1]
    for it in range(1, 101):
        new = yi + ai * (x[j] + frac * (x[j + 1] - x[j]))
        resid = abs(new - x[i])
        x[i] = new
        if resid < 1e-12:
            stats.iters_max = max(stats.iters_max, it)
            stats.resid_max = max(stats.resid_max, resid)
            return
    raise FixedPointDivergence(
        f"x-recovery did not contract at t={t_i} (|a| >= 1 or broken spec?)")


def _reference_advance_scalar(spec, x, y, tn, a_n, g_n, b_s, h_s, f_s,
                              hist_scalar, t0, step, n_steps, stats):
    """The scalar loop as it was before it ran on Python floats: numpy
    scalar reads and writes, one node recovery call per step."""
    a_expr, g_expr = spec.a, spec.g
    inv_step = 1.0 / step

    def lookup_committed(q, n):
        if q < t0:
            return float(hist_scalar(q))
        pos = (q - t0) * inv_step
        j = min(int(pos), n - 1)
        frac = pos - j
        return x[j] + frac * (x[j + 1] - x[j])

    def x_in_step(q, s, y_s, n, depth=0):
        t_n = tn[n]
        if s > t_n:
            y_q = y[n] + (y_s - y[n]) * (q - t_n) / (s - t_n)
        else:
            y_q = y[n]
        aq = a_expr.evaluate(q)
        gq = g_expr.evaluate(q)
        if q - gq < 1e-14:
            return y_q / (1.0 - aq)
        if gq <= t_n:
            return y_q + aq * lookup_committed(gq, n)
        if depth >= 100:
            return y_q
        return y_q + aq * x_in_step(gq, s, y_s, n, depth + 1)

    def f_stage(j, s, y_s, n):
        q = h_s[j]
        if q <= tn[n]:
            xq = lookup_committed(q, n)
        else:
            xq = x_in_step(q, s, y_s, n)
        return -b_s[j] * xq + f_s[j]

    qg = g_n[1:]
    near = tn[1:] - qg < 1e-14
    below = ~near & (qg < t0)
    rest = np.flatnonzero(~(near | below)) + 1
    j = np.minimum(np.floor((g_n[rest] - t0) / step).astype(np.int64), rest - 1)
    stats.near, stats.below = int(np.count_nonzero(near)), int(np.count_nonzero(below))
    stats.self_ref = int(np.count_nonzero(j + 1 == rest))
    stats.hard = len(rest) - stats.self_ref

    half = 0.5 * step
    for n in range(n_steps):
        t = tn[n]
        yn = y[n]
        j = 2 * n
        k1 = f_stage(j, t, yn, n)
        k2 = f_stage(j + 1, t + half, yn + half * k1, n)
        k3 = f_stage(j + 1, t + half, yn + half * k2, n)
        k4 = f_stage(j + 2, t + step, yn + step * k3, n)
        y[n + 1] = yn + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _reference_recover_node(n + 1, x, y, a_n, g_n, t0, step, hist_scalar, stats)


def _reference_integrate(spec, history, t_end, step, initial_value=None):
    """integrate with every input evaluated over the whole run up front, in
    the order a, g, b, h, f, history, and the reference advance loops."""
    t0 = spec.t0
    n_steps = max(1, int(math.ceil((t_end - t0) / step - 1e-9)))

    tn = t0 + step * np.arange(n_steps + 1)
    ts = t0 + 0.5 * step * np.arange(2 * n_steps + 1)
    a_n = spec.a.eval_array(tn)
    g_n = spec.g.eval_array(tn)
    b_s = spec.b.eval_array(ts)
    h_s = spec.h.eval_array(ts)
    f_s = np.zeros(len(ts)) if spec.f is None else spec.f.eval_array(ts)

    hist_array = simulate._history_fns(history)
    hist_scalar = _reference_history(history)
    phi_h = np.zeros(len(ts))
    below_h = h_s < t0
    if np.any(below_h):
        phi_h[below_h] = hist_array(h_s[below_h])
    phi_g = np.zeros(len(tn))
    below_g = g_n < t0
    if np.any(below_g):
        phi_g[below_g] = hist_array(g_n[below_g])

    x = np.zeros(n_steps + 1)
    y = np.empty(n_steps + 1)
    x0 = float(hist_scalar(t0)) if initial_value is None else float(initial_value)
    g0 = float(g_n[0])
    if t0 - g0 < 1e-14:
        xg0 = x0
    else:
        xg0 = float(hist_scalar(g0))
    x[0] = x0
    y[0] = x0 - float(a_n[0]) * xg0

    lag_min = float(np.min(ts - h_s))
    k_chunk = int(lag_min / step + 1e-12)

    stats = simulate._Stats()
    if k_chunk >= 8:
        path = "chunked"
        _reference_advance_chunked(x, y, tn, a_n, g_n, b_s, h_s, f_s, phi_h, phi_g,
                                   t0, step, n_steps, min(k_chunk, 4096), stats)
    else:
        path = "scalar"
        _reference_advance_scalar(spec, x, y, tn, a_n, g_n, b_s, h_s, f_s,
                                  hist_scalar, t0, step, n_steps, stats)
    return Trajectory(t0=t0, step=step, x=x, y=y,
                      fp_iterations_max=stats.iters_max,
                      fp_residual_max=float(stats.resid_max),
                      path=path, nodes_near=stats.near, nodes_below=stats.below,
                      nodes_easy=stats.easy, nodes_hard=stats.hard,
                      nodes_self=stats.self_ref)


def _reference_fundamental(b, h, s, t_end, step):
    spec = EquationSpec(a=const(0.0), b=b, g=T, h=h, t0=float(s), horizon=float(t_end))
    return _reference_integrate(spec, 0.0, t_end, step, initial_value=1.0)


B = simulate._SCALAR_BLOCK_STEPS
# neutral lag half a step: every node after t0 + 5e-4 refers to itself
SELF_NODES = spec_of(const(0.4), const(1.0), add(T, const(-5e-4)), add(T, const(-2e-3)))
# retarded lag under one step, neutral lag shorter still: stage lookups land
# inside the current step and unwind the neutral term recursively
IN_STEP = spec_of(add(const(0.3), scale(0.2, sin(T))), const(0.8),
                  add(T, const(-3e-4)), add(T, scale(-6e-4, absval(sin(T))), const(-2e-4)))
# lags of 50 and 5 steps: x(g) and x(h) read the history for a while
LONG_NEUTRAL = spec_of(scale(0.5, sin(T)), add(const(1.0), scale(0.3, sin(T))),
                       add(T, const(-0.05)), add(T, const(-5e-3)), t0=0.5)
# both lags exactly half a step: some stage lookups land on t_n itself
HALF_STEP = spec_of(const(0.4), const(1.0), add(T, const(-5e-4)), add(T, const(-5e-4)))
# x moves by about 1e-13 per step: every node takes one iteration
STILL_SCALAR = spec_of(const(0.5), const(1e-10), add(T, const(-5e-3)), add(T, const(-2e-3)))
# neutral lag 0.89 to 1.24 steps: self nodes, which iterate up to 7 times,
# between hard nodes, whose closed form takes two iterations
SELF_AND_HARD = spec_of(add(const(0.285), scale(0.0535, cos(T))), const(1.245),
                        add(T, const(-8.86e-4), scale(-3.53e-4, absval(cos(scale(1.854, T))))),
                        add(T, const(-2.96e-3), scale(-7.03e-4, absval(sin(scale(1.854, T))))))
# retarded lag 2.5 steps: every k4 but the first two of a block reads x in
# the block, the last one before each block boundary too
K4_IN_BLOCK = spec_of(add(const(0.3), scale(0.2, sin(T))), const(0.8),
                      add(T, const(-1.5e-3)), add(T, const(-2.5e-3)))
# retarded lag 0.1 steps and neutral lag 0.09, with a varying: a k4 lookup
# unwinds 10 levels before its g falls to t_n
DEEP_CHAIN = spec_of(add(const(0.3), scale(0.2, sin(scale(5.0, T)))), const(0.8),
                     add(T, const(-9e-5)), add(T, const(-1e-4)))
# neutral lag 0.003 steps: the midpoint and k4 chains stop at level 100
CHAIN_CAP = spec_of(const(0.4), const(1.0), add(T, const(-3e-6)), add(T, const(-4e-4)))
# neutral lag 2.5 steps and retarded lag 0.4: in the first steps the chains
# of the midpoint and k4 lookups read the history
CHAIN_BELOW_T0 = spec_of(add(const(0.3), scale(0.2, sin(T))), const(0.8),
                         add(T, const(-2.5e-3)), add(T, const(-4e-4)))


def _midpoints_in_step(g_lag):
    """Retarded lag 0.2 to 0.4 steps: both midpoint stages look x up inside
    the step, where a and g vary."""
    return spec_of(add(const(0.3), scale(0.2, sin(scale(3.0, T)))), const(0.8),
                   add(T, const(-g_lag), scale(-g_lag, absval(cos(scale(2.0, T))))),
                   add(T, const(-2e-4), scale(-2e-4, absval(sin(T)))))


SCALAR_CASES = {
    "half_step": (HALF_STEP, 1.0, 2.0),
    "self_nodes": (SELF_NODES, 1.0, 2.0),
    "still": (STILL_SCALAR, 1.0, 0.5),
    "in_step": (IN_STEP, 1.0, 2.0),
    "expr_history": (LONG_NEUTRAL, sin(scale(3.0, T)), 1.5),
    "expr_forcing": (SELF_NODES, 0.0, 2.0, sin(scale(2.0, T))),
    "block_minus_one": (SELF_NODES, 1.0, (2 * B - 1) * 1e-3),
    "block": (LONG_NEUTRAL, SeededHistory(5, -1.0, 0.5), 0.5 + 2 * B * 1e-3),
    "block_plus_one": (IN_STEP, 1.0, (2 * B + 1) * 1e-3),
    "self_and_hard": (SELF_AND_HARD, 1.0, 2.0),
    "k4_across_blocks": (K4_IN_BLOCK, sin(scale(3.0, T)), (2 * B + 3) * 1e-3),
    "midpoints_neutral_shorter": (_midpoints_in_step(1e-4), cos(T), 1.5),
    "midpoints_neutral_longer": (_midpoints_in_step(3e-3), cos(T), 1.5),
    "deep_chain": (DEEP_CHAIN, cos(T), 1.0),
    "chain_cap": (CHAIN_CAP, 1.0, 0.05),
    "chain_below_t0_expr": (CHAIN_BELOW_T0, sin(scale(3.0, T)), 0.5),
    "chain_below_t0_seeded": (CHAIN_BELOW_T0, SeededHistory(7, -1.0, 0.0), 0.5),
}


def _record_chains(monkeypatch):
    """Per block of the scalar loop, the depth of its deepest in-step chain
    and the least time at which one of its chains reads x or the history."""
    seen = []
    chains = simulate._in_step_chains

    def record(spec, q, t_n):
        out = chains(spec, q, t_n)
        offsets, end_g = out[0], out[-1]
        seen.append((int(np.diff(offsets).max(initial=0)), float(end_g.min(initial=math.inf))))
        return out

    monkeypatch.setattr(simulate, "_in_step_chains", record)
    return seen


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_scalar_loop_matches_numpy_scalar_loop(monkeypatch, name):
    spec, history, t_end, *f = SCALAR_CASES[name]
    chains = _record_chains(monkeypatch)
    new, ref = _integrate_both(replace(spec, f=f[0]) if f else spec, history, t_end, 1e-3)
    assert new.path == "scalar"
    assert np.array_equal(new.x, ref.x)
    assert np.array_equal(new.y, ref.y)
    assert (new.fp_iterations_max, new.fp_residual_max) == (ref.fp_iterations_max,
                                                            ref.fp_residual_max)
    counts = [(t.nodes_near, t.nodes_below, t.nodes_easy, t.nodes_hard, t.nodes_self)
              for t in (new, ref)]
    assert counts[0] == counts[1]
    if name.startswith("block"):
        assert new.n - 1 == {"block_minus_one": 2 * B - 1, "block": 2 * B,
                             "block_plus_one": 2 * B + 1}[name]
    if name == "self_nodes":
        assert new.nodes_self > 0
    if name == "self_and_hard":  # not the hard nodes' 2
        assert new.fp_iterations_max == 7 and new.nodes_self > 0 and new.nodes_hard > 0
    if name == "still":
        assert new.fp_iterations_max == 1 and new.fp_residual_max > 0.0 and new.nodes_hard > 0
    if name.endswith("history"):
        assert new.nodes_below > 0 and new.nodes_hard > 0
    depth, lowest_read = max(d for d, _ in chains), min(r for _, r in chains)
    if name == "deep_chain":
        assert depth >= 9
    if name == "chain_cap":  # levels 0 to 100
        assert depth == 101
    if name.startswith("chain_below_t0"):
        assert lowest_read < spec.t0


def test_scalar_loop_singular_near_node_matches_numpy():
    # a = 1 with g(t) = t: x = y / 0 gives numpy's inf and nan, as before,
    # not a ZeroDivisionError, at the nodes and inside the step
    spec = spec_of(const(1.0), const(1.0), T, add(T, const(-5e-4)))
    with np.errstate(divide="ignore", invalid="ignore"):
        new, ref = _integrate_both(spec, 1.0, 0.05, 1e-3)
    assert new.path == "scalar" and not np.isfinite(new.x[1:]).any()
    assert np.array_equal(new.x, ref.x, equal_nan=True)
    assert np.array_equal(new.y, ref.y, equal_nan=True)


def test_fundamental_matches_numpy_scalar_loop():
    # g(t) = t: every node takes the closed-form branch
    args = (const(0.3), add(T, const(-2e-3)), 0.5, 3.0, 1e-3)
    new, ref = fundamental(*args), _reference_fundamental(*args)
    assert new.path == "scalar" and new.nodes_near == new.n - 1
    assert np.array_equal(new.x, ref.x) and np.array_equal(new.y, ref.y)


@pytest.mark.parametrize("case", ["expanding"])
def test_scalar_divergence_reports_the_same_node(case):
    spec = spec_of(const(1.5), const(1.0), add(T, const(-1e-4)), add(T, const(-2e-3)))
    new, ref = _divergence_messages(spec, 1.0, 0.5, 1e-3)
    assert new == ref


def _outcome(run, args):
    """run(*args), or the message of its FixedPointDivergence."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return run(*args)
    except FixedPointDivergence as exc:
        return str(exc)


def _assert_same_outcome(args, counts=True):
    """integrate(*args) and its reference give the same trajectory, statistics
    and (unless not ``counts``) node counts, or the same divergence message."""
    new, ref = _outcome(integrate, args), _outcome(_reference_integrate, args)
    if isinstance(new, str) or isinstance(ref, str):
        assert new == ref
        return new
    assert np.array_equal(new.x, ref.x, equal_nan=True)
    assert np.array_equal(new.y, ref.y, equal_nan=True)
    assert (new.fp_iterations_max, new.fp_residual_max) == (ref.fp_iterations_max,
                                                            ref.fp_residual_max)
    if counts:
        both = [(t.nodes_near, t.nodes_below, t.nodes_easy, t.nodes_hard, t.nodes_self)
                for t in (new, ref)]
        assert both[0] == both[1]
    return new


# STILL_SCALAR with a neutral lag of half a step: every node refers to itself
STILL_SELF = spec_of(const(0.5), const(1e-10), add(T, const(-5e-4)), add(T, const(-2e-3)))


@pytest.mark.parametrize("spec, t_end", [(STILL_SCALAR, 0.5), (STILL, 5.0), (STILL_SELF, 0.5)],
                         ids=["scalar", "chunked", "self"])
def test_a_residual_equal_to_the_tolerance_is_not_under_it(monkeypatch, spec, t_end):
    # every recovered node of these runs takes one iteration; with the
    # tolerance at their largest residual, the node of that residual takes two
    traj = integrate(spec, 1.0, t_end, 1e-3)
    assert traj.fp_iterations_max == 1 and traj.fp_residual_max > 0.0
    assert (traj.nodes_self if spec is STILL_SELF else traj.nodes_hard) > 0
    monkeypatch.setattr(simulate, "FP_TOL", traj.fp_residual_max)
    again = integrate(spec, 1.0, t_end, 1e-3)
    assert again.fp_iterations_max == 2 and again.fp_residual_max < traj.fp_residual_max
    # the second iterate repeats the first but where a node refers to itself
    assert np.array_equal(again.x, traj.x) == (spec is not STILL_SELF)


def test_a_self_node_may_take_exactly_the_iteration_cap():
    # x = yi + 0.99 (0.99 x) from x = 0 contracts by 0.9801 an iteration;
    # the first yi on a fine scale that needs 100 iterations is accepted,
    # with that loop's iterate and last residual, and the first that needs
    # 101 is not
    def iterate(yi):
        cur, it = 0.0, 1
        while (resid := abs((new := yi + 0.99 * (0.0 + 0.99 * (cur - 0.0))) - cur)) >= 1e-12:
            cur, it = new, it + 1
        return new, it, resid

    yis = [1e-12 * 1.001 ** k for k in range(3000)]
    first = {n: next(yi for yi in yis if iterate(yi)[1] == n) for n in (100, 101)}
    assert simulate._fixed_point(0.0, 0.99, first[100], 0.99, 1.0) == iterate(first[100])
    with pytest.raises(FixedPointDivergence, match="t=1.0"):
        simulate._fixed_point(0.0, 0.99, first[101], 0.99, 1.0)


def _past(c):
    """|t - c| + (t - c): 0 up to t = c, 2 (t - c) after."""
    return add(absval(add(T, const(-c))), add(T, const(-c)))


def _nan_past(c):
    """0 up to t = c, NaN after: u - u with u = 1e600 (|t - c| + (t - c))."""
    u = scale(1e300, scale(1e300, _past(c)))
    return add(u, scale(-1.0, u))


# retarded lag 0.5 on the horizon [0, 1.5], where validate checks h(t) <= t,
# and NaN or negative from t = 2 on (t = 9, in the first pass's second block
# of stages at step 2^-10); the stage times are multiples of 2^-8 or 2^-11
@pytest.mark.parametrize("h, step, message", [
    (_nan_past(2.0), 2.0 ** -7, "is nan at t=2.00390625;"),
    (_nan_past(9.0), 2.0 ** -10, "is nan at t=9.00048828125;"),
    (_past(2.0), 2.0 ** -7, "is -0.0078125 at t=2.25390625;"),
], ids=["nan", "nan_second_block", "ahead"])
def test_a_nan_or_ahead_retarded_argument_is_a_spec_error(h, step, message):
    # it used to fail converting NaN to an integer, or to integrate the
    # advanced equation on the scalar path with no error
    spec = spec_of(const(0.3), const(1.0), add(T, const(-1.0)), add(T, const(-0.5), h), horizon=1.5)
    with pytest.raises(SpecError, match="^" + re.escape(f"the retarded lag t - h(t) {message} "
                                                        "integration needs h(t) <= t")), \
            np.errstate(over="ignore", invalid="ignore"):
        integrate(spec, 1.0, 9.5, step)


@pytest.mark.parametrize("lag, path", [(2e-3, "scalar"), (0.5, "chunked")])
def test_a_nan_neutral_argument_fails_the_recovery_alike_on_both_paths(lag, path):
    # g is NaN past t = 5: the scalar path used to fail converting it to an
    # integer, where the chunked path reports the recovery of its first node
    spec = spec_of(const(0.3), const(1.0), add(T, const(-1.0), _nan_past(5.0)),
                   add(T, const(-lag)), horizon=4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert integrate(spec, 1.0, 5.0, 1e-3).path == path
        with pytest.raises(FixedPointDivergence, match="^" + re.escape("x-recovery did not contract at t=5.001 ")):
            integrate(spec, 1.0, 6.0, 1e-3)


def test_scalar_divergence_on_a_non_self_node():
    # neutral lag 2.5 steps and a = 1.5: x grows until it overflows, and the
    # closed form rejects the first node whose x is not finite
    spec = spec_of(const(1.5), const(1.0), add(T, const(-2.5e-3)), add(T, const(-2e-3)))
    traj = integrate(spec, 1.0, 0.5, 1e-3)
    assert traj.path == "scalar" and traj.nodes_self == 0 and traj.nodes_hard > 0
    new, ref = _divergence_messages(spec, 1.0, 10.0, 1e-3)
    assert new == ref


# a = 1 and g(t) = t at t = 0.125, node 128 with step 2^-10, where x = y / (1 - a)
# is not finite; the hard nodes after it read x(g) from finite nodes before it
# and are accepted, after two iterations, until x(h) reaches node 128
ONE_STEP_DIP = absval(add(T, const(-0.125)))


@pytest.mark.parametrize("path, lag_steps", [("scalar", 5), ("chunked", 60)])
def test_finite_nodes_after_a_non_finite_node_are_accepted(path, lag_steps):
    step = 2.0 ** -10
    spec = spec_of(add(const(1.0), scale(-1.0, ONE_STEP_DIP)), const(1.0),
                   add(T, scale(-2.5, ONE_STEP_DIP)), add(T, const(-lag_steps * step)))
    new = _assert_same_outcome((spec, 1.0, 0.4, step), counts=path == "scalar")
    if path == "scalar":  # x(h) reaches node 128 from node 132 on
        assert new == f"x-recovery did not contract at t={132 * step} (|a| >= 1 or broken spec?)"
    else:  # only hard nodes are checked, and x(h) reaches node 128 from node 187 on
        assert new.path == path and new.fp_iterations_max == 2
        assert np.isnan(new.x[128]) and np.isfinite(new.x[129:187]).all()


def _scalar_spec_like_generated(rng, i):
    """A spec shaped like the `scalar` bench specs: retarded lag under 8
    steps of 1e-3 (under one step for a third), neutral lag shorter or
    longer, constant or varying lags, and constant, oscillating or
    sign-changing a."""
    tau0 = rng.uniform(3e-4, 8e-4) if i % 3 == 0 else rng.uniform(1.5e-3, 5e-3)
    tau1 = 0.0 if i < 6 else rng.uniform(0.1, 0.5) * tau0
    shorter = (i // 3) % 2 == 0
    sigma0 = rng.uniform(0.2, 0.6) * tau0 if shorter else rng.uniform(1.5, 3.0) * (tau0 + tau1)
    sigma1 = 0.0 if i < 6 else rng.uniform(0.1, 0.5) * sigma0
    omega = rng.uniform(0.5, 2.0)
    a = (const(rng.uniform(0.1, 0.7)),
         add(const(rng.uniform(0.25, 0.6)), scale(rng.uniform(0.02, 0.2), cos(T))),
         scale(rng.uniform(0.2, 0.7), sin(T)))[(i // 2) % 3]
    b1 = rng.uniform(0.05, 0.3)
    b = scale(rng.uniform(0.2, 1.5), const(1.0) if i % 2 else add(const(1.0 - b1), scale(b1, sin(T))))
    g = add(T, const(-sigma0), scale(-sigma1, absval(cos(scale(omega, T)))))
    h = add(T, const(-tau0), scale(-tau1, absval(sin(scale(omega, T)))))
    return spec_of(a, b, g, h)


def test_seeded_scalar_specs_match_numpy_scalar_loop():
    # 12 specs over a block and a bit, so that neutral lookups reach back
    # across the block boundary; constant, expression and seeded histories
    rng = random.Random(12)
    counts = np.zeros(2, dtype=int)
    for i in range(12):
        spec = _scalar_spec_like_generated(rng, i)
        history = (1.0, sin(scale(3.0, T)), SeededHistory(rng.randrange(1, 10_000), -1.0, 0.0))[i // 4]
        new = _assert_same_outcome((spec, history, (B + 400) * 1e-3, 1e-3))
        assert new.path == "scalar", i
        counts += (new.nodes_hard > 0, new.nodes_self > 0)
    assert min(counts) > 0, counts


# -- inputs per block against the whole-run reference --------------------------------

class _Switch:
    """A forcing f that is ``value`` past t = ``cut`` and 0 before, evaluated
    as the integrator evaluates a spec's f."""

    def __init__(self, cut, value):
        self.cut, self.value = cut, value

    def eval_array(self, ts):
        return np.where(ts > self.cut, self.value, 0.0)


# retarded lag 50.5 steps and neutral lag 30: chunks of 50 steps, which do not
# divide _BLOCK_STEPS, so a block is rounded up to whole chunks
K50 = spec_of(scale(0.4, sin(T)), add(const(0.8), scale(0.2, cos(T))), add(T, const(-0.03)),
              add(T, const(-0.0505)))
CB = 50 * -(-simulate._BLOCK_STEPS // 50)
# lags of 9 and 10.3: x(g) and x(h) read the history into the second block
LONG_LAGS = spec_of(scale(0.3, sin(T)), const(0.5), add(T, const(-9.0)), add(T, const(-10.3)))
CHUNKED_CASES = {
    "block_minus_one": (K50, 1.0, (CB - 1) * 1e-3),
    "block": (K50, 1.0, CB * 1e-3),
    "block_plus_one": (K50, SeededHistory(3, -1.0, 0.0), (CB + 1) * 1e-3),
    "seeded_history": (LONG_LAGS, SeededHistory(5, -10.3, 0.0), 12.0),
    "expr_history": (LONG_LAGS, sin(scale(3.0, T)), 12.0),
    "expr_forcing": (K50, 0.0, (CB + 1) * 1e-3, sin(scale(2.0, T))),
    "switch_forcing": (LONG_LAGS, 1.0, 12.0, _Switch(9.5, 1.0)),
}


@pytest.mark.parametrize("name", sorted(CHUNKED_CASES))
def test_chunked_blocks_match_whole_run_inputs(name):
    spec, history, t_end, *f = CHUNKED_CASES[name]
    new, ref = _integrate_both(replace(spec, f=f[0]) if f else spec, history, t_end, 1e-3)
    assert new.path == "chunked"
    assert np.array_equal(new.x, ref.x)
    assert np.array_equal(new.y, ref.y)
    assert (new.fp_iterations_max, new.fp_residual_max) == (ref.fp_iterations_max,
                                                            ref.fp_residual_max)
    # the reference loop counts no branches
    assert (new.nodes_near + new.nodes_below + new.nodes_easy + new.nodes_hard
            + new.nodes_self == new.n - 1)
    if spec is K50:
        assert new.nodes_hard > 0
    if name.startswith("block"):
        assert new.n - 1 == {"block_minus_one": CB - 1, "block": CB,
                             "block_plus_one": CB + 1}[name]
    if spec is LONG_LAGS:
        assert new.n - 1 > 10.3e3 > simulate._BLOCK_STEPS and new.nodes_below > 0


def _chunked_spec_like_generated(rng, i):
    """A spec shaped like the `simulate` bench specs: retarded lag of 50 to
    1000 steps of 1e-3 and the neutral lag shorter (so that hard nodes need
    the wavefront) or longer, constant or varying lags, and constant,
    oscillating or sign-changing a; every fifth spec is a pantograph
    g = t/p, h = t/q with b = c/t."""
    shorter = i % 2 == 0
    a = (const(rng.uniform(0.1, 0.7)),
         add(const(rng.uniform(0.25, 0.6)), scale(rng.uniform(0.02, 0.2), cos(T))),
         scale(rng.uniform(0.2, 0.7), sin(T)))[(i // 2) % 3]
    if i % 5 == 4:
        q = rng.uniform(1.5, 4.0)
        p = rng.uniform(1.1, 0.5 * (1.0 + q)) if shorter else rng.uniform(q + 0.5, q + 3.0)
        return spec_of(a, div(const(rng.uniform(0.05, 0.3)), T), div(T, const(p)),
                       div(T, const(q)), t0=1.0)
    tau0 = rng.uniform(0.05, 1.0)
    tau1 = 0.0 if (i // 2) % 2 else rng.uniform(0.1, 0.5) * tau0
    sigma0 = rng.uniform(0.2, 0.6) * tau0 if shorter else rng.uniform(1.5, 3.0) * (tau0 + tau1)
    sigma1 = 0.0 if (i // 2) % 2 else rng.uniform(0.1, 0.5) * sigma0
    omega = rng.uniform(0.5, 2.0)
    b1 = rng.uniform(0.05, 0.3)
    b = scale(rng.uniform(0.2, 1.5), const(1.0) if i % 4 < 2 else add(const(1.0 - b1), scale(b1, sin(T))))
    g = add(T, const(-sigma0), scale(-sigma1, absval(cos(scale(omega, T)))))
    h = add(T, const(-tau0), scale(-tau1, absval(sin(scale(omega, T)))))
    return spec_of(a, b, g, h)


def test_seeded_chunked_specs_match_sequential_loop():
    # 20 specs over 3 time units, so that lookups reach across chunks;
    # constant, expression and seeded histories
    rng = random.Random(13)
    counts = np.zeros(3, dtype=int)
    for i in range(20):
        spec = _chunked_spec_like_generated(rng, i)
        history = (1.0, sin(scale(3.0, T)),
                   SeededHistory(rng.randrange(1, 10_000), spec.t0 - 4.0, spec.t0))[i % 3]
        new = _assert_same_outcome((spec, history, spec.t0 + 3.0, 1e-3), counts=False)
        assert new.path == "chunked", i
        counts += (new.nodes_below > 0, new.nodes_easy > 0, new.nodes_hard > 0)
    assert min(counts) > 0, counts


def _scalar_form_fails(history):
    """``history`` with a scalar form ``evaluate`` that fails the test when called."""
    def fail(t):
        raise AssertionError(f"the history's scalar form was called at t={t}")

    object.__setattr__(history, "evaluate", fail)  # Expr is a frozen dataclass
    return history


@pytest.mark.parametrize("kind", ["expr", "seeded"])
@pytest.mark.parametrize("spec, t_end, path", [(LONG_LAGS, 12.0, "chunked"),
                                               (CHAIN_BELOW_T0, 0.5, "scalar")],
                         ids=["chunked", "scalar"])
def test_integrate_reads_the_history_only_in_array_form(spec, t_end, path, kind):
    # x(t0), x(g(t0)), the nodes and stage lookups below t0 and, on the
    # scalar path, the in-step chains that end below t0 read the history
    history = sin(scale(3.0, T)) if kind == "expr" else SeededHistory(5, spec.t0 - 10.3, spec.t0)
    traj = integrate(spec, _scalar_form_fails(history), t_end, 1e-3)
    assert traj.path == path and traj.nodes_below > 0


# step 2^-10 and lags of 8 and 16 steps, exact: the last stage of each chunk
# of 16 steps looks x up exactly at the chunk start, and a node halfway
# through a chunk has g exactly there, so both lookups are clamped to the
# chunk start - 1 (at t0, to index -1 with weight 0).  With the retarded lag
# 2^-50 short of 16 steps the chunks keep 16 steps, and the clamped lookup
# extrapolates by 2^-40 of a step, which the unclamped one would not.
EXACT_STEP = 2.0 ** -10


@pytest.mark.parametrize("short", [0.0, 2.0 ** -50])
@pytest.mark.parametrize("history", [1.0, sin(scale(3.0, T))])
def test_lookups_landing_on_a_chunk_start_match_sequential_loop(monkeypatch, history, short):
    spec = spec_of(add(const(0.3), scale(0.2, sin(T))), add(const(1.0), scale(0.5, cos(T))),
                   add(T, const(-8 * EXACT_STEP)), add(T, const(short - 16 * EXACT_STEP)))
    chunks = []
    advance = simulate._advance_chunked

    def record(*args):
        chunks.append(inspect.signature(advance).bind(*args).arguments["k_chunk"])
        return advance(*args)

    monkeypatch.setattr(simulate, "_advance_chunked", record)
    new, ref = _integrate_both(spec, history, 2.0, EXACT_STEP)
    assert chunks == [16] and new.path == "chunked" and new.nodes_easy > 0
    assert np.array_equal(new.x, ref.x)
    assert np.array_equal(new.y, ref.y)
    assert (new.fp_iterations_max, new.fp_residual_max) == (ref.fp_iterations_max,
                                                            ref.fp_residual_max)


# neutral lag |t - 0.1245| / 2, under one step at nodes 123 to 126 (which
# refer to themselves) and over it at the hard nodes around them, all in the
# chunk [100, 150); the forcing turns NaN from node `first` on, so x there is
# not finite
V_LAG = spec_of(const(0.5), const(1.0), add(T, scale(-0.5, absval(add(T, const(-0.1245))))),
                add(T, const(-0.05)))


@pytest.mark.parametrize("first", [120, 123], ids=["hard_first", "self_first"])
def test_first_divergence_in_a_chunk_with_self_nodes_is_the_loops(first):
    still = integrate(V_LAG, 1.0, 0.2, 1e-3)
    assert still.path == "chunked" and still.nodes_self >= 4
    # a non-finite round before a diverging self node, or the reverse
    forced = replace(V_LAG, f=_Switch((first - 0.3) * 1e-3, math.nan))
    new, ref = _divergence_messages(forced, 1.0, 0.2, 1e-3)
    assert new == ref == f"x-recovery did not contract at t={1e-3 * first} " \
                         "(|a| >= 1 or broken spec?)"


# step 2^-10 puts the poles on the node and stage grids, and a block of
# 8,192 steps is 8 time units
POLE_STEP = 2.0 ** -10
# b's pole at t = 20 comes first in time, a's at t = 30 first in the order
# a, g, b, h; both lie past the horizon
TWO_POLES = EquationSpec(a=div(const(0.5), add(T, const(-30.0))),
                         b=div(const(1.0), add(T, const(-20.0))),
                         g=add(T, const(-0.5)), h=add(T, const(-1.0)), t0=0.0, horizon=10.0)
# a fixed-point divergence in the first block and b's pole at t = 30
EXPANDING_POLE = spec_of(const(1.5), div(const(1.0), add(T, const(-30.0))),
                         add(T, const(-0.003)), add(T, const(-0.02)), horizon=10.0)
# b's pole at 5, h's at 3: the first pass over the stages evaluates h first
FUNDAMENTAL_POLES = (div(const(1.0), add(T, const(-5.0))),
                     add(T, const(-1.0), div(const(0.01), add(T, const(-3.0)))),
                     0.0, 8.0, POLE_STEP)
# retarded lag 3/8 of a step and neutral lag 1/8: the k4 lookup of the step
# to t = 20 starts its in-step chain at 20 - 3/8 step, where g has a pole and
# which is no node or stage; a = 1.5 diverges at the first node instead
CHAIN_POLE_T = 20.0 - 3 * POLE_STEP / 8
CHAIN_POLE = spec_of(const(0.4), const(1.0),
                     add(T, const(-POLE_STEP / 8), div(const(1e-12), add(T, const(-CHAIN_POLE_T)))),
                     add(T, const(-3 * POLE_STEP / 8)), horizon=10.0)
POLE_CASES = {
    "integrate": (integrate, (TWO_POLES, 1.0, 40.0, POLE_STEP),
                  DomainError, "division by zero at t=20.0"),
    "divergence": (integrate, (EXPANDING_POLE, 1.0, 40.0, POLE_STEP), FixedPointDivergence,
                   f"x-recovery did not contract at t={5427 * POLE_STEP} (|a| >= 1 or broken spec?)"),
    "fundamental": (fundamental, FUNDAMENTAL_POLES, DomainError, "division by zero at t=3.0"),
    "chain": (integrate, (CHAIN_POLE, 1.0, 40.0, POLE_STEP), DomainError,
              f"division by zero at t={CHAIN_POLE_T}"),
    "chain_after_divergence": (integrate, (replace(CHAIN_POLE, a=const(1.5)), 1.0, 40.0, POLE_STEP),
                               FixedPointDivergence,
                               f"x-recovery did not contract at t={POLE_STEP} (|a| >= 1 or broken spec?)"),
}


@pytest.mark.parametrize("name", sorted(POLE_CASES))
def test_first_error_is_that_of_the_first_failing_block(name):
    # h's pass over the whole run first, then block by block in time; an
    # error or divergence in an earlier block wins over one in a later block
    run, args, error, message = POLE_CASES[name]
    with pytest.raises(error) as exc, np.errstate(all="ignore"):
        run(*args)
    assert type(exc.value) is error and str(exc.value) == message
    if name.startswith("chain"):  # the pole lies on neither the node nor the stage grid
        assert CHAIN_POLE_T / (POLE_STEP / 2) % 1.0 != 0.0


# Memory beyond x and y: one block of inputs, and on the scalar path the
# block's lists of Python floats, of each stage lookup's index and weight and
# of its in-step chains' levels; about 1.8 MB on the vectorized path, and on
# the scalar path 1.1 MB (SELF_NODES) and 1.8 MB (IN_STEP, 1.3 chains of 1.6
# levels a step).  Every input evaluated over the whole run would cost 8
# bytes a step per array, and a list of the run's length 32.
BLOCK_BUDGET = 2_500_000
# CHAIN_CAP, whose in-step chains all run to the cap of 100 levels, holds
# 23.6 MB in the chains of one block (at 2,049, 4,097 and 12,289 steps)
CHAIN_BUDGET = 25_000_000


@pytest.mark.parametrize("path, spec, lengths", [("chunked", K50, (20_000, 60_000)),
                                                 ("scalar", SELF_NODES, (4097, 12289)),
                                                 ("scalar", IN_STEP, (4097, 12289)),
                                                 ("scalar", CHAIN_CAP, (4097, 12289))])
def test_memory_is_x_and_y_plus_a_block_budget(path, spec, lengths):
    budget = CHAIN_BUDGET if spec is CHAIN_CAP else BLOCK_BUDGET
    extra = []
    for n in lengths:
        tracemalloc.start()
        try:
            traj = integrate(spec, 1.0, n * 1e-3, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.path == path and traj.n == n + 1
        extra.append(peak - traj.x.nbytes - traj.y.nbytes)
    assert max(extra) <= budget, extra
    # one more array of the run's length would add 8 bytes a step
    assert extra[1] - extra[0] < 4 * (lengths[1] - lengths[0]), extra

    # A run of 61,440 steps that fails at a pole of b in its second or third
    # block, past the spec's horizon, holds no more: nothing is evaluated
    # again over the whole run.
    failing = spec_of(spec.a, add(spec.b, div(const(1.0), add(const(8.5), scale(-1.0, T)))),
                      spec.g, spec.h, horizon=5.0)
    assert integrate(failing, 1.0, 1.0, POLE_STEP).path == path
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as exc:
            integrate(failing, 1.0, 60.0, POLE_STEP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "division by zero at t=8.5"
    assert peak - 2 * 8 * (60 * 1024 + 1) <= budget, peak


# -- fundamental function -----------------------------------------------------------

def test_fundamental_ode():
    traj = fundamental(const(1.0), T, 0.0, 5.0, 1e-3)
    ts = traj.times()
    np.testing.assert_allclose(traj.x, np.exp(-ts), atol=1e-9)


def test_fundamental_positive_under_lag_condition():
    # c * lag = 0.3 <= 1/e
    traj = fundamental(const(0.3), add(T, const(-1.0)), 0.0, 50.0, 1e-2)
    assert float(np.min(traj.x)) > 0.0


def test_fundamental_sign_change_beyond_condition():
    # c * lag = 2 > 1/e: oscillation shows up on a long enough window
    traj = fundamental(const(1.0), add(T, const(-2.0)), 0.0, 30.0, 1e-2)
    assert float(np.min(traj.x)) < 0.0


def test_fundamental_zero_before_impulse():
    traj = fundamental(const(0.3), add(T, const(-1.0)), 2.0, 10.0, 1e-2)
    assert traj.t0 == 2.0
    assert traj.x[0] == 1.0


# -- lemma-style checks ---------------------------------------------------------------

def test_lemma5_boundary_accepted():
    ok, margin = lemma5_condition(const(1.0), add(T, const(-1.0 / math.e)),
                                  np.linspace(1.0, 20.0, 101))
    assert ok
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_lemma5_comparison_equation_case():
    lag = 0.45 * 0.4 / (math.e * 0.15)
    ok, margin = lemma5_condition(const(0.375), add(T, const(-lag)),
                                  np.linspace(1.0, 20.0, 51))
    assert ok
    assert margin == pytest.approx(1.0 / math.e - 0.375 * lag, abs=1e-12)


def test_lemma5_violated():
    ok, margin = lemma5_condition(const(1.0), add(T, const(-1.0)),
                                  np.linspace(1.0, 5.0, 11))
    assert not ok and margin < 0.0


def test_lemma5_raises_the_first_failing_lower_limit():
    # h's pole at t = 3 is met while h is evaluated along the grid, before
    # any quadrature, so b's pole at t = 2 inside an earlier integral is not
    h = add(T, const(-1.0), div(const(0.01), add(T, const(-3.0))))
    with pytest.raises(DomainError) as exc:
        lemma5_condition(div(const(1.0), add(T, const(-2.0))), h, np.linspace(1.0, 5.0, 9))
    assert str(exc.value) == "division by zero at t=3.0"


def test_lemma5_matches_per_point_loop(corpus):
    from ndstab.params import simpson

    for ex_id, spec in corpus.items():
        grid = np.linspace(spec.t0 + 1.0, spec.t0 + 50.0, 64)
        sup = -math.inf
        for t in grid:  # the reference: one quadrature per sample point
            sup = max(sup, simpson(spec.b, spec.h.evaluate(float(t)), float(t)))
        assert lemma5_condition(spec.b, spec.h, grid)[1] == 1.0 / math.e - sup, ex_id


def test_lemma4_closed_form_ode():
    val = lemma4_check(const(1.0), T, np.linspace(0.0, 20.0, 201), 20.0, 1e-2)
    assert val <= 1.0 + 1e-3
    assert val == pytest.approx(1.0, abs=5e-3)


def test_lemma4_delayed_case():
    val = lemma4_check(const(0.3), add(T, const(-1.0)),
                       np.arange(0.0, 50.0001, 0.1), 50.0, 2e-2)
    assert val <= 1.0 + 1e-3


def _reference_lemma4_check(b, h, s_grid, t_end, step):
    """lemma4_check with its table filled by one traj.x_at call per cell."""
    s_grid = np.asarray(s_grid, dtype=float)
    t0 = float(s_grid[0])
    probe = np.linspace(t0, t_end, 2049)
    lo = t0 + float(np.max(probe - h.eval_array(probe)))
    s_vals = s_grid[s_grid >= lo - 1e-12]
    if len(s_vals) < 2:
        return 0.0
    b_at_s = b.eval_array(s_vals)
    table = np.zeros((len(s_vals), len(s_vals)))
    for k, s in enumerate(s_vals):
        if s >= t_end:
            continue
        traj = fundamental(b, h, float(s), t_end, step)
        assert np.all(traj.x > 0.0)
        for i, t in enumerate(s_vals):
            if t >= s:
                table[i, k] = traj.x_at(float(t))
    best = 0.0
    for i, t in enumerate(s_vals):
        m = s_vals <= t
        if np.sum(m) < 2:
            continue
        best = max(best, float(np.trapezoid(table[i, m] * b_at_s[m], s_vals[m])))
    return best


@pytest.mark.parametrize("name", ["ex1", "ex4", "ex5"])
@pytest.mark.parametrize("past_t_end", [False, True])
def test_lemma4_table_matches_one_x_at_per_cell(corpus, monkeypatch, name, past_t_end):
    # every row handed to the quadrature, and so every cell of the table
    # where b is not zero, is bit for bit that of the per-cell loop; a grid
    # past t_end reads each fundamental beyond its last node
    spec = corpus[name]
    t_end = spec.t0 + 3.0
    s_grid = np.linspace(spec.t0, t_end + (1.3 if past_t_end else 0.0), 14 if past_t_end else 9)
    rows = []
    trapezoid = np.trapezoid
    monkeypatch.setattr(np, "trapezoid", lambda y, x: rows.append((y, x)) or trapezoid(y, x))
    got = lemma4_check(spec.b, spec.h, s_grid, t_end, 1e-2)
    ours, rows[:] = rows[:], []
    want = _reference_lemma4_check(spec.b, spec.h, s_grid, t_end, 1e-2)
    assert got == want and len(ours) == len(rows) > 0
    for (y, x), (y_ref, x_ref) in zip(ours, rows):
        assert y.tobytes() == y_ref.tobytes() and x.tobytes() == x_ref.tobytes()


# -- decay classification ---------------------------------------------------------------

def synthetic_traj(fn, t_end=100.0, step=1e-2):
    ts = np.arange(0.0, t_end + step / 2, step)
    xs = np.array([fn(t) for t in ts])
    from ndstab.simulate import Trajectory
    return Trajectory(t0=0.0, step=step, x=xs, y=xs.copy(), fp_iterations_max=1,
                      fp_residual_max=0.0)


def test_decay_rate_exact_exponential():
    est = decay_rate(synthetic_traj(lambda t: math.exp(-0.3 * t)), warmup=10.0, window=10.0)
    assert est.verdict == "decaying"
    assert est.rate == pytest.approx(0.3, abs=1e-3)


def test_decay_rate_constant_is_inconclusive():
    est = decay_rate(synthetic_traj(lambda t: 1.0), warmup=10.0, window=10.0)
    assert est.verdict == "inconclusive"
    assert est.rate == pytest.approx(0.0, abs=1e-12)


def test_decay_rate_growth_flagged():
    est = decay_rate(synthetic_traj(lambda t: math.exp(0.05 * t)), warmup=10.0, window=10.0)
    assert est.verdict == "non-decaying"


def test_decay_rate_needs_enough_windows():
    with pytest.raises(ValueError):
        decay_rate(synthetic_traj(lambda t: 1.0, t_end=30.0), warmup=10.0, window=10.0)


@pytest.mark.parametrize("warmup, window, name", [
    (0.0, 0.0, "window"), (0.0, -1.0, "window"), (0.0, math.nan, "window"),
    (0.0, math.inf, "window"), (-0.5, 1.0, "warmup"), (math.nan, 1.0, "warmup"),
    (math.inf, 1.0, "warmup"), (-math.inf, 1.0, "warmup")])
def test_decay_rate_rejects_bad_arguments_by_name(warmup, window, name):
    traj = synthetic_traj(lambda t: math.exp(-0.3 * t), t_end=10.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        decay_rate(traj, warmup=warmup, window=window)


def test_decay_rate_takes_a_zero_warmup():
    # report.reproduce_examples calls it with warmup 0 and ten windows
    est = decay_rate(synthetic_traj(lambda t: math.exp(-0.3 * t)), warmup=0.0, window=10.0)
    assert est.verdict == "decaying" and len(est.window_sups) == 10
    assert est.window_mids[0] == 5.0 and est.window_sups[0] == 1.0


def test_decay_rate_rejects_a_window_shorter_than_the_step():
    traj = synthetic_traj(lambda t: math.exp(-0.3 * t), step=1e-2)
    with pytest.raises(ValueError, match=r"^window must be at least the trajectory step 0\.01, got 0\.0099"):
        decay_rate(traj, warmup=0.0, window=0.0099)
    assert len(decay_rate(traj, warmup=0.0, window=1e-2).window_sups) == 10000


def _reference_decay_rate(traj, warmup, window):
    """decay_rate's windows, one slice of |x| per window, and its fit."""
    start = traj.t0 + warmup
    mids, sups = [], []
    for k in range(int((traj.t_end - start) / window)):
        w0 = start + k * window
        i0 = int(round((w0 - traj.t0) / traj.step))
        i1 = min(int(round((w0 + window - traj.t0) / traj.step)), traj.n - 1)
        sups.append(float(np.max(np.abs(traj.x[i0:i1 + 1]))))
        mids.append(w0 + 0.5 * window)
    slope = float(np.polyfit(np.array(mids), np.log(np.maximum(np.array(sups), 1e-300)), 1)[0])
    return mids, sups, -slope


def _assert_decay_matches_loop(traj, warmup, window):
    est = decay_rate(traj, warmup=warmup, window=window)
    mids, sups, rate = _reference_decay_rate(traj, warmup, window)
    assert np.array(est.window_mids).tobytes() == np.array(mids).tobytes()
    assert np.array(est.window_sups).tobytes() == np.array(sups).tobytes()
    assert all(type(v) is float for v in est.window_mids + est.window_sups)
    assert est.rate == rate


def test_decay_rate_matches_per_window_loop_on_random_trajectories():
    # windows that are not whole numbers of steps put one window's last
    # sample and the next one's first on either side of a shared boundary
    rng = np.random.default_rng(26)
    for _ in range(600):
        step = float(10.0 ** rng.uniform(-3.0, -0.5))
        n = int(rng.integers(12, 4000))
        span = step * (n - 1)
        warmup = float(rng.choice([0.0, rng.uniform(0.0, 0.5 * span)]))
        most = (span - warmup) / 5.0 * (1.0 - 1e-9)  # the longest window that fits five times
        if most < step:
            continue
        window = float(rng.choice([step, step * rng.integers(1, max(2, int(most / step))),
                                   rng.uniform(step, most), most]))
        x = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
        traj = Trajectory(t0=float(rng.uniform(-50.0, 50.0)), step=step, x=x, y=x,
                          fp_iterations_max=0, fp_residual_max=0.0)
        _assert_decay_matches_loop(traj, warmup, window)


@pytest.mark.parametrize("window", [1e-2, 0.37, 1.0, 4.9])
def test_decay_rate_matches_per_window_loop_on_corpus(corpus, window):
    for spec in corpus.values():
        traj = integrate(spec, 1.0, spec.t0 + 30.0, 1e-2)
        _assert_decay_matches_loop(traj, 0.0, window)
        _assert_decay_matches_loop(traj, 2.5, window)


# -- forced response from a zero history ---------------------------------------------------

def _forced_sup(spec, f, t_end):
    """sup |x| on [t0, t_end] from a zero history under the forcing ``f``."""
    return float(np.max(np.abs(integrate(replace(spec, f=f), 0.0, t_end, 1e-3).x)))


def _ramp(c):
    """((t - c) + |t - c|) / 2: 0 up to c, then t - c, exactly."""
    lag = add(T, const(-c))
    return scale(0.5, add(lag, absval(lag)))


def test_forced_bound_stable_ode():
    spec = spec_of(const(0.0), const(1.0), T, T)  # x' = -x + 1
    assert _forced_sup(spec, const(1.0), 10.0) == pytest.approx(1.0 - math.exp(-10.0), abs=1e-6)


def test_forced_bound_ex1_delayed_step(ex1):
    # a unit step that rises linearly over [on, on + 0.01]
    on = ex1.t0 + 0.14
    step = scale(100.0, add(_ramp(on), scale(-1.0, _ramp(on + 0.01))))
    assert 0.0 < _forced_sup(ex1, step, 40.0) < 10.0


def test_forced_bound_unstable_inversion():
    spec = spec_of(const(0.0), const(-1.0), T, T)  # x' = +x + 1
    assert _forced_sup(spec, const(1.0), 10.0) > 1e3
