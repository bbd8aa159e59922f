import io
import math
import random
import tracemalloc

import numpy as np
import pytest

from ndstab import simulate
from ndstab.eqspec import EquationSpec
from ndstab.expr import DomainError, absval, add, const, cos, div, scale, sin, tvar
from ndstab.simulate import (
    FixedPointDivergence,
    SeededHistory,
    Trajectory,
    decay_rate,
    forced_bound_check,
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
    np.testing.assert_array_equal(h1(ts), h2(ts))
    assert float(h1(-2.5)) == float(h1(-2.0))


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
                               t0, step, n_steps, k_chunk, fp_tol, fp_max_iter, stats):
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
            for it in range(1, fp_max_iter + 1):
                new = yi + ai * (x[j] + frac * (x[j + 1] - x[j]))
                resid = abs(new - x[i])
                x[i] = new
                if resid < fp_tol:
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


@pytest.mark.parametrize("case", ["expanding", "one_iteration_allowed"])
def test_wavefront_divergence_reports_the_sequential_node(ex4, case):
    if case == "expanding":
        spec = spec_of(const(1.5), const(1.0), add(T, const(-0.003)), add(T, const(-0.02)))
        args = (spec, 1.0, 6.0, 1e-3)
    else:
        args = (ex4, 1.0, 5.0, 1e-3, None, None, 1e-12, 1)
    new, ref = _divergence_messages(*args)
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


# -- scalar loop on Python floats against its numpy-scalar form ---------------------

def _reference_recover_node(i, x, y, a_n, g_n, t0, step, hist_scalar, fp_tol, fp_max_iter,
                            stats):
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
    for it in range(1, fp_max_iter + 1):
        new = yi + ai * (x[j] + frac * (x[j + 1] - x[j]))
        resid = abs(new - x[i])
        x[i] = new
        if resid < fp_tol:
            stats.iters_max = max(stats.iters_max, it)
            stats.resid_max = max(stats.resid_max, resid)
            return
    raise FixedPointDivergence(
        f"x-recovery did not contract at t={t_i} (|a| >= 1 or broken spec?)")


def _reference_advance_scalar(spec, x, y, tn, a_n, g_n, b_s, h_s, f_s,
                              hist_scalar, t0, step, n_steps, fp_tol, fp_max_iter, stats):
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
        _reference_recover_node(n + 1, x, y, a_n, g_n, t0, step, hist_scalar, fp_tol,
                                fp_max_iter, stats)


def _reference_integrate(spec, history, t_end, step, forcing=None, initial_value=None,
                         fp_tol=1e-12, fp_max_iter=100):
    """integrate with every input evaluated over the whole run up front, in
    the order a, g, b, h, forcing, history, and the reference advance loops."""
    t0 = spec.t0
    n_steps = max(1, int(math.ceil((t_end - t0) / step - 1e-9)))

    tn = t0 + step * np.arange(n_steps + 1)
    ts = t0 + 0.5 * step * np.arange(2 * n_steps + 1)
    a_n = spec.a.eval_array(tn)
    g_n = spec.g.eval_array(tn)
    b_s = spec.b.eval_array(ts)
    h_s = spec.h.eval_array(ts)
    f_s = simulate._forcing_arrays(forcing, ts)

    hist_scalar, hist_array = simulate._history_fns(history)
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
                                   t0, step, n_steps, min(k_chunk, 4096),
                                   fp_tol, fp_max_iter, stats)
    else:
        path = "scalar"
        _reference_advance_scalar(spec, x, y, tn, a_n, g_n, b_s, h_s, f_s,
                                  hist_scalar, t0, step, n_steps,
                                  fp_tol, fp_max_iter, stats)
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
SCALAR_CASES = {
    "half_step": (HALF_STEP, 1.0, 2.0),
    "self_nodes": (SELF_NODES, 1.0, 2.0),
    "still": (STILL_SCALAR, 1.0, 0.5),
    "in_step": (IN_STEP, 1.0, 2.0),
    "expr_history": (LONG_NEUTRAL, sin(scale(3.0, T)), 1.5),
    "callable_history": (LONG_NEUTRAL, lambda t: math.cos(3.0 * t) - t, 1.5),
    "expr_forcing": (SELF_NODES, 0.0, 2.0, sin(scale(2.0, T))),
    "block_minus_one": (SELF_NODES, 1.0, (2 * B - 1) * 1e-3),
    "block": (LONG_NEUTRAL, SeededHistory(5, -1.0, 0.5), 0.5 + 2 * B * 1e-3),
    "block_plus_one": (IN_STEP, 1.0, (2 * B + 1) * 1e-3),
}


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_scalar_loop_matches_numpy_scalar_loop(name):
    spec, history, t_end, *forcing = SCALAR_CASES[name]
    new, ref = _integrate_both(spec, history, t_end, 1e-3, *forcing)
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
    if name == "still":
        assert new.fp_iterations_max == 1 and new.fp_residual_max > 0.0 and new.nodes_hard > 0
    if name.endswith("history"):
        assert new.nodes_below > 0 and new.nodes_hard > 0


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


@pytest.mark.parametrize("case", ["expanding", "one_iteration_allowed"])
def test_scalar_divergence_reports_the_same_node(case):
    if case == "expanding":
        args = (spec_of(const(1.5), const(1.0), add(T, const(-1e-4)), add(T, const(-2e-3))),
                1.0, 0.5, 1e-3)
    else:
        args = (LONG_NEUTRAL, 1.0, 1.5, 1e-3, None, None, 1e-12, 1)
    new, ref = _divergence_messages(*args)
    assert new == ref


# the fixed-point parameters on both paths, against the node-by-node
# reference: no iteration allowed, and no residual small enough, so the
# closed form and _fixed_point reject, with the loop's message (the tests
# above accept at one and two iterations under the defaults, fp_tol = 1e-12
# and fp_max_iter = 100, and the [one_iteration_allowed] cases cap it at 1);
# a negative or NaN fp_tol fails every `< fp_tol` and `0.0 < fp_tol` test,
# so it rejects the same nodes, with the same message, as (0.0, 100)
FP_PARAMS = [(1e-12, 0), (0.0, 100)]


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


@pytest.mark.parametrize("fp_tol, fp_max_iter", FP_PARAMS)
@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_scalar_loop_fixed_point_parameters(name, fp_tol, fp_max_iter):
    spec, history, t_end, forcing = (*SCALAR_CASES[name], None)[:4]
    _assert_same_outcome((spec, history, t_end, 1e-3, forcing, None, fp_tol, fp_max_iter))


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
    "callable_history": (LONG_LAGS, lambda t: math.cos(3.0 * t) - t, 12.0),
    "expr_forcing": (K50, 0.0, (CB + 1) * 1e-3, sin(scale(2.0, T))),
    "callable_forcing": (LONG_LAGS, 1.0, 12.0, lambda t: 1.0 if t >= 9.5 else 0.0),
}


@pytest.mark.parametrize("name", sorted(CHUNKED_CASES))
def test_chunked_blocks_match_whole_run_inputs(name):
    spec, history, t_end, *forcing = CHUNKED_CASES[name]
    new, ref = _integrate_both(spec, history, t_end, 1e-3, *forcing)
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


@pytest.mark.parametrize("fp_tol, fp_max_iter", FP_PARAMS)
@pytest.mark.parametrize("name", sorted(CHUNKED_CASES))
def test_chunked_fixed_point_parameters(name, fp_tol, fp_max_iter):
    # the reference loop counts no branches
    spec, history, t_end, forcing = (*CHUNKED_CASES[name], None)[:4]
    _assert_same_outcome((spec, history, t_end, 1e-3, forcing, None, fp_tol, fp_max_iter),
                         counts=False)


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
    monkeypatch.setattr(simulate, "_advance_chunked",
                        lambda *args: chunks.append(args[8]) or advance(*args))
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
    forcing = lambda t, cut=(first - 0.3) * 1e-3: math.nan if t > cut else 0.0  # noqa: E731
    new, ref = _divergence_messages(V_LAG, 1.0, 0.2, 1e-3, forcing)
    assert new == ref == f"x-recovery did not contract at t={1e-3 * first} " \
                         "(|a| >= 1 or broken spec?)"


# step 2^-10 puts the poles on the node and stage grids
POLE_STEP = 2.0 ** -10
# b's pole at t = 20 comes first in time, a's at t = 30 first in the order
# a, g, b, h; both lie past the horizon
TWO_POLES = EquationSpec(a=div(const(0.5), add(T, const(-30.0))),
                         b=div(const(1.0), add(T, const(-20.0))),
                         g=add(T, const(-0.5)), h=add(T, const(-1.0)), t0=0.0, horizon=10.0)
# a fixed-point divergence from t = 0 and b's pole at t = 30
EXPANDING_POLE = spec_of(const(1.5), div(const(1.0), add(T, const(-30.0))),
                         add(T, const(-0.003)), add(T, const(-0.02)), horizon=10.0)
# b's pole at 5, h's at 3: the first pass over the stages evaluates h first
FUNDAMENTAL_POLES = (div(const(1.0), add(T, const(-5.0))),
                     add(T, const(-1.0), div(const(0.01), add(T, const(-3.0)))),
                     0.0, 8.0, POLE_STEP)
POLE_CASES = {
    "integrate": (integrate, _reference_integrate, (TWO_POLES, 1.0, 40.0, POLE_STEP), 30.0),
    "divergence": (integrate, _reference_integrate, (EXPANDING_POLE, 1.0, 40.0, POLE_STEP),
                   30.0),
    "fundamental": (fundamental, _reference_fundamental, FUNDAMENTAL_POLES, 5.0),
}


@pytest.mark.parametrize("name", sorted(POLE_CASES))
def test_first_error_is_that_of_the_whole_run_order(name):
    run, reference, args, pole = POLE_CASES[name]
    messages = []
    for f in (run, reference):
        with pytest.raises(DomainError) as exc, np.errstate(all="ignore"):
            f(*args)
        messages.append(str(exc.value))
    assert messages == [f"division by zero at t={pole}"] * 2


# Memory beyond x and y: one block of inputs, and on the scalar path the
# block's lists of Python floats and of each stage's lookup index and weight;
# about 1.8 MB on the vectorized path and 2.2 MB on the scalar path.  Every input
# evaluated over the whole run would cost 8 bytes a step per array, and a
# list of the run's length 32.
BLOCK_BUDGET = 2_500_000


@pytest.mark.parametrize("path, spec, lengths", [("chunked", K50, (20_000, 60_000)),
                                                 ("scalar", SELF_NODES, (4097, 12289))])
def test_memory_is_x_and_y_plus_a_block_budget(path, spec, lengths):
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
    assert max(extra) <= BLOCK_BUDGET, extra
    # one more array of the run's length would add 8 bytes a step
    assert extra[1] - extra[0] < 4 * (lengths[1] - lengths[0]), extra


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


# -- forced-response smoke tests ----------------------------------------------------------

def test_forced_bound_stable_ode():
    spec = spec_of(const(0.0), const(1.0), T, T)
    sup = forced_bound_check(spec, const(1.0), 10.0, 1e-3)
    assert sup == pytest.approx(1.0 - math.exp(-10.0), abs=1e-6)


def test_forced_bound_ex1_delayed_step(ex1):
    step_on = ex1.t0 + 0.14
    forcing = lambda t: 1.0 if t >= step_on else 0.0
    sup = forced_bound_check(ex1, forcing, 40.0, 1e-3)
    assert 0.0 < sup < 10.0


def test_forced_bound_unstable_inversion():
    spec = spec_of(const(0.0), const(-1.0), T, T)  # x' = +x + 1
    sup = forced_bound_check(spec, const(1.0), 10.0, 1e-3)
    assert sup > 1e3
