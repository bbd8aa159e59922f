"""Direct numerical integration of the neutral equation.

The state advanced in time is y(t) = x(t) - a(t) x(g(t)); its derivative
y'(t) = -b(t) x(h(t)) + f(t) involves only past values of x, which are kept
on a uniform grid and read back through linear interpolation (queries at or
before t0 go to the history function).  Each accepted node recovers x from
y by the contraction x <- y + a(t) x(g(t)) (factor <= ||a|| < 1), with a
closed-form division when the neutral lag degenerates to zero.

Steps are advanced by the classical 4-stage Runge-Kutta scheme.  When the
retarded lag stays above a few steps, whole blocks of steps reduce to a
quadrature accumulation and are evaluated vectorized; otherwise a scalar
loop runs, interpolating y linearly inside the current step for lookups
that land past the last accepted node (this makes the scheme collapse to
plain RK4 on ordinary equations).

Both loops evaluate their inputs per block of steps: the node times, a and
g at the nodes, b, h and the forcing at the stages, and the history where
a delayed argument reaches before t0.  Only x and y are kept for the whole
run, since a neutral lookup can reach anywhere back, so memory is x and y
plus a few blocks.  A first pass over the stage grid, also in blocks, finds
the smallest retarded lag, which picks the path; a run of one block keeps
h from it.  The scalar loop runs on Python floats, one block at a time: it
reads lists of the block's inputs and of its x and y, writes x and y back
at the end of the block, and reads a lookup that reaches before the block
from the array.

A node whose interpolation nodes are final is recovered in closed form on
both paths: its second iterate repeats its first, so the node-by-node
iteration takes one iteration or two, and the results and the iteration
statistics are bit-for-bit that loop's.  The vectorized path classifies the
nodes and indexes every lookup once per block, and a chunk only gathers,
sums and writes.  Its nodes past the chunk start go in rounds (wavefront),
each the longest run whose interpolation nodes precede its first, all found
from one running max.  Only a node whose neutral lag is under one step
refers to itself and is iterated on its own, on Python floats.

Derivative jumps emitted at t0 and propagated along the delays are handled
by small fixed steps and linear interpolation, not breakpoint tracking:
verdict-level accuracy is the goal, not high-order solution accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eqspec import EquationSpec
from .expr import Expr, const, tvar
from .params import simpson

_DEGENERATE_LAG = 1e-14

# Rows per write in Trajectory.write_csv, each block formatted by one %
# operation: a write and a format call per row cost more than the number
# formatting, and one string for the whole trajectory would hold every row
# in memory at once.
_CSV_BLOCK_ROWS = 4096

# Steps per block of the scalar loop, which reads its inputs as Python lists
# (numpy scalar indexing costs more than the arithmetic) one block at a time.
_SCALAR_BLOCK_STEPS = 4096

# Steps per block of the first pass over the stage grid and, rounded up to
# whole chunks, of the vectorized loop's inputs: a run of at most this many
# steps evaluates each input once.
_BLOCK_STEPS = 8192


class FixedPointDivergence(RuntimeError):
    """The x-recovery iteration failed to contract (||a|| >= 1 or a broken spec)."""


class PositivityViolation(RuntimeError):
    """A fundamental-function sample was non-positive where positivity is guaranteed."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense solution samples on a uniform grid, immutable once returned.

    ``path`` names the integrator path that produced the samples
    ("chunked" or "scalar"; empty when built by hand).  The ``nodes_*``
    counts split the nodes after t0 by the branch that recovered x from y:
    closed-form division for a degenerate neutral lag (near), a history
    lookup for g(t) < t0 (below), one interpolation into the committed
    prefix (easy, chunked path only), fixed-point recovery from final
    interpolation nodes (hard), and the iteration of a node whose neutral
    lag is under one step (self).  From ``integrate`` they add up to
    ``n - 1``.
    """

    t0: float
    step: float
    x: np.ndarray
    y: np.ndarray
    fp_iterations_max: int
    fp_residual_max: float
    path: str = ""
    nodes_near: int = 0
    nodes_below: int = 0
    nodes_easy: int = 0
    nodes_hard: int = 0
    nodes_self: int = 0

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def t_end(self) -> float:
        return self.t0 + self.step * (self.n - 1)

    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(self.n)

    def x_at(self, t: float) -> float:
        pos = (t - self.t0) / self.step
        j = min(max(int(pos), 0), self.n - 2)
        frac = pos - j
        return float(self.x[j] * (1.0 - frac) + self.x[j + 1] * frac)

    def write_csv(self, fh) -> None:
        fh.write("t,x,y\r\n")
        for lo in range(0, self.n, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, self.n)
            ts = self.t0 + self.step * np.arange(lo, hi)  # times()[lo:hi]
            block = np.column_stack((ts, self.x[lo:hi], self.y[lo:hi]))
            fh.write("%.12g,%.12g,%.12g\r\n" * len(block) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class DecayEstimate:
    """Windowed envelope of |x| with a fitted exponential rate."""

    window_length: float
    window_mids: tuple[float, ...]
    window_sups: tuple[float, ...]
    rate: float
    verdict: str  # decaying | non-decaying | inconclusive

    def to_dict(self) -> dict:
        return {
            "window_length": self.window_length,
            "window_mids": list(self.window_mids),
            "window_sups": list(self.window_sups),
            "rate": self.rate,
            "verdict": self.verdict,
        }


class SeededHistory:
    """Reproducible piecewise-linear history on [lo, hi], clamped outside.

    Its 33 node values are drawn uniformly from [-1, 1] with a fixed seed.
    """

    def __init__(self, seed: int, lo: float, hi: float):
        if hi <= lo:
            raise ValueError("need lo < hi")
        self.seed = int(seed)
        self.nodes_t = np.linspace(lo, hi, 33)
        self.nodes_v = np.random.default_rng(self.seed).uniform(-1.0, 1.0, len(self.nodes_t))

    def __call__(self, t):
        return np.interp(t, self.nodes_t, self.nodes_v)

    def __repr__(self):
        return f"SeededHistory(seed={self.seed})"


def _history_fns(history):
    """Normalize a history (constant, Expr, or callable) to scalar+array form."""
    if isinstance(history, Expr):
        return history.evaluate, history.eval_array
    if isinstance(history, SeededHistory):
        return (lambda t: float(history(t))), \
               (lambda ts: np.asarray(history(np.asarray(ts, dtype=float)), dtype=float))
    if callable(history):
        return (lambda t: float(history(t))), \
               (lambda ts: np.array([float(history(t)) for t in np.asarray(ts, dtype=float)]))
    c = float(history)
    return (lambda t: c), (lambda ts: np.full(len(ts), c))


def _forcing_arrays(forcing, ts):
    if forcing is None:
        return np.zeros(len(ts))
    if isinstance(forcing, Expr):
        return forcing.eval_array(ts)
    return np.array([float(forcing(t)) for t in ts])


def _history_at(q, below, hist_array):
    """The history at q where ``below`` holds, zero elsewhere."""
    phi = np.zeros(len(q))
    if np.any(below):
        phi[below] = hist_array(q[below])
    return phi


class _Inputs:
    """The equation's inputs on blocks of the node grid t0 + step*i and of
    the stage grid t0 + 0.5*step*k.  Every input is elementwise in its grid
    time, so a block holds the values the whole grid would.

    Construction scans the stage grid in blocks for the smallest retarded
    lag; a run of one block keeps that block's times and h.
    """

    def __init__(self, spec, forcing, t0, step, n_steps):
        self.spec, self.forcing, self.t0, self.step = spec, forcing, t0, step
        lag_min = math.inf
        for lo in range(0, n_steps, _BLOCK_STEPS):
            ts, h = self._stage_h(lo, min(lo + _BLOCK_STEPS, n_steps))
            lag_min = np.minimum(lag_min, np.min(ts - h))  # NaN if any lag is
        self.lag_min = float(lag_min)
        self._whole = (ts, h) if n_steps <= _BLOCK_STEPS else None

    def _stage_h(self, lo, hi):
        ts = self.t0 + 0.5 * self.step * np.arange(2 * lo, 2 * hi + 1)
        return ts, self.spec.h.eval_array(ts)

    def nodes(self, lo, hi):
        """Times, a and g at nodes lo to hi."""
        tn = self.t0 + self.step * np.arange(lo, hi + 1)
        return tn, self.spec.a.eval_array(tn), self.spec.g.eval_array(tn)

    def stages(self, lo, hi):
        """b, h and the forcing at the stages of steps lo to hi - 1 (stages
        2*lo to 2*hi)."""
        if self._whole is None:
            ts, h = self._stage_h(lo, hi)
        else:
            ts, h = (v[2 * lo:2 * hi + 1] for v in self._whole)
        return self.spec.b.eval_array(ts), h, _forcing_arrays(self.forcing, ts)


def _set_y0(x, y, a0, g0, t0, hist_scalar):
    """y at t0, from x(t0) = x[0] and a and g at t0."""
    x0 = float(x[0])
    xg0 = x0 if t0 - g0 < _DEGENERATE_LAG else float(hist_scalar(g0))
    y[0] = x0 - a0 * xg0


def _evaluate_whole_run(spec, hist_scalar, hist_array, forcing, initial_value,
                        t0, step, n_steps):
    """Evaluate every input over the whole run, in the order a, g, b, h,
    forcing, history at h and at g, x(t0), x(g(t0)).  A failing run reports
    the first error of this order, whatever the order of its blocks."""
    tn = t0 + step * np.arange(n_steps + 1)
    ts = t0 + 0.5 * step * np.arange(2 * n_steps + 1)
    spec.a.eval_array(tn)
    g_n = spec.g.eval_array(tn)
    spec.b.eval_array(ts)
    h_s = spec.h.eval_array(ts)
    _forcing_arrays(forcing, ts)
    for q in (h_s, g_n):
        _history_at(q, q < t0, hist_array)
    if initial_value is None:
        hist_scalar(t0)
    g0 = float(g_n[0])
    if not t0 - g0 < _DEGENERATE_LAG:
        hist_scalar(g0)


def integrate(
    spec: EquationSpec,
    history,
    t_end: float,
    step: float,
    forcing=None,
    initial_value: float | None = None,
    fp_tol: float = 1e-12,
    fp_max_iter: int = 100,
) -> Trajectory:
    """Integrate the initial value problem forward from t0 to (at least) t_end.

    ``history`` supplies x(t) for t <= t0 (a constant, an Expr, or any
    callable); ``initial_value`` overrides x(t0) when the initial point is
    detached from the history (used for fundamental functions).  The grid
    step is fixed.  Raises FixedPointDivergence when the x-recovery
    iteration fails to contract within ``fp_max_iter`` iterations.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if t_end <= spec.t0:
        raise ValueError("t_end must exceed t0")
    t0 = spec.t0
    n_steps = max(1, int(math.ceil((t_end - t0) / step - 1e-9)))
    hist_scalar, hist_array = _history_fns(history)

    try:
        inputs = _Inputs(spec, forcing, t0, step, n_steps)
        k_chunk = int(inputs.lag_min / step + 1e-12)
        # zeros, not empty: a stage lookup at exactly t0 from the first chunk
        # or step reads the last node with weight 0, which must not be NaN
        # garbage
        x = np.zeros(n_steps + 1)
        y = np.empty(n_steps + 1)
        x[0] = float(hist_scalar(t0)) if initial_value is None else float(initial_value)
        stats = _Stats()
        if k_chunk >= 8:
            path = "chunked"
            _advance_chunked(x, y, inputs, hist_scalar, hist_array, t0, step, n_steps,
                             min(k_chunk, 4096), fp_tol, fp_max_iter, stats)
        else:
            path = "scalar"
            _advance_scalar(spec, x, y, inputs, hist_scalar, t0, step, n_steps,
                            fp_tol, fp_max_iter, stats)
    except (ValueError, FixedPointDivergence):
        _evaluate_whole_run(spec, hist_scalar, hist_array, forcing, initial_value,
                            t0, step, n_steps)
        raise

    return Trajectory(t0=t0, step=step, x=x, y=y,
                      fp_iterations_max=stats.iters_max,
                      fp_residual_max=float(stats.resid_max),
                      path=path, nodes_near=stats.near, nodes_below=stats.below,
                      nodes_easy=stats.easy, nodes_hard=stats.hard,
                      nodes_self=stats.self_ref)


class _Stats:
    __slots__ = ("iters_max", "resid_max", "near", "below", "easy", "hard", "self_ref")

    def __init__(self):
        self.iters_max = 1
        self.resid_max = 0.0
        self.near = self.below = self.easy = self.hard = self.self_ref = 0


def _divergence(t_i):
    return FixedPointDivergence(
        f"x-recovery did not contract at t={t_i} (|a| >= 1 or broken spec?)")


def _fixed_point(i, frac, x, yi, ai, t_i, fp_tol, fp_max_iter, stats):
    """Fixed-point recovery of x[i] = yi + ai (x[i-1] + frac (x[i] - x[i-1])), on
    Python floats from x[i] = x[i-1]; x[i] is written once, also on divergence."""
    xj = cur = float(x[i - 1])
    for it in range(1, fp_max_iter + 1):
        new = yi + ai * (xj + frac * (cur - xj))
        resid = abs(new - cur)
        cur = new
        if resid < fp_tol:
            x[i] = cur
            stats.iters_max = max(stats.iters_max, it)
            stats.resid_max = max(stats.resid_max, resid)
            return
    x[i] = cur
    raise _divergence(t_i)


def _advance_chunked(x, y, inputs, hist_scalar, hist_array, t0, step, n_steps, k_chunk,
                     fp_tol, fp_max_iter, stats):
    # All stage lookups inside a chunk land at or before the chunk start,
    # so a whole chunk of y-updates is a pure quadrature accumulation.  A
    # block of whole chunks fills buffers that every block reuses with the
    # lookups' indices and weights and the nodes' recovery classes; a chunk
    # gathers, sums and writes.
    block = k_chunk * -(-_BLOCK_STEPS // k_chunk)
    m_max = min(block, n_steps)
    sj_buf, sw_buf = np.empty(2 * m_max + 1, np.int64), np.empty(2 * m_max + 1)
    (nodes_buf, jn_buf), (an_buf, fn_buf) = np.empty((2, m_max), np.int64), np.empty((2, m_max))
    x1 = x[1:]  # x1[j] is x[j + 1] for j >= 0
    for lo in range(0, n_steps, block):
        hi = min(lo + block, n_steps)
        m = hi - lo
        tn, a_n, g_n = inputs.nodes(lo, hi)
        b_s, h_s, f_s = inputs.stages(lo, hi)
        if lo == 0:
            _set_y0(x, y, float(a_n[0]), float(g_n[0]), t0, hist_scalar)
        phi_g = _history_at(g_n, g_n < t0, hist_array)
        below_h = h_s < t0
        hist_h = np.flatnonzero(below_h)
        last_hist_h = int(hist_h[-1]) if len(hist_h) else -1
        phi_h = _history_at(h_s, below_h, hist_array)
        nb = np.negative(b_s, out=b_s)
        # Index max(floor(p), 0), which is trunc(max(p, 0)), and weight of
        # each stage's lookup.  The chunk [pos, end) clamps the index to
        # pos - 1, which binds only at the stage of end (the retarded lag
        # spans the chunk), when it lands on pos: `clamped` chunks redo it.
        sj, sw = sj_buf[:2 * m + 1], sw_buf[:2 * m + 1]
        np.divide(np.subtract(h_s, t0, out=sw), step, out=sw)
        np.maximum(sw, 0.0, out=sj, casting="unsafe")
        np.subtract(sw, sj, out=sw)
        ends, starts = sj[2 * k_chunk::2 * k_chunk], np.arange(lo, hi, k_chunk)
        clamped = set(starts[:len(ends)][ends >= starts[:len(ends)]].tolist())
        # Node lo + 1 + i, in the chunk that starts at lo + i // k_chunk *
        # k_chunk, by class (near, below, easy, hard) and in order: 1 - a,
        # a phi(g) or a, and the index and weight of x at g, clamped to the
        # chunk start - 1 (easy) or to the node - 1 (hard).
        qg = g_n[1:]
        cls = np.full(m, 3, np.int8)
        cls[qg <= np.repeat(tn[:-1:k_chunk], k_chunk)[:m]] = 2
        cls[qg < t0] = 1
        cls[tn[1:] - qg < _DEGENERATE_LAG] = 0
        order = np.argsort(cls, kind="stable")
        c0, c1, c2 = np.cumsum(np.bincount(cls, minlength=4)[:3]).tolist()
        nodes, an, jn, fn = nodes_buf[:m], an_buf[:m], jn_buf[:m], fn_buf[:m]
        np.add(order, lo + 1, out=nodes)
        np.take(a_n[1:], order, out=an)
        np.subtract(1.0, an[:c0], out=an[:c0])
        an[c0:c1] *= phi_g[1:][order[c0:c1]]
        last = order[c1:] + lo
        last[:c2 - c1] = order[c1:c2] // k_chunk * k_chunk + (lo - 1)
        q = (qg[order[c1:]] - t0) / step
        jn[c1:] = np.minimum(np.maximum(np.floor(q).astype(np.int64), 0), last)
        fn[c1:] = q - jn[c1:]
        edges = np.arange(0, m + k_chunk, k_chunk)
        bounds = np.stack([np.searchsorted(order[i:j], edges) + i  # per chunk and class
                           for i, j in ((0, c0), (c0, c1), (c1, c2), (c2, m))], axis=1).tolist()
        stats.near, stats.below, stats.easy = (stats.near + c0, stats.below + c1 - c0,
                                               stats.easy + c2 - c1)
        del tn, a_n, g_n, phi_g, qg, cls, order, last, q
        for c, pos in enumerate(range(lo, hi, k_chunk)):
            end = min(pos + k_chunk, hi)
            j0, j1 = 2 * (pos - lo), 2 * (end - lo) + 1
            js, w = sj[j0:j1], sw[j0:j1]
            xq = x[js] * (1.0 - w) + x1[js] * w
            if pos in clamped:
                f = (h_s.item(j1 - 1) - t0) / step - (pos - 1)
                xq[-1] = x.item(pos - 1) * (1.0 - f) + x.item(pos) * f
            if j0 <= last_hist_h:
                np.copyto(xq, phi_h[j0:j1], where=below_h[j0:j1])
            F = nb[j0:j1] * xq + f_s[j0:j1]
            dy = (step / 6.0) * (F[:-2:2] + 4.0 * F[1::2] + F[2::2])
            y[pos + 1:end + 1] = y[pos] + np.cumsum(dy)

            (i0, i1, i2, i3), (e0, e1, e2, e3) = bounds[c:c + 2]
            if i0 < e0:
                x[nodes[i0:e0]] = y[nodes[i0:e0]] / an[i0:e0]
            if i1 < e1:
                x[nodes[i1:e1]] = y[nodes[i1:e1]] + an[i1:e1]
            if i2 < e2:
                ii, jj, w = nodes[i2:e2], jn[i2:e2], fn[i2:e2]
                x[ii] = y[ii] + an[i2:e2] * (x[jj] * (1.0 - w) + x[jj + 1] * w)
            if i3 < e3:
                _wavefront(nodes[i3:e3], jn[i3:e3], fn[i3:e3], an[i3:e3], x, y,
                           t0, step, fp_tol, fp_max_iter, stats)


def _wavefront(nodes, jn, fn, an, x, y, t0, step, fp_tol, fp_max_iter, stats):
    """Recover x at the hard nodes of one chunk (ascending, g past the chunk
    start, x at g indexed jn and weighted fn, a = an there) bit-for-bit as
    the node-by-node iteration would, in rounds: from the first unresolved
    node p = nodes[k] up to the first node whose interpolation reaches p,
    which is stops[k] as jn + 1 <= node.  stops[k] == k marks a node that
    refers to itself, which is iterated; the rounds before it are accepted
    first, so the first divergence is the loop's."""
    x1 = x[1:]
    yh = y[nodes]
    stops = np.searchsorted(np.maximum.accumulate(jn + 1), nodes).tolist()
    stats.hard += len(nodes)
    k = checked = 0
    while k < len(nodes):
        stop = stops[k]
        if stop == k:
            _accept(nodes[checked:k], x, t0, step, fp_tol, fp_max_iter, stats)
            p = int(nodes[k])
            _fixed_point(p, float(fn[k]), x, float(yh[k]), float(an[k]), t0 + step * p,
                         fp_tol, fp_max_iter, stats)
            stats.hard, stats.self_ref = stats.hard - 1, stats.self_ref + 1
            k = checked = k + 1
            continue
        jj = jn[k:stop]
        xj = x[jj]
        x[nodes[k:stop]] = yh[k:stop] + an[k:stop] * (xj + fn[k:stop] * (x1[jj] - xj))
        k = stop
    _accept(nodes[checked:], x, t0, step, fp_tol, fp_max_iter, stats)


def _accept(ii, x, t0, step, fp_tol, fp_max_iter, stats):
    """The node-by-node loop's outcome at hard nodes ii whose x holds the
    closed form: from final interpolation nodes the second iterate repeats
    the first, so the loop takes one iteration when |x_i - x_{i-1}| < fp_tol
    and two (the second with residual 0) otherwise, and fails on non-finite x_i."""
    if not len(ii):
        return
    new = x[ii]
    r1 = np.abs(new - x[ii - 1])
    two_ok = fp_max_iter >= 2 and 0.0 < fp_tol
    r_hi = np.maximum.reduce(r1)  # NaN if any r1 is
    if not (two_ok and r_hi < math.inf):
        ok = np.isfinite(new)
        if not two_ok:
            ok &= (r1 < fp_tol) & (fp_max_iter >= 1)
        if not ok.all():
            raise _divergence(t0 + step * int(ii[ok.argmin()]))
    if r_hi < fp_tol:
        stats.resid_max = max(stats.resid_max, float(r_hi))
        return
    stats.iters_max = max(stats.iters_max, 2)
    if np.fmin.reduce(r1) < fp_tol:  # fmin skips NaN
        stats.resid_max = max(stats.resid_max, float(r1[r1 < fp_tol].max()))


def _advance_scalar(spec, x, y, inputs, hist_scalar, t0, step, n_steps,
                    fp_tol, fp_max_iter, stats):
    # xb and yb are x and y at the nodes lo to hi of the current block.
    a_at, g_at = spec.a.evaluate, spec.g.evaluate
    inv_step = 1.0 / step

    def lookup_committed(q):
        if q < t0:
            return float(hist_scalar(q))
        pos = (q - t0) * inv_step
        j = min(int(pos), n - 1)
        frac = pos - j
        k = j - lo
        if k < 0:  # before the block, final in x
            xj = x.item(j)
            return xj + frac * (x.item(j + 1) - xj)
        return xb[k] + frac * (xb[k + 1] - xb[k])

    def x_in_step(q, s, y_s, depth=0):
        # Lookup past the last accepted node t_n: interpolate y linearly on
        # [t_n, s] using the current stage estimate, then unwind the neutral
        # term (contraction, so the recursion depth is effectively bounded).
        if s > t_n:
            y_q = yn + (y_s - yn) * (q - t_n) / (s - t_n)
        else:
            y_q = yn
        aq = a_at(q)
        gq = g_at(q)
        if q - gq < _DEGENERATE_LAG:  # at a = 1, numpy's inf or nan and warning
            return y_q / d if (d := 1.0 - aq) else np.float64(y_q) / d
        if gq <= t_n:
            return y_q + aq * lookup_committed(gq)
        if depth >= 100:
            return y_q
        return y_q + aq * x_in_step(gq, s, y_s, depth + 1)

    def f_stage(k, s, y_s):
        q = hs[k]
        if q <= t_n and 0 <= (j := js[k]) < m:  # lookup_committed's read of xb
            return -bs[k] * (xb[j] + fracs[k] * (xb[j + 1] - xb[j])) + fs[k]
        xq = lookup_committed(q) if q <= t_n else x_in_step(q, s, y_s)
        return -bs[k] * xq + fs[k]

    half, sixth = 0.5 * step, step / 6.0
    one_ok, two_ok = fp_max_iter >= 1, fp_max_iter >= 2 and 0.0 < fp_tol  # as in _accept
    near, below, self_ref, iters, resid = 0, 0, 0, 1, 0.0
    for lo in range(0, n_steps, _SCALAR_BLOCK_STEPS):
        hi = min(lo + _SCALAR_BLOCK_STEPS, n_steps)
        tb, ab, gb = (v.tolist() for v in inputs.nodes(lo, hi))
        bs, hs, fs = inputs.stages(lo, hi)
        # lookup_committed's weight and index (from lo; -1 for the history) at every stage
        pos = (hs - t0) * inv_step
        fracs = (pos - np.floor(pos)).tolist()
        js = np.where(hs < t0, -1, np.minimum(np.floor(pos), hi) - lo).astype(np.int64).tolist()
        bs, hs, fs = bs.tolist(), hs.tolist(), fs.tolist()
        if lo == 0:
            _set_y0(x, y, ab[0], gb[0], t0, hist_scalar)
        xb, yb = x[lo:hi + 1].tolist(), y[lo:hi + 1].tolist()
        for m in range(hi - lo):
            n, t_n, yn = lo + m, tb[m], yb[m]
            k = 2 * m
            k1 = f_stage(k, t_n, yn)
            k2 = f_stage(k + 1, t_n + half, yn + half * k1)
            # a committed lookup does not depend on the stage's y
            k3 = k2 if hs[k + 1] <= t_n else f_stage(k + 1, t_n + half, yn + half * k2)
            k4 = f_stage(k + 2, t_n + step, yn + step * k3)
            yi = yb[m + 1] = yn + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # recover x at node n + 1 from y
            ai, q, t_i = ab[m + 1], gb[m + 1], tb[m + 1]
            if t_i - q < _DEGENERATE_LAG:
                near += 1
                xb[m + 1] = yi / d if (d := 1.0 - ai) else np.float64(yi) / d
            elif q < t0:
                below += 1
                xb[m + 1] = yi + ai * float(hist_scalar(q))
            elif (j := min(int(pos := (q - t0) / step), n)) == n:
                self_ref += 1
                _fixed_point(m + 1, pos - j, xb, yi, ai, t_i, fp_tol, fp_max_iter, stats)
            else:  # x[j] and x[j + 1] are final: the closed form of _fixed_point
                xj, xj1 = (xb[j - lo], xb[j - lo + 1]) if j >= lo else (x.item(j), x.item(j + 1))
                new = xb[m + 1] = yi + ai * (xj + (pos - j) * (xj1 - xj))
                if one_ok and (r1 := abs(new - xb[m])) < fp_tol:
                    resid = max(resid, r1)
                elif two_ok and new - new == 0.0:  # the second residual, 0 unless new is inf or nan
                    iters = 2
                else:
                    raise _divergence(t_i)
        y[lo:hi + 1] = yb
        x[lo:hi + 1] = xb
        del tb, ab, gb, bs, hs, fs, js, fracs, xb, yb  # free them before the next block's
    stats.iters_max, stats.resid_max = max(stats.iters_max, iters), max(stats.resid_max, resid)
    stats.near, stats.below, stats.self_ref = near, below, self_ref
    stats.hard = n_steps - near - below - self_ref


def fundamental(b: Expr, h: Expr, s: float, t_end: float, step: float) -> Trajectory:
    """Fundamental function X(., s) of x' + b(t) x(h(t)) = 0.

    Zero history before s, unit value at s; X(t, s) = 0 for t < s by
    convention (the trajectory starts at s).
    """
    spec = EquationSpec(a=const(0.0), b=b, g=tvar(), h=h,
                        t0=float(s), horizon=float(t_end))
    return integrate(spec, 0.0, t_end, step, initial_value=1.0)


def lemma5_condition(b: Expr, h: Expr, grid: np.ndarray) -> tuple[bool, float]:
    """Check sup_t int_{h(t)}^t b <= 1/e on the sampled grid (non-strict).

    Returns (satisfied, margin) with margin = 1/e - sup of the integrals;
    equality is accepted up to 1e-12 rounding slack.  The sup skips NaN
    integrals.
    """
    grid = np.asarray(grid, dtype=float)
    lows = []
    for t in grid:
        try:
            lows.append(h.evaluate(float(t)))
        except ValueError:
            simpson(b, np.array(lows), grid[:len(lows)])  # a failing integral at an earlier t wins
            raise
    sup = max([-math.inf] + simpson(b, np.array(lows), grid).tolist())
    margin = 1.0 / math.e - sup
    return margin >= -1e-12, margin


def lemma4_check(b: Expr, h: Expr, s_grid: np.ndarray, t_end: float, step: float) -> float:
    """Max over sampled t of int_{t0 + lag}^t X(t, s) b(s) ds.

    ``s_grid`` supplies both the quadrature nodes in s and the sampled t;
    the lower limit is t0 plus the sampled sup of t - h(t).  Raises
    PositivityViolation if any sampled X(t, s) with t >= s is non-positive
    (the positivity gate is expected to hold; verify with
    lemma5_condition first).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    t0 = float(s_grid[0])
    probe = np.linspace(t0, t_end, 2049)
    lag_sup = float(np.max(probe - h.eval_array(probe)))
    lo = t0 + lag_sup

    keep = s_grid >= lo - 1e-12
    s_vals = s_grid[keep]
    if len(s_vals) < 2:
        return 0.0

    b_at_s = b.eval_array(s_vals)
    # X(t, s) for every retained s, tabulated at the t-sample points
    t_samples = s_vals
    table = np.zeros((len(t_samples), len(s_vals)))
    for k, s in enumerate(s_vals):
        if s >= t_end:
            continue
        traj = fundamental(b, h, float(s), t_end, step)
        xs = traj.x
        if np.any(xs <= 0.0):
            bad = float(traj.times()[np.argmax(xs <= 0.0)])
            raise PositivityViolation(
                f"fundamental function not positive at t={bad} for s={float(s)}")
        for i, t in enumerate(t_samples):
            if t >= s:
                table[i, k] = traj.x_at(float(t))

    best = 0.0
    for i, t in enumerate(t_samples):
        m = s_vals <= t
        if np.sum(m) < 2:
            continue
        val = float(np.trapezoid(table[i, m] * b_at_s[m], s_vals[m]))
        best = max(best, val)
    return best


def decay_rate(traj: Trajectory, warmup: float, window: float) -> DecayEstimate:
    """Windowed-sup decay analysis of |x|.

    Splits [t0 + warmup, t_end] into consecutive windows of the given
    length, fits ln(sup |x|) against the window midpoints by least squares,
    and classifies: decaying when the last/first sup ratio drops below 1/2
    with a positive fitted rate, non-decaying when the ratio exceeds 2,
    inconclusive otherwise.
    """
    span = traj.t_end - traj.t0
    if span < warmup + 5.0 * window:
        raise ValueError("trajectory too short: need t_end - t0 >= warmup + 5*window")
    start = traj.t0 + warmup
    n_windows = int((traj.t_end - start) / window)
    mids = []
    sups = []
    for k in range(n_windows):
        w0 = start + k * window
        i0 = int(round((w0 - traj.t0) / traj.step))
        i1 = int(round((w0 + window - traj.t0) / traj.step))
        i1 = min(i1, traj.n - 1)
        sups.append(float(np.max(np.abs(traj.x[i0:i1 + 1]))))
        mids.append(w0 + 0.5 * window)
    sups_arr = np.maximum(np.array(sups), 1e-300)  # log-safe floor
    slope = float(np.polyfit(np.array(mids), np.log(sups_arr), 1)[0])
    rate = -slope
    ratio = sups[-1] / sups[0] if sups[0] > 0.0 else 0.0
    if ratio < 0.5 and rate > 0.0:
        verdict = "decaying"
    elif ratio > 2.0:
        verdict = "non-decaying"
    else:
        verdict = "inconclusive"
    return DecayEstimate(window_length=window, window_mids=tuple(mids),
                         window_sups=tuple(sups), rate=rate, verdict=verdict)


def forced_bound_check(spec: EquationSpec, forcing, t_end: float, step: float) -> float:
    """Boundedness smoke test: integrate from a zero history under a bounded
    forcing and return sup |x| on [t0, t_end]."""
    traj = integrate(spec, 0.0, t_end, step, forcing=forcing)
    return float(np.max(np.abs(traj.x)))
