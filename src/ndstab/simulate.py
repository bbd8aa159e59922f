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

Both loops evaluate their inputs per block of steps, each in array form:
the node times, a and g at the nodes, b, h and the forcing at the stages,
and the history where a delayed argument reaches before t0.  Only x and y
are kept for the whole run, since a neutral lookup can reach anywhere
back, so memory is x and y plus a few blocks.  A first pass over the stage
grid, also in blocks, finds the smallest retarded lag, which picks the
path; a run of one block keeps h from it.  The scalar loop runs on Python floats, one block at a time, on
lists of the block's inputs, x and y (written back at the block's end),
and of each node's recovery class and (g - t0) / step, computed in numpy.
So are its steps' stage lookups.  One at or before the last accepted node
t_n is an index into the block's x and a weight, or its value where it is
final before the block.  One past t_n lands inside the step, and unwinds
the neutral term along its chain q, g(q), g(g(q)), ... to the first time
whose g is at or before t_n (x(u) = y(u) + a(u) x(g(u))): the chain
depends only on the grid and the spec, so a along it, each time's offset
from t_n and its end are computed for the whole block, level by level, and
a step walks them with no call.  On both paths a failing run raises where
this order meets the failure, the history before the recovery of x within
a block (``integrate``), with x and y still the only arrays of the run's
length.

A node whose interpolation nodes are final is recovered in closed form on
both paths: its second iterate repeats its first, so the node-by-node
iteration takes one iteration or two, and the results and the iteration
statistics are bit-for-bit that loop's.  The vectorized path classifies the
nodes and indexes every lookup once per block, and a chunk only gathers,
sums and writes.  Its nodes past the chunk start go in rounds (wavefront),
each the longest run whose interpolation nodes precede its first, all found
from one running max.  Only a node whose neutral lag is under one step
refers to itself and is iterated on its own, on Python floats (in line on
the scalar path).

Derivative jumps emitted at t0 and propagated along the delays are handled
by small fixed steps and linear interpolation, not breakpoint tracking:
verdict-level accuracy is the goal, not high-order solution accuracy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .eqspec import EquationSpec
from .expr import Expr, const, tvar
from .params import simpson

_DEGENERATE_LAG = 1e-14

# The recovery of x from y, a contraction by A0 < 1 an iteration, stops at
# the first residual under FP_TOL and fails after FP_MAX_ITER iterations.
FP_TOL = 1e-12
FP_MAX_ITER = 100

# Rows per write in Trajectory.write_csv.  Each block is formatted in numpy
# (csvformat.format_rows), whose temporaries come to about 240 bytes a
# value: a block of 1024 rows holds about 0.7 MB, less than one % operation
# on 4096 rows held, and larger blocks gain little.
_CSV_BLOCK_ROWS = 1024

# Steps per block of the scalar loop, which reads its inputs as Python lists
# (numpy scalar indexing costs more than the arithmetic) one block at a time.
# A list costs 32 bytes an entry, so a block of 2048 steps holds about 1 MB,
# plus about 100 bytes a chain and 64 a level of its in-step chains; blocks
# of 4096 steps ran no faster.
_SCALAR_BLOCK_STEPS = 2048

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

    def x_at(self, t):
        """x at t, linear between the nodes and extended past t0 and t_end: a
        float for a number, elementwise the same operations for an array."""
        pos = (np.asarray(t, dtype=float) - self.t0) / self.step
        j = np.minimum(np.maximum(pos.astype(np.int64), 0), self.n - 2)
        frac = pos - j
        xs = self.x[j] * (1.0 - frac) + self.x[j + 1] * frac
        return float(xs) if xs.ndim == 0 else xs

    def write_csv(self, fh) -> None:
        # imported here, so that a process that writes no trajectory does not compile it
        from .csvformat import format_rows
        fh.write("t,x,y\r\n")
        for lo in range(0, self.n, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, self.n)
            ts = self.t0 + self.step * np.arange(lo, hi)  # times()[lo:hi]
            block = np.column_stack((ts, self.x[lo:hi], self.y[lo:hi]))
            fh.write(format_rows(block).decode("ascii"))


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

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, self.nodes_t, self.nodes_v)

    def __repr__(self):
        return f"SeededHistory(seed={self.seed})"


def _history_fns(history):
    """The array form of a number, Expr or SeededHistory history."""
    if isinstance(history, (Expr, SeededHistory)):
        return history.eval_array
    if not isinstance(history, numbers.Real):
        raise TypeError("history must be a number, an Expr or a SeededHistory, "
                        f"got {type(history).__name__}")
    c = float(history)
    return lambda ts: np.full(len(ts), c)


def _history_at(q, below, hist):
    """The history at q where ``below`` holds, zero elsewhere."""
    phi = np.zeros(len(q))
    if np.any(below):
        phi[below] = hist(q[below])
    return phi


class _Inputs:
    """The equation's inputs on blocks of the node grid t0 + step*i and of
    the stage grid t0 + 0.5*step*k.  Every input is elementwise in its grid
    time, so a block holds the values the whole grid would.

    Construction scans the stage grid in blocks for the smallest retarded
    lag; a run of one block keeps that block's times and h.
    """

    def __init__(self, spec, step, n_steps):
        self.spec, self.t0, self.step = spec, spec.t0, step
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
        """b, h and the forcing f (zero without one) at the stages of steps
        lo to hi - 1 (stages 2*lo to 2*hi)."""
        if self._whole is None:
            ts, h = self._stage_h(lo, hi)
        else:
            ts, h = (v[2 * lo:2 * hi + 1] for v in self._whole)
        f = self.spec.f
        return self.spec.b.eval_array(ts), h, np.zeros(len(ts)) if f is None else f.eval_array(ts)


def _set_y0(x, y, a0, g0, t0, phi_g0):
    """y at t0, from x(t0) = x[0], a and g at t0 and the history at g(t0)."""
    x0 = float(x[0])
    y[0] = x0 - a0 * (x0 if t0 - g0 < _DEGENERATE_LAG else phi_g0)


def integrate(spec: EquationSpec, history, t_end: float, step: float,
              initial_value: float | None = None) -> Trajectory:
    """Integrate ``spec`` with its forcing f forward from t0 to (at least) t_end.

    ``history`` supplies x(t) for t <= t0: a number, an Expr or a
    SeededHistory (anything else raises TypeError); ``initial_value``
    overrides x(t0) when the initial point is detached from the history
    (used for fundamental functions).  The grid step is fixed.  Raises
    FixedPointDivergence when the x-recovery iteration fails to contract
    within FP_MAX_ITER iterations.

    A failure is raised where the blocked evaluation meets it, on either
    path: h at the stages first, in the pass over the whole run that picks
    the path; then x(t0) from the history; then block by block in time, a
    and g at the block's nodes, b, h and the forcing at its stages, on the
    scalar path a and g along the in-step chains (level by level), then the
    history at every time of the block that reads it, and last the recovery
    of x, node by node.  Nothing is evaluated again after a failure.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if t_end <= spec.t0:
        raise ValueError("t_end must exceed t0")
    t0 = spec.t0
    n_steps = max(1, int(math.ceil((t_end - t0) / step - 1e-9)))
    hist = _history_fns(history)

    inputs = _Inputs(spec, step, n_steps)
    k_chunk = int(inputs.lag_min / step + 1e-12)
    # zeros, not empty: a stage lookup at exactly t0 from the first chunk
    # or step reads the last node with weight 0, which must not be NaN
    # garbage
    x = np.zeros(n_steps + 1)
    y = np.empty(n_steps + 1)
    x[0] = hist(np.full(1, t0)).item() if initial_value is None else float(initial_value)
    stats = _Stats()
    if k_chunk >= 8:
        path = "chunked"
        _advance_chunked(x, y, inputs, hist, t0, step, n_steps, min(k_chunk, 4096), stats)
    else:
        path = "scalar"
        _advance_scalar(spec, x, y, inputs, hist, t0, step, n_steps, stats)

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


def _fixed_point(i, frac, x, yi, ai, t_i, stats):
    """Fixed-point recovery of x[i] = yi + ai (x[i-1] + frac (x[i] - x[i-1])), on
    Python floats from x[i] = x[i-1]; x[i] is written once, also on divergence."""
    xj = cur = float(x[i - 1])
    tol = FP_TOL
    for it in range(1, FP_MAX_ITER + 1):
        new = yi + ai * (xj + frac * (cur - xj))
        resid = abs(new - cur)
        cur = new
        if resid < tol:
            x[i] = cur
            stats.iters_max = max(stats.iters_max, it)
            stats.resid_max = max(stats.resid_max, resid)
            return
    x[i] = cur
    raise _divergence(t_i)


def _advance_chunked(x, y, inputs, hist, t0, step, n_steps, k_chunk, stats):
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
        phi_g = _history_at(g_n, g_n < t0, hist)
        if lo == 0:
            _set_y0(x, y, float(a_n[0]), float(g_n[0]), t0, float(phi_g[0]))
        below_h = h_s < t0
        hist_h = np.flatnonzero(below_h)
        last_hist_h = int(hist_h[-1]) if len(hist_h) else -1
        phi_h = _history_at(h_s, below_h, hist)
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
                _wavefront(nodes[i3:e3], jn[i3:e3], fn[i3:e3], an[i3:e3], x, y, t0, step, stats)


def _wavefront(nodes, jn, fn, an, x, y, t0, step, stats):
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
            _accept(nodes[checked:k], x, t0, step, stats)
            p = int(nodes[k])
            _fixed_point(p, float(fn[k]), x, float(yh[k]), float(an[k]), t0 + step * p, stats)
            stats.hard, stats.self_ref = stats.hard - 1, stats.self_ref + 1
            k = checked = k + 1
            continue
        jj = jn[k:stop]
        xj = x[jj]
        x[nodes[k:stop]] = yh[k:stop] + an[k:stop] * (xj + fn[k:stop] * (x1[jj] - xj))
        k = stop
    _accept(nodes[checked:], x, t0, step, stats)


def _accept(ii, x, t0, step, stats):
    """The node-by-node loop's outcome at hard nodes ii whose x holds the
    closed form: from final interpolation nodes the second iterate repeats
    the first, so the loop takes one iteration when |x_i - x_{i-1}| < FP_TOL
    and two (the second with residual 0) otherwise, and fails on non-finite x_i."""
    if not len(ii):
        return
    new = x[ii]
    r1 = np.abs(new - x[ii - 1])
    r_hi = np.maximum.reduce(r1)  # NaN if any r1 is
    if not r_hi < math.inf and not (ok := np.isfinite(new)).all():
        raise _divergence(t0 + step * int(ii[ok.argmin()]))
    if r_hi < FP_TOL:
        stats.resid_max = max(stats.resid_max, float(r_hi))
        return
    stats.iters_max = max(stats.iters_max, 2)
    stats.resid_max = max(stats.resid_max, float(np.max(r1, where=r1 < FP_TOL, initial=0.0)))


def _committed_reads(q, n, x, lo, t0, inv_step, hist):
    """x at times q at or before t_n from the nodes n of the block that
    starts at lo: linear between nodes j = min(floor((q - t0) / step), n - 1)
    and j + 1, or the history below t0.  Each is an index into the block's x
    (from lo) and a weight, or index -1 and the value itself where the read
    is final before the block starts: x before lo, or the history."""
    below = q < t0
    pos = np.where(below, 0.0, (q - t0) * inv_step)
    j = np.minimum(pos.astype(np.int64), n - 1)
    w = pos - j
    before = (j < lo) & ~below
    jb = j[before]
    xj = x[jb]  # at n = 0, x[-1] is 0 and its weight 0
    w[before] = xj + w[before] * (x[jb + 1] - xj)
    if below.any():
        w[below] = hist(q[below])
    j -= lo
    j[before | below] = -1
    return j, w


def _in_step_chains(spec, q, t_n):
    """The chains of the lookups at times q past the last accepted node t_n:
    q, then g(q), g(g(q)) and so on, to the first time whose g is at or
    below t_n, or whose neutral lag degenerates, or to level 100.  Per level
    of each chain, a and the time past t_n; per chain, its levels' offsets
    (outermost first), how it ends (-2 degenerate, -3 at the cap, else -1)
    and, where it ends at or below t_n, that g and the chain's index.
    a and g are evaluated level by level over the chains still open."""
    live = np.arange(len(q))
    ids, levels_a, levels_d, ends, ends_g = [], [], [], [], []
    kind = np.full(len(q), -3, np.int64)
    for _ in range(101):  # levels 0 to 100
        aq, gq = spec.a.eval_array(q), spec.g.eval_array(q)
        ids.append(live)
        levels_a.append(aq)
        levels_d.append(q - t_n)
        near = q - gq < _DEGENERATE_LAG
        read = ~near & (gq <= t_n)
        kind[live[near]] = -2
        kind[live[read]] = -1
        ends.append(live[read])
        ends_g.append(gq[read])
        go = ~(near | read)
        q, t_n, live = gq[go], t_n[go], live[go]
        if not len(q):
            break
    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=len(kind)))))
    return (offsets, kind, np.concatenate(levels_a)[order], np.concatenate(levels_d)[order],
            np.concatenate(ends), np.concatenate(ends_g))


def _step_lookups(spec, x, lo, tn, hs, t0, step, hist):
    """The stage lookups of the scalar loop's block of steps from lo, with
    tn and hs its node and stage times: per step, of its k1, midpoint and
    k4 stages, as three lists each of codes and of weights.  A lookup at or
    before the last accepted node t_n is a committed read (code >= 0, an
    index into the block's x, and its weight; or -1 and the value), or -2 at
    a k1 that the last step's k4 read already.  One past t_n is -3 - c for
    the in-step chain c, with s - t_n for its weight (s is t_n, t_n + step / 2
    and t_n + step).  Last, the chains' lists: offsets of their levels, how
    each ends (as a code, or -2 degenerate, -3 at the cap) and its weight,
    and a and the time past t_n at each level."""
    M = len(tn) - 1
    q = np.concatenate((hs[0:2 * M:2], hs[1:2 * M:2], hs[2::2]))
    t_q = np.tile(tn[:M], 3)
    n_q = np.tile(np.arange(lo, lo + M), 3)
    committed = q <= t_q
    reads, chained = np.flatnonzero(committed), np.flatnonzero(~committed)
    co, cj, la, ld, end, end_g = _in_step_chains(spec, q[chained], t_q[chained])
    J, W = np.empty(3 * M, np.int64), np.empty(3 * M)
    J[chained] = -3 - np.arange(len(chained))
    W[chained] = ((t_q + np.repeat((0.0, 0.5 * step, step), M)) - t_q)[chained]
    J_r, W_r = _committed_reads(np.concatenate((q[reads], end_g)),
                                np.concatenate((n_q[reads], n_q[chained][end])),
                                x, lo, t0, 1.0 / step, hist)
    J[reads], W[reads] = J_r[:len(reads)], W_r[:len(reads)]
    cj[end] = J_r[len(reads):]
    cw = np.zeros(len(chained))
    cw[end] = W_r[len(reads):]
    J1, J4 = J[:M], J[2 * M:]
    J1[1:][(J4[:-1] >= 0) & (J1[1:] == J4[:-1])] = -2
    return ((J1.tolist(), J[M:2 * M].tolist(), J4.tolist()),
            (W[:M].tolist(), W[M:2 * M].tolist(), W[2 * M:].tolist()),
            (co.tolist(), cj.tolist(), cw.tolist(), la.tolist(), ld.tolist()))


def _advance_scalar(spec, x, y, inputs, hist, t0, step, n_steps, stats):
    # xb and yb are x and y at the nodes lo to hi of the current block.
    def in_step(c, yn, dy, ds):
        # x at the in-step chain c: y interpolated linearly on [t_n, s] (dy =
        # y_s - yn, ds = s - t_n) at each level, plus a times x at the next
        # level, from the innermost level outward
        i, e = co[c], co[c + 1] - 1
        y_q = yn + dy * ld[e] / ds if ds else yn
        if (j := cj[c]) >= 0:
            v = y_q + la[e] * (xb[j] + cw[c] * (xb[j + 1] - xb[j]))
        elif j == -1:
            v = y_q + la[e] * cw[c]
        elif j == -2:  # at a = 1, numpy's inf or nan and warning
            v = y_q / d if (d := 1.0 - la[e]) else np.float64(y_q) / d
        else:
            v = y_q
        while e > i:
            e -= 1
            v = (yn + dy * ld[e] / ds if ds else yn) + la[e] * v
        return v

    half, sixth, tol, ntol = 0.5 * step, step / 6.0, FP_TOL, -FP_TOL
    near, below, self_ref, iters, self_iters, resid = 0, 0, 0, 1, 1, 0.0
    for lo in range(0, n_steps, _SCALAR_BLOCK_STEPS):
        hi = min(lo + _SCALAR_BLOCK_STEPS, n_steps)
        tn, a_n, g_n = inputs.nodes(lo, hi)
        b_s, hs, fs = inputs.stages(lo, hi)
        (J1, Jm, J4), (W1, Wm, W4), (co, cj, cw, la, ld) = _step_lookups(
            spec, x, lo, tn, hs, t0, step, hist)
        # each node's (g - t0) / step where x(g) is interpolated (>= 0, or NaN),
        # -1 where the neutral lag degenerates and -2 where g is below t0, and
        # the history there in node order (node lo > 0 read it in the block before)
        pos = (g_n - t0) / step
        pos[g_n < t0] = -2.0
        pos[tn - g_n < _DEGENERATE_LAG] = -1.0
        reads = pos == -2.0
        reads[0] &= lo == 0
        phi = iter(hist(g_n[reads]).tolist() if reads.any() else ())
        ab, pos = a_n.tolist(), pos.tolist()
        nb, fs = np.negative(b_s, out=b_s).tolist(), fs.tolist()
        del tn, a_n, b_s, hs
        if lo == 0:
            _set_y0(x, y, ab[0], g_n.item(0), t0, next(phi) if reads[0] else 0.0)
        xb, yb = x[lo:hi + 1].tolist(), y[lo:hi + 1].tolist()
        for m in range(hi - lo):
            n, yn = lo + m, yb[m]
            k = 2 * m
            if (j := J1[m]) == -2:
                k1 = k4
            elif j >= 0:
                k1 = nb[k] * (xb[j] + W1[m] * (xb[j + 1] - xb[j])) + fs[k]
            elif j == -1:
                k1 = nb[k] * W1[m] + fs[k]
            else:  # s = t_n: y is yn along the chain
                k1 = nb[k] * in_step(-3 - j, yn, 0.0, W1[m]) + fs[k]
            if (j := Jm[m]) >= 0:  # a committed lookup does not depend on the stage's y
                k2 = k3 = nb[k + 1] * (xb[j] + Wm[m] * (xb[j + 1] - xb[j])) + fs[k + 1]
            elif j == -1:
                k2 = k3 = nb[k + 1] * Wm[m] + fs[k + 1]
            else:
                c, ds = -3 - j, Wm[m]
                k2 = nb[k + 1] * in_step(c, yn, (yn + half * k1) - yn, ds) + fs[k + 1]
                k3 = nb[k + 1] * in_step(c, yn, (yn + half * k2) - yn, ds) + fs[k + 1]
            if (j := J4[m]) >= 0:
                k4 = nb[k + 2] * (xb[j] + W4[m] * (xb[j + 1] - xb[j])) + fs[k + 2]
            elif j == -1:
                k4 = nb[k + 2] * W4[m] + fs[k + 2]
            else:
                k4 = nb[k + 2] * in_step(-3 - j, yn, (yn + step * k3) - yn, W4[m]) + fs[k + 2]
            yi = yb[m + 1] = yn + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # recover x at node n + 1 from y
            ai, p = ab[m + 1], pos[m + 1]
            if p == -1.0:
                near += 1
                xb[m + 1] = yi / d if (d := 1.0 - ai) else np.float64(yi) / d
            elif p == -2.0:
                below += 1
                xb[m + 1] = yi + ai * next(phi)
            elif (j := int(p)) < n:  # x[j] and x[j + 1] are final: the closed form of _fixed_point
                xj, xj1 = (xb[j - lo], xb[j - lo + 1]) if j >= lo else (x.item(j), x.item(j + 1))
                new = xb[m + 1] = yi + ai * (xj + (p - j) * (xj1 - xj))
                if ntol < (r := new - xb[m]) < tol:  # abs(r) < tol
                    resid = max(resid, abs(r))
                elif new - new == 0.0:  # the second residual, 0 unless new is inf or nan
                    iters = 2
                else:
                    raise _divergence(t0 + step * (n + 1))
            else:  # x(g) past node n: _fixed_point from x[n], in line
                self_ref += 1
                frac, xj = p - n, float(xb[m])  # j = n
                cur = xj
                for it in range(1, FP_MAX_ITER + 1):
                    new = yi + ai * (xj + frac * (cur - xj))
                    r, cur = new - cur, new
                    if ntol < r < tol:
                        break
                else:
                    raise _divergence(t0 + step * (n + 1))
                xb[m + 1] = cur
                self_iters, resid = max(self_iters, it), max(resid, abs(r))
        y[lo:hi + 1] = yb
        x[lo:hi + 1] = xb
        # free them before the next block's
        del g_n, reads, phi, ab, pos, nb, fs, J1, Jm, J4, W1, Wm, W4, co, cj, cw, la, ld, xb, yb
    stats.iters_max, stats.resid_max = max(stats.iters_max, iters, self_iters), max(stats.resid_max, resid)
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
    sup = max([-math.inf] + simpson(b, h.eval_array(grid), grid).tolist())
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
        if np.any(traj.x <= 0.0):
            bad = float(traj.times()[np.argmax(traj.x <= 0.0)])
            raise PositivityViolation(
                f"fundamental function not positive at t={bad} for s={float(s)}")
        rows = t_samples >= s
        table[rows, k] = traj.x_at(t_samples[rows])

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
    inconclusive otherwise.  Raises ValueError for a warmup that is negative
    or not finite, for a window that is not positive or not finite, and for
    a window shorter than the trajectory's step.
    """
    if not (math.isfinite(warmup) and warmup >= 0.0):
        raise ValueError(f"warmup must be finite and non-negative, got {warmup!r}")
    if not (math.isfinite(window) and window > 0.0):
        raise ValueError(f"window must be finite and positive, got {window!r}")
    if window < traj.step:
        raise ValueError(f"window must be at least the trajectory step {traj.step!r}, got {window!r}")
    span = traj.t_end - traj.t0
    if span < warmup + 5.0 * window:
        raise ValueError("trajectory too short: need t_end - t0 >= warmup + 5*window")
    start = traj.t0 + warmup
    w0 = start + np.arange(int((traj.t_end - start) / window)) * window
    # window k covers the samples i0[k] ..= i1[k]; i1[k] + 1 need not equal
    # i0[k + 1], so the bounds are interleaved and every other max is kept
    i0 = np.rint((w0 - traj.t0) / traj.step).astype(np.int64)
    i1 = np.minimum(np.rint((w0 + window - traj.t0) / traj.step).astype(np.int64), traj.n - 1)
    bounds = np.column_stack((i0, i1 + 1)).ravel()
    padded = np.empty(traj.n + 1)  # a spare last element, so that i1 + 1 = n is a valid index
    np.abs(traj.x, out=padded[:-1])
    padded[-1] = 0.0
    sups = np.maximum.reduceat(padded, bounds)[::2].tolist()
    mids = (w0 + 0.5 * window).tolist()
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
