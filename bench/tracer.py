"""Span tracer for the traced run.

``Tracer.install`` replaces the public functions of each ndstab module
(in every module namespace that holds them) with wrappers that record a
span: name, layer, start, end, parent span and request id.  Spans stay in
memory until ``write``.  The package itself is not modified; ``uninstall``
puts the original functions back.

Two kinds of call are too frequent for one span each and are aggregated
instead (time, calls, points), still nested correctly for self time:
``Expr.eval_array`` on the root coefficient expressions of every loaded
spec (wrapped per instance, so inner nodes run unwrapped) and
``params.simpson``.  Scalar ``Expr.evaluate`` is not wrapped: a wrapper
costs more than the call itself (about 1 us against 0.7 us) and would
inflate every function that loops over it, so its time stays in its
callers and run.py measures its cost per call separately.

A layer's self time is the time inside its calls minus the time of the
calls nested in them.  Time spent in the tracer's own hooks is removed
from the enclosing span as well.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import integrator_path

LAYERS = ("expr", "eqspec", "params", "criteria", "series", "simulate", "report", "cli")

# (module, function, layer); "Class.method" patches the class attribute
TRACED = (
    ("cli", "run", "cli"),
    ("eqspec", "load_spec", "eqspec"),
    ("eqspec", "validate", "eqspec"),
    ("params", "summarize", "params"),
    ("params", "integral_summary", "params"),
    ("params", "estimate_limsup_int_b", "params"),
    ("criteria", "best_verdict", "criteria"),
    ("report", "sweep_alpha_r", "report"),
    ("report", "write_sweep_csv", "report"),
    ("report", "reproduce_examples", "report"),
    ("report", "compare_baselines", "report"),
    ("simulate", "integrate", "simulate"),
    ("simulate", "fundamental", "simulate"),
    ("simulate", "decay_rate", "simulate"),
    ("simulate", "lemma4_check", "simulate"),
    ("simulate", "lemma5_condition", "simulate"),
    ("simulate", "Trajectory.write_csv", "simulate"),
    ("series", "big_B", "series"),
    ("series", "neumann_inverse", "series"),
    ("series", "apply_S", "series"),
)
AGGREGATED = (("params", "simpson", "params"),)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.epoch = self.clock()
        self.spans = []            # (id, name, layer, start, end, parent, request)
        self.stack = []            # open frames: [child seconds, span id]
        self.request = None
        self.self_s = Counter()    # layer -> self seconds
        self.calls = Counter()     # layer -> boundary calls
        self.durations = defaultdict(list)   # function -> inclusive seconds per call
        self.counts = Counter()    # named counters
        self.fp_iterations_max = 0
        self._next_id = 0
        self._in_leaf = False
        self._patches = []
        self._instrumented = []

    # -- recording ------------------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs, record=True, hook=None):
        """Run fn as one span; ``hook(args) -> after(result, seconds)`` collects
        counters, and its time is kept out of every span's self time."""
        entered = self.clock()
        after = None if hook is None else hook(args, kwargs)
        parent = self.stack[-1] if self.stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        self.stack.append(frame)
        result = ok = None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = self.clock()
            self.stack.pop()
            seconds = end - start
            self.self_s[layer] += seconds - frame[0]
            self.calls[layer] += 1
            if record:
                self.durations[name].append(seconds)
                self.spans.append((span_id, name, layer, start - self.epoch, end - self.epoch,
                                   None if parent is None else parent[1], self.request))
            if ok and after is not None:
                after(result, seconds)
            if parent is not None:
                parent[0] += self.clock() - entered
        return result

    def leaf(self, fn, ts):
        """Aggregated timing of one root-expression ``eval_array`` call."""
        if self._in_leaf:  # an instrumented root inside another one
            return fn(ts)
        self._in_leaf = True
        start = self.clock()
        try:
            result = fn(ts)
        finally:
            seconds = self.clock() - start
            self._in_leaf = False
        if self.stack:
            self.stack[-1][0] += seconds
        self.self_s["expr"] += seconds
        self.calls["expr"] += 1
        self.counts["expr.eval_array.seconds"] += seconds
        self.counts["expr.eval_array.points"] += np.size(ts)
        return result

    # -- installation -----------------------------------------------------------------

    def install(self, nd, extra_specs=()):
        modules = [nd] + [getattr(nd, m) for m in
                          ("cli", "criteria", "eqspec", "expr", "params", "report", "series", "simulate")]
        for mod_name, qual, layer in TRACED + AGGREGATED:
            owner = getattr(nd, mod_name)
            if "." in qual:
                cls_name, name = qual.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                name = qual
                targets = modules
            orig = getattr(owner, name)
            wrapper = self._wrap(qual, layer, orig, record=(mod_name, qual, layer) in TRACED)
            for target in targets:
                if target.__dict__.get(name) is orig:
                    setattr(target, name, wrapper)
                    self._patches.append((target, name, orig))
        for spec in extra_specs:
            self.instrument_spec(spec)

    def uninstall(self):
        for target, name, orig in reversed(self._patches):
            setattr(target, name, orig)
        self._patches.clear()
        for expr in self._instrumented:
            expr.__dict__.pop("eval_array", None)
        self._instrumented.clear()

    def _wrap(self, qual, layer, orig, record):
        hook = _HOOKS.get(qual)
        params = list(inspect.signature(orig).parameters.values())
        index = {p.name: i for i, p in enumerate(params)}

        def bound_hook(args, kwargs):
            def arg(name):
                i = index[name]
                return args[i] if i < len(args) else kwargs.get(name, params[i].default)
            return hook(self, arg)

        def wrapper(*args, **kwargs):
            return self.call(qual, layer, orig, args, kwargs, record,
                             None if hook is None else bound_hook)
        wrapper.__wrapped__ = orig
        return wrapper

    def instrument_spec(self, spec):
        """Aggregate timing of ``eval_array`` on the spec's root expressions."""
        for expr in (spec.a, spec.b, spec.g, spec.h, spec.f):
            if expr is None or "eval_array" in expr.__dict__:
                continue
            eval_array = type(expr).eval_array.__get__(expr)
            expr.__dict__["eval_array"] = lambda ts, f=eval_array: self.leaf(f, ts)
            self._instrumented.append(expr)

    # -- output -----------------------------------------------------------------------

    def write(self, path):
        keys = ("id", "name", "layer", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- hooks: counters recorded at the layer boundaries ------------------------------------------
# A hook gets arg(name) -> the call's argument before the call, and returns
# the function that records counters from the result.

def _load_spec(tr, arg):
    return lambda result, seconds: tr.instrument_spec(result)


def _validate(tr, arg):
    def after(result, seconds):
        tr.counts["eqspec.grid_points"] += arg("grid_points")
    return after


def _simpson(tr, arg):
    def after(result, seconds):
        panels = arg("panels")
        tr.counts["params.quadrature_calls"] += 1
        tr.counts["params.quadrature_points"] += panels + panels % 2 + 1
    return after


def _best_verdict(tr, arg):
    def after(result, seconds):
        tr.counts["criteria.verdicts"] += len(result)
        tr.counts["criteria.satisfied"] += sum(v.satisfied for v in result)
    return after


def _sweep(tr, arg):
    def after(result, seconds):
        tr.counts["report.sweep_rows"] += len(result)
    return after


def _reproduce(tr, arg):
    def after(result, seconds):
        if not arg("with_simulation") and result:
            tr.durations["report.reproduce_examples.per_example"].append(seconds / len(result))
    return after


def _integrate(tr, arg):
    spec = arg("spec")
    path = integrator_path({"t0": spec.t0, "h": spec.h.to_json()}, arg("t_end"), arg("step"))

    def after(result, seconds):
        tr.counts[f"simulate.steps.{path}"] += result.n - 1
        tr.counts[f"simulate.seconds.{path}"] += seconds
        tr.fp_iterations_max = max(tr.fp_iterations_max, result.fp_iterations_max)
    return after


def _write_csv(tr, arg):
    fh = arg("fh")
    before = fh.tell()

    def after(result, seconds):
        tr.counts["simulate.csv_bytes"] += fh.tell() - before
    return after


def _big_B(tr, arg):
    def after(result, seconds):
        tr.counts["series.terms"] += result[1].terms
    return after


_HOOKS = {
    "load_spec": _load_spec,
    "validate": _validate,
    "simpson": _simpson,
    "best_verdict": _best_verdict,
    "sweep_alpha_r": _sweep,
    "reproduce_examples": _reproduce,
    "integrate": _integrate,
    "Trajectory.write_csv": _write_csv,
    "big_B": _big_B,
}
