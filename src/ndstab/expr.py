"""Restricted expression grammar for coefficients and delay arguments.

The grammar is deliberately closed: constants, the time variable, sums,
products, quotients, sine, cosine, absolute value and scalar multiples.
Every coefficient or delay used by the bundled benchmark corpus is
representable, and suprema/infima of each node can be estimated honestly
by dense sampling.

Expressions serialize to/from a nested-array JSON form, e.g.

    ["+", ["const", 0.498], ["scale", 0.001, ["cos", ["t"]]]]

and the mapping is lossless in both directions.

Scalar evaluation compiles each tree once: the first ``e.evaluate`` builds
one Python function of t doing a tree walk's operations in its order, and
caches it on the node.  Hot loops bind ``e.evaluate`` once.  ``eval_array``
evaluates a tree into one fresh array: each node's ufunc writes into it in
place, constants stay Python floats that numpy broadcasts, ``t`` is read
where it lies, and a second array is made only for a node with two
operands that are not leaves.  Its values are bit for bit those of one
ufunc per node on full arrays.

``Expr.enclose`` bounds what ``eval_array`` computes at every float time of
each cell of a partition, by the grammar's interval extension, and
``lag_enclosure`` bounds the lag t - g(t) with t cancelled.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

# The deepest expression that parse_expr accepts: the bundled trees are at
# most 5 deep, and a tree walk takes one or two of Python's 1,000 frames a
# level.
MAX_EXPR_DEPTH = 100


class DomainError(ValueError):
    """Evaluation left the expression's domain (e.g. division by zero)."""


_KINDS = {"const", "t", "add", "mul", "div", "sin", "cos", "abs", "scale"}

_JSON_TAGS = {
    "add": "+",
    "mul": "*",
    "div": "/",
    "sin": "sin",
    "cos": "cos",
    "abs": "abs",
    "scale": "scale",
    "const": "const",
    "t": "t",
}
_TAG_KINDS = {v: k for k, v in _JSON_TAGS.items()}


@dataclass(frozen=True)
class Expr:
    """Immutable expression tree node.

    ``value`` holds the constant for ``const`` nodes and the multiplier for
    ``scale`` nodes; it is None otherwise.
    """

    kind: str
    value: float | None = None
    args: tuple["Expr", ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown expression kind {self.kind!r}")
        if self.kind in ("const", "scale") and self.value is None:
            raise ValueError(f"{self.kind} node requires a numeric value")
        arity = {"const": 0, "t": 0, "div": 2, "sin": 1, "cos": 1, "abs": 1, "scale": 1}
        if self.kind in arity and len(self.args) != arity[self.kind]:
            raise ValueError(f"{self.kind} node takes {arity[self.kind]} children, got {len(self.args)}")
        if self.kind in ("add", "mul") and len(self.args) < 1:
            raise ValueError(f"{self.kind} node needs at least one child")

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def evaluate(self):
        """``e.evaluate(t)``: the value at one time in double precision, by
        the function that the first access compiles and caches.  Raises
        DomainError on division by zero; inf and nan results pass through.
        Deterministic: identical inputs give bit-identical outputs."""
        return _compile(self)

    def __getstate__(self):
        # the compiled function is rebuilt on demand, and cannot be pickled
        return {k: v for k, v in self.__dict__.items() if k != "evaluate"}

    def eval_array(self, ts) -> np.ndarray:
        """Vectorized evaluation at an array of times (or anything
        ``np.asarray`` takes): a fresh float array of its shape, bit for bit
        what one numpy ufunc per node on full arrays gives.  Raises
        DomainError at the first time where a quotient's denominator is
        zero, denominators before numerators and children left to right.
        ``ts`` is never written."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape)
        _into(self, ts, out)
        return out

    def enclose(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on ``eval_array``'s value at every float t in each cell
        [lo[k], hi[k]], by the interval extension of the grammar (see
        "Interval extension" below).  A NaN bound means unproven; nothing
        raises, and numpy's floating-point warnings are left to the caller."""
        return _enclose(self, lo, hi)

    # -- structure ----------------------------------------------------------

    def denominators(self) -> Iterator["Expr"]:
        """Yield the denominator subtree of every quotient node."""
        if self.kind == "div":
            yield self.args[1]
        for c in self.args:
            yield from c.denominators()

    def to_json(self):
        """Nested-array JSON form; inverse of :func:`parse_expr`."""
        k = self.kind
        if k == "const":
            return ["const", self.value]
        if k == "t":
            return ["t"]
        if k == "scale":
            return ["scale", self.value, self.args[0].to_json()]
        return [_JSON_TAGS[k]] + [c.to_json() for c in self.args]


# -- array evaluation ---------------------------------------------------------

_UFUNCS = {"add": np.add, "mul": np.multiply, "sin": np.sin, "cos": np.cos, "abs": np.abs}


def _leaf_value(e: Expr, ts: np.ndarray):
    """``e``'s value as a ufunc operand if ``e`` is a leaf, else None: the
    time variable as ``ts`` itself and a constant as its Python float, which
    numpy broadcasts.  A NaN constant is not a leaf: when both operands of a
    sum or product are NaNs, which one's payload comes out differs between
    numpy's array-scalar and array-array loops."""
    if e.kind == "t":
        return ts
    if e.kind == "const" and not math.isnan(e.value):
        return e.value
    return None


def _into(e: Expr, ts: np.ndarray, out: np.ndarray) -> None:
    """Write ``e``'s value at ``ts`` into ``out``, one Python frame per tree
    level.  Every node computes its ufunc in place in ``out``; a second
    buffer is made only where a sum, product or quotient has two operands
    that are not leaves."""
    k = e.kind
    if k == "const":
        out.fill(e.value)
    elif k == "t":
        np.copyto(out, ts)
    elif k in ("add", "mul"):
        op = _UFUNCS[k]
        acc = spare = None
        for c in e.args:
            x = _leaf_value(c, ts)
            if x is None:
                if acc is out:
                    if spare is None:
                        spare = np.empty_like(out)
                    x = spare
                else:
                    x = out
                _into(c, ts, x)
            # in place on one element, numpy's sum of two NaNs keeps x's, not acc's
            acc = x if acc is None else op(acc, x, out=out if out.size > 1 else None)
        if acc is not out:  # a lone leaf child, or one element
            np.copyto(out, acc)
    elif k == "div":
        den = _leaf_value(e.args[1], ts)
        if den is None:
            _into(e.args[1], ts, out)
            den = out
        zero = np.broadcast_to(den == 0.0, ts.shape)
        if zero.any():
            raise DomainError(f"division by zero at t={float(ts.flat[np.argmax(zero)])}")
        num = _leaf_value(e.args[0], ts)
        if num is None:
            num = np.empty_like(out) if den is out else out
            _into(e.args[0], ts, num)
        np.divide(num, den, out=out)
    elif k == "scale":
        x = _leaf_value(e.args[0], ts)
        if x is None:
            _into(e.args[0], ts, out)
            x = out
        np.multiply(e.value, x, out=out)
    else:  # sin, cos, abs; a constant argument is a full array too, since
        # numpy's kernels need not round as math.sin does
        arg = e.args[0]
        if arg.kind != "t":
            _into(arg, ts, out)
        _UFUNCS[k](ts if arg.kind == "t" else out, out=out)


# -- interval extension ---------------------------------------------------------
#
# Each node maps per-cell bounds of its operands to bounds of its own float
# value.  +, *, / and scale apply the same float operation to the endpoints
# (a sum or product folded in _into's left-to-right order), which encloses
# every float result because IEEE rounding is monotone; abs is exact.  A
# denominator whose bounds reach 0 gives NaN bounds, and so do bounds of
# -inf and inf, as inf - inf or 0 * inf may lie between them.  sin and cos
# take the float value at each endpoint, or +-1 when a peak or trough lies
# in the cell, and widen both bounds by TRIG_ALLOWANCE.

# Absolute widening of sin and cos bounds.  It covers the error of numpy's
# float64 sin and cos kernels (a few ulps of 1, about 2.2e-16 each, in
# numpy 2.0 through 2.4) twice, at an endpoint and at the sample, with
# room to spare, and the second-order miss of a peak that rounding puts
# just outside the cell.
TRIG_ALLOWANCE = 1e-14
# Beyond this argument magnitude sin and cos are only known to lie in
# [-1, 1], widened as above.
TRIG_MAX_ARG = 2.0 ** 20
# A lag t - g(t) cancelled symbolically (see lag_enclosure) is widened by
# LAG_ROUNDING * n * M for g a sum of n operands, M a bound on |t| plus
# the other operands' magnitudes: g's fold rounds n - 1 times, the fold of
# their bounds n - 2 times and t - g once, each by at most eps / 2 times M.
LAG_ROUNDING = float(np.finfo(float).eps)


def _unproven(mask, bottom, top):
    """The bounds, NaN in the cells of ``mask``."""
    unknown = np.where(mask, math.nan, 0.0)
    return bottom + unknown, top + unknown


def _known(bottom, top):
    """The bounds, or NaN bounds in a cell where they are -inf and inf."""
    if bottom.min() > -math.inf:
        return bottom, top
    return _unproven((bottom == -math.inf) & (top == math.inf), bottom, top)


def _corners(op, x, y):
    """Bounds of ``op`` over the box of two intervals, from its four corners."""
    p = (op(x[0], y[0]), op(x[0], y[1]), op(x[1], y[0]), op(x[1], y[1]))
    return (np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3])),
            np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3])))


def _has_point(p: float, lo, hi):
    """Whether some p + 2 k pi lies in [lo, hi], per cell."""
    return np.floor((hi - p) / (2.0 * math.pi)) >= np.ceil((lo - p) / (2.0 * math.pi))


def _trig(kind: str, lo, hi):
    f = np.sin if kind == "sin" else np.cos
    peak = 0.5 * math.pi if kind == "sin" else 0.0
    y0, y1 = f(lo), f(hi)
    bottom, top = np.minimum(y0, y1), np.maximum(y0, y1)
    np.copyto(bottom, -1.0, where=_has_point(peak + math.pi, lo, hi))
    np.copyto(top, 1.0, where=_has_point(peak, lo, hi))
    bottom -= TRIG_ALLOWANCE
    top += TRIG_ALLOWANCE
    if lo.min() >= -TRIG_MAX_ARG and hi.max() <= TRIG_MAX_ARG:  # the argument is finite and small
        return bottom, top
    wide = ~(np.maximum(np.abs(lo), np.abs(hi)) <= TRIG_MAX_ARG)
    np.copyto(bottom, -1.0 - TRIG_ALLOWANCE, where=wide)
    np.copyto(top, 1.0 + TRIG_ALLOWANCE, where=wide)
    # an argument that may be infinite or NaN may give NaN
    return _unproven(~(np.isfinite(lo) & np.isfinite(hi)), bottom, top)


def _enclose(e: Expr, lo, hi):
    k = e.kind
    if k == "t":
        return lo, hi
    if k == "const":
        v = np.full(lo.shape, e.value)
        return v, v
    if k == "add" or k == "mul":
        acc = None
        for c in e.args:
            x = _enclose(c, lo, hi)
            if acc is None:
                acc = x
            elif k == "add":
                acc = _known(acc[0] + x[0], acc[1] + x[1])
            else:
                acc = _known(*_corners(np.multiply, acc, x))
        return acc
    if k == "div":
        den = _enclose(e.args[1], lo, hi)
        quotient = _corners(np.divide, _enclose(e.args[0], lo, hi), den)
        return _unproven(~((den[0] > 0.0) | (den[1] < 0.0)), *quotient)
    x = _enclose(e.args[0], lo, hi)
    if k == "scale":
        ends = e.value * x[0], e.value * x[1]
        return _known(np.minimum(*ends), np.maximum(*ends))
    if k == "abs":
        size = np.abs(x[0]), np.abs(x[1])
        straddles = (x[0] < 0.0) & (x[1] > 0.0)
        return np.where(straddles, 0.0, np.minimum(*size)), np.maximum(*size)
    return _trig(k, *x)


def lag_enclosure(g: Expr, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the float lag ``t - g.eval_array(t)`` at every float t in
    each cell [lo[k], hi[k]]; a NaN bound means unproven.

    Bounding t and g(t) apart would widen the lag by the cell width, so t
    cancels symbolically in three shapes of g:
    - ``t``: the lag is 0.0 exactly;
    - a sum with one operand ``t``: the lag is minus the sum of the others,
      widened by LAG_ROUNDING * n * M for a sum of n operands.  When every
      other operand is <= 0, each partial sum of the fold stays <= t, so
      the float lag is >= 0 exactly;
    - ``t / c`` for a nonzero constant c: the lag is (1 - 1/c) t, widened
      by LAG_ROUNDING * 4 * M with M = |t| (1 + 1/|c|).
    Any other g gives fl(t - g) over [lo, hi] and g's bounds.
    """
    t_size = np.maximum(np.abs(lo), np.abs(hi))
    zero = np.zeros(lo.shape)
    if g.kind == "t":
        return zero, zero
    if g.kind == "add" and sum(c.kind == "t" for c in g.args) == 1:
        bottom, top, size = zero, zero, t_size
        nonpositive = np.ones(lo.shape, dtype=bool)
        for c in g.args:
            if c.kind != "t":
                x = _enclose(c, lo, hi)
                bottom, top = bottom + x[0], top + x[1]
                size = size + np.maximum(np.abs(x[0]), np.abs(x[1]))
                nonpositive &= x[1] <= 0.0
        slack = LAG_ROUNDING * len(g.args) * size
        slack[~np.isfinite(slack)] = math.nan  # an operand may be infinite: inf - inf may be NaN
        lag_lo = -top - slack
        return np.where(nonpositive, np.maximum(lag_lo, 0.0), lag_lo), slack - bottom
    if g.kind == "div" and g.args[0].kind == "t" and g.args[1].kind == "const" and g.args[1].value != 0.0:
        c = g.args[1].value
        rate = 1.0 - 1.0 / c
        slack = LAG_ROUNDING * 4.0 * t_size * (1.0 + 1.0 / abs(c))
        ends = rate * lo, rate * hi
        return np.minimum(*ends) - slack, np.maximum(*ends) + slack
    bottom, top = _enclose(g, lo, hi)
    return lo - top, hi - bottom


# -- compilation --------------------------------------------------------------

# code objects by source, which all trees of one shape share (constants are names)
_code = lru_cache(maxsize=256)(compile)


def _compile(expr: Expr):
    """Compile ``expr`` into one Python function of t doing a tree walk's
    operations in its order: one statement per node (a nested expression
    would hit CPython's limit of 200 nested parentheses), children left to
    right, but a quotient's denominator computed and checked first.  A sum
    starts from ``0.0 +`` (-0.0 becomes 0.0), a product from ``1.0 *``.
    Constants are names in the namespace, never source text."""
    names = {"_sin": math.sin, "_cos": math.cos, "_abs": abs, "DomainError": DomainError}
    lines = []

    def emit(e):
        k = e.kind
        if k == "t":
            return "t"
        if k in ("const", "scale"):
            c = f"_c{len(names)}"
            names[c] = e.value
            if k == "const":
                return c
            rhs = f"{c} * {emit(e.args[0])}"
        elif k == "div":
            den = emit(e.args[1])
            lines.append(f'if {den} == 0.0: raise DomainError(f"division by zero at t={{t}}")')
            rhs = f"{emit(e.args[0])} / {den}"
        elif k in ("add", "mul"):
            terms = ["0.0" if k == "add" else "1.0"]
            for c in e.args:
                terms.append(emit(c))
            rhs = (" + " if k == "add" else " * ").join(terms)
        else:
            rhs = f"_{k}({emit(e.args[0])})"
        v = f"v{len(lines)}"
        lines.append(f"{v} = {rhs}")
        return v

    out = emit(expr)
    source = "def evaluate(t):\n" + "".join(f"    {x}\n" for x in lines) + f"    return {out}\n"
    exec(_code(source, "<expr>", "exec"), names)
    return names["evaluate"]


# -- constructors ------------------------------------------------------------

def const(v: float) -> Expr:
    return Expr("const", float(v))


def tvar() -> Expr:
    return Expr("t")


def add(*args: Expr) -> Expr:
    return Expr("add", args=tuple(args))


def mul(*args: Expr) -> Expr:
    return Expr("mul", args=tuple(args))


def div(num: Expr, den: Expr) -> Expr:
    return Expr("div", args=(num, den))


def sin(e: Expr) -> Expr:
    return Expr("sin", args=(e,))


def cos(e: Expr) -> Expr:
    return Expr("cos", args=(e,))


def absval(e: Expr) -> Expr:
    return Expr("abs", args=(e,))


def scale(v: float, e: Expr) -> Expr:
    return Expr("scale", float(v), (e,))


def parse_expr(node) -> Expr:
    """Parse the nested-array JSON form into an Expr tree.  Raises
    ValueError on a malformed node, or on arrays nested deeper than
    MAX_EXPR_DEPTH levels (``["t"]`` is one level).  Messages show a node
    by ``reprlib.repr``, which shortens it, so a deep one cannot exhaust
    the stack."""
    return _parse(node, 1)


def _parse(node, depth: int) -> Expr:
    if depth > MAX_EXPR_DEPTH:
        raise ValueError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
    if not isinstance(node, (list, tuple)) or not node:
        raise ValueError(f"expression node must be a non-empty array, got {reprlib.repr(node)}")
    tag = node[0]
    if tag == "const":
        if len(node) != 2 or not isinstance(node[1], (int, float)):
            raise ValueError(f"const node takes one number: {reprlib.repr(node)}")
        return const(node[1])
    if tag == "t":
        if len(node) != 1:
            raise ValueError(f"t node takes no arguments: {reprlib.repr(node)}")
        return tvar()
    if tag == "scale":
        if len(node) != 3 or not isinstance(node[1], (int, float)):
            raise ValueError(f"scale node takes a number and one child: {reprlib.repr(node)}")
        return scale(node[1], _parse(node[2], depth + 1))
    if not isinstance(tag, str) or tag not in _TAG_KINDS:
        raise ValueError(f"unknown expression tag {reprlib.repr(tag)}")
    return Expr(_TAG_KINDS[tag], args=tuple(_parse(c, depth + 1) for c in node[1:]))
