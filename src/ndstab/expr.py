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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np


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
            acc = x if acc is None else op(acc, x, out=out)
        if acc is not out:  # a lone leaf child
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
    """Parse the nested-array JSON form into an Expr tree."""
    if not isinstance(node, (list, tuple)) or not node:
        raise ValueError(f"expression node must be a non-empty array, got {node!r}")
    tag = node[0]
    if tag == "const":
        if len(node) != 2 or not isinstance(node[1], (int, float)):
            raise ValueError(f"const node takes one number: {node!r}")
        return const(node[1])
    if tag == "t":
        if len(node) != 1:
            raise ValueError(f"t node takes no arguments: {node!r}")
        return tvar()
    if tag == "scale":
        if len(node) != 3 or not isinstance(node[1], (int, float)):
            raise ValueError(f"scale node takes a number and one child: {node!r}")
        return scale(node[1], parse_expr(node[2]))
    if tag not in _TAG_KINDS:
        raise ValueError(f"unknown expression tag {tag!r}")
    return Expr(_TAG_KINDS[tag], args=tuple(parse_expr(c) for c in node[1:]))
