import json
import math
import pickle
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndstab.expr import (
    DomainError,
    absval,
    add,
    const,
    cos,
    div,
    mul,
    parse_expr,
    scale,
    sin,
    tvar,
)

T = tvar()

# every coefficient/delay shape used by the benchmark corpus
CORPUS_EXPRS = {
    "0.498 + 0.001 cos t": add(const(0.498), scale(0.001, cos(T))),
    "0.9 + 0.1 sin t": add(const(0.9), scale(0.1, sin(T))),
    "0.5 + 0.1 cos t": add(const(0.5), scale(0.1, cos(T))),
    "0.6 sin t": scale(0.6, sin(T)),
    "0.1 (0.5 + |sin t|)": scale(0.1, add(const(0.5), absval(sin(T)))),
    "1/(4t)": div(const(1.0), scale(4.0, T)),
    "t - 0.2 |sin t|": add(T, scale(-0.2, absval(sin(T)))),
    "t - 0.2 |cos t|": add(T, scale(-0.2, absval(cos(T)))),
    "t/3": div(T, const(3.0)),
    "t - 0.95 - 0.05 sin t": add(T, const(-0.95), scale(-0.05, sin(T))),
}


def test_constant_at_arbitrary_time():
    assert const(0.6).evaluate(17.3) == 0.6


def test_cosine_sum_at_zero():
    e = CORPUS_EXPRS["0.498 + 0.001 cos t"]
    assert e.evaluate(0.0) == pytest.approx(0.499, abs=1e-15)


def test_reciprocal():
    assert CORPUS_EXPRS["1/(4t)"].evaluate(2.0) == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("label", sorted(CORPUS_EXPRS))
def test_grammar_closure_roundtrip(label):
    e = CORPUS_EXPRS[label]
    blob = json.dumps(e.to_json())
    again = parse_expr(json.loads(blob))
    assert again == e
    assert again.to_json() == e.to_json()


@pytest.mark.parametrize("label", sorted(CORPUS_EXPRS))
def test_scalar_and_array_paths_agree(label):
    e = CORPUS_EXPRS[label]
    ts = np.linspace(0.3, 40.0, 57)
    arr = e.eval_array(ts)
    pointwise = np.array([e.evaluate(float(t)) for t in ts])
    np.testing.assert_allclose(arr, pointwise, rtol=1e-14, atol=1e-15)


def test_eval_deterministic_bit_identical():
    e = CORPUS_EXPRS["t - 0.2 |sin t|"]
    vals = {e.evaluate(12.34567) for _ in range(10)}
    assert len(vals) == 1


def test_division_by_zero_scalar():
    with pytest.raises(DomainError):
        CORPUS_EXPRS["1/(4t)"].evaluate(0.0)


def test_division_by_zero_array():
    with pytest.raises(DomainError):
        CORPUS_EXPRS["1/(4t)"].eval_array(np.array([1.0, 0.0, 2.0]))


def test_product_node():
    e = mul(const(2.0), T, const(3.0))
    assert e.evaluate(5.0) == 30.0


def test_parse_rejects_garbage():
    for bad in (["huh", 1], [], ["const"], ["scale", ["t"]], 7, ["t", 1]):
        with pytest.raises(ValueError):
            parse_expr(bad)


def test_json_examples_from_docs():
    e = parse_expr(["+", ["const", 0.498], ["*", ["const", 0.001], ["cos", ["t"]]]])
    assert e.evaluate(0.0) == pytest.approx(0.499, abs=1e-15)


# -- compiled evaluate against the recursive tree walk it replaced -----------------

def _walk(e, t):
    """Scalar evaluation as a recursive tree walk: the reference."""
    k = e.kind
    if k == "const":
        return e.value
    if k == "t":
        return t
    if k == "add":
        out = 0.0
        for c in e.args:
            out += _walk(c, t)
        return out
    if k == "mul":
        out = 1.0
        for c in e.args:
            out *= _walk(c, t)
        return out
    if k == "div":
        den = _walk(e.args[1], t)
        if den == 0.0:
            raise DomainError(f"division by zero at t={t}")
        return _walk(e.args[0], t) / den
    if k == "sin":
        return math.sin(_walk(e.args[0], t))
    if k == "cos":
        return math.cos(_walk(e.args[0], t))
    if k == "abs":
        return abs(_walk(e.args[0], t))
    return e.value * _walk(e.args[0], t)


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 1.0, -2.5, 0.5, 3.0]


def _random_tree(rng, depth):
    kinds = ["const", "t"] if depth == 0 else ["const", "t", "add", "mul", "div", "sin", "cos",
                                              "abs", "scale", "div", "add"]
    k = rng.choice(kinds)
    if k == "const":
        return const(rng.choice(SPECIAL + [rng.uniform(-4.0, 4.0)]))
    if k == "t":
        return T
    if k == "scale":
        return scale(rng.choice(SPECIAL), _random_tree(rng, depth - 1))
    if k in ("add", "mul"):
        return (add if k == "add" else mul)(*(_random_tree(rng, depth - 1)
                                              for _ in range(rng.randint(1, 3))))
    if k == "div":
        return div(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    return {"sin": sin, "cos": cos, "abs": absval}[k](_random_tree(rng, depth - 1))


def _outcome(fn, e, t):
    try:
        v = fn(e, t)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return float, "nan" if math.isnan(v) else struct.pack("<d", v)


def test_compiled_evaluate_matches_tree_walk_bitwise():
    rng = random.Random(20261018)
    ts = [-0.0, 0.0, 1e308, -1e308, math.nan, math.inf, 5e-324, 0.25, -3.7, 12.5]
    seen = set()
    for _ in range(1500):
        e = _random_tree(rng, rng.randint(0, 4))
        for t in ts:
            got, want = _outcome(lambda e, t: e.evaluate(t), e, t), _outcome(_walk, e, t)
            assert got == want, (e.to_json(), t)
            seen.add(want[0])
    assert seen == {float, DomainError, ValueError}  # math.sin(inf) raises ValueError


def test_compiled_evaluate_special_cases():
    assert struct.pack("<d", add(const(-0.0)).evaluate(1.0)) == struct.pack("<d", 0.0)
    assert math.isinf(const(math.inf).evaluate(0.0))
    assert math.isnan(mul(const(math.nan), T).evaluate(2.0))
    # the denominator is computed and checked before the numerator, whose
    # sin(inf) would raise ValueError
    e = div(sin(const(math.inf)), add(T, const(-1.0)))
    with pytest.raises(DomainError, match=r"division by zero at t=1.0"):
        e.evaluate(1.0)
    with pytest.raises(ValueError, match="math domain error"):
        e.evaluate(2.0)
    # one statement per node: deeper than the parser's 200 nested parentheses
    deep = T
    for _ in range(300):
        deep = sin(deep)
    assert deep.evaluate(0.7) == _walk(deep, 0.7)


def test_compiled_evaluate_is_cached_and_pickles():
    e = CORPUS_EXPRS["t - 0.2 |cos t|"]
    assert e.evaluate is e.evaluate
    # trees of one shape share one code object, each with its own constants
    f, g = (parse_expr(["+", ["t"], ["scale", c, ["abs", ["cos", ["t"]]]]]) for c in (0.5, -0.2))
    assert f.evaluate.__code__ is g.evaluate.__code__
    assert f.evaluate(3.0) != g.evaluate(3.0) == e.evaluate(3.0)
    again = pickle.loads(pickle.dumps(e))
    assert again == e and again.evaluate(3.0) == e.evaluate(3.0)


# -- eval_array against one numpy ufunc per node on full arrays --------------------

def _walk_array(e, ts):
    """Array evaluation with a fresh full array per node: the reference."""
    k = e.kind
    if k == "const":
        return np.full_like(ts, e.value, dtype=float)
    if k == "t":
        return np.asarray(ts, dtype=float).copy()
    if k in ("add", "mul"):
        out = _walk_array(e.args[0], ts)
        for c in e.args[1:]:
            out = out + _walk_array(c, ts) if k == "add" else out * _walk_array(c, ts)
        return out
    if k == "div":
        den = _walk_array(e.args[1], ts)
        bad = np.nonzero(den == 0.0)[0]
        if bad.size:
            raise DomainError(f"division by zero at t={float(np.asarray(ts)[bad[0]])}")
        return _walk_array(e.args[0], ts) / den
    if k in ("sin", "cos", "abs"):
        return {"sin": np.sin, "cos": np.cos, "abs": np.abs}[k](_walk_array(e.args[0], ts))
    return e.value * _walk_array(e.args[0], ts)


_VALUES = st.sampled_from(SPECIAL + [-math.nan]) | st.floats()  # and a NaN with its sign bit set
_CONSTS = st.builds(const, _VALUES)


def _nodes(children):
    some = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        st.builds(lambda xs: add(*xs), some),
        st.builds(lambda xs: mul(*xs), some),
        st.builds(div, children, children),
        st.builds(div, children, _CONSTS),
        st.builds(sin, children), st.builds(cos, children), st.builds(absval, children),
        st.builds(scale, _VALUES, children),
        st.builds(lambda v, w, c: scale(v, scale(w, c)), _VALUES, _VALUES, children),
        st.builds(lambda c: add(c, c), children),           # a repeated subtree
        st.builds(lambda c: mul(c, sin(c), c), children),
    )


_CONST_TREES = st.recursive(_CONSTS, _nodes, max_leaves=4)
_TREES = st.recursive(st.one_of(_CONSTS, st.just(T), _CONST_TREES), _nodes, max_leaves=10)
_FLOATS = st.lists(st.sampled_from(SPECIAL) | st.floats(), max_size=40)
_TIMES = st.one_of(
    _FLOATS.map(lambda xs: np.array(xs, dtype=float)),
    _FLOATS,                                                 # a list
    st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=40).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.integers(0, 300).map(lambda n: np.linspace(-7.0, 7.0, n)),  # past the SIMD widths
)


def _array_outcome(fn, e, ts):
    """The result and, for comparison, its dtype, shape and bits (NaN
    payloads and signed zeros count), or None and the error."""
    try:
        v = fn(e, ts)
    except ValueError as exc:
        return None, (type(exc), str(exc))
    return v, (v.dtype, v.shape, v.view(np.int64).tolist())


@settings(max_examples=400, deadline=None)
@given(e=_TREES, ts=_TIMES)
# a sum of two NaNs of opposite sign on one element
@example(e=parse_expr(["+", ["/", ["t"], ["const", -math.nan]], ["/", ["t"], ["+", ["const", math.nan]]]]),
         ts=np.array([0.0]))
def test_eval_array_matches_one_ufunc_per_node(e, ts):
    before = np.array(ts).tobytes()
    with np.errstate(all="ignore"):
        got, outcome = _array_outcome(lambda e, ts: e.eval_array(ts), e, ts)
        assert outcome == _array_outcome(_walk_array, e, ts)[1], e.to_json()
    assert np.array(ts).tobytes() == before
    assert got is None or not np.shares_memory(got, ts)


def test_eval_array_of_deep_chains_matches_one_ufunc_per_node():
    # one Python frame per tree level, as the parser and the compiler use
    ts = np.linspace(-3.0, 3.0, 11)
    for wrap in (lambda e: scale(0.999, e), lambda e: add(e, const(0.5)),
                 lambda e: mul(const(1.001), e), lambda e: div(e, const(1.5))):
        deep = T
        for _ in range(600):
            deep = wrap(deep)
        assert deep.eval_array(ts).view(np.int64).tolist() == _walk_array(deep, ts).view(np.int64).tolist()


def test_eval_array_of_a_leaf_is_a_fresh_array():
    ts = np.linspace(0.0, 1.0, 5)
    for e, want in ((T, ts), (add(T), ts), (mul(T), ts), (const(0.5), np.full(5, 0.5))):
        out = e.eval_array(ts)
        assert np.array_equal(out, want) and not np.shares_memory(out, ts)
        out[:] = 9.0
    assert np.array_equal(ts, np.linspace(0.0, 1.0, 5))
