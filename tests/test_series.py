import math

import numpy as np
import pytest

from ndstab.eqspec import EquationSpec
from ndstab.expr import add, const, scale, sin, tvar
from ndstab.params import summarize
from ndstab.series import (
    TAIL_TOL,
    SampledFunction,
    _terms_for,
    apply_S,
    big_B,
    neumann_inverse,
)

T = tvar()


def const_spec(a=0.5, g=None, b=1.0, h=None, t0=0.0, horizon=50.0, **ov):
    return EquationSpec(a=const(a), b=const(b), g=g if g is not None else T,
                        h=h if h is not None else T, t0=t0, horizon=horizon,
                        overrides=ov)


def sampled(fn, t0, t1, n=513):
    ts = np.linspace(t0, t1, n)
    return SampledFunction(t0, ts[1] - ts[0], np.asarray([fn(t) for t in ts], dtype=float))


# -- the shift-and-scale operator -----------------------------------------------

def test_apply_S_identity_delay():
    spec = const_spec(a=0.5)
    y = sampled(lambda t: 1.0, 0.0, 10.0)
    out = apply_S(spec, y)
    np.testing.assert_allclose(out.values, 0.5, rtol=0, atol=1e-15)


def test_apply_S_zero_before_t0():
    spec = const_spec(a=0.5, g=add(T, const(-2.0)), t0=0.0)
    y = sampled(lambda t: 1.0, 0.0, 10.0)
    out = apply_S(spec, y)
    ts = y.times()
    assert np.all(out.values[ts < 2.0 - 1e-12] == 0.0)
    np.testing.assert_allclose(out.values[ts >= 2.0], 0.5, atol=1e-15)


def test_apply_S_shifted_ramp_oracle():
    c, lag = 0.8, 1.5
    spec = const_spec(a=c, g=add(T, const(-lag)))
    ramp = lambda t: max(0.0, t - 3.0)
    y = sampled(ramp, 0.0, 20.0, 2001)
    out = apply_S(spec, y)
    ts = y.times()
    expect = np.array([c * ramp(t - lag) if t - lag >= 0.0 else 0.0 for t in ts])
    np.testing.assert_allclose(out.values, expect, atol=1e-9)


# -- geometric inverse ------------------------------------------------------------

def test_neumann_geometric_sum():
    spec = const_spec(a=0.5)
    y = sampled(lambda t: 1.0, 0.0, 10.0)
    out, cert = neumann_inverse(spec, y)
    np.testing.assert_allclose(out.values, 2.0, atol=1e-9)
    assert 0.5 ** cert.terms * 1.0 / 0.5 <= TAIL_TOL


def test_neumann_term_count_matches_formula():
    spec = const_spec(a=0.6)
    y = sampled(lambda t: 1.0, 0.0, 5.0, 65)
    _, cert = neumann_inverse(spec, y)
    assert cert.terms == 47  # smallest J with 0.6^J / 0.4 <= 1e-10
    assert cert.tail_bound <= TAIL_TOL == cert.tol
    assert _terms_for(0.6, 1.0, 1e-12) == 56  # and with 0.6^J / 0.4 <= 1e-12


@pytest.mark.parametrize("tol", [1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3])
def test_terms_for_is_the_least_count_that_meets_the_tolerance(tol):
    rng = np.random.default_rng(11)
    for ratio, scale in zip(rng.uniform(0.01, 0.99, 200), 10.0 ** rng.uniform(-3.0, 3.0, 200)):
        terms = _terms_for(ratio, scale, tol)
        assert ratio ** terms * scale / (1.0 - ratio) <= tol
        assert terms == 1 or ratio ** (terms - 1) * scale / (1.0 - ratio) > tol, (ratio, scale)
    # a tolerance above the whole sum, or a vanishing ratio or scale, keeps one term
    assert _terms_for(0.6, 1.0, 10.0) == _terms_for(0.0, 1.0, tol) == _terms_for(0.6, 0.0, tol) == 1


def test_neumann_inverse_property():
    # (E - S)(inverse y) == y on the grid, up to tol
    spec = const_spec(a=0.7, g=add(T, const(-0.9)))
    y = sampled(lambda t: math.sin(0.7 * t) + 1.1, 0.0, 30.0, 3001)
    inv, cert = neumann_inverse(spec, y)
    back = inv.values - apply_S(spec, inv).values
    np.testing.assert_allclose(back, y.values, atol=5e-10)


def test_neumann_norm_bound_200_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a0 = rng.uniform(0.05, 0.9)
        lag0 = rng.uniform(0.0, 2.0)
        wob = rng.uniform(0.0, min(lag0, 0.5))
        spec = EquationSpec(
            a=scale(a0, sin(scale(rng.uniform(0.3, 2.0), T))) if rng.random() < 0.5 else const(a0),
            b=const(1.0),
            g=add(T, const(-lag0), scale(wob, sin(T))) if wob > 0 else add(T, const(-lag0)),
            h=T, t0=0.0, horizon=40.0)
        amp = rng.uniform(0.1, 3.0)
        ph = rng.uniform(0.0, 6.0)
        y = sampled(lambda t: amp * math.cos(t + ph), 0.0, 12.0, 257)
        out, cert = neumann_inverse(spec, y)
        norm_a = float(np.max(np.abs(spec.a.eval_array(y.times()))))
        assert out.sup_norm() <= y.sup_norm() / (1.0 - norm_a) + TAIL_TOL + 1e-12


def test_tail_certificate_soundness():
    # adding 10 more terms moves the value by less than the certified tail
    spec = const_spec(a=0.6, g=add(T, const(-0.5)))
    y = sampled(lambda t: math.sin(t), 0.0, 20.0, 1001)
    out, cert = neumann_inverse(spec, y)
    extra = y
    total = y.values.copy()
    for _ in range(cert.terms + 10 - 1):
        extra = apply_S(spec, extra)
        total += extra.values
    assert float(np.max(np.abs(total - out.values))) < cert.tail_bound


def _reference_apply_S(spec, y):
    """S y, evaluating g and a and interpolating y at g on every call."""
    ts = y.times()
    gv, av = spec.g.eval_array(ts), spec.a.eval_array(ts)
    vals = np.zeros_like(av)
    keep = gv >= spec.t0
    if np.any(keep):
        vals[keep] = av[keep] * y.eval_array(gv[keep])
    return SampledFunction(y.t0, y.step, vals)


def _reference_neumann(spec, y, terms):
    """neumann_inverse's sum of the given number of terms, one S y per term."""
    total, term = y.values.copy(), y
    for _ in range(terms - 1):
        term = _reference_apply_S(spec, term)
        total += term.values
    return total


@pytest.mark.parametrize("case", ["corpus", "sign_changing_a", "grid_after_t0", "one_term"])
def test_neumann_inverse_matches_one_apply_S_per_term(corpus, case):
    # on a grid that starts after t0, g(t) lies between them at some points
    if case == "corpus":
        for spec in corpus.values():
            ts = spec.t0 + 0.01 * np.arange(2001)
            y = SampledFunction(spec.t0, 0.01, np.cos(ts))
            out, cert = neumann_inverse(spec, y)
            assert np.array_equal(out.values, _reference_neumann(spec, y, cert.terms))
            assert np.array_equal(apply_S(spec, y).values, _reference_apply_S(spec, y).values)
        return
    # a = 0 keeps one term
    a = const(0.0) if case == "one_term" else scale(0.6, sin(T))
    spec = EquationSpec(a=a, b=const(1.0), g=add(T, const(-0.7)), h=T, t0=0.0, horizon=50.0)
    y = sampled(lambda t: math.cos(3.0 * t) - 0.5, 2.0 if case == "grid_after_t0" else 0.0, 20.0, 1001)
    out, cert = neumann_inverse(spec, y)
    assert (cert.terms == 1) == (case == "one_term")
    assert np.array_equal(out.values, _reference_neumann(spec, y, cert.terms))


def test_neumann_inverse_query_above_the_grid_raises_from_the_second_term():
    # g(t) = t + 1 reads past the grid's end: apply_S raises, and so does
    # neumann_inverse, but only when it builds a second term (a = 0 keeps one)
    spec = const_spec(a=0.5, g=add(T, const(1.0)))
    y = sampled(lambda t: 1.0, 0.0, 10.0)
    with pytest.raises(ValueError, match="query above the sampled domain"):
        apply_S(spec, y)
    with pytest.raises(ValueError, match="query above the sampled domain"):
        neumann_inverse(spec, y)
    out, cert = neumann_inverse(const_spec(a=0.0, g=add(T, const(1.0))), y)
    assert cert.terms == 1 and np.array_equal(out.values, y.values)


# -- series coefficient -----------------------------------------------------------

def test_big_B_geometric():
    spec = const_spec(a=0.5, b=1.0)
    val, cert = big_B(spec, 5.0, summarize(spec))
    assert val == pytest.approx(2.0, abs=1e-9)


def test_big_B_band_ex2(ex2):
    from ndstab.report import scale_b
    spec = scale_b(ex2, 0.1)
    s = summarize(spec)
    lo, hi = 0.08 / 0.6, 0.1 / 0.4
    val, cert = big_B(spec, 20.0, s)
    assert lo - 1e-9 <= val <= hi + 1e-9


def test_big_B_band_everywhere_on_corpus(ex1, ex2):
    from ndstab.report import scale_b
    for spec in (ex1, scale_b(ex2, 0.1)):
        s = summarize(spec)
        lo = s.inf_b / (1.0 - s.inf_a)
        hi = s.norm_b / (1.0 - s.norm_a)
        for t in np.linspace(spec.t0 + 1.0, spec.t0 + 50.0, 23):
            val, _ = big_B(spec, float(t), s)
            assert lo - 1e-8 <= val <= hi + 1e-8


def test_big_B_positive_part_empty_chain():
    # a <= 0 everywhere: a+ vanishes, only the empty product survives
    spec = EquationSpec(a=scale(-0.4, add(const(1.0), scale(0.5, sin(T)))),
                        b=const(0.9), g=add(T, const(-1.0)), h=add(T, const(-0.5)),
                        t0=0.0, horizon=50.0)
    val, cert = big_B(spec, 10.0, summarize(spec), positive_part=True)
    assert val == pytest.approx(0.9, abs=1e-12)
    assert cert.terms >= 1


def _direct_B(spec, t, summary, terms, positive_part):
    """b(t) sum_{j < terms} prod_{k<j} a(h(g^[k](t))), with big_B's conventions below t0."""
    total, product, u = 0.0, 1.0, t
    for _ in range(terms):
        total += product
        arg = spec.h.evaluate(u)
        factor = spec.a.evaluate(arg) if arg >= spec.t0 else (0.0 if positive_part else summary.inf_a)
        product *= max(factor, 0.0) if positive_part else factor
        u = spec.g.evaluate(u)
    return spec.b.evaluate(t) * total


def test_big_B_tail_soundness(ex1):
    # the terms big_B drops add up to at most the certified tail
    s = summarize(ex1)
    for positive_part in (False, True):
        for t in (5.0, 30.0, 77.7):
            value, cert = big_B(ex1, t, s, positive_part=positive_part)
            assert cert.tail_bound <= TAIL_TOL
            assert value == _direct_B(ex1, t, s, cert.terms, positive_part)
            assert abs(_direct_B(ex1, t, s, cert.terms + 2000, positive_part) - value) <= cert.tail_bound


def test_big_B_requires_positive_a(ex4):
    s = summarize(ex4)
    with pytest.raises(ValueError):
        big_B(ex4, 5.0, summary=s)

