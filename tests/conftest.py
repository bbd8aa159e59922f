import numpy as np
import pytest

from ndstab.eqspec import EquationSpec, Extrema
from ndstab.params import ParameterSummary, summarize
from ndstab.report import EXAMPLE_IDS, load_corpus_spec


@pytest.fixture(scope="session")
def corpus():
    return {ex_id: load_corpus_spec(ex_id) for ex_id in EXAMPLE_IDS}


@pytest.fixture(scope="session")
def ex1(corpus):
    return corpus["ex1"]


@pytest.fixture(scope="session")
def ex2(corpus):
    return corpus["ex2"]


@pytest.fixture(scope="session")
def ex3(corpus):
    return corpus["ex3"]


@pytest.fixture(scope="session")
def ex4(corpus):
    return corpus["ex4"]


@pytest.fixture(scope="session")
def ex5(corpus):
    return corpus["ex5"]


def bare(spec: EquationSpec) -> EquationSpec:
    """Copy of a spec with analytic overrides stripped (forces grid estimates)."""
    return EquationSpec(a=spec.a, b=spec.b, g=spec.g, h=spec.h,
                        t0=spec.t0, horizon=spec.horizon, f=spec.f, name=spec.name)


def summarize_at(spec: EquationSpec, points: int) -> ParameterSummary:
    """The summary of a spec on its grid of ``points`` points."""
    return summarize(spec, Extrema(spec, points))


def random_summary(rng: np.random.Generator) -> ParameterSummary:
    """Random internally-consistent parameter summary for property tests."""
    inf_a = rng.uniform(-0.9, 0.9)
    sup_a = rng.uniform(inf_a, 0.9)
    inf_b = rng.uniform(0.01, 1.5)
    tau = rng.uniform(0.0, 2.0)
    return ParameterSummary(
        norm_a=max(abs(inf_a), abs(sup_a)),
        inf_a=inf_a,
        norm_a_plus=max(sup_a, 0.0),
        norm_a_minus=max(-inf_a, 0.0),
        norm_b=rng.uniform(inf_b, 2.0),
        inf_b=inf_b,
        sigma=rng.uniform(0.0, 2.0),
        tau=tau,
        delta=rng.uniform(0.0, tau) if tau > 0.0 else 0.0,
    )
