"""Stability analysis for scalar neutral delay differential equations.

Decides uniform exponential / asymptotic stability of
(x(t) - a(t) x(g(t)))' = -b(t) x(h(t)) through explicit coefficient tests,
and cross-validates every verdict with a direct method-of-steps integrator.
"""

from .eqspec import AssumptionCheck, EquationSpec, SpecError, ValidationReport, load_spec, save_spec, validate
from .expr import DomainError, Expr, parse_expr
from .params import (
    ParameterSummary,
    QuadratureError,
    SummaryError,
    integral_summary,
    summarize,
)
from .criteria import (
    AlphaInterval,
    CriterionVerdict,
    MissingLimit,
    NotConstant,
    NotNonDelayed,
    alpha_interval_theorem1,
    best_verdict,
    check_corollary1,
    check_corollary2,
    check_corollary3,
    check_corollary5,
    check_corollary_main,
    check_prop_tang_zou,
    check_prop_yu,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    tau0,
    tau_bar,
)
from .series import (
    SampledFunction,
    TruncationCert,
    apply_S,
    big_B,
    neumann_inverse,
)
from .simulate import (
    DecayEstimate,
    FixedPointDivergence,
    PositivityViolation,
    SeededHistory,
    Trajectory,
    decay_rate,
    fundamental,
    integrate,
    lemma4_check,
    lemma5_condition,
)
from .report import (
    ExampleReport,
    SweepRow,
    compare_baselines,
    corpus_dir,
    load_corpus_spec,
    reproduce_examples,
    sweep_alpha_r,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaInterval", "AssumptionCheck", "CriterionVerdict", "DecayEstimate",
    "DomainError", "EquationSpec", "ExampleReport", "Expr",
    "FixedPointDivergence", "MissingLimit", "NotConstant",
    "NotNonDelayed", "ParameterSummary", "PositivityViolation",
    "QuadratureError", "SampledFunction", "SeededHistory", "SpecError",
    "SummaryError", "SweepRow", "Trajectory", "TruncationCert",
    "ValidationReport", "alpha_interval_theorem1", "apply_S", "best_verdict",
    "big_B", "check_corollary1", "check_corollary2", "check_corollary3",
    "check_corollary5", "check_corollary_main", "check_prop_tang_zou",
    "check_prop_yu", "check_theorem1", "check_theorem2", "check_theorem3",
    "compare_baselines", "corpus_dir", "decay_rate", "fundamental",
    "integral_summary", "integrate", "lemma4_check", "lemma5_condition",
    "load_corpus_spec", "load_spec", "neumann_inverse", "parse_expr",
    "reproduce_examples", "save_spec", "summarize", "sweep_alpha_r", "tau0",
    "tau_bar", "validate",
]
