"""Parameter sweeps, benchmark reproduction reports, and CSV emission.

The bundled corpus holds five benchmark equations with reference values
from the published stability analysis of each equation.  Reproduction
reports recompute every reference quantity, flag matches and mismatches
(mismatching reference figures are reported with our derived replacement,
never overwritten), and cross-check the analytic verdict with a direct
simulation.  Known mismatches can be waived in the bundled configuration;
the CLI exits nonzero on any unwaived mismatch.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

from . import criteria
from .criteria import CriterionVerdict
from .eqspec import EquationSpec, Extrema, load_spec
from .expr import scale
from .params import B_LINEAR, ParameterSummary, integral_summary, summarize
from .simulate import DecayEstimate, decay_rate, integrate

CORPUS_ENV = "NDSTAB_CORPUS_DIR"

_FMT = "{:.12g}"  # 12 significant digits in every CSV cell


def corpus_dir() -> Path:
    """Bundled corpus location, overridable via NDSTAB_CORPUS_DIR."""
    env = os.environ.get(CORPUS_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "corpus"


def load_corpus_spec(example_id: str) -> EquationSpec:
    return load_spec(corpus_dir() / f"{example_id}.json")


def load_waivers() -> set[str]:
    path = corpus_dir() / "waivers.json"
    if not path.exists():
        return set()
    data = json.loads(path.read_text())
    return set(data.get("waived_mismatches", []))


def scale_b(spec: EquationSpec, r: float) -> EquationSpec:
    """Instantiate a b-linear family at amplitude r (b and its bounds scale)."""
    ov = {key: v * r if key in B_LINEAR else v for key, v in spec.overrides.items()}
    return replace(spec, b=scale(r, spec.b), overrides=ov)


# -- sweeps ---------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """Feasibility band [r_lower, r_upper) of the swept coefficient amplitude
    at one alpha; ``feasible`` says whether it is nonempty."""

    alpha: float
    r_lower: float
    r_upper: float
    feasible: bool


def sweep_alpha_r(
    spec: EquationSpec,
    alpha_grid,
    summary: ParameterSummary | None = None,
) -> list[SweepRow]:
    """Feasibility bands of the alpha-parameterized main test over alpha.

    ``spec`` holds the coefficient family at unit amplitude (b enters
    linearly).  One row per alpha, in grid order.
    """
    if summary is None:
        summary = summarize(spec)
    rows: list[SweepRow] = []
    for a in alpha_grid:
        a = float(a)
        lo, hi = criteria.THEOREM1.r_band(summary, a)
        rows.append(SweepRow(a, lo, hi, lo < hi))
    return rows


def write_sweep_csv(rows, fh) -> None:
    """Figure-style CSV: alpha, r_lower, r_upper (deterministic layout)."""
    fh.write("alpha,r_lower,r_upper\r\n")
    for row in rows:
        fh.write(f"{_FMT.format(row.alpha)},{_FMT.format(row.r_lower)},{_FMT.format(row.r_upper)}\r\n")


# -- benchmark reproduction -------------------------------------------------------

@dataclass(frozen=True)
class QuantityCheck:
    """One reference value versus its recomputation."""

    name: str
    quoted: float
    derived: float
    abs_tol: float
    method: str

    @property
    def match(self) -> bool:
        return abs(self.derived - self.quoted) <= self.abs_tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "quoted": self.quoted,
            "derived": self.derived,
            "abs_tol": self.abs_tol,
            "method": self.method,
            "match": self.match,
        }


@dataclass(frozen=True)
class ClaimCheck:
    """One boolean statement from the reference analysis."""

    name: str
    holds: bool
    method: str = "closed-form"

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "method": self.method}


@dataclass(frozen=True)
class ExampleReport:
    example_id: str
    name: str
    quantities: tuple[QuantityCheck, ...]
    claims: tuple[ClaimCheck, ...]
    verdicts: tuple[CriterionVerdict, ...]
    simulation: DecayEstimate | None
    simulation_note: str
    notes: tuple[str, ...] = ()

    def mismatches(self) -> list[str]:
        out = [f"{self.example_id}:{q.name}" for q in self.quantities if not q.match]
        out += [f"{self.example_id}:{c.name}" for c in self.claims if not c.holds]
        return out

    def to_dict(self) -> dict:
        return {
            "id": self.example_id,
            "name": self.name,
            "quantities": [q.to_dict() for q in self.quantities],
            "claims": [c.to_dict() for c in self.claims],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "simulation": self.simulation.to_dict() if self.simulation else None,
            "simulation_note": self.simulation_note,
            "notes": list(self.notes),
            "mismatches": self.mismatches(),
        }


EXAMPLE_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5")

# half a unit in the last printed decimal of each reference figure, except
# where a figure is compared at the precision of the inequality it appears in
_Q = QuantityCheck


def _report_ex1(spec, summary):
    interval = criteria.alpha_interval_theorem1(summary)
    c3 = {a: criteria.check_corollary3(summary, a) for a in (0.0, 0.5, 1.0)}
    yu = criteria.check_prop_yu(summary, summary.limsup_int_b)
    tz = criteria.check_prop_tang_zou(summary, summary.limsup_int_b)
    quantities = (
        _Q("alpha_interval_lower", 0.272, interval.lower, 5e-4, "closed-form"),
        _Q("alpha_interval_upper", 0.951, interval.upper, 5e-4, "closed-form"),
    )
    claims = (
        ClaimCheck("alpha_interval_open_closed", interval.lower_open and not interval.upper_open),
        ClaimCheck("limiting_lag_test_holds_at_alpha_0.5", c3[0.5].satisfied),
        ClaimCheck("limiting_lag_test_fails_at_alpha_0", not c3[0.0].satisfied),
        ClaimCheck("limiting_lag_test_fails_at_alpha_1", not c3[1.0].satisfied),
        ClaimCheck("baseline_3_2_not_applicable", not yu.applicable),
        ClaimCheck("baseline_sqrt_not_applicable", not tz.applicable),
    )
    verdicts = tuple(criteria.best_verdict(spec, summary))
    return quantities, claims, verdicts, ()


def _report_ex2(spec, summary):
    rows = {a: sweep_alpha_r(spec, [a], summary=summary)[0] for a in (0.0, 0.5, 1.0)}
    grid = _grid(spec)
    quantities = (
        _Q("r_upper_alpha_1", 0.168, rows[1.0].r_upper, 5e-4, "closed-form"),
        _Q("norm_a_grid", 0.6, grid["norm_a"], 1e-3, "grid-estimate"),
        _Q("inf_a_grid", 0.4, grid["inf_a"], 1e-3, "grid-estimate"),
    )
    claims = (
        ClaimCheck("band_nonempty_for_every_alpha", all(r.feasible for r in rows.values())),
        ClaimCheck("main_test_holds_at_r_0.15_alpha_1",
                   criteria.check_theorem1(summary.scale_b(0.15), 1.0).satisfied),
        ClaimCheck("main_test_fails_at_r_0.20_alpha_1",
                   not criteria.check_theorem1(summary.scale_b(0.20), 1.0).satisfied),
    )
    verdicts = tuple(criteria.best_verdict(scale_b(spec, 0.15), summary.scale_b(0.15)))
    return quantities, claims, verdicts, ()


def _report_ex3(spec, summary):
    # ex3's family is stored at unit amplitude, so these are the sweep bands
    _, r_b_upper = criteria.THEOREM1.r_band(summary, 0.0)           # alpha = 0 bound
    r_a_lower, r_a_upper = criteria.THEOREM1.r_band(summary, 1.0)   # alpha = 1 gate and bound
    yu_thr = criteria.yu_threshold(summary.norm_a)
    tz_thr = criteria.tang_zou_threshold(summary.norm_a)
    grid = _grid(spec)
    quantities = (
        _Q("norm_a_grid", 0.499, grid["norm_a"], 1e-3, "grid-estimate"),
        _Q("inf_a_grid", 0.497, grid["inf_a"], 1e-3, "grid-estimate"),
        _Q("part_b_r_upper", 0.0797, r_b_upper, 5e-5, "closed-form"),
        # the reference band 0.059 < . < 0.109 does not recompute from the
        # alpha = 0 part it is attributed to; derived replacements below,
        # see notes
        _Q("r_band_upper", 0.109, r_b_upper, 5e-4, "closed-form"),
        _Q("r_band_lower", 0.059, 0.0, 5e-4, "closed-form"),
        _Q("baseline_sqrt_threshold", 0.0632, tz_thr, 5e-5, "closed-form"),
        _Q("baseline_3_2_threshold", 0.002, yu_thr, 5e-4, "closed-form"),
    )
    claims = (
        ClaimCheck("part_b_holds_below_its_bound",
                   criteria.check_theorem1(summary.scale_b(0.9 * r_b_upper), 0.0).satisfied),
        ClaimCheck("sharper_than_baselines", r_b_upper * (summary.limsup_int_b or 0.0) > tz_thr),
    )
    notes = (
        "reference figures 0.059 and 0.109 are reported on the integrated-b scale but only "
        f"recompute, on the coefficient scale, as the alpha=1 gate and bound "
        f"({r_a_lower:.6g} <= r < {r_a_upper:.6g}); the derived alpha=0 bound is {r_b_upper:.6g}",
    )
    verdicts = tuple(criteria.best_verdict(scale_b(spec, 0.05), summary.scale_b(0.05)))
    return quantities, claims, verdicts, notes


def _report_ex4(spec, summary):
    tb = criteria.tau_bar(summary)
    lhs = criteria.THEOREM2.lhs(summary)
    alpha_thr = criteria.THEOREM2.alpha_interval(summary).lower
    rhs_045 = criteria.THEOREM2.rhs(summary, 0.45)
    t2 = criteria.check_theorem2(summary, 0.45)
    t1 = criteria.check_theorem1(summary, 0.45)
    c5a, c5b = criteria.check_corollary5(summary)
    quantities = (
        _Q("norm_a_grid", 0.6, _grid(spec)["norm_a"], 1e-3, "grid-estimate"),
        _Q("sign_split_lhs", 0.4125, lhs, 1e-9, "closed-form"),
        _Q("alpha_threshold", 0.085, alpha_thr, 5e-4, "closed-form"),
        _Q("tau_bar", 0.98, tb, 5e-3, "closed-form"),
        # the reference right side at alpha = 0.45 does not recompute from
        # the displayed inequality; derived replacement reported
        _Q("rhs_at_alpha_0.45", 0.4147, rhs_045, 5e-5, "closed-form"),
    )
    claims = (
        ClaimCheck("sign_split_test_holds_at_alpha_0.45", t2.satisfied),
        ClaimCheck("main_test_not_applicable", not t1.applicable),
        ClaimCheck("alpha_1_endpoint_gate_fails", not c5a.applicable),
        ClaimCheck("alpha_0_endpoint_fails", not c5b.satisfied),
    )
    verdicts = tuple(criteria.best_verdict(spec, summary))
    return quantities, claims, verdicts, ()


def _report_ex5(spec, summary):
    summary = integral_summary(spec, summary)
    lhs = criteria.THEOREM3.lhs(summary)
    rhs_1 = criteria.THEOREM3.rhs(summary, 1.0)
    t3 = {a: criteria.check_theorem3(summary, a) for a in (1.0, 0.36, 0.30)}
    quantities = (
        _Q("tilde_sigma", 0.25 * math.log(3.0), summary.tilde_sigma, 1e-8, "quadrature"),
        _Q("tilde_tau", 0.25 * math.log(2.0), summary.tilde_tau, 1e-8, "quadrature"),
        _Q("tilde_delta", 0.25 * math.log(2.0), summary.tilde_delta, 1e-8, "quadrature"),
        _Q("tilde_tau0", 0.1655, summary.tilde_tau0, 5e-5, "closed-form"),
        _Q("integral_lhs", 0.509, lhs, 5e-4, "quadrature"),
        # the reference right side at alpha = 1 is printed at the precision
        # of the displayed inequality; derived replacement reported
        _Q("rhs_at_alpha_1", 0.6, rhs_1, 5e-3, "closed-form"),
    )
    claims = (
        ClaimCheck("integral_test_holds_at_alpha_1", t3[1.0].satisfied),
        ClaimCheck("integral_test_holds_at_alpha_0.36", t3[0.36].satisfied),
        ClaimCheck("integral_test_fails_at_alpha_0.30", not t3[0.30].satisfied),
        ClaimCheck("gate_open_for_any_alpha_below_1", summary.tilde_tau0 <= summary.tilde_delta),
    )
    verdicts = tuple(criteria.best_verdict(spec, summary))
    return quantities, claims, verdicts, ()


_BUILDERS = {
    "ex1": (_report_ex1, 1.0),
    "ex2": (_report_ex2, 0.15),
    "ex3": (_report_ex3, 0.05),
    "ex4": (_report_ex4, 1.0),
    "ex5": (_report_ex5, 1.0),
}


def _grid(spec: EquationSpec) -> dict:
    """The grid extrema of a (norm_a, inf_a, norm_a_plus, norm_a_minus) on
    20,001 points, whatever the overrides."""
    extrema = Extrema(spec, 20001)
    extrema.sample(("a",))
    return extrema.values


_SIM_SPAN = 300.0
_SIM_STEP = 1e-3


def reproduce_examples(ids=None, with_simulation: bool = True) -> list[ExampleReport]:
    """Build one reproduction report per bundled benchmark equation."""
    out = []
    for ex_id in ids or EXAMPLE_IDS:
        if ex_id not in _BUILDERS:
            raise ValueError(f"unknown example id {ex_id!r} (have {', '.join(EXAMPLE_IDS)})")
        spec = load_corpus_spec(ex_id)
        summary = summarize(spec)
        builder, rep_r = _BUILDERS[ex_id]

        sim = None
        sim_note = "simulation skipped"
        if with_simulation:
            sim_spec = scale_b(spec, rep_r) if rep_r != 1.0 else spec
            traj = integrate(sim_spec, 1.0, spec.t0 + _SIM_SPAN, _SIM_STEP)
            sim = decay_rate(traj, warmup=0.0, window=_SIM_SPAN / 10.0)
            sim_note = (f"representative point (amplitude {rep_r:g}), constant history, "
                        f"span {_SIM_SPAN:g}, step {_SIM_STEP:g}")

        quantities, claims, verdicts, notes = builder(spec, summary)
        out.append(ExampleReport(
            example_id=ex_id, name=spec.name,
            quantities=quantities, claims=claims, verdicts=verdicts,
            simulation=sim, simulation_note=sim_note, notes=notes,
        ))
    return out


def unwaived_mismatches(reports, waived: set[str]) -> list[str]:
    out = []
    for rep in reports:
        out.extend(m for m in rep.mismatches() if m not in waived)
    return out


# -- baseline comparison -----------------------------------------------------------

def compare_baselines(spec: EquationSpec, summary: ParameterSummary | None = None) -> list[dict]:
    """Side-by-side thresholds for one equation: the classical constant-delay
    baselines (on the integrated-b scale) and this library's endpoint tests
    (on the coefficient scale, with the integrated-scale equivalent where a
    limsup of the b-integral is available)."""
    if summary is None:
        summary = summarize(spec)
    rows: list[dict] = []

    def row(criterion, unit, threshold, note):
        rows.append({"criterion": criterion, "scale": unit, "threshold": threshold,
                     "applicable": threshold is not None, "note": note})

    yu_thr = criteria.yu_threshold(summary.norm_a)
    row("baseline_3_2", "limsup int b", yu_thr if yu_thr > 0.0 else None,
        "" if yu_thr > 0.0 else f"threshold not positive at A0={summary.norm_a:g}")
    tz_thr = criteria.tang_zou_threshold(summary.norm_a)
    row("baseline_sqrt", "limsup int b", tz_thr,
        "" if tz_thr is not None else f"A0={summary.norm_a:g} >= 1/2 out of range")

    if summary.inf_a > 0.0:
        _, b_upper = criteria.THEOREM1.r_band(summary, 0.0)
        r_gate, a_upper = criteria.THEOREM1.r_band(summary, 1.0)
        if b_upper == math.inf:
            # tau = sigma = 0: the left-hand side vanishes, and so does delta
            row("corollary_main_b", "sup b", None,
                "no finite threshold: tau = sigma = 0 (holds for every sup b)")
            row("corollary_main_a", "sup b", None,
                "no finite threshold: tau = sigma = 0; gate requires delta > 0")
            return rows
        # the bands are in amplitudes r of b, the thresholds in sup b = r ||b||
        limsup = summary.limsup_int_b
        row("corollary_main_b", "sup b", b_upper * summary.norm_b,
            "" if limsup is None else f"equivalent limsup-int-b threshold {b_upper * limsup:.6g}")
        row("corollary_main_a", "sup b", a_upper * summary.norm_b,
            f"requires sup b >= {r_gate * summary.norm_b:.6g} (lag-scale gate)"
            if summary.delta > 0.0 else "gate requires delta > 0")
    else:
        row("corollary_main_b", "sup b", None, "a(t) >= a0 > 0 fails")
    return rows
