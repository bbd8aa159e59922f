"""Command-line front end.

Subcommands: ``check`` (run every stability test on a spec), ``simulate``
(trajectory CSV), ``sweep`` (feasibility-band CSV over alpha), ``examples``
(bundled benchmark reproduction), ``compare`` (baseline threshold table),
``fundamental`` (fundamental-function trajectory CSV).

Exit codes: 0 on success, 1 when a benchmark reproduction has unwaived
mismatches, 2 on a specification parse or validation failure, including
override values or coefficients that the analysis rejects.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import criteria, report
from .criteria import MissingLimit
from .eqspec import SpecError, load_spec, validate
from .expr import DomainError, sin, tvar
from .params import QuadratureError, SummaryError, summarize
from .simulate import SeededHistory, fundamental, integrate

PROG = "ndstab"
MAX_ALPHA_POINTS = 100_001  # the most alphas an --alpha-grid may hold (0:1:1e-5)
# The most steps that simulate and fundamental may take: 300 time units at
# step 3e-5, 33 times the 300,000 of the longest bundled run.  The
# trajectory holds about 24 bytes a step.
MAX_STEPS = 10_000_000
# The most points that check --grid may sample: 100 times the default.
MAX_GRID_POINTS = 10_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Stability tests for scalar neutral delay differential equations, "
                    "cross-checked by direct numerical integration.",
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for pseudo-random histories (default 42)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("check", help="run every stability test on a spec file")
    p.add_argument("spec", help="path to a JSON equation spec")
    p.add_argument("--alpha", default="auto",
                   help="'auto' (optimize per test) or a fixed value in [0,1]")
    p.add_argument("--grid", type=int, default=100_000,
                   help="validation/summary grid points (default 100000)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("simulate", help="integrate a spec and write a trajectory CSV")
    p.add_argument("spec")
    p.add_argument("--t-end", type=float, required=True, help="end of the integration window")
    p.add_argument("--step", type=float, default=1e-3, help="grid step (default 1e-3)")
    p.add_argument("--history", default="const:1",
                   help="const:<v> | sin | seeded[:<seed>] (default const:1)")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="feasibility bands of the swept coefficient over alpha")
    p.add_argument("spec", help="spec with the swept coefficient at unit amplitude")
    p.add_argument("--param", default="r", choices=("r",),
                   help="swept parameter (only the b amplitude 'r' is supported)")
    p.add_argument("--alpha-grid", default="0:1:0.01", metavar="A:B:S",
                   help="start:stop:step for alpha (default 0:1:0.01)")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("examples", help="reproduce the bundled benchmark corpus")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="all bundled examples (default)")
    group.add_argument("--id", type=int, choices=range(1, 6), metavar="N",
                       help="one example by number (1-5)")
    p.add_argument("--no-simulation", action="store_true",
                   help="skip the cross-validating integration")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_examples)

    p = sub.add_parser("compare", help="baseline threshold table for a spec")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("fundamental", help="fundamental-function trajectory CSV")
    p.add_argument("spec", help="spec supplying b and h (the neutral part is ignored)")
    p.add_argument("--s", type=float, required=True, help="unit-impulse time")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(handler=_cmd_fundamental)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``run``, built once per process: parsing leaves no state
    in it, and building it costs far more than a parse."""
    return build_parser()


def _load_validated(path, grid: int = 100_000):
    """The spec at ``path`` and its validation report, which carries the
    grid extrema for ``summarize``."""
    spec = load_spec(path)
    rep = validate(spec, grid)
    if not rep.passed:
        lines = [f"{path}: structural validation failed"]
        for c in rep.failures():
            wit = ", ".join(f"{w:g}" for w in c.witnesses)
            lines.append(f"  [{c.check_id}] {c.description}; witness t = {wit}")
        raise SpecError("\n".join(lines))
    return spec, rep


def _parse_history(text: str, spec, seed: int):
    if text.startswith("const:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise SpecError(f"--history const:<v> needs a finite number, got {text!r}")
        return value
    if text == "sin":
        return sin(tvar())
    if text == "seeded" or text.startswith("seeded:"):
        raw = text.split(":", 1)[1] if ":" in text else str(seed)
        try:
            n = int(raw)
        except ValueError:
            n = -1
        if n < 0:
            raise SpecError(f"the history seed must be a non-negative integer, got {raw!r}")
        probe = np.linspace(spec.t0, spec.horizon, 1024)
        reach = min(float(np.min(spec.g.eval_array(probe))),
                    float(np.min(spec.h.eval_array(probe))))
        lo = min(spec.t0 - 1.0, reach - 1e-9)
        return SeededHistory(n, lo, spec.t0)
    raise SpecError(f"unknown history {text!r} (use const:<v>, sin, or seeded[:<seed>])")


@contextlib.contextmanager
def _output(path: str):
    """Stdout for '-', else the file at ``path``, closed on exit."""
    if path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise SpecError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc
    with fh:
        yield fh


def _parse_alpha_grid(text: str) -> list[float]:
    try:
        a, b, s = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise SpecError(f"bad alpha grid {text!r}, expected start:stop:step") from exc
    if not all(map(math.isfinite, (a, b, s))):
        raise SpecError(f"bad alpha grid {text!r}: start, stop and step must be finite")
    if s <= 0 or b < a:
        raise SpecError(f"bad alpha grid {text!r}: need step > 0 and stop >= start")
    n = (b - a) / s  # checked before any list is built; may be inf
    if not n < MAX_ALPHA_POINTS or round(n) >= MAX_ALPHA_POINTS:
        raise SpecError(f"bad alpha grid {text!r}: {n + 1:.4g} points, over the bound of {MAX_ALPHA_POINTS:,}")
    alphas = [a + i * s for i in range(round(n) + 1)]
    if alphas[0] < 0.0 or alphas[-1] > 1.0:
        raise SpecError(f"bad alpha grid {text!r}: every alpha must lie in [0, 1], "
                        f"got {alphas[0]:g} to {alphas[-1]:g}")
    return alphas


def _parse_alpha(text: str) -> float | None:
    """None for 'auto', else a fixed alpha in [0, 1]."""
    if text == "auto":
        return None
    try:
        alpha = float(text)
    except ValueError:
        alpha = math.nan
    if not 0.0 <= alpha <= 1.0:
        raise SpecError(f"--alpha must be 'auto' or a number in [0, 1], got {text!r}")
    return alpha


def _check_window(t_start: float, t_end: float, step: float) -> None:
    if not (math.isfinite(step) and step > 0.0):
        raise SpecError(f"--step must be positive and finite, got {step:g}")
    if not t_start < t_end < math.inf:
        raise SpecError(f"--t-end must be finite and exceed the start time {t_start:g}, got {t_end:g}")
    n = (t_end - t_start) / step  # as integrate counts steps, before anything is built; may be inf
    if not n - 1e-9 <= MAX_STEPS:
        raise SpecError(f"--step {step:g} from {t_start:g} to --t-end {t_end:g} takes {n:.4g} steps, "
                        f"over the bound of {MAX_STEPS:,}")


def _fmt_verdict(v) -> str:
    mark = "satisfied" if v.satisfied else ("not satisfied" if v.applicable else "not applicable")
    margin = "" if math.isnan(v.margin) else f"  margin={v.margin:+.6g}"
    alpha = "" if v.witness_alpha is None else f"  alpha={v.witness_alpha:.6g}"
    reason = f"  ({v.reason})" if v.reason else ""
    return f"{v.criterion:<18} {mark:<14}{margin}{alpha}  [{v.stability_kind}, {v.certification}]{reason}"


def _cmd_check(args) -> int:
    alpha = _parse_alpha(args.alpha)
    if args.grid < 2:
        raise SpecError(f"--grid must be at least 2, got {args.grid}")
    if args.grid > MAX_GRID_POINTS:
        raise SpecError(f"--grid {args.grid} is over the bound of {MAX_GRID_POINTS:,}")
    spec, rep = _load_validated(args.spec, args.grid)
    summary = summarize(spec, rep)
    if alpha is None:
        verdicts = criteria.best_verdict(spec, summary)
    else:
        verdicts = [criteria.check_theorem1(summary, alpha)]
        if summary.limit_tau is not None:
            verdicts.append(criteria.check_corollary3(summary, alpha))
        verdicts.append(criteria.check_theorem2(summary, alpha))
        verdicts.append(criteria.theorem3_verdict(spec, summary, alpha))
    if args.json:
        print(json.dumps([v.to_dict() for v in verdicts], indent=2))
    else:
        print(f"# {args.spec}" + (f" ({spec.name})" if spec.name else ""))
        for v in verdicts:
            print(_fmt_verdict(v))
        satisfied = [v for v in verdicts if v.satisfied]
        best = next((v for v in satisfied if v.stability_kind == "uniform-exponential"),
                    satisfied[0] if satisfied else None)
        if best is None:
            print("no test satisfied (stability undecided by these criteria)")
        else:
            print(f"stability certified by {best.criterion} ({best.stability_kind})")
    return 0


def _cmd_simulate(args) -> int:
    spec, _ = _load_validated(args.spec)
    _check_window(spec.t0, args.t_end, args.step)
    history = _parse_history(args.history, spec, args.seed)
    traj = integrate(spec, history, args.t_end, args.step, forcing=spec.f)
    with _output(args.out) as fh:
        traj.write_csv(fh)
    return 0


def _cmd_sweep(args) -> int:
    spec, rep = _load_validated(args.spec)
    alphas = _parse_alpha_grid(args.alpha_grid)
    rows = report.sweep_alpha_r(spec, alphas, summary=summarize(spec, rep))
    with _output(args.out) as fh:
        report.write_sweep_csv(rows, fh)
    return 0


def _cmd_examples(args) -> int:
    ids = (f"ex{args.id}",) if args.id else None
    reports = report.reproduce_examples(ids, with_simulation=not args.no_simulation)
    waived = report.load_waivers()
    bad = report.unwaived_mismatches(reports, waived)
    if args.json:
        print(json.dumps({
            "reports": [r.to_dict() for r in reports],
            "waived": sorted(waived),
            "unwaived_mismatches": bad,
        }, indent=2))
    else:
        for rep in reports:
            print(f"== {rep.example_id}: {rep.name}")
            for q in rep.quantities:
                flag = "ok      " if q.match else "MISMATCH"
                print(f"  {flag} {q.name:<28} quoted {q.quoted:<12g} derived {q.derived:<.9g} [{q.method}]")
            for c in rep.claims:
                flag = "ok      " if c.holds else "MISMATCH"
                print(f"  {flag} {c.name}")
            if rep.simulation is not None:
                print(f"  simulation: {rep.simulation.verdict} "
                      f"(fitted rate {rep.simulation.rate:.4g}; {rep.simulation_note})")
            for note in rep.notes:
                print(f"  note: {note}")
        if bad:
            print("unwaived mismatches: " + ", ".join(bad))
        else:
            print("all reference checks match or are waived")
    return 1 if bad else 0


def _cmd_compare(args) -> int:
    spec, rep = _load_validated(args.spec)
    rows = report.compare_baselines(spec, summary=summarize(spec, rep))
    if args.json:
        print(json.dumps(rows, indent=2, allow_nan=False))
    else:
        print(f"{'criterion':<18} {'scale':<14} {'threshold':<12} applicable  note")
        for r in rows:
            thr = "-" if r["threshold"] is None else f"{r['threshold']:.6g}"
            print(f"{r['criterion']:<18} {r['scale']:<14} {thr:<12} {str(r['applicable']):<11} {r['note']}")
    return 0


def _cmd_fundamental(args) -> int:
    spec, _ = _load_validated(args.spec)
    _check_window(args.s, args.t_end, args.step)
    traj = fundamental(spec.b, spec.h, args.s, args.t_end, args.step)
    with _output(args.out) as fh:
        traj.write_csv(fh)
    return 0


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # NaN and overflow show in the verdicts, not as warnings
            return args.handler(args)
    except (SpecError, SummaryError, QuadratureError, MissingLimit, DomainError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
