#!/usr/bin/env python3
"""ndstab benchmark: one closed-loop client drives a seeded request list.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze|simulate|scalar --seed N --seconds S --trace 0|1

The program is imported from ./src and driven in-process through
``ndstab.cli.run(argv)`` plus the library calls of the ``scalar`` workload.
Every output is checked (see checks.py).  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PRIMARY = 100   # a p90 needs at least 10 samples beyond it
PRIMARY = {"analyze": "check", "simulate": "simulate", "scalar": "simulate"}
API_KINDS = ("big_B", "neumann_inverse", "lemma5_condition", "lemma4_check")
# Time metrics in the JSON line are scaled to a host on which one reference
# block takes REF_BLOCK_S (see reference_block); the printed table shows
# both the measured and the scaled figure.
REF_BLOCK_S = 0.005
REF_EVERY_S = 0.1     # request time between two reference blocks
REF_NEAREST = 4       # blocks nearest in time that scale one request
# setup_s is scaled to a host on which a fresh interpreter that imports
# numpy and exits takes REF_COLD_S; that baseline tracked cold starts far
# better than the interpreter loop, which shares none of their import and
# page-fault work
REF_COLD_S = 0.2
COLD_BASELINE = ("-c", "import numpy")


def reference_block() -> float:
    """Time one fixed interpreter loop that does not touch ndstab and
    allocates nothing.  Its time tracks how fast the shared host runs the
    benchmark at that moment, so dividing a request's time by the blocks
    run next to it removes the host's drift but no change to ndstab.
    (Interleaved with requests of all three workloads, this loop tracked
    their time better than numpy arithmetic on 100 000-point arrays or
    writes to fresh pages did, alone or mixed in.)"""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    return time.perf_counter() - start


def load_program(root: Path):
    """Import ndstab from the checkout's src/, never from anywhere else."""
    pkg = root / "src" / "ndstab"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"bench: no ndstab sources at {pkg}; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("NDSTAB_CORPUS_DIR", None)  # always the bundled corpus
    import ndstab
    import ndstab.cli  # noqa: F401
    if Path(ndstab.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"bench: imported ndstab from {ndstab.__file__}, not from {pkg}")
    return ndstab


def _cold_start(cmd, root: Path) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(root: Path, wl, work: Path) -> tuple[list[float], list[float], list[float]]:
    """Cold interpreter until ndstab is imported and the workload's specs are
    loaded and validated, in a fresh process each time.  A baseline cold
    start (COLD_BASELINE) runs before the first start, between starts and
    after the last.  Returns the set-up times, each scaled by the mean of
    the baselines on both sides of it, and the baseline times."""
    listing = work / "setup_specs.txt"
    listing.write_text("\n".join(wl.spec_paths.values()) + "\n")
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(listing)]
    baseline = [sys.executable, *COLD_BASELINE]
    times, base = [], [_cold_start(baseline, root)]
    for _ in range(SETUP_REPEATS):
        times.append(_cold_start(cmd, root))
        base.append(_cold_start(baseline, root))
    scaled = [t * REF_COLD_S / statistics.fmean(base[i:i + 2]) for i, t in enumerate(times)]
    return times, scaled, base


class Runner:
    """Executes requests one after another and checks every output."""

    def __init__(self, nd, wl, refs):
        self.nd, self.wl, self.refs = nd, wl, refs
        self.tracer = None
        self.samples = []                  # (end time, request, seconds) of recorded requests
        self.attempted = 0
        self.failures = []                 # (request, problems)
        self.loaded = {}                   # spec id -> (EquationSpec, ParameterSummary)
        self.inputs = {}                   # request id -> prepared library-call input

    def prepare(self):
        """Load the specs and inputs of the library calls (not timed)."""
        nd = self.nd
        for req in self.wl.requests:
            if req.api is None:
                continue
            if req.spec_id not in self.loaded:
                spec = nd.load_spec(self.wl.spec_paths[req.spec_id])
                self.loaded[req.spec_id] = (spec, nd.summarize(spec))
            api = req.api
            if req.kind == "neumann_inverse":
                _, y = checks.neumann_input(api)
                self.inputs[req.rid] = nd.SampledFunction(api["t0"], api["step"], y)
            elif req.kind == "lemma5_condition":
                self.inputs[req.rid] = np.array(api["grid"])
            elif req.kind == "lemma4_check":
                self.inputs[req.rid] = np.array(api["s_grid"])

    def _library_call(self, req):
        # module attributes are looked up at call time, so the tracer sees them
        nd, api = self.nd, req.api
        spec, summary = self.loaded[req.spec_id]
        if req.kind == "big_B":
            return [nd.series.big_B(spec, float(t), summary=summary, positive_part=api["positive_part"])
                    for t in api["ts"]]
        if req.kind == "neumann_inverse":
            return nd.series.neumann_inverse(spec, self.inputs[req.rid])
        if req.kind == "lemma5_condition":
            return nd.simulate.lemma5_condition(spec.b, spec.h, self.inputs[req.rid])
        return nd.simulate.lemma4_check(spec.b, spec.h, self.inputs[req.rid], api["t_end"], api["step"])

    def _timed(self, req, out):
        if req.argv is None:
            start = time.perf_counter()
            try:
                out.result = self._library_call(req)
            except Exception as exc:  # a raise is a failed operation, not the end of the run
                out.error_type, out.error = type(exc).__name__, str(exc)
            return time.perf_counter() - start
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                out.exit = self.nd.cli.run(list(req.argv))
            except SystemExit as exc:
                out.exit = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:
                out.error_type, out.error = type(exc).__name__, str(exc)
            seconds = time.perf_counter() - start
        out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
        return seconds

    def run_one(self, req, record=True) -> float:
        out = checks.Outcome()
        if self.tracer is None:
            seconds = self._timed(req, out)
        else:
            self.tracer.request = req.rid
            seconds = self.tracer.call(f"request.{req.kind}", "bench", self._timed, (req, out), {})
        problems = checks.check(req, out, self.wl.specs.get(req.spec_id), self.refs)
        self.attempted += 1
        if problems:
            self.failures.append((req, problems))
        if record:
            self.samples.append((time.perf_counter(), req, seconds))
        return seconds

    def run_probes(self):
        """Run each known-defect probe once, untimed and outside ``attempted``.
        Returns (request, status, problems); status is "known defect" while
        the input still raises the listed error, "fixed" once it passes, and
        "FAILED" for any other outcome."""
        results = []
        for req in self.wl.probes:
            out = checks.Outcome()
            self._timed(req, out)
            problems = checks.check(req, out, None, self.refs)
            if not problems:
                status = "fixed"
            elif out.error_type == workloads.KNOWN_DEFECTS[req.malformed]:
                status = "known defect"
            else:
                status = "FAILED"
            results.append((req, status, problems))
        return results

    def warm_up(self):
        """One cheap request of each kind, so lazy imports and first calls are
        not timed (examples is skipped: its lazy parts are shared)."""
        seen = set()
        for req in sorted(self.wl.requests, key=lambda r: (r.corpus, r.steps)):
            if req.kind not in seen and not req.kind.startswith("examples"):
                seen.add(req.kind)
                self.run_one(req, record=False)


# -- metrics -------------------------------------------------------------------------------

def _q(xs, p):
    return float(np.percentile(xs, p))


def scale_samples(samples, ref):
    """Each request's time × REF_BLOCK_S ÷ the median of the REF_NEAREST
    reference blocks ended nearest to the middle of the request."""
    ends = np.array([t for t, _ in ref])
    secs = np.array([r for _, r in ref])
    out = []
    for end, req, seconds in samples:
        near = np.argsort(np.abs(ends - (end - seconds / 2)))[:REF_NEAREST]
        out.append((end, req, seconds * REF_BLOCK_S / float(np.median(secs[near]))))
    return out


def time_rows(samples, wl):
    """Time metrics of one run, as name -> (value or None, unit, samples).
    A workload without the request kind shows n/a; so does a p90 with
    fewer than MIN_PRIMARY samples."""
    lat, by_request = defaultdict(list), defaultdict(list)
    for _, req, seconds in samples:
        lat[req.kind].append(seconds)
        by_request[req.rid].append(seconds)
    # the time of one pass over the list, from each request's median, so a
    # run that stops part-way through a pass still weighs the mix exactly
    # and one slow execution of a long request does not move it
    pass_seconds = sum(statistics.median(xs) for xs in by_request.values())
    primary = lat[PRIMARY[wl.name]]
    sims = lat["simulate"]
    sim_steps = sum(req.steps for _, req, _ in samples if req.kind == "simulate")
    rows = {
        "requests_per_s": (len(wl.requests) / pass_seconds, "1/s", len(samples)),
        "primary_ms_p50": (1e3 * _q(primary, 50), "ms", len(primary)),
        "primary_ms_p90": (1e3 * _q(primary, 90), "ms", len(primary)),
    }

    def lat_row(name, xs, p, scale, unit):
        ok = xs and (p == 50 or len(xs) >= MIN_PRIMARY)
        rows[name] = (scale * _q(xs, p) if ok else None, unit, len(xs))

    lat_row("check_ms_p50", lat["check"], 50, 1e3, "ms")
    lat_row("check_ms_p90", lat["check"], 90, 1e3, "ms")
    lat_row("sweep_ms_p50", lat["sweep"], 50, 1e3, "ms")
    lat_row("examples_nosim_s", lat["examples_nosim"], 50, 1.0, "s")
    lat_row("simulate_ms_p50", sims, 50, 1e3, "ms")
    lat_row("simulate_ms_p90", sims, 90, 1e3, "ms")
    rows["sim_steps_per_s"] = (sim_steps / sum(sims) if sims else None, "1/s", len(sims))
    lat_row("examples_s", lat["examples"], 50, 1.0, "s")
    api = [x for k in API_KINDS for x in lat[k]]
    lat_row("api_ms_p50", api, 50, 1e3, "ms")
    lat_row("api_ms_p90", api, 90, 1e3, "ms")
    return rows


def end_to_end(runner, wl, setup_times, setup_scaled, run_ref, rss_mb):
    """(JSON metrics, printed rows).  Each printed row is (measured value,
    scaled value, unit, samples); the JSON line carries the scaled value.
    Times are scaled request by request (scale_samples), each cold start
    by the baseline cold starts on both sides of it."""
    measured = time_rows(runner.samples, wl)
    scaled = time_rows(scale_samples(runner.samples, run_ref), wl)
    rows = {"setup_s": (statistics.median(setup_times), statistics.median(setup_scaled),
                        "s", len(setup_times)),
            "peak_rss_mb": (rss_mb, rss_mb, "MB", 1)}
    for name, (v, unit, n) in measured.items():
        rows[name] = (v, scaled[name][0], unit, n)
    failed = len(runner.failures)
    rows["fail_rate"] = (failed / runner.attempted, failed / runner.attempted, "ratio",
                         runner.attempted)
    json_metrics = {k: {"value": rows[k][1], "unit": rows[k][2]}
                    for k in ("setup_s", "requests_per_s", "primary_ms_p50", "primary_ms_p90",
                              "peak_rss_mb")}
    return json_metrics, rows


def _median_ms(tr, name):
    xs = tr.durations.get(name, [])
    return 1e3 * statistics.median(xs) if xs else 0.0


def _per(total, n, scale=1.0):
    return scale * total / n if n else 0.0


def evaluate_us_per_call(nd, wl, points=64):
    """Cost of scalar ``Expr.evaluate`` on the workload's own coefficient
    trees, at points spread over the first 50 time units of each window."""
    trees = [(nd.parse_expr(spec[k]), spec["t0"]) for spec in wl.specs.values() for k in "abgh"]
    start = time.perf_counter()
    for expr, t0 in trees:
        for t in np.linspace(t0, t0 + 50.0, points).tolist():
            expr.evaluate(t)
    return 1e6 * (time.perf_counter() - start) / (len(trees) * points)


def per_layer(tr, wl, passes, overhead_pct, evaluate_us):
    """Per-layer metrics from the traced passes (counts per pass)."""
    c = tr.counts
    n_req = passes * len(wl.requests)
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_ms_per_req"] = (_per(tr.self_s[layer], n_req, 1e3), "ms")
        m[f"{layer}.calls"] = (tr.calls[layer] / passes, "count")
    m["cli.self_ms"] = (_per(tr.self_s["cli"], tr.calls["cli"], 1e3), "ms")
    trees = [s[k] for s in wl.specs.values() for k in ("a", "b", "g", "h")]
    m.update({
        "expr.eval_array_ns_per_point": (_per(c["expr.eval_array.seconds"], c["expr.eval_array.points"], 1e9), "ns"),
        "expr.evaluate_us_per_call": (evaluate_us, "us"),
        "expr.tree_nodes": (sum(map(workloads.tree_nodes, trees)) / len(trees), "count"),
        "eqspec.load_spec_ms": (_median_ms(tr, "load_spec"), "ms"),
        "eqspec.validate_ms": (_median_ms(tr, "validate"), "ms"),
        "eqspec.grid_points": (c["eqspec.grid_points"] / passes, "count"),
        "params.summarize_ms": (_median_ms(tr, "summarize"), "ms"),
        "params.integral_summary_ms": (_median_ms(tr, "integral_summary"), "ms"),
        "params.estimate_limsup_int_b_ms": (_median_ms(tr, "estimate_limsup_int_b"), "ms"),
        "params.quadrature_calls": (c["params.quadrature_calls"] / passes, "count"),
        "params.quadrature_points": (c["params.quadrature_points"] / passes, "count"),
        "criteria.best_verdict_ms": (_median_ms(tr, "best_verdict"), "ms"),
        "criteria.verdicts": (c["criteria.verdicts"] / passes, "count"),
        "criteria.satisfied": (c["criteria.satisfied"] / passes, "count"),
        "report.sweep_alpha_r_ms": (_median_ms(tr, "sweep_alpha_r"), "ms"),
        "report.write_sweep_csv_ms": (_median_ms(tr, "write_sweep_csv"), "ms"),
        "report.sweep_rows": (c["report.sweep_rows"] / passes, "count"),
        "report.reproduce_examples_ms": (_median_ms(tr, "report.reproduce_examples.per_example"), "ms"),
        "simulate.us_per_step.chunked": (_per(c["simulate.seconds.chunked"], c["simulate.steps.chunked"], 1e6), "us"),
        "simulate.us_per_step.scalar": (_per(c["simulate.seconds.scalar"], c["simulate.steps.scalar"], 1e6), "us"),
        "simulate.steps": ((c["simulate.steps.chunked"] + c["simulate.steps.scalar"]) / passes, "count"),
        "simulate.fp_iterations_max": (tr.fp_iterations_max, "count"),
        "simulate.write_csv_ms": (_median_ms(tr, "Trajectory.write_csv"), "ms"),
        "simulate.csv_bytes": (c["simulate.csv_bytes"] / passes, "B"),
        "simulate.decay_rate_ms": (_median_ms(tr, "decay_rate"), "ms"),
        "simulate.fundamental_ms": (_median_ms(tr, "fundamental"), "ms"),
        "simulate.lemma4_check_ms": (_median_ms(tr, "lemma4_check"), "ms"),
        "simulate.lemma5_condition_ms": (_median_ms(tr, "lemma5_condition"), "ms"),
        "series.big_B_us_per_t": (1e3 * _median_ms(tr, "big_B"), "us"),
        "series.terms": (_per(c["series.terms"], len(tr.durations.get("big_B", []))), "count"),
        "series.neumann_inverse_ms": (_median_ms(tr, "neumann_inverse"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return m


# -- modes ---------------------------------------------------------------------------------

def measure(runner, wl, seconds):
    """Requests in list order, cycling, until --seconds have elapsed, at
    least one whole pass is done and the primary kind has enough samples
    for its p90.  A reference block runs before the first request and after
    every REF_EVERY_S of request time.  Returns the number of passes,
    fractions included, and the reference blocks as (end time, seconds)."""
    kind = PRIMARY[wl.name]
    n = len(wl.requests)
    done = primary = 0
    ref = [(time.perf_counter(), reference_block())]
    since_ref = 0.0
    start = time.perf_counter()
    while done < n or time.perf_counter() - start < seconds or primary < MIN_PRIMARY:
        req = wl.requests[done % n]
        since_ref += runner.run_one(req)
        done += 1
        primary += req.kind == kind
        if since_ref >= REF_EVERY_S:
            block = reference_block()
            ref.append((time.perf_counter(), block))
            since_ref = 0.0
    return done / n, ref


def traced(runner, nd, wl, seconds, spans_path):
    """Whole passes in which every request runs twice, once traced and once
    not (alternating which goes first), until --seconds have elapsed.  The
    tracing overhead is the traced minus the untraced request time."""
    tr = tracing.Tracer()
    extra = [spec for spec, _ in runner.loaded.values()]
    plain = with_trace = 0.0
    passes = 0
    start = time.perf_counter()
    def run_traced(req):
        tr.install(nd, extra)
        runner.tracer = tr
        try:
            return runner.run_one(req, record=False)
        finally:
            runner.tracer = None
            tr.uninstall()

    while passes == 0 or time.perf_counter() - start < seconds:
        for req in wl.requests:
            if req.rid % 2:
                plain += runner.run_one(req, record=False)
                with_trace += run_traced(req)
            else:
                with_trace += run_traced(req)
                plain += runner.run_one(req, record=False)
        passes += 1
    tr.write(spans_path)
    overhead = 100.0 * (with_trace - plain) / plain
    return per_layer(tr, wl, passes, overhead, evaluate_us_per_call(nd, wl)), passes


# -- output ------------------------------------------------------------------------------------

def _fmt(v):
    if v is None:
        return "n/a"
    return f"{v:.6g}"


def report_failures(runner):
    groups = Counter()
    for req, problems in runner.failures:
        groups[(req.kind, req.malformed or req.spec_id, problems[0])] += 1
    for (kind, what, problem), n in sorted(groups.items()):
        print(f"  FAILED: {n}x {kind} {what}: {problem}")


def report_probes(results):
    if not results:
        return
    print("known-defect probes (ROADMAP 5b; run once, untimed, not in attempted/failed):")
    for req, status, problems in results:
        detail = f": {problems[0]}" if problems else ""
        print(f"  {status}: {req.kind} {req.malformed}{detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    nd = load_program(root)
    refs = json.loads((BENCH / "references.json").read_text())
    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.build(args.workload, args.seed, work, nd.corpus_dir())
        print(f"ndstab bench: workload={wl.name} seed={wl.seed} seconds={args.seconds:g} "
              f"trace={args.trace} requests/pass={len(wl.requests)} (closed loop, 1 client)")
        shares = wl.property_shares()
        print(f"input properties over {len(wl.specs)} well-formed specs"
              f" (+{len(wl.malformed)} malformed): "
              + ", ".join(f"{k}={v:.3f}" for k, v in shares.items()))

        setup_times, setup_scaled, setup_base = measure_setup(root, wl, work)
        runner = Runner(nd, wl, refs)
        runner.prepare()
        probes = runner.run_probes()
        runner.warm_up()
        if args.trace:
            metrics, passes = traced(runner, nd, wl, args.seconds,
                                     work_root / f"spans-{wl.name}-seed{wl.seed}.jsonl")
            print(f"per-layer metrics ({passes} traced pass(es); counts per pass):")
            for name, (v, unit) in metrics.items():
                print(f"  {name:<36} {_fmt(v):>12} {unit}")
            out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            passes, run_ref = measure(runner, wl, args.seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out_metrics, rows = end_to_end(runner, wl, setup_times, setup_scaled, run_ref, rss)
            print(f"reference block: median {1e3 * statistics.median(r for _, r in run_ref):.3f} ms "
                  f"over {len(run_ref)} blocks (reference {1e3 * REF_BLOCK_S:g} ms); baseline cold "
                  f"start: median {statistics.median(setup_base):.4f} s over {len(setup_base)} "
                  f"(reference {REF_COLD_S:g} s)")
            print(f"end-to-end metrics ({passes:.2f} passes; n = samples; scaled = "
                  f"at the reference host speed, as in the JSON line):")
            print(f"  {'metric':<20} {'measured':>12} {'scaled':>12} unit")
            for name, (v, v_scaled, unit, n) in rows.items():
                print(f"  {name:<20} {_fmt(v):>12} {_fmt(v_scaled):>12} {unit:<5} n={n}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    correct = failed == 0 and all(status != "FAILED" for _, status, _ in probes)
    print(f"operations: attempted={runner.attempted} failed={failed} "
          f"fail_rate={failed / runner.attempted:.6g}")
    report_failures(runner)
    report_probes(probes)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
