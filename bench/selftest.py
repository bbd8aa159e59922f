"""Tests of the benchmark itself (generator, path split, checker, tracer).

Run from the root of the repository:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's own test collection.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

nd = run.load_program(BENCH.parent)
REFS = json.loads((BENCH / "references.json").read_text())


def _build(name, seed, tmp_path):
    return workloads.build(name, seed, tmp_path / f"{name}-{seed}", nd.corpus_dir())


def _portable(wl, tmp_root):
    """Spec dicts and argv with the work directory taken out."""
    argv = [[a.replace(str(tmp_root), "") for a in r.argv] if r.argv else None
            for r in wl.requests]
    return wl.specs, argv, [r.api for r in wl.requests]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(name, tmp_path):
    a = _build(name, 7, tmp_path / "a")
    b = _build(name, 7, tmp_path / "b")
    c = _build(name, 8, tmp_path / "c")
    assert _portable(a, tmp_path / "a") == _portable(b, tmp_path / "b")
    gen = [sid for sid in a.specs if sid not in workloads.CORPUS_IDS]
    assert all(a.specs[sid] != c.specs[sid] for sid in gen)
    # the mix does not depend on the seed
    assert [r.kind for r in a.requests] == [r.kind for r in c.requests]
    assert [r.path for r in a.requests] == [r.path for r in c.requests]


def test_generated_specs_pass_validate_except_the_malformed_share(tmp_path):
    wl = _build("analyze", 3, tmp_path)
    assert sorted(wl.malformed.values()) == sorted(workloads.MALFORMED)
    for sid, path in wl.spec_paths.items():
        if sid in wl.malformed:
            continue
        assert nd.validate(nd.load_spec(path)).passed, sid


def test_path_split_by_rule_and_by_the_integrator(tmp_path, monkeypatch):
    sims = {name: [r for r in _build(name, 5, tmp_path).requests if r.kind == "simulate"]
            for name in ("simulate", "scalar")}
    assert {r.path for r in sims["scalar"]} == {"scalar"}
    assert {r.path for r in sims["simulate"]} == {"chunked"}
    # the documented rule agrees with the branch the integrator really takes
    taken = []
    for fn in ("_advance_chunked", "_advance_scalar"):
        orig = getattr(nd.simulate, fn)
        monkeypatch.setattr(nd.simulate, fn,
                            lambda *a, _f=orig, _n=fn: (taken.append(_n), _f(*a))[1])
    sample = [r for reqs in sims.values() for r in reqs
              if r.spec_id in ("g000", "g001", "g007", "s000", "s001", "s002")]
    assert len(sample) == 6
    for req in sample:
        spec = nd.load_spec(req.argv[1])
        t_end = float(req.argv[req.argv.index("--t-end") + 1])
        nd.integrate(spec, 1.0, t_end, workloads.STEP)
        assert taken.pop() == f"_advance_{req.path}", req.spec_id


def _run(runner, req):
    out = checks.Outcome()
    runner._timed(req, out)
    return out


def _alter_digit(path, row, column, position):
    lines = Path(path).read_bytes().split(b"\r\n")
    cells = lines[row].split(b",")
    cell = bytearray(cells[column])
    digits = [i for i, ch in enumerate(cell) if chr(ch).isdigit()]
    i = digits[position]
    cell[i] = ord("5") if cell[i] != ord("5") else ord("6")
    cells[column] = bytes(cell)
    lines[row] = b",".join(cells)
    Path(path).write_bytes(b"\r\n".join(lines))


@pytest.fixture(scope="module")
def runners(tmp_path_factory):
    return {name: run.Runner(nd, workloads.build(name, 1, tmp_path_factory.mktemp(name),
                                                 nd.corpus_dir()), REFS)
            for name in ("simulate", "scalar")}


@pytest.fixture
def sim_runner(runners):
    return runners["simulate"]


def test_checker_flags_one_altered_digit_in_a_corpus_csv(sim_runner):
    req = next(r for r in sim_runner.wl.requests if r.kind == "simulate" and r.spec_id == "ex2")
    out = _run(sim_runner, req)
    spec = sim_runner.wl.specs["ex2"]
    assert checks.check(req, out, spec, REFS) == []
    _alter_digit(req.out, 20000, 1, -1)  # last printed digit of x
    problems = checks.check(req, out, spec, REFS)
    assert problems and "sha256" in problems[0]


def test_checker_flags_one_altered_digit_in_a_generated_csv(sim_runner):
    req = next(r for r in sim_runner.wl.requests if r.kind == "simulate" and r.spec_id == "g004")
    out = _run(sim_runner, req)
    spec = sim_runner.wl.specs["g004"]
    assert checks.check(req, out, spec, REFS) == []
    _alter_digit(req.out, 3000, 1, 3)  # a significant digit of x
    problems = checks.check(req, out, spec, REFS)
    assert problems and "neutral identity" in problems[0]


def test_malformed_specs_exit_2_and_known_defects_run_as_probes(tmp_path, monkeypatch):
    wl = _build("analyze", 2, tmp_path)
    runner = run.Runner(nd, wl, REFS)
    for req in wl.requests:
        if req.malformed:
            runner.run_one(req)
    assert runner.attempted == 2 * len(workloads.MALFORMED) and runner.failures == []
    probes = runner.run_probes()
    assert runner.attempted == 2 * len(workloads.MALFORMED)  # probes are not counted
    assert sorted(r.malformed for r, _, _ in probes) == sorted(2 * list(workloads.KNOWN_DEFECTS))
    # ROADMAP item 5b: NaN and out-of-range overrides still raise today;
    # once they exit 2 the probes report "fixed"
    assert {status for _, status, _ in probes} <= {"known defect", "fixed"}
    # any other outcome of a probe is a failure
    monkeypatch.setattr(nd.cli, "run", lambda argv: 0)
    assert {status for _, status, _ in runner.run_probes()} == {"FAILED"}


def test_scaling_divides_each_request_by_the_blocks_next_to_it():
    req = workloads.Request(rid=0, kind="check", spec_id="ex1")
    # the host runs at half speed until t = 10 s, then at double speed
    ref = [(float(t), run.REF_BLOCK_S * (2.0 if t < 10 else 0.5)) for t in range(20)]
    out = run.scale_samples([(3.0, req, 1.0), (15.0, req, 1.0)], ref)
    assert [seconds for _, _, seconds in out] == pytest.approx([0.5, 2.0])


def test_tracer_nests_spans_and_restores_the_package(runners):
    runner = runners["scalar"]
    runner.prepare()
    originals = (nd.cli.run, nd.simulate.integrate, nd.report.integrate, nd.params.simpson)
    tr = tracer.Tracer()
    tr.install(nd, [s for s, _ in runner.loaded.values()])
    runner.tracer = tr
    try:
        for kind in ("simulate", "big_B", "lemma4_check"):
            req = next(r for r in runner.wl.requests if r.kind == kind)
            assert runner.run_one(req, record=False) > 0.0
            assert not [f for f in runner.failures if f[0] is req]
    finally:
        runner.tracer = None
        tr.uninstall()
    assert (nd.cli.run, nd.simulate.integrate, nd.report.integrate, nd.params.simpson) == originals
    assert all("eval_array" not in s.a.__dict__ for s, _ in runner.loaded.values())
    by_id = {s[0]: s for s in tr.spans}
    names = {s[1] for s in tr.spans}
    assert {"run", "load_spec", "validate", "integrate", "Trajectory.write_csv", "big_B",
            "lemma4_check", "fundamental"} <= names
    for span in tr.spans:
        if span[5] is not None:  # a child lies inside its parent
            parent = by_id[span[5]]
            assert parent[3] <= span[3] <= span[4] <= parent[4]
    assert all(v >= -1e-9 for v in tr.self_s.values())
    # the scalar workload's simulate request takes the scalar path; only the
    # fundamentals inside lemma4_check take the chunked one
    assert tr.counts["simulate.steps.scalar"] > 0 and tr.counts["simulate.steps.chunked"] > 0
