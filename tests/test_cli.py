import io
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from ndstab.cli import build_parser, run
from ndstab.eqspec import load_spec
from ndstab.report import corpus_dir
from ndstab.simulate import integrate

DATA = Path(__file__).parent / "data"


def corpus_path(ex_id):
    return str(corpus_dir() / f"{ex_id}.json")


# -- help output ------------------------------------------------------------------

def test_help_golden_file():
    assert build_parser().format_help() == (DATA / "cli_help.txt").read_text()


@pytest.mark.parametrize("name", ["check", "simulate", "sweep", "examples",
                                  "compare", "fundamental"])
def test_subcommand_help_golden(name):
    import argparse
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert subs.choices[name].format_help() == (DATA / f"cli_help_{name}.txt").read_text()


def test_help_enumerates_every_flag():
    text = (DATA / "cli_help.txt").read_text()
    assert "--seed" in text
    flags = {
        "check": ("--alpha", "--grid", "--json"),
        "simulate": ("--t-end", "--step", "--history", "--out"),
        "sweep": ("--param", "--alpha-grid", "--out"),
        "examples": ("--all", "--id", "--no-simulation", "--json"),
        "compare": ("--json",),
        "fundamental": ("--s", "--t-end", "--step", "--out"),
    }
    for name, expected in flags.items():
        sub = (DATA / f"cli_help_{name}.txt").read_text()
        for flag in expected:
            assert flag in sub, (name, flag)


def test_module_entry_point_prints_help():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "ndstab.cli", "--help"], env=_fresh_process_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "cli_help.txt").read_text()


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", corpus_path("ex1"), "--frobnicate"])
    assert exc.value.code == 2


def _fresh_process_env():
    import ndstab
    src = str(Path(ndstab.__file__).parents[1])
    return dict(os.environ, COLUMNS="80",
                PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_in_process_runs_match_fresh_processes(tmp_path, capsys):
    # run reuses one parser: a flag or a seed given to one call must not
    # become the default of the next
    import subprocess
    import sys

    ex1, ex2 = corpus_path("ex1"), corpus_path("ex2")
    calls = [["check", ex2, "--alpha", "0.5", "--grid", "2000"],
             ["check", ex2, "--grid", "2000"],
             ["--seed", "7", "simulate", ex1, "--t-end", "0.2", "--step", "0.01",
              "--history", "seeded"],
             ["simulate", ex1, "--t-end", "0.2", "--step", "0.01", "--history", "seeded"],
             ["check", str(tmp_path / "missing.json")]]
    fresh = [subprocess.Popen([sys.executable, "-m", "ndstab.cli", *argv],
                              env=_fresh_process_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) for argv in calls]
    in_process = []
    for argv in calls:
        code = run(argv)
        in_process.append((code, *capsys.readouterr()))
    for proc, got in zip(fresh, in_process):
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out.decode(), err.decode()) == got
    assert in_process[0][1] != in_process[1][1] and in_process[2][1] != in_process[3][1]
    assert in_process[4][0] == 2


# -- check ------------------------------------------------------------------------

def test_check_ex1_json(capsys):
    code = run(["check", corpus_path("ex1"), "--alpha", "auto", "--grid", "20000", "--json"])
    assert code == 0
    verdicts = {v["criterion"]: v for v in json.loads(capsys.readouterr().out)}
    c3 = verdicts["corollary3"]
    assert c3["satisfied"]
    assert 0.272 < c3["alpha"] < 0.951
    assert c3["kind"] == "uniform-exponential"
    assert c3["certification"] == "certified"


def test_check_fixed_alpha(capsys):
    code = run(["check", corpus_path("ex4"), "--alpha", "0.45", "--grid", "20000", "--json"])
    assert code == 0
    verdicts = {v["criterion"]: v for v in json.loads(capsys.readouterr().out)}
    assert verdicts["theorem2"]["satisfied"]
    assert not verdicts["theorem1"]["applicable"]


def test_check_fixed_alpha_reports_theorem3(tmp_path, capsys):
    def theorem3(path, alpha):
        assert run(["check", path, "--alpha", alpha, "--json"]) == 0
        return next(v for v in json.loads(capsys.readouterr().out) if v["criterion"] == "theorem3")

    at_0 = theorem3(corpus_path("ex5"), "0")
    assert not at_0["applicable"] and at_0["notes"][0] == "alpha must be positive"
    assert theorem3(corpus_path("ex5"), "0.5")["satisfied"]
    # an integral summary that cannot be built is reported, not dropped
    spec = json.loads(Path(corpus_path("ex5")).read_text())
    spec["overrides"].update(tilde_tau=0.1, tilde_delta=0.2)
    p = tmp_path / "inconsistent.json"
    p.write_text(json.dumps(spec))
    bad = theorem3(str(p), "0.5")
    assert not bad["applicable"] and bad["notes"][0].startswith("need 0 <= tilde_delta <= tilde_tau")


def test_check_best_verdict_reports_theorem3_without_integral_summary(tmp_path, capsys):
    spec = json.loads(Path(corpus_path("ex5")).read_text())
    spec["overrides"].update(tilde_tau=0.1, tilde_delta=0.2)
    p = tmp_path / "inconsistent.json"
    p.write_text(json.dumps(spec))
    assert run(["check", str(p), "--json"]) == 0
    t3 = [v for v in json.loads(capsys.readouterr().out) if v["criterion"] == "theorem3"]
    assert len(t3) == 1 and not t3[0]["applicable"] and t3[0]["alpha"] is None
    assert t3[0]["notes"][0] == "need 0 <= tilde_delta <= tilde_tau, got 0.2, 0.1"
    assert run(["check", str(p)]) == 0
    assert "theorem3           not applicable  [asymptotic" in capsys.readouterr().out


def test_zero_lags_sweep_and_compare_exit_0(tmp_path, capsys):
    # tau = sigma = 0: the main test holds at every amplitude
    p = tmp_path / "zero_lags.json"
    p.write_text(json.dumps({"a": ["const", 0.5], "b": ["const", 1.0], "g": ["t"], "h": ["t"],
                             "t0": 0, "horizon": 10}))
    assert run(["sweep", str(p), "--alpha-grid", "0:1:0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,inf"
    assert run(["compare", str(p), "--json"]) == 0
    # strict JSON: no Infinity or NaN tokens; no threshold, and not applicable
    rows = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    rows = {r["criterion"]: r for r in rows}
    for part in ("corollary_main_b", "corollary_main_a"):
        assert rows[part]["threshold"] is None and rows[part]["applicable"] is False
    assert rows["corollary_main_b"]["note"] == "no finite threshold: tau = sigma = 0 (holds for every sup b)"


def test_check_refutes_an_override_below_the_sampled_supremum(tmp_path, capsys):
    # norm_a = inf_a = 0.05 while a = 0.6: certified by theorem1 before
    spec = {"a": ["const", 0.6], "b": ["const", 1.0], "g": ["+", ["t"], ["const", -0.2]],
            "h": ["+", ["t"], ["const", -0.14]], "t0": 0, "horizon": 50,
            "overrides": {"norm_a": 0.05, "inf_a": 0.05, "norm_b": 1.0, "inf_b": 1.0,
                          "sigma": 0.2, "tau": 0.14, "delta": 0.14}}
    p = tmp_path / "false_override.json"
    p.write_text(json.dumps(spec))
    assert run(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "override norm_a = 0.05 is refuted: it lies below the grid supremum 0.6" in captured.err
    spec["overrides"].update(norm_a=0.6, inf_a=0.6)
    p.write_text(json.dumps(spec))
    assert run(["check", str(p)]) == 0


def test_check_theorem3_passes_its_gate_at_its_own_optimum(tmp_path, capsys):
    # tilde_delta / tilde_tau0 rounds up past the gate alpha*tilde_tau0 <= tilde_delta,
    # which rejected theorem 3 at the alpha chosen to pass it
    a = 0.5921365739418385
    spec = {"a": ["const", a], "b": ["/", ["const", 0.06508031818335504], ["t"]],
            "g": ["/", ["t"], ["const", 3.3384874904171378]],
            "h": ["/", ["t"], ["const", 2.1224942160000912]], "t0": 1.0, "horizon": 400.0,
            "overrides": {"norm_a": a, "inf_a": a, "norm_a_plus": a, "norm_a_minus": 0.0,
                          "tilde_tau": 0.04897892123258726, "tilde_delta": 0.04897892123258726,
                          "tilde_sigma": 0.0784554857250167}}
    p = tmp_path / "pantograph.json"
    p.write_text(json.dumps(spec))
    assert run(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "stability certified by theorem3 (asymptotic)" in out
    assert "theorem3           satisfied " in out and "[asymptotic, certified]" in out


def test_check_reports_every_test_it_cannot_run(tmp_path, capsys):
    # tau = 12 > horizon - t0 (no limsup window) and delta = 0 (theorem 3's gate
    # admits only alpha = 0): both used to drop their verdicts without a line
    p = tmp_path / "long_lag.json"
    p.write_text(json.dumps({
        "a": ["const", 0.1], "b": ["const", 0.05], "g": ["+", ["t"], ["const", -0.1]],
        "h": ["+", ["t"], ["scale", -12.0, ["abs", ["sin", ["t"]]]]], "t0": 0.0, "horizon": 10.0}))
    assert run(["check", str(p)]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "not applicable  alpha=0  [asymptotic" in lines["theorem3"]
    assert "admits no alpha > 0" in lines["theorem3"]
    for name in ("prop_yu", "prop_tang_zou"):
        assert lines[name].endswith("(window longer than the analysis horizon)")
        assert "not applicable" in lines[name]


def test_check_missing_file_exits_2(capsys):
    assert run(["check", "missing.json"]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_check_invalid_spec_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"a": ["const", 1.2], "b": ["const", 1.0],
                             "g": ["t"], "h": ["t"], "t0": 0.0, "horizon": 5.0}))
    assert run(["check", str(p)]) == 2
    assert "a1_a" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "compare"])
@pytest.mark.parametrize("override, message", [
    ('{"norm_a": NaN}', "non-finite override values: ['norm_a']"),
    ('{"norm_a": 1.5}', "norm_a must lie in [0, 1), got 1.5"),
], ids=["nan", "out_of_range"])
def test_bad_override_exits_2_with_message(tmp_path, capsys, command, override, message):
    spec = json.loads((corpus_dir() / "ex1.json").read_text())
    del spec["overrides"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec)[:-1] + ', "overrides": ' + override + "}")
    assert run([command, str(p), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ndstab: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("overrides", ["[1]", "null"])
def test_non_object_overrides_exit_2(tmp_path, capsys, overrides):
    spec = json.loads((corpus_dir() / "ex1.json").read_text())
    del spec["overrides"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec)[:-1] + ', "overrides": ' + overrides + "}")
    assert run(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ndstab: overrides must be a JSON object, got {overrides}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["check", "ex1", "--alpha", "1.5"], "--alpha must be 'auto' or a number in [0, 1], got '1.5'"),
    (["check", "ex1", "--alpha", "abc"], "--alpha must be 'auto' or a number in [0, 1], got 'abc'"),
    (["check", "ex1", "--grid", "1"], "--grid must be at least 2, got 1"),
    (["simulate", "ex1", "--t-end", "1", "--step", "0"], "--step must be positive and finite, got 0"),
    (["simulate", "ex1", "--t-end", "0"], "--t-end must be finite and exceed the start time 0, got 0"),
    (["simulate", "ex1", "--t-end", "-1"], "--t-end must be finite and exceed the start time 0, got -1"),
    (["fundamental", "ex1", "--s", "0", "--t-end", "1", "--step", "0"],
     "--step must be positive and finite, got 0"),
    *((["simulate", "ex1", "--t-end", "1", "--history", h],
      f"--history const:<v> needs a finite number, got {h!r}")
      for h in ("const:abc", "const:nan", "const:inf")),
    *((["simulate", "ex1", "--t-end", "1", "--history", f"seeded:{n}"],
      f"the history seed must be a non-negative integer, got {n!r}") for n in ("x", "-3")),
    (["--seed", "-3", "simulate", "ex1", "--t-end", "1", "--history", "seeded"],
     "the history seed must be a non-negative integer, got '-3'"),
    *((["sweep", "ex2", f"--alpha-grid={g}"],
      f"bad alpha grid {g!r}: start, stop and step must be finite")
      for g in ("0:nan:0.1", "0:inf:0.5", "0:1:inf")),
    (["sweep", "ex2", "--alpha-grid=-1:2:0.5"],
     "bad alpha grid '-1:2:0.5': every alpha must lie in [0, 1], got -1 to 2"),
    (["sweep", "ex2", "--alpha-grid=0:1:0.6"],
     "bad alpha grid '0:1:0.6': every alpha must lie in [0, 1], got 0 to 1.2"),
], ids=["alpha_range", "alpha_text", "grid", "step", "t_end_at_t0", "t_end_before_t0", "fundamental_step",
        "history_const_text", "history_const_nan", "history_const_inf", "history_seed_text",
        "history_seed_negative", "seed_flag_negative", "alpha_grid_nan_stop", "alpha_grid_inf_stop",
        "alpha_grid_inf_step", "alpha_grid_below_0", "alpha_grid_above_1"])
def test_out_of_range_numbers_exit_2(capsys, argv, message):
    argv = [corpus_path(a) if a in ("ex1", "ex2") else a for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ndstab: {message}\n"
    assert captured.out == ""


def test_unknown_spec_keys_exit_2(tmp_path, capsys):
    # a misspelt "overrides" used to be dropped, and check ran without them
    spec = json.loads((corpus_dir() / "ex1.json").read_text())
    spec["overides"] = spec.pop("overrides")
    spec["forcing"] = ["const", 1.0]
    p = tmp_path / "typo.json"
    p.write_text(json.dumps(spec))
    assert run(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ndstab: unknown specification keys: ['forcing', 'overides']\n"
    assert captured.out == ""


# -- simulate / fundamental ----------------------------------------------------------

def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["simulate", corpus_path("ex1"), "--t-end", "2.0", "--step", "0.01",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 202


def test_simulate_applies_the_spec_forcing(tmp_path, capsys):
    spec = json.loads((corpus_dir() / "ex1.json").read_text())
    spec["f"] = ["const", 5.0]
    p = tmp_path / "forced.json"
    p.write_text(json.dumps(spec))
    outs = []
    for path in (corpus_path("ex1"), str(p)):
        assert run(["simulate", path, "--t-end", "2.0", "--step", "0.01"]) == 0
        outs.append(capsys.readouterr().out)
    forced = load_spec(p)
    want = io.StringIO()
    integrate(forced, 1.0, 2.0, 0.01, forcing=forced.f).write_csv(want)
    assert outs[1] == want.getvalue() != outs[0]


def test_simulate_histories(tmp_path):
    for hist in ("const:0.5", "sin", "seeded", "seeded:7"):
        out = tmp_path / "t.csv"
        assert run(["simulate", corpus_path("ex1"), "--t-end", "1.0",
                    "--step", "0.01", "--history", hist, "--out", str(out)]) == 0


def test_simulate_identical_invocations_identical_output(tmp_path):
    outs = []
    for i in (0, 1):
        out = tmp_path / f"t{i}.csv"
        run(["simulate", corpus_path("ex2"), "--t-end", "3.0", "--step", "0.01",
             "--history", "seeded", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_fundamental_csv(tmp_path):
    out = tmp_path / "fund.csv"
    code = run(["fundamental", corpus_path("ex1"), "--s", "0.0", "--t-end", "2.0",
                "--step", "0.01", "--out", str(out)])
    assert code == 0
    first = out.read_text().splitlines()[1]
    assert first.startswith("0,1,")  # X(s, s) = 1


# -- sweep ------------------------------------------------------------------------------

def test_sweep_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", corpus_path("ex2"), "--param", "r",
                "--alpha-grid", "0:1:0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,r_lower,r_upper"
    assert len(lines) == 102
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[2]) == pytest.approx(0.168354, abs=1e-6)


def test_sweep_bad_grid_exits_2(capsys):
    assert run(["sweep", corpus_path("ex2"), "--alpha-grid", "nope"]) == 2


# -- examples / compare -------------------------------------------------------------------

def test_examples_id5(capsys):
    code = run(["examples", "--id", "5", "--no-simulation", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    rep = payload["reports"][0]
    assert rep["id"] == "ex5"
    lhs = next(q for q in rep["quantities"] if q["name"] == "integral_lhs")
    assert abs(lhs["derived"] - 0.508974) < 1e-4
    assert payload["unwaived_mismatches"] == []


def test_examples_exit_1_without_waivers(tmp_path, capsys, monkeypatch):
    # copy the corpus but drop the waiver config
    import shutil
    for f in corpus_dir().glob("ex*.json"):
        shutil.copy(f, tmp_path / f.name)
    monkeypatch.setenv("NDSTAB_CORPUS_DIR", str(tmp_path))
    code = run(["examples", "--id", "4", "--no-simulation"])
    assert code == 1
    assert "unwaived" in capsys.readouterr().out


def test_corpus_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("NDSTAB_CORPUS_DIR", str(tmp_path))
    assert corpus_dir() == tmp_path


def test_corpus_outputs_match_bench_references(tmp_path, capsys, monkeypatch):
    # the benchmark's recorded corpus outputs, compared the way the benchmark
    # compares them: CSV by SHA-256, numbers within 1e-9 relative
    bench = Path(__file__).parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import checks
    refs = json.loads((bench / "references.json").read_text())
    problems = []

    def compare(kind, spec_id, argv, out=None):
        assert run(argv) == 0, argv
        outcome = checks.Outcome(exit=0, stdout=capsys.readouterr().out)
        got = checks.view(SimpleNamespace(kind=kind, out=out), outcome, None)
        problems.extend(checks.diff(got, refs[kind][spec_id], f"{kind} {spec_id}"))

    for ex_id in refs["check"]:
        compare("check", ex_id, ["check", corpus_path(ex_id), "--json"])
    for ex_id in refs["compare"]:
        compare("compare", ex_id, ["compare", corpus_path(ex_id), "--json"])
    for ex_id in refs["sweep"]:
        out = str(tmp_path / f"{ex_id}.csv")
        compare("sweep", ex_id, ["sweep", corpus_path(ex_id), "--out", out], out)
    compare("examples_nosim", "corpus", ["examples", "--no-simulation", "--json"])
    assert problems == []


@pytest.mark.parametrize("name", [*(f"{command}_ex{i}" for command in ("check", "compare")
                                      for i in range(1, 6)), "examples_no_simulation",
                                    "sweep_ex2", "sweep_ex3"])
def test_corpus_text_outputs_match_golden_files(capsys, tmp_path, name):
    # the text outputs, reasons and notes included, byte for byte; the
    # reference comparison above reads numbers and flags only
    command, arg = name.split("_", 1)
    if command == "sweep":  # CSV with CRLF line ends, compared as bytes
        out = tmp_path / "sweep.csv"
        assert run(["sweep", corpus_path(arg), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
        return
    argv = ["examples", "--no-simulation"] if command == "examples" else [command, corpus_path(arg)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    if command == "check":
        out = out.split("\n", 1)[1]  # the header line prints the spec path
    assert out == (DATA / f"{name}.txt").read_text()


def test_compare_table(capsys):
    code = run(["compare", corpus_path("ex3"), "--json"])
    assert code == 0
    rows = {r["criterion"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows["baseline_sqrt"]["threshold"] == pytest.approx(0.063246, abs=1e-6)
    assert rows["baseline_3_2"]["threshold"] == pytest.approx(0.002002, abs=1e-9)
