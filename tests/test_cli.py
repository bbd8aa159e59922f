import contextlib
import hashlib
import io
import json
import math
import os
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ndstab import cli
from ndstab.cli import (MAX_ALPHA_POINTS, MAX_GRID_POINTS, MAX_STEPS, _check_window, _parse_alpha_grid,
                        build_parser, run)
from ndstab.eqspec import SpecError, load_spec
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


def test_check_theorem3_reads_the_summary_inf_a(tmp_path, capsys):
    # a = 0.2 + 0.3 cos(8.0425 t) aliases on integral_summary's 513 sample
    # times, where it looks constant at 0.1438; the 100,000-point summary
    # finds inf a = -0.1, so theorem 3 is not applicable like theorem 1
    p = tmp_path / "aliased_a.json"
    p.write_text(json.dumps({
        "a": ["+", ["const", 0.2], ["scale", 0.3, ["cos", ["scale", 8.0425, ["t"]]]]],
        "b": ["/", ["const", 0.2], ["t"]], "g": ["/", ["t"], ["const", 2.0]],
        "h": ["/", ["t"], ["const", 3.0]], "t0": 1.0, "horizon": 401.0}))
    assert run(["check", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    t1, t3 = (next(ln for ln in lines if ln.startswith(name)) for name in ("theorem1 ", "theorem3 "))
    assert t1.startswith("theorem1           not applicable") and t1.endswith("(a(t) >= a0 > 0 fails)")
    assert t3.startswith("theorem3           not applicable") and t3.endswith("(a(t) >= a0 > 0 fails)")
    assert lines[-1] == "no test satisfied (stability undecided by these criteria)"


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


@pytest.mark.parametrize("argv", [["simulate", "ex1", "--t-end", "0.1"], ["sweep", "ex2"],
                                  ["fundamental", "ex1", "--s", "0", "--t-end", "0.1"]],
                         ids=["simulate", "sweep", "fundamental"])
def test_out_to_a_path_that_cannot_be_opened_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.csv"
    argv = [corpus_path(a) if a in ("ex1", "ex2") else a for a in argv]
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ndstab: cannot write --out {str(out)!r}: No such file or directory\n"
    assert captured.out == "" and not out.parent.exists()


def test_alpha_grid_points_are_bounded_before_the_list_is_built(capsys):
    assert len(_parse_alpha_grid(f"0:1:{1 / (MAX_ALPHA_POINTS - 1)}")) == MAX_ALPHA_POINTS
    for grid in (f"0:1:{1 / MAX_ALPHA_POINTS}", "0:1:5e-324"):  # one point over; inf points
        with pytest.raises(SpecError, match=f"over the bound of {MAX_ALPHA_POINTS:,}$"):
            _parse_alpha_grid(grid)
    assert run(["sweep", corpus_path("ex2"), "--alpha-grid", "0:1:1e-9"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ndstab: bad alpha grid '0:1:1e-9': 1e+09 points, over the bound of 100,001\n"
    assert captured.out == ""


def test_step_count_is_bounded_before_anything_is_built(capsys):
    _check_window(0.0, float(MAX_STEPS), 1.0)
    _check_window(2.0, 2.0 + MAX_STEPS / 4, 0.25)
    for start, end, step in ((0.0, MAX_STEPS + 1.0, 1.0), (2.0, 2.0 + MAX_STEPS / 4 + 0.25, 0.25),
                             (0.0, 1e300, 5e-324)):  # one step over; inf steps
        with pytest.raises(SpecError, match=f"over the bound of {MAX_STEPS:,}$"):
            _check_window(start, end, step)
    for argv, window in ((["simulate", "--t-end", "300"], "from 0 to --t-end 300"),
                         (["fundamental", "--s", "1", "--t-end", "301"], "from 1 to --t-end 301")):
        assert run([argv[0], corpus_path("ex1"), *argv[1:], "--step", "1e-12"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"ndstab: --step 1e-12 {window} takes 3e+14 steps, over the bound of 10,000,000\n"
        assert captured.out == ""


def test_grid_points_are_bounded_before_anything_is_built(capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_spec", None)  # a call would raise TypeError
    for grid in (MAX_GRID_POINTS + 1, 99999999999999999999):  # one point over; far over
        assert run(["check", corpus_path("ex2"), "--grid", str(grid)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"ndstab: --grid {grid} is over the bound of {MAX_GRID_POINTS:,}\n"
        assert captured.out == ""


def test_nan_coefficient_exits_2_with_witnesses_and_no_warning(tmp_path, capsys):
    # a = 0.5 sin(1e308 t^2) is NaN past t = 1.3408, where the argument overflows
    ex1 = json.loads((corpus_dir() / "ex1.json").read_text())
    a = ["scale", 0.5, ["sin", ["scale", 1e308, ["*", ["t"], ["t"]]]]]
    path = tmp_path / "nan_a.json"
    path.write_text(json.dumps({**ex1, "a": a, "overrides": {}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["check", str(path)]) == 2
    assert caught == []  # numpy's overflow and invalid-value warnings stay off stderr
    captured = capsys.readouterr()
    assert captured.err.startswith(f"ndstab: {path}: structural validation failed\n  [a1_a] ")
    assert captured.out == ""


_RECIPROCAL = ["/", ["const", 1.0], ["+", ["t"], ["const", -5.0]]]  # 1 / (t - 5)


@pytest.mark.parametrize("key, value, argv, witness", [
    # a quotient inside a's denominator, zero at a grid point
    ("a", ["/", ["const", 0.1], _RECIPROCAL], ["check", "--grid", "11"],
     "  [domain_a] quotient denominator in a(t) bounded away from zero; witness t = 5"),
    # a pole of f between the default grid's points, reached by the integration
    ("f", _RECIPROCAL, ["simulate", "--t-end", "6"],
     "  [f_finite] forcing f(t) defined and finite; witness t = 5.00005"),
], ids=["nested_denominator", "forcing_pole"])
def test_a_singular_spec_exits_2_with_a_witness(tmp_path, capsys, key, value, argv, witness):
    spec = {"a": ["const", 0.3], "b": ["const", 1.0], "g": ["+", ["t"], ["const", -1.0]],
            "h": ["+", ["t"], ["const", -1.0]], "t0": 0.0, "horizon": 10.0, key: value}
    p = tmp_path / "singular.json"
    p.write_text(json.dumps(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([argv[0], str(p), *argv[1:]]) == 2
    assert caught == []
    captured = capsys.readouterr()
    head, *rest = captured.err.splitlines()
    assert head == f"ndstab: {p}: structural validation failed"
    assert rest[0] == witness and captured.out == ""


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
    integrate(forced, 1.0, 2.0, 0.01).write_csv(want)
    assert outs[1] == want.getvalue() != outs[0]


@pytest.mark.parametrize("base", ["constant_lags", "ex1"])
def test_simulate_rejects_a_nan_forcing(tmp_path, capsys, base):
    # it used to write NaN rows (constant lags 1), or to blame a for a
    # recovery that did not contract (ex1)
    if base == "ex1":
        spec = json.loads((corpus_dir() / "ex1.json").read_text())
    else:
        spec = {"a": ["const", 0.3], "b": ["const", 1.0], "g": ["+", ["t"], ["const", -1.0]],
                "h": ["+", ["t"], ["const", -1.0]], "t0": 0.0, "horizon": 10.0}
    spec["f"] = ["const", math.nan]
    p = tmp_path / "nan_f.json"
    p.write_text(json.dumps(spec))
    assert run(["simulate", str(p), "--t-end", "1"]) == 2
    captured = capsys.readouterr()
    head, *rest = captured.err.splitlines()
    assert head == f"ndstab: {p}: structural validation failed"
    assert len(rest) == 1 and rest[0].startswith("  [f_finite] forcing f(t) defined and finite; witness t = 0, ")
    assert captured.out == ""


@pytest.mark.parametrize("name, argv, message", [
    ("nan_lag", ["--t-end", "460", "--step", "0.01"],
     "the retarded lag t - h(t) is nan at t=450.005; integration needs h(t) <= t"),
    ("ahead_lag", ["--t-end", "490", "--step", "0.01"],
     "the retarded lag t - h(t) is -0.0001 at t=475.005; integration needs h(t) <= t"),
    ("nan_g", ["--t-end", "6"], "x-recovery did not contract at t=5.001 (|a| >= 1 or broken spec?)"),
], ids=["nan_lag", "ahead_lag", "nan_g"])
def test_simulate_past_the_horizon_exits_2_where_a_lag_fails(capsys, name, argv, message):
    # each spec passes check on its horizon; past it, h turns NaN or ahead of
    # t, or g turns NaN on the scalar path.  simulate used to end in a
    # traceback (exit 1) or, where h(t) > t, to write the advanced equation's
    # trajectory (exit 0)
    path = str(DATA / f"{name}.json")
    assert run(["check", path]) == 0
    capsys.readouterr()
    assert run(["simulate", path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ndstab: {message}\n" and captured.out == ""


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


@pytest.mark.parametrize("text, message", [
    ('{"waived_mismatches": ["ex4:rhs_at_alpha_0.45"', "not valid JSON: Expecting "),
    ('["ex4:rhs_at_alpha_0.45"]', 'expected an object whose "waived_mismatches" is a list of strings'),
    ('{"waived_mismatches": "ex4:rhs_at_alpha_0.45"}',
     'expected an object whose "waived_mismatches" is a list of strings'),
    ('{"waived_mismatches": ["ex4:rhs_at_alpha_0.45", 7]}',
     'expected an object whose "waived_mismatches" is a list of strings'),
], ids=["invalid_json", "top_level_array", "string", "non_string_entry"])
def test_examples_exit_2_on_a_malformed_waivers_file(tmp_path, capsys, monkeypatch, text, message):
    # it used to end in a traceback and exit 1, the code of unwaived
    # mismatches, or to waive the single characters of a string; the file is
    # read before any report is built
    import shutil
    for f in corpus_dir().glob("ex*.json"):
        shutil.copy(f, tmp_path / f.name)
    (tmp_path / "waivers.json").write_text(text)
    monkeypatch.setenv("NDSTAB_CORPUS_DIR", str(tmp_path))
    monkeypatch.setattr(cli.report, "reproduce_examples", lambda *args, **kwargs: pytest.fail("reports built"))
    assert run(["examples", "--id", "4", "--no-simulation"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"ndstab: {tmp_path / 'waivers.json'}: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


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


def test_simulate_of_an_in_step_spec_matches_its_pinned_sha256(tmp_path):
    # retarded lag 0.3 to 0.45 steps and a shorter neutral lag: every midpoint
    # and k4 lookup lands inside its step and unwinds up to 5 levels of the
    # neutral term, the first ones into the sin history.  The SHA-256 was
    # recorded when those chains were walked one scalar call a level.
    out = tmp_path / "in_step.csv"
    assert run(["simulate", str(DATA / "in_step.json"), "--t-end", "2.0", "--step", "0.001",
                "--history", "sin", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (DATA / "in_step.sha256").read_text().strip()


def test_compare_table(capsys):
    code = run(["compare", corpus_path("ex3"), "--json"])
    assert code == 0
    rows = {r["criterion"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows["baseline_sqrt"]["threshold"] == pytest.approx(0.063246, abs=1e-6)
    assert rows["baseline_3_2"]["threshold"] == pytest.approx(0.002002, abs=1e-9)


# -- junk option values ------------------------------------------------------------------

# Every option of every subcommand (None: the top-level parser), with a cheap
# valid value: "spec" is the positional argument, and a flag is present
# (True) or not (False).
_CHEAP = {
    (None, "--seed"): "42",
    ("check", "spec"): "ex1", ("check", "--alpha"): "auto", ("check", "--grid"): "4001",
    ("check", "--json"): False,
    ("simulate", "spec"): "ex1", ("simulate", "--t-end"): "0.1", ("simulate", "--step"): "1e-3",
    ("simulate", "--history"): "seeded", ("simulate", "--out"): "sim.csv",
    ("sweep", "spec"): "ex2", ("sweep", "--param"): "r", ("sweep", "--alpha-grid"): "0:1:0.25",
    ("sweep", "--out"): "sweep.csv",
    ("examples", "--all"): False, ("examples", "--id"): "1", ("examples", "--no-simulation"): True,
    ("examples", "--json"): False,
    ("compare", "spec"): "ex1", ("compare", "--json"): False,
    ("fundamental", "spec"): "ex1", ("fundamental", "--s"): "0", ("fundamental", "--t-end"): "0.1",
    ("fundamental", "--step"): "1e-3", ("fundamental", "--out"): "fund.csv",
}
# junk for every option: non-numbers, NaN, infinities, zeros, negatives, extremes
_JUNK = ("", "x", "1:2", "nan", "-nan", "inf", "-inf", "1e400", "0", "-0.0", "-1", "-0.5",
         "1e308", "-1e308", "5e-324", "0x10", "1_0")
# values just over each bound (ex1 and ex2 start at t0 = 0, and --t-end is 0.1)
_OVER = {
    "--seed": ("-1", "3.5"),
    "spec": ("missing.json", ".", "list.json", "truncated.json", "failing.json"),
    "--alpha": ("1.0000000000000002", "-5e-324", "auto "),
    "--grid": ("1", "2.0", str(MAX_GRID_POINTS + 1)),
    "--t-end": ("0.0",),
    "--step": (repr(0.1 / (MAX_STEPS + 1)),),
    "--history": ("const:nan", "const:", "seeded:-1", "seeded:x", "seeded:1.5",
                  "seeded:99999999999999999999", "cos"),
    "--out": ("missing/x.csv", "."),
    "--param": ("R",),
    "--alpha-grid": (f"0:1:{1 / MAX_ALPHA_POINTS}", "0:1.0000000000000002:0.5", "-5e-324:1:0.5",
                     "0:1", "0:1:0.5:1", "1:0:0.5", "0:1:0"),
    "--id": ("6",),
    "--s": ("0.1",),
}


def _parser_options():
    import argparse
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {(None, a.option_strings[0]) for a in parser._actions
               if a.option_strings and a.dest != "help"}
    for name, sub in subs.choices.items():
        options |= {(name, a.option_strings[0] if a.option_strings else a.dest)
                    for a in sub._actions if a.dest != "help"}
    return options


def test_junk_table_covers_every_option():
    assert set(_CHEAP) == _parser_options()
    assert set(_OVER) == {opt for (_, opt), cheap in _CHEAP.items() if not isinstance(cheap, bool)}


def _junk_argv(tmp_path, command, option, value):
    """The cheap arguments of ``command``, with ``option`` set to ``value``.
    Paths but the corpus specs lie under ``tmp_path``; a flag given junk
    gets it as its value."""
    argv = []
    for (cmd, opt), cheap in _CHEAP.items():
        if cmd != command:
            continue
        v = value if opt == option else cheap
        if isinstance(cheap, bool):
            argv += [f"{opt}={v}"] if opt == option else [opt] * cheap
        elif opt == "spec":
            argv.append(corpus_path(v) if v in ("ex1", "ex2") else str(tmp_path / v))
        else:
            argv.append(f"{opt}={tmp_path / v if opt == '--out' else v}")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_junk_option_values_exit_0_or_2(tmp_path, data):
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "truncated.json").write_text('{"a": ["const", 0.5]')
    ex1 = json.loads((corpus_dir() / "ex1.json").read_text())
    (tmp_path / "failing.json").write_text(json.dumps({**ex1, "a": ["const", 1.5]}))
    command, option = data.draw(st.sampled_from(sorted(_CHEAP, key=str)))
    value = data.draw(st.sampled_from(_JUNK + _OVER.get(option, ())))
    if command is None:
        argv = [f"{option}={value}", "simulate", *_junk_argv(tmp_path, "simulate", None, None)]
    else:
        argv = [command, *_junk_argv(tmp_path, command, option, value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


# -- junk spec files ---------------------------------------------------------------

# numbers as JSON text: ordinary, zero, tiny, huge, non-finite, an integer
# too large for a float and one of more digits than Python converts
_SPEC_NUMBERS = ("0.5", "0.25", "-0.3", "2", "0", "-0.0", "5e-324", "1e308", "-1e308", "1e400",
                 "NaN", "Infinity", "-Infinity", "1" + "0" * 400, "9" * 5000)
_NUMBER = st.sampled_from(_SPEC_NUMBERS)
# every grammar tag, in trees of a few nodes
_SPEC_TREES = st.recursive(
    st.just('["t"]') | _NUMBER.map('["const", {}]'.format),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(("sin", "cos", "abs")), kids).map('["{0[0]}", {0[1]}]'.format),
        st.tuples(_NUMBER, kids).map('["scale", {0[0]}, {0[1]}]'.format),
        st.tuples(st.sampled_from("+*"), st.lists(kids, min_size=1, max_size=3)).map(
            lambda p: f'["{p[0]}", {", ".join(p[1])}]'),
        st.tuples(kids, kids).map('["/", {0[0]}, {0[1]}]'.format)),
    max_leaves=6)
# one layer of a deep chain, as the text before and after the inner tree
_LAYERS = (('["sin", ', "]"), ('["abs", ', "]"), ('["scale", 0.5, ', "]"), ('["+", ', "]"),
           ('["*", ["const", 0.5], ', "]"), ('["/", ', ', ["const", 2]]'))
# ex1 without its overrides, as JSON text
_SPEC_BASE = {"a": '["const", 0.6]', "b": '["const", 1.0]',
              "g": '["+", ["t"], ["scale", -0.2, ["abs", ["sin", ["t"]]]]]',
              "h": '["+", ["t"], ["const", -0.14]]', "t0": "0.0", "horizon": "400.0"}
_SPEC_ARGV = {"check": [], "compare": [], "sweep": ["--alpha-grid=0:1:0.5"],
              "simulate": ["--t-end=0.1"], "fundamental": ["--s=0", "--t-end=0.1"]}


@st.composite
def _junk_spec_text(draw):
    """A spec file's text: ex1 with some of its trees replaced by random
    ones, some wrapped in chains up to a few thousand deep (as text, since
    json.dumps recurses), and maybe junk numbers for t0, horizon or an
    override."""
    fields = dict(_SPEC_BASE)
    for key in draw(st.lists(st.sampled_from("abghf"), min_size=1, max_size=2, unique=True)):
        before, after = draw(st.sampled_from(_LAYERS))
        depth = draw(st.sampled_from((0, 0, 1, 98, 99, 100, 101, 500, 3000)))
        fields[key] = before * depth + draw(_SPEC_TREES) + after * depth
    for key in draw(st.lists(st.sampled_from(("t0", "horizon", "overrides")), max_size=1)):
        number = draw(_NUMBER)
        fields[key] = f'{{"norm_a": {number}}}' if key == "overrides" else number
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_SPEC_ARGV)), text=_junk_spec_text())
def test_junk_spec_files_exit_0_or_2(tmp_path, command, text):
    path = tmp_path / "junk.json"
    path.write_text(text)
    argv = [command, str(path), *_SPEC_ARGV[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2), (argv, text[:300], err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
