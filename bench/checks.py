"""Output checks run on every request.

``check`` returns the list of problems found with one request's outcome;
an empty list means the output is correct.  Invariants hold on any seed.
Corpus requests do not depend on the seed, so their outputs are also
compared with ``references.json`` (recorded from the same requests by
``record_references.py``): CSV outputs byte for byte by SHA-256, numbers
within ``REL_TOL`` relative to max(1, |reference|), everything else exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import ev

REL_TOL = 1e-9
IDENTITY_TOL = 1e-8      # |x - a x(g) - y| relative to max(1, max |x|, max |y|)
ALPHA_GRID = 101         # rows of the default sweep grid 0:1:0.01
VERDICT_FIELDS = ("criterion", "applicable", "satisfied", "margin", "alpha", "kind", "certification")


@dataclass
class Outcome:
    exit: int | None = None
    error_type: str | None = None
    error: str | None = None
    stdout: str = ""
    stderr: str = ""
    result: object = None


# -- helpers ------------------------------------------------------------------------

def close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def diff(got, ref, where="") -> list[str]:
    """Differences between two JSON-like views; floats within REL_TOL."""
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if close(float(got), ref) else [f"{where}: {got!r} != reference {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(got)} != reference {sorted(ref)}"]
        return [p for k in ref for p in diff(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: {len(got)} items != reference {len(ref)}"]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in diff(g, r, f"{where}[{i}]")]
    return [] if got == ref else [f"{where}: {got!r} != reference {ref!r}"]


def read_csv(path: str, columns: int):
    """(sha256, header, rows as a float array) of a CSV with CRLF line ends."""
    data = Path(path).read_bytes()
    if not data.endswith(b"\r\n") or data.count(b"\n") != data.count(b"\r\n"):
        raise ValueError("CSV lines do not all end with CRLF")
    header = data[:data.index(b"\r\n")].decode("ascii")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, columns)
    return hashlib.sha256(data).hexdigest(), header, rows


def _verdict_problems(verdicts, where) -> list[str]:
    out = []
    for v in verdicts:
        m = v.get("margin")
        if v["satisfied"] != (m is not None and m > 0.0):
            out.append(f"{where} {v['criterion']}: satisfied={v['satisfied']} but margin={m}")
        if not v["applicable"] and (v["satisfied"] or m is not None):
            out.append(f"{where} {v['criterion']}: not applicable but satisfied or with a margin")
    return out


def _verdict_view(verdicts):
    return [{k: v[k] for k in VERDICT_FIELDS} for v in verdicts]


# -- views: the part of an output compared with references ---------------------------------

def view(req, outcome: Outcome, spec: dict):
    kind = req.kind
    if kind == "check":
        return _verdict_view(json.loads(outcome.stdout))
    if kind == "compare":
        return json.loads(outcome.stdout)
    if kind in ("examples", "examples_nosim"):
        data = json.loads(outcome.stdout)
        return {
            "unwaived_mismatches": data["unwaived_mismatches"],
            "reports": [{
                "id": r["id"],
                "verdicts": _verdict_view(r["verdicts"]),
                "quantities": [[q["name"], q["derived"], q["match"]] for q in r["quantities"]],
                "claims": [[c["name"], c["holds"]] for c in r["claims"]],
                "mismatches": r["mismatches"],
                "simulation": None if r["simulation"] is None else
                [r["simulation"]["verdict"], r["simulation"]["rate"]],
            } for r in data["reports"]],
        }
    if kind in ("simulate", "fundamental", "sweep"):
        sha, _, rows = read_csv(req.out, 3)
        return {"sha256": sha, "rows": len(rows)}
    res = outcome.result
    if kind == "big_B":
        return [float(v) for v, _ in res]
    if kind == "neumann_inverse":
        out, cert = res
        return {"terms": cert.terms, "sup": float(np.max(np.abs(out.values))),
                "sum": float(np.sum(out.values))}
    if kind == "lemma5_condition":
        return [bool(res[0]), float(res[1])]
    if kind == "lemma4_check":
        return float(res)
    raise ValueError(f"no view for {kind}")


# -- invariants per request kind -------------------------------------------------------------

def _check_verdicts(req, outcome, spec):
    verdicts = json.loads(outcome.stdout)
    if not verdicts:
        return ["check returned no verdicts"]
    return _verdict_problems(verdicts, "check")


def _check_compare(req, outcome, spec):
    out = []
    for row in json.loads(outcome.stdout):
        thr = row["threshold"]
        if row["applicable"] != (thr is not None):
            out.append(f"compare {row['criterion']}: applicable={row['applicable']} threshold={thr}")
        elif thr is not None and not (math.isfinite(thr) and thr > 0.0):
            out.append(f"compare {row['criterion']}: threshold {thr} not finite and positive")
    return out


def _check_sweep(req, outcome, spec):
    _, header, rows = read_csv(req.out, 3)
    if header != "alpha,r_lower,r_upper":
        return [f"sweep header {header!r}"]
    if len(rows) != ALPHA_GRID:
        return [f"sweep has {len(rows)} rows, expected {ALPHA_GRID}"]
    if np.max(np.abs(rows[:, 0] - 0.01 * np.arange(ALPHA_GRID))) > 1e-12:
        return ["sweep alpha column differs from the grid 0:1:0.01"]
    if np.any(np.isnan(rows[:, 1:])):
        return ["sweep band is NaN"]
    return []


def _check_examples(req, outcome, spec):
    data = json.loads(outcome.stdout)
    out = []
    if data["unwaived_mismatches"]:
        out.append(f"unwaived mismatches {data['unwaived_mismatches']}")
    if len(data["reports"]) != 5:
        out.append(f"{len(data['reports'])} example reports, expected 5")
    for r in data["reports"]:
        out += _verdict_problems(r["verdicts"], r["id"])
        sim = r["simulation"]
        if (sim is None) != (req.kind == "examples_nosim"):
            out.append(f"{r['id']}: simulation present={sim is not None}")
    return out


def _check_trajectory(req, outcome, spec):
    _, header, rows = read_csv(req.out, 3)
    if header != "t,x,y":
        return [f"trajectory header {header!r}"]
    if len(rows) != req.steps + 1:
        return [f"trajectory has {len(rows)} rows, expected steps + 1 = {req.steps + 1}"]
    if not np.all(np.isfinite(rows)):
        return ["trajectory has non-finite values"]
    t_col, x, y = rows.T
    t0 = float(req.argv[req.argv.index("--s") + 1]) if req.kind == "fundamental" else spec["t0"]
    step = float(req.argv[req.argv.index("--step") + 1])
    tn = t0 + step * np.arange(len(rows))
    if np.max(np.abs(t_col - tn) / np.maximum(1.0, np.abs(tn))) > 1e-9:
        return ["trajectory time column is not t0 + i*step"]
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    if req.kind == "fundamental":
        # a = 0 and g(t) = t: the identity reads x = y; the impulse is x(s) = 1
        if x[0] != 1.0:
            return [f"fundamental x(s) = {x[0]}, expected 1"]
        resid = np.abs(x - y)
    else:
        gv = ev(spec["g"], tn)
        inside = gv >= t0
        xg = np.interp(gv[inside], tn, x)
        resid = np.abs(x[inside] - ev(spec["a"], tn[inside]) * xg - y[inside])
    worst = float(np.max(resid)) if resid.size else 0.0
    if worst > IDENTITY_TOL * scale:
        return [f"neutral identity x - a x(g) = y off by {worst:.3g}"]
    return []


def _check_big_B(req, outcome, spec):
    res = outcome.result
    ts = np.array(req.api["ts"])
    if len(res) != len(ts):
        return [f"big_B returned {len(res)} values for {len(ts)} times"]
    vals = np.array([v for v, _ in res])
    certs = [c for _, c in res]
    if not np.all(np.isfinite(vals)) or any(c.tail_bound > c.tol for c in certs):
        return ["big_B value not finite or truncation tail above tol"]
    # independent series b(t) sum_j prod_{k<j} a(h(g^[k](t))), same term count
    pp = req.api["positive_part"]
    t0, inf_a = spec["t0"], spec["overrides"]["inf_a"]
    u, total, prod = ts.copy(), np.zeros_like(ts), np.ones_like(ts)
    for _ in range(certs[0].terms):
        total = total + prod
        arg = ev(spec["h"], u)
        factor = np.where(arg >= t0, ev(spec["a"], arg), 0.0 if pp else inf_a)
        prod = prod * (np.maximum(factor, 0.0) if pp else factor)
        u = ev(spec["g"], u)
    ref = ev(spec["b"], ts) * total
    worst = float(np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))))
    return [] if worst <= REL_TOL else [f"big_B differs from the direct series by {worst:.3g}"]


def neumann_input(api):
    ts = api["t0"] + api["step"] * np.arange(api["points"])
    return ts, np.cos(ts)


def _check_neumann(req, outcome, spec):
    out, cert = outcome.result
    ts, y = neumann_input(req.api)
    # (E - S) out = y - S^J y, and |S^J y| <= tail bound
    gv = ev(spec["g"], ts)
    s_out = np.where(gv >= spec["t0"], ev(spec["a"], ts) * np.interp(gv, ts, out.values), 0.0)
    worst = float(np.max(np.abs(out.values - s_out - y)))
    limit = cert.tail_bound + REL_TOL * max(1.0, float(np.max(np.abs(y))))
    return [] if worst <= limit else [f"(E - S) inverse residual {worst:.3g} > {limit:.3g}"]


def _check_lemma5(req, outcome, spec):
    ok, margin = outcome.result
    if ok != (margin >= -1e-12):
        return [f"lemma5_condition ok={ok} with margin {margin}"]
    grid = np.array(req.api["grid"])
    lo = ev(spec["h"], grid)
    n = 2048
    xs = lo[:, None] + (grid - lo)[:, None] * np.linspace(0.0, 1.0, n + 1)[None, :]
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    ints = (grid - lo) / (3.0 * n) * np.sum(w * ev(spec["b"], xs), axis=1)
    ref = 1.0 / math.e - float(np.max(ints))
    return [] if close(margin, ref) else [f"lemma5 margin {margin} != direct quadrature {ref}"]


def _check_lemma4(req, outcome, spec):
    v = outcome.result
    return [] if math.isfinite(v) and v >= 0.0 else [f"lemma4_check value {v}"]


_INVARIANTS = {
    "check": _check_verdicts,
    "compare": _check_compare,
    "sweep": _check_sweep,
    "examples": _check_examples,
    "examples_nosim": _check_examples,
    "simulate": _check_trajectory,
    "fundamental": _check_trajectory,
    "big_B": _check_big_B,
    "neumann_inverse": _check_neumann,
    "lemma5_condition": _check_lemma5,
    "lemma4_check": _check_lemma4,
}


def check(req, outcome: Outcome, spec: dict | None, refs: dict | None) -> list[str]:
    """Problems with one request's outcome (empty when correct).  With
    ``refs`` None the corpus outputs are not compared with references."""
    if outcome.error_type is not None:
        return [f"raised {outcome.error_type}: {outcome.error}"]
    if req.argv is not None:
        if outcome.exit != req.expect_exit:
            return [f"exit code {outcome.exit}, expected {req.expect_exit}"]
        if req.expect_exit == 2:
            return [] if outcome.stderr.startswith("ndstab: ") else ["exit 2 without a message"]
    try:
        problems = _INVARIANTS[req.kind](req, outcome, spec)
        if req.corpus and refs is not None and not problems:
            ref = refs.get(req.kind, {}).get(req.spec_id)
            if ref is None:
                problems = [f"no reference for {req.kind} {req.spec_id}"]
            else:
                problems = diff(view(req, outcome, spec), ref, f"{req.kind} {req.spec_id}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
