"""Seeded spec generator and the request list of each workload.

Categorical properties (delay kind, constant or varying lags, overrides,
neutral lag shorter or longer than the retarded lag, integrator path,
history, malformed kind) are assigned by cycling over the spec index, so
every seed gives the same mix; the seed only draws the numbers inside each
category.  The request list is then put in one fixed shuffled order, so any
prefix of it (a run can stop part-way through a pass) has about the same
mix.  That keeps per-seed medians comparable.

Nothing here imports ndstab: specs are written as JSON files and the
program sees only those files and the argv that names them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STEP = 1e-3          # --step of every simulate / fundamental request
CHUNK_MIN_STEPS = 8  # documented rule: min retarded lag >= 8 steps -> chunked
CORPUS_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5")
WORKLOADS = ("analyze", "simulate", "scalar")

# Corpus requests do not depend on the seed, so their outputs are compared
# with the references recorded in references.json on every run.
CORPUS_SIM = {  # id -> (t_end, history)
    "ex1": (300.0, "const:1"),
    "ex2": (50.0, "sin"),
    "ex3": (50.0, "seeded:7"),
    "ex4": (300.0, "const:1"),
    "ex5": (50.0, "sin"),
}
CORPUS_FUND_SPAN = 10.0
SWEEP_CORPUS = ("ex2", "ex3")          # b-linear corpus families
LEMMA4_CORPUS = ("ex1", "ex4", "ex5")  # sup int_{h(t)}^t b <= 1/e holds
BIG_B_POINTS = 64
LEMMA5_POINTS = 64
NEUMANN_STEP = 0.01
NEUMANN_POINTS = 2001

MALFORMED = ("bad_json", "bad_json", "unknown_key", "unknown_key",
             "a_not_contractive", "a_not_contractive")
# ROADMAP item 5b: these must exit 2 but raise an uncaught SummaryError
# today.  They run once per analyze run as a probe, outside the timed
# request list, so that no operation of the measured loop fails.
KNOWN_DEFECTS = {"nan_override": "SummaryError", "range_override": "SummaryError"}


# -- independent evaluator of the JSON expression grammar -------------------------

def ev(node, t):
    """Evaluate a nested-array expression on a numpy array of times."""
    tag = node[0]
    if tag == "const":
        return np.full(np.shape(t), float(node[1]))
    if tag == "t":
        return np.asarray(t, dtype=float)
    if tag == "scale":
        return float(node[1]) * ev(node[2], t)
    args = [ev(c, t) for c in node[1:]]
    if tag == "+":
        return sum(args[1:], args[0])
    if tag == "*":
        out = args[0]
        for a in args[1:]:
            out = out * a
        return out
    if tag == "/":
        return args[0] / args[1]
    return {"sin": np.sin, "cos": np.cos, "abs": np.abs}[tag](args[0])


def tree_nodes(node) -> int:
    if node[0] == "scale":
        return 1 + tree_nodes(node[2])
    return 1 + sum(tree_nodes(c) for c in node[1:] if isinstance(c, list))


def n_steps(t0: float, t_end: float, step: float = STEP) -> int:
    return max(1, int(math.ceil((t_end - t0) / step - 1e-9)))


def integrator_path(spec: dict, t_end: float, step: float = STEP) -> str:
    """Path the integrator takes, by the documented rule on the stage grid."""
    n = n_steps(spec["t0"], t_end, step)
    ts = spec["t0"] + 0.5 * step * np.arange(2 * n + 1)
    lag_min = float(np.min(ts - ev(spec["h"], ts)))
    return "chunked" if int(lag_min / step + 1e-12) >= CHUNK_MIN_STEPS else "scalar"


def properties(spec: dict, points: int = 4001) -> dict:
    """Input properties measured from the spec itself."""
    ts = np.linspace(spec["t0"], spec["horizon"], points)
    lag_g = ts - ev(spec["g"], ts)
    lag_h = ts - ev(spec["h"], ts)
    span = max(1.0, spec["horizon"] - spec["t0"])
    return {
        "neutral_shorter": bool(lag_g.min() < lag_h.min()),
        "overrides": bool(spec.get("overrides")),
        "pantograph": bool(lag_h[-1] > 10.0 * max(lag_h[0], 1e-300)),
        "constant_lags": bool(np.ptp(lag_g) <= 1e-9 * span and np.ptp(lag_h) <= 1e-9 * span),
    }


# -- expression builders ------------------------------------------------------------

def _c(v):
    return ["const", float(v)]


def _t():
    return ["t"]


def _wave(fn, omega):
    return ["abs", [fn, ["scale", float(omega), _t()]]]


def _lagged(lag0, lag1=0.0, fn="sin", omega=1.0):
    """t - lag0 - lag1*|fn(omega t)|."""
    parts = [_t(), _c(-lag0)]
    if lag1:
        parts.append(["scale", -float(lag1), _wave(fn, omega)])
    return ["+"] + parts


def _coef_a(rng, kind):
    """Neutral coefficient and its exact sup/inf over any window of length >= 2 pi."""
    if kind == "const":
        a0 = rng.uniform(0.1, 0.7)
        return _c(a0), a0, a0
    if kind == "wave":
        a0 = rng.uniform(0.25, 0.6)
        a1 = rng.uniform(0.02, 0.2)
        return ["+", _c(a0), ["scale", a1, ["cos", _t()]]], a0 + a1, a0 - a1
    a1 = rng.uniform(0.2, 0.7)  # sign-changing
    return ["scale", a1, ["sin", _t()]], a1, -a1


def _coef_b(rng, kind, unit):
    amp = 1.0 if unit else rng.uniform(0.2, 1.5)
    if kind == "const":
        return _c(amp), amp, amp
    b1 = rng.uniform(0.05, 0.3)
    return (["scale", amp, ["+", _c(1.0 - b1), ["scale", b1, ["sin", _t()]]]],
            amp, amp * (1.0 - 2.0 * b1))


def _a_overrides(norm_a, inf_a):
    # every generated a attains sup a = norm_a
    return {"norm_a": norm_a, "inf_a": inf_a, "norm_a_plus": norm_a, "norm_a_minus": max(-inf_a, 0.0)}


def bounded_lag_spec(rng, i, *, lag_range, neutral_shorter, constant_lags, overrides,
                     a_kind, b_kind, b_unit, horizon):
    """Bounded-lag spec: g(t) = t - sigma(t), h(t) = t - tau(t)."""
    lo, hi = lag_range
    tau0 = rng.uniform(lo, hi)
    tau1 = 0.0 if constant_lags else rng.uniform(0.1, 0.5) * tau0
    if neutral_shorter:
        sigma0 = rng.uniform(0.2, 0.6) * tau0
    else:
        sigma0 = rng.uniform(1.5, 3.0) * (tau0 + tau1)
    sigma1 = 0.0 if constant_lags else rng.uniform(0.1, 0.5) * sigma0
    omega = rng.uniform(0.5, 2.0)
    a, norm_a, inf_a = _coef_a(rng, a_kind)
    b, norm_b, inf_b = _coef_b(rng, b_kind, b_unit)
    spec = {
        "name": f"gen-bounded-{i}",
        "a": a, "b": b,
        "g": _lagged(sigma0, sigma1, "cos", omega),
        "h": _lagged(tau0, tau1, "sin", omega),
        "t0": 0.0, "horizon": float(horizon),
    }
    if overrides:
        ov = _a_overrides(norm_a, inf_a)
        ov.update(norm_b=norm_b, inf_b=inf_b, sigma=sigma0 + sigma1, tau=tau0 + tau1, delta=tau0)
        if constant_lags:
            ov["limit_tau"] = tau0
            if b_kind == "const":
                ov.update(limsup_int_b=norm_b * tau0, tilde_tau=norm_b * tau0,
                          tilde_delta=norm_b * tau0, tilde_sigma=norm_b * sigma0)
        spec["overrides"] = ov
    return spec


def pantograph_spec(rng, i, *, overrides, neutral_shorter=None):
    """Proportional delays g = t/p, h = t/q with b = c/t, so int_{h(t)}^t b = c ln q."""
    q = rng.uniform(1.5, 4.0)
    if neutral_shorter is None:
        p = rng.uniform(1.5, 4.0)
    else:  # lag t(1 - 1/p) against t(1 - 1/q)
        p = rng.uniform(1.1, 0.5 * (1.0 + q)) if neutral_shorter else rng.uniform(q + 0.5, q + 3.0)
    a0 = rng.uniform(0.1, 0.6)
    c = rng.uniform(0.05, 0.3)
    spec = {
        "name": f"gen-pantograph-{i}",
        "a": _c(a0),
        "b": ["/", _c(c), _t()],
        "g": ["/", _t(), _c(p)],
        "h": ["/", _t(), _c(q)],
        "t0": 1.0, "horizon": float(rng.choice((200.0, 400.0))),
    }
    if overrides:
        ov = _a_overrides(a0, a0)
        ov.update(tilde_tau=c * math.log(q), tilde_delta=c * math.log(q), tilde_sigma=c * math.log(p))
        spec["overrides"] = ov
    return spec


def malformed_text(rng, kind, base: dict) -> str:
    spec = json.loads(json.dumps(base))
    spec["name"] = f"malformed-{kind}"
    ov = spec.setdefault("overrides", {})
    if kind == "bad_json":
        text = json.dumps(spec)
        return text[: rng.randrange(len(text) // 4, 3 * len(text) // 4)]
    if kind == "unknown_key":
        ov["norm_c"] = 0.5
    elif kind == "a_not_contractive":
        spec["a"] = _c(rng.uniform(1.0, 1.5))
    elif kind == "nan_override":
        ov["norm_a"] = float("nan")
    elif kind == "range_override":
        ov["norm_a"] = 1.5
    return json.dumps(spec)


# -- requests -------------------------------------------------------------------------

@dataclass
class Request:
    """One operation of the closed loop.  ``argv`` for ndstab.cli.run, or
    ``api`` naming a library call (bound by the runner)."""

    rid: int
    kind: str
    spec_id: str
    argv: list | None = None
    api: dict | None = None
    expect_exit: int = 0
    out: str | None = None
    path: str | None = None        # integrator path, simulate/fundamental only
    steps: int = 0
    malformed: str | None = None
    corpus: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    specs: dict = field(default_factory=dict)        # spec_id -> dict (well-formed)
    spec_paths: dict = field(default_factory=dict)   # spec_id -> path, every spec
    requests: list = field(default_factory=list)
    malformed: dict = field(default_factory=dict)    # spec_id -> kind
    probes: list = field(default_factory=list)       # known-defect requests, not timed
    b_linear: set = field(default_factory=set)

    def add(self, **kw) -> Request:
        req = Request(rid=len(self.requests), **kw)
        self.requests.append(req)
        return req

    def property_shares(self) -> dict:
        props = [properties(s) for s in self.specs.values()]
        shares = {k: sum(p[k] for p in props) / len(props) for k in props[0]}
        sims = [r for r in self.requests if r.kind == "simulate"]
        if sims:
            shares["path_chunked"] = sum(r.path == "chunked" for r in sims) / len(sims)
            shares["path_scalar"] = sum(r.path == "scalar" for r in sims) / len(sims)
        return shares


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _add_corpus(wl: Workload, corpus_dir: Path):
    for cid in CORPUS_IDS:
        path = corpus_dir / f"{cid}.json"
        wl.specs[cid] = json.loads(path.read_text())
        wl.spec_paths[cid] = str(path)


def build(name: str, seed: int, work: Path, corpus_dir: Path) -> Workload:
    """Generate the specs of one workload under ``work`` and its request list."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (have {', '.join(WORKLOADS)})")
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, seed)
    _add_corpus(wl, corpus_dir)
    {"analyze": _build_analyze, "simulate": _build_simulate, "scalar": _build_scalar}[name](wl, rng, work)
    # the list length does not depend on the seed, so neither does this order
    random.Random(0).shuffle(wl.requests)
    for rid, req in enumerate(wl.requests):
        req.rid = rid
    return wl


def _save_generated(wl: Workload, work: Path, sid: str, spec: dict):
    wl.specs[sid] = spec
    wl.spec_paths[sid] = _write(work / f"{sid}.json", json.dumps(spec, indent=1))


def _build_analyze(wl, rng, work):
    # 6 strata x 16: bounded lag {constant, varying} x overrides {yes, no},
    # pantograph x overrides {yes, no}
    for i in range(96):
        stratum, overrides = divmod(i % 6, 2)
        if stratum < 2:
            a_kind = ("const", "wave", "sign")[(i // 6) % 3]
            unit = (i // 18) % 2 == 0
            spec = bounded_lag_spec(
                rng, i, lag_range=(0.1, 2.0), neutral_shorter=(i // 6) % 2 == 1,
                constant_lags=stratum == 0, overrides=bool(overrides), a_kind=a_kind,
                b_kind=("const", "wave")[(i // 12) % 2], b_unit=unit,
                horizon=rng.choice((200.0, 300.0, 400.0)))
            if a_kind != "sign" and unit:
                wl.b_linear.add(f"g{i:03d}")
        else:
            spec = pantograph_spec(rng, i, overrides=bool(overrides))
        _save_generated(wl, work, f"g{i:03d}", spec)
    for j, kind in enumerate(MALFORMED + tuple(KNOWN_DEFECTS)):
        sid = f"m{j}"
        base = wl.specs[f"g{rng.randrange(96):03d}"]
        path = _write(work / f"{sid}.json", malformed_text(rng, kind, base))
        if kind in KNOWN_DEFECTS:
            for cmd in ("check", "compare"):
                wl.probes.append(Request(rid=-1 - len(wl.probes), kind=cmd, spec_id=sid,
                                         argv=[cmd, path, "--json"], expect_exit=2,
                                         malformed=kind))
            continue
        wl.spec_paths[sid] = path
        wl.malformed[sid] = kind

    for sid, path in wl.spec_paths.items():
        bad = wl.malformed.get(sid)
        exit_code = 2 if bad else 0
        corpus = sid in CORPUS_IDS
        wl.add(kind="check", spec_id=sid, argv=["check", path, "--json"],
               expect_exit=exit_code, malformed=bad, corpus=corpus)
        wl.add(kind="compare", spec_id=sid, argv=["compare", path, "--json"],
               expect_exit=exit_code, malformed=bad, corpus=corpus)
        if sid in wl.b_linear or sid in SWEEP_CORPUS:
            out = str(work / "sweep.csv")
            wl.add(kind="sweep", spec_id=sid, argv=["sweep", path, "--out", out],
                   out=out, corpus=corpus)
    wl.add(kind="examples_nosim", spec_id="corpus",
           argv=["examples", "--no-simulation", "--json"], corpus=True)


def _sim_request(wl, sid, t_end, history, out, corpus=False):
    spec = wl.specs[sid]
    wl.add(kind="simulate", spec_id=sid,
           argv=["simulate", wl.spec_paths[sid], "--t-end", repr(t_end), "--step", repr(STEP),
                 "--history", history, "--out", out],
           out=out, path=integrator_path(spec, t_end), steps=n_steps(spec["t0"], t_end),
           corpus=corpus)


def _history(rng, i):
    return ("const:1", "sin", f"seeded:{rng.randrange(1, 10_000)}")[i % 3]


def _build_simulate(wl, rng, work):
    out = str(work / "traj.csv")
    for cid, (t_end, hist) in CORPUS_SIM.items():
        _sim_request(wl, cid, t_end, hist, out, corpus=True)
    # 96 chunked-path specs over 5 time units (5000 steps): one third with the
    # neutral lag shorter than the retarded lag, so hard nodes need recovery
    for i in range(96):
        shorter = i % 3 == 0
        if i % 8 == 7:
            spec = pantograph_spec(rng, i, overrides=i % 2 == 0, neutral_shorter=shorter)
        else:
            spec = bounded_lag_spec(
                rng, i, lag_range=(0.05, 1.0), neutral_shorter=shorter,
                constant_lags=(i // 3) % 2 == 0, overrides=(i // 6) % 2 == 0,
                a_kind=("const", "wave", "sign")[(i // 12) % 3],
                b_kind=("const", "wave")[(i // 2) % 2], b_unit=False, horizon=400.0)
        sid = f"g{i:03d}"
        _save_generated(wl, work, sid, spec)
        _sim_request(wl, sid, spec["t0"] + 5.0, _history(rng, i), out)
    wl.add(kind="examples", spec_id="corpus", argv=["examples", "--json"], corpus=True)


def _build_scalar(wl, rng, work):
    out = str(work / "traj.csv")
    # 48 scalar-path specs over 2 time units (2000 steps): retarded lags under
    # 8 steps, a third of them starting under one step (lookups inside the
    # current step evaluate a and g one time at a time)
    for i in range(48):
        lag_range = (0.0003, 0.0008) if i % 3 == 0 else (0.0015, 0.005)
        spec = bounded_lag_spec(
            rng, i, lag_range=lag_range, neutral_shorter=(i // 3) % 2 == 0,
            constant_lags=(i // 6) % 2 == 0, overrides=True,
            a_kind=("const", "wave", "sign")[(i // 12) % 3],
            b_kind=("const", "wave")[i % 2], b_unit=False, horizon=400.0)
        sid = f"s{i:03d}"
        _save_generated(wl, work, sid, spec)
        _sim_request(wl, sid, spec["t0"] + 2.0, _history(rng, i), out)
    for cid in CORPUS_IDS:
        t0 = wl.specs[cid]["t0"]
        t_end = t0 + CORPUS_FUND_SPAN
        wl.add(kind="fundamental", spec_id=cid,
               argv=["fundamental", wl.spec_paths[cid], "--s", repr(t0), "--t-end", repr(t_end),
                     "--step", repr(STEP), "--out", out],
               out=out, path=integrator_path(wl.specs[cid], t_end), steps=n_steps(t0, t_end),
               corpus=True)
    # library calls: the first 24 scalar-path specs and the corpus
    for sid in [f"s{i:03d}" for i in range(24)] + list(CORPUS_IDS):
        spec = wl.specs[sid]
        corpus = sid in CORPUS_IDS
        t0 = spec["t0"]
        wl.add(kind="big_B", spec_id=sid, corpus=corpus,
               api={"ts": list(np.linspace(t0 + 1.0, t0 + 50.0, BIG_B_POINTS)),
                    "positive_part": spec["overrides"]["inf_a"] <= 0.0})
        if corpus or int(sid[1:]) % 2 == 0:
            wl.add(kind="neumann_inverse", spec_id=sid, corpus=corpus,
                   api={"t0": t0, "step": NEUMANN_STEP, "points": NEUMANN_POINTS})
            wl.add(kind="lemma5_condition", spec_id=sid, corpus=corpus,
                   api={"grid": list(np.linspace(t0 + 1.0, t0 + 50.0, LEMMA5_POINTS))})
        if sid in LEMMA4_CORPUS:
            wl.add(kind="lemma4_check", spec_id=sid, corpus=True,
                   api={"s_grid": list(np.linspace(t0, t0 + 3.0, 9)), "t_end": t0 + 3.0,
                        "step": STEP})
