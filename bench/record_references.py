#!/usr/bin/env python3
"""Record references.json from the corpus requests of every workload.

Run from the root of a checkout whose outputs are the accepted ones:

    python3 bench/record_references.py

Corpus requests do not depend on the seed.  Every output must pass its
invariants before it is recorded.
"""

import json
import shutil
import sys
from pathlib import Path

from run import BENCH, Runner, load_program

import checks
import workloads


def main() -> int:
    root = Path.cwd()
    nd = load_program(root)
    work = root / ".bench_work" / "references"
    refs = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 0, work, nd.corpus_dir())
            runner = Runner(nd, wl, {})
            runner.prepare()
            for req in wl.requests:
                if not req.corpus:
                    continue
                out = checks.Outcome()
                runner._timed(req, out)
                spec = wl.specs.get(req.spec_id)
                problems = checks.check(req, out, spec, None)
                if problems:
                    print(f"{req.kind} {req.spec_id}: {problems}", file=sys.stderr)
                    return 1
                refs.setdefault(req.kind, {})[req.spec_id] = checks.view(req, out, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, refs.values()))} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
