"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py --workload tree21-online --seeds 0-31

Runs every input of each seed once on the checkout's current code and
writes perfbench/reference/<workload>.json.gz.  Record only when the
program's outputs are meant to change; a run whose outputs differ from
the recording counts those cycles as failed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import subprocess
import sys
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="inclusive range such as 0-31")
    args = parser.parse_args()
    root = Path.cwd()
    problem = run.load_program(root)
    if problem:
        print(f"record_reference: {problem}", file=sys.stderr)
        return 2
    import workloads

    first, last = (int(x) for x in args.seeds.split("-"))
    workdir = root / run.OUT_DIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    seeds = {}
    for seed in range(first, last + 1):
        reference = workloads.Reference(args.workload, seed, recording=True)
        w = workloads.WORKLOADS[args.workload](seed, reference, workdir)
        w.setup()
        for k in range(w.n_inputs()):
            w.step(0, k, None)
        if w.failed:
            print(f"seed {seed}: {w.failures}", file=sys.stderr)
            return 1
        seeds[str(seed)] = reference.entry_from_recording()
        print(f"seed {seed}: {w.attempted} cycles recorded", flush=True)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json.gz"
    path.parent.mkdir(exist_ok=True)
    document = {
        "workload": args.workload,
        "recorded_at": commit or "unknown",
        "format": "paths: [sensor+status sequence (F faulty, C correct), "
                  "final pf * 1e10 as ints in sorted sensor order]; "
                  "cycles: index into paths per input; "
                  "reports: sha256 of each simulate report",
        "seeds": seeds,
    }
    with gzip.open(path, "wt", compresslevel=9) as fh:
        json.dump(document, fh, separators=(",", ":"))
    print(f"-> {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
