"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

From the root of a sensorval checkout, checks that:
- a tiny run of every workload finishes, traced and untraced, and emits
  every metric BENCHMARK.json names, with its unit;
- a seed without reference outputs falls back to invariants and says so;
- a deliberately perturbed reference output makes failed_frac > 0;
- in a directory holding only BENCHMARK.json and the benchmark, a run
  fails without printing a result.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench_out" / "selftest"
TIMEOUT_S = 300


def bench(workload: str, seed: int, trace: int = 0, reference=None,
          cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def perturbed(workload: str, seed: int, how) -> Path:
    """A copy of the workload's reference file with one output changed."""
    src = HERE / "reference" / f"{workload}.json.gz"
    with gzip.open(src, "rt") as fh:
        document = json.load(fh)
    how(document["seeds"][str(seed)])
    path = SCRATCH / f"{workload}-{how.__name__}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump(document, fh)
    return path


def flip_first_status(entry):
    path = entry["paths"][entry["cycles"][0]]
    first, rest = path[0].split(" ", 1)
    path[0] = first[:-1] + ("C" if first.endswith("F") else "F") + " " + rest


def shift_final_pf(entry):
    entry["paths"][entry["cycles"][0]][1][0] += 10_000   # 1e-6 in 1e-10 units


def change_report(entry):
    entry["reports"][0] = "0" * 64


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    SCRATCH.mkdir(parents=True, exist_ok=True)
    problems = []

    def expect(ok: bool, what: str, output: str = "") -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)
            print(output[-2000:])

    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out, result = bench(w["name"], 0, trace)
            emitted = {} if result is None else {
                n: m["unit"] for n, m in result["metrics"].items()}
            expect(code == 0 and result is not None and result["correct"]
                   and emitted == wanted[trace],
                   f"{w['name']} trace={trace}: tiny run finishes, correct, "
                   "every metric with its unit", out)

    code, out, result = bench("tree21-tree", 10_000)
    expect(code == 0 and result is not None and result["correct"]
           and "invariants only" in out,
           "seed without reference outputs: invariants checked", out)

    for workload, how in (("tree21-tree", flip_first_status),
                          ("tree21-online", shift_final_pf),
                          ("ref5-simulate", change_report)):
        code, out, result = bench(workload, 0,
                                  reference=perturbed(workload, 0, how))
        expect(code == 1 and result is not None and result["failed"] > 0,
               f"{workload}: perturbed reference ({how.__name__}) gives "
               "failed_frac > 0", out)

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = subprocess.run([*spec["command"], "--workload",
                           spec["workloads"][0]["name"], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program: non-zero exit and no result",
           proc.stdout + proc.stderr)
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print("self-test " + ("failed: " + "; ".join(problems) if problems
                          else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
