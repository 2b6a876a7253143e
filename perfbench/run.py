"""sensorval benchmark: one workload per run, one result line.

Run from the root of a sensorval checkout:

    python3 perfbench/run.py --workload tree21-tree --seed 1 --seconds 45 --trace 0

The seed makes the inputs; the run sets up several times, measures for
``--seconds``, checks every output against the reference outputs recorded
for that seed (or against invariants, for a seed with none), and prints
the metrics, ending with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WARMUP_S = 1.0              # untimed steps after the first set-up
TRACED_SHARE = 0.5          # of --seconds, in a traced run; the rest untraced
OUT_DIR = ".perfbench_out"

END_TO_END = {
    "cycle_ms.p50": "ms",
    "cycle_ms.p90": "ms",
    "first_step_ms.p50": "ms",
    "first_step_ms.p90": "ms",
    "cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "anytime.select.calls": "1/cycle",
    "anytime.select.self_ms": "ms/cycle",
    "anytime.select.share": "fraction",
    "anytime.score.per_select": "count",
    "isolation.belief.score_calls": "1/cycle",
    "isolation.belief.update_calls": "1/cycle",
    "isolation.belief.score_self_ms": "ms/cycle",
    "isolation.belief.update_self_ms": "ms/cycle",
    "isolation.belief.distinct_ratio": "fraction",
    "inference.noisy_or.calls": "1/cycle",
    "inference.noisy_or.self_ms": "ms/cycle",
    "detection.validate.calls": "1/cycle",
    "detection.validate.self_ms": "ms/cycle",
    "detection.validate.share": "fraction",
    "detection.faulty_ratio": "fraction",
    "detection.distinct_ratio": "fraction",
    "inference.posterior_marginal.calls": "1/cycle",
    "inference.posterior_marginal.self_ms": "ms/cycle",
    "anytime.serialize.self_ms": "ms/cycle",
    "unwrapped.self_ms": "ms/cycle",
    "anytime.compile.ms": "ms",
    "anytime.compile.nodes": "count",
    "anytime.compile.select_calls": "count",
    "harness.generate.ms": "ms",
    "harness.learn.ms": "ms",
    "harness.calibrate.ms": "ms",
    "harness.experiments.self_ms": "ms/cycle",
    "harness.records": "count",
    "harness.trace_steps": "count",
    "harness.evaluate.ms": "ms",
    "cli.simulate.self_ms": "ms",
    "trace.cycles_per_s": "1/s",
    "trace.overhead": "ratio",
}


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def percentile(values: list[float], q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q))


def end_to_end(w, setup_spans: list, scaled: bool = True) -> dict:
    """Latencies are percentiles over the inputs of each input's mean time
    over its passes; every time is scaled to the reference speed unless
    ``scaled`` is false.  See NOTES.md for why."""
    cycle_ms = [statistics.fmean(ts) for ts in w.ms(w.cycles, scaled).values()]
    first_ms = [statistics.fmean(ts) for ts in w.ms(w.firsts, scaled).values()]
    return {
        "cycle_ms.p50": percentile(cycle_ms, 50),
        "cycle_ms.p90": percentile(cycle_ms, 90),
        "first_step_ms.p50": percentile(first_ms, 50),
        "first_step_ms.p90": percentile(first_ms, 90),
        "cycles_per_s": w.cycles_per_s(scaled),
        "setup_s": statistics.median(w.gauge.ms(setup_spans, scaled)) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, w, untraced_cps: float, traced_cps: float,
              repeats: int) -> tuple[dict, dict]:
    """The per-layer metrics, and the layer table they come from."""
    first_pass = lambda tag: tag == 0  # noqa: E731
    layers = tracer.layers(w.root)
    total_s = layers[w.root]["incl_s"]
    cycles = (w.sim_cycles if w.root == "simulate"
              else layers[w.root]["calls"])

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_ms(name):
        return layers.get(name, {}).get("self_s", 0.0) * 1e3

    def belief(field, scoring: bool):
        """fault_belief calls or self seconds under selection's scoring
        (``scoring``) or outside it (the per-step update)."""
        by = layers.get("isolation.belief", {}).get("by_parent", {})
        return sum(v[field] for p, v in by.items()
                   if (p == "anytime.score") == scoring)

    def share(name):
        return layers.get(name, {}).get("incl_s", 0.0) / total_s

    def distinct(notes):
        return len(set(notes)) / len(notes) if notes else 0.0

    validations = tracer.noted("detection.validate", w.root)
    first_validations = tracer.noted("detection.validate", w.root, first_pass)
    beliefs = tracer.noted("isolation.belief", w.root, first_pass)
    experiments = tracer.noted("harness.experiments", w.root)
    setup = [tracer.layers("setup", lambda t, r=r: t == r)
             for r in range(repeats)]

    def setup_ms(name):
        return statistics.median(s.get(name, {}).get("incl_s", 0.0) * 1e3
                                 for s in setup)

    def setup_calls(name):
        return statistics.median(s.get(name, {}).get("calls", 0)
                                 for s in setup)

    nodes = tracer.noted("anytime.compile", "setup")
    metrics = {
        "anytime.select.calls": calls("anytime.select") / cycles,
        "anytime.select.self_ms": self_ms("anytime.select") / cycles,
        "anytime.select.share": share("anytime.select"),
        "anytime.score.per_select": (calls("anytime.score")
                                     / calls("anytime.select")
                                     if calls("anytime.select") else 0.0),
        "isolation.belief.score_calls": belief("calls", True) / cycles,
        "isolation.belief.update_calls": belief("calls", False) / cycles,
        "isolation.belief.score_self_ms":
            belief("self_s", True) * 1e3 / cycles,
        "isolation.belief.update_self_ms":
            belief("self_s", False) * 1e3 / cycles,
        "isolation.belief.distinct_ratio": distinct(beliefs),
        "inference.noisy_or.calls": calls("inference.noisy_or") / cycles,
        "inference.noisy_or.self_ms": self_ms("inference.noisy_or") / cycles,
        "detection.validate.calls": calls("detection.validate") / cycles,
        "detection.validate.self_ms": self_ms("detection.validate") / cycles,
        "detection.validate.share": share("detection.validate"),
        "detection.faulty_ratio": (sum(f for _, f in validations)
                                   / len(validations) if validations else 0.0),
        "detection.distinct_ratio": distinct([k for k, _ in first_validations]),
        "inference.posterior_marginal.calls":
            calls("inference.posterior_marginal") / cycles,
        "inference.posterior_marginal.self_ms":
            self_ms("inference.posterior_marginal") / cycles,
        "anytime.serialize.self_ms": self_ms("anytime.serialize") / cycles,
        "unwrapped.self_ms": self_ms(w.root) / cycles,
        "anytime.compile.ms": setup_ms("anytime.compile"),
        "anytime.compile.nodes": nodes[0] if nodes else 0,
        "anytime.compile.select_calls": setup_calls("anytime.select"),
        "harness.generate.ms": setup_ms("harness.generate"),
        "harness.learn.ms": setup_ms("harness.learn"),
        "harness.calibrate.ms": setup_ms("harness.calibrate"),
        "harness.experiments.self_ms":
            self_ms("harness.experiments") / cycles,
        "harness.records": (statistics.median(n for n, _ in experiments)
                            if experiments else 0),
        "harness.trace_steps": (statistics.median(s for _, s in experiments)
                                if experiments else 0),
        "harness.evaluate.ms": (layers.get("harness.evaluate", {}).get(
            "incl_s", 0.0) * 1e3 / len(experiments) if experiments else 0.0),
        "cli.simulate.self_ms": (self_ms("cli.simulate") / len(experiments)
                                 if experiments else 0.0),
        "trace.cycles_per_s": traced_cps,
        "trace.overhead": untraced_cps / traced_cps,
    }
    return metrics, {"total_s": total_s, "cycles": cycles, "layers": layers}


def print_layers(table: dict) -> None:
    total_s, cycles = table["total_s"], table["cycles"]
    print(f"layer self time over {cycles} cycles "
          f"({total_s:.3f} s under the root spans):")
    print(f"  {'span':32s} {'calls/cycle':>12s} {'self ms/cycle':>14s} "
          f"{'self share':>10s} {'incl share':>10s}")
    rows = sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, e in rows:
        print(f"  {name:32s} {e['calls'] / cycles:12.2f} "
              f"{e['self_s'] * 1e3 / cycles:14.4f} "
              f"{e['self_s'] / total_s:10.1%} {e['incl_s'] / total_s:10.1%}")


def timed_setup(w, tracer, tag: int, adopt: bool) -> tuple[float, float]:
    """Set up once; the (start, end) span, with the speed gauge sampled
    right before and after it."""
    w.gauge.sample()
    span = tracer.open("setup", tag) if tracer else None
    start = time.perf_counter()
    try:
        w.setup(adopt)
    finally:
        end = time.perf_counter()
        if tracer:
            tracer.close(span)
    w.gauge.sample()
    return start, end


def measure_with_setups(w, seconds: float, tracer, repeats: int,
                        max_steps, setup_spans: list) -> None:
    """Measure in ``repeats`` equal segments with a timed set-up before
    each but the first, so that setup_s samples several moments of a
    shared machine.  These set-ups' results are dropped."""
    for r in range(repeats):
        if r:
            setup_spans.append(timed_setup(w, tracer, r, False))
        w.measure(seconds / repeats, tracer, max_steps)


def load_program(root: Path) -> str | None:
    """Pin the BLAS thread pools to one thread and make ``sensorval``
    importable from ``root/src``; the problem, if that is not possible."""
    src = root / "src"
    if not ((src / "sensorval" / "__init__.py").is_file()
            and (root / "fixtures" / "reference_net.json").is_file()):
        return ("src/sensorval and fixtures/ not found; run from the root "
                "of a sensorval checkout")
    for var in THREAD_VARS:            # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import sensorval
    if not Path(sensorval.__file__).resolve().is_relative_to(src.resolve()):
        return f"imported sensorval from {sensorval.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one set-up and a couple of steps (self-test)")
    parser.add_argument("--reference", type=Path,
                        help="reference outputs file to check against "
                             "instead of perfbench/reference/")
    args = parser.parse_args(argv)

    root = Path.cwd()
    problem = load_program(root)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import speed
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    env = environment()
    out = root / OUT_DIR
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = workloads.Reference(args.workload, args.seed,
                                        args.reference)
        w = workloads.WORKLOADS[args.workload](args.seed, reference, workdir)
        repeats = 1 if args.tiny else SETUP_REPEATS
        max_steps = 2 if args.tiny else None
        tracer = Tracer() if args.trace else None
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env " + json.dumps(env))

        if tracer:
            tracer.install()
        setup_spans = [timed_setup(w, tracer, 0, True)]
        if tracer:
            tracer.uninstall()
        print(f"inputs: {w.describe()}")
        print(f"check: {reference.describe()}")
        if not args.tiny:
            w.measure(WARMUP_S)
            w.reset_samples()
        if tracer:
            w.measure(args.seconds * (1 - TRACED_SHARE), None, max_steps)
            untraced_cps = w.cycles_per_s()
            w.reset_samples()
            tracer.install()
            try:
                measure_with_setups(w, args.seconds * TRACED_SHARE, tracer,
                                    repeats, max_steps, setup_spans)
            finally:
                tracer.uninstall()
            metrics, table = per_layer(tracer, w, untraced_cps,
                                       w.cycles_per_s(), repeats)
            units = PER_LAYER
            unscaled = {}
            print_layers(table)
            spans = out / f"spans-{args.workload}-seed{args.seed}.json.gz"
            tracer.write(spans, env)
            print(f"spans ({len(tracer.names)}) -> {spans.relative_to(root)}")
        else:
            measure_with_setups(w, args.seconds, None, repeats, max_steps,
                                setup_spans)
            metrics = end_to_end(w, setup_spans)
            unscaled = end_to_end(w, setup_spans, scaled=False)
            units = END_TO_END

        cycles = sum(map(len, w.cycles.values()))
        firsts = sum(map(len, w.firsts.values()))
        print(f"timed {cycles} cycles over {len(w.cycles)} inputs and "
              f"{firsts} first steps over {len(w.firsts)} inputs; "
              "latencies use each input's mean time")
        gauge = w.gauge.sample_ms
        print(f"speed gauge: {len(gauge)} samples, reference work took "
              f"{min(gauge):.4g} to {max(gauge):.4g} ms, median "
              f"{statistics.median(gauge):.4g} ms (reference "
              f"{speed.REFERENCE_MS} ms)")
        for failure in w.failures:
            print(f"FAILED {failure}")
        failed_frac = w.failed / w.attempted
        print(f"failed_frac = {failed_frac:.6g} "
              f"({w.failed} of {w.attempted} cycles)")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}"
                  + (f" (unscaled {unscaled[name]:.6g})" if unscaled else ""))
        result = {
            "correct": w.failed == 0,
            "attempted": w.attempted,
            "failed": w.failed,
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in metrics.items()},
        }
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, env=env,
                      failed_frac=failed_frac, unscaled=unscaled,
                      setup_runs_s=[e - s for s, e in setup_spans],
                      gauge_ms=gauge,
                      inputs=w.describe(), check=reference.describe())
        (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
         ".json").write_text(json.dumps(record, indent=1))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
