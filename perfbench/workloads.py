"""The three benchmark workloads: inputs from a seed, set-up, measured steps
and the output check.

Every time is taken here, from outside the library, with perf_counter.
``StepRecord.elapsed_ms`` is never read: it runs from generator creation,
so it would include the time this loop spends between steps.  Times are
kept as ``(start, end)`` spans, and the speed gauge is sampled between
steps, so that they can be scaled to the reference speed (speed.py).
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

from sensorval import (anytime, benchmarks, cli, detection, harness,
                       isolation, model)
from speed import Gauge

CRITERION = detection.DetectionCriterion("pvalue", 0.01)
CRITERION_ARGS = ["--criterion", "pvalue", "--p", "0.01"]
PF_SCALE = 1e10          # reference fault probabilities are stored as ints
PF_TOLERANCE = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# tree21 readings per sensor: clean rows, severe faults and mild faults.
PER_SENSOR = (None, None, harness.SEVERE, harness.MILD)
# ref5-simulate: each simulate call gets one chunk of rows; the streaming
# probe replays every injected reading of the first PROBE_ROWS of it.
CHUNKS = 8
CHUNK_ROWS = 24
PROBE_ROWS = 4
# Extra first-step timings per cycle, on inputs a quarter, a half and three
# quarters of a pass away, so each input's first step is timed at four
# moments per pass instead of one.
FIRST_STEP_PROBES = 3
REPORT_HEADER = ["criterion", "severity", "type1_count", "type1_rate",
                 "type2_count", "type2_rate"]


def encode_cycle(records) -> tuple[str, list[float]]:
    """The (sensor, status) sequence as text, and the final pf vector."""
    seq = " ".join(r.sensor + ("F" if r.status == isolation.FAULTY else "C")
                   for r in records)
    pf = records[-1].pf
    return seq, [pf[s] for s in sorted(pf)]


def injected(row: dict, sensors, d) -> list[dict]:
    """The clean row, then one severe and one mild fault per sensor, in the
    order run_fault_experiments uses."""
    return [row] + [harness.inject_fault(row, harness.FaultSpec(s, sev), d)
                    for s in sensors for sev in (harness.SEVERE, harness.MILD)]


class Reference:
    """Outputs recorded from an earlier commit for one workload and seed,
    or, for a seed with none, invariants alone.  In recording mode it
    stores what it is shown instead of comparing."""

    def __init__(self, workload: str, seed: int, path: Path | None = None,
                 recording: bool = False):
        self.recording = recording
        self.entry = None
        self.recorded = {"cycles": {}, "reports": {}}
        if recording:
            return
        path = path or REFERENCE_DIR / f"{workload}.json.gz"
        if path.is_file():
            with gzip.open(path, "rt") as fh:
                self.entry = json.load(fh)["seeds"].get(str(seed))

    def describe(self) -> str:
        if self.recording:
            return "recording reference outputs"
        if self.entry is None:
            return "no reference outputs for this seed: invariants only"
        return "reference outputs for this seed: exact orders, pf within 1e-9"

    def check_cycle(self, k: int, records, invariant) -> str | None:
        """None when the cycle is right, else what is wrong."""
        if not records:
            return "no steps"
        seq, pf = encode_cycle(records)
        if self.recording:
            self.recorded["cycles"][k] = [seq, [round(p * PF_SCALE) for p in pf]]
            return None
        for r in records:
            if not all(0.0 <= p <= 1.0 for p in r.pf.values()):
                return f"step {r.step}: pf outside [0, 1]"
        if self.entry is None:
            return invariant(records)
        if k >= len(self.entry["cycles"]):
            return "the reference has no output for this input"
        want_seq, want_pf = self.entry["paths"][self.entry["cycles"][k]]
        if seq != want_seq:
            return f"order {seq!r} != reference {want_seq!r}"
        worst = max(abs(p - w / PF_SCALE) for p, w in zip(pf, want_pf))
        if len(pf) != len(want_pf) or worst > PF_TOLERANCE:
            return f"final pf differs from reference by {worst:.3g}"
        return None

    def check_first(self, k: int, record) -> str | None:
        """The first step of a cycle stopped after it."""
        if self.recording:
            return None
        if not all(0.0 <= p <= 1.0 for p in record.pf.values()):
            return "first step: pf outside [0, 1]"
        if self.entry is None:
            return None
        first = record.sensor + ("F" if record.status == isolation.FAULTY
                                 else "C")
        want = self.entry["paths"][self.entry["cycles"][k]][0].split(" ")[0]
        if first != want:
            return f"first step {first!r} != reference {want!r}"
        return None

    def check_report(self, c: int, report: bytes, invariant) -> str | None:
        digest = hashlib.sha256(report).hexdigest()
        if self.recording:
            self.recorded["reports"][c] = digest
            return None
        if self.entry is None:
            return invariant(report)
        if c >= len(self.entry["reports"]) or digest != self.entry["reports"][c]:
            return "report differs from reference"
        return None

    def entry_from_recording(self) -> dict:
        """Each distinct order once with its final pf (the pf is a function
        of the findings, so of the order), and per input its index."""
        paths, index, cycles = [], {}, []
        for k in sorted(self.recorded["cycles"]):
            seq, pf = self.recorded["cycles"][k]
            if seq not in index:
                index[seq] = len(paths)
                paths.append([seq, pf])
            elif paths[index[seq]][1] != pf:
                raise ValueError(f"input {k}: order {seq!r} recorded with "
                                 "two different final pf vectors")
            cycles.append(index[seq])
        reports = self.recorded["reports"]
        out = {"paths": paths, "cycles": cycles}
        if reports:
            out["reports"] = [reports[c] for c in sorted(reports)]
        return out


class Workload:
    """Shared measurement loop; subclasses define set-up and one step."""

    name = ""
    root = "cycle"          # name of the root span of one measured step

    def __init__(self, seed: int, reference: Reference, workdir: Path):
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.gauge = Gauge()
        self.reset_samples()

    def reset_samples(self) -> None:
        # input -> its (start, end) spans over the passes of this window
        self.cycles: dict[int, list[tuple[float, float]]] = {}
        self.firsts: dict[int, list[tuple[float, float]]] = {}
        self.next_step = 0

    def ms(self, spans: dict, scaled: bool = True) -> dict[int, list[float]]:
        """Per input, its times in ms (see Gauge.ms)."""
        return {k: self.gauge.ms(s, scaled) for k, s in spans.items()}

    def fail(self, what: str, cycles: int = 1) -> None:
        self.failed += cycles
        if len(self.failures) < 5:
            self.failures.append(what)

    def measure(self, seconds: float, tracer=None,
                max_steps: int | None = None) -> None:
        """Run steps over the inputs in order, wrapping round and going on
        from where the last call stopped, until the time is up.  The pass
        number tags each root span."""
        deadline = time.perf_counter() + seconds
        n = self.n_inputs()
        while time.perf_counter() < deadline:
            if max_steps is not None and self.next_step >= max_steps:
                break
            self.step(self.next_step // n, self.next_step % n, tracer)
            self.next_step += 1
            self.gauge.tick()

    def stream(self, net, d, iso, tree, reading, k, invariant, tracer,
               pass_no) -> None:
        """One anytime cycle, serialising each step as ``cli validate``
        does; timed from the call to the first step and to the last."""
        root = tracer.open("cycle", pass_no) if tracer else None
        records, lines = [], []
        first = None
        start = time.perf_counter()
        try:
            for rec in anytime.run_anytime_validation(net, d, iso, tree,
                                                      reading, CRITERION):
                if first is None:
                    first = time.perf_counter()
                lines.append(rec.to_json())
                records.append(rec)
            end = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed cycle is counted
            self.attempted += 1
            self.fail(f"input {k}: {type(exc).__name__}: {exc}")
            return
        finally:
            if tracer:
                tracer.close(root)
        self.attempted += 1
        if first is None:
            self.fail(f"input {k}: no steps")
            return
        self.cycles.setdefault(k, []).append((start, end))
        self.firsts.setdefault(k, []).append((start, first))
        problem = self.reference.check_cycle(k, records, invariant)
        if problem:
            self.fail(f"input {k}: {problem}")
        self.gauge.tick()

    def first_step(self, net, d, iso, tree, readings, k, tracer) -> None:
        """FIRST_STEP_PROBES times to the first step alone, as a consumer
        that stops after the first answer sees it, on inputs spread over
        the pass after input ``k``."""
        n = len(readings)
        for j in range(1, FIRST_STEP_PROBES + 1):
            i = (k + j * n // (FIRST_STEP_PROBES + 1)) % n
            root = tracer.open("first_step") if tracer else None
            start = time.perf_counter()
            try:
                steps = anytime.run_anytime_validation(net, d, iso, tree,
                                                       readings[i], CRITERION)
                record = next(steps)
                end = time.perf_counter()
                steps.close()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.attempted += 1
                self.fail(f"input {i}, first step: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer:
                    tracer.close(root)
            self.attempted += 1
            self.firsts.setdefault(i, []).append((start, end))
            problem = self.reference.check_first(i, record)
            if problem:
                self.fail(f"input {i}: {problem}")

    def cycles_per_s(self, scaled: bool = True) -> float:
        spans = [s for ss in self.cycles.values() for s in ss]
        return 1e3 * len(spans) / sum(self.gauge.ms(spans, scaled))


def tree21_readings(bench, seed: int, rounds: int) -> list[dict]:
    """``rounds`` rounds of readings; each round has the PER_SENSOR mix for
    every sensor (clean rows, single severe and mild faults on it) on
    distinct seeded test-split rows, in a seeded order.  The first rounds
    do not depend on how many follow, so a longer list extends a shorter."""
    rng = np.random.default_rng(seed)
    plan = [(s, sev) for s in bench.iso.sensors for sev in PER_SENSOR]
    rows = iter(rng.permutation(len(bench.test)))
    readings = []
    for _ in range(rounds):
        batch = []
        for s, severity in plan:
            row = bench.test.row(int(next(rows)))
            if severity is not None:
                spec = harness.FaultSpec(s, severity)
                row = harness.inject_fault(row, spec, bench.discretizer)
            batch.append(row)
        readings.extend(batch[i] for i in rng.permutation(len(batch)))
    return readings


class Tree21Online(Workload):
    """Online entropy selection on the calibrated 21-sensor tree."""

    name = "tree21-online"
    use_tree = False
    rounds = 1

    def setup(self, adopt: bool = True) -> None:
        """Build everything the steps use; keep it only when ``adopt``."""
        bench = benchmarks.tree21_benchmark(calibration=CRITERION)
        tree = (anytime.compile_decision_tree(bench.iso, bench.emb)
                if self.use_tree else None)
        readings = tree21_readings(bench, self.seed, self.rounds)
        if adopt:
            self.bench, self.tree, self.readings = bench, tree, readings

    def n_inputs(self) -> int:
        return len(self.readings)

    def describe(self) -> str:
        per = self.rounds * len(PER_SENSOR)
        mix = ", ".join(
            f"{self.rounds * PER_SENSOR.count(kind)} {kind or 'clean'}"
            for kind in (None, harness.SEVERE, harness.MILD))
        tree = (f"; pruned tree of {self.tree.node_count()} nodes"
                if self.tree else "")
        return (f"{len(self.readings)} readings from test-split rows "
                f"({mix}; {per} per sensor){tree}")

    def invariant(self, records) -> str | None:
        sensors = sorted(r.sensor for r in records)
        if sensors != sorted(self.bench.iso.sensors):
            return "online cycle did not validate every sensor once"
        return None

    def step(self, pass_no, k, tracer) -> None:
        b = self.bench
        self.stream(b.net, b.discretizer, b.iso, self.tree, self.readings[k],
                    k, self.invariant, tracer, pass_no)
        self.first_step(b.net, b.discretizer, b.iso, self.tree, self.readings,
                        k, tracer)


class Tree21Tree(Tree21Online):
    """The same readings, in the order of the pruned compiled tree."""

    name = "tree21-tree"
    use_tree = True
    rounds = 20         # short cycles: many inputs keep p50 off the gap between path lengths

    def invariant(self, records) -> str | None:
        node = self.tree.root
        for r in records:
            if node is None or node.sensor != r.sensor:
                return f"step {r.step} left the compiled tree"
            node = node.faulty if r.status == isolation.FAULTY else node.ok
        if node is not None:
            return "cycle stopped before a leaf of the tree"
        return None


class Ref5Simulate(Workload):
    """``cli simulate`` in process on the reference net, plus a streaming
    probe over the same injected readings."""

    name = "ref5-simulate"
    root = "simulate"
    fixtures = Path("fixtures")

    def reset_samples(self) -> None:
        super().reset_samples()
        self.calls: list[tuple[float, float]] = []
        self.sim_cycles = 0

    def setup(self, adopt: bool = True) -> None:
        """Generate the rows and write one CSV per chunk; keep the loaded
        model and the probe readings only when ``adopt``."""
        # Readings come from the plant the fixture network was learned
        # from (the reference benchmark's data); the seed picks the rows.
        data = harness.generate_synthetic_dataset(
            harness.reference_structure(), benchmarks.N_ROWS,
            benchmarks.NOISE, benchmarks.REFERENCE_DATA_SEED)
        _, test = harness.split_dataset(data, benchmarks.SPLIT_RATIO,
                                        benchmarks.SPLIT_SEED)
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(test), size=CHUNKS * CHUNK_ROWS, replace=False)
        net = model.load_network(
            (self.fixtures / "reference_net.json").read_text())
        disc = detection.discretizer_from_json(
            (self.fixtures / "reference_net.disc.json").read_text())
        iso = isolation.build_isolation_network(model.emb_table(net))
        paths, probes = [], []
        for c in range(CHUNKS):
            rows = picks[c * CHUNK_ROWS:(c + 1) * CHUNK_ROWS]
            chunk = harness.Dataset(test.sensors, test.values[rows])
            path = self.workdir / f"chunk{c}.csv"
            path.write_text(chunk.to_csv())
            paths.append(path)
            probes.extend(reading for i in range(PROBE_ROWS)
                          for reading in injected(chunk.row(i), iso.sensors,
                                                  disc))
        if adopt:
            self.net, self.disc, self.iso = net, disc, iso
            self.paths, self.probes = paths, probes
            self.report = self.workdir / "report.csv"

    def n_inputs(self) -> int:
        return CHUNKS

    def describe(self) -> str:
        n = len(self.iso.sensors)
        return (f"{CHUNKS} chunks of {CHUNK_ROWS} test-split rows, "
                f"{CHUNK_ROWS * (2 * n + 1)} cycles per simulate call; "
                f"probe streams {len(self.probes) // CHUNKS} readings per "
                "chunk")

    def invariant(self, records) -> str | None:
        if sorted(r.sensor for r in records) != sorted(self.iso.sensors):
            return "online cycle did not validate every sensor once"
        return None

    def report_invariant(self, report: bytes) -> str | None:
        rows = list(csv.reader(io.StringIO(report.decode())))
        if rows[0] != REPORT_HEADER or [r[1] for r in rows[1:]] != [
                harness.SEVERE, harness.MILD]:
            return "report does not have the expected layout"
        for r in rows[1:]:
            t1c, t1r, t2c, t2r = int(r[2]), float(r[3]), int(r[4]), float(r[5])
            if not (t1c >= 0 and 0 <= t1r <= 1 and 0 <= t2r <= 1
                    and 0 <= t2c <= CHUNK_ROWS * len(self.iso.sensors)):
                return f"report row {r} is out of range"
        return None

    def step(self, pass_no, c, tracer) -> None:
        argv = ["simulate",
                "--network", str(self.fixtures / "reference_net.json"),
                "--discretizer", str(self.fixtures / "reference_net.disc.json"),
                "--data", str(self.paths[c]), *CRITERION_ARGS,
                "--seed", str(self.seed), "--out", str(self.report)]
        cycles = CHUNK_ROWS * (2 * len(self.iso.sensors) + 1)
        root = tracer.open("simulate", pass_no) if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            end = time.perf_counter()
            if tracer:
                tracer.close(root)
        self.attempted += cycles
        self.sim_cycles += cycles
        self.calls.append((start, end))
        if code != 0:
            self.fail(f"chunk {c}: simulate exited {code}", cycles)
        else:
            problem = self.reference.check_report(
                c, self.report.read_bytes(), self.report_invariant)
            if problem:
                self.fail(f"chunk {c}: {problem}", cycles)
        per_chunk = len(self.probes) // CHUNKS
        for k in range(c * per_chunk, (c + 1) * per_chunk):
            self.stream(self.net, self.disc, self.iso, None, self.probes[k],
                        k, self.invariant, tracer, pass_no)
            self.first_step(self.net, self.disc, self.iso, None, self.probes,
                            k, tracer)

    def cycles_per_s(self, scaled: bool = True) -> float:
        cycles = CHUNK_ROWS * (2 * len(self.iso.sensors) + 1)
        seconds = sum(self.gauge.ms(self.calls, scaled)) / 1e3
        return cycles * len(self.calls) / seconds


WORKLOADS = {w.name: w for w in (Tree21Online, Tree21Tree, Ref5Simulate)}
