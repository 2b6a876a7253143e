"""End-to-end experimentation: parameter learning, synthetic data,
fault injection, type I/II evaluation, and selection-policy comparison.

Every operation is a deterministic function of its inputs and a seed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .anytime import DecisionTree, run_anytime_validation
from .detection import DetectionCriterion, Discretizer
from .isolation import IsolationNet, declare_faults, fault_belief
from .model import BayesNet, Cpt, NetworkStructure, Variable

SEVERE, MILD = "severe", "mild"
MILD_FRACTION = 0.25

DEFAULT_DECLARE = 0.9
MAX_CHILDREN = 3             # branching bound of random_tree_structure
LINK_CEILING = 0.99          # cap on calibrated link strengths


@dataclass(frozen=True)
class Dataset:
    """Rectangular table of sensor readings, one row per time step."""

    sensors: tuple[str, ...]
    values: np.ndarray                 # shape (n_rows, n_sensors)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if values.ndim != 2 or values.shape[1] != len(self.sensors):
            raise ValueError("dataset is not rectangular over the header")
        for i, s in enumerate(self.sensors):
            if s in self.sensors[:i]:
                raise ValueError(f"column {s!r} appears twice")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.values.shape[0]

    def row(self, i: int) -> dict[str, float]:
        return {s: float(v) for s, v in zip(self.sensors, self.values[i])}

    def rows(self):
        for i in range(len(self)):
            yield self.row(i)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.sensors)
        for row in self.values:
            writer.writerow([repr(float(v)) for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV: no header row") from None
        rows = [[float(x) for x in row] for row in reader if row]
        values = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
        return cls(tuple(header), values)


@dataclass(frozen=True)
class FaultSpec:
    target: str
    severity: str

    def __post_init__(self):
        if self.severity not in (SEVERE, MILD):
            raise ValueError(f"unknown severity {self.severity!r}")


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment's final beliefs and declared faults. ``trace`` is
    always empty; it stays because ``perfbench/tracing.py`` reads it."""

    row_index: int
    fault: FaultSpec | None
    criterion: DetectionCriterion
    final_pf: dict
    declared: frozenset
    trace: list = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class ErrorReport:
    """Type I/II error counts and rates per (criterion, severity)."""

    entries: tuple   # rows of (criterion_label, severity, t1_count, t1_total,
                     #          t1_rate, t2_count, t2_total, t2_rate)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["criterion", "severity",
                         "type1_count", "type1_rate",
                         "type2_count", "type2_rate"])
        for (label, severity, t1c, t1n, t1r, t2c, t2n, t2r) in self.entries:
            writer.writerow([label, severity, t1c, f"{t1r:.6f}", t2c, f"{t2r:.6f}"])
        return buf.getvalue()

    def rate(self, criterion_label: str, severity: str, kind: str) -> float:
        for (label, sev, _t1c, _t1n, t1r, _t2c, _t2n, t2r) in self.entries:
            if label == criterion_label and sev == severity:
                return t1r if kind == "type1" else t2r
        raise KeyError((criterion_label, severity))


def criterion_label(criterion: DetectionCriterion) -> str:
    return f"{criterion.kind}={criterion.parameter:g}"


# --- learning ---------------------------------------------------------------

def learn_parameters(structure: NetworkStructure, d: Discretizer,
                     train: Dataset) -> BayesNet:
    """Laplace-smoothed CPTs from discretized training rows."""
    if len(train) == 0:
        raise ValueError("empty training set")
    missing = [s for s in structure.sensors if s not in train.sensors]
    if missing:
        raise KeyError(f"training data is missing columns {missing}")
    b = d.bins
    codes = {s: d._index_array(s, train.values[:, train.sensors.index(s)])
             for s in structure.sensors}
    variables = [Variable(s, d.states()) for s in structure.sensors]
    cpts = {}
    for s in structure.sensors:
        parents = structure.parents_of(s)
        if not parents:
            counts = np.ones(b)
            np.add.at(counts, codes[s], 1.0)
            table = (counts / counts.sum()).reshape(1, b)
        else:
            n_ctx = b ** len(parents)
            counts = np.ones((n_ctx, b))
            ctx = np.zeros(len(train), dtype=int)
            for p in parents:
                ctx = ctx * b + codes[p]
            np.add.at(counts, (ctx, codes[s]), 1.0)
            table = counts / counts.sum(axis=1, keepdims=True)
        cpts[s] = Cpt(s, parents, table)
    return BayesNet(variables, structure.edges, cpts)


def split_dataset(data: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic seeded shuffle, then a floor(ratio * N) / remainder split."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    cut = int(np.floor(ratio * len(data)))
    return (Dataset(data.sensors, data.values[order[:cut]]),
            Dataset(data.sensors, data.values[order[cut:]]))


# --- synthetic data ---------------------------------------------------------

def reference_structure() -> NetworkStructure:
    """The five-sensor gas-turbine-style tree shipped with the repo."""
    return NetworkStructure(
        "reference5",
        ("a", "g", "m", "p", "t"),
        (("m", "t"), ("m", "p"), ("t", "g"), ("t", "a")),
    )


def random_tree_structure(n: int = 21, seed: int = 21) -> NetworkStructure:
    """A seeded random tree over n sensors with bounded branching."""
    rng = np.random.default_rng(seed)
    sensors = tuple(f"s{i:02d}" for i in range(n))
    edges = []
    child_count = [0] * n
    for i in range(1, n):
        open_parents = [j for j in range(i) if child_count[j] < MAX_CHILDREN]
        parent = int(rng.choice(open_parents))
        child_count[parent] += 1
        edges.append((sensors[parent], sensors[i]))
    return NetworkStructure(f"tree{n}", sensors, tuple(edges))


def generate_synthetic_dataset(structure: NetworkStructure, n_rows: int,
                               noise: float, seed: int) -> Dataset:
    """Start-up-like trajectories: roots idle, ramp up, then hold at the
    operating point (plus noise); every child is a seeded weighted sum of
    its parents plus Gaussian noise. The dwell phases keep the extreme
    operating intervals as well covered as the mid-range ones."""
    if n_rows < 1:
        raise ValueError("need at least one row")
    rng = np.random.default_rng(seed)
    values = {}
    u = np.linspace(0.0, 1.0, n_rows)
    ramp = np.clip((u - 0.15) / 0.7, 0.0, 1.0)
    wiggle = 0.03 * np.sin(2.0 * np.pi * 3.0 * u)
    pending = list(structure.sensors)
    while pending:
        still = []
        for s in pending:
            parents = structure.parents_of(s)
            if any(p not in values for p in parents):
                still.append(s)
                continue
            if not parents:
                values[s] = ramp + wiggle + rng.normal(0.0, noise, n_rows)
            else:
                w = rng.uniform(0.8, 1.2, len(parents))
                w /= w.sum()
                base = sum(wi * values[p] for wi, p in zip(w, parents))
                values[s] = base + rng.normal(0.0, noise, n_rows)
        if len(still) == len(pending):
            raise ValueError("structure is not acyclic")
        pending = still
    matrix = np.column_stack([values[s] for s in structure.sensors])
    return Dataset(structure.sensors, matrix)


# --- fault injection --------------------------------------------------------

def inject_fault(row: Mapping[str, float], spec: FaultSpec,
                 d: Discretizer) -> dict[str, float]:
    """Overwrite the target reading; severe jumps to the farther range
    extreme, mild shifts a quarter of the range toward it (ties go up)."""
    if spec.target not in row:
        raise KeyError(f"row has no sensor {spec.target!r}")
    lo, hi = d.bounds[spec.target]
    x = row[spec.target]
    toward_upper = abs(hi - x) >= abs(x - lo)
    out = dict(row)
    if spec.severity == SEVERE:
        out[spec.target] = hi if toward_upper else lo
    else:
        delta = MILD_FRACTION * (hi - lo)
        out[spec.target] = x + delta if toward_upper else x - delta
    return out


def calibrate_link_strengths(
    net: BayesNet,
    d: Discretizer,
    emb,
    train: Dataset,
    criterion: DetectionCriterion,
    n_rows: int = 40,
    seed: int = 0,
) -> dict[tuple[str, str], float]:
    """Estimate per-link strengths c[i, j] = P(apparent fault in j | real
    fault in i) by injecting severe faults into training rows and running
    the detector, Laplace-smoothed. Feeds build_isolation_network's
    link_overrides when the ideal all-links-near-one assumption does not
    hold for the data at hand.
    """
    from .detection import validate_sensor

    if len(train) == 0:
        raise ValueError("empty calibration set")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(train), size=min(n_rows, len(train)), replace=False)
    hits: dict[tuple[str, str], float] = {}
    trials: dict[tuple[str, str], float] = {}
    for i in sorted(int(k) for k in idx):
        reading = train.row(i)
        for cause in sorted(emb):
            faulted = inject_fault(reading, FaultSpec(cause, SEVERE), d)
            for effect in sorted(emb[cause]):
                status = validate_sensor(net, d, faulted, effect, criterion)
                key = (cause, effect)
                hits[key] = hits.get(key, 0.0) + status.faulty
                trials[key] = trials.get(key, 0.0) + 1.0
    return {k: min((hits[k] + 1.0) / (trials[k] + 2.0), LINK_CEILING) for k in hits}


# --- experiments ------------------------------------------------------------

def run_fault_experiments(
    net: BayesNet,
    d: Discretizer,
    iso: IsolationNet,
    tree: DecisionTree | None,
    test: Dataset,
    criteria: Sequence[DetectionCriterion],
    declare_threshold: float = DEFAULT_DECLARE,
    seed: int = 0,
    severities: Sequence[str] = (SEVERE, MILD),
) -> list[ExperimentRecord]:
    """For each test row, one clean control run, then one faulty run per
    sensor and severity; each keeps only its anytime cycle's final beliefs.
    ``seed`` is unused (every run is deterministic) but stays because
    callers, the acceptance gate among them, pass it."""
    specs = [FaultSpec(s, severity) for s in iso.sensors for severity in severities]
    records = []
    for criterion in criteria:
        for i in range(len(test)):
            reading = test.row(i)
            for spec in (None, *specs):
                row = reading if spec is None else inject_fault(reading, spec, d)
                pf = None
                for step in run_anytime_validation(net, d, iso, tree, row, criterion):
                    pf = step.pf
                if pf is None:
                    pf = fault_belief(iso, {})
                records.append(ExperimentRecord(
                    i, spec, criterion, pf,
                    declare_faults(pf, declare_threshold)))
    return records


def evaluate_errors(records: Sequence[ExperimentRecord]) -> ErrorReport:
    """Type I: correct sensors declared faulty over all correct-sensor
    judgments (controls included). Type II: injected faults not declared."""
    if not records:
        raise ValueError("no experiment records")
    tallies = {}  # (label, severity) -> [t1_count, t1_total, t2_count, t2_total]
    for rec in records:
        label = criterion_label(rec.criterion)
        for severity in (SEVERE, MILD):
            tallies.setdefault((label, severity), [0, 0, 0, 0])
        sensors = rec.final_pf.keys()
        if rec.fault is None:
            # Controls count toward type I under every severity of this criterion.
            for severity in (SEVERE, MILD):
                t = tallies[(label, severity)]
                t[0] += len(rec.declared)
                t[1] += len(list(sensors))
        else:
            t = tallies[(label, rec.fault.severity)]
            innocents = [s for s in sensors if s != rec.fault.target]
            t[0] += sum(1 for s in innocents if s in rec.declared)
            t[1] += len(innocents)
            t[2] += 0 if rec.fault.target in rec.declared else 1
            t[3] += 1
    entries = []
    for (label, severity), (t1c, t1n, t2c, t2n) in tallies.items():
        entries.append((label, severity,
                        t1c, t1n, (t1c / t1n) if t1n else 0.0,
                        t2c, t2n, (t2c / t2n) if t2n else 0.0))
    return ErrorReport(tuple(entries))


def compare_selection_policies(
    net: BayesNet,
    d: Discretizer,
    iso: IsolationNet,
    test: Dataset,
    n_experiments: int,
    seed: int,
    criterion: DetectionCriterion | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean quality per step for entropy-guided vs seeded-random selection
    over matched single-fault experiments (severe faults, cycled targets)."""
    if n_experiments < 1:
        raise ValueError("need at least one experiment")
    if len(test) == 0:
        raise ValueError("empty test set")
    if criterion is None:
        criterion = DetectionCriterion("pvalue", 0.01)
    rng = np.random.default_rng(seed)
    sensors = iso.sensors
    n = len(sensors)
    mean_q = {"entropy": np.zeros(n), "random": np.zeros(n)}
    for k in range(n_experiments):
        target = sensors[k % n]
        row = test.row(int(rng.integers(len(test))))
        faulted = inject_fault(row, FaultSpec(target, SEVERE), d)
        policy_rng = np.random.default_rng(rng.integers(2 ** 63))

        def random_selector(_iso, _findings, unvalidated):
            pool = sorted(unvalidated)
            return pool[int(policy_rng.integers(len(pool)))]

        for policy, selector in (("entropy", None), ("random", random_selector)):
            mean_q[policy] += [rec.quality for rec in run_anytime_validation(
                net, d, iso, None, faulted, criterion, selector=selector)]
    return mean_q["entropy"] / n_experiments, mean_q["random"] / n_experiments


def policy_comparison_csv(entropy_q: np.ndarray, random_q: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "mean_quality_entropy", "mean_quality_random"])
    for i, (e, r) in enumerate(zip(entropy_q, random_q), start=1):
        writer.writerow([i, f"{e:.6f}", f"{r:.6f}"])
    return buf.getvalue()
