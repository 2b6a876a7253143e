"""End-to-end experimentation: parameter learning, synthetic data,
fault injection, type I/II evaluation, and selection-policy comparison.

Every operation is a deterministic function of its inputs and a seed.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .anytime import DecisionTree, TreeNode, run_anytime_validation
from .detection import DetectionCriterion, Discretizer, blanket_kernel
from .isolation import IsolationNet, declare_faults, fault_belief
from .model import BayesNet, Cpt, NetworkStructure, Variable, topological_order

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
            r, c = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"row {r}, column {self.sensors[c]!r}: "
                             f"{float(values[r, c])!r} is not a finite number")

    def __len__(self) -> int:
        return self.values.shape[0]

    def row(self, i: int) -> dict[str, float]:
        return dict(zip(self.sensors, self.values[i].tolist()))

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
        rows = []
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise ValueError(f"CSV line {line} has {len(row)} cells, "
                                 f"the header {len(header)}")
            values = []
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"CSV line {line}, column {name!r}: "
                                     f"{cell!r} is not a number") from None
                if not math.isfinite(value):
                    raise ValueError(f"CSV line {line}, column {name!r}: "
                                     f"{cell!r} is not a finite number")
                values.append(value)
            rows.append(values)
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
        if kind not in ("type1", "type2"):
            raise ValueError(f"unknown error kind {kind!r}")
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
    variables = [Variable(s, d.states()) for s in structure.sensors]
    # each column is coded once and read by every family it belongs to
    codes = {s: d._index_array(s, train.values[:, train.sensors.index(s)])
             for s in structure.sensors}
    cpts = {}
    for s in structure.sensors:
        parents = structure.parents_of(s)
        # one code per row over the family, parents first: row-major
        # (parent context, state), the CPT's layout
        family = np.zeros(len(train), dtype=np.intp)
        for v in parents + (s,):
            family *= b
            family += codes[v]
        counts = np.bincount(family, minlength=b ** (len(parents) + 1)) + 1.0
        counts = counts.reshape(-1, b)
        cpts[s] = Cpt(s, parents, counts / counts.sum(axis=1, keepdims=True))
    return BayesNet(variables, structure.edges, cpts)


def split_dataset(data: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic seeded shuffle, then a floor(ratio * N) / remainder split."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    cut = int(np.floor(ratio * len(data)))
    # gathered along the columns of the transpose, a column-major table (as
    # generated) gives column-major parts: learning reads the training part
    # by column, and a test row reads as fast from either layout
    return tuple(Dataset(data.sensors, data.values.T.take(rows, axis=1).T)
                 for rows in (order[:cut], order[cut:]))


# --- synthetic data ---------------------------------------------------------

def reference_structure() -> NetworkStructure:
    """The five-sensor gas-turbine-style tree shipped with the repo."""
    return NetworkStructure(
        "reference5",
        ("a", "g", "m", "p", "t"),
        (("m", "t"), ("m", "p"), ("t", "g"), ("t", "a")),
    )


def _is_count(n) -> bool:
    """Whether n is an integer >= 1 (a bool is not)."""
    return (isinstance(n, numbers.Integral) and not isinstance(n, bool)
            and n >= 1)


def random_tree_structure(n: int = 21, seed: int = 21) -> NetworkStructure:
    """A seeded random tree over n sensors with bounded branching."""
    if not _is_count(n):
        raise ValueError(f"a random tree needs an integer number of sensors "
                         f">= 1, not {n!r}")
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
    column = {s: k for k, s in enumerate(structure.sensors)}
    # column-major, so that each sensor's column is contiguous
    values = np.empty((n_rows, len(column)), order="F")
    u = np.linspace(0.0, 1.0, n_rows)
    ramp = np.clip((u - 0.15) / 0.7, 0.0, 1.0)
    wiggle = 0.03 * np.sin(2.0 * np.pi * 3.0 * u)
    # the order fixes the draws
    for s in topological_order(structure.sensors, structure.edges):
        parents = structure.parents_of(s)
        if not parents:
            values[:, column[s]] = (ramp + wiggle
                                    + rng.normal(0.0, noise, n_rows))
        else:
            w = rng.uniform(0.8, 1.2, len(parents))
            w /= w.sum()
            base = sum(wi * values[:, column[p]] for wi, p in zip(w, parents))
            values[:, column[s]] = base + rng.normal(0.0, noise, n_rows)
    return Dataset(structure.sensors, values)


# --- fault injection --------------------------------------------------------

def _toward_upper(x, lo: float, hi: float):
    """Whether a fault moves the reading x (a number or an array) up: the
    upper range extreme is the farther one, ties going up. A severe fault
    reads that extreme."""
    return abs(hi - x) >= abs(x - lo)


def inject_fault(row: Mapping[str, float], spec: FaultSpec,
                 d: Discretizer) -> dict[str, float]:
    """Overwrite the target reading; severe jumps to the farther range
    extreme, mild shifts a quarter of the range toward it (ties go up)."""
    if spec.target not in row:
        raise KeyError(f"row has no sensor {spec.target!r}")
    lo, hi = d.bounds[spec.target]
    x = row[spec.target]
    out = dict(row)
    if spec.severity == SEVERE:
        out[spec.target] = hi if _toward_upper(x, lo, hi) else lo
    else:
        delta = MILD_FRACTION * (hi - lo)
        out[spec.target] = x + delta if _toward_upper(x, lo, hi) else x - delta
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

    The chosen rows are coded once per column, and each cause's severe
    reading once per row. Each effect then judges the rows of all its
    links at once, one block of rows per cause: one prediction call over
    the blocks' blanket codes (``BlanketKernel.probabilities``) and one
    array expression of the criterion (``DetectionCriterion.verdicts``),
    equal to what ``validate_sensor`` says of each injected reading.
    """
    if not _is_count(n_rows):
        raise ValueError(f"'n_rows' must be an integer >= 1, not {n_rows!r}")
    if len(train) == 0:
        raise ValueError("empty calibration set")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(train), size=min(n_rows, len(train)), replace=False)
    rows = train.values[idx]
    readings = {s: rows[:, k] for k, s in enumerate(train.sensors)}
    codes = {s: d._index_array(s, x) for s, x in readings.items()
             if s in d.bounds}
    severe, severe_codes = {}, {}
    for c in emb:
        lo, hi = d.bounds[c]
        severe[c] = np.where(_toward_upper(readings[c], lo, hi), hi, lo)
        severe_codes[c] = d._index_array(c, severe[c])
    hits = {}
    for effect in sorted({e for c in emb for e in emb[c]}):
        causes = [c for c in sorted(emb) if effect in emb[c]]
        kernel = blanket_kernel(net, effect, d.bins)
        blanket = np.empty((len(causes), len(idx), len(kernel.blanket)),
                           dtype=np.intp)
        x = np.empty((len(causes), len(idx)))
        for i, cause in enumerate(causes):
            for j, b in enumerate(kernel.blanket):
                blanket[i, :, j] = severe_codes[b] if b == cause else codes[b]
            x[i] = severe[cause] if cause == effect else readings[effect]
        faulty = criterion.verdicts(
            kernel.probabilities(net, blanket.reshape(x.size, -1)), d,
            effect, x.ravel())
        counts = faulty.reshape(len(causes), -1).sum(axis=1).tolist()
        hits.update(((c, effect), h) for c, h in zip(causes, counts))
    trials = float(len(idx))
    return {k: min((hits[k] + 1.0) / (trials + 2.0), LINK_CEILING)
            for k in sorted(hits)}


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
    over matched single-fault experiments (severe faults, cycled targets);
    each random order is drawn up front and walked as a chain of tree nodes."""
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
        pool = sorted(sensors)
        # one shared child per node: never walk, check or dump it (2**n steps)
        chain = None
        for sensor in reversed([pool.pop(int(policy_rng.integers(len(pool))))
                                for _ in range(n)]):
            chain = TreeNode(sensor, chain, chain)
        for policy, tree in (("entropy", None), ("random", DecisionTree(chain))):
            mean_q[policy] += [rec.quality for rec in run_anytime_validation(
                net, d, iso, tree, faulted, criterion)]
    return mean_q["entropy"] / n_experiments, mean_q["random"] / n_experiments


def policy_comparison_csv(entropy_q: np.ndarray, random_q: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "mean_quality_entropy", "mean_quality_random"])
    for i, (e, r) in enumerate(zip(entropy_q, random_q), start=1):
        writer.writerow([i, f"{e:.6f}", f"{r:.6f}"])
    return buf.getvalue()
