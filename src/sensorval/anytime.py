"""Anytime validation: entropy-guided ordering, precompiled decision trees,
and the step-by-step cycle that refines the fault-probability vector.

Each validated sensor updates the fault beliefs and a normalized quality
score, so a consumer may stop after any step with a usable answer.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .detection import DetectionCriterion, Discretizer, validate_sensor
from .isolation import (CORRECT, FAULTY, IsolationNet, candidate_scores,
                        fault_belief)
from .model import BayesNet, EmbTable, _name


def binary_entropy(p: float) -> float:
    """Entropy in bits of a binary event; exactly 0 at p = 0 and p = 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def average_entropy(pf: Mapping[str, float]) -> float:
    """Mean binary entropy of the fault-probability vector."""
    if not pf:
        raise ValueError("empty fault-probability vector")
    return sum(binary_entropy(p) for p in pf.values()) / len(pf)


def conditional_average_entropy(iso: IsolationNet,
                                findings: Mapping[str, str],
                                candidate: str) -> float:
    """Sum of the average entropies after each outcome of validating the
    candidate next; smaller means the validation is more informative."""
    net = iso.compiled
    return float(candidate_scores(net, *net.finding_masks(findings),
                                  net.indices([candidate]))[0])


# Scores this close count as tied: symmetric sensors must not be ordered
# by rounding.
TIE_TOLERANCE = 1e-12
# Entries a network's selection memo holds before it is cleared.
SELECT_MEMO_CAP = 1 << 14


def select_next_sensor(iso: IsolationNet, findings: Mapping[str, str],
                       unvalidated: Iterable[str]) -> str:
    """The unvalidated sensor of minimum conditional average entropy;
    scores within TIE_TOLERANCE of the minimum tie, and ties break
    lexicographically. All candidates are scored in one pass
    (``isolation.candidate_scores``).

    The choice is a function of the findings and the candidates alone, so it
    is memoised on the network's compiled form, keyed by bitmasks.
    """
    candidates = sorted(unvalidated)
    if not candidates:
        raise ValueError("no unvalidated sensors left")
    net = iso.compiled
    key = (*net.finding_masks(findings), net.mask(candidates))
    memo = net.select_memo
    choice = memo.get(key)
    if choice is None:
        scores = candidate_scores(net, *key[:2], net.indices(candidates))
        best = scores.min()
        choice = next(s for s, v in zip(candidates, scores)
                      if v - best <= TIE_TOLERANCE)
        if len(memo) >= SELECT_MEMO_CAP:
            memo.clear()
        memo[key] = choice
    return choice


def quality(pf: Mapping[str, float]) -> float:
    """Normalized certainty: 0 at all-0.5 beliefs, 1 at all-certain beliefs."""
    return 1.0 - average_entropy(pf)


# --- decision trees ---------------------------------------------------------

@dataclass
class TreeNode:
    sensor: str
    faulty: "TreeNode | None" = None
    ok: "TreeNode | None" = None


@dataclass
class DecisionTree:
    """Binary validation-order tree; branches follow the faulty/ok outcome."""

    root: TreeNode | None

    def _walk(self) -> Iterator[tuple[TreeNode, tuple[str, ...]]]:
        """Each node and the sensors above it; pre-order, faulty branch first."""
        stack = [(self.root, ())]
        while stack:
            node, above = stack.pop()
            if node is not None:
                yield node, above
                below = above + (node.sensor,)
                stack += ((node.ok, below), (node.faulty, below))

    def node_count(self) -> int:
        return sum(1 for _ in self._walk())

    def depth(self) -> int:
        return max((len(above) + 1 for _, above in self._walk()), default=0)

    def check(self, sensors: Iterable[str]) -> None:
        """Raise ValueError naming the first node whose sensor is not among
        ``sensors`` or is already validated higher on its path."""
        known = set(sensors)
        for node, above in self._walk():
            if node.sensor not in known:
                raise ValueError(f"tree names unknown sensor {node.sensor!r}")
            if node.sensor in above:
                raise ValueError(
                    f"tree validates sensor {node.sensor!r} twice on one path")

    def paths(self) -> Iterator[list[tuple[str, str]]]:
        """All complete root-to-leaf outcome paths as (sensor, status) lists."""
        def walk(node, prefix):
            if node is None:
                yield prefix
                return
            yield from walk(node.faulty, prefix + [(node.sensor, FAULTY)])
            yield from walk(node.ok, prefix + [(node.sensor, CORRECT)])
        if self.root is None:
            return iter(())
        return walk(self.root, [])


def tree_to_json(tree: DecisionTree) -> str:
    return json.dumps(tree.root and asdict(tree.root), indent=1)


def tree_from_json(document: str) -> DecisionTree:
    """Parse a tree document; ValueError unless it is null or nested
    {"sensor", "faulty", "ok"} objects whose sensors are strings."""
    def decode(obj):
        return None if obj is None else TreeNode(
            _name(obj["sensor"]), decode(obj["faulty"]), decode(obj["ok"]))
    try:
        return DecisionTree(decode(json.loads(document)))
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError('not nested {"sensor", "faulty", "ok"} objects '
                         f"({exc!r})") from None


def single_fault_consistent(outcomes: Mapping[str, str], emb: EmbTable) -> bool:
    """True when the observed outcomes fit the ideal single-fault model:
    either nothing is faulty, or some sensor's EMB covers every faulty
    observation without touching a correct one."""
    faulty = {s for s, st in outcomes.items() if st == FAULTY}
    correct = {s for s, st in outcomes.items() if st == CORRECT}
    return not faulty or any(faulty <= blanket and not correct & blanket
                             for blanket in emb.values())


def _grow(pick: Callable, emb: EmbTable | None, findings: dict,
          node: TreeNode | None) -> TreeNode | None:
    """The subtree reached by ``findings``; None where ``emb`` is given and
    no single fault explains the findings, or where ``pick(findings, node)``
    names no sensor. ``node`` sits at this position in an existing tree."""
    if emb is not None and not single_fault_consistent(findings, emb):
        return None
    sensor = pick(findings, node)
    if sensor is None:
        return None
    return TreeNode(
        sensor,
        _grow(pick, emb, {**findings, sensor: FAULTY}, node and node.faulty),
        _grow(pick, emb, {**findings, sensor: CORRECT}, node and node.ok))


def compile_decision_tree(iso: IsolationNet,
                          emb: EmbTable | None = None) -> DecisionTree:
    """Precompile the selection policy into a tree.

    With ``emb`` given, branches inconsistent with the single-fault model
    are never expanded; the result is identical to compiling the full tree
    and then pruning it, but stays buildable for larger sensor sets.
    """
    def pick(findings, _node):
        rest = set(iso.sensors) - findings.keys()
        return select_next_sensor(iso, findings, rest) if rest else None

    return DecisionTree(_grow(pick, emb, {}, None))


def prune_single_fault(tree: DecisionTree, emb: EmbTable) -> DecisionTree:
    """Cut every branch whose outcome set no single-fault hypothesis explains."""
    return DecisionTree(_grow(lambda _findings, node: node and node.sensor,
                              emb, {}, tree.root))


# --- the validation cycle ---------------------------------------------------

@dataclass(frozen=True)
class StepRecord:
    """One validated sensor: the finding, the refreshed beliefs, and quality."""

    step: int
    sensor: str
    status: str
    pf: dict
    quality: float
    elapsed_ms: float      # library time in this cycle up to this step

    def to_json(self) -> str:
        return json.dumps({
            "step": self.step,
            "sensor": self.sensor,
            "status": self.status,
            "pf": {s: self.pf[s] for s in sorted(self.pf)},
            "quality": self.quality,
            "elapsed_ms": self.elapsed_ms,
        })


def run_anytime_validation(
    net: BayesNet,
    d: Discretizer,
    iso: IsolationNet,
    tree: DecisionTree | None,
    reading: Mapping[str, float],
    criterion: DetectionCriterion,
    selector: Callable[[IsolationNet, Mapping[str, str], set], str] | None = None,
) -> Iterator[StepRecord]:
    """Validate sensors one at a time, yielding a StepRecord after each.

    Order comes from tree traversal when a tree is supplied, otherwise from
    on-line entropy selection (or the supplied ``selector``). A pruned-tree
    path that ends early terminates the cycle with the last beliefs standing.
    A tree or selector that picks an unknown sensor, or one already
    validated in this cycle, raises ValueError naming it.
    """
    # elapsed_ms counts library time only: the clock stops at each yield
    busy = 0.0
    resumed = time.perf_counter()
    findings: dict[str, str] = {}
    unvalidated = set(iso.sensors)
    node = tree.root if tree is not None else None
    step = 0
    while unvalidated:
        if tree is not None:
            if node is None:
                return
            sensor = node.sensor
        elif selector is not None:
            sensor = selector(iso, findings, unvalidated)
        else:
            sensor = select_next_sensor(iso, findings, unvalidated)
        if sensor not in unvalidated:
            raise ValueError(
                f"sensor {sensor!r} was already validated in this cycle"
                if sensor in findings else f"unknown sensor {sensor!r}")
        status = validate_sensor(net, d, reading, sensor, criterion)
        findings[sensor] = FAULTY if status.faulty else CORRECT
        unvalidated.discard(sensor)
        pf = fault_belief(iso, findings)
        q = quality(pf)
        step += 1
        busy += time.perf_counter() - resumed
        yield StepRecord(
            step=step,
            sensor=sensor,
            status=findings[sensor],
            pf=pf,
            quality=q,
            elapsed_ms=busy * 1000.0,
        )
        resumed = time.perf_counter()
        if tree is not None:
            node = node.faulty if status.faulty else node.ok
