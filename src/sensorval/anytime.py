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
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .detection import DetectionCriterion, Discretizer, validate_sensor
# fault_belief stays a module attribute: perfbench/tracing.py wraps it here.
from .isolation import (CORRECT, FAULTY, IsolationNet, _indices,
                        candidate_scores, fault_belief,  # noqa: F401
                        _finding_masks, noisy_or_root_posteriors)
from .model import BayesNet, EmbTable, _name, malformed_part, remember


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
    return sum(map(binary_entropy, pf.values())) / len(pf)


def conditional_average_entropy(iso: IsolationNet,
                                findings: Mapping[str, str],
                                candidate: str) -> float:
    """Sum of the average entropies after each outcome of validating the
    candidate next; smaller means the validation is more informative."""
    return float(candidate_scores(iso, *iso.finding_masks(findings),
                                  iso.indices([candidate]))[0])


# Scores this close count as tied: symmetric sensors must not be ordered
# by rounding.
TIE_TOLERANCE = 1e-12


def select_next_sensor(iso: IsolationNet, findings: Mapping[str, str],
                       unvalidated: Iterable[str]) -> str:
    """The unvalidated sensor of minimum conditional average entropy;
    scores within TIE_TOLERANCE of the minimum tie, and ties break
    lexicographically. All candidates are scored in one pass
    (``isolation.candidate_scores``).

    The choice is a function of the findings and the candidates alone, so it
    is memoised on the network, keyed by bitmasks (``_select``).
    """
    return _select(iso, *iso.finding_masks(findings), iso.mask(unvalidated))


def _select(iso: IsolationNet, faulty: int, correct: int, open_: int) -> str:
    """``select_next_sensor`` on the (faulty, correct) finding bitmasks and
    the bitmask ``open_`` of candidates, memoised in ``iso.select_memo``
    under those three masks. Candidates are scored in name order whatever
    the order of ``iso.sensors``, and the first within TIE_TOLERANCE of
    the minimum is chosen, so ties break lexicographically. A lone
    candidate is chosen unscored, once the belief solve has checked that
    the findings have nonzero probability."""
    if not open_:
        raise ValueError("no unvalidated sensors left")
    key = (faulty, correct, open_)
    choice = iso.select_memo.get(key)
    if choice is None:
        if open_ & (open_ - 1):
            candidates = sorted(iso.sensors[i] for i in _indices(open_))
            scores = candidate_scores(iso, faulty, correct,
                                      iso.indices(candidates))
            choice = candidates[int(np.flatnonzero(
                scores - scores.min() <= TIE_TOLERANCE)[0])]
        else:
            noisy_or_root_posteriors(iso, faulty, correct)
            choice = iso.sensors[open_.bit_length() - 1]
        remember(iso.select_memo, key, choice)
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


def tree_to_json(tree: DecisionTree) -> str:
    return json.dumps(tree.root and asdict(tree.root), indent=1)


def tree_from_json(document: str) -> DecisionTree:
    """Parse a tree document; ValueError unless it is null or nested
    {"sensor", "faulty", "ok"} objects whose sensors are strings."""
    def decode(obj):
        return None if obj is None else TreeNode(
            _name(obj["sensor"]), decode(obj["faulty"]), decode(obj["ok"]))
    with malformed_part(ValueError, "document", "JSON"):
        doc = json.loads(document)
    try:
        return DecisionTree(decode(doc))
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError('not nested {"sensor", "faulty", "ok"} objects '
                         f"({exc!r})") from None


def single_fault_consistent(outcomes: Mapping[str, str], emb: EmbTable) -> bool:
    """True when the observed outcomes fit the ideal single-fault model:
    either nothing is faulty, or some sensor's EMB covers every faulty
    observation without touching a correct one. A status other than
    faulty or correct raises ValueError, as in ``fault_belief``."""
    bit = {s: 1 << i for i, s in enumerate(outcomes)}
    return _explained(*_finding_masks(outcomes, bit), _blanket_masks(emb, bit))


def _blanket_masks(emb: EmbTable, bit: Mapping[str, int]) -> list[int]:
    """Each EMB as a bitmask over ``bit``; members without a bit never have
    a finding, so they are left out."""
    return [sum(bit[s] for s in blanket if s in bit)
            for blanket in emb.values()]


def _explained(faulty: int, correct: int, blankets: list[int]) -> bool:
    """``single_fault_consistent`` on bitmasks of the findings."""
    return not faulty or any(not faulty & ~blanket and not correct & blanket
                             for blanket in blankets)


def _grow(pick: Callable, bit: Mapping[str, int], blankets: list | None,
          faulty: int, correct: int, context) -> TreeNode | None:
    """The subtree reached by the (faulty, correct) finding bitmasks over
    ``bit``; None where ``blankets`` are given and no single fault explains
    the findings, or where ``pick(faulty, correct, context)`` names no
    sensor. Otherwise ``pick`` returns the sensor and the contexts of its
    faulty and ok subtrees. A sensor found again on one path keeps only
    its last finding."""
    if blankets is not None and not _explained(faulty, correct, blankets):
        return None
    picked = pick(faulty, correct, context)
    if picked is None:
        return None
    sensor, if_faulty, if_ok = picked
    b = bit[sensor]
    return TreeNode(
        sensor,
        _grow(pick, bit, blankets, faulty | b, correct & ~b, if_faulty),
        _grow(pick, bit, blankets, faulty & ~b, correct | b, if_ok))


def compile_decision_tree(iso: IsolationNet,
                          emb: EmbTable | None = None) -> DecisionTree:
    """Precompile the selection policy into a tree: each node holds the
    sensor ``select_next_sensor`` picks given the findings above it.

    Every node is picked by the cycle's own selector (``_select``), so the
    compile leaves one ``iso.select_memo`` entry per node, under the key
    the validation cycle reads, and a warm memo cannot change the tree.
    With ``emb`` given, branches inconsistent with the single-fault model
    are never expanded; the result is identical to compiling the full tree
    and then pruning it, but stays buildable for larger sensor sets.
    """
    every = (1 << len(iso.sensors)) - 1

    def pick(faulty, correct, _context):
        open_ = every & ~(faulty | correct)
        if not open_:
            return None
        return _select(iso, faulty, correct, open_), None, None

    blankets = None if emb is None else _blanket_masks(emb, iso.bit)
    return DecisionTree(_grow(pick, iso.bit, blankets, 0, 0, None))


def prune_single_fault(tree: DecisionTree, emb: EmbTable) -> DecisionTree:
    """Cut every branch whose outcome set no single-fault hypothesis explains."""
    bit: dict[str, int] = {}
    for node, _ in tree._walk():
        bit.setdefault(node.sensor, 1 << len(bit))
    return DecisionTree(_grow(
        lambda _faulty, _correct, node: node and (node.sensor, node.faulty,
                                                  node.ok),
        bit, _blanket_masks(emb, bit), 0, 0, tree.root))


# --- the validation cycle ---------------------------------------------------

class StepRecord(NamedTuple):
    """One validated sensor: the finding, the refreshed beliefs, and quality.

    ``elapsed_ms`` is the library time in this cycle up to this step; the
    step's own library time is split into ``select_ms`` (online selection,
    0 on a tree walk), ``detect_ms`` (validating the sensor) and
    ``belief_ms`` (posteriors, ``pf``, the entropies of the beliefs that
    moved and ``quality``). ``to_json`` leaves the three out. A named
    tuple, so that a step costs no per-field ``object.__setattr__``.
    """

    step: int
    sensor: str
    status: str
    pf: dict
    quality: float
    elapsed_ms: float
    detect_ms: float
    select_ms: float
    belief_ms: float

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
) -> Iterator[StepRecord]:
    """Validate sensors one at a time, yielding a StepRecord after each.

    Order comes from tree traversal when a tree is supplied, otherwise from
    on-line entropy selection (``select_next_sensor``). A tree path that
    ends early terminates the cycle with the last beliefs standing. A tree
    that picks an unknown sensor, or one already validated in this cycle,
    raises ValueError naming it.

    The findings are carried as bitmasks over ``iso.sensors`` (faulty,
    correct and still open), one bit set per step; each step's ``pf`` is
    what ``fault_belief`` gives for the findings so far, and its
    ``quality`` what ``quality(pf)`` gives, bit for bit. The cycle starts
    from the network's no-finding beliefs (entry (0, 0) of ``iso.states``,
    computed by the first cycle on the network, outside its clock). The
    first step reads its state from ``iso.states`` too, computing and
    storing it when the table lacks it. An entry holds the posteriors,
    their entropies, the quality and the ``pf`` dict; on a hit the step's
    ``belief_ms`` covers only the lookup and a copy of the entropy list
    and of the stored ``pf``, so the consumer owns the dict it is given.
    """
    start = iso.states.get((0, 0))
    if start is None:
        post = noisy_or_root_posteriors(iso, 0, 0).tolist()
        entropies = [binary_entropy(p) for p in post]
        start = iso.states[0, 0] = (
            post, entropies, 1.0 - sum(entropies) / len(entropies),
            dict(zip(iso.sensors, post)))
    # the last posteriors and their entropies; a step refreshes the
    # entropy of only the roots whose posterior it changed, on its own
    # copy of the list from the first step on
    last, entropies, _, _ = start
    # library time only: the clock stops at each yield
    clock = time.perf_counter
    busy = 0.0
    resumed = clock()
    faulty = correct = 0
    open_ = (1 << len(iso.sensors)) - 1
    node = tree.root if tree is not None else None
    step = 0
    while open_:
        if tree is None:
            sensor = _select(iso, faulty, correct, open_)
            selected = clock()
        else:
            if node is None:
                return
            sensor = node.sensor
            if not open_ & iso.bit.get(sensor, 0):
                raise ValueError(
                    f"sensor {sensor!r} was already validated in this cycle"
                    if sensor in iso.bit else f"unknown sensor {sensor!r}")
            selected = resumed
        status = validate_sensor(net, d, reading, sensor, criterion)
        detected = clock()
        b = iso.bit[sensor]
        if status.faulty:
            faulty |= b
        else:
            correct |= b
        open_ &= ~b
        state = None if step else iso.states.get((faulty, correct))
        if state is None:
            post = noisy_or_root_posteriors(iso, faulty, correct).tolist()
            if not step:
                entropies = entropies.copy()
            for i, p in enumerate(post):
                if p != last[i]:
                    entropies[i] = binary_entropy(p)
            # quality(pf), summed in the same order
            q = 1.0 - sum(entropies) / len(entropies)
            pf = dict(zip(iso.sensors, post))
            if not step:
                iso.states[faulty, correct] = (post, entropies.copy(), q,
                                               pf.copy())
        else:
            post, entropies, q, pf = state
            entropies = entropies.copy()
            pf = pf.copy()
        last = post
        step += 1
        done = clock()
        busy += done - resumed
        # positional fields, in StepRecord's order: half the cost of keywords
        yield StepRecord(step, sensor, FAULTY if status.faulty else CORRECT,
                         pf, q, busy * 1000.0, (detected - selected) * 1000.0,
                         (selected - resumed) * 1000.0,
                         (done - detected) * 1000.0)
        resumed = clock()
        if tree is not None:
            node = node.faulty if status.faulty else node.ok
