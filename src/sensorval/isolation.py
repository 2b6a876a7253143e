"""Two-layer real-fault / apparent-fault causal network.

Roots R_i (one per sensor, binary fault/ok) point at leaves A_j (binary
faulty/correct) for every j in EMB(i); leaf conditionals are noisy-OR.
Validation outcomes enter as hard evidence on the leaves and the root
posteriors form the fault-probability vector refined step by step.

Each network is compiled once, on first use, into arrays that the exact
solver reads; findings are passed to it as bitmasks over the sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .inference import (InconsistentEvidenceError, NoisyOrParams,
                        factor_marginals, noisy_or_row)
from .model import BayesNet, Cpt, EmbTable, Variable

FAULT, OK = "fault", "ok"
FAULTY, CORRECT = "faulty", "correct"

DEFAULT_LINK_STRENGTH = 0.99
DEFAULT_PRIOR = 0.5
_TINY = 1e-300                 # evidence at or below this has probability zero
# Components with more root assignments take variable elimination (tests patch it).
ENUMERATION_LIMIT = 2 ** 16


def root_name(sensor: str) -> str:
    return f"R_{sensor}"


def apparent_name(sensor: str) -> str:
    return f"A_{sensor}"


@dataclass(frozen=True)
class IsolationNet:
    """The bipartite fault-isolation network derived from an EMB table.

    Compiled into arrays on first use (``compiled``), so its dict fields
    must not be mutated afterwards; build a new network instead.
    """

    sensors: tuple[str, ...]
    parents_of: dict                   # apparent sensor -> tuple of root sensors
    params: NoisyOrParams
    priors: dict                       # sensor -> prior fault probability

    @cached_property
    def compiled(self) -> "CompiledIsolation":
        return CompiledIsolation(self)

    def to_bayes_net(self) -> BayesNet:
        """Expand the noisy-OR conditionals into an explicit BayesNet."""
        variables = []
        edges = []
        cpts = {}
        for s in self.sensors:
            variables.append(Variable(root_name(s), (OK, FAULT)))
            pi = self.priors[s]
            cpts[root_name(s)] = Cpt(root_name(s), (),
                                     np.array([[1.0 - pi, pi]]))
        for s in self.sensors:
            causes = self.parents_of[s]
            variables.append(Variable(apparent_name(s), (CORRECT, FAULTY)))
            edges.extend((root_name(i), apparent_name(s)) for i in causes)
            rows = []
            for code in range(2 ** len(causes)):
                assignment = {
                    causes[k]: bool((code >> (len(causes) - 1 - k)) & 1)
                    for k in range(len(causes))
                }
                p = noisy_or_row(self.params, s, causes, assignment)
                rows.append([1.0 - p, p])
            cpts[apparent_name(s)] = Cpt(
                apparent_name(s), tuple(root_name(i) for i in causes),
                np.array(rows))
        return BayesNet(variables, edges, cpts)


def build_isolation_network(
    emb: EmbTable | Mapping,
    link_strength: float = DEFAULT_LINK_STRENGTH,
    prior: float = DEFAULT_PRIOR,
    link_overrides: Mapping[tuple, float] | None = None,
) -> IsolationNet:
    """Build the isolation network: arcs R_i -> A_j for every j in EMB(i).

    Uniform link strength and prior by default; ``link_overrides`` may set
    per-link strengths keyed by (cause sensor, effect sensor).
    """
    if not (0.0 < link_strength < 1.0):
        raise ValueError("link strength must lie in (0, 1)")
    if not (0.0 < prior < 1.0):
        raise ValueError("prior must lie in (0, 1)")
    if not isinstance(emb, EmbTable):
        emb = EmbTable(emb)
    sensors = tuple(sorted(emb))
    parents_of = {j: tuple(sorted(i for i in sensors if j in emb[i]))
                  for j in sensors}
    strengths = {}
    for j, causes in parents_of.items():
        for i in causes:
            strengths[(i, j)] = link_strength
    if link_overrides:
        for key, value in link_overrides.items():
            if key not in strengths:
                raise KeyError(f"no EMB arc for link override {key!r}")
            if not (0.0 < value < 1.0):
                raise ValueError(f"link override {key!r} must lie in (0, 1)")
            strengths[key] = float(value)
    return IsolationNet(
        sensors=sensors,
        parents_of=parents_of,
        params=NoisyOrParams(strengths),
        priors={s: prior for s in sensors},
    )


class CompiledIsolation:
    """An IsolationNet as arrays, indexed by position in ``iso.sensors``.

    ``log_q[i, j]`` is log(1 - c_ij) for a link i -> j and 0 where there is
    none; ``log_odds[i]`` is log(prior / (1 - prior)); ``parents[j]`` lists
    the causes of apparent fault j. ``index`` maps each sensor to its
    position i and ``bit`` to 1 << i; sets of sensors are int bitmasks
    with bit i for ``iso.sensors[i]``. ``select_memo`` belongs to
    ``anytime.select_next_sensor``, which memoises its choices there.
    """

    __slots__ = ("sensors", "index", "bit", "prior", "log_odds", "log_q",
                 "parents", "parent_mask", "select_memo")

    def __init__(self, iso: IsolationNet):
        self.sensors = iso.sensors
        self.index = index = {s: i for i, s in enumerate(iso.sensors)}
        self.bit = {s: 1 << i for s, i in index.items()}
        self.prior = np.array([iso.priors[s] for s in iso.sensors])
        self.log_odds = np.log(self.prior) - np.log1p(-self.prior)
        self.log_q = np.zeros((len(index), len(index)))
        self.parents = []
        self.parent_mask = []
        for j in iso.sensors:
            causes = [index[i] for i in iso.parents_of[j]]
            for i, cause in zip(causes, iso.parents_of[j]):
                c = iso.params.c(cause, j)
                # a certain link (c = 1) keeps a finite floor
                self.log_q[i, index[j]] = (math.log1p(-c) if c < 1.0
                                           else math.log(_TINY))
            self.parents.append(causes)
            self.parent_mask.append(sum(1 << i for i in causes))
        self.select_memo = {}

    def indices(self, sensors: Iterable[str]) -> list[int]:
        try:
            return [self.index[s] for s in sensors]
        except KeyError as exc:
            raise KeyError(f"unknown sensor {exc.args[0]!r}") from None

    def mask(self, sensors: Iterable[str]) -> int:
        return sum(1 << i for i in self.indices(sensors))

    def finding_masks(self, findings: Mapping[str, str]) -> tuple[int, int]:
        """(faulty, correct) bitmasks of sensor -> "faulty"/"correct" findings."""
        faulty = correct = 0
        for sensor, status in findings.items():
            bit = self.bit.get(sensor)
            if bit is None:
                raise KeyError(f"finding for unknown sensor {sensor!r}")
            if status == FAULTY:
                faulty |= bit
            elif status == CORRECT:
                correct |= bit
            else:
                raise ValueError(f"finding for {sensor!r} must be faulty/correct")
        return faulty, correct


def _indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _bit_table(k: int) -> np.ndarray:
    """All 2**k assignments of k binary roots; row r holds the bits of r."""
    return ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(float)


_BIT_TABLES = [_bit_table(k) for k in range(11)]


def noisy_or_root_posteriors(net: CompiledIsolation, faulty: int,
                             correct: int) -> np.ndarray:
    """Exact P(root active | leaf findings), in the network's sensor order.

    ``faulty`` and ``correct`` are bitmasks of the observed apparent
    statuses. Correct findings factorize into per-root weights; each faulty
    finding couples its parent set. Coupled components are summed out by
    vectorized enumeration while small, by variable elimination beyond
    ``ENUMERATION_LIMIT`` assignments. 1 - prod q is taken as
    -expm1(sum log q) so weak links keep their precision.
    """
    active_log = net.log_q[:, _indices(correct)].sum(axis=1)
    return _posteriors(net, active_log, _components(net, faulty))


def branch_posteriors(net: CompiledIsolation, faulty: int, correct: int,
                      candidates: list[int]) -> np.ndarray:
    """Root posteriors after each outcome of validating each candidate next.

    ``candidates`` are sensor indices without a finding. Row [0, i] holds
    the posteriors once ``candidates[i]`` is found correct, row [1, i] once
    it is found faulty. A correct finding only adds ``log_q[:, c]`` to the
    roots' active log-weights, so all correct branches are enumerated as
    one batch over the state's components; a faulty finding changes only
    the component that c's parents merge into, so only that component is
    re-enumerated and every other root keeps the state's posterior.
    """
    for c in candidates:
        if (faulty | correct) >> c & 1:
            raise ValueError(f"{net.sensors[c]!r} already has a finding")
    active_log = net.log_q[:, _indices(correct)].sum(axis=1)
    components = _components(net, faulty)
    out = np.empty((2, len(candidates), len(net.prior)))
    batch = active_log[:, None] + net.log_q[:, candidates]
    out[0] = _posteriors(net, batch, components).T
    out[1] = _posteriors(net, active_log, components)
    unary = net.log_odds + active_log
    w1 = net.prior * np.exp(active_log)
    for i, c in enumerate(candidates):
        roots, effects, _ = _merge(components, net.parent_mask[c], [c])
        members = _indices(roots)
        out[1, i, members] = _component(net, members, effects, unary, w1)
    return out


def candidate_scores(net: CompiledIsolation, faulty: int, correct: int,
                     candidates: list[int]) -> np.ndarray:
    """Conditional average entropy of each candidate: the mean binary
    entropy of the root posteriors after a correct finding plus that after
    a faulty one. Smaller means the validation is more informative."""
    p = branch_posteriors(net, faulty, correct, candidates).clip(0.0, 1.0)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p) + q * np.log2(q))
    h[(p == 0.0) | (p == 1.0)] = 0.0
    return h.mean(axis=2).sum(axis=0)


def _merge(components: list, roots: int, effects: list) -> tuple:
    """Join the component (roots, effects) with every component sharing a
    root; returns the joined roots and effects (``effects`` extended in
    place) and the untouched rest."""
    rest = []
    for comp in components:
        if comp[0] & roots:
            roots |= comp[0]
            effects += comp[1]
        else:
            rest.append(comp)
    return roots, effects, rest


def _components(net: CompiledIsolation, faulty: int) -> list:
    """The (root mask, faulty effects) components coupled by faulty findings."""
    components = []
    for j in _indices(faulty):
        roots, effects, rest = _merge(components, net.parent_mask[j], [j])
        components = rest + [(roots, effects)]
    return components


def _posteriors(net, active_log, components) -> np.ndarray:
    """Root posteriors given the active log-weights of the correct findings:
    a vector over roots, or a matrix with one column per batch entry."""
    prior, log_odds = net.prior, net.log_odds
    if active_log.ndim == 2:
        prior, log_odds = prior[:, None], log_odds[:, None]
    w1 = prior * np.exp(active_log)
    post = w1 / (w1 + (1.0 - prior))
    unary = log_odds + active_log
    for roots, effects in components:
        members = _indices(roots)
        post[members] = _component(net, members, effects, unary, w1)
    return post


def _component(net, members, effects, unary, w1):
    """Exact posteriors of one coupled component's roots, from every root's
    log-odds ``unary`` and active weight ``w1`` given the correct findings:
    vectors, or matrices with one column per batch entry."""
    k = len(members)
    if 2 ** k > ENUMERATION_LIMIT:
        if w1.ndim == 1:
            return _component_marginals_ve(net, members, effects, w1)
        return np.column_stack([
            _component_marginals_ve(net, members, effects, column)
            for column in w1.T])
    bits = _BIT_TABLES[k] if k < len(_BIT_TABLES) else _bit_table(k)
    logw = bits @ unary[members]
    likelihood = (-np.expm1(bits @ net.log_q[members][:, effects])).prod(axis=1)
    # a single solve, the belief update of every cycle step, stays in
    # vector form: the axis arguments cost it about 1 us per component
    if logw.ndim == 1:
        weights = np.exp(logw - logw.max()) * likelihood
        total = weights.sum()
        smallest = total
    else:
        weights = np.exp(logw - logw.max(axis=0)) * likelihood[:, None]
        total = weights.sum(axis=0)
        smallest = total.min()
    if smallest <= _TINY:
        raise InconsistentEvidenceError("findings have probability zero")
    return (bits.T @ weights) / total


def _component_marginals_ve(net, members, effects, w1) -> np.ndarray:
    """Exact per-root marginals of one coupled component by variable
    elimination over binary root variables."""
    factors = [((i,), np.array([1.0 - net.prior[i], w1[i]])) for i in members]
    for j in effects:
        causes = net.parents[j]
        s = _bit_table(len(causes)) @ net.log_q[causes, j]
        # row r of the bit table sets cause k to bit k of r, so in C order
        # the last cause is the first axis
        factors.append((tuple(reversed(causes)),
                        (-np.expm1(s)).reshape((2,) * len(causes))))
    marginals = factor_marginals(factors, members)
    return np.array([marginals[i][1] for i in members])


def fault_belief(iso: IsolationNet, findings: Mapping[str, str]) -> dict[str, float]:
    """P(R_i = fault | findings) for every sensor, recomputed from scratch.

    ``findings`` maps sensor -> "faulty"/"correct" apparent status.
    """
    net = iso.compiled
    post = noisy_or_root_posteriors(net, *net.finding_masks(findings))
    return dict(zip(iso.sensors, post.tolist()))


def declare_faults(pf: Mapping[str, float], threshold: float) -> frozenset[str]:
    """Sensors whose fault probability reaches the declaration threshold."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("declaration threshold must lie in (0, 1)")
    return frozenset(s for s, p in pf.items() if p >= threshold)
