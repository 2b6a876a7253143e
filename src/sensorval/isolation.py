"""Two-layer real-fault / apparent-fault causal network.

Roots R_i (one per sensor, binary fault/ok) point at leaves A_j (binary
faulty/correct) for every j in EMB(i); leaf conditionals are noisy-OR.
Validation outcomes enter as hard evidence on the leaves and the root
posteriors form the fault-probability vector refined step by step.

Each network builds, once, the arrays that the exact solver reads. One
solver (``_solve``) answers every question about a component that faulty
findings couple, for the belief update and for selection, online or compiled,
and memoises each answer on the network. Findings are passed to the
solver as bitmasks over the sensors.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping

import numpy as np

from .inference import (_EVIDENCE_EPS, InconsistentEvidenceError,
                        NoisyOrParams, factor_marginals, noisy_or_row)
from .model import BayesNet, Cpt, EmbTable, Variable, remember

FAULT, OK = "fault", "ok"
FAULTY, CORRECT = "faulty", "correct"

DEFAULT_LINK_STRENGTH = 0.99
DEFAULT_PRIOR = 0.5
# Components with more root assignments take variable elimination (tests patch it).
ENUMERATION_LIMIT = 2 ** 16


def root_name(sensor: str) -> str:
    return f"R_{sensor}"


def apparent_name(sensor: str) -> str:
    return f"A_{sensor}"


def _finding_masks(findings: Mapping[str, str],
                   bit: Mapping[str, int]) -> tuple[int, int]:
    """(faulty, correct) bitmasks over ``bit`` of sensor -> "faulty"/"correct"
    findings."""
    faulty = correct = 0
    for sensor, status in findings.items():
        b = bit.get(sensor)
        if b is None:
            raise KeyError(f"finding for unknown sensor {sensor!r}")
        if status == FAULTY:
            faulty |= b
        elif status == CORRECT:
            correct |= b
        else:
            raise ValueError(f"finding for {sensor!r} must be faulty/correct")
    return faulty, correct


class IsolationNet:
    """The bipartite fault-isolation network derived from an EMB table.

    ``sensors``, ``parents_of`` (apparent sensor -> tuple of root
    sensors), ``params`` and ``priors`` (sensor -> prior fault probability)
    specify it; every link strength must lie in (0, 1] and every prior in
    (0, 1), or ValueError names the link or the sensor. The arrays the
    exact solver reads are built from them here, indexed by position in
    ``sensors``, so the four must not be mutated afterwards; build a new
    network instead.

    ``log_q[i, j]`` is log(1 - c_ij) for a link i -> j and 0 where there is
    none; ``ok_prior[i]`` is 1 - prior and ``log_odds[i]`` is
    log(prior / (1 - prior)); ``parents[j]`` lists
    the causes of apparent fault j, ``child_mask[i]`` the apparent faults
    root i causes and ``linked_mask[j]`` those any cause of j causes.
    ``index`` maps each sensor to its position i and ``bit`` to 1 << i;
    sets of sensors are int bitmasks with bit i for ``sensors[i]``.
    ``select_memo`` holds the choices of selection: the validation cycle's
    selector (``anytime._select``), its wrapper
    ``anytime.select_next_sensor`` and ``anytime.compile_decision_tree``,
    which picks every node through ``_select``, share it, under one key of
    finding and candidate bitmasks. ``component_memo``
    holds every component solve (``_solve``), enumerated or eliminated, of
    the belief update and of ``branch_posteriors``, keyed by
    the component's root mask, its faulty effects in order and the correct
    findings among the apparent faults its roots cause. Both store through
    ``model.remember``, which caps each at ``model.MEMO_CAP`` entries.
    ``states`` is the table of the validation cycle
    (``anytime.run_anytime_validation``) for the states at most one
    finding from the start, keyed by their (faulty, correct) finding
    bitmasks; each value is the posterior list in ``sensors`` order, the
    binary entropy of each, the quality, and the ``pf`` dict of the
    posteriors in ``sensors`` order, built once when the entry is stored.
    The first cycle on the network stores (0, 0), the start state, and a
    cycle stores its first step's state when the table lacks it; no entry
    changes once stored, so the table holds at most 2 * len(sensors) + 1
    entries. On a first step found there, the step's ``belief_ms`` covers
    only the lookup and a copy of the entropy list and of the stored
    ``pf``; the step yields the copy.
    """

    __slots__ = ("sensors", "parents_of", "params", "priors", "index", "bit",
                 "prior", "ok_prior", "log_odds", "log_q", "parents",
                 "parent_mask", "child_mask", "linked_mask", "select_memo",
                 "component_memo", "states")

    def __init__(self, sensors: tuple[str, ...], parents_of: dict,
                 params: NoisyOrParams, priors: dict):
        self.sensors = sensors
        self.parents_of = parents_of
        self.params = params
        self.priors = priors
        self.index = index = {s: i for i, s in enumerate(sensors)}
        self.bit = {s: 1 << i for s, i in index.items()}
        for s in sensors:
            if not 0.0 < priors[s] < 1.0:     # NaN fails too
                raise ValueError(
                    f"prior of sensor {s!r} must lie in (0, 1), "
                    f"not {priors[s]!r}")
        self.prior = np.array([priors[s] for s in sensors])
        self.ok_prior = 1.0 - self.prior
        self.log_odds = np.log(self.prior) - np.log1p(-self.prior)
        self.log_q = np.zeros((len(index), len(index)))
        self.parents = []
        self.parent_mask = []
        self.child_mask = [0] * len(index)
        for j in sensors:
            causes = [index[i] for i in parents_of[j]]
            for i, cause in zip(causes, parents_of[j]):
                c = params.c(cause, j)
                if not 0.0 < c <= 1.0:
                    raise ValueError(f"strength of link {cause!r} -> {j!r} "
                                     f"must lie in (0, 1], not {c!r}")
                # a certain link (c = 1) keeps a finite floor
                self.log_q[i, index[j]] = (math.log1p(-c) if c < 1.0
                                           else math.log(_EVIDENCE_EPS))
                self.child_mask[i] |= 1 << index[j]
            self.parents.append(causes)
            self.parent_mask.append(sum(1 << i for i in causes))
        self.linked_mask = [0] * len(index)
        for j, causes in enumerate(self.parents):
            for i in causes:
                self.linked_mask[j] |= self.child_mask[i]
        self.select_memo = {}
        self.component_memo = {}
        self.states = {}

    def indices(self, sensors: Iterable[str]) -> list[int]:
        try:
            return [self.index[s] for s in sensors]
        except KeyError as exc:
            raise KeyError(f"unknown sensor {exc.args[0]!r}") from None

    def mask(self, sensors: Iterable[str]) -> int:
        mask = 0
        for i in self.indices(sensors):
            mask |= 1 << i      # a sensor named twice sets its bit once
        return mask

    def finding_masks(self, findings: Mapping[str, str]) -> tuple[int, int]:
        """(faulty, correct) bitmasks of sensor -> "faulty"/"correct" findings."""
        return _finding_masks(findings, self.bit)

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


def _indices(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first; one pass per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@functools.cache
def _bit_table(k: int) -> np.ndarray:
    """All 2**k assignments of k binary roots; row r holds the bits of r.
    Built once per k, on first use, and read-only. Only enumeration reads
    it, so 2**k stays within ENUMERATION_LIMIT."""
    table = ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(float)
    table.flags.writeable = False
    return table


def noisy_or_root_posteriors(net: IsolationNet, faulty: int,
                             correct: int) -> np.ndarray:
    """Exact P(root active | leaf findings), in the network's sensor order.

    ``faulty`` and ``correct`` are bitmasks of the observed apparent
    statuses. Correct findings factorize into per-root weights, so a root
    no faulty finding reaches has a closed form; each faulty finding
    couples its parent set, and each coupled component is one ``_solve``.
    """
    return _belief(net, correct, _components(net, faulty))


def branch_posteriors(net: IsolationNet, faulty: int, correct: int,
                      candidates: list[int]) -> np.ndarray:
    """Root posteriors after each outcome of validating each candidate next.

    ``candidates`` are sensor indices without a finding. Row [0, i] holds
    the posteriors once ``candidates[i]`` is found correct, row [1, i] once
    it is found faulty.

    A correct finding on c adds ``log_q[:, c]`` to the roots' active
    log-weights: the roots in no component take it in closed form, every
    candidate at once, and a component is solved again only for the
    candidates among the apparent faults its roots cause (its ``linked``
    mask); the others keep the current solve. A faulty finding on c changes
    only the component that c's parents merge into (``_merge``), so every
    other root keeps its current posterior.
    """
    for c in candidates:
        if (faulty | correct) >> c & 1:
            raise ValueError(f"{net.sensors[c]!r} already has a finding")
    components = _components(net, faulty)
    w1 = net.prior[:, None] * np.exp(
        net.log_q[:, _indices(correct)].sum(axis=1)[:, None]
        + net.log_q[:, candidates])
    out = np.empty((2, len(candidates), len(net.prior)))
    out[0] = (w1 / (w1 + net.ok_prior[:, None])).T
    out[1] = _belief(net, correct, components)
    for roots, effects, linked in components:
        members, solved = _solve(net, roots, effects, correct & linked)
        out[0][:, members] = solved
        for i, c in enumerate(candidates):
            if linked >> c & 1:
                out[0, i, members] = _solve(net, roots, effects,
                                            (correct | 1 << c) & linked)[1]
    for i, c in enumerate(candidates):
        (roots, effects, linked), _ = _merge(net, components, c)
        members, solved = _solve(net, roots, effects, correct & linked)
        out[1, i, members] = solved
    return out


def _belief(net: IsolationNet, correct: int, components: list) -> np.ndarray:
    """``noisy_or_root_posteriors`` given the faulty findings' components."""
    w1 = net.prior * np.exp(net.log_q[:, _indices(correct)].sum(axis=1))
    post = w1 / (w1 + net.ok_prior)
    for roots, effects, linked in components:
        members, solved = _solve(net, roots, effects, correct & linked)
        post[members] = solved
    return post


def candidate_scores(net: IsolationNet, faulty: int, correct: int,
                     candidates: list[int]) -> np.ndarray:
    """Conditional average entropy of each candidate: the mean binary
    entropy of the root posteriors after a correct finding plus that after
    a faulty one. Smaller means the validation is more informative."""
    p = branch_posteriors(net, faulty, correct, candidates)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p) + q * np.log2(q))
    h[np.isnan(h)] = 0.0                # 0 * log 0 where p is 0 or 1
    return (h.sum(axis=2) / p.shape[2]).sum(axis=0)


def _merge(net: IsolationNet, components: list, j: int) -> tuple:
    """The component a faulty finding on j forms, joined with every
    component sharing a root with it, and the untouched rest."""
    roots, effects, linked = net.parent_mask[j], (j,), net.linked_mask[j]
    rest = []
    for comp in components:
        if comp[0] & roots:
            roots |= comp[0]
            effects += comp[1]
            linked |= comp[2]
        else:
            rest.append(comp)
    return (roots, effects, linked), rest


def _components(net: IsolationNet, faulty: int) -> list:
    """The components coupled by faulty findings: (root mask, faulty
    effects in order, mask of the apparent faults the roots cause)."""
    components = []
    for j in _indices(faulty):
        joined, rest = _merge(net, components, j)
        components = rest + [joined]
    return components


def _solve(net: IsolationNet, roots: int, effects: tuple,
           linked_correct: int) -> tuple:
    """(member indices, posteriors) of the coupled component of the roots
    ``roots`` given its faulty ``effects`` in order and the correct
    findings ``linked_correct`` on the apparent faults those roots cause.

    No other finding reaches these roots, so the solve is memoised on
    ``net`` under exactly these arguments. Components of at most
    ``ENUMERATION_LIMIT`` root assignments are summed out by vectorized
    enumeration, larger ones by variable elimination. 1 - prod q is taken
    as -expm1(sum log q) so weak links keep their precision.
    """
    key = (roots, effects, linked_correct)
    solved = net.component_memo.get(key)
    if solved is not None:
        return solved
    members = _indices(roots)
    log_q = net.log_q[members]
    sums = log_q[:, _indices(linked_correct)].sum(axis=1)
    if 2 ** len(members) > ENUMERATION_LIMIT:
        post = _component_marginals_ve(net, members, effects,
                                       net.prior[members] * np.exp(sums))
    else:
        bits = _bit_table(len(members))
        logw = bits @ (net.log_odds[members] + sums)
        likelihood = (-np.expm1(bits @ log_q[:, effects])).prod(axis=1)
        weights = np.exp(logw - logw.max()) * likelihood
        total = weights.sum()
        if total <= _EVIDENCE_EPS:
            raise InconsistentEvidenceError("findings have probability zero")
        # a subset's sum of weights can round above the total
        post = np.minimum((bits.T @ weights) / total, 1.0)
    solved = np.array(members), post
    remember(net.component_memo, key, solved)
    return solved


def _component_marginals_ve(net, members, effects, w1) -> np.ndarray:
    """Exact per-root marginals of one coupled component by variable
    elimination over binary root variables."""
    factors = [((i,), np.array([net.ok_prior[i], w]))
               for i, w in zip(members, w1)]
    for j in effects:
        causes = net.parents[j]
        # axis k is cause k; not from _bit_table, whose cache would keep a
        # table for every cause count met here, past ENUMERATION_LIMIT
        s = functools.reduce(np.add.outer,
                             ([0.0, net.log_q[i, j]] for i in causes))
        factors.append((tuple(causes), -np.expm1(s)))
    marginals = factor_marginals(factors, members)
    return np.array([marginals[i][1] for i in members])


def fault_belief(iso: IsolationNet, findings: Mapping[str, str]) -> dict[str, float]:
    """P(R_i = fault | findings) for every sensor, recomputed from scratch.

    ``findings`` maps sensor -> "faulty"/"correct" apparent status.
    """
    post = noisy_or_root_posteriors(iso, *iso.finding_masks(findings))
    return dict(zip(iso.sensors, post.tolist()))


def declare_faults(pf: Mapping[str, float], threshold: float) -> frozenset[str]:
    """Sensors whose fault probability reaches the declaration threshold."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("declaration threshold must lie in (0, 1)")
    return frozenset(s for s, p in pf.items() if p >= threshold)
