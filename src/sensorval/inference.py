"""Exact posterior marginals over discrete Bayesian networks.

Two routes to the same numbers: variable elimination with a min-fill
ordering (the fast path) and full joint enumeration (the testing oracle).
Also provides the noisy-OR conditional model and the per-target
elimination that the isolation network's solver falls back on for large
coupled components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import BayesNet, UnknownVariableError

BRUTE_FORCE_LIMIT = 2 ** 24
_EVIDENCE_EPS = 1e-300


class InconsistentEvidenceError(Exception):
    """The observed evidence has probability zero under the model."""


@dataclass(frozen=True)
class Distribution:
    """A normalized distribution over one variable's states."""

    name: str
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if (p < -1e-12).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"not a distribution over {self.name!r}: {p}")


def _check_evidence(net: BayesNet, evidence: Mapping[str, str]):
    return {name: net.state_index(name, state) for name, state in evidence.items()}


# --- factors ---------------------------------------------------------------

class _Factor:
    __slots__ = ("vars", "values")

    def __init__(self, variables: tuple[str, ...], values: np.ndarray):
        self.vars = variables
        self.values = values

    def multiply(self, other: "_Factor") -> "_Factor":
        out_vars = self.vars + tuple(v for v in other.vars if v not in self.vars)
        a = self.values.reshape(self.values.shape + (1,) * (len(out_vars) - len(self.vars)))
        order = sorted(range(len(other.vars)),
                       key=lambda i: out_vars.index(other.vars[i]))
        shape = [other.values.shape[other.vars.index(v)] if v in other.vars else 1
                 for v in out_vars]
        b = np.transpose(other.values, order).reshape(shape)
        return _Factor(out_vars, a * b)

    def marginalize(self, name: str) -> "_Factor":
        axis = self.vars.index(name)
        out_vars = self.vars[:axis] + self.vars[axis + 1:]
        return _Factor(out_vars, self.values.sum(axis=axis))

    def reduce(self, name: str, index: int) -> "_Factor":
        axis = self.vars.index(name)
        out_vars = self.vars[:axis] + self.vars[axis + 1:]
        return _Factor(out_vars, np.take(self.values, index, axis=axis))


def _cpt_factor(net: BayesNet, name: str) -> _Factor:
    cpt = net.cpts[name]
    cards = [net.cardinality(p) for p in cpt.parents] + [net.cardinality(name)]
    values = cpt.table.reshape(cards)
    return _Factor(tuple(cpt.parents) + (name,), values)


def _min_fill_order(factors: Sequence[_Factor], eliminate: set[str]) -> list[str]:
    # Greedy min-fill on the interaction graph, lexicographic tie-break.
    neighbors: dict[str, set[str]] = {v: set() for v in eliminate}
    for f in factors:
        for v in f.vars:
            if v in eliminate:
                neighbors[v].update(u for u in f.vars if u != v)
    order = []
    remaining = set(eliminate)
    while remaining:
        best = None
        for v in sorted(remaining):
            nbrs = [u for u in neighbors[v] if u in remaining or u not in eliminate]
            fill = 0
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if b not in neighbors.get(a, ()):
                        fill += 1
            if best is None or fill < best[0]:
                best = (fill, v)
        v = best[1]
        order.append(v)
        remaining.discard(v)
        nbrs = {u for u in neighbors[v] if u in remaining}
        for a in nbrs:
            neighbors[a].update(nbrs - {a})
            neighbors[a].discard(v)
    return order


def _drop_barren(net: BayesNet, keep: set[str]) -> list[str]:
    # Unobserved leaves outside `keep` integrate to one; prune them repeatedly.
    children = {n: set(net.children(n)) for n in net.names()}
    alive = set(net.names())
    changed = True
    while changed:
        changed = False
        for n in sorted(alive):
            if n in keep:
                continue
            if not (children[n] & alive):
                alive.discard(n)
                changed = True
    return [n for n in net.names() if n in alive]


def _sum_out(factors: list[_Factor], eliminate: set) -> list[_Factor]:
    """Sum every variable in ``eliminate`` out of the factor product, in
    min-fill order."""
    for name in _min_fill_order(factors, eliminate):
        related = [f for f in factors if name in f.vars]
        if not related:
            continue
        product = related[0]
        for f in related[1:]:
            product = product.multiply(f)
        factors = [f for f in factors if name not in f.vars]
        factors.append(product.marginalize(name))
    return factors


def _product(factors: Sequence[_Factor]) -> _Factor:
    result = _Factor((), np.array(1.0))
    for f in factors:
        result = result.multiply(f)
    return result


def factor_marginals(factors: Sequence[tuple[tuple, np.ndarray]],
                     targets: Sequence) -> dict:
    """Normalized marginal of each target under the product of ``factors``,
    given as (variable tuple, value array) pairs, by one variable
    elimination per target.

    Raises InconsistentEvidenceError when the product sums to zero.
    """
    factors = [_Factor(tuple(v), np.asarray(values)) for v, values in factors]
    names = {v for f in factors for v in f.vars}
    result = {}
    for target in targets:
        values = _product(_sum_out(factors, names - {target})).values
        z = values.sum()
        if z <= _EVIDENCE_EPS:
            raise InconsistentEvidenceError("findings have probability zero")
        result[target] = values / z
    return result


def posterior_marginal(net: BayesNet, evidence: Mapping[str, str],
                       target: str) -> Distribution:
    """Exact P(target | evidence) by variable elimination.

    Raises InconsistentEvidenceError when the evidence has zero probability,
    UnknownVariableError for names or states not in the network.
    """
    ev_idx = _check_evidence(net, evidence)
    net.variable(target)
    if target in ev_idx:
        raise ValueError(f"target {target!r} is already observed")
    alive = _drop_barren(net, keep=set(ev_idx) | {target})
    factors = []
    for name in alive:
        f = _cpt_factor(net, name)
        for ev_name, idx in ev_idx.items():
            if ev_name in f.vars:
                f = f.reduce(ev_name, idx)
        factors.append(f)
    eliminate = {n for n in alive if n != target and n not in ev_idx}
    result = _product(_sum_out(factors, eliminate))
    if result.vars != (target,):
        result = _Factor((target,), result.values.reshape(net.cardinality(target)))
    total = result.values.sum()
    if total <= _EVIDENCE_EPS:
        raise InconsistentEvidenceError(
            f"evidence {dict(evidence)!r} has probability zero"
        )
    return Distribution(target, result.values / total)


def brute_force_posterior(net: BayesNet, evidence: Mapping[str, str],
                          target: str) -> Distribution:
    """P(target | evidence) by full joint enumeration. Testing oracle only."""
    ev_idx = _check_evidence(net, evidence)
    net.variable(target)
    if target in ev_idx:
        raise ValueError(f"target {target!r} is already observed")
    names = net.names()
    cards = [net.cardinality(n) for n in names]
    size = int(np.prod(cards, dtype=float))
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"joint of {size} assignments exceeds the enumeration guard "
            f"({BRUTE_FORCE_LIMIT})"
        )
    axis = {n: i for i, n in enumerate(names)}
    log_joint = np.zeros(cards)
    with np.errstate(divide="ignore"):
        for name in names:
            f = _cpt_factor(net, name)
            shape = [cards[axis[v]] if v in f.vars else 1 for v in names]
            perm = sorted(range(len(f.vars)), key=lambda i: axis[f.vars[i]])
            values = np.transpose(f.values, perm).reshape(shape)
            log_joint = log_joint + np.log(values)
    joint = np.exp(log_joint - log_joint.max())
    for name, idx in ev_idx.items():
        joint = np.take(joint, [idx], axis=axis[name])
    other_axes = tuple(axis[n] for n in names if n != target)
    marginal = joint.sum(axis=other_axes).reshape(net.cardinality(target))
    total = marginal.sum()
    if total <= _EVIDENCE_EPS:
        raise InconsistentEvidenceError(
            f"evidence {dict(evidence)!r} has probability zero"
        )
    return Distribution(target, marginal / total)


# --- noisy-OR --------------------------------------------------------------

@dataclass(frozen=True)
class NoisyOrParams:
    """Link strengths c[i, j] = P(effect j | cause i alone) for present links."""

    strengths: dict

    def c(self, cause: str, effect: str) -> float:
        try:
            return self.strengths[(cause, effect)]
        except KeyError:
            raise KeyError(f"no noisy-OR link {cause!r} -> {effect!r}") from None

    def q(self, cause: str, effect: str) -> float:
        return 1.0 - self.c(cause, effect)


def noisy_or_row(params: NoisyOrParams, effect: str,
                 causes: Sequence[str], assignment: Mapping[str, bool]) -> float:
    """P(effect active | cause assignment) = 1 - prod of inhibitors of active causes."""
    prod_q = 1.0
    for cause in causes:
        if cause not in assignment:
            raise KeyError(f"assignment is missing parent {cause!r} of {effect!r}")
        if assignment[cause]:
            prod_q *= params.q(cause, effect)
    return 1.0 - prod_q
