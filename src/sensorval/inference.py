"""Exact posterior marginals over discrete Bayesian networks.

Two routes to the same numbers: variable elimination (the general engine)
and full joint enumeration (the testing oracle). A factor is a
``(variables, array)`` pair with one array axis per variable. One routine,
``_marginal``, sums every non-target variable out of the product of the
factors that mention it, in min-fill order, and multiplies what remains;
``posterior_marginal`` feeds it a network's CPTs (barren variables dropped,
evidence indexed out) and ``factor_marginals`` the isolation network's
noisy-OR factors for coupled components too large to enumerate.
Products are ``np.einsum`` calls over exactly two factors. einsum takes
at most 32 operands (64 on numpy 2) and 52 distinct labels per call, so
one call over a whole elimination step breaks at a hub with many
children, and one over a whole network breaks on a long chain.
Also provides the noisy-OR conditional model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .model import BayesNet

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


def _query(net: BayesNet, evidence: Mapping[str, str], target: str) -> dict:
    """Evidence as state indices, after checking every name of the query."""
    ev_idx = {name: net.state_index(name, state) for name, state in evidence.items()}
    net.variable(target)
    if target in ev_idx:
        raise ValueError(f"target {target!r} is already observed")
    return ev_idx


def _normalized(values: np.ndarray, message: str) -> np.ndarray:
    total = values.sum()
    if total <= _EVIDENCE_EPS:
        raise InconsistentEvidenceError(message)
    return values / total


# --- variable elimination --------------------------------------------------

def _cpt_factor(net: BayesNet, name: str) -> tuple[tuple, np.ndarray]:
    cpt = net.cpts[name]
    cards = [net.cardinality(p) for p in cpt.parents] + [net.cardinality(name)]
    return tuple(cpt.parents) + (name,), cpt.table.reshape(cards)


def _multiply(a: tuple, b: tuple) -> tuple[tuple, np.ndarray]:
    (a_vars, a_values), (b_vars, b_values) = a, b
    out = a_vars + tuple(v for v in b_vars if v not in a_vars)
    label = {v: i for i, v in enumerate(out)}
    return out, np.einsum(a_values, [label[v] for v in a_vars],
                          b_values, [label[v] for v in b_vars], list(label.values()))


def _min_fill_order(factors: Sequence[tuple], eliminate: set[str]) -> list[str]:
    # Greedy min-fill on the interaction graph, ties broken by name. Every
    # variable of the factors has a neighbour set, so a pair's fill does not
    # depend on which end is looked up.
    neighbors: dict[str, set[str]] = {}
    for variables, _ in factors:
        for v in variables:
            neighbors.setdefault(v, set()).update(u for u in variables if u != v)

    def fill(v):
        nbrs = list(neighbors[v])
        return sum(b not in neighbors[a]
                   for i, a in enumerate(nbrs) for b in nbrs[i + 1:])

    order = []
    remaining = set(eliminate)
    while remaining:
        v = min(remaining, key=lambda v: (fill(v), v))
        order.append(v)
        remaining.discard(v)
        nbrs = neighbors.pop(v)
        for a in nbrs:
            neighbors[a].update(nbrs - {a})
            neighbors[a].discard(v)
    return order


def _marginal(factors: list[tuple], target) -> np.ndarray:
    """Unnormalized marginal of ``target`` under the product of ``factors``."""
    eliminate = {v for variables, _ in factors for v in variables} - {target}
    for name in _min_fill_order(factors, eliminate):
        variables, values = reduce(_multiply, [f for f in factors if name in f[0]])
        factors = [f for f in factors if name not in f[0]]
        axis = variables.index(name)
        factors.append((variables[:axis] + variables[axis + 1:], values.sum(axis=axis)))
    return reduce(_multiply, factors, ((), np.array(1.0)))[1]


def _ancestral(net: BayesNet, names: set) -> list[str]:
    """``names`` and their ancestors in network order; every other variable
    is barren (an unobserved descendant) and integrates to one."""
    keep, stack = set(), list(names)
    while stack:
        name = stack.pop()
        if name not in keep:
            keep.add(name)
            stack.extend(net.parents(name))
    return [n for n in net.names() if n in keep]


def factor_marginals(factors: Sequence[tuple[tuple, np.ndarray]],
                     targets: Sequence) -> dict:
    """Normalized marginal of each target under the product of ``factors``,
    given as (variable tuple, value array) pairs, by one variable
    elimination per target.

    Raises InconsistentEvidenceError when the product sums to zero.
    """
    factors = [(tuple(v), np.asarray(values)) for v, values in factors]
    return {target: _normalized(_marginal(factors, target),
                                "findings have probability zero")
            for target in targets}


def posterior_marginal(net: BayesNet, evidence: Mapping[str, str],
                       target: str) -> Distribution:
    """Exact P(target | evidence) by variable elimination.

    Raises InconsistentEvidenceError when the evidence has zero probability,
    UnknownVariableError for names or states not in the network.
    """
    ev_idx = _query(net, evidence, target)
    factors = []
    for name in _ancestral(net, {*ev_idx, target}):
        variables, values = _cpt_factor(net, name)
        factors.append((tuple(v for v in variables if v not in ev_idx),
                        values[tuple(ev_idx.get(v, slice(None)) for v in variables)]))
    return Distribution(target, _normalized(
        _marginal(factors, target),
        f"evidence {dict(evidence)!r} has probability zero"))


def brute_force_posterior(net: BayesNet, evidence: Mapping[str, str],
                          target: str) -> Distribution:
    """P(target | evidence) by full joint enumeration. Testing oracle only."""
    ev_idx = _query(net, evidence, target)
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
            variables, values = _cpt_factor(net, name)
            shape = [cards[axis[v]] if v in variables else 1 for v in names]
            perm = sorted(range(len(variables)), key=lambda i: axis[variables[i]])
            values = np.transpose(values, perm).reshape(shape)
            log_joint = log_joint + np.log(values)
    joint = np.exp(log_joint - log_joint.max())
    for name, idx in ev_idx.items():
        joint = np.take(joint, [idx], axis=axis[name])
    other_axes = tuple(axis[n] for n in names if n != target)
    marginal = joint.sum(axis=other_axes).reshape(net.cardinality(target))
    return Distribution(target, _normalized(
        marginal, f"evidence {dict(evidence)!r} has probability zero"))


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
