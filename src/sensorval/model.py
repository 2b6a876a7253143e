"""Discrete Bayesian networks, Markov blankets, and network file I/O.

A network is a DAG over named discrete variables, one CPT per variable.
CPT tables are dense: one row per parent assignment (mixed-radix order,
first-listed parent varies slowest), one column per child state.
Networks are immutable after construction and safe to share across threads;
the only state added later is each variable's detection kernel and the set
of variables whose CPT has a zero entry, pure functions of the network that
are built on first use.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
# Entries any one memo holds before it is cleared (tests patch it).
MEMO_CAP = 1 << 10


def remember(memo: dict, key, value) -> None:
    """Store ``value`` in ``memo``, clearing the memo first once it holds
    ``MEMO_CAP`` entries. Every memo of the library stores through here: a
    blanket kernel's verdict rules and an isolation network's choices and
    component solves."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value


class NetworkError(Exception):
    """Base class for network construction/parsing problems."""


class CycleError(NetworkError):
    """The edge list contains a directed cycle."""


class CptError(NetworkError):
    """A CPT is missing, malformed, or not normalized."""


class UnknownVariableError(NetworkError, KeyError):
    """A variable or state name does not exist in the network."""

    def __init__(self, name):
        super().__init__(f"unknown variable {name!r}")
        self.name = name

    __str__ = Exception.__str__         # KeyError's would add quotes


@dataclass(frozen=True)
class Variable:
    """A discrete variable with at least two named states."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 2:
            raise NetworkError(f"variable {self.name!r} needs >= 2 states")
        if len(set(self.states)) != len(self.states):
            raise NetworkError(f"variable {self.name!r} has duplicate states")


@dataclass(frozen=True)
class Cpt:
    """P(child | parents) as a dense table.

    ``table`` has shape (prod of parent cardinalities, child cardinality);
    rows iterate parent assignments with the first-listed parent varying
    slowest, columns follow the child's declared state order.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        table = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", table)
        if table.ndim != 2:
            raise CptError(f"CPT for {self.child!r} must be 2-D")
        if not np.isfinite(table).all():
            raise CptError(f"CPT for {self.child!r} has a non-finite entry")
        if np.any(table < -ROW_SUM_TOL) or np.any(table > 1 + ROW_SUM_TOL):
            raise CptError(f"CPT for {self.child!r} has entries outside [0, 1]")
        sums = table.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            bad = float(sums[np.argmax(np.abs(sums - 1.0))])
            raise CptError(
                f"CPT row for {self.child!r} sums to {bad!r}, expected 1"
            )


def topological_order(names: Sequence[str],
                      edges: Sequence[tuple[str, str]]) -> list[str]:
    """``names`` with every parent before its children, in the order of
    repeated passes that each take, in ``names`` order, every variable
    whose parents are taken. Refuses a repeated name or edge
    (NetworkError), an edge end not among ``names`` (UnknownVariableError)
    and a cycle (CycleError, naming the variables no pass takes)."""
    parents = {n: set() for n in names}
    if len(parents) < len(names):
        raise NetworkError("duplicate variable names")
    twice = []                          # edges listed again, in order
    for p, c in edges:
        if p not in parents or c not in parents:
            raise UnknownVariableError(p if p not in parents else c)
        if p in parents[c]:
            twice.append((p, c))
        parents[c].add(p)
    order = {}                          # taken so far, in order
    while len(order) < len(parents):
        before = len(order)
        for n in names:
            if n not in order and parents[n] <= order.keys():
                order[n] = None
        if len(order) == before:
            raise CycleError("edge list contains a directed cycle among "
                             f"{sorted(parents.keys() - order.keys())}")
    if twice:
        raise NetworkError("edge {!r} -> {!r} is listed twice".format(*twice[0]))
    return list(order)


class BayesNet:
    """An immutable discrete Bayesian network."""

    def __init__(self, variables: Sequence[Variable],
                 edges: Iterable[tuple[str, str]],
                 cpts: Mapping[str, Cpt]):
        self.variables = tuple(variables)
        names = [v.name for v in self.variables]
        self._vars = {v.name: v for v in self.variables}
        self.edges = tuple((p, c) for p, c in edges)
        topological_order(names, self.edges)
        self._parents = {n: [] for n in names}
        self._children = {n: [] for n in names}
        for p, c in self.edges:
            self._parents[c].append(p)
            self._children[p].append(c)
        # sensor -> detection.BlanketKernel, filled by detection on first use
        self.blanket_kernels: dict = {}
        self.cpts = dict(cpts)
        for name in self.cpts:
            if name not in self._vars:
                raise CptError(f"CPT for undeclared variable {name!r}")
        for name in names:
            cpt = self.cpts.get(name)
            if cpt is None:
                raise CptError(f"missing CPT for {name!r}")
            if (set(cpt.parents) != set(self._parents[name])
                    or len(cpt.parents) != len(self._parents[name])):
                raise CptError(
                    f"CPT parents {cpt.parents} for {name!r} do not match "
                    f"graph parents {tuple(self._parents[name])}"
                )
            n_rows = int(np.prod([self.cardinality(p) for p in cpt.parents],
                                 dtype=int)) if cpt.parents else 1
            expected = (n_rows, self.cardinality(name))
            if cpt.table.shape != expected:
                raise CptError(
                    f"CPT for {name!r} has shape {cpt.table.shape}, "
                    f"expected {expected}"
                )

    @cached_property
    def zero_cpts(self) -> frozenset:
        """The variables whose CPT has an entry <= 0, found once."""
        return frozenset(v for v, cpt in self.cpts.items()
                         if (cpt.table <= 0.0).any())

    # --- lookups -----------------------------------------------------------

    def variable(self, name: str) -> Variable:
        try:
            return self._vars[name]
        except KeyError:
            raise UnknownVariableError(name) from None

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def cardinality(self, name: str) -> int:
        return len(self.variable(name).states)

    def state_index(self, name: str, state: str) -> int:
        var = self.variable(name)
        try:
            return var.states.index(state)
        except ValueError:
            raise UnknownVariableError(f"{name}={state}") from None

    def parents(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return tuple(self._parents[name])

    def children(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return tuple(self._children[name])


def markov_blanket(net: BayesNet, name: str) -> frozenset[str]:
    """Parents, children, and co-parents of children, excluding the variable."""
    blanket = set(net.parents(name)) | set(net.children(name))
    for child in net.children(name):
        blanket.update(net.parents(child))
    blanket.discard(name)
    return frozenset(blanket)


def extended_markov_blanket(net: BayesNet, name: str) -> frozenset[str]:
    """Markov blanket plus the variable itself."""
    return markov_blanket(net, name) | {name}


class EmbTable(dict):
    """Mapping sensor -> extended Markov blanket (a frozenset including self).

    Membership is symmetric: t in emb[s] iff s in emb[t].
    """

    def __init__(self, data: Mapping[str, Iterable[str]]):
        super().__init__({k: frozenset(v) for k, v in data.items()})
        for s, emb in self.items():
            if s not in emb:
                raise ValueError(f"EMB of {s!r} must contain {s!r}")
            for t in emb:
                if t not in self:
                    raise ValueError(f"EMB of {s!r} names unknown sensor {t!r}")
                if s not in self[t]:
                    raise ValueError(
                        f"asymmetric EMB table: {t!r} in EMB({s!r}) "
                        f"but {s!r} not in EMB({t!r})"
                    )


def emb_table(net: BayesNet) -> EmbTable:
    """Extended Markov blanket of every variable in the network."""
    return EmbTable({n: extended_markov_blanket(net, n) for n in net.names()})


@dataclass(frozen=True)
class NetworkStructure:
    """An acyclic network skeleton (names + edges), its CPTs not learned."""

    name: str
    sensors: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "edges", tuple((p, c) for p, c in self.edges))
        topological_order(self.sensors, self.edges)

    def parents_of(self, sensor: str) -> tuple[str, ...]:
        return tuple(p for p, c in self.edges if c == sensor)


# --- file I/O --------------------------------------------------------------

def save_network(net: BayesNet) -> str:
    """Serialize a network to its JSON document form."""
    doc = {
        "variables": [{"name": v.name, "states": list(v.states)}
                      for v in net.variables],
        "edges": [[p, c] for p, c in net.edges],
        "cpts": {
            name: {"parents": list(cpt.parents),
                   "table": cpt.table.tolist()}
            for name, cpt in net.cpts.items()
        },
    }
    return json.dumps(doc, indent=1)


@contextmanager
def malformed_part(error: type, part: str, shape: str):
    """Raise ``error`` naming ``part`` when reading it here finds a wrong
    shape, a number too large, or nesting too deep for the JSON decoder."""
    try:
        yield
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise error(f"{part!r} must be {shape} ({exc!r})") from None


def json_object(document: str, error: type) -> dict:
    """The JSON object in ``document``; ``error`` if it holds none."""
    with malformed_part(error, "document", "JSON"):
        doc = json.loads(document)
    if not isinstance(doc, dict):
        raise error(f"document is a JSON {type(doc).__name__}, not an object")
    return doc


def _name(value) -> str:
    """``value`` if it is a string; read inside ``malformed_part``."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _number(value) -> float:
    """``value`` if it is a JSON number; read inside ``malformed_part``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _numbers(value) -> np.ndarray:
    """``value``, nested lists of JSON numbers, as a float array; read
    inside ``malformed_part``."""
    table = np.asarray(value, dtype=object)
    for x in table.flat:
        _number(x)
    return table.astype(float)


def load_network(document: str) -> BayesNet:
    """Parse a network JSON document; raises NetworkError subclasses on defects."""
    doc = json_object(document, NetworkError)
    with malformed_part(NetworkError, "variables", "a list of {name, states}"):
        variables = [Variable(_name(v["name"]), tuple(map(_name, v["states"])))
                     for v in doc["variables"]]
    with malformed_part(NetworkError, "edges", "a list of [parent, child]"):
        edges = [(_name(p), _name(c)) for p, c in doc["edges"]]
    with malformed_part(NetworkError, "cpts", "{child: {parents, table}}"):
        cpts = {c: Cpt(c, tuple(map(_name, e["parents"])),
                       _numbers(e["table"]))
                for c, e in doc["cpts"].items()}
    return BayesNet(variables, edges, cpts)


def save_structure(structure: NetworkStructure) -> str:
    doc = {
        "name": structure.name,
        "variables": list(structure.sensors),
        "edges": [[p, c] for p, c in structure.edges],
    }
    return json.dumps(doc, indent=1)


def load_structure(document: str) -> NetworkStructure:
    doc = json_object(document, NetworkError)
    with malformed_part(NetworkError, "variables", "a list of names"):
        sensors = tuple(_name(v["name"] if isinstance(v, dict) else v)
                        for v in doc["variables"])
    with malformed_part(NetworkError, "edges", "a list of [parent, child]"):
        edges = tuple((_name(p), _name(c)) for p, c in doc["edges"])
    return NetworkStructure(doc.get("name", "structure"), sensors, edges)
