import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import sensorval as sv
from sensorval.benchmarks import reference_benchmark, tree21_benchmark

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# The property tests draw the same examples on every run and keep no
# example database, so a run neither depends on an earlier one nor writes
# into the checkout. Each test still sets its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
# Hypothesis also caches the literals it finds in local source files in its
# home directory, ``.hypothesis/`` in the working directory by default; a
# temporary one, removed when the session ends, keeps that cache out of the
# checkout too.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


# The worked-example EMB table the isolation model is built on.
REFERENCE_EMB = {
    "m": {"m", "t", "p"},
    "t": {"t", "m", "g", "a"},
    "p": {"p", "m"},
    "g": {"g", "t"},
    "a": {"a", "t"},
}

# Fault-probability vectors after each finding of the worked example
# (finding, {sensor: probability}), reproduced within +/-0.01.
WORKED_EXAMPLE_ROWS = [
    (("t", "faulty"), {"m": 0.534, "t": 0.534, "p": 0.5, "g": 0.534, "a": 0.534}),
    (("m", "correct"), {"m": 0.013, "t": 0.013, "p": 0.009, "g": 0.663, "a": 0.663}),
    (("g", "faulty"), {"m": 0.009, "t": 0.019, "p": 0.009, "g": 0.99, "a": 0.502}),
    (("a", "correct"), {"m": 0.009, "t": 0.0, "p": 0.009, "g": 0.999, "a": 0.009}),
    (("p", "correct"), {"m": 0.0, "t": 0.0, "p": 0.0, "g": 0.999, "a": 0.009}),
]


def fixture_with(name: str, change) -> str:
    """The fixture document ``name`` after ``change`` edits it in place."""
    doc = json.loads((FIXTURES / name).read_text())
    change(doc)
    return json.dumps(doc)


# Documents that give a list as a string or an object, or the structure's
# name as an object, each with the part its error must name. A loader that
# walked them would read a string as its characters, an object as its keys.
WRONGLY_TYPED_STRUCTURES = {
    "edges-empty-string": (fixture_with(
        "reference_structure.json", lambda d: d.update(edges="")), "'edges'"),
    "edges-object": (fixture_with(
        "reference_structure.json", lambda d: d.update(edges={})), "'edges'"),
    "edges-two-letter-strings": (fixture_with(
        "reference_structure.json",
        lambda d: d.update(edges=["mt", "mp", "tg", "ta"])), "'edges'"),
    "variables-string": (fixture_with(
        "reference_structure.json", lambda d: d.update(variables="agmpt")),
        "'variables'"),
    "variables-name-objects": (fixture_with(
        "reference_structure.json", lambda d: d.update(
            variables=[{"name": v} for v in d["variables"]])), "'variables'"),
    "name-object": (fixture_with(
        "reference_structure.json", lambda d: d.update(name={"x": 1})),
        "'name'"),
}
WRONGLY_TYPED_NETWORKS = {
    "states-string": (fixture_with(
        "reference_net.json",
        lambda d: d["variables"][0].update(states="0123456789")),
        "'variables'"),
    "edges-two-letter-strings": (fixture_with(
        "reference_net.json", lambda d: d.update(
            edges=[p + c for p, c in d["edges"]])), "'edges'"),
    "parents-string": (fixture_with(
        "reference_net.json",
        lambda d: d["cpts"]["t"].update(parents="m")), "'cpts'"),
    "root-parents-object": (fixture_with(
        "reference_net.json",
        lambda d: d["cpts"]["m"].update(parents={})), "'cpts'"),
}


@pytest.fixture(scope="session")
def ref():
    return reference_benchmark()


@pytest.fixture(scope="session")
def tree21():
    """The 21-sensor benchmark, links calibrated with the pvalue criterion."""
    return tree21_benchmark(calibration=sv.DetectionCriterion("pvalue", 0.01))


@pytest.fixture(scope="session")
def ref_iso():
    return sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB))


def random_binary_net(rng: np.random.Generator, n_vars: int,
                      edge_prob: float = 0.35) -> sv.BayesNet:
    """A random DAG over binary variables with random CPTs."""
    names = [f"v{i}" for i in range(n_vars)]
    edges = [(names[i], names[j])
             for i in range(n_vars) for j in range(i + 1, n_vars)
             if rng.random() < edge_prob]
    variables = [sv.Variable(n, ("no", "yes")) for n in names]
    parents = {n: tuple(p for p, c in edges if c == n) for n in names}
    cpts = {}
    for n in names:
        rows = 2 ** len(parents[n])
        p = rng.uniform(0.05, 0.95, size=rows)
        cpts[n] = sv.Cpt(n, parents[n], np.column_stack([1 - p, p]))
    return sv.BayesNet(variables, edges, cpts)


def random_evidence(rng: np.random.Generator, net: sv.BayesNet,
                    exclude: str, max_obs: int | None = None) -> dict:
    names = [n for n in net.names() if n != exclude]
    k = int(rng.integers(0, len(names) + 1 if max_obs is None
                         else min(max_obs, len(names)) + 1))
    chosen = rng.choice(names, size=k, replace=False) if k else []
    ev = {}
    for n in chosen:
        states = net.variable(n).states
        ev[n] = states[int(rng.integers(len(states)))]
    return ev


def random_emb_table(rng: np.random.Generator, n: int) -> sv.EmbTable:
    """Closed neighbourhoods of a random undirected graph: a valid EMB table."""
    names = [f"s{i}" for i in range(n)]
    emb = {s: {s} for s in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                emb[names[i]].add(names[j])
                emb[names[j]].add(names[i])
    return sv.EmbTable(emb)
