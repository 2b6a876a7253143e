import json

import numpy as np
import pytest

import sensorval as sv
from conftest import FIXTURES, REFERENCE_EMB, random_binary_net


def tiny_net(edges, names=None):
    if names is None:
        names = sorted({n for e in edges for n in e})
    variables = [sv.Variable(n, ("lo", "hi")) for n in names]
    parents = {n: tuple(p for p, c in edges if c == n) for n in names}
    cpts = {n: sv.Cpt(n, parents[n],
                      np.full((2 ** len(parents[n]), 2), 0.5))
            for n in names}
    return sv.BayesNet(variables, edges, cpts)


REF_EDGES = [("m", "t"), ("m", "p"), ("t", "g"), ("t", "a")]


class TestMarkovBlanket:
    def test_reference_m(self):
        net = tiny_net(REF_EDGES)
        assert sv.markov_blanket(net, "m") == {"t", "p"}

    def test_reference_t_includes_coparents_free_tree(self):
        net = tiny_net(REF_EDGES)
        assert sv.markov_blanket(net, "t") == {"m", "a", "g"}

    def test_coparents_included(self):
        net = tiny_net([("x", "z"), ("y", "z")])
        assert sv.markov_blanket(net, "x") == {"z", "y"}

    def test_isolated_node(self):
        net = tiny_net([("x", "y")], names=["x", "y", "lone"])
        assert sv.markov_blanket(net, "lone") == set()
        assert sv.extended_markov_blanket(net, "lone") == {"lone"}

    def test_extended_adds_self(self):
        net = tiny_net(REF_EDGES)
        assert sv.extended_markov_blanket(net, "m") == {"m", "t", "p"}
        assert sv.extended_markov_blanket(net, "p") == {"p", "m"}

    def test_unknown_name(self):
        net = tiny_net(REF_EDGES)
        with pytest.raises(sv.UnknownVariableError, match="nope"):
            sv.markov_blanket(net, "nope")

    def test_symmetry_property(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            net = random_binary_net(rng, int(rng.integers(2, 9)))
            for s in net.names():
                for t in sv.markov_blanket(net, s):
                    assert s in sv.markov_blanket(net, t)

    def test_emb_contains_self_property(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            net = random_binary_net(rng, 7)
            for s in net.names():
                assert s in sv.extended_markov_blanket(net, s)


class TestEmbTable:
    def test_reference_table(self):
        net = tiny_net(REF_EDGES)
        table = sv.emb_table(net)
        assert {k: set(v) for k, v in table.items()} == REFERENCE_EMB

    def test_single_node(self):
        net = tiny_net([], names=["v"])
        assert dict(sv.emb_table(net)) == {"v": frozenset({"v"})}

    def test_chain(self):
        net = tiny_net([("x", "y"), ("y", "z")])
        assert {k: set(v) for k, v in sv.emb_table(net).items()} == {
            "x": {"x", "y"}, "y": {"x", "y", "z"}, "z": {"y", "z"}}

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            sv.EmbTable({"a": {"a", "b"}, "b": {"b"}})

    def test_rejects_missing_self(self):
        with pytest.raises(ValueError, match="must contain"):
            sv.EmbTable({"a": {"b"}, "b": {"a", "b"}})


class TestNetValidation:
    def test_cycle_rejected(self):
        with pytest.raises(sv.CycleError):
            tiny_net([("x", "y"), ("y", "z"), ("z", "x")])

    def test_random_cycles_rejected(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            names = [f"v{i}" for i in range(n)]
            edges = [(names[i], names[j]) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < 0.3]
            cycle = list(rng.choice(names, size=3, replace=False))
            edges += [(cycle[0], cycle[1]), (cycle[1], cycle[2]),
                      (cycle[2], cycle[0])]
            with pytest.raises(sv.CycleError):
                tiny_net(edges, names=names)

    def test_cpt_row_sum_checked(self):
        with pytest.raises(sv.CptError, match="sums to"):
            sv.Cpt("x", (), np.array([[0.5, 0.4]]))

    def test_cpt_range_checked(self):
        with pytest.raises(sv.CptError):
            sv.Cpt("x", (), np.array([[1.5, -0.5]]))

    def test_missing_cpt(self):
        variables = [sv.Variable("x", ("a", "b"))]
        with pytest.raises(sv.CptError, match="missing CPT"):
            sv.BayesNet(variables, [], {})

    def test_cpt_parent_mismatch(self):
        variables = [sv.Variable(n, ("a", "b")) for n in ("x", "y")]
        cpts = {"x": sv.Cpt("x", (), np.array([[0.5, 0.5]])),
                "y": sv.Cpt("y", (), np.array([[0.5, 0.5]]))}
        with pytest.raises(sv.CptError, match="parents"):
            sv.BayesNet(variables, [("x", "y")], cpts)

    def test_repeated_edge(self):
        # counted twice, t's CPT would skew every prediction of m
        with pytest.raises(sv.NetworkError, match="edge 'm' -> 't' is listed twice"):
            tiny_net([("m", "t"), ("m", "t")])

    def test_repeated_cpt_parent(self):
        variables = [sv.Variable(n, ("a", "b")) for n in ("x", "y")]
        cpts = {"x": sv.Cpt("x", (), np.array([[0.5, 0.5]])),
                "y": sv.Cpt("y", ("x", "x"), np.full((4, 2), 0.5))}
        with pytest.raises(sv.CptError, match="parents"):
            sv.BayesNet(variables, [("x", "y")], cpts)

    def test_cpt_of_undeclared_variable(self):
        variables = [sv.Variable("x", ("a", "b"))]
        cpt = sv.Cpt("x", (), np.array([[0.5, 0.5]]))
        with pytest.raises(sv.CptError, match="undeclared variable 'zz'"):
            sv.BayesNet(variables, [], {"x": cpt, "zz": cpt})

    def test_structure_repeated_edge(self):
        with pytest.raises(sv.NetworkError, match="edge 'a' -> 'b' is listed twice"):
            sv.NetworkStructure("s", ("a", "b"), (("a", "b"), ("a", "b")))

    def test_variable_needs_two_states(self):
        with pytest.raises(sv.NetworkError):
            sv.Variable("x", ("only",))

    def test_duplicate_states(self):
        with pytest.raises(sv.NetworkError):
            sv.Variable("x", ("a", "a"))


class TestFileIO:
    def test_fixture_loads(self):
        net = sv.load_network((FIXTURES / "reference_net.json").read_text())
        assert len(net.variables) == 5
        assert {k: set(v) for k, v in sv.emb_table(net).items()} == REFERENCE_EMB

    def test_round_trip(self, ref):
        doc = sv.save_network(ref.net)
        again = sv.load_network(doc)
        assert again.names() == ref.net.names()
        assert again.edges == ref.net.edges
        for name in ref.net.names():
            np.testing.assert_allclose(again.cpts[name].table,
                                       ref.net.cpts[name].table)
        assert sv.save_network(again) == doc

    def test_cycle_document(self):
        doc = json.dumps({
            "variables": [{"name": n, "states": ["a", "b"]} for n in "xyz"],
            "edges": [["x", "y"], ["y", "z"], ["z", "x"]],
            "cpts": {n: {"parents": ["zxy"["xyz".index(n)]],
                         "table": [[0.5, 0.5], [0.5, 0.5]]} for n in "xyz"},
        })
        with pytest.raises(sv.CycleError):
            sv.load_network(doc)

    def test_bad_row_sum_document(self):
        doc = json.dumps({
            "variables": [{"name": "x", "states": ["a", "b"]}],
            "edges": [],
            "cpts": {"x": {"parents": [], "table": [[0.5, 0.4]]}},
        })
        with pytest.raises(sv.CptError):
            sv.load_network(doc)

    def test_missing_cpt_document(self):
        doc = json.dumps({
            "variables": [{"name": "x", "states": ["a", "b"]}],
            "edges": [],
            "cpts": {},
        })
        with pytest.raises(sv.CptError):
            sv.load_network(doc)

    def test_not_json(self):
        with pytest.raises(sv.NetworkError, match="JSON"):
            sv.load_network("{nope")

    def test_structure_round_trip(self):
        s = sv.reference_structure()
        again = sv.load_structure(sv.save_structure(s))
        assert again == s

    def test_fixtures_match_deterministic_regeneration(self, ref):
        # the committed fixture files are exactly what the seeded pipeline
        # produces, so anyone can rebuild them
        assert (FIXTURES / "reference_net.json").read_text() == \
            sv.save_network(ref.net)
        assert (FIXTURES / "reference_structure.json").read_text() == \
            sv.save_structure(ref.structure)
        assert (FIXTURES / "reference_net.disc.json").read_text() == \
            sv.discretizer_to_json(ref.discretizer)
        sub = sv.Dataset(ref.test.sensors, ref.test.values[::60][:40])
        assert (FIXTURES / "reference_readings.csv").read_text() == sub.to_csv()
