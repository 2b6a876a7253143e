import copy
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sensorval as sv
from sensorval import anytime, isolation, model
from sensorval.anytime import TreeNode
from sensorval.isolation import CORRECT, FAULTY
from sensorval.benchmarks import tree21_benchmark
from conftest import FIXTURES, REFERENCE_EMB, random_emb_table

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def reversed_order(sensors):
    return tuple(reversed(sensors))


def network_copy(iso, order=tuple):
    """A new network equal to ``iso``, memos empty, its sensors in
    ``order(iso.sensors)``."""
    return sv.IsolationNet(tuple(order(iso.sensors)), iso.parents_of,
                           iso.params, iso.priors)


class TestBinaryEntropy:
    def test_maximum(self):
        assert sv.binary_entropy(0.5) == 1.0

    def test_endpoints_exact_zero(self):
        assert sv.binary_entropy(0.0) == 0.0
        assert sv.binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert sv.binary_entropy(0.25) == pytest.approx(0.8112781244591328,
                                                        abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for p in rng.uniform(0, 1, 50):
            assert sv.binary_entropy(p) == pytest.approx(
                sv.binary_entropy(1 - p), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            sv.binary_entropy(-0.1)
        with pytest.raises(ValueError):
            sv.binary_entropy(1.1)


class TestAverageEntropy:
    def test_total_ignorance(self):
        assert sv.average_entropy({"a": 0.5, "b": 0.5}) == 1.0

    def test_total_certainty(self):
        assert sv.average_entropy({"a": 0.0, "b": 1.0}) == 0.0

    def test_mixed(self):
        want = (1.0 + sv.binary_entropy(0.25)) / 2
        assert sv.average_entropy({"a": 0.5, "b": 0.25}) == pytest.approx(
            want, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            sv.average_entropy({})


class TestConditionalEntropy:
    def test_single_sensor_resolves_both_ways(self):
        iso = sv.build_isolation_network(sv.EmbTable({"s": {"s"}}))
        value = sv.conditional_average_entropy(iso, {}, "s")
        # both branches leave the lone sensor nearly certain
        assert value < 0.35

    def test_hub_beats_leaf(self, ref_iso):
        et = sv.conditional_average_entropy(ref_iso, {}, "t")
        ep = sv.conditional_average_entropy(ref_iso, {}, "p")
        assert et < ep

    def test_symmetric_sensors_tie(self):
        iso = sv.build_isolation_network(sv.EmbTable(
            {"a": {"a", "b"}, "b": {"a", "b"}}))
        ea = sv.conditional_average_entropy(iso, {}, "a")
        eb = sv.conditional_average_entropy(iso, {}, "b")
        assert ea == pytest.approx(eb, abs=1e-12)

    def test_already_observed(self, ref_iso):
        with pytest.raises(ValueError):
            sv.conditional_average_entropy(ref_iso, {"t": FAULTY}, "t")


class TestSelectNextSensor:
    def test_single_candidate(self, ref_iso):
        assert sv.select_next_sensor(ref_iso, {}, {"p"}) == "p"

    def test_lone_candidate_is_chosen_unscored(self, monkeypatch):
        iso = sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB))
        monkeypatch.setattr(anytime, "candidate_scores", None)
        findings = {"m": CORRECT, "t": FAULTY, "g": FAULTY, "a": CORRECT}
        assert sv.select_next_sensor(iso, findings, {"p"}) == "p"
        faulty, correct = iso.finding_masks(findings)
        assert iso.select_memo == {(faulty, correct, iso.bit["p"]): "p"}

    def test_lone_candidate_in_a_zero_probability_state_raises(self):
        # certain links: a correct finding on x rules out a fault in root
        # x, the only cause of y, so a faulty y has probability zero
        iso = sv.IsolationNet(
            ("w", "x", "y", "z"),
            {"w": ("w",), "x": ("x",), "y": ("x",), "z": ("z",)},
            sv.NoisyOrParams({("w", "w"): 1.0, ("x", "x"): 1.0,
                              ("x", "y"): 1.0, ("z", "z"): 1.0}),
            {"w": 0.1, "x": 0.1, "y": 0.1, "z": 0.1})
        findings = {"x": CORRECT, "y": FAULTY}
        # a lone candidate, then the same state with a pool to score
        for pool in ({"z"}, {"w", "z"}):
            with pytest.raises(sv.InconsistentEvidenceError):
                sv.select_next_sensor(iso, findings, pool)
        assert iso.select_memo == {}

    def test_repeated_candidate_keys_its_own_pool(self):
        iso = sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB))
        assert sv.select_next_sensor(iso, {}, ["p", "p"]) == "p"
        # p's bit counted twice would be t's bit, and t would get p
        assert sv.select_next_sensor(iso, {}, {"t"}) == "t"

    def test_reference_first_pick_is_exhaustive_argmin(self, ref_iso):
        values = {s: sv.conditional_average_entropy(ref_iso, {}, s)
                  for s in ref_iso.sensors}
        want = min(sorted(values), key=lambda s: (values[s], s))
        assert sv.select_next_sensor(ref_iso, {}, set(ref_iso.sensors)) == want
        assert want == "t"

    @pytest.mark.parametrize("order", [sorted, reversed_order])
    def test_tie_breaks_lexicographically(self, order):
        iso = network_copy(sv.build_isolation_network(sv.EmbTable(
            {"b": {"b", "z"}, "z": {"b", "z"}})), order)
        assert sv.select_next_sensor(iso, {}, {"z", "b"}) == "b"

    @pytest.mark.parametrize("order", [sorted, reversed_order])
    def test_symmetric_pair_ties_by_name(self, ref_iso, order):
        # a and g are symmetric in the reference net; their scores differ
        # only by rounding, so the name decides, whatever the order of the
        # network's sensors
        iso = network_copy(ref_iso, order)
        for findings in ({"p": CORRECT, "t": FAULTY},
                         {"m": CORRECT, "p": CORRECT, "t": CORRECT}):
            rest = set(iso.sensors) - set(findings)
            a = sv.conditional_average_entropy(iso, findings, "a")
            g = sv.conditional_average_entropy(iso, findings, "g")
            assert a == pytest.approx(g, abs=1e-12)
            assert sv.select_next_sensor(iso, findings, rest) == "a"

    def test_empty_pool(self, ref_iso):
        with pytest.raises(ValueError):
            sv.select_next_sensor(ref_iso, {}, set())

    def test_unknown_candidate(self, ref_iso):
        with pytest.raises(KeyError, match="unknown sensor"):
            sv.select_next_sensor(ref_iso, {}, {"t", "zz"})

    def test_argmin_invariant_under_positive_scaling(self, ref_iso):
        values = {s: sv.conditional_average_entropy(ref_iso, {}, s)
                  for s in ref_iso.sensors}
        pick = sv.select_next_sensor(ref_iso, {}, set(ref_iso.sensors))
        for scale in (0.1, 7.0, 1e6):
            scaled = {s: scale * v for s, v in values.items()}
            assert min(sorted(scaled), key=lambda s: (scaled[s], s)) == pick


def reference_states(min_candidates=2):
    """Every (findings, candidates) state of the reference net with at
    least ``min_candidates`` sensors left to validate."""
    sensors = sorted(REFERENCE_EMB)
    for k in range(len(sensors) - min_candidates + 1):
        for chosen in itertools.combinations(sensors, k):
            for statuses in itertools.product((CORRECT, FAULTY), repeat=k):
                yield (dict(zip(chosen, statuses)),
                       set(sensors) - set(chosen))


def random_tree21_states(sensors):
    """300 seeded random (findings, candidates) states of the 21-sensor
    net, about one finding in five faulty."""
    rng = np.random.default_rng(9)
    states = []
    for _ in range(300):
        observed = rng.choice(sensors, int(rng.integers(0, 19)), replace=False)
        findings = {str(s): FAULTY if rng.random() < 0.2 else CORRECT
                    for s in observed}
        states.append((findings, set(sensors) - findings.keys()))
    return states


def tree21_network(tree21):
    """A new network equal to the calibrated 21-sensor one, memos empty."""
    return sv.build_isolation_network(
        tree21.emb, link_overrides=tree21.iso.params.strengths)


class TestSelectionMemo:
    def build(self, **kwargs):
        return sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB), **kwargs)

    def test_warmed_network_picks_what_a_fresh_one_picks(self):
        warmed = self.build()
        states = list(reference_states())
        assert len(states) == 131
        for findings, rest in states:
            sv.select_next_sensor(warmed, findings, rest)
        assert len(warmed.select_memo) == len(states)
        for findings, rest in states:
            fresh = sv.select_next_sensor(self.build(), findings, rest)
            assert sv.select_next_sensor(warmed, findings, rest) == fresh, \
                findings

    def test_memo_key_holds_the_candidates(self, ref_iso):
        # the same findings with a smaller pool must not reuse the choice
        assert sv.select_next_sensor(ref_iso, {}, set(ref_iso.sensors)) == "t"
        assert sv.select_next_sensor(ref_iso, {}, {"p", "g"}) != "t"

    def test_networks_differing_in_one_link_share_nothing(self):
        base = self.build()
        other = self.build(link_overrides={("t", "g"): 0.5})
        for findings, rest in reference_states():
            sv.select_next_sensor(base, findings, rest)
        assert base.select_memo is not other.select_memo
        assert other.select_memo == {}
        assert not np.shares_memory(base.log_q, other.log_q)
        for findings, rest in reference_states():
            want = sv.select_next_sensor(
                self.build(link_overrides={("t", "g"): 0.5}), findings, rest)
            assert sv.select_next_sensor(other, findings, rest) == want

    def test_cap_clears_the_memo(self, monkeypatch):
        monkeypatch.setattr(model, "MEMO_CAP", 3)
        iso = self.build()
        memo = iso.select_memo
        states = list(reference_states())[:5]
        sizes = []
        for findings, rest in states:
            sv.select_next_sensor(iso, findings, rest)
            sizes.append(len(memo))
        assert sizes == [1, 2, 3, 1, 2]


class TestComponentMemo:
    """``isolation._solve`` memoises every enumerated component solve on the
    network; a warm network must give what an empty memo gives, bit for
    bit, in the belief update and in the branch solves."""

    @staticmethod
    def build():
        return sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB))

    @staticmethod
    def branches(iso, findings, rest):
        return isolation.branch_posteriors(iso, *iso.finding_masks(findings),
                                           iso.indices(sorted(rest)))

    @staticmethod
    def solves(iso, findings, rest):
        """The belief update and the branch solves of one state."""
        faulty, correct = iso.finding_masks(findings)
        candidates = iso.indices(sorted(rest))
        return (lambda: isolation.noisy_or_root_posteriors(iso, faulty,
                                                           correct),
                lambda: isolation.branch_posteriors(iso, faulty, correct,
                                                    candidates))

    def warm_up(self, iso, states):
        for findings, rest in states:
            for solve in self.solves(iso, findings, rest):
                solve()

    def check_warm_equals_cold(self, warm, cold, states):
        for findings, rest in states:
            pairs = zip(self.solves(warm, findings, rest),
                        self.solves(cold, findings, rest))
            for warm_solve, cold_solve in pairs:
                cold.component_memo.clear()
                assert np.array_equal(warm_solve(), cold_solve()), findings

    def test_reference_states(self):
        warm = self.build()
        states = list(reference_states(min_candidates=1))
        self.warm_up(warm, states)
        # fewer distinct solves than branches asked for
        assert 0 < len(warm.component_memo) < sum(len(r) for _, r in states)
        self.check_warm_equals_cold(warm, self.build(), states)

    def test_random_tree21_states(self, tree21, monkeypatch):
        states = random_tree21_states(tree21.iso.sensors)
        warm = tree21_network(tree21)
        stores = []
        monkeypatch.setattr(isolation, "remember",
                            lambda *args: stores.append(model.remember(*args)))
        self.warm_up(warm, states)
        # every store is counted, across the cap's clears: fewer distinct
        # solves than branches asked for
        assert 0 < len(warm.component_memo) <= len(stores)
        assert len(stores) < sum(len(r) for _, r in states)
        self.check_warm_equals_cold(warm, tree21_network(tree21), states)

    def test_belief_update_stores_its_component_solves(self):
        for findings, _ in reference_states(min_candidates=0):
            iso = self.build()
            faulty, correct = iso.finding_masks(findings)
            isolation.noisy_or_root_posteriors(iso, faulty, correct)
            stored = dict(iso.component_memo)
            assert stored.keys() == {
                (roots, effects, correct & linked)
                for roots, effects, linked in isolation._components(iso,
                                                                   faulty)}
            # a repeated finding set is answered from the memo alone
            isolation.noisy_or_root_posteriors(iso, faulty, correct)
            assert iso.component_memo.keys() == stored.keys()
            assert all(iso.component_memo[key] is solved
                       for key, solved in stored.items())

    def test_patched_limit_reaches_elimination(self, monkeypatch):
        findings, rest = {"t": FAULTY, "m": CORRECT}, {"a", "g", "p"}
        enumerated = self.branches(self.build(), findings, rest)
        monkeypatch.setattr(isolation, "ENUMERATION_LIMIT", 2)
        solves = []
        solve = isolation._component_marginals_ve
        monkeypatch.setattr(isolation, "_component_marginals_ve",
                            lambda *args: solves.append(args) or solve(*args))
        # a fresh network, whose memo holds no enumerated solve
        iso = self.build()
        eliminated = self.branches(iso, findings, rest)
        assert solves
        # eliminated solves are memoised like enumerated ones
        eliminations = len(solves)
        assert np.array_equal(self.branches(iso, findings, rest), eliminated)
        assert len(solves) == eliminations
        np.testing.assert_allclose(eliminated, enumerated, rtol=0, atol=1e-12)

    def test_star_component_eliminated_equals_enumerated(self, monkeypatch):
        """17 coupled roots (2**17 assignments, above the default limit):
        one hub in the blanket of 16 leaves, the hub found faulty."""
        leaves = [f"l{i:02d}" for i in range(16)]
        emb = sv.EmbTable({"hub": {"hub", *leaves},
                           **{leaf: {leaf, "hub"} for leaf in leaves}})
        rng = np.random.default_rng(17)
        links = {(i, j): float(rng.uniform(0.3, 0.99))
                 for i in emb for j in sorted(emb[i])}

        def solve():
            iso = sv.build_isolation_network(emb, prior=0.2,
                                             link_overrides=links)
            faulty, correct = iso.finding_masks({"hub": FAULTY,
                                                 "l15": CORRECT})
            candidates = iso.indices(["l00", "l07"])
            return iso, lambda: (
                isolation.noisy_or_root_posteriors(iso, faulty, correct),
                isolation.branch_posteriors(iso, faulty, correct, candidates))

        solves = []
        eliminate = isolation._component_marginals_ve
        monkeypatch.setattr(isolation, "_component_marginals_ve",
                            lambda *args: solves.append(args)
                            or eliminate(*args))
        isolation._bit_table.cache_clear()
        iso, run = solve()
        eliminated = run()
        assert solves, "the default limit did not reach elimination"
        # no component here is small enough to enumerate, and elimination
        # builds its factors without the cached bit tables
        assert isolation._bit_table.cache_info().currsize == 0
        eliminations = len(solves)
        # a repeat is served from the memo, with no second elimination
        again = run()
        assert len(solves) == eliminations
        assert all(map(np.array_equal, again, eliminated))
        assert len(iso.component_memo) == eliminations
        monkeypatch.setattr(isolation, "ENUMERATION_LIMIT", 2 ** 20)
        enumerated = solve()[1]()
        assert len(solves) == eliminations
        for got, want in zip(eliminated, enumerated):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        isolation._bit_table.cache_clear()     # the 17-root table, 17.8 MB

    def test_cap_clears_the_branch_memo(self, monkeypatch):
        monkeypatch.setattr(model, "MEMO_CAP", 3)
        iso = self.build()
        # five distinct faulty branches: 1, 2, 3, cleared, 1, 2
        self.branches(iso, {}, set(REFERENCE_EMB))
        assert len(iso.component_memo) == 2

    def test_cap_clears_the_memo(self, monkeypatch):
        monkeypatch.setattr(model, "MEMO_CAP", 3)
        iso = self.build()
        sizes = []
        # five faulty findings alone: five distinct components
        for sensor in "agmpt":
            isolation.noisy_or_root_posteriors(
                iso, *iso.finding_masks({sensor: FAULTY}))
            sizes.append(len(iso.component_memo))
        assert sizes == [1, 2, 3, 1, 2]


class TestQuality:
    def test_start_of_cycle(self):
        assert sv.quality({"a": 0.5, "b": 0.5, "c": 0.5}) == 0.0

    def test_full_certainty(self):
        assert sv.quality({"a": 0.0, "b": 1.0, "c": 0.0}) == 1.0

    def test_worked_example_end_state(self):
        pf = {"m": 0.0, "t": 0.0, "p": 0.0, "g": 0.999, "a": 0.009}
        total = sv.binary_entropy(0.999) + sv.binary_entropy(0.009)
        assert sv.quality(pf) == pytest.approx(1 - total / 5, abs=1e-12)
        assert sv.quality(pf) == pytest.approx(0.98299, abs=1e-4)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pf = {f"s{i}": float(p)
                  for i, p in enumerate(rng.uniform(0, 1, 6))}
            assert 0.0 <= sv.quality(pf) <= 1.0


def path_outcomes(tree, statuses):
    """Walk the tree along the given outcome sequence, returning visited
    sensors."""
    node = tree.root
    seen = []
    for status in statuses:
        if node is None:
            break
        seen.append(node.sensor)
        node = node.faulty if status == FAULTY else node.ok
    return seen


class TestCompileTree:
    def test_single_sensor(self):
        iso = sv.build_isolation_network(sv.EmbTable({"s": {"s"}}))
        tree = sv.compile_decision_tree(iso)
        assert tree.node_count() == 1
        assert tree.depth() == 1
        assert tree.root.sensor == "s"

    def test_two_independent_sensors(self):
        iso = sv.build_isolation_network(sv.EmbTable({"a": {"a"}, "b": {"b"}}))
        tree = sv.compile_decision_tree(iso)
        assert tree.node_count() == 3
        assert tree.depth() == 2
        assert tree.root.faulty.sensor == tree.root.ok.sensor

    def test_reference_full_tree(self, ref_iso):
        tree = sv.compile_decision_tree(ref_iso)
        assert tree.node_count() == 31
        assert tree.depth() == 5

    def test_no_repeats_on_any_path(self, ref_iso):
        sv.compile_decision_tree(ref_iso).check(ref_iso.sensors)

    def test_full_tree_reproduces_online_selection(self, ref_iso):
        tree = sv.compile_decision_tree(ref_iso)
        # compile fills ref_iso's memo, so selection runs on a network
        # whose memos hold none of compile's choices
        cold = network_copy(ref_iso)
        for bits in itertools.product((FAULTY, CORRECT), repeat=5):
            node = tree.root
            findings = {}
            unvalidated = set(ref_iso.sensors)
            for status in bits:
                want = sv.select_next_sensor(cold, findings, unvalidated)
                assert node.sensor == want
                findings[node.sensor] = status
                unvalidated.discard(node.sensor)
                node = node.faulty if status == FAULTY else node.ok
            assert node is None


class TestPruning:
    def test_consistency_rule(self):
        emb = sv.EmbTable(REFERENCE_EMB)
        assert sv.single_fault_consistent({}, emb)
        assert sv.single_fault_consistent({"t": CORRECT, "m": CORRECT}, emb)
        assert sv.single_fault_consistent({"t": FAULTY, "g": FAULTY}, emb)
        # faults in two disjoint blankets have no single explanation
        assert not sv.single_fault_consistent({"p": FAULTY, "g": FAULTY}, emb)
        # a fault plus a correct observation inside the only covering blanket
        assert not sv.single_fault_consistent(
            {"g": FAULTY, "a": FAULTY, "t": CORRECT, "m": FAULTY}, emb)

    @pytest.mark.parametrize("outcomes, named", [
        ({"a": "FAULTY"}, "a"), ({"a": FAULTY, "g": "broken"}, "g")])
    def test_unknown_status_refused_as_beliefs_refuse_it(self, ref_iso,
                                                        outcomes, named):
        message = f"finding for {named!r} must be faulty/correct"
        with pytest.raises(ValueError, match=message):
            sv.fault_belief(ref_iso, outcomes)
        with pytest.raises(ValueError, match=message):
            sv.single_fault_consistent(outcomes, sv.EmbTable(REFERENCE_EMB))

    def test_all_correct_path_retained(self, ref_iso):
        emb = sv.EmbTable(REFERENCE_EMB)
        pruned = sv.prune_single_fault(sv.compile_decision_tree(ref_iso), emb)
        node = pruned.root
        depth = 0
        while node is not None:
            depth += 1
            node = node.ok
        assert depth == 5

    def test_reference_bound(self, ref_iso):
        emb = sv.EmbTable(REFERENCE_EMB)
        pruned = sv.prune_single_fault(sv.compile_decision_tree(ref_iso), emb)
        assert pruned.node_count() <= 5 * 6

    def test_direct_compilation_equals_post_pruning(self, ref_iso):
        emb = sv.EmbTable(REFERENCE_EMB)
        direct = sv.compile_decision_tree(ref_iso, emb=emb)
        post = sv.prune_single_fault(sv.compile_decision_tree(ref_iso), emb)
        assert sv.tree_to_json(direct) == sv.tree_to_json(post)

    def test_bound_on_random_tables(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            n = int(rng.integers(2, 8))
            emb = random_emb_table(rng, n)
            iso = sv.build_isolation_network(emb)
            pruned = sv.compile_decision_tree(iso, emb=emb)
            assert pruned.node_count() <= n * (n + 1), dict(emb)


def nodes_with_findings(tree):
    """Every node of the tree with the findings on the path to it."""
    stack = [(tree.root, {})]
    while stack:
        node, findings = stack.pop()
        if node is not None:
            yield node, findings
            stack.append((node.ok, {**findings, node.sensor: CORRECT}))
            stack.append((node.faulty, {**findings, node.sensor: FAULTY}))


def consistent_by_sets(findings, emb):
    """The single-fault rule written on sets, as an oracle."""
    faulty = {s for s, st in findings.items() if st == FAULTY}
    correct = {s for s, st in findings.items() if st == CORRECT}
    return not faulty or any(faulty <= blanket and not correct & blanket
                             for blanket in emb.values())


class TestCompileEqualsSelection:
    """Compile picks each node through the cycle's memoised selector and
    leaves its choices in the network's memo; every node must still hold
    what ``select_next_sensor`` picks on a network with empty memos given
    that node's findings."""

    @staticmethod
    def assert_each_node_selects(tree, build):
        sensors = set(build().sensors)
        for node, findings in nodes_with_findings(tree):
            cold = build()
            assert node.sensor == sv.select_next_sensor(
                cold, findings, sensors - findings.keys()), findings

    def test_tree21_pruned_tree(self, tree21):
        tree = sv.compile_decision_tree(tree21.iso, tree21.emb)
        assert tree.node_count() == 249
        self.assert_each_node_selects(tree, lambda: sv.build_isolation_network(
            tree21.emb, link_overrides=tree21.iso.params.strengths))

    def test_reference_full_tree(self, ref_iso):
        tree = sv.compile_decision_tree(ref_iso)
        assert tree.node_count() == 31
        self.assert_each_node_selects(
            tree, lambda: sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB)))

    def test_sensors_out_of_name_order(self, ref_iso, tree21):
        # candidates stay in name order, so ties break the same way
        for iso, emb in ((ref_iso, None), (ref_iso, sv.EmbTable(REFERENCE_EMB)),
                         (tree21.iso, tree21.emb)):
            reversed_iso = sv.IsolationNet(tuple(reversed(iso.sensors)),
                                           iso.parents_of, iso.params,
                                           iso.priors)
            assert sv.tree_to_json(sv.compile_decision_tree(reversed_iso, emb)) \
                == sv.tree_to_json(sv.compile_decision_tree(iso, emb))

    def test_emb_row_for_a_sensor_the_network_lacks(self, ref_iso):
        alone = sv.EmbTable({**REFERENCE_EMB, "zz": {"zz"}})
        assert sv.tree_to_json(sv.compile_decision_tree(ref_iso, alone)) == (
            FIXTURES / "reference_pruned.tree.json").read_text()
        # zz's row explains a fault in t alone even beside a correct m
        linked = sv.EmbTable({**REFERENCE_EMB, "t": REFERENCE_EMB["t"] | {"zz"},
                              "zz": {"zz", "t"}})
        pruned = sv.compile_decision_tree(ref_iso, linked)
        assert pruned.node_count() == 20
        full = nodes_with_findings(sv.compile_decision_tree(ref_iso))
        assert [(n.sensor, f) for n, f in nodes_with_findings(pruned)] == [
            (n.sensor, f) for n, f in full if consistent_by_sets(f, linked)]


class TestGoldenTrees:
    """Compiled trees stay byte-identical to the committed fixtures."""

    def test_reference_trees(self):
        net = sv.load_network((FIXTURES / "reference_net.json").read_text())
        emb = sv.emb_table(net)
        iso = sv.build_isolation_network(emb)
        assert sv.tree_to_json(sv.compile_decision_tree(iso)) == (
            FIXTURES / "reference_full.tree.json").read_text()
        assert sv.tree_to_json(sv.compile_decision_tree(iso, emb)) == (
            FIXTURES / "reference_pruned.tree.json").read_text()

    def test_tree21_pruned_tree(self):
        bench = tree21_benchmark(
            calibration=sv.DetectionCriterion("pvalue", 0.01))
        tree = sv.compile_decision_tree(bench.iso, bench.emb)
        assert tree.node_count() == 249
        assert sv.tree_to_json(tree) == (
            FIXTURES / "tree21_pvalue001.tree.json").read_text()

    def test_warm_network_compiles_the_golden_trees(self, ref, tree21):
        # the memo compile fills is the one online selection fills: a warm
        # memo, with choices for the cycle's states and for partial pools,
        # must never change a tree
        net = sv.load_network((FIXTURES / "reference_net.json").read_text())
        emb = sv.emb_table(net)
        iso = sv.build_isolation_network(emb)
        warm_up(ref, iso, [(f, pool) for f, r in reference_states()
                           for pool in ({max(r)}, r - {min(r)})],
                reference_readings(ref))
        assert sv.tree_to_json(sv.compile_decision_tree(iso)) == (
            FIXTURES / "reference_full.tree.json").read_text()
        assert sv.tree_to_json(sv.compile_decision_tree(iso, emb)) == (
            FIXTURES / "reference_pruned.tree.json").read_text()
        iso = tree21_network(tree21)
        states = [({}, set(iso.sensors))] + random_tree21_states(
            iso.sensors)[:60]
        warm_up(tree21, iso, [(f, pool) for f, r in states
                              for pool in ({max(r)}, set(sorted(r)[::2]))],
                workloads.tree21_readings(tree21, 0, 1)[::4])
        assert sv.tree_to_json(sv.compile_decision_tree(iso, tree21.emb)) == (
            FIXTURES / "tree21_pvalue001.tree.json").read_text()

    def test_pruning_the_stored_full_tree(self):
        # compile and prune grow trees through one recursion, so prune is
        # pinned against a stored tree rather than against compile
        net = sv.load_network((FIXTURES / "reference_net.json").read_text())
        full = sv.tree_from_json(
            (FIXTURES / "reference_full.tree.json").read_text())
        pruned = sv.prune_single_fault(full, sv.emb_table(net))
        assert sv.tree_to_json(pruned) == (
            FIXTURES / "reference_pruned.tree.json").read_text()


class TestTreeCheck:
    def test_compiled_tree_passes(self, ref_iso):
        sv.compile_decision_tree(ref_iso).check(ref_iso.sensors)

    def test_unknown_sensor(self):
        tree = sv.DecisionTree(TreeNode("t", None, TreeNode("zz")))
        with pytest.raises(ValueError, match="unknown sensor 'zz'"):
            tree.check(["t", "m"])

    def test_repeat_on_one_path(self):
        # t on both branches is fine; t below t is not
        sv.DecisionTree(TreeNode("m", TreeNode("t"), TreeNode("t"))).check(
            ["t", "m"])
        tree = sv.DecisionTree(TreeNode("t", None, TreeNode("m", TreeNode("t"))))
        with pytest.raises(ValueError, match="'t' twice on one path"):
            tree.check(["t", "m"])

    def test_first_bad_node_in_pre_order_is_named(self):
        tree = sv.DecisionTree(TreeNode("t", TreeNode("m", TreeNode("zz")),
                                        TreeNode("yy")))
        with pytest.raises(ValueError, match="unknown sensor 'zz'"):
            tree.check(["t", "m"])

    def test_deep_tree_is_walked(self):
        root = None
        for i in range(5000):
            root = TreeNode(f"s{i}", None, root)
        tree = sv.DecisionTree(root)
        assert tree.node_count() == tree.depth() == 5000
        tree.check(f"s{i}" for i in range(5000))


class TestTreeJson:
    def test_round_trip(self, ref_iso):
        emb = sv.EmbTable(REFERENCE_EMB)
        tree = sv.compile_decision_tree(ref_iso, emb=emb)
        again = sv.tree_from_json(sv.tree_to_json(tree))
        assert sv.tree_to_json(again) == sv.tree_to_json(tree)

    def test_format_shape(self):
        tree = sv.DecisionTree(TreeNode("s", None, TreeNode("u")))
        doc = json.loads(sv.tree_to_json(tree))
        assert doc == {"sensor": "s", "faulty": None,
                       "ok": {"sensor": "u", "faulty": None, "ok": None}}

    def test_empty_tree(self):
        assert sv.tree_to_json(sv.tree_from_json("null")) == "null"

    @pytest.mark.parametrize("document", [
        "{", "[1, 2]", '"t"', '{"sensor": "t"}',
        '{"sensor": ["t"], "faulty": null, "ok": null}',
        '{"sensor": 5, "faulty": null, "ok": null}',
        '{"sensor": "t", "faulty": ' * 3000 + "null" + ', "ok": null}' * 3000],
        ids=["syntax", "list", "string", "no-branches", "list-sensor",
             "number-sensor", "too-deep"])
    def test_malformed_document_is_a_value_error(self, document):
        with pytest.raises(ValueError):
            sv.tree_from_json(document)


class TestRunAnytimeValidation:
    def test_clean_row_resolves(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        records = list(sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, None, ref.test.row(10), crit))
        assert [r.step for r in records] == [1, 2, 3, 4, 5]
        assert all(r.status == "correct" for r in records)
        assert records[-1].quality > 0.9
        assert all(v < 0.05 for v in records[-1].pf.values())
        elapsed = [r.elapsed_ms for r in records]
        assert elapsed == sorted(elapsed)

    def test_severe_fault_resolves_to_target(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        reading = sv.inject_fault(ref.test.row(10), sv.FaultSpec("g", "severe"),
                                  ref.discretizer)
        records = list(sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, None, reading, crit))
        pf = records[-1].pf
        assert pf["g"] > 0.99
        assert all(v < 0.05 for s, v in pf.items() if s != "g")

    def test_interruptible_after_first_step(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        gen = sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, None, ref.test.row(4), crit)
        first = next(gen)
        gen.close()
        assert first.step == 1
        assert set(first.pf) == set(ref.iso.sensors)
        assert 0.0 <= first.quality <= 1.0
        assert first.elapsed_ms >= 0.0

    def test_elapsed_excludes_consumer_time(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        records = []
        for record in sv.run_anytime_validation(
                ref.net, ref.discretizer, ref.iso, None, ref.test.row(10),
                crit):
            records.append(record)
            time.sleep(0.1)
        assert len(records) == 5
        assert records[-1].elapsed_ms < 100.0

    @pytest.mark.parametrize("tree_file", [None, "reference_full.tree.json"])
    def test_step_layer_times(self, ref, tree_file):
        crit = sv.DetectionCriterion("sigma", 3.0)
        tree = tree_file and sv.tree_from_json(
            (FIXTURES / tree_file).read_text())
        records = list(sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, tree, ref.test.row(22), crit))
        assert len(records) == 5
        before = 0.0
        for r in records:
            layers = (r.detect_ms, r.select_ms, r.belief_ms)
            assert min(layers) >= 0.0
            if tree is not None:
                assert r.select_ms == 0.0
            # the layers count library time only; up to float rounding
            # they add up to no more than the step's elapsed time
            assert sum(layers) <= r.elapsed_ms - before + 1e-9
            before = r.elapsed_ms
        assert sum(r.detect_ms for r in records) > 0.0
        assert sum(r.belief_ms for r in records) > 0.0
        if tree is None:
            assert sum(r.select_ms for r in records) > 0.0

    def test_tree_traversal_matches_online(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        tree = sv.compile_decision_tree(ref.iso)
        reading = ref.test.row(22)
        with_tree = list(sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, tree, reading, crit))
        online = list(sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, None, reading, crit))
        assert [r.sensor for r in with_tree] == [r.sensor for r in online]
        assert [r.status for r in with_tree] == [r.status for r in online]

    def test_pruned_path_can_end_early(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        pruned = sv.compile_decision_tree(ref.iso, emb=ref.emb)
        reading = ref.test.row(10)
        # faults in two disconnected blankets contradict every single-fault
        # hypothesis, so the pruned tree runs out of branches
        reading = sv.inject_fault(reading, sv.FaultSpec("p", "severe"),
                                  ref.discretizer)
        reading = sv.inject_fault(reading, sv.FaultSpec("g", "severe"),
                                  ref.discretizer)
        records = list(sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, pruned, reading, crit))
        assert 0 < len(records) < 5
        assert set(records[-1].pf) == set(ref.iso.sensors)

    def test_tree_with_unknown_sensor_is_refused(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        tree = sv.DecisionTree(TreeNode("t", TreeNode("zz"), TreeNode("zz")))
        cycle = sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, tree, ref.test.row(10), crit)
        assert next(cycle).sensor == "t"
        with pytest.raises(ValueError, match="unknown sensor 'zz'"):
            next(cycle)

    def test_tree_repeating_a_sensor_is_refused(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        again = TreeNode("t", TreeNode("m"), TreeNode("m"))
        tree = sv.DecisionTree(TreeNode("t", again, again))
        with pytest.raises(ValueError, match="'t' was already validated"):
            list(sv.run_anytime_validation(
                ref.net, ref.discretizer, ref.iso, tree, ref.test.row(10),
                crit))

    def test_step_record_json_fields(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        record = next(sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, None, ref.test.row(0), crit))
        doc = json.loads(record.to_json())
        assert list(doc) == ["step", "sensor", "status", "pf", "quality",
                             "elapsed_ms"]
        assert doc["step"] == 1
        assert doc["status"] in ("correct", "faulty")
        assert set(doc["pf"]) == set(ref.iso.sensors)

    def test_records_are_immutable_and_equal_by_field(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        reading = ref.test.row(0)
        record = next(sv.run_anytime_validation(
            ref.net, ref.discretizer, ref.iso, None, reading, crit))
        status = sv.validate_sensor(ref.net, ref.discretizer, reading,
                                    record.sensor, crit)
        assert status.status == record.status
        for rec in (record, status):
            for field in rec._fields + ("extra",):
                with pytest.raises(AttributeError):
                    setattr(rec, field, None)
        assert record == sv.StepRecord(**record._asdict())
        assert record != record._replace(quality=record.quality + 1.0)
        assert status == sv.ApparentStatus(status.sensor, status.faulty)
        assert status != sv.ApparentStatus(status.sensor, not status.faulty)


def reference_readings(ref):
    """The 440 readings of ``fixtures/reference_readings.csv``: each row,
    then the row with one severe and one mild fault injected per sensor."""
    data = sv.Dataset.from_csv(
        (FIXTURES / "reference_readings.csv").read_text())
    specs = [sv.FaultSpec(s, severity) for s in ref.iso.sensors
             for severity in ("severe", "mild")]
    for i in range(len(data)):
        row = data.row(i)
        yield row
        for spec in specs:
            yield sv.inject_fault(row, spec, ref.discretizer)


def warm_up(bench, iso, states, readings):
    """Fill ``iso.select_memo`` with ``select_next_sensor`` on each
    (findings, candidates) state, then with online cycles over
    ``readings``."""
    for findings, pool in states:
        sv.select_next_sensor(iso, findings, pool)
    criterion = sv.DetectionCriterion("pvalue", 0.01)
    for reading in readings:
        for _ in sv.run_anytime_validation(bench.net, bench.discretizer, iso,
                                           None, reading, criterion):
            pass
    assert iso.select_memo


class TestCompileFillsSelectionMemo:
    def test_online_cycles_after_compile_score_nothing(self, ref,
                                                       monkeypatch):
        iso = network_copy(ref.iso)
        assert sv.compile_decision_tree(iso).node_count() == 31
        assert len(iso.select_memo) == 31
        calls = []
        scores = anytime.candidate_scores
        monkeypatch.setattr(anytime, "candidate_scores",
                            lambda *args: calls.append(args) or scores(*args))
        criterion = sv.DetectionCriterion("pvalue", 0.01)
        cycles = 0
        for reading in reference_readings(ref):
            records = list(sv.run_anytime_validation(
                ref.net, ref.discretizer, iso, None, reading, criterion))
            assert records
            cycles += 1
        assert cycles == 440
        assert calls == []


class TestCycleMatchesPublicFunctions:
    """At every step of a cycle, online or tree-guided, ``pf`` is what
    ``fault_belief`` gives for the findings so far, bit for bit, and an
    online pick is what ``select_next_sensor`` picks. The references run
    on a second network whose memos the cycle never touches."""

    CRITERION = sv.DetectionCriterion("pvalue", 0.01)

    def check(self, bench, iso, reference, tree, readings):
        cycles = []
        for reading in readings:
            findings, unvalidated = {}, set(iso.sensors)
            records = list(sv.run_anytime_validation(
                bench.net, bench.discretizer, iso, tree, reading,
                self.CRITERION))
            assert records
            for r in records:
                if tree is None:
                    assert r.sensor == sv.select_next_sensor(
                        reference, findings, unvalidated), findings
                findings[r.sensor] = r.status
                unvalidated.discard(r.sensor)
                want = sv.fault_belief(reference, findings)
                assert list(r.pf.items()) == list(want.items()), findings
                assert r.quality == sv.quality(r.pf)
            cycles.append([(r.sensor, r.status) for r in records])
        return cycles

    @pytest.mark.parametrize("tree_file", [None, "reference_full.tree.json",
                                           "reference_pruned.tree.json"])
    def test_reference_readings(self, ref, tree_file):
        tree = tree_file and sv.tree_from_json(
            (FIXTURES / tree_file).read_text())
        cycles = self.check(ref, network_copy(ref.iso), network_copy(ref.iso),
                            tree, reference_readings(ref))
        assert len(cycles) == 440
        assert any(status == FAULTY for c in cycles for _, status in c)

    @pytest.mark.parametrize("tree_file", [None, "tree21_pvalue001.tree.json"])
    def test_tree21_readings(self, tree21, tree_file):
        tree = tree_file and sv.tree_from_json(
            (FIXTURES / tree_file).read_text())
        sample = workloads.tree21_readings(tree21, 0, 1)[::4]
        cycles = self.check(tree21, network_copy(tree21.iso),
                            network_copy(tree21.iso), tree, sample)
        assert len(cycles) == 21
        assert any(status == FAULTY for c in cycles for _, status in c)

    @pytest.mark.parametrize("pruned", [None, False, True])
    def test_uneven_priors_and_links(self, ref, pruned):
        # the cycle starts from beliefs that are not all 0.5
        strengths = dict(ref.iso.params.strengths)
        strengths.update({("t", "g"): 0.6, ("m", "p"): 0.8, ("a", "t"): 0.7})
        priors = {"m": 0.1, "t": 0.3, "p": 0.05, "g": 0.5, "a": 0.2}

        def build():
            return sv.IsolationNet(ref.iso.sensors, ref.iso.parents_of,
                                   sv.NoisyOrParams(strengths), priors)
        tree = None if pruned is None else sv.compile_decision_tree(
            build(), ref.emb if pruned else None)
        cycles = self.check(ref, build(), build(), tree,
                            reference_readings(ref))
        assert len(cycles) == 440
        assert any(status == FAULTY for c in cycles for _, status in c)

    def test_unsorted_network_orders_as_the_sorted_one(self, ref):
        # a and g tie in the reference net; the cycle on a network whose
        # sensors run backwards must still pick by name
        backwards = self.check(ref, network_copy(ref.iso, reversed_order),
                               network_copy(ref.iso, reversed_order), None,
                               reference_readings(ref))
        forwards = self.check(ref, network_copy(ref.iso),
                              network_copy(ref.iso), None,
                              reference_readings(ref))
        assert backwards == forwards


class TestEntropyRefresh:
    """Each step refreshes the entropy of only the beliefs it moved,
    starting from the network's no-finding beliefs (entry (0, 0) of
    ``iso.states``); a first step whose state is in ``iso.states``
    refreshes none."""

    CRITERION = sv.DetectionCriterion("pvalue", 0.01)

    def cycle(self, bench, iso, reading, tree=None):
        return sv.run_anytime_validation(bench.net, bench.discretizer, iso,
                                         tree, reading, self.CRITERION)

    def test_first_cycle_sets_the_start_state(self, ref):
        iso = network_copy(ref.iso)
        assert iso.states == {}
        reading = next(reference_readings(ref))
        next(self.cycle(ref, iso, reading))
        beliefs, entropies, q, pf = iso.states[0, 0]
        want = sv.fault_belief(iso, {})
        assert beliefs == list(want.values())
        assert entropies == [sv.binary_entropy(p) for p in beliefs]
        assert q == sv.quality(want)
        assert list(pf.items()) == list(want.items())

    def test_a_step_refreshes_only_the_moved_beliefs(self, tree21,
                                                     monkeypatch):
        iso = network_copy(tree21.iso)
        readings = workloads.tree21_readings(tree21, 0, 1)[::4]
        list(self.cycle(tree21, iso, readings[0]))
        calls = []
        entropy = anytime.binary_entropy
        monkeypatch.setattr(anytime, "binary_entropy",
                            lambda p: calls.append(p) or entropy(p))
        hits = 0
        for reading in readings:
            last = dict(zip(iso.sensors, iso.states[0, 0][0]))
            stored = set(iso.states)
            for rec in self.cycle(tree21, iso, reading):
                moved = [p for s, p in rec.pf.items() if p != last[s]]
                b = iso.bit[rec.sensor]
                key = (b, 0) if rec.status == FAULTY else (0, b)
                if rec.step == 1 and key in stored:
                    assert calls == []
                    hits += 1
                else:
                    assert calls == moved
                assert len(moved) < len(iso.sensors)
                calls.clear()
                last = rec.pf
        assert 0 < hits < len(readings)

    @pytest.mark.parametrize("tree_file", [None, "reference_full.tree.json"])
    def test_consumer_edits_reach_no_later_record(self, ref, tree_file):
        tree = tree_file and sv.tree_from_json(
            (FIXTURES / tree_file).read_text())
        iso = network_copy(ref.iso)
        for reading in itertools.islice(reference_readings(ref), 0, 440, 11):
            clean = list(self.cycle(ref, network_copy(ref.iso), reading,
                                    tree))
            edited = []
            for rec in self.cycle(ref, iso, reading, tree):
                edited.append((rec.pf.copy(), rec.quality))
                for s in rec.pf:
                    rec.pf[s] = 0.5
                rec.pf["zz"] = 2.0
            assert edited == [(r.pf, r.quality) for r in clean]


class TestFirstStepTable:
    """``iso.states`` holds the start state and the states one finding
    from it. A cycle that reads its first step from there yields the
    records a fresh network yields, and neither a consumer's edit of
    ``rec.pf`` nor a later step's entropy refresh reaches a stored entry."""

    CRITERION = sv.DetectionCriterion("pvalue", 0.01)

    @staticmethod
    def fields(rec):
        """Every field but the four clocks, ``pf`` as its items in order."""
        return rec._replace(pf=list(rec.pf.items()), elapsed_ms=0.0,
                            detect_ms=0.0, select_ms=0.0, belief_ms=0.0)

    def check(self, bench, readings, tree_files):
        iso = network_copy(bench.iso)
        for tree in [None] + [sv.tree_from_json((FIXTURES / f).read_text())
                              for f in tree_files]:
            for reading in readings:
                cold = [self.fields(rec) for rec in sv.run_anytime_validation(
                    bench.net, bench.discretizer, network_copy(bench.iso),
                    tree, reading, self.CRITERION)]
                stored = copy.deepcopy(iso.states)
                warm = []
                for rec in sv.run_anytime_validation(
                        bench.net, bench.discretizer, iso, tree, reading,
                        self.CRITERION):
                    warm.append(self.fields(rec))
                    for s in rec.pf:
                        rec.pf[s] = 0.5
                    rec.pf["zz"] = 2.0
                assert warm == cold
                assert {key: iso.states[key] for key in stored} == stored
        n = len(iso.sensors)
        assert 2 < len(iso.states) <= 2 * n + 1
        fresh = network_copy(bench.iso)
        for (faulty, correct), (post, entropies, q, pf) in iso.states.items():
            assert not faulty & correct
            assert (faulty | correct).bit_count() <= 1
            want = isolation.noisy_or_root_posteriors(
                fresh, faulty, correct).tolist()
            assert post == want
            assert entropies == [sv.binary_entropy(p) for p in want]
            assert q == sv.quality(dict(zip(iso.sensors, want)))
            assert list(pf.items()) == list(zip(iso.sensors, want))

    def test_reference_readings(self, ref):
        self.check(ref, list(reference_readings(ref)),
                   ["reference_full.tree.json", "reference_pruned.tree.json"])

    def test_tree21_readings(self, tree21):
        readings = workloads.tree21_readings(tree21, 0, 1)
        assert len(readings) == 84
        self.check(tree21, readings, ["tree21_pvalue001.tree.json"])
