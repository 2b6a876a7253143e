import itertools
import json
import math
import time

import numpy as np
import pytest

import sensorval as sv
from sensorval import anytime
from sensorval.anytime import TreeNode
from sensorval.isolation import CORRECT, FAULTY
from sensorval.benchmarks import tree21_benchmark
from conftest import FIXTURES, REFERENCE_EMB, random_emb_table


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

    def test_reference_first_pick_is_exhaustive_argmin(self, ref_iso):
        values = {s: sv.conditional_average_entropy(ref_iso, {}, s)
                  for s in ref_iso.sensors}
        want = min(sorted(values), key=lambda s: (values[s], s))
        assert sv.select_next_sensor(ref_iso, {}, set(ref_iso.sensors)) == want
        assert want == "t"

    def test_tie_breaks_lexicographically(self):
        iso = sv.build_isolation_network(sv.EmbTable(
            {"b": {"b", "z"}, "z": {"b", "z"}}))
        assert sv.select_next_sensor(iso, {}, {"z", "b"}) == "b"

    def test_symmetric_pair_ties_by_name(self, ref_iso):
        # a and g are symmetric in the reference net; their scores differ
        # only by rounding, so the name decides
        for findings in ({"p": CORRECT, "t": FAULTY},
                         {"m": CORRECT, "p": CORRECT, "t": CORRECT}):
            rest = set(ref_iso.sensors) - set(findings)
            a = sv.conditional_average_entropy(ref_iso, findings, "a")
            g = sv.conditional_average_entropy(ref_iso, findings, "g")
            assert a == pytest.approx(g, abs=1e-12)
            assert sv.select_next_sensor(ref_iso, findings, rest) == "a"

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


class TestSelectionMemo:
    def build(self, **kwargs):
        return sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB), **kwargs)

    def test_warmed_network_picks_what_a_fresh_one_picks(self):
        warmed = self.build()
        states = list(reference_states())
        assert len(states) == 131
        for findings, rest in states:
            sv.select_next_sensor(warmed, findings, rest)
        assert len(warmed.compiled.select_memo) == len(states)
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
        assert base.compiled is not other.compiled
        assert other.compiled.select_memo == {}
        assert not np.shares_memory(base.compiled.log_q, other.compiled.log_q)
        for findings, rest in reference_states():
            want = sv.select_next_sensor(
                self.build(link_overrides={("t", "g"): 0.5}), findings, rest)
            assert sv.select_next_sensor(other, findings, rest) == want

    def test_cap_clears_the_memo(self, monkeypatch):
        monkeypatch.setattr(anytime, "SELECT_MEMO_CAP", 3)
        iso = self.build()
        memo = iso.compiled.select_memo
        states = list(reference_states())[:5]
        sizes = []
        for findings, rest in states:
            sv.select_next_sensor(iso, findings, rest)
            sizes.append(len(memo))
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
        tree = sv.compile_decision_tree(ref_iso)
        for path in tree.paths():
            sensors = [s for s, _ in path]
            assert len(sensors) == len(set(sensors))

    def test_full_tree_reproduces_online_selection(self, ref_iso):
        tree = sv.compile_decision_tree(ref_iso)
        for bits in itertools.product((FAULTY, CORRECT), repeat=5):
            node = tree.root
            findings = {}
            unvalidated = set(ref_iso.sensors)
            for status in bits:
                want = sv.select_next_sensor(ref_iso, findings, unvalidated)
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

    @pytest.mark.parametrize("pick, message", [
        (lambda iso, findings, rest: "zz", "unknown sensor 'zz'"),
        (lambda iso, findings, rest: "t", "'t' was already validated"),
    ])
    def test_selector_pick_is_checked(self, ref, pick, message):
        crit = sv.DetectionCriterion("sigma", 3.0)
        with pytest.raises(ValueError, match=message):
            list(sv.run_anytime_validation(
                ref.net, ref.discretizer, ref.iso, None, ref.test.row(10),
                crit, selector=pick))

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
