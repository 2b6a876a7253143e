import hashlib

import numpy as np
import pytest

import sensorval as sv
from sensorval.benchmarks import tree21_benchmark
from sensorval.detection import Discretizer
from sensorval.harness import (Dataset, criterion_label, policy_comparison_csv)
from conftest import FIXTURES


def toy_structure():
    return sv.NetworkStructure("toy", ("x", "y"), (("x", "y"),))


class TestLearnParameters:
    def test_unseen_context_gets_uniform_row(self):
        d = Discretizer(4, {"x": (0.0, 4.0), "y": (0.0, 4.0)})
        rows = np.array([[0.5, 0.5]] * 8)
        net = sv.learn_parameters(toy_structure(), d, Dataset(("x", "y"), rows))
        # parent context 3 never occurs
        np.testing.assert_allclose(net.cpts["y"].table[3], [0.25] * 4)

    def test_copy_child_converges_to_diagonal(self):
        d = Discretizer(4, {"x": (0.0, 4.0), "y": (0.0, 4.0)})
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 4, 4000)
        data = Dataset(("x", "y"), np.column_stack([xs, xs]))
        net = sv.learn_parameters(toy_structure(), d, data)
        table = net.cpts["y"].table
        for k in range(4):
            assert table[k, k] > 0.99
        small = Dataset(("x", "y"), np.column_stack([xs[:40], xs[:40]]))
        net_small = sv.learn_parameters(toy_structure(), d, small)
        assert net_small.cpts["y"].table.diagonal().min() < table.diagonal().min()

    def test_identical_rows_smoothing(self):
        d = Discretizer(4, {"x": (0.0, 4.0), "y": (0.0, 4.0)})
        data = Dataset(("x", "y"), np.array([[0.5, 0.5]] * 10))
        net = sv.learn_parameters(toy_structure(), d, data)
        assert net.cpts["x"].table[0, 0] == pytest.approx(11 / 14)
        assert net.cpts["y"].table[0, 0] == pytest.approx(11 / 14)

    def test_two_parent_mixed_radix_layout(self):
        # row index = first_parent * B + second_parent, first parent slowest
        structure = sv.NetworkStructure("v", ("x", "y", "z"),
                                        (("x", "z"), ("y", "z")))
        d = Discretizer(3, {s: (0.0, 3.0) for s in "xyz"})
        rows = np.array([
            [0.5, 1.5, 2.5],   # ctx (0, 1) -> z = 2
            [0.5, 1.5, 2.5],
            [2.5, 0.5, 1.5],   # ctx (2, 0) -> z = 1
        ])
        net = sv.learn_parameters(structure, d, Dataset(("x", "y", "z"), rows))
        cpt = net.cpts["z"]
        assert cpt.parents == ("x", "y")
        assert cpt.table.shape == (9, 3)
        np.testing.assert_allclose(cpt.table[0 * 3 + 1], [1 / 5, 1 / 5, 3 / 5])
        np.testing.assert_allclose(cpt.table[2 * 3 + 0], [1 / 4, 2 / 4, 1 / 4])
        np.testing.assert_allclose(cpt.table[1 * 3 + 1], [1 / 3] * 3)
        # the learned table must agree with the engine's factor convention
        dist = sv.posterior_marginal(net, {"x": "0", "y": "1"}, "z")
        np.testing.assert_allclose(dist.probabilities, [0.2, 0.2, 0.6])

    def test_huge_readings_count_in_the_edge_intervals(self):
        d = Discretizer(4, {"x": (0.0, 4.0), "y": (0.0, 4.0)})
        rows = np.array([[1e308, -1e308]] * 8)
        net = sv.learn_parameters(toy_structure(), d, Dataset(("x", "y"), rows))
        assert net.cpts["x"].table[0].argmax() == 3
        assert net.cpts["y"].table[3].argmax() == 0

    def test_tree21_network_is_unchanged(self):
        # SHA-256 of the learned 21-sensor network document
        net = tree21_benchmark().net
        assert hashlib.sha256(sv.save_network(net).encode()).hexdigest() == (
            "0f0a3ba6eea49e4dd713b8d544733a0d85a01883f2506533cd0f580230d720e5")

    def test_empty_training_set(self):
        d = Discretizer(4, {"x": (0.0, 4.0), "y": (0.0, 4.0)})
        with pytest.raises(ValueError, match="empty"):
            sv.learn_parameters(toy_structure(), d,
                                Dataset(("x", "y"), np.empty((0, 2))))

    def test_missing_column(self):
        d = Discretizer(4, {"x": (0.0, 4.0), "y": (0.0, 4.0)})
        with pytest.raises(KeyError, match="y"):
            sv.learn_parameters(toy_structure(), d,
                                Dataset(("x",), np.array([[0.5]])))


def test_repeated_column_is_refused():
    with pytest.raises(ValueError, match="column 'a' appears twice"):
        Dataset.from_csv("a,a\n1,2\n")


class TestSplitDataset:
    def make(self, n):
        return Dataset(("a",), np.arange(n, dtype=float).reshape(-1, 1))

    def test_paper_scale_split(self):
        train, test = sv.split_dataset(self.make(870), 0.7, seed=3)
        assert (len(train), len(test)) == (609, 261)

    def test_two_rows(self):
        train, test = sv.split_dataset(self.make(2), 0.5, seed=3)
        assert (len(train), len(test)) == (1, 1)

    def test_deterministic(self):
        a1, b1 = sv.split_dataset(self.make(100), 0.7, seed=9)
        a2, b2 = sv.split_dataset(self.make(100), 0.7, seed=9)
        np.testing.assert_array_equal(a1.values, a2.values)
        np.testing.assert_array_equal(b1.values, b2.values)

    def test_partition(self):
        data = self.make(50)
        train, test = sv.split_dataset(data, 0.3, seed=1)
        merged = sorted(train.values[:, 0]) + sorted(test.values[:, 0])
        assert sorted(merged) == list(range(50))

    def test_ratio_domain(self):
        with pytest.raises(ValueError):
            sv.split_dataset(self.make(10), 1.0, seed=0)


class TestGenerate:
    def test_noise_free_children_are_linear(self):
        struct = sv.NetworkStructure("s", ("r", "c1", "c2"),
                                     (("r", "c1"), ("c1", "c2")))
        data = sv.generate_synthetic_dataset(struct, 200, noise=0.0, seed=4)
        r, c1, c2 = data.values.T
        mid = 100  # ramp region, where values are nonzero
        np.testing.assert_allclose(c1, (c1[mid] / r[mid]) * r, atol=1e-9)
        np.testing.assert_allclose(c2, (c2[mid] / c1[mid]) * c1, atol=1e-9)

    def test_seed_determinism(self):
        struct = sv.reference_structure()
        a = sv.generate_synthetic_dataset(struct, 300, noise=0.05, seed=8)
        b = sv.generate_synthetic_dataset(struct, 300, noise=0.05, seed=8)
        np.testing.assert_array_equal(a.values, b.values)

    def test_shipped_structures(self):
        five = sv.reference_structure()
        assert len(five.sensors) == 5
        tree = sv.random_tree_structure(21, seed=21)
        assert len(tree.sensors) == 21
        assert len(tree.edges) == 20
        children = {}
        for p, c in tree.edges:
            children.setdefault(p, []).append(c)
            assert p < c  # acyclic by construction
        assert max(len(v) for v in children.values()) <= 3

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            sv.generate_synthetic_dataset(sv.reference_structure(), 0, 0.1, 1)

    def test_desk_scale_model_passes_clean_validation(self):
        # paper-scale data: 870 rows, 70/30 split, 3-sigma criterion
        struct = sv.random_tree_structure(21, seed=21)
        data = sv.generate_synthetic_dataset(struct, 870, noise=0.05, seed=7)
        train, test = sv.split_dataset(data, 0.7, seed=1)
        d = sv.fit_discretizer(train, struct.sensors, bins=10)
        net = sv.learn_parameters(struct, d, train)
        crit = sv.DetectionCriterion("sigma", 3.0)
        flags = total = 0
        for i in range(0, len(test), 13):
            reading = test.row(i)
            for s in struct.sensors:
                flags += sv.validate_sensor(net, d, reading, s, crit).faulty
                total += 1
        assert flags / total <= 0.10

    def test_noise_free_cpts_approach_determinism(self):
        struct = sv.reference_structure()
        data = sv.generate_synthetic_dataset(struct, 10_000, noise=0.0, seed=3)
        d = sv.fit_discretizer(data, struct.sensors, bins=10)
        net = sv.learn_parameters(struct, d, data)
        codes = {s: np.clip((10 * (data.values[:, i] - d.bounds[s][0])
                             / (d.bounds[s][1] - d.bounds[s][0])).astype(int),
                            0, 9)
                 for i, s in enumerate(data.sensors)}
        for s in struct.sensors:
            parents = struct.parents_of(s)
            if not parents:
                continue
            table = net.cpts[s].table
            seen_contexts = sorted(set(codes[parents[0]].tolist()))
            off_mode = 1.0 - table[seen_contexts].max(axis=1)
            assert off_mode.max() <= 0.1


class TestInjectFault:
    def disc(self):
        return Discretizer(10, {"s": (0.0, 100.0), "o": (0.0, 100.0)})

    def test_severe_picks_farther_extreme(self):
        row = {"s": 10.0, "o": 42.0}
        out = sv.inject_fault(row, sv.FaultSpec("s", "severe"), self.disc())
        assert out["s"] == 100.0

    def test_mild_quarter_range_toward_farther(self):
        out = sv.inject_fault({"s": 10.0, "o": 42.0},
                              sv.FaultSpec("s", "mild"), self.disc())
        assert out["s"] == 35.0

    def test_midpoint_tie_goes_up(self):
        out = sv.inject_fault({"s": 50.0, "o": 0.0},
                              sv.FaultSpec("s", "severe"), self.disc())
        assert out["s"] == 100.0

    def test_changes_exactly_one_field(self):
        row = {"s": 10.0, "o": 42.0}
        out = sv.inject_fault(row, sv.FaultSpec("s", "severe"), self.disc())
        assert out["o"] == row["o"]
        assert row["s"] == 10.0  # input untouched

    def test_deviation_guarantees(self, ref):
        rng = np.random.default_rng(6)
        for i in rng.integers(0, len(ref.test), 25):
            row = ref.test.row(int(i))
            for s in ref.test.sensors:
                lo, hi = ref.discretizer.bounds[s]
                severe = sv.inject_fault(row, sv.FaultSpec(s, "severe"),
                                         ref.discretizer)
                mild = sv.inject_fault(row, sv.FaultSpec(s, "mild"),
                                       ref.discretizer)
                assert abs(severe[s] - row[s]) >= 0.5 * (hi - lo) - 1e-12
                assert abs(mild[s] - row[s]) == pytest.approx(
                    0.25 * (hi - lo), abs=1e-12)

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            sv.inject_fault({"s": 1.0}, sv.FaultSpec("zz", "severe"),
                            self.disc())
        with pytest.raises(ValueError):
            sv.FaultSpec("s", "catastrophic")


class TestCalibration:
    def test_reference_links(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        links = sv.harness.calibrate_link_strengths(
            ref.net, ref.discretizer, ref.emb, ref.train, crit, n_rows=20)
        assert set(links) == {(i, j) for i in ref.emb for j in ref.emb[i]}
        # every sensor flags its own corrupted reading
        for s in ref.emb:
            assert links[(s, s)] > 0.9
        # single-member-blanket sensors follow their source
        assert links[("m", "p")] > 0.9
        assert links[("t", "g")] > 0.8
        # a sensor with several blanket members resists one corrupted source
        assert links[("m", "t")] < 0.2
        assert links[("p", "m")] < 0.2

    def test_deterministic(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        kwargs = dict(n_rows=10, seed=4)
        a = sv.harness.calibrate_link_strengths(
            ref.net, ref.discretizer, ref.emb, ref.train, crit, **kwargs)
        b = sv.harness.calibrate_link_strengths(
            ref.net, ref.discretizer, ref.emb, ref.train, crit, **kwargs)
        assert a == b


@pytest.fixture(scope="module")
def small_test(ref):
    return Dataset(ref.test.sensors, ref.test.values[::90][:3])


class TestExperiments:

    def test_empty_test_set(self, ref):
        records = sv.run_fault_experiments(
            ref.net, ref.discretizer, ref.iso, None,
            Dataset(ref.test.sensors, np.empty((0, 5))),
            [sv.DetectionCriterion("sigma", 3.0)])
        assert records == []

    def test_grid_counts(self, ref, small_test):
        crit = sv.DetectionCriterion("sigma", 3.0)
        records = sv.run_fault_experiments(
            ref.net, ref.discretizer, ref.iso, None, small_test, [crit])
        faults = [r for r in records if r.fault is not None]
        controls = [r for r in records if r.fault is None]
        assert len(controls) == 3
        assert len(faults) == 3 * 5 * 2
        severe = [r for r in faults if r.fault.severity == "severe"]
        assert len(severe) == 15

    def test_deterministic_records(self, ref, small_test):
        crit = sv.DetectionCriterion("pvalue", 0.01)
        def run():
            return sv.run_fault_experiments(
                ref.net, ref.discretizer, ref.iso, None, small_test, [crit],
                seed=7)
        a, b = run(), run()
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.fault == rb.fault
            assert ra.declared == rb.declared
            assert ra.final_pf == rb.final_pf

    @pytest.mark.parametrize("tree_file", [None, "reference_pruned.tree.json"])
    def test_records_keep_only_final_beliefs(self, ref, small_test, tree_file):
        crit = sv.DetectionCriterion("pvalue", 0.01)
        tree = (None if tree_file is None
                else sv.tree_from_json((FIXTURES / tree_file).read_text()))
        records = sv.run_fault_experiments(
            ref.net, ref.discretizer, ref.iso, tree, small_test, [crit])
        lengths = []
        for rec in records:
            reading = small_test.row(rec.row_index)
            if rec.fault is not None:
                reading = sv.inject_fault(reading, rec.fault, ref.discretizer)
            steps = list(sv.run_anytime_validation(
                ref.net, ref.discretizer, ref.iso, tree, reading, crit))
            assert rec.final_pf == steps[-1].pf
            assert rec.trace == []
            lengths.append(len(steps))
        n = len(ref.iso.sensors)
        if tree is None:
            assert set(lengths) == {n}
        else:
            assert min(lengths) < n     # some pruned paths end early

    def test_empty_tree_keeps_prior_beliefs(self, ref, small_test):
        records = sv.run_fault_experiments(
            ref.net, ref.discretizer, ref.iso, sv.tree_from_json("null"),
            small_test, [sv.DetectionCriterion("sigma", 3.0)])
        prior = sv.fault_belief(ref.iso, {})
        assert len(records) == 33
        for rec in records:
            assert rec.final_pf == prior
            assert rec.trace == []

    def test_declared_derives_from_final_pf(self, ref, small_test):
        crit = sv.DetectionCriterion("sigma", 3.0)
        records = sv.run_fault_experiments(
            ref.net, ref.discretizer, ref.iso, None, small_test, [crit],
            declare_threshold=0.8)
        for rec in records:
            assert rec.declared == sv.declare_faults(rec.final_pf, 0.8)


class TestEvaluateErrors:
    def fake_record(self, fault, declared, criterion, sensors=("a", "b", "c")):
        return sv.ExperimentRecord(
            0, fault, criterion, {s: 0.0 for s in sensors},
            frozenset(declared), [])

    def test_perfect_classification(self):
        crit = sv.DetectionCriterion("sigma", 3.0)
        records = [self.fake_record(sv.FaultSpec("a", "severe"), {"a"}, crit),
                   self.fake_record(None, set(), crit)]
        report = sv.evaluate_errors(records)
        label = criterion_label(crit)
        assert report.rate(label, "severe", "type1") == 0.0
        assert report.rate(label, "severe", "type2") == 0.0

    def test_declare_everything(self):
        crit = sv.DetectionCriterion("sigma", 3.0)
        records = [self.fake_record(sv.FaultSpec("a", "severe"),
                                    {"a", "b", "c"}, crit)]
        report = sv.evaluate_errors(records)
        label = criterion_label(crit)
        assert report.rate(label, "severe", "type2") == 0.0
        assert report.rate(label, "severe", "type1") == 1.0

    def test_counts_consistent(self):
        crit = sv.DetectionCriterion("pvalue", 0.01)
        records = [
            self.fake_record(sv.FaultSpec("a", "severe"), {"b"}, crit),
            self.fake_record(sv.FaultSpec("b", "mild"), set(), crit),
            self.fake_record(None, {"c"}, crit),
        ]
        report = sv.evaluate_errors(records)
        label = criterion_label(crit)
        severe = next(e for e in report.entries
                      if e[0] == label and e[1] == "severe")
        # 2 innocents in the fault run + 3 control judgments
        assert severe[3] == 5
        assert severe[2] == 2  # b declared in fault run, c in control
        mild = next(e for e in report.entries
                    if e[0] == label and e[1] == "mild")
        assert mild[5] == 1 and mild[7] == 1.0

    def test_empty_records(self):
        with pytest.raises(ValueError):
            sv.evaluate_errors([])

    def test_csv_shape(self):
        crit = sv.DetectionCriterion("sigma", 3.0)
        report = sv.evaluate_errors(
            [self.fake_record(sv.FaultSpec("a", "severe"), {"a"}, crit)])
        lines = report.to_csv().splitlines()
        assert lines[0] == ("criterion,severity,type1_count,type1_rate,"
                            "type2_count,type2_rate")
        assert len(lines) >= 2


class TestPolicyComparison:
    def test_single_sensor_policies_coincide(self):
        struct = sv.NetworkStructure("one", ("a",), ())
        data = sv.generate_synthetic_dataset(struct, 3000, noise=0.05, seed=2)
        train, test = sv.split_dataset(data, 0.7, seed=1)
        d = sv.fit_discretizer(train, struct.sensors)
        net = sv.learn_parameters(struct, d, train)
        iso = sv.build_isolation_network(sv.emb_table(net))
        e, r = sv.compare_selection_policies(net, d, iso, test, 4, seed=3)
        assert e.shape == r.shape == (1,)
        np.testing.assert_allclose(e, r, atol=1e-12)

    def test_seed_determinism(self, ref):
        e1, r1 = sv.compare_selection_policies(
            ref.net, ref.discretizer, ref.iso, ref.test, 6, seed=11)
        e2, r2 = sv.compare_selection_policies(
            ref.net, ref.discretizer, ref.iso, ref.test, 6, seed=11)
        np.testing.assert_array_equal(e1, e2)
        np.testing.assert_array_equal(r1, r2)

    def test_entropy_ahead_early_and_equal_at_end(self, ref):
        # The first pick maximizes expected information, so step 1 must
        # favour entropy; the last step sees the same finding set under
        # both policies, so the means close up exactly.
        e, r = sv.compare_selection_policies(
            ref.net, ref.discretizer, ref.iso, ref.test, 30, seed=17)
        assert e[0] > r[0]
        assert e[-1] == pytest.approx(r[-1], abs=1e-12)

    def test_csv_format(self):
        text = policy_comparison_csv(np.array([0.1, 0.9]), np.array([0.1, 0.5]))
        lines = text.splitlines()
        assert lines[0] == "step,mean_quality_entropy,mean_quality_random"
        assert lines[1] == "1,0.100000,0.100000"
        assert len(lines) == 3


class TestDatasetCsv:
    def test_round_trip(self, ref):
        sub = Dataset(ref.test.sensors, ref.test.values[:5])
        again = Dataset.from_csv(sub.to_csv())
        assert again.sensors == sub.sensors
        np.testing.assert_array_equal(again.values, sub.values)

    def test_empty_body(self):
        data = Dataset.from_csv("a,b\n")
        assert len(data) == 0

    def test_no_header(self):
        with pytest.raises(ValueError, match="header"):
            Dataset.from_csv("")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(("a",), np.array([[np.inf]]))
