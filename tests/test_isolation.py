import itertools

import numpy as np
import pytest

import sensorval as sv
from sensorval import isolation
from sensorval.isolation import apparent_name, root_name
from conftest import REFERENCE_EMB, WORKED_EXAMPLE_ROWS, random_emb_table


class TestBuild:
    def test_reference_parent_sets(self, ref_iso):
        assert set(ref_iso.parents_of["t"]) == {"m", "t", "g", "a"}
        assert set(ref_iso.parents_of["p"]) == {"m", "p"}
        assert set(ref_iso.parents_of["m"]) == {"m", "t", "p"}
        assert set(ref_iso.parents_of["g"]) == {"t", "g"}

    def test_single_sensor(self):
        iso = sv.build_isolation_network(sv.EmbTable({"s": {"s"}}))
        assert iso.parents_of == {"s": ("s",)}

    def test_disjoint_pairs_stay_disconnected(self):
        iso = sv.build_isolation_network(sv.EmbTable(
            {"a": {"a", "b"}, "b": {"a", "b"},
             "c": {"c", "d"}, "d": {"c", "d"}}))
        assert set(iso.parents_of["a"]) == {"a", "b"}
        assert set(iso.parents_of["c"]) == {"c", "d"}

    def test_parameter_domains(self):
        emb = sv.EmbTable({"s": {"s"}})
        with pytest.raises(ValueError):
            sv.build_isolation_network(emb, link_strength=1.0)
        with pytest.raises(ValueError):
            sv.build_isolation_network(emb, prior=0.0)

    def test_asymmetric_table_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            sv.build_isolation_network({"a": {"a", "b"}, "b": {"b"}})

    def test_link_override_hook(self, ref_iso):
        iso = sv.build_isolation_network(
            sv.EmbTable(REFERENCE_EMB), link_overrides={("t", "g"): 0.5})
        assert iso.params.c("t", "g") == 0.5
        assert iso.params.c("t", "a") == 0.99
        with pytest.raises(KeyError, match="override"):
            sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB),
                                       link_overrides={("p", "g"): 0.5})
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="override"):
                sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB),
                                           link_overrides={("t", "g"): bad})

    def test_indices_lists_set_bits_lowest_first(self):
        rng = np.random.default_rng(3)
        masks = [0, 1, 1 << 40, *(int(m) for m in rng.integers(0, 2 ** 62,
                                                               200))]
        for mask in masks:
            assert isolation._indices(mask) == [
                i for i in range(mask.bit_length()) if mask >> i & 1]

    def test_mask_sets_each_bit_once(self, ref_iso):
        assert ref_iso.mask(["p", "p", "t"]) == ref_iso.mask(["t", "p"])

    def test_expansion_matches_noisy_or_row(self, ref_iso):
        net = ref_iso.to_bayes_net()
        for s in ref_iso.sensors:
            causes = ref_iso.parents_of[s]
            cpt = net.cpts[f"A_{s}"]
            assert cpt.parents == tuple(root_name(i) for i in causes)
            for row, bits in enumerate(itertools.product((False, True),
                                                         repeat=len(causes))):
                want = sv.noisy_or_row(ref_iso.params, s, causes,
                                       dict(zip(causes, bits)))
                assert cpt.table[row, 1] == pytest.approx(want, abs=1e-12)


class TestFaultBelief:
    def test_empty_findings_return_priors(self, ref_iso):
        pf = sv.fault_belief(ref_iso, {})
        assert set(pf) == set(ref_iso.sensors)
        for v in pf.values():
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_worked_example_rows(self, ref_iso):
        findings = {}
        for (sensor, status), expected in WORKED_EXAMPLE_ROWS:
            findings[sensor] = status
            pf = sv.fault_belief(ref_iso, findings)
            for s, want in expected.items():
                assert pf[s] == pytest.approx(want, abs=0.01), (sensor, s)

    def test_evidence_locality(self, ref_iso):
        # p is outside t's apparent-fault parents, so a lone finding on t
        # leaves p at its prior
        pf = sv.fault_belief(ref_iso, {"t": "faulty"})
        assert pf["p"] == pytest.approx(0.5, abs=1e-9)
        for s in ("m", "t", "g", "a"):
            assert pf[s] > 0.5

    def test_unknown_sensor(self, ref_iso):
        with pytest.raises(KeyError):
            sv.fault_belief(ref_iso, {"zz": "faulty"})
        with pytest.raises(ValueError):
            sv.fault_belief(ref_iso, {"t": "broken"})

    def test_ideal_pattern_pins_true_fault(self, ref_iso):
        # With the full ideal finding pattern the faulted sensor exceeds
        # 0.99 and every sensor whose blanket the faults do not cover is
        # crushed; sensors whose EMB lies inside the faulty set keep
        # prior-level probability (they are indistinguishable free riders).
        for r in ref_iso.sensors:
            findings = {s: ("faulty" if s in REFERENCE_EMB[r] else "correct")
                        for s in ref_iso.sensors}
            pf = sv.fault_belief(ref_iso, findings)
            assert pf[r] > 0.99
            for s in ref_iso.sensors:
                if s != r and not (REFERENCE_EMB[s] <= REFERENCE_EMB[r]):
                    assert pf[s] < 0.05, (r, s)

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            emb = random_emb_table(rng, 6)
            overrides = None
            if trial % 2:
                overrides = {(i, j): float(rng.uniform(0.02, 0.99))
                             for i in sorted(emb) for j in sorted(emb[i])}
            iso = sv.build_isolation_network(emb, link_overrides=overrides)
            net = iso.to_bayes_net()
            random_findings = {
                s: ("faulty" if rng.random() < 0.5 else "correct")
                for s in iso.sensors if rng.random() < 0.8}
            all_faulty = {s: "faulty" for s in iso.sensors}
            for findings in (random_findings, all_faulty):
                pf = sv.fault_belief(iso, findings)
                ev = {apparent_name(s): st for s, st in findings.items()}
                for s in iso.sensors:
                    want = sv.brute_force_posterior(net, ev, root_name(s))
                    assert pf[s] == pytest.approx(want.probabilities[1],
                                                  abs=1e-9)

    def test_posteriors_stay_within_the_unit_interval(self):
        # s3's enumerated component once summed its fault weights to
        # 1.0000000000000002 of the total, and ``quality`` refused that
        leaves = ("s1", "s2", "s4", "s5", "s6")
        emb = sv.EmbTable({"s3": {"s3", *leaves},
                           **{s: {s, "s3"} for s in leaves}})
        iso = sv.build_isolation_network(emb, prior=1e-4, link_overrides={
            ("s3", "s3"): 0.6808031625922248, ("s4", "s3"): 0.05,
            ("s3", "s4"): 0.6, ("s3", "s6"): 0.4097325962820458})
        findings = {"s1": "faulty", "s3": "correct", "s4": "faulty",
                    "s5": "faulty", "s6": "faulty"}
        pf = sv.fault_belief(iso, findings)
        assert all(0.0 <= p <= 1.0 for p in pf.values()), pf
        assert 0.0 <= sv.quality(pf) <= 1.0
        for sensor in findings:
            state = {s: st for s, st in findings.items() if s != sensor}
            rest = sorted(set(iso.sensors) - state.keys())
            branches = isolation.branch_posteriors(
                iso, *iso.finding_masks(state), iso.indices(rest))
            assert ((0.0 <= branches) & (branches <= 1.0)).all(), sensor

    @pytest.mark.parametrize("c", [1e-6, 1e-9, 1e-17])
    def test_weak_links_keep_precision(self, c):
        # one faulty finding on a symmetric pair: P(x) = (3 - c) / (4 - c)
        iso = sv.build_isolation_network(
            sv.EmbTable({"x": {"x", "y"}, "y": {"x", "y"}}), link_strength=c)
        pf = sv.fault_belief(iso, {"x": "faulty"})
        for s in ("x", "y"):
            assert pf[s] == pytest.approx((3 - c) / (4 - c), abs=1e-14)


class TestDeclareFaults:
    def test_worked_example_final_row(self, ref_iso):
        findings = dict(t="faulty", m="correct", g="faulty", a="correct",
                        p="correct")
        pf = sv.fault_belief(ref_iso, findings)
        assert sv.declare_faults(pf, 0.9) == {"g"}
        assert sv.declare_faults(pf, 0.5) == {"g"}

    def test_priors_declare_nothing(self, ref_iso):
        pf = sv.fault_belief(ref_iso, {})
        assert sv.declare_faults(pf, 0.9) == frozenset()

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            sv.declare_faults({"s": 0.5}, 1.0)

    def test_near_certain_links_match_emb_rule(self):
        # Whenever the apparent-fault set equals EMB(r), r gets declared
        # at the 0.5 threshold; exhaustive over small random tables.
        rng = np.random.default_rng(37)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            emb = random_emb_table(rng, n)
            iso = sv.build_isolation_network(emb, link_strength=1 - 1e-9)
            for r in sorted(emb):
                findings = {s: ("faulty" if s in emb[r] else "correct")
                            for s in sorted(emb)}
                pf = sv.fault_belief(iso, findings)
                assert r in sv.declare_faults(pf, 0.5), (r, emb)
