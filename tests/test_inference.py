import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensorval as sv
from sensorval import isolation
from sensorval.inference import NoisyOrParams
from sensorval.isolation import (IsolationNet, apparent_name,
                                 noisy_or_root_posteriors, root_name)
from conftest import random_binary_net, random_evidence


def make_net(variables, edges, cpts):
    return sv.BayesNet(variables, edges, cpts)


@pytest.fixture(scope="module")
def ref_iso_net(ref_iso_module=None):
    iso = sv.build_isolation_network(
        sv.EmbTable({"m": {"m", "t", "p"}, "t": {"t", "m", "g", "a"},
                     "p": {"p", "m"}, "g": {"g", "t"}, "a": {"a", "t"}}))
    return iso.to_bayes_net()


class TestPosteriorMarginal:
    def test_root_prior_no_evidence(self):
        net = make_net(
            [sv.Variable("x", ("a", "b", "c"))], [],
            {"x": sv.Cpt("x", (), np.array([[0.2, 0.3, 0.5]]))})
        dist = sv.posterior_marginal(net, {}, "x")
        np.testing.assert_allclose(dist.probabilities, [0.2, 0.3, 0.5])

    def test_worked_example_first_finding(self, ref_iso_net):
        dist = sv.posterior_marginal(ref_iso_net, {apparent_name("t"): "faulty"},
                                     root_name("m"))
        assert dist.probabilities[1] == pytest.approx(0.534, abs=5e-4)

    def test_matches_brute_force_on_random_nets(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            net = random_binary_net(rng, int(rng.integers(2, 9)))
            target = net.names()[int(rng.integers(len(net.names())))]
            ev = random_evidence(rng, net, target)
            got = sv.posterior_marginal(net, ev, target)
            want = sv.brute_force_posterior(net, ev, target)
            np.testing.assert_allclose(got.probabilities, want.probabilities,
                                       atol=1e-9)

    def test_matches_brute_force_on_mixed_cardinality_nets(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            names = [f"v{i}" for i in range(n)]
            cards = {m: int(rng.integers(2, 5)) for m in names}
            edges = [(names[i], names[j]) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < 0.35]
            variables = [sv.Variable(m, tuple(f"s{k}" for k in range(cards[m])))
                         for m in names]
            parents = {m: tuple(p for p, c in edges if c == m) for m in names}
            cpts = {}
            for m in names:
                rows = int(np.prod([cards[p] for p in parents[m]], dtype=int))
                table = rng.uniform(0.05, 1.0, size=(rows, cards[m]))
                table /= table.sum(axis=1, keepdims=True)
                cpts[m] = sv.Cpt(m, parents[m], table)
            net = sv.BayesNet(variables, edges, cpts)
            target = names[int(rng.integers(n))]
            ev = random_evidence(rng, net, target)
            got = sv.posterior_marginal(net, ev, target)
            want = sv.brute_force_posterior(net, ev, target)
            np.testing.assert_allclose(got.probabilities, want.probabilities,
                                       atol=1e-9)

    def test_normalized(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            net = random_binary_net(rng, 6)
            target = net.names()[0]
            dist = sv.posterior_marginal(net, random_evidence(rng, net, target),
                                         target)
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
            assert (dist.probabilities >= 0).all()

    def test_concurrent_queries_share_one_network(self):
        # immutable network, stateless queries: concurrent calls must agree
        # with the sequential answers
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(15)
        net = random_binary_net(rng, 8)
        jobs = []
        for _ in range(40):
            target = net.names()[int(rng.integers(8))]
            jobs.append((random_evidence(rng, net, target), target))
        sequential = [sv.posterior_marginal(net, ev, t).probabilities
                      for ev, t in jobs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(
                lambda job: sv.posterior_marginal(net, *job).probabilities,
                jobs))
        for a, b in zip(sequential, parallel):
            np.testing.assert_array_equal(a, b)

    def test_inconsistent_evidence(self):
        # y deterministically copies x; observing disagreement is impossible
        net = make_net(
            [sv.Variable("x", ("a", "b")), sv.Variable("y", ("a", "b"))],
            [("x", "y")],
            {"x": sv.Cpt("x", (), np.array([[1.0, 0.0]])),
             "y": sv.Cpt("y", ("x",), np.array([[1.0, 0.0], [0.0, 1.0]]))})
        with pytest.raises(sv.InconsistentEvidenceError):
            sv.posterior_marginal(net, {"y": "b"}, "x")

    def test_unknown_names(self):
        net = make_net([sv.Variable("x", ("a", "b"))], [],
                       {"x": sv.Cpt("x", (), np.array([[0.5, 0.5]]))})
        with pytest.raises(sv.UnknownVariableError):
            sv.posterior_marginal(net, {"zz": "a"}, "x")
        with pytest.raises(sv.UnknownVariableError):
            sv.posterior_marginal(net, {"x": "nope"}, "x")

    def test_target_observed(self):
        net = make_net([sv.Variable("x", ("a", "b"))], [],
                       {"x": sv.Cpt("x", (), np.array([[0.5, 0.5]]))})
        with pytest.raises(ValueError, match="observed"):
            sv.posterior_marginal(net, {"x": "a"}, "x")

    def test_markov_blanket_screening(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            net = random_binary_net(rng, int(rng.integers(3, 8)))
            target = net.names()[int(rng.integers(len(net.names())))]
            full = {}
            for n in net.names():
                if n != target:
                    states = net.variable(n).states
                    full[n] = states[int(rng.integers(len(states)))]
            blanket = {n: s for n, s in full.items()
                       if n in sv.markov_blanket(net, target)}
            a = sv.posterior_marginal(net, full, target)
            b = sv.posterior_marginal(net, blanket, target)
            np.testing.assert_allclose(a.probabilities, b.probabilities,
                                       atol=1e-9)


def star_net(rng, n_children):
    """A binary root ``r`` with ``n_children`` binary children; returns the
    network, the root prior and each child's P(child | root) matrix."""
    children = [f"c{i:02d}" for i in range(n_children)]
    prior = np.array([0.3, 0.7])
    tables = [np.column_stack([1 - p, p])
              for p in rng.uniform(0.2, 0.8, size=(n_children, 2))]
    variables = [sv.Variable(n, ("0", "1")) for n in ["r", *children]]
    cpts = {"r": sv.Cpt("r", (), prior[None, :])}
    cpts.update({c: sv.Cpt(c, ("r",), t) for c, t in zip(children, tables)})
    net = sv.BayesNet(variables, [("r", c) for c in children], cpts)
    return net, prior, tables


class TestEngineLimits:
    """Shapes that one einsum call per elimination step, or per network,
    could not take: more operands or more labels than einsum accepts."""

    def test_root_of_a_wide_star(self):
        rng = np.random.default_rng(70)
        net, prior, tables = star_net(rng, 70)
        bits = rng.integers(0, 2, size=70)
        evidence = {f"c{i:02d}": str(b) for i, b in enumerate(bits)}
        want = prior * np.prod([t[:, b] for t, b in zip(tables, bits)], axis=0)
        got = sv.posterior_marginal(net, evidence, "r").probabilities
        np.testing.assert_allclose(got, want / want.sum(), rtol=0, atol=1e-12)

    def test_child_of_a_wide_star(self):
        # eliminating the root takes the product of 71 factors that share it
        rng = np.random.default_rng(71)
        net, prior, tables = star_net(rng, 70)
        bits = rng.integers(0, 2, size=70)
        evidence = {f"c{i:02d}": str(b) for i, b in enumerate(bits) if i != 0}
        root = prior * np.prod([t[:, b] for t, b in
                                zip(tables[1:], bits[1:])], axis=0)
        want = (root / root.sum()) @ tables[0]
        got = sv.posterior_marginal(net, evidence, "c00").probabilities
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_end_of_a_long_chain(self):
        names = [f"x{i:02d}" for i in range(60)]
        step = np.array([[0.9, 0.1], [0.25, 0.75]])
        variables = [sv.Variable(n, ("0", "1")) for n in names]
        cpts = {names[0]: sv.Cpt(names[0], (), np.array([[0.5, 0.5]]))}
        cpts.update({c: sv.Cpt(c, (p,), step) for p, c in zip(names, names[1:])})
        net = sv.BayesNet(variables, list(zip(names, names[1:])), cpts)
        want = np.linalg.matrix_power(step, 59)
        for first in ("0", "1"):
            got = sv.posterior_marginal(net, {"x00": first}, "x59").probabilities
            np.testing.assert_allclose(got, want[int(first)], rtol=0,
                                       atol=1e-12)


ORDERS_SCRIPT = """
import numpy as np
from conftest import random_binary_net
from sensorval.inference import _cpt_factor, _min_fill_order
rng = np.random.default_rng(8)
for _ in range(300):
    net = random_binary_net(rng, int(rng.integers(2, 10)))
    target = net.names()[int(rng.integers(len(net.names())))]
    factors = [_cpt_factor(net, n) for n in net.names()]
    print(_min_fill_order(factors, set(net.names()) - {target}))
"""


def test_elimination_order_does_not_depend_on_string_hashing():
    tests = Path(__file__).resolve().parent
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                               str(tests)]))
        proc = subprocess.run([sys.executable, "-c", ORDERS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


class TestBruteForce:
    def test_single_node_prior(self):
        net = make_net([sv.Variable("x", ("a", "b"))], [],
                       {"x": sv.Cpt("x", (), np.array([[0.3, 0.7]]))})
        dist = sv.brute_force_posterior(net, {}, "x")
        np.testing.assert_allclose(dist.probabilities, [0.3, 0.7])

    def test_deterministic_inversion(self):
        net = make_net(
            [sv.Variable("x", ("a", "b")), sv.Variable("y", ("a", "b"))],
            [("x", "y")],
            {"x": sv.Cpt("x", (), np.array([[0.5, 0.5]])),
             "y": sv.Cpt("y", ("x",), np.array([[1.0, 0.0], [0.0, 1.0]]))})
        dist = sv.brute_force_posterior(net, {"y": "b"}, "x")
        np.testing.assert_allclose(dist.probabilities, [0.0, 1.0])

    def test_noisy_or_analytic_value(self, ref_iso_net):
        # P(fault in m | apparent fault in t) has the closed form
        # 0.5 (1 - 0.01 * 0.505^3) / (1 - 0.505^4)
        want = 0.5 * (1 - 0.01 * 0.505 ** 3) / (1 - 0.505 ** 4)
        dist = sv.brute_force_posterior(ref_iso_net,
                                        {apparent_name("t"): "faulty"},
                                        root_name("m"))
        assert dist.probabilities[1] == pytest.approx(want, abs=1e-12)

    def test_size_guard(self):
        names = [f"v{i}" for i in range(25)]
        variables = [sv.Variable(n, ("a", "b")) for n in names]
        cpts = {n: sv.Cpt(n, (), np.array([[0.5, 0.5]])) for n in names}
        net = sv.BayesNet(variables, [], cpts)
        with pytest.raises(ValueError, match="guard"):
            sv.brute_force_posterior(net, {}, "v0")


class TestNoisyOr:
    def params(self, c=0.99):
        return NoisyOrParams({("a", "e"): c, ("b", "e"): c})

    def test_all_causes_inactive(self):
        p = sv.noisy_or_row(self.params(), "e", ("a", "b"),
                            {"a": False, "b": False})
        assert p == 0.0

    def test_single_active_cause_equals_strength(self):
        p = sv.noisy_or_row(self.params(), "e", ("a", "b"),
                            {"a": True, "b": False})
        assert p == pytest.approx(0.99, abs=1e-15)

    def test_two_active_causes(self):
        p = sv.noisy_or_row(self.params(), "e", ("a", "b"),
                            {"a": True, "b": True})
        assert p == pytest.approx(1 - 0.01 ** 2, abs=1e-15)

    def test_missing_parent(self):
        with pytest.raises(KeyError, match="missing parent"):
            sv.noisy_or_row(self.params(), "e", ("a", "b"), {"a": True})

    def test_monotone_in_active_causes(self):
        rng = np.random.default_rng(5)
        causes = tuple(f"c{i}" for i in range(6))
        params = NoisyOrParams({(c, "e"): float(rng.uniform(0.1, 0.99))
                                for c in causes})
        for _ in range(50):
            active = {c: bool(rng.random() < 0.5) for c in causes}
            base = sv.noisy_or_row(params, "e", causes, active)
            for c in causes:
                if not active[c]:
                    more = dict(active, **{c: True})
                    assert sv.noisy_or_row(params, "e", causes, more) >= base

    def test_certain_links_degenerate_to_or(self):
        causes = ("a", "b", "c")
        params = NoisyOrParams({(c, "e"): 1.0 for c in causes})
        for code in range(8):
            active = {c: bool((code >> i) & 1) for i, c in enumerate(causes)}
            want = 1.0 if any(active.values()) else 0.0
            assert sv.noisy_or_row(params, "e", causes, active) == want


class TestNoisyOrPosteriors:
    def test_matches_expanded_network(self, ref_iso_net):
        iso = sv.build_isolation_network(
            sv.EmbTable({"m": {"m", "t", "p"}, "t": {"t", "m", "g", "a"},
                         "p": {"p", "m"}, "g": {"g", "t"}, "a": {"a", "t"}}))
        rng = np.random.default_rng(17)
        for _ in range(20):
            findings = {s: ("faulty" if rng.random() < 0.5 else "correct")
                        for s in iso.sensors if rng.random() < 0.7}
            pf = sv.fault_belief(iso, findings)
            ev = {apparent_name(s): st for s, st in findings.items()}
            for s in iso.sensors:
                want = sv.posterior_marginal(ref_iso_net, ev, root_name(s))
                assert pf[s] == pytest.approx(want.probabilities[1], abs=1e-9)

    def test_enumeration_equals_elimination(self, monkeypatch):
        rng = np.random.default_rng(23)
        roots = [f"r{i}" for i in range(12)]
        parents_of = {}
        strengths = {}
        for j, r in enumerate(roots):
            pars = sorted({r} | {roots[int(k)]
                                 for k in rng.integers(0, len(roots), 3)})
            parents_of[r] = tuple(pars)
            for p in pars:
                strengths[(p, r)] = float(rng.uniform(0.3, 0.99))
        priors = {r: float(rng.uniform(0.2, 0.8)) for r in roots}
        iso = IsolationNet(tuple(roots), parents_of, NoisyOrParams(strengths),
                           priors)
        faulty_roots = [r for r in roots if rng.random() < 0.5]
        faulty = iso.mask(faulty_roots)
        correct = iso.mask(roots) & ~faulty
        # 12 roots stay below the default limit, so this enumerates
        enum = noisy_or_root_posteriors(iso, faulty, correct)
        # a limit of 2 sends every component of two or more roots through
        # variable elimination; the memo holds the enumerated solves, so
        # it is emptied first
        iso.component_memo.clear()
        monkeypatch.setattr(isolation, "ENUMERATION_LIMIT", 2)
        solves = []
        solve = isolation._component_marginals_ve
        monkeypatch.setattr(isolation, "_component_marginals_ve",
                            lambda *args: solves.append(args) or solve(*args))
        ve = noisy_or_root_posteriors(iso, faulty, correct)
        assert solves, "the patched limit did not reach the solver"
        expanded = iso.to_bayes_net()
        ev = {apparent_name(r): "faulty" if r in faulty_roots else "correct"
              for r in roots}
        want = [sv.posterior_marginal(expanded, ev, root_name(r)).probabilities[1]
                for r in roots]
        np.testing.assert_allclose(enum, want, rtol=0, atol=1e-9)
        np.testing.assert_allclose(ve, want, rtol=0, atol=1e-9)
