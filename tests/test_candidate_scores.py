"""Property tests of the batched candidate scorer.

``isolation.candidate_scores`` scores every candidate of a selection state
in one pass. On random EMB tables (2-10 sensors, optional per-link
strengths in [0.02, 0.99]) and finding sets from empty to all-faulty, it
must agree within 1e-12 with the per-candidate computation kept below
(``fault_belief`` per branch plus ``average_entropy``), its branch
posteriors must agree within 1e-9 with exhaustive enumeration of the
``to_bayes_net`` expansion, and ``select_next_sensor`` must pick the
reference argmin.
"""

import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sensorval as sv
from sensorval import isolation
from sensorval.anytime import TIE_TOLERANCE
from sensorval.isolation import CORRECT, FAULTY, apparent_name, root_name
from conftest import REFERENCE_EMB


def reference_score(iso, findings, candidate):
    """Per-candidate conditional average entropy: two full solves."""
    total = 0.0
    for status in (CORRECT, FAULTY):
        branch = dict(findings)
        branch[candidate] = status
        total += sv.average_entropy(sv.fault_belief(iso, branch))
    return total


def reference_choice(iso, findings, candidates):
    scores = {s: reference_score(iso, findings, s) for s in candidates}
    best = min(scores.values())
    return next(s for s in sorted(candidates)
                if scores[s] - best <= TIE_TOLERANCE)


def enumerated_posteriors(iso, net, findings):
    """P(R_i = fault | findings) for every root by summing the joint of
    ``net = iso.to_bayes_net()`` over all root assignments; unobserved
    apparent nodes sum out to one."""
    n = len(iso.sensors)
    joint = np.ones(2 ** n)
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    for i, s in enumerate(iso.sensors):
        joint *= net.cpts[root_name(s)].table[0, bits[:, i]]
    index = {s: i for i, s in enumerate(iso.sensors)}
    for s, status in findings.items():
        cpt = net.cpts[apparent_name(s)]
        row = np.zeros(2 ** n, dtype=int)
        for parent in cpt.parents:     # first parent is the high bit
            row = 2 * row + bits[:, index[parent[2:]]]
        state = net.variable(apparent_name(s)).states.index(status)
        joint *= cpt.table[row, state]
    return (joint @ bits) / joint.sum()


@st.composite
def selection_states(draw):
    """An isolation net on a random EMB table, findings, and candidates."""
    n = draw(st.integers(2, 10))
    names = [f"s{i}" for i in range(n)]
    emb = {s: {s} for s in names}
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            emb[names[i]].add(names[j])
            emb[names[j]].add(names[i])
    overrides = None
    if draw(st.booleans()):
        overrides = {(i, j): draw(st.floats(0.02, 0.99))
                     for i in names for j in sorted(emb[i])}
    iso = sv.build_isolation_network(sv.EmbTable(emb),
                                     link_overrides=overrides)
    kind = draw(st.sampled_from(("empty", "mixed", "faulty")))
    observed = [] if kind == "empty" else draw(
        st.lists(st.sampled_from(names), unique=True, max_size=n - 1))
    findings = {s: FAULTY if kind == "faulty" else
                draw(st.sampled_from((CORRECT, FAULTY))) for s in observed}
    return iso, findings, [s for s in names if s not in findings]


@settings(max_examples=100, deadline=None)
@given(selection_states())
def test_batched_scores_match_per_candidate_scores(state):
    iso, findings, candidates = state
    net = iso.compiled
    scores = isolation.candidate_scores(net, *net.finding_masks(findings),
                                        net.indices(candidates))
    for s, score in zip(candidates, scores):
        want = reference_score(iso, findings, s)
        assert score == pytest.approx(want, abs=1e-12)
        assert sv.conditional_average_entropy(iso, findings, s) == \
            pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(selection_states())
def test_branch_posteriors_match_enumeration(state):
    iso, findings, candidates = state
    net = iso.compiled
    masks = net.finding_masks(findings)
    batched = isolation.branch_posteriors(net, *masks, net.indices(candidates))
    # enumeration limit 2 sends every component of two or more roots
    # through variable elimination; a function-scoped monkeypatch would
    # fail hypothesis's health check
    with patch.object(isolation, "ENUMERATION_LIMIT", 2):
        eliminated = isolation.branch_posteriors(net, *masks,
                                                 net.indices(candidates))
    expanded = iso.to_bayes_net()
    for i, s in enumerate(candidates):
        for b, status in enumerate((CORRECT, FAULTY)):
            want = enumerated_posteriors(iso, expanded, {**findings, s: status})
            np.testing.assert_allclose(batched[b, i], want, rtol=0, atol=1e-9)
            np.testing.assert_allclose(eliminated[b, i], want, rtol=0,
                                       atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(selection_states())
def test_selection_is_reference_argmin(state):
    iso, findings, candidates = state
    assert sv.select_next_sensor(iso, findings, candidates) == \
        reference_choice(iso, findings, candidates)


def test_enumeration_matches_brute_force_posterior(ref_iso):
    """The in-test enumeration is itself held to ``brute_force_posterior``."""
    net = ref_iso.to_bayes_net()
    for findings in ({}, {"t": FAULTY, "m": CORRECT},
                     {s: FAULTY for s in ref_iso.sensors}):
        got = enumerated_posteriors(ref_iso, net, findings)
        ev = {apparent_name(s): status for s, status in findings.items()}
        for i, s in enumerate(ref_iso.sensors):
            want = sv.brute_force_posterior(net, ev, root_name(s))
            assert got[i] == pytest.approx(want.probabilities[1], abs=1e-12)


def test_elimination_fallback_scores(ref_iso):
    net = ref_iso.compiled
    for findings in ({"t": FAULTY}, {"t": FAULTY, "g": FAULTY, "p": CORRECT}):
        candidates = [s for s in ref_iso.sensors if s not in findings]
        with patch.object(isolation, "ENUMERATION_LIMIT", 2):
            scores = isolation.candidate_scores(
                net, *net.finding_masks(findings), net.indices(candidates))
        for s, score in zip(candidates, scores):
            assert score == pytest.approx(
                reference_score(ref_iso, findings, s), abs=1e-9)


def test_candidate_with_a_finding_is_refused():
    iso = sv.build_isolation_network(sv.EmbTable(REFERENCE_EMB))
    net = iso.compiled
    findings = {"t": FAULTY, "m": CORRECT}
    with pytest.raises(ValueError, match="'m' already has a finding"):
        isolation.candidate_scores(net, *net.finding_masks(findings),
                                   net.indices(["a", "m"]))
    with pytest.raises(ValueError, match="'t' already has a finding"):
        sv.select_next_sensor(iso, findings, {"g", "t"})
    with pytest.raises(ValueError, match="'t' already has a finding"):
        sv.conditional_average_entropy(iso, findings, "t")
    assert net.select_memo == {}
