"""Property tests of detection's closed-form blanket kernel.

On random DAGs, ``predict_distribution`` (the kernel) must agree with
variable elimination (``posterior_marginal``) within 1e-12 and with full
enumeration (``brute_force_posterior``) within 1e-9, raise
InconsistentEvidenceError on zero-probability blanket evidence, and refuse
at build time a network whose states are not the interval codes. Many
rows of codes predicted at once must equal each row predicted alone, byte
for byte. The one-pass coding of a blanket must give every member the code
that ``Discretizer.index`` and the min/max/int clamp give it.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sensorval as sv
from sensorval.detection import Discretizer, DiscretizerError, blanket_kernel
from sensorval.inference import InconsistentEvidenceError


def labelled(bins):
    return tuple(str(k) for k in range(bins))


@st.composite
def blanket_nets(draw):
    """A random DAG whose variables have the states "0".."bins-1".

    v0 is isolated and v3 always has the two parents v1 and v2, so every
    net has an isolated node, a multi-parent child and a co-parent pair;
    further edges i -> j (0 < i < j) are drawn, at most three parents each.
    """
    n = draw(st.integers(4, 7))
    bins = draw(st.sampled_from((2, 3, 4)))
    names = [f"v{i}" for i in range(n)]
    edges = [("v1", "v3"), ("v2", "v3")]
    for j in range(2, n):
        for i in range(1, j):
            parents = [p for p, c in edges if c == names[j]]
            if ((names[i], names[j]) not in edges and len(parents) < 3
                    and draw(st.booleans())):
                edges.append((names[i], names[j]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cpts = {}
    for v in names:
        parents = tuple(p for p, c in edges if c == v)
        table = rng.uniform(0.05, 1.0, (bins ** len(parents), bins))
        cpts[v] = sv.Cpt(v, parents, table / table.sum(axis=1, keepdims=True))
    codes = draw(st.lists(st.integers(0, bins - 1), min_size=n, max_size=n))
    return names, edges, cpts, bins, dict(zip(names, codes))


def build(names, edges, cpts, bins, states=None):
    states = states or {}
    variables = [sv.Variable(v, states.get(v, labelled(bins))) for v in names]
    return sv.BayesNet(variables, edges, cpts)


def unit_discretizer(names, bins):
    return Discretizer(bins, {v: (0.0, 1.0) for v in names})


def reading_of(codes, bins):
    """Interval midpoints, so the discretizer gives back the codes."""
    return {v: (k + 0.5) / bins for v, k in codes.items()}


def clamped_floor(bins, lo, hi, x):
    """An interval code clamped by min, max and int calls."""
    t = bins * (x - lo) / (hi - lo)
    return int(min(max(t, 0.0), bins - 1.0))


def awkward_readings(bins, lo, hi):
    """Readings on and around the grid of (lo, hi): its bounds, every
    interval edge, the floats next to the bounds, signed zeros, the
    smallest subnormals and the largest magnitudes."""
    edges = [lo + k * (hi - lo) / bins for k in range(bins + 1)]
    return [lo, hi, *edges, math.nextafter(lo, -math.inf),
            math.nextafter(hi, math.inf), 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]


def blanket_evidence(net, codes, target):
    return {b: str(codes[b]) for b in sv.markov_blanket(net, target)}


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(blanket_nets())
    def test_equals_elimination_and_enumeration(self, case):
        names, edges, cpts, bins, codes = case
        net = build(names, edges, cpts, bins)
        d = unit_discretizer(names, bins)
        reading = reading_of(codes, bins)
        for target in names:
            got = sv.predict_distribution(net, d, reading, target).probabilities
            evidence = blanket_evidence(net, codes, target)
            ve = sv.posterior_marginal(net, evidence, target).probabilities
            oracle = sv.brute_force_posterior(net, evidence, target).probabilities
            np.testing.assert_allclose(got, ve, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-9)
        assert set(net.blanket_kernels) == set(names)

    @settings(max_examples=60, deadline=None)
    @given(blanket_nets(), st.data())
    def test_rows_equal_one_row_calls(self, case, data):
        names, edges, cpts, bins, _ = case
        net = build(names, edges, cpts, bins)
        state = st.lists(st.integers(0, bins - 1), min_size=len(names),
                         max_size=len(names))
        states = data.draw(st.lists(state, min_size=1, max_size=6))
        for target in names:        # v0 is isolated: an empty blanket
            kernel = blanket_kernel(net, target, bins)
            rows = [tuple(codes[names.index(b)] for b in kernel.blanket)
                    for codes in states]
            together = kernel.probabilities(net, rows)
            assert together.shape == (len(rows), bins)
            for row, p in zip(rows, together):
                alone = kernel.probabilities(net, [row])
                assert alone.shape == (1, bins)
                assert alone.tobytes() == p.tobytes()
                # the one-state form: a factor row per CPT, then a product
                factors = kernel.slabs[kernel.base
                                       + np.array(row, int) @ kernel.weights]
                q = factors.prod(axis=0)
                assert (q / q.sum()).tobytes() == p.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(blanket_nets())
    def test_zero_probability_blanket_evidence(self, case):
        names, edges, cpts, bins, codes = case
        d = unit_discretizer(names, bins)
        reading = reading_of(codes, bins)
        k1, k3 = codes["v1"], codes["v3"]
        # inside v1's family: v3 never takes its observed state
        table = cpts["v3"].table.copy()
        table[:, k3] = 0.0
        table /= table.sum(axis=1, keepdims=True)
        net = build(names, edges, dict(cpts, v3=sv.Cpt("v3", cpts["v3"].parents,
                                                       table)), bins)
        for target in ("v1", "v2"):
            with pytest.raises(InconsistentEvidenceError):
                sv.posterior_marginal(net, blanket_evidence(net, codes, target),
                                      target)
            with pytest.raises(InconsistentEvidenceError):
                sv.predict_distribution(net, d, reading, target)
            kernel = net.blanket_kernels[target]
            assert not kernel.general
            # among rows, the error names the first impossible row
            possible = dict(codes, v3=(k3 + 1) % bins)
            rows = [tuple(state[b] for b in kernel.blanket)
                    for state in (possible, codes, possible)]
            evidence = blanket_evidence(net, codes, target)
            message = (f"blanket evidence "
                       f"{dict(sorted(evidence.items()))!r} of {target!r}")
            with pytest.raises(InconsistentEvidenceError,
                               match=re.escape(message)):
                kernel.probabilities(net, rows)
            assert kernel.probabilities(net, rows[::2]).shape == (2, bins)
        # outside v3's and v2's families: the root v1 never takes its state
        prior = cpts["v1"].table.copy()
        prior[0, k1] = 0.0
        prior /= prior.sum()
        net = build(names, edges, dict(cpts, v1=sv.Cpt("v1", (), prior)), bins)
        for target in ("v3", "v2"):
            with pytest.raises(InconsistentEvidenceError):
                sv.posterior_marginal(net, blanket_evidence(net, codes, target),
                                      target)
            with pytest.raises(InconsistentEvidenceError):
                sv.predict_distribution(net, d, reading, target)
            assert net.blanket_kernels[target].general

    @settings(max_examples=60, deadline=None)
    @given(blanket_nets(), st.data())
    def test_mislabelled_states_rejected_at_build(self, case, data):
        names, edges, cpts, bins, codes = case
        bad = data.draw(st.sampled_from(names[1:]))
        states = data.draw(st.sampled_from((
            labelled(bins)[::-1],
            tuple(f"s{k}" for k in range(bins)),
            tuple(str(k + 1) for k in range(bins)))))
        net = build(names, edges, cpts, bins, {bad: states})
        d = unit_discretizer(names, bins)
        reading = reading_of(codes, bins)
        for target in names:
            if bad in sv.extended_markov_blanket(net, target):
                with pytest.raises(DiscretizerError, match=repr(bad)):
                    sv.predict_distribution(net, d, reading, target)
                assert target not in net.blanket_kernels
            else:
                sv.predict_distribution(net, d, reading, target)


class TestBlanketCodes:
    @settings(max_examples=100, deadline=None)
    @given(blanket_nets(), st.data())
    def test_one_pass_codes_equal_index(self, case, data):
        names, edges, cpts, bins, _ = case
        net = build(names, edges, cpts, bins)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        bounds, reading = {}, {}
        for v in names:
            lo, hi = data.draw(st.tuples(finite, finite).filter(
                lambda b: b[0] < b[1] and math.isfinite(bins * (b[1] - b[0]))))
            bounds[v] = (lo, hi)
            reading[v] = data.draw(st.one_of(
                st.sampled_from(awkward_readings(bins, lo, hi)), finite))
        d = Discretizer(bins, bounds)
        for target in names:
            kernel = blanket_kernel(net, target, bins)
            codes = d._codes(kernel.blanket, reading, target)
            assert all(type(code) is int for code in codes)
            assert codes == tuple(d.index(b, reading[b])
                                  for b in kernel.blanket)
            assert codes == tuple(clamped_floor(bins, *bounds[b], reading[b])
                                  for b in kernel.blanket)
            assert list(codes) == [
                int(d._index_array(b, np.array([reading[b]]))[0])
                for b in kernel.blanket]
