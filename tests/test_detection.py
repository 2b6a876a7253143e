import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sensorval as sv
from sensorval import detection, model
from sensorval.detection import Discretizer, DiscretizerError


def make_disc(lo=0.0, hi=10.0, bins=10, sensor="s"):
    return Discretizer(bins, {sensor: (lo, hi)})


class TestDiscretizer:
    def test_fit_bounds_and_midpoints(self):
        data = sv.Dataset(("s",), [[0.0], [10.0]])
        d = sv.fit_discretizer(data, ["s"], bins=10)
        assert d.bounds["s"] == (0.0, 10.0)
        np.testing.assert_allclose(d.midpoints("s"), np.arange(10) + 0.5)

    def test_fit_constant_column(self):
        with pytest.raises(DiscretizerError, match="constant"):
            sv.fit_discretizer(sv.Dataset(("s",), [[5.0], [5.0], [5.0]]), ["s"])

    def test_fit_uses_column_min_max(self, ref):
        for s in ref.train.sensors:
            col = ref.train.values[:, ref.train.sensors.index(s)]
            assert ref.discretizer.bounds[s] == (col.min(), col.max())

    def test_index_basic(self):
        d = make_disc()
        assert d.index("s", 0.4) == 0
        assert d.index("s", 10.0) == 9
        assert d.index("s", -3.0) == 0
        assert d.index("s", 11.7) == 9
        assert d.index("s", 5.0) == 5

    @pytest.mark.parametrize("x, code", [(1e308, 9), (-1e308, 0),
                                         (math.inf, 9), (-math.inf, 0)])
    def test_huge_readings_clamp_to_the_edge_intervals(self, x, code):
        d = make_disc()
        assert d.index("s", x) == code
        codes = d._index_array("s", np.array([x, 5.0, x]))
        assert codes.tolist() == [code, 5, code]

    def test_index_array_matches_index(self):
        d = make_disc(lo=-1.3, hi=2.9, bins=7)
        xs = np.linspace(-3.0, 4.0, 701)
        assert d._index_array("s", xs).tolist() == [d.index("s", x) for x in xs]

    def test_needs_two_bins(self):
        with pytest.raises(DiscretizerError):
            Discretizer(1, {"s": (0.0, 1.0)})

    @pytest.mark.parametrize("bins", [2.7, 10.0, "10", None])
    def test_bins_must_be_an_integer(self, bins):
        with pytest.raises(DiscretizerError, match="'bins' must be an integer"):
            Discretizer(bins, {"s": (0.0, 1.0)})

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, math.inf),
                                        (-math.inf, 1.0), (math.nan, 1.0)])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(DiscretizerError, match="sensor 's' has a non-finite"):
            Discretizer(10, {"s": bounds})

    @pytest.mark.parametrize("bounds", [(0.0, 1e308), (-1e308, 1e308)])
    def test_range_must_not_overflow(self, bounds):
        with pytest.raises(DiscretizerError, match="sensor 's' has a range .* "
                                                   "too wide for 10 intervals"):
            Discretizer(10, {"s": bounds})

    def test_json_round_trip(self, ref):
        doc = sv.discretizer_to_json(ref.discretizer)
        again = sv.discretizer_from_json(doc)
        assert again.bins == ref.discretizer.bins
        assert again.bounds == ref.discretizer.bounds


class TestPredictDistribution:
    def test_empty_blanket_gives_prior(self):
        variables = [sv.Variable("s", tuple(str(k) for k in range(4))),
                     sv.Variable("o", tuple(str(k) for k in range(4)))]
        prior = np.array([[0.1, 0.2, 0.3, 0.4]])
        cpts = {"s": sv.Cpt("s", (), prior),
                "o": sv.Cpt("o", (), prior)}
        net = sv.BayesNet(variables, [], cpts)
        d = Discretizer(4, {"s": (0.0, 1.0), "o": (0.0, 1.0)})
        dist = sv.predict_distribution(net, d, {"o": 0.9}, "s")
        np.testing.assert_allclose(dist.probabilities, prior[0])

    def test_reference_m_distribution(self, ref):
        reading = ref.test.row(10)
        dist = sv.predict_distribution(ref.net, ref.discretizer, reading, "m")
        assert len(dist.probabilities) == 10
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_blanket_equals_full_evidence(self, ref):
        reading = ref.test.row(25)
        d = ref.discretizer
        blanket_only = sv.predict_distribution(ref.net, d, reading, "m")
        full = {s: str(d.index(s, reading[s]))
                for s in ref.net.names() if s != "m"}
        want = sv.posterior_marginal(ref.net, full, "m")
        np.testing.assert_allclose(blanket_only.probabilities,
                                   want.probabilities, atol=1e-9)

    def test_missing_blanket_reading(self, ref):
        reading = ref.test.row(0)
        del reading["t"]
        with pytest.raises(KeyError, match="'t'"):
            sv.predict_distribution(ref.net, ref.discretizer, reading, "m")

    def test_ignores_own_value(self, ref):
        reading = ref.test.row(7)
        tampered = dict(reading, m=999.0)
        a = sv.predict_distribution(ref.net, ref.discretizer, reading, "m")
        b = sv.predict_distribution(ref.net, ref.discretizer, tampered, "m")
        np.testing.assert_allclose(a.probabilities, b.probabilities)


def judge(probs, d, x, criterion, sensor="s"):
    """The verdict on reading x of a sensor predicted as ``probs``."""
    return criterion.rule(np.asarray(probs, dtype=float), d, sensor)(x)


SIGMA1 = sv.DetectionCriterion("sigma", 1.0)


class TestMoments:
    """The mean and standard deviation the sigma criterion reads, seen
    through its verdict: faulty iff abs(x - mean) > k * sigma."""

    def test_point_mass(self):
        d = make_disc()
        p = np.zeros(10)
        p[3] = 1.0
        # mean 3.5, sigma 0: only the mean itself is within k * sigma
        assert not judge(p, d, 3.5, SIGMA1)
        assert judge(p, d, 3.5 + 1e-9, SIGMA1)
        assert judge(p, d, 3.5 - 1e-9, SIGMA1)

    def test_uniform_two_bins(self):
        d = make_disc(0.0, 10.0, bins=2)
        p = [0.5, 0.5]
        # mean 5.0, sigma 2.5
        for x in (2.5, 5.0, 7.5):
            assert not judge(p, d, x, SIGMA1)
        for x in (2.5 - 1e-9, 7.5 + 1e-9):
            assert judge(p, d, x, SIGMA1)

    def test_matches_direct_recomputation(self, ref):
        dist = sv.predict_distribution(ref.net, ref.discretizer,
                                       ref.test.row(40), "g")
        mids = ref.discretizer.midpoints("g")
        p = dist.probabilities
        mu = float(p @ mids)
        sd = float(np.sqrt(p @ (mids - mu) ** 2))
        assert sd > 0
        for side in (-1, 1):
            assert not judge(p, ref.discretizer, mu + side * (1 - 1e-9) * sd,
                             SIGMA1, "g")
            assert judge(p, ref.discretizer, mu + side * (1 + 1e-9) * sd,
                         SIGMA1, "g")


class TestApplyCriterion:
    """``DetectionCriterion.rule``, the one verdict of every criterion."""

    @staticmethod
    def mean(probs, d):
        # summed as the verdict sums it: ``@`` may round the other way
        return float((np.asarray(probs) * d.midpoints("s")).sum())

    def test_zero_deviation_correct_everywhere(self):
        d = make_disc()
        p = [0.05] * 5 + [0.55] + [0.05] * 4
        mu = self.mean(p, d)
        for crit in (sv.DetectionCriterion("sigma", 2.0),
                     sv.DetectionCriterion("pvalue", 0.05),
                     sv.DetectionCriterion("tau", 0.1)):
            assert not judge(p, d, mu, crit)

    def test_sigma_flags_big_deviation(self):
        d = make_disc()
        p = [0.1] * 10
        mu = self.mean(p, d)
        deviations = d.midpoints("s") - mu
        sd = float(np.sqrt((np.asarray(p) * deviations ** 2).sum()))
        crit = sv.DetectionCriterion("sigma", 2.0)
        assert judge(p, d, mu + 3 * sd, crit)
        assert not judge(p, d, mu + sd, crit)

    def test_sigma_monotone_in_deviation(self):
        rng = np.random.default_rng(3)
        d = make_disc()
        crit = sv.DetectionCriterion("sigma", 2.0)
        for _ in range(30):
            p = rng.uniform(0.01, 1.0, 10)
            p /= p.sum()
            mu = self.mean(p, d)
            xs = sorted(rng.uniform(-2, 12, 2), key=lambda x: abs(x - mu))
            near, far = xs
            if judge(p, d, near, crit):
                assert judge(p, d, far, crit)

    def test_pvalue_tail_full_at_nearest_midpoint(self):
        d = make_disc()
        p = [0.1] * 10
        mu = self.mean(p, d)
        nearest = min(d.midpoints("s"), key=lambda m: abs(m - mu))
        assert not judge(p, d, nearest, sv.DetectionCriterion("pvalue", 0.999))

    def test_pvalue_flags_far_tail(self):
        d = make_disc()
        p = [0.001] * 5 + [0.196] + [0.796] + [0.001] * 3
        assert judge(p, d, 0.2, sv.DetectionCriterion("pvalue", 0.01))

    def test_tau_checks_observed_interval(self):
        d = make_disc()
        p = [0.6, 0.3] + [0.0125] * 8
        crit = sv.DetectionCriterion("tau", 0.1)
        assert not judge(p, d, 0.5, crit)
        assert judge(p, d, 9.5, crit)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sv.DetectionCriterion("sigma", 0.0)
        with pytest.raises(ValueError):
            sv.DetectionCriterion("pvalue", 1.5)
        with pytest.raises(ValueError):
            sv.DetectionCriterion("nope", 0.5)
        # k * sigma would be inf, or NaN where sigma is 0: never faulty
        with pytest.raises(ValueError, match="sigma criterion parameter inf"):
            sv.DetectionCriterion("sigma", math.inf)

    @pytest.mark.parametrize("kind, parameter", [
        ("sigma", True), ("pvalue", False), ("tau", "0.1"), ("sigma", "2"),
        ("pvalue", None), ("tau", [0.1])])
    def test_parameter_must_be_a_number(self, kind, parameter):
        # a bool is not read as 1 or 0, nor a string as its number
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} criterion parameter must be a number, "
                f"not {parameter!r}")):
            sv.DetectionCriterion(kind, parameter)


class TestValidateSensor:
    def test_clean_row_correct(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        status = sv.validate_sensor(ref.net, ref.discretizer, ref.test.row(10),
                                    "m", crit)
        assert status.status == "correct"
        assert status.sensor == "m"

    def test_extreme_own_value_faulty(self, ref):
        crit = sv.DetectionCriterion("sigma", 3.0)
        reading = sv.inject_fault(ref.test.row(10), sv.FaultSpec("m", "severe"),
                                  ref.discretizer)
        assert sv.validate_sensor(ref.net, ref.discretizer, reading, "m",
                                  crit).faulty

    def test_blanket_member_fault_causes_apparent_fault(self, ref):
        # g is predicted from t alone, so a corrupted t drags g's
        # prediction away from g's clean reading
        crit = sv.DetectionCriterion("sigma", 3.0)
        reading = sv.inject_fault(ref.test.row(10), sv.FaultSpec("t", "severe"),
                                  ref.discretizer)
        assert sv.validate_sensor(ref.net, ref.discretizer, reading, "g",
                                  crit).faulty

    def test_deterministic(self, ref):
        crit = sv.DetectionCriterion("pvalue", 0.01)
        reading = ref.test.row(33)
        a = sv.validate_sensor(ref.net, ref.discretizer, reading, "t", crit)
        b = sv.validate_sensor(ref.net, ref.discretizer, reading, "t", crit)
        assert a == b


class TestNonFiniteReadings:
    CRITERIA = (sv.DetectionCriterion("sigma", 3.0),
                sv.DetectionCriterion("pvalue", 0.01),
                sv.DetectionCriterion("tau", 0.1))

    @pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.kind)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["target", "blanket"])
    def test_rejected_with_sensor_and_value(self, ref, monkeypatch, criterion,
                                            value, where):
        # t is in m's Markov blanket
        bad = "m" if where == "target" else "t"
        clean = ref.test.row(10)
        sv.validate_sensor(ref.net, ref.discretizer, clean, "m", criterion)
        kernel = ref.net.blanket_kernels["m"]
        spy = LookupSpy(kernel.memo)
        monkeypatch.setattr(kernel, "memo", spy)
        reading = dict(clean, **{bad: value})
        with pytest.raises(ValueError,
                           match=re.escape(f"{value!r} of sensor {bad!r}")):
            sv.validate_sensor(ref.net, ref.discretizer, reading, "m", criterion)
        # refused before the memo, which holds the clean blanket, is read
        assert spy.lookups == 0


class LookupSpy(dict):
    """A kernel memo that counts its lookups."""

    def __init__(self, entries):
        super().__init__(entries)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def chain_net(seed: int) -> sv.BayesNet:
    """a -> b -> c over three interval codes, with a zero in c's CPT: a's
    prediction takes the general engine (c is outside a's family), b's
    the closed-form kernel."""
    rng = np.random.default_rng(seed)
    labels = ("0", "1", "2")

    def table(rows):
        t = rng.uniform(0.05, 1.0, (rows, 3))
        return t / t.sum(axis=1, keepdims=True)

    c = table(3)
    c[0, 0] = 0.0
    c[0] /= c[0].sum()
    cpts = {"a": sv.Cpt("a", (), table(1)), "b": sv.Cpt("b", ("a",), table(3)),
            "c": sv.Cpt("c", ("b",), c)}
    return sv.BayesNet([sv.Variable(v, labels) for v in "abc"],
                       [("a", "b"), ("b", "c")], cpts)


class TestPredictionMemo:
    """Each kernel memoises one verdict rule per blanket state, criterion
    and set of the sensor's bounds; predictions are computed afresh."""

    CRITERIA = (sv.DetectionCriterion("sigma", 1.0),
                sv.DetectionCriterion("pvalue", 0.2),
                sv.DetectionCriterion("tau", 0.3))

    @staticmethod
    def predict(net, d, reading, sensor):
        return detection.blanket_kernel(net, sensor, d.bins).predict(
            net, d, reading)

    def assert_judged_alike(self, warm, cold, d, reading, sensor, xs):
        for x in xs:
            reading = dict(reading, **{sensor: float(x)})
            for criterion in self.CRITERIA:
                assert (sv.validate_sensor(warm, d, reading, sensor, criterion)
                        == sv.validate_sensor(cold(), d, reading, sensor,
                                              criterion))

    @pytest.mark.parametrize("target, general", [("a", True), ("b", False)])
    def test_warm_verdicts_equal_cold(self, target, general):
        warm = chain_net(5)
        d = Discretizer(3, {v: (0.0, 3.0) for v in "abc"})
        for codes in itertools.product(range(3), repeat=3):
            reading = {v: k + 0.5 for v, k in zip("abc", codes)}
            cold_net = chain_net(5)
            assert np.array_equal(self.predict(warm, d, reading, target),
                                  self.predict(cold_net, d, reading, target))
            assert cold_net.blanket_kernels[target].general is general
            self.assert_judged_alike(warm, lambda: chain_net(5), d, reading,
                                     target, np.linspace(-0.5, 3.5, 17))
        # one rule per criterion for each blanket state met
        memo = warm.blanket_kernels[target].memo
        states = {key[0] for key in memo}
        assert len(states) == 3 ** len(warm.blanket_kernels[target].blanket)
        assert len(memo) == len(states) * len(self.CRITERIA)

    def test_one_lookup_per_verdict(self, monkeypatch):
        net = chain_net(5)
        d = Discretizer(3, {v: (0.0, 3.0) for v in "abc"})
        reading = {"a": 0.5, "b": 1.5, "c": 2.5}
        for criterion in self.CRITERIA:
            sv.validate_sensor(net, d, reading, "b", criterion)
        kernel = net.blanket_kernels["b"]
        spy = LookupSpy(kernel.memo)
        monkeypatch.setattr(kernel, "memo", spy)
        for n, criterion in enumerate(self.CRITERIA, 1):
            sv.validate_sensor(net, d, reading, "b", criterion)
            assert spy.lookups == n

    def test_discretizers_with_other_bounds_do_not_share(self):
        # equal bins and equal blanket codes, but b's midpoints differ: the
        # moments the criteria read must come from the discretizer given
        narrow = Discretizer(3, {v: (0.0, 3.0) for v in "abc"})
        wide = Discretizer(3, {"a": (0.0, 3.0), "b": (0.0, 6.0),
                               "c": (0.0, 3.0)})
        reading = {"a": 1.5, "b": 1.5, "c": 0.5}

        def moments(net, d):
            p = sv.predict_distribution(net, d, reading, "b").probabilities
            mids = d.midpoints("b")
            mu = float(p @ mids)
            return mu, float(np.sqrt(p @ (mids - mu) ** 2))

        net = chain_net(6)
        warm = {name: moments(net, d)
                for name, d in (("narrow", narrow), ("wide", wide))}
        assert warm["wide"] == moments(chain_net(6), wide)
        assert warm["wide"] != warm["narrow"]
        for d in (narrow, wide):
            self.assert_judged_alike(net, lambda: chain_net(6), d, reading,
                                     "b", np.linspace(0.0, 6.0, 25))
        # the one blanket state has a rule per criterion and per bounds of b
        memo = net.blanket_kernels["b"].memo
        assert len({key[0] for key in memo}) == 1
        assert len(memo) == len(self.CRITERIA) * 2

    def test_predictions_are_new_arrays(self, ref):
        reading = ref.test.row(2)
        first = sv.predict_distribution(ref.net, ref.discretizer, reading,
                                        "t").probabilities
        want = first.copy()
        status = sv.validate_sensor(ref.net, ref.discretizer, reading, "t",
                                    self.CRITERIA[0])
        first[:] = 0.0
        again = sv.predict_distribution(ref.net, ref.discretizer, reading,
                                        "t").probabilities
        assert again is not first
        assert np.array_equal(again, want)
        assert sv.validate_sensor(ref.net, ref.discretizer, reading, "t",
                                  self.CRITERIA[0]) == status

    def test_cap_clears_the_memo(self, monkeypatch):
        monkeypatch.setattr(model, "MEMO_CAP", 4)
        net = chain_net(7)
        d = Discretizer(3, {v: (0.0, 3.0) for v in "abc"})
        sizes = []
        for k in range(3):
            reading = {"a": k + 0.5, "b": 0.5, "c": 0.5}
            for criterion in self.CRITERIA:
                assert (sv.validate_sensor(net, d, reading, "b", criterion)
                        == sv.validate_sensor(chain_net(7), d, reading, "b",
                                              criterion))
                sizes.append(len(net.blanket_kernels["b"].memo))
        assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1]


def parent_faulty(criterion, x, p, d, sensor):
    """The verdict as one expression per criterion, recomputed on every
    call: the oracle of the memoised rules."""
    if criterion.kind == "tau":
        return float(p[d.index(sensor, x)]) < criterion.parameter
    midpoints = d.midpoints(sensor)
    mean = float((p * midpoints).sum())
    deviations = np.abs(midpoints - mean)
    if criterion.kind == "sigma":
        sigma = float(np.sqrt(max(float((p * deviations ** 2).sum()), 0.0)))
        return abs(x - mean) > criterion.parameter * sigma
    return float(p[deviations >= abs(x - mean)].sum()) < criterion.parameter


@st.composite
def predictions(draw):
    """A discretizer of 2 to 12 intervals with random bounds, and a
    normalized prediction over them with some exact zeros. Small integer
    weights make equal deviations and masses common."""
    bins = draw(st.integers(2, 12))
    lo = draw(st.floats(-1e6, 1e6))
    width = draw(st.floats(1e-3, 1e6))
    weight = st.one_of(st.just(0.0), st.integers(1, 3).map(float),
                       st.floats(1e-6, 1.0))
    w = np.array(draw(st.lists(weight, min_size=bins, max_size=bins)))
    assume(w.sum() > 0)
    return Discretizer(bins, {"s": (lo, lo + width)}), w / w.sum()


class TestVerdictRules:
    @settings(max_examples=50, deadline=None)
    @given(predictions(), st.floats(0.05, 5.0), st.floats(1e-3, 0.999),
           st.floats(1e-3, 0.999))
    def test_memoised_verdicts_equal_the_expression(self, case, k, level,
                                                    tau):
        d, p = case
        mids = d.midpoints("s")
        mean = float((p * mids).sum())
        deviations = np.abs(mids - mean)
        sigma = float(np.sqrt(max(float((p * deviations ** 2).sum()), 0.0)))
        xs = [1e308, -1e308, *mids.tolist()]
        # every pvalue radius and the sigma threshold, each side of the
        # mean, and their neighbours: a reading exactly on a radius or the
        # threshold tells > from >= and bisect_left from bisect_right
        for r in [*np.unique(deviations).tolist(), k * sigma]:
            for x in (mean + r, mean - r):
                xs += [x, math.nextafter(x, -math.inf),
                       math.nextafter(x, math.inf)]
        for criterion in (sv.DetectionCriterion("sigma", k),
                          sv.DetectionCriterion("pvalue", level),
                          sv.DetectionCriterion("tau", tau)):
            rule = criterion.rule(p, d, "s")
            want = [parent_faulty(criterion, x, p, d, "s") for x in xs]
            # each reading by a fresh rule, then by one rule in either
            # order and again: a rule's verdicts do not depend on its past
            assert [criterion.rule(p, d, "s")(x) for x in xs] == want
            assert [rule(x) for x in xs] == want
            assert [rule(x) for x in reversed(xs)] == want[::-1]
            assert [rule(x) for x in xs] == want
            # all at once, as the link calibration judges its rows
            rows = np.tile(p, (len(xs), 1))
            assert criterion.verdicts(rows, d, "s",
                                      np.array(xs)).tolist() == want


class TestBlanketKernel:
    def test_discretizer_with_other_bins_rejected(self, ref):
        d = Discretizer(5, dict(ref.discretizer.bounds))
        with pytest.raises(DiscretizerError, match="'m'"):
            sv.predict_distribution(ref.net, d, ref.test.row(0), "m")

    def test_huge_bins_refused_before_any_label_is_built(self, ref):
        # the state count differs, so no million interval labels are made
        tracemalloc.start()
        try:
            with pytest.raises(DiscretizerError, match="'m'"):
                detection.BlanketKernel(ref.net, "m", 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    def test_built_once_per_network_and_sensor(self, ref):
        reading = ref.test.row(3)
        sv.predict_distribution(ref.net, ref.discretizer, reading, "t")
        kernel = ref.net.blanket_kernels["t"]
        sv.predict_distribution(ref.net, ref.discretizer, ref.test.row(4), "t")
        assert ref.net.blanket_kernels["t"] is kernel
