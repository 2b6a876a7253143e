import math
import re

import numpy as np
import pytest

import sensorval as sv
from sensorval.detection import Discretizer, DiscretizerError
from sensorval.inference import Distribution


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


class TestMoments:
    def test_point_mass(self):
        d = make_disc()
        p = np.zeros(10)
        p[3] = 1.0
        mu, sd = sv.posterior_moments(Distribution("s", p), d, "s")
        assert mu == pytest.approx(3.5)
        assert sd == 0.0

    def test_uniform_two_bins(self):
        d = make_disc(0.0, 10.0, bins=2)
        mu, sd = sv.posterior_moments(Distribution("s", np.array([0.5, 0.5])),
                                      d, "s")
        assert mu == pytest.approx(5.0)
        assert sd == pytest.approx(2.5)

    def test_matches_direct_recomputation(self, ref):
        dist = sv.predict_distribution(ref.net, ref.discretizer,
                                       ref.test.row(40), "g")
        mu, sd = sv.posterior_moments(dist, ref.discretizer, "g")
        mids = ref.discretizer.midpoints("g")
        p = dist.probabilities
        assert mu == pytest.approx(float(p @ mids), abs=1e-12)
        assert sd == pytest.approx(
            float(np.sqrt(p @ (mids - p @ mids) ** 2)), abs=1e-12)


class TestApplyCriterion:
    def dist(self, probs):
        return Distribution("s", np.asarray(probs, dtype=float))

    def test_zero_deviation_correct_everywhere(self):
        d = make_disc()
        dist = self.dist([0.05] * 5 + [0.55] + [0.05] * 4)
        mu, _ = sv.posterior_moments(dist, d, "s")
        for crit in (sv.DetectionCriterion("sigma", 2.0),
                     sv.DetectionCriterion("pvalue", 0.05),
                     sv.DetectionCriterion("tau", 0.1)):
            assert not sv.apply_criterion(mu, dist, d, "s", crit).faulty

    def test_sigma_flags_big_deviation(self):
        d = make_disc()
        dist = self.dist([0.1] * 10)
        mu, sd = sv.posterior_moments(dist, d, "s")
        x = mu + 3 * sd
        assert sv.apply_criterion(x, dist, d, "s",
                                  sv.DetectionCriterion("sigma", 2.0)).faulty
        assert not sv.apply_criterion(mu + sd, dist, d, "s",
                                      sv.DetectionCriterion("sigma", 2.0)).faulty

    def test_sigma_monotone_in_deviation(self):
        rng = np.random.default_rng(3)
        d = make_disc()
        crit = sv.DetectionCriterion("sigma", 2.0)
        for _ in range(30):
            p = rng.uniform(0.01, 1.0, 10)
            dist = self.dist(p / p.sum())
            mu, _ = sv.posterior_moments(dist, d, "s")
            xs = sorted(rng.uniform(-2, 12, 2), key=lambda x: abs(x - mu))
            near, far = xs
            if sv.apply_criterion(near, dist, d, "s", crit).faulty:
                assert sv.apply_criterion(far, dist, d, "s", crit).faulty

    def test_pvalue_tail_full_at_nearest_midpoint(self):
        d = make_disc()
        dist = self.dist([0.1] * 10)
        mu, _ = sv.posterior_moments(dist, d, "s")
        nearest = min(d.midpoints("s"), key=lambda m: abs(m - mu))
        status = sv.apply_criterion(nearest, dist, d, "s",
                                    sv.DetectionCriterion("pvalue", 0.999))
        assert not status.faulty

    def test_pvalue_flags_far_tail(self):
        d = make_disc()
        dist = self.dist([0.001] * 5 + [0.196] + [0.796] + [0.001] * 3)
        assert sv.apply_criterion(0.2, dist, d, "s",
                                  sv.DetectionCriterion("pvalue", 0.01)).faulty

    def test_tau_checks_observed_interval(self):
        d = make_disc()
        dist = self.dist([0.6, 0.3] + [0.0125] * 8)
        crit = sv.DetectionCriterion("tau", 0.1)
        assert not sv.apply_criterion(0.5, dist, d, "s", crit).faulty
        assert sv.apply_criterion(9.5, dist, d, "s", crit).faulty

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sv.DetectionCriterion("sigma", 0.0)
        with pytest.raises(ValueError):
            sv.DetectionCriterion("pvalue", 1.5)
        with pytest.raises(ValueError):
            sv.DetectionCriterion("nope", 0.5)


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
    def test_rejected_with_sensor_and_value(self, ref, criterion, value, where):
        # t is in m's Markov blanket
        bad = "m" if where == "target" else "t"
        reading = dict(ref.test.row(10), **{bad: value})
        with pytest.raises(ValueError,
                           match=re.escape(f"{value!r} of sensor {bad!r}")):
            sv.validate_sensor(ref.net, ref.discretizer, reading, "m", criterion)


class TestBlanketKernel:
    def test_discretizer_with_other_bins_rejected(self, ref):
        d = Discretizer(5, dict(ref.discretizer.bounds))
        with pytest.raises(DiscretizerError, match="'m'"):
            sv.predict_distribution(ref.net, d, ref.test.row(0), "m")

    def test_built_once_per_network_and_sensor(self, ref):
        reading = ref.test.row(3)
        sv.predict_distribution(ref.net, ref.discretizer, reading, "t")
        kernel = ref.net.blanket_kernels["t"]
        sv.predict_distribution(ref.net, ref.discretizer, ref.test.row(4), "t")
        assert ref.net.blanket_kernels["t"] is kernel
