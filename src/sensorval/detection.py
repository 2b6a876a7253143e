"""Single-sensor validation against its Markov blanket.

Readings are discretized into uniform intervals, the sensor's posterior
is predicted from its blanket readings alone, and the actual reading is
classified apparently correct or faulty under a configurable criterion.

The prediction always conditions on the whole blanket, so it is a product
of CPT slices (``BlanketKernel``), built once per network and sensor on
first use and cached on the network.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .inference import (_EVIDENCE_EPS, Distribution,
                        InconsistentEvidenceError, posterior_marginal)
from .model import BayesNet, json_object, malformed_part, markov_blanket

if TYPE_CHECKING:
    from .harness import Dataset

DEFAULT_BINS = 10

SIGMA, PVALUE, TAU = "sigma", "pvalue", "tau"


class DiscretizerError(ValueError):
    pass


@dataclass(frozen=True)
class Discretizer:
    """Per-sensor uniform interval grids over the training range."""

    bins: int
    bounds: dict                       # sensor -> (lower, upper)

    def __post_init__(self):
        if not isinstance(self.bins, numbers.Integral):
            raise DiscretizerError(f"'bins' must be an integer, not {self.bins!r}")
        if self.bins < 2:
            raise DiscretizerError("need at least 2 intervals")
        for s, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DiscretizerError(f"sensor {s!r} has a non-finite bound in "
                                       f"{[lo, hi]!r}")
            if not lo < hi:
                raise DiscretizerError(f"zero-width range for sensor {s!r}")

    def index(self, sensor: str, x: float) -> int:
        """Interval index of x; out-of-range values, however large, clamp to
        the edge intervals."""
        lo, hi = self.bounds[sensor]
        t = self.bins * (x - lo) / (hi - lo)
        return int(min(max(t, 0.0), self.bins - 1.0))

    def _index_array(self, sensor: str, xs: np.ndarray) -> np.ndarray:
        """``index`` of every reading in ``xs``, for learning from columns."""
        lo, hi = self.bounds[sensor]
        with np.errstate(over="ignore"):     # huge readings clamp below
            t = self.bins * (xs - lo) / (hi - lo)
        return np.clip(t, 0.0, self.bins - 1.0).astype(np.intp)

    def midpoints(self, sensor: str) -> np.ndarray:
        """Interval midpoints of the sensor, computed once (read-only)."""
        return self._midpoints[sensor]

    @cached_property
    def _midpoints(self) -> dict:
        mids = {}
        for s, (lo, hi) in self.bounds.items():
            m = lo + (np.arange(self.bins) + 0.5) * (hi - lo) / self.bins
            m.setflags(write=False)
            mids[s] = m
        return mids

    def states(self) -> tuple[str, ...]:
        return tuple(str(k) for k in range(self.bins))


def discretizer_to_json(d: Discretizer) -> str:
    return json.dumps({
        "bins": d.bins,
        "bounds": {s: [lo, hi] for s, (lo, hi) in sorted(d.bounds.items())},
    }, indent=1)


def discretizer_from_json(document: str) -> Discretizer:
    doc = json_object(document, DiscretizerError)
    with malformed_part(DiscretizerError, "bins", "an integer"):
        bins = doc["bins"]
    with malformed_part(DiscretizerError, "bounds", "{sensor: [lower, upper]}"):
        bounds = {s: (float(lo), float(hi)) for s, (lo, hi) in doc["bounds"].items()}
    return Discretizer(bins, bounds)


def fit_discretizer(data: Dataset, sensors: Sequence[str],
                    bins: int = DEFAULT_BINS) -> Discretizer:
    """Per-sensor bounds from the observed min/max of each training column,
    read in place from ``data.values``."""
    if len(data) == 0:
        raise DiscretizerError("no training rows")
    bounds = {}
    for s in sensors:
        if s not in data.sensors:
            raise KeyError(f"training data is missing column {s!r}")
        column = data.values[:, data.sensors.index(s)]
        lo, hi = float(column.min()), float(column.max())
        if lo == hi:
            raise DiscretizerError(f"sensor {s!r} is constant in training data")
        bounds[s] = (lo, hi)
    return Discretizer(bins, bounds)


@dataclass(frozen=True)
class DetectionCriterion:
    """Apparent-fault decision rule: sigma (k.sigma), pvalue (p), or tau."""

    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind not in (SIGMA, PVALUE, TAU):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.kind == SIGMA and not self.parameter > 0:
            raise ValueError("sigma criterion needs k > 0")
        if self.kind in (PVALUE, TAU) and not 0 < self.parameter < 1:
            raise ValueError(f"{self.kind} parameter must lie in (0, 1)")


@dataclass(frozen=True)
class ApparentStatus:
    sensor: str
    faulty: bool

    @property
    def status(self) -> str:
        return "faulty" if self.faulty else "correct"


class BlanketKernel:
    """Closed-form P(sensor | Markov blanket) over interval codes.

    With the whole blanket observed, P(X | MB) is proportional to
    P(X | pa X) times P(c | pa c) for every child c of X: the row of X's
    CPT that its parents' codes pick, times one column slice of each
    child's CPT. Each of these CPTs is stored in ``slabs`` with X's axis
    last, so every factor, as a function of X, is one row of ``slabs``;
    that row is ``base + weights @ codes`` (mixed-radix strides over the
    blanket codes). One prediction is a matrix-vector product, one row
    gather and a product over the factors.

    Every variable of the extended blanket must have exactly the states
    "0".."bins-1" in that order, because codes are used as positions.
    """

    def __init__(self, net: BayesNet, sensor: str, bins: int):
        self.sensor = sensor
        self.bins = bins
        self.blanket = tuple(sorted(markov_blanket(net, sensor)))
        labels = tuple(str(k) for k in range(bins))
        for v in (sensor,) + self.blanket:
            states = net.variable(v).states
            if states != labels:
                raise DiscretizerError(
                    f"variable {v!r} has states {states!r}; a {bins}-interval "
                    f"discretizer needs exactly '0'..'{bins - 1}' in order")
        family = (sensor,) + net.children(sensor)
        # The CPTs outside the family do not mention the sensor: summed over
        # the rest of the network they give a factor of P(blanket) alone. It
        # is positive when none of them has a zero entry, and then the
        # kernel's own sum decides whether the blanket evidence is possible;
        # otherwise only the general engine can tell.
        self.general = any((net.cpts[v].table <= 0.0).any()
                           for v in net.names() if v not in family)
        column = {b: i for i, b in enumerate(self.blanket)}
        weights = np.zeros((len(family), len(self.blanket)), dtype=np.intp)
        base, slabs, rows = [], [], 0
        for f, v in enumerate(family):
            cpt = net.cpts[v]
            axes = cpt.parents + (v,)
            table = cpt.table.reshape((bins,) * len(axes))
            slab = np.moveaxis(table, axes.index(sensor), -1).reshape(-1, bins)
            rest = [a for a in axes if a != sensor]
            for i, a in enumerate(rest):
                weights[f, column[a]] = bins ** (len(rest) - 1 - i)
            base.append(rows)
            slabs.append(slab)
            rows += len(slab)
        self.slabs = np.concatenate(slabs)
        self.base = np.array(base, dtype=np.intp)
        self.weights = weights

    def codes(self, d: Discretizer, reading: Mapping[str, float]) -> np.ndarray:
        """Interval codes of the blanket readings, in ``blanket`` order."""
        codes = []
        for b in self.blanket:
            if b not in reading:
                raise KeyError(
                    f"reading is missing blanket sensor {b!r} of {self.sensor!r}")
            x = reading[b]
            if not math.isfinite(x):
                raise ValueError(
                    f"non-finite reading {x!r} of sensor {b!r} "
                    f"(in the Markov blanket of {self.sensor!r})")
            codes.append(d.index(b, x))
        return np.array(codes, dtype=np.intp)

    def probabilities(self, codes: np.ndarray) -> np.ndarray:
        """Normalized P(sensor | blanket codes).

        Raises InconsistentEvidenceError when the blanket codes have
        probability zero given the sensor's family.
        """
        p = self.slabs[self.base + self.weights @ codes].prod(axis=0)
        z = p.sum()
        if z <= _EVIDENCE_EPS:
            evidence = dict(zip(self.blanket, map(str, codes)))
            raise InconsistentEvidenceError(
                f"blanket evidence {evidence!r} of {self.sensor!r} "
                f"has probability zero")
        return p / z


def blanket_kernel(net: BayesNet, sensor: str, bins: int) -> BlanketKernel:
    """The sensor's kernel, built on first use and cached on the network."""
    kernel = net.blanket_kernels.get(sensor)
    if kernel is None or kernel.bins != bins:
        kernel = net.blanket_kernels[sensor] = BlanketKernel(net, sensor, bins)
    return kernel


def predict_distribution(net: BayesNet, d: Discretizer,
                         reading: Mapping[str, float],
                         sensor: str) -> Distribution:
    """Posterior of the sensor given its discretized blanket readings only.

    Raises KeyError for a missing blanket reading, ValueError for a
    non-finite one, DiscretizerError when the network's states are not the
    discretizer's interval codes, and InconsistentEvidenceError when the
    blanket evidence has probability zero.
    """
    kernel = blanket_kernel(net, sensor, d.bins)
    codes = kernel.codes(d, reading)
    if kernel.general:
        evidence = dict(zip(kernel.blanket, map(str, codes)))
        return posterior_marginal(net, evidence, sensor)
    return Distribution(sensor, kernel.probabilities(codes))


def posterior_moments(dist: Distribution, d: Discretizer,
                      sensor: str) -> tuple[float, float]:
    """Mean and standard deviation of the posterior over interval midpoints."""
    mids = d.midpoints(sensor)
    p = dist.probabilities
    mu = float((p * mids).sum())
    var = float((p * (mids - mu) ** 2).sum())
    return mu, float(np.sqrt(max(var, 0.0)))


def apply_criterion(x: float, dist: Distribution, d: Discretizer,
                    sensor: str, criterion: DetectionCriterion) -> ApparentStatus:
    """Classify the reading x against the predicted posterior."""
    if criterion.kind == SIGMA:
        mu, sigma = posterior_moments(dist, d, sensor)
        faulty = abs(x - mu) > criterion.parameter * sigma
    elif criterion.kind == PVALUE:
        mids = d.midpoints(sensor)
        p = dist.probabilities
        mu = float((p * mids).sum())       # the mean of posterior_moments
        tail = float(p[np.abs(mids - mu) >= abs(x - mu)].sum())
        faulty = tail < criterion.parameter
    else:
        faulty = float(dist.probabilities[d.index(sensor, x)]) < criterion.parameter
    return ApparentStatus(sensor, faulty)


def validate_sensor(net: BayesNet, d: Discretizer,
                    reading: Mapping[str, float], sensor: str,
                    criterion: DetectionCriterion) -> ApparentStatus:
    """The four-step single-sensor validation: predict from the blanket,
    then compare the actual reading under the criterion."""
    if sensor not in reading:
        raise KeyError(f"reading is missing sensor {sensor!r}")
    x = reading[sensor]
    if not math.isfinite(x):
        raise ValueError(f"non-finite reading {x!r} of sensor {sensor!r}")
    dist = predict_distribution(net, d, reading, sensor)
    return apply_criterion(x, dist, d, sensor, criterion)
