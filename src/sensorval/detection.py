"""Single-sensor validation against its Markov blanket.

Readings are discretized into uniform intervals, the sensor's posterior
is predicted from its blanket readings alone, and the actual reading is
classified apparently correct or faulty under a configurable criterion.

The prediction always conditions on the whole blanket, so it is a product
of CPT slices (``BlanketKernel``), built once per network and sensor on
first use and cached on the network.

A criterion turns a prediction into a verdict rule, a function of the
sensor's reading alone (``DetectionCriterion.rule``): tau keeps the
verdict of each interval; sigma and pvalue keep the mean and a sorted
table of radii with one verdict per slot, all computed when the rule is
built, and judge a reading by bisecting its distance from the mean into
the table. Each kernel memoises the rule (``model.remember``) under the
blanket state, the criterion and the sensor's bounds; a miss predicts
afresh and builds the rule from that, so every memo value is complete
when stored and a memoised verdict is a cold one. ``validate_sensor``
codes the blanket of the reading it is given and takes the verdict from
the kernel (``BlanketKernel.faulty``). Most blanket states repeat, so most
verdicts are one bisection or one interval lookup. With 10 intervals an
entry, its key and its share of the memo table included, takes about
0.7 kB for a sigma or a tau rule and 0.8 kB for a pvalue rule.

The link calibration builds no rule: it predicts the rows of all the
links into one sensor in one call (``BlanketKernel.probabilities`` takes
rows of codes) and judges them in one array expression
(``DetectionCriterion.verdicts``). The rules and the verdicts share each
criterion's arithmetic: the mean and deviations (``_moments``), sigma
(``_sigma``) and the pvalue tail (``_tail``).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .inference import (_EVIDENCE_EPS, Distribution,
                        InconsistentEvidenceError, posterior_marginal)
from .model import (BayesNet, _number, json_object, malformed_part,
                    markov_blanket, remember)

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
        if (not isinstance(self.bins, numbers.Integral)
                or isinstance(self.bins, bool)):
            raise DiscretizerError(f"'bins' must be an integer, not {self.bins!r}")
        if self.bins < 2:
            raise DiscretizerError("need at least 2 intervals")
        for s, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DiscretizerError(f"sensor {s!r} has a non-finite bound in "
                                       f"{[lo, hi]!r}")
            if not lo < hi:
                raise DiscretizerError(f"zero-width range for sensor {s!r}")
            # ``index`` scales by bins * (x - lo) / (hi - lo), in floats
            if not (self.bins <= sys.float_info.max
                    and math.isfinite(self.bins * (hi - lo))):
                raise DiscretizerError(f"sensor {s!r} has a range {[lo, hi]!r} "
                                       f"too wide for {self.bins} intervals")

    def index(self, sensor: str, x: float) -> int:
        """Interval index of x; out-of-range values, however large, clamp to
        the edge intervals."""
        lo, hi = self.bounds[sensor]
        t = self.bins * (x - lo) / (hi - lo)
        return int(min(max(t, 0.0), self.bins - 1.0))

    def _index_array(self, sensor: str, xs: np.ndarray) -> np.ndarray:
        """``index`` of every reading in ``xs``, for learning from columns,
        in the smallest unsigned integer type that holds every code."""
        lo, hi = self.bounds[sensor]
        with np.errstate(over="ignore"):     # huge readings clamp below
            t = self.bins * (xs - lo) / (hi - lo)
        return np.clip(t, 0.0, self.bins - 1.0).astype(
            np.min_scalar_type(self.bins - 1))

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
        bounds = {s: (_number(lo), _number(hi)) for s, (lo, hi) in doc["bounds"].items()}
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
        if (not isinstance(self.parameter, numbers.Real)
                or isinstance(self.parameter, bool)):
            raise ValueError(f"{self.kind} criterion parameter must be a "
                             f"number, not {self.parameter!r}")
        if not math.isfinite(self.parameter):
            raise ValueError(f"{self.kind} criterion parameter "
                             f"{self.parameter!r} is not finite")
        if self.kind == SIGMA and not self.parameter > 0:
            raise ValueError("sigma criterion needs k > 0")
        if self.kind in (PVALUE, TAU) and not 0 < self.parameter < 1:
            raise ValueError(f"{self.kind} parameter must lie in (0, 1)")

    def rule(self, p: np.ndarray, d: Discretizer,
             sensor: str) -> Callable[[float], bool]:
        """Whether a reading x of the sensor is apparently faulty, as a
        function of x alone, given the sensor's predicted distribution p
        over the discretizer's intervals.

        tau compares the probability of x's interval. sigma and pvalue
        bisect abs(x - mean), the distance from the mean of p over the
        interval midpoints, into a sorted table of radii (``bisect_left``)
        and return that slot's verdict; past the largest radius, x is
        faulty. sigma has the one radius k * sigma, within which x is
        correct. pvalue has one radius per distinct distance of a midpoint
        from the mean: the midpoints at least as far as x are those at
        least as far as the radius of x's slot, so the slot's verdict is
        whether their mass, ``_tail`` at that radius, falls below the
        level. Every slot's verdict comes from its own masked sum, none
        from another's: rounding need not keep the sums monotone in the
        radius.
        """
        level = self.parameter
        if self.kind == TAU:
            index = d.index
            faulty = (p < level).tolist()       # one verdict per interval
            return lambda x: faulty[index(sensor, x)]
        mean, deviations = _moments(p, d.midpoints(sensor))
        mean = float(mean)
        if self.kind == SIGMA:
            radii = [level * float(_sigma(p, deviations))]
            faulty = [False]
        else:
            # sorted(set()) of a few floats costs a fifth of np.unique
            radii = sorted(set(deviations.tolist()))
            faulty = (_tail(p, deviations, np.array(radii)[:, None])
                      < level).tolist()
        # past the largest radius, the reading is faulty; an array of doubles
        # holds no float objects, a fifth off a pvalue entry's memory
        radii, faulty = array("d", radii), (*faulty, True)
        return lambda x: faulty[bisect_left(radii, abs(x - mean))]

    def verdicts(self, p: np.ndarray, d: Discretizer, sensor: str,
                 x: np.ndarray) -> np.ndarray:
        """The rule's verdicts on many readings at once: whether each
        reading ``x[i]`` of the sensor is apparently faulty given its
        prediction, the row ``p[i]``. Equal to ``rule(p[i], d, sensor)(x[i])``
        for every row, with no rule built."""
        level = self.parameter
        if self.kind == TAU:
            return p[np.arange(len(p)), d._index_array(sensor, x)] < level
        mean, deviations = _moments(p, d.midpoints(sensor))
        distance = np.abs(x - mean)
        if self.kind == SIGMA:
            return distance > level * _sigma(p, deviations)
        return _tail(p, deviations, distance[:, None]) < level


def _moments(p: np.ndarray, midpoints: np.ndarray):
    """The mean of each prediction (along the last axis of p) over the
    interval midpoints, and each midpoint's distance from it."""
    mean = np.add.reduce(p * midpoints, axis=-1)
    return mean, np.abs(midpoints - mean[..., None])


def _sigma(p: np.ndarray, deviations: np.ndarray):
    """The standard deviation of each prediction, from ``_moments``."""
    return np.sqrt(np.maximum(np.add.reduce(p * deviations ** 2, axis=-1),
                              0.0))


def _tail(p: np.ndarray, deviations: np.ndarray, radius):
    """The mass of each prediction on the midpoints at least ``radius``
    (broadcast against ``deviations``) from its mean: zeros in place of the
    other midpoints, then one sum, so that a prediction's tail rounds
    alike in a rule and in a batch."""
    return np.add.reduce(p * (deviations >= radius), axis=-1)


class ApparentStatus(NamedTuple):
    """A sensor's validation verdict; a named tuple, so that making one
    costs no per-field ``object.__setattr__``."""

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
    that row is ``codes @ weights + base`` (mixed-radix strides over the
    blanket codes). The predictions of many blanket states are one matrix
    product, one row gather and a product over the factors.

    Every variable of the extended blanket must have exactly the states
    "0".."bins-1" in that order, because codes are used as positions.
    """

    def __init__(self, net: BayesNet, sensor: str, bins: int):
        self.sensor = sensor
        self.bins = bins
        self.blanket = tuple(sorted(markov_blanket(net, sensor)))
        for v in (sensor,) + self.blanket:
            states = net.variable(v).states
            # the count first: a huge ``bins`` then builds no labels
            if len(states) != bins or states != tuple(map(str, range(bins))):
                raise DiscretizerError(
                    f"variable {v!r} has states {states!r}; a {bins}-interval "
                    f"discretizer needs exactly '0'..'{bins - 1}' in order")
        family = (sensor,) + net.children(sensor)
        # The CPTs outside the family do not mention the sensor: summed over
        # the rest of the network they give a factor of P(blanket) alone. It
        # is positive when none of them has a zero entry, and then the
        # kernel's own sum decides whether the blanket evidence is possible;
        # otherwise only the general engine can tell.
        self.general = not net.zero_cpts <= set(family)
        column = {b: i for i, b in enumerate(self.blanket)}
        weights = np.zeros((len(self.blanket), len(family)), dtype=np.intp)
        base, slabs, rows = [], [], 0
        for f, v in enumerate(family):
            cpt = net.cpts[v]
            axes = cpt.parents + (v,)
            table = cpt.table.reshape((bins,) * len(axes))
            slab = np.moveaxis(table, axes.index(sensor), -1).reshape(-1, bins)
            rest = [a for a in axes if a != sensor]
            for i, a in enumerate(rest):
                weights[column[a], f] = bins ** (len(rest) - 1 - i)
            base.append(rows)
            slabs.append(slab)
            rows += len(slab)
        self.slabs = np.concatenate(slabs)
        self.base = np.array(base, dtype=np.intp)
        self.weights = weights
        self.memo: dict[tuple, Callable[[float], bool]] = {}

    def codes(self, d: Discretizer, reading: Mapping[str, float]) -> tuple:
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
        return tuple(codes)

    def probabilities(self, net: BayesNet, codes) -> np.ndarray:
        """Normalized P(sensor | blanket) for each row of the blanket's
        interval ``codes`` (one row per blanket state, in ``blanket``
        order), as a new array with one row per state: the closed form, or
        the general engine, one row at a time, where ``general`` is set.

        Raises InconsistentEvidenceError when the codes of a row have
        probability zero.
        """
        codes = np.asarray(codes, dtype=np.intp).reshape(
            len(codes), len(self.blanket))
        if self.general:
            return np.array([
                posterior_marginal(net, self._evidence(row),
                                   self.sensor).probabilities
                for row in codes]).reshape(len(codes), self.bins)
        # take and the ufuncs' own reduce cost about a fifth less than
        # indexing and the array methods on the one-row call of a memo miss
        rows = codes @ self.weights + self.base
        p = np.multiply.reduce(self.slabs.take(rows, axis=0), axis=1)
        z = np.add.reduce(p, axis=1)
        # on a list, the check costs a fifth of z.min() for one row
        if min(z.tolist()) <= _EVIDENCE_EPS:
            row = codes[np.argmax(z <= _EVIDENCE_EPS)]
            raise InconsistentEvidenceError(
                f"blanket evidence {self._evidence(row)!r} of "
                f"{self.sensor!r} has probability zero")
        p /= z[:, None]
        return p

    def _evidence(self, row: np.ndarray) -> dict:
        return dict(zip(self.blanket, map(str, row.tolist())))

    def predict(self, net: BayesNet, d: Discretizer,
                reading: Mapping[str, float]) -> np.ndarray:
        """Normalized P(sensor | blanket readings), as a new array."""
        return self.probabilities(net, [self.codes(d, reading)])[0]

    def faulty(self, net: BayesNet, d: Discretizer, codes: tuple, x: float,
               criterion: DetectionCriterion) -> bool:
        """The verdict on the sensor's reading x given the blanket's
        interval ``codes``, the route of ``validate_sensor``: the memoised
        rule of those codes, the criterion and the sensor's bounds, built
        on first need from a one-row prediction."""
        # the criterion's fields, not the criterion: its generated hash would
        # be one more Python call per validation
        lo, hi = d.bounds[self.sensor]
        key = (codes, criterion.kind, criterion.parameter, lo, hi)
        rule = self.memo.get(key)
        if rule is None:
            rule = criterion.rule(self.probabilities(net, [codes])[0], d,
                                  self.sensor)
            remember(self.memo, key, rule)
        return rule(x)


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
    return Distribution(sensor, kernel.predict(net, d, reading))


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
    kernel = blanket_kernel(net, sensor, d.bins)
    return ApparentStatus(
        sensor, kernel.faulty(net, d, kernel.codes(d, reading), x, criterion))
