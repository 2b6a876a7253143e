"""Canned desk-scale benchmark setups used by the demos and the test suite.

Two fixtures: the five-sensor reference network (the worked example whose
fault-probability dynamics the isolation model reproduces) and a seeded
random 21-sensor tree standing in for a plant-scale deployment. Both are
fully deterministic given their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detection import DetectionCriterion, Discretizer, fit_discretizer
from .harness import (Dataset, calibrate_link_strengths,
                      generate_synthetic_dataset, learn_parameters,
                      random_tree_structure, reference_structure,
                      split_dataset)
from .isolation import IsolationNet, build_isolation_network
from .model import BayesNet, EmbTable, NetworkStructure, emb_table

REFERENCE_DATA_SEED = 11
TREE21_STRUCTURE_SEED = 21
TREE21_DATA_SEED = 7
N_ROWS = 34_800
NOISE = 0.05
SPLIT_RATIO = 0.7
SPLIT_SEED = 1
BINS = 10


@dataclass(frozen=True)
class Benchmark:
    """A ready-to-run setup: model, discretizer, isolation net, and data."""

    structure: NetworkStructure
    train: Dataset
    test: Dataset
    discretizer: Discretizer
    net: BayesNet
    emb: EmbTable
    iso: IsolationNet


def _assemble(structure: NetworkStructure, data_seed: int,
              calibration: DetectionCriterion | None) -> Benchmark:
    # the full table is dropped here, before learning allocates
    train, test = split_dataset(
        generate_synthetic_dataset(structure, N_ROWS, NOISE, data_seed),
        SPLIT_RATIO, SPLIT_SEED)
    disc = fit_discretizer(train, structure.sensors, bins=BINS)
    net = learn_parameters(structure, disc, train)
    emb = emb_table(net)
    overrides = None
    if calibration is not None:
        overrides = calibrate_link_strengths(net, disc, emb, train, calibration)
    iso = build_isolation_network(emb, link_overrides=overrides)
    return Benchmark(structure, train, test, disc, net, emb, iso)


def reference_benchmark(calibration: DetectionCriterion | None = None) -> Benchmark:
    """The five-sensor reference network with defaults (uniform link strength
    unless a calibration criterion is supplied)."""
    return _assemble(reference_structure(), REFERENCE_DATA_SEED, calibration)


def tree21_benchmark(calibration: DetectionCriterion | None = None) -> Benchmark:
    """The 21-sensor random-tree benchmark. Pass the evaluation criterion to
    calibrate per-link strengths from training data, which the deployment
    configuration uses because several sensors have multi-member blankets
    whose validations do not fail under a single corrupted neighbour."""
    structure = random_tree_structure(21, seed=TREE21_STRUCTURE_SEED)
    return _assemble(structure, TREE21_DATA_SEED, calibration)
