"""Outputs pinned by the benchmark's committed reference outputs
(``perfbench/reference/``), for seed 0 of three workloads.

The golden trees pin only the pruned tree's states and the output digests
only the reference net, so an order change in online selection on the
21-sensor net would show nowhere else in these tests. The ``tree21-tree``
and ``ref5-simulate`` pins run the benchmark's own workload classes, so
their checks are the ones a benchmark run makes. These tests only read
``perfbench/``: a benchmark change that drops a workload must keep its
reference file.
"""

import sys
from pathlib import Path

import sensorval as sv
from conftest import FIXTURES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def test_tree21_online_matches_the_reference(tree21):
    # the session tree21 fixture is calibrated with workloads.CRITERION
    reference = workloads.Reference("tree21-online", 0)
    assert reference.entry is not None
    readings = workloads.tree21_readings(tree21, 0, 1)
    assert len(readings) == 84
    for k, reading in enumerate(readings):
        records = list(sv.run_anytime_validation(
            tree21.net, tree21.discretizer, tree21.iso, None, reading,
            workloads.CRITERION))
        problem = reference.check_cycle(
            k, records, lambda _: "the reference has no entry")
        assert problem is None, f"input {k}: {problem}"


def test_tree21_tree_matches_the_reference(tmp_path):
    w = workloads.Tree21Tree(0, workloads.Reference("tree21-tree", 0),
                             tmp_path)
    assert w.reference.entry is not None
    w.setup()
    assert w.n_inputs() == 1680
    for k in range(0, w.n_inputs(), 7):
        w.step(0, k, None)
    # each input is one cycle plus its first-step probes
    assert w.attempted == 240 * (1 + workloads.FIRST_STEP_PROBES)
    assert w.failed == 0, w.failures


def test_ref5_simulate_matches_the_reference(tmp_path):
    w = workloads.Ref5Simulate(0, workloads.Reference("ref5-simulate", 0),
                               tmp_path)
    assert len(w.reference.entry["reports"]) == workloads.CHUNKS
    w.fixtures = FIXTURES
    w.setup()
    for c in range(workloads.CHUNKS):
        w.step(0, c, None)
    assert len(w.calls) == workloads.CHUNKS
    assert w.failed == 0, w.failures
