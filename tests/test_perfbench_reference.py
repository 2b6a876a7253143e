"""Online selection orders on the calibrated 21-sensor net, pinned by the
benchmark's committed reference outputs (``perfbench/reference/``).

The golden trees pin only the pruned tree's states and the output digests
only the reference net, so an order change in online selection on the
21-sensor net would show nowhere else in these tests. This test only reads
``perfbench/reference/tree21-online.json.gz``: a benchmark change that
drops the ``tree21-online`` workload must keep that file.
"""

import sys
from pathlib import Path

import sensorval as sv

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
