"""The benchmark's tracer (``perfbench/tracing.py``) replaces library
functions at the module attributes listed in its ``WRAPPED`` table and
reads ``ExperimentRecord.trace``. A change that renames or removes one of
them breaks ``perfbench/run.py --trace 1``; this test notices it first."""

import sys
from pathlib import Path

import sensorval as sv
from sensorval import harness

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


def test_tracer_fits_the_library(ref):
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracing.WRAPPED]
    one_row = sv.Dataset(ref.test.sensors, ref.test.values[:1])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
        root = tracer.open("simulate")
        records = harness.run_fault_experiments(
            ref.net, ref.discretizer, ref.iso, None, one_row,
            [sv.DetectionCriterion("pvalue", 0.01)])
        tracer.close(root)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    assert len(records) == 1 + 2 * len(ref.iso.sensors)
    # (records, retained trace steps): only final beliefs are kept
    assert tracer.noted("harness.experiments", "simulate") == [(len(records), 0)]
    assert tracer.layers("simulate")["detection.validate"]["calls"] > 0
