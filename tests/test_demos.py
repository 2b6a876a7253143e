"""Smoke test of the narrative demos: each runs from the repository root
as ``PYTHONPATH=src python demos/NN_name.py``, exits 0 and writes nothing
to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo.relative_to(ROOT))],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if demo.name.startswith("04_"):
        assert ("pruning during compilation gives the identical tree: True"
                in proc.stdout.splitlines())
