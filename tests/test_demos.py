"""Each demo script runs to completion in a clean working directory."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write demo_output/ into their working directory; the child
    # inherits the absolute PYTHONPATH that conftest.py sets
    res = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
