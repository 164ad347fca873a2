"""Every demo script runs to completion against the package in src/."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy in tmp_path, so a figure written next to the script lands there
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert res.returncode == 0, res.stderr
