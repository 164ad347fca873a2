"""Cold start: evolve and interfere never load scipy; the quadrature does.

scipy.integrate is the package's only scipy import, and it is local to the
proper-time quadrature, so a fresh interpreter that imports wavefall and runs
evolve and both interfere backends must hold no scipy module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = ROOT / "configs" / "default.json"

CHILD = """
import json
import sys

import wavefall
from wavefall import cli
from wavefall.relativistic import free_fall_trajectory, proper_time

config, split_config, out = sys.argv[1:]
runs = [
    ["evolve", "--config", config, "--out", out + "/evolve.csv"],
    ["interfere", "--config", config, "--out", out + "/analytic.csv"],
    ["interfere", "--config", split_config, "--out", out + "/split.csv"],
]
codes = [cli.main(argv) for argv in runs]
after_runs = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
params = wavefall.PhysicalParams()
proper_time(free_fall_trajectory(0.0, 0.0, 0.0, params), 1.0, params, 64)
print(json.dumps({
    "codes": codes,
    "after_runs": after_runs,
    "after_quadrature": "scipy.integrate" in sys.modules,
}))
"""


def test_evolve_and_interfere_never_import_scipy(tmp_path):
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["interfere"]["backend"] = "split-step"
    split_config = tmp_path / "split.json"
    split_config.write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, "-c", CHILD, str(DEFAULT_CONFIG), str(split_config),
         str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    assert report["after_runs"] == []
    # Positive control: the same interpreter loads scipy for the quadrature.
    assert report["after_quadrature"]
