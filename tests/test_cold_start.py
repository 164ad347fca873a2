"""Cold start: no command and no quadrature loads scipy; the package never imports it.

scipy is only a test dependency (an independent reference for the
quadrature), so a fresh interpreter that imports wavefall and runs evolve,
both interfere backends, verify and the proper-time quadrature must hold no
scipy module, and no module of the package may import scipy at all.
"""

import ast
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


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


config, split_config, out = sys.argv[1:]
runs = [
    ["evolve", "--config", config, "--out", out + "/evolve.csv"],
    ["interfere", "--config", config, "--out", out + "/analytic.csv"],
    ["interfere", "--config", split_config, "--out", out + "/split.csv"],
    ["verify", "--config", config, "--out", out + "/verify.json"],
]
codes = []
loaded = {}
for argv in runs:
    codes.append(cli.main(argv))
    loaded[" ".join(argv[:3])] = scipy_modules()
params = wavefall.PhysicalParams()
proper_time(free_fall_trajectory(0.0, 0.0, params), 1.0, params)
loaded["quadrature"] = scipy_modules()
# Control: the same expression sees scipy once something does import it.
import scipy.integrate
print(json.dumps({"codes": codes, "loaded": loaded, "control": scipy_modules()}))
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
    assert report["codes"] == [0, 0, 0, 0]
    assert len(report["loaded"]) == 5
    assert all(mods == [] for mods in report["loaded"].values()), report["loaded"]
    assert "scipy.integrate" in report["control"]


def _scipy_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if name == "scipy" or name.startswith("scipy.")
        ]
    return found


def test_no_package_module_imports_scipy():
    modules = sorted((ROOT / "src" / "wavefall").glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _scipy_imports(path)] == []
