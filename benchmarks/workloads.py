"""Benchmark workloads: seeded CLI configs for the four wavefall commands.

Each workload is a fixed list of CLI commands.  The seed jitters the initial
packet (x0, p0) and the readout times inside ranges that keep every packet on
its grid and every fringe phase unwrappable; grid sizes, step counts and the
number of readouts never depend on the seed, so the work per iteration is the
same for every seed.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify", "interfere-split", "evolve-fine", "interfere-analytic")

PARAMS = {"hbar": 1.0, "m": 1.0, "g": 1.0, "c": 10.0}
DEFAULT_GRID = {"x_min": -20.0, "x_max": 20.0, "n": 256}
EVOLVE_TIMES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of an iteration.

    reference, when set, is the same config on the analytic backend; its
    output is computed once per run and the gate compares against it.
    """

    name: str
    subcommand: str
    config: dict
    reference: dict | None = None


def import_wavefall():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "wavefall" / "__init__.py").is_file():
        raise FileNotFoundError(f"no wavefall package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wavefall

    if Path(wavefall.__file__).resolve().parent != SRC / "wavefall":
        raise ImportError(f"wavefall imported from {wavefall.__file__}, not {SRC}")
    return wavefall


def _base(rng: random.Random, grid: dict, seed: int) -> dict:
    # x0 and p0 only move the packet toward +x: verify's ehrenfest_means check
    # falls for t=2 at 2g, which leaves little room on the -x side of the grid.
    return {
        "params": dict(PARAMS),
        "grid": dict(grid),
        "initial": {
            "x0": round(rng.uniform(0.0, 1.0), 6),
            "p0": round(rng.uniform(0.0, 0.3), 6),
            "sigma0": 1.0,
        },
        "seed": seed % 2**64,
    }


def _split_times(rng: random.Random) -> list[float]:
    # 10 readouts in [0.1, 1]; neighbours stay >= 0.04 apart.
    return [
        round(min(1.0, max(0.1, 0.1 + 0.1 * i + rng.uniform(-0.03, 0.03))), 6)
        for i in range(10)
    ]


def _dense_times(rng: random.Random) -> list[float]:
    # 400 readouts in (0, 2]; neighbours stay >= 0.0025 apart.
    return [round((i + 1 - rng.uniform(0.0, 0.5)) * 0.005, 6) for i in range(400)]


def _analytic_twin(cfg: dict) -> dict:
    twin = json.loads(json.dumps(cfg))
    twin["interfere"]["backend"] = "analytic"
    return twin


def build(workload: str, seed: int) -> list[Command]:
    """The commands of one iteration of workload, generated from seed."""
    rng = random.Random(seed)
    if workload == "verify":
        cfg = _base(rng, DEFAULT_GRID, seed)
        cfg["verify"] = {
            "n_oracle": 256,
            "n_random": 1000,
            "step_counts": [64, 128, 256, 512],
            "c_values": [10.0, 20.0, 40.0, 80.0],
        }
        return [Command("verify", "verify", cfg)]
    if workload == "interfere-split":
        scan = _base(rng, DEFAULT_GRID, seed)
        scan["interfere"] = {
            "t_values": _split_times(rng),
            "scheme": "colocated",
            "backend": "split-step",
            "n_steps": 2048,
        }
        g = PARAMS["g"]
        sched = json.loads(json.dumps(scan))
        sched["interfere"]["t_values"] = [1.0]
        sched["interfere"]["scheme"] = {
            "branch_a": [[g, 0.5], [g, 0.5]],
            "branch_b": [[0.0, 0.5], [0.0, 0.5]],
        }
        return [
            Command("scan", "interfere", scan, _analytic_twin(scan)),
            Command("schedule", "interfere", sched, _analytic_twin(sched)),
        ]
    if workload == "evolve-fine":
        cfg = _base(rng, {"x_min": -40.0, "x_max": 40.0, "n": 4096}, seed)
        cfg["evolve"] = {
            "t_values": [round(t + rng.uniform(-0.05, 0.05), 6) for t in EVOLVE_TIMES],
            "n_steps": 1024,
        }
        return [Command("evolve", "evolve", cfg)]
    if workload == "interfere-analytic":
        cfg = _base(rng, {"x_min": -20.0, "x_max": 20.0, "n": 1024}, seed)
        cfg["interfere"] = {
            "t_values": _dense_times(rng),
            "scheme": "colocated",
            "backend": "analytic",
        }
        return [Command("scan", "interfere", cfg)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

