"""Golden outputs: the default-config CLI results stay byte-identical.

tests/golden/ holds what `wavefall` writes for configs/default.json: the
evolve CSV, the interfere CSV for each backend and the verify JSON, of which
the `checks` array is compared.  It also holds the analytic interfere CSV for
configs/interfere_dense.json, whose 45 irregular readouts at n = 1024 run in
six chunks of rows, so a defect in how rows are chunked or share work shows
there.  The CLI is byte-deterministic, so a change
that moves any byte here must say why, and regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

The script takes no arguments; given any (`--help` included) it prints its
usage, writes nothing and exits 2.
"""

import json
import sys
from pathlib import Path

import pytest

from wavefall import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
DENSE_CONFIG = ROOT / "configs" / "interfere_dense.json"
DENSE = "interfere_analytic_dense.csv"

# Output file -> (subcommand, config, interfere backend to set or None).
RUNS = {
    "evolve.csv": ("evolve", DEFAULT_CONFIG, None),
    "interfere_analytic.csv": ("interfere", DEFAULT_CONFIG, "analytic"),
    "interfere_split_step.csv": ("interfere", DEFAULT_CONFIG, "split-step"),
    "verify.json": ("verify", DEFAULT_CONFIG, None),
    DENSE: ("interfere", DENSE_CONFIG, None),
}


def run_golden(name: str, out_dir: Path) -> Path:
    """Run the CLI in-process for one golden file; return the output path."""
    command, config, backend = RUNS[name]
    if backend is not None:
        cfg = json.loads(config.read_text())
        cfg["interfere"]["backend"] = backend
        config = out_dir / f"{name}.config.json"
        config.write_text(json.dumps(cfg))
    out = out_dir / name
    rc = cli.main([command, "--config", str(config), "--out", str(out)])
    if rc != cli.EXIT_OK:
        raise RuntimeError(f"wavefall {command} exited {rc}")
    return out


def compared_bytes(path: Path) -> bytes:
    if path.suffix == ".json":
        checks = json.loads(path.read_text())["checks"]
        return json.dumps(checks, indent=2, sort_keys=True).encode()
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(set(RUNS) - {DENSE}))
def test_default_config_output_is_byte_identical(name, tmp_path):
    got = run_golden(name, tmp_path)
    assert compared_bytes(got) == compared_bytes(GOLDEN / name)


def test_multi_chunk_analytic_scan_is_byte_identical(tmp_path):
    # five chunks of 8 readouts and one of 5; the two branches of the t = 0
    # readout share one shift stage
    got = run_golden(DENSE, tmp_path)
    assert compared_bytes(got) == compared_bytes(GOLDEN / DENSE)


def regenerate(argv: list[str]) -> int:
    """Rewrite every golden file; any argument is refused, nothing is written."""
    if argv:
        print("usage: PYTHONPATH=src python tests/test_golden.py", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        out = run_golden(name, GOLDEN)
        print(f"wrote {out}", file=sys.stderr)
    for stale in GOLDEN.glob("*.config.json"):
        stale.unlink()
    return 0


def test_regenerate_refuses_arguments(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path / "golden")
    assert regenerate(["--help"]) == 2
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "golden").exists()


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
