"""Golden outputs: the default-config CLI results stay byte-identical.

tests/golden/ holds what `wavefall` writes for configs/default.json: the
evolve CSV, the interfere CSV for each backend and the verify JSON, of which
the `checks` array is compared.  The CLI is byte-deterministic, so a change
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

# Output file -> (subcommand, interfere backend or None).
RUNS = {
    "evolve.csv": ("evolve", None),
    "interfere_analytic.csv": ("interfere", "analytic"),
    "interfere_split_step.csv": ("interfere", "split-step"),
    "verify.json": ("verify", None),
}


def run_default(name: str, out_dir: Path) -> Path:
    """Run the CLI in-process on the default config; return the output path."""
    command, backend = RUNS[name]
    config = DEFAULT_CONFIG
    if backend is not None:
        cfg = json.loads(DEFAULT_CONFIG.read_text())
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_default_config_output_is_byte_identical(name, tmp_path):
    got = run_default(name, tmp_path)
    assert compared_bytes(got) == compared_bytes(GOLDEN / name)


def regenerate(argv: list[str]) -> int:
    """Rewrite every golden file; any argument is refused, nothing is written."""
    if argv:
        print("usage: PYTHONPATH=src python tests/test_golden.py", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        out = run_default(name, GOLDEN)
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
