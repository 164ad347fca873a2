"""End-to-end command-line runs: outputs, determinism, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from wavefall import analytic, cli
from wavefall.interferometry import _CHUNK_BYTES

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"

BASE = {
    "params": {"hbar": 1.0, "m": 1.0, "g": 1.0, "c": 10.0},
    "grid": {"x_min": -20.0, "x_max": 20.0, "n": 256},
    "initial": {"x0": 0.0, "p0": 0.0, "sigma0": 1.0},
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wavefall", *args],
        capture_output=True,
        text=True,
    )


def write_cfg(path, extra):
    cfg = dict(BASE)
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_evolve_writes_expected_columns_and_values(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.json",
        {"evolve": {"t_values": [0.5, 1.0], "n_steps": 512}},
    )
    out = tmp_path / "out.csv"
    res = run_cli("evolve", "--config", cfg, "--out", str(out))
    assert res.returncode == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().strip().split("\n")
    assert lines[0] == (
        "t,mean_x_exact,mean_p_exact,sigma_x_exact,"
        "mean_x_numeric,sigma_x_numeric,norm_error"
    )
    assert len(lines) == 3
    row = lines[2].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) == pytest.approx(-0.5, abs=1e-9)
    assert float(row[2]) == pytest.approx(-1.0, abs=1e-9)
    assert float(row[3]) == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-9)
    assert float(row[4]) == pytest.approx(-0.5, abs=1e-8)
    assert float(row[6]) < 1e-10  # both backends stay normalized


def test_evolve_makes_one_batched_call_per_route(tmp_path, count_calls):
    names = ("evolve_exact", "evolve_split_step", "moments")
    calls = {name: count_calls(cli, name) for name in names}
    argv = ["evolve", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    # eight readout times, one stack per route and one moments call per stack
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {"evolve_exact": 1, "evolve_split_step": 1, "moments": 2}


def test_evolve_is_byte_identical_between_runs(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.json",
        {"evolve": {"t_values": [0.25, 0.5, 0.75], "n_steps": 256}},
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("evolve", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("evolve", "--config", cfg, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_interfere_writes_records_and_is_deterministic(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.json",
        {"interfere": {"t_values": [0.5, 1.0]}},
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    res = run_cli("interfere", "--config", cfg, "--out", str(a))
    assert res.returncode == 0
    assert run_cli("interfere", "--config", cfg, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == (
        "t,re_overlap,im_overlap,visibility,phase,phase_unwrapped,"
        "predicted_phase,predicted_visibility"
    )
    row = lines[2].split(",")
    assert float(row[4]) == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert float(row[3]) == pytest.approx(math.exp(-0.625), abs=1e-8)


def test_csv_number_formatting():
    # 17 significant digits round-trip doubles exactly; None becomes blank
    from wavefall.cli import _fmt

    assert _fmt(None) == ""
    assert _fmt(0.1) == "0.10000000000000001"
    assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_verify_passes_on_defaults_and_prints_one_line_per_check(tmp_path):
    out = tmp_path / "summary.json"
    res = run_cli("verify", "--out", str(out))
    assert res.returncode == 0
    lines = [l for l in res.stdout.strip().split("\n") if l]
    from wavefall import CHECK_NAMES

    pass_lines = [l for l in lines if l.startswith("PASS ")]
    assert len(pass_lines) == len(CHECK_NAMES)
    for name in CHECK_NAMES:
        assert any(name in l for l in pass_lines)
    summary = json.loads(out.read_text())
    assert summary["all_pass"] is True
    assert len(summary["checks"]) == len(CHECK_NAMES)


def test_verify_makes_one_eigendecomposition_per_hamiltonian(tmp_path, eigh_calls):
    # g = cfg.g, which the two oracle checks share, and g = 0
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", str(DEFAULT_CONFIG), "--out", str(out)]) == 0
    assert len(eigh_calls) == 2


def test_verify_fails_honestly_on_an_unusable_grid(tmp_path):
    # sigma0 = 1 cannot be resolved on an n = 8 lattice; the affected checks
    # report structured failures and the command exits 1
    cfg = write_cfg(
        tmp_path / "c.json",
        {
            "grid": {"x_min": -20.0, "x_max": 20.0, "n": 8},
            "verify": {"n_oracle": 8, "n_random": 10},
        },
    )
    res = run_cli("verify", "--config", cfg)
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_missing_required_key_names_the_path(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "params": BASE["params"],
        "grid": {"x_min": -20.0, "x_max": 20.0},
        "initial": BASE["initial"],
    }))
    res = run_cli("verify", "--config", str(cfg))
    assert res.returncode == 2
    assert "grid.n" in res.stderr


def test_unknown_key_rejected(tmp_path):
    cfg = dict(BASE)
    cfg["grid"] = {"x_min": -20.0, "x_max": 20.0, "n": 256, "spacing": 0.1}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    res = run_cli("verify", "--config", str(p))
    assert res.returncode == 2
    assert "grid.spacing" in res.stderr


@pytest.mark.parametrize(
    "command, key, value",
    [("interfere", "c", math.inf), ("evolve", "g", math.nan)],
)
def test_non_finite_param_exits_2_naming_its_path(tmp_path, command, key, value):
    cfg = dict(BASE)
    cfg["params"] = {**BASE["params"], key: value}
    cfg["interfere"] = {"t_values": [0.5, 1.0]}
    cfg["evolve"] = {"t_values": [0.5, 1.0], "n_steps": 64}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))  # json writes NaN / Infinity
    res = run_cli(command, "--config", str(p), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    assert f"params.{key}" in res.stderr
    assert "finite" in res.stderr


def test_grid_whose_span_overflows_exits_2_naming_the_block(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.json",
        {
            "grid": {"x_min": -1e308, "x_max": 1e308, "n": 256},
            "evolve": {"t_values": [0.5], "n_steps": 8},
        },
    )
    res = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    assert "config error: grid:" in res.stderr
    assert "finite" in res.stderr


def test_grid_whose_span_is_too_small_exits_2_naming_the_block(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.json",
        {
            "grid": {"x_min": 0.0, "x_max": 5e-324, "n": 8},
            "evolve": {"t_values": [0.5], "n_steps": 8},
        },
    )
    res = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    assert "config error: grid: span 5e-324 is too small for n=8" in res.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["evolve", "interfere"])
def test_seed_is_a_verify_only_option(tmp_path, command):
    cfg = write_cfg(
        tmp_path / "c.json",
        {
            "evolve": {"t_values": [0.5], "n_steps": 8},
            "interfere": {"t_values": [0.5]},
        },
    )
    out = tmp_path / "o.csv"
    res = run_cli(command, "--config", cfg, "--out", str(out), "--seed", "7")
    assert res.returncode == 2
    assert "--seed" in res.stderr
    assert not out.exists()


def test_verify_seed_out_of_range_exits_2():
    res = run_cli("verify", "--seed", str(2**64))
    assert res.returncode == 2
    assert "--seed must fit" in res.stderr


def test_invalid_json_exits_2(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    res = run_cli("verify", "--config", str(p))
    assert res.returncode == 2


def test_missing_config_file_exits_2(tmp_path):
    res = run_cli("verify", "--config", str(tmp_path / "absent.json"))
    assert res.returncode == 2


def test_evolve_without_evolve_block_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {})
    res = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2


def test_unwritable_out_path_exits_2(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.json",
        {"evolve": {"t_values": [0.5], "n_steps": 64}},
    )
    out = tmp_path / "no_such_dir" / "o.csv"
    res = run_cli("evolve", "--config", cfg, "--out", str(out))
    assert res.returncode == 2
    assert "output error" in res.stderr
    assert "Traceback" not in res.stderr


def test_grid_overflow_exits_3(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.json",
        {"evolve": {"t_values": [0.5, 8.0], "n_steps": 64}},
    )
    res = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 3
    assert "grid overflow" in res.stderr


def test_overflow_in_a_later_chunk_writes_no_partial_csv(
    tmp_path, capsys, count_calls
):
    # readouts per propagation chunk at n = 256, one fallen row each on the
    # analytic backend; the last readout, t = 8, overflows in the second chunk
    per_chunk = _CHUNK_BYTES // (16 * BASE["grid"]["n"])
    times = [0.02 * (i + 1) for i in range(per_chunk + 3)] + [8.0]
    cfg = write_cfg(
        tmp_path / "c.json",
        {"interfere": {"t_values": times, "scheme": "colocated", "backend": "analytic"}},
    )
    out = tmp_path / "o.csv"
    steps = count_calls(analytic, "_fall")
    assert cli.main(["interfere", "--config", cfg, "--out", str(out)]) == 3
    assert "readout t=8.0, accelerated branch" in capsys.readouterr().err
    assert not out.exists()
    assert [len(args[0]) for args in steps] == [per_chunk, 4]


def test_phase_aliasing_exits_4_with_denser_suggestion(tmp_path):
    t2 = (1.0 + 3.0 * math.pi) ** (1.0 / 3.0)
    cfg = write_cfg(
        tmp_path / "c.json",
        {"interfere": {"t_values": [1.0, t2]}},
    )
    res = run_cli("interfere", "--config", cfg, "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 4
    assert "denser" in res.stderr
    # the suggestion inserts the midpoint between the two readout times
    assert f"{0.5 * (1.0 + t2):.6f}"[:6] in res.stderr


def test_verify_summary_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("verify", "--out", str(a), "--seed", "7").returncode == 0
    assert run_cli("verify", "--out", str(b), "--seed", "7").returncode == 0
    assert a.read_bytes() == b.read_bytes()
