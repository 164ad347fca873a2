"""Golden outputs: the default-config CLI results stay byte-identical.

tests/golden/ holds what `wavefall` writes for configs/default.json: the
evolve CSV, the interfere CSV for each backend and the verify JSON, of which
the `checks` array is compared.  It also holds the analytic interfere CSV for
configs/interfere_dense.json, whose 45 irregular readouts at n = 1024 run in
six chunks of rows, so a defect in how rows are chunked or share work shows
there, and the analytic interfere CSV for configs/interfere_branches.json, a
per-branch scan of an inertial against an accelerated branch, whose
predicted columns come from the per-branch closed form.  The CLI is
byte-deterministic for a given BLAS thread count, and every file is written
by the CLI in a child process with one BLAS thread, so the comparison holds
on any host.  A change that moves any byte here
must say why, and regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

The script reports on stderr what moved in each file: every changed field
of every verify check, old -> new, and for each CSV "unchanged" or the
number of rows that differ with the largest absolute change of each column
that moved.  It takes no arguments; given any (`--help`
included) it prints its usage, writes nothing and exits 2.
"""

import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from wavefall import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
DENSE_CONFIG = ROOT / "configs" / "interfere_dense.json"
DENSE = "interfere_analytic_dense.csv"
BRANCHES_CONFIG = ROOT / "configs" / "interfere_branches.json"
BRANCHES = "interfere_analytic_branches.csv"
# The dense oracle's eigh rounds differently with the number of BLAS threads,
# which moves the last digits of two verify measurements.
ONE_BLAS_THREAD = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"
}

# Output file -> (subcommand, config, interfere backend to set or None).
RUNS = {
    "evolve.csv": ("evolve", DEFAULT_CONFIG, None),
    "interfere_analytic.csv": ("interfere", DEFAULT_CONFIG, "analytic"),
    "interfere_split_step.csv": ("interfere", DEFAULT_CONFIG, "split-step"),
    "verify.json": ("verify", DEFAULT_CONFIG, None),
    DENSE: ("interfere", DENSE_CONFIG, None),
    BRANCHES: ("interfere", BRANCHES_CONFIG, None),
}


def run_golden(name: str, out_dir: Path) -> Path:
    """Run the CLI for one golden file with one BLAS thread; return the output path."""
    command, config, backend = RUNS[name]
    if backend is not None:
        cfg = json.loads(config.read_text())
        cfg["interfere"]["backend"] = backend
        config = out_dir / f"{name}.config.json"
        config.write_text(json.dumps(cfg))
    out = out_dir / name
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ONE_BLAS_THREAD)
    res = subprocess.run(
        [sys.executable, "-m", "wavefall", command, "--config", str(config),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    if res.returncode != cli.EXIT_OK:
        raise RuntimeError(f"wavefall {command} exited {res.returncode}: {res.stderr}")
    return out


def compared_bytes(path: Path) -> bytes:
    if path.suffix == ".json":
        checks = json.loads(path.read_text())["checks"]
        return json.dumps(checks, indent=2, sort_keys=True).encode()
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(set(RUNS) - {DENSE, BRANCHES}))
def test_default_config_output_is_byte_identical(name, tmp_path):
    got = run_golden(name, tmp_path)
    assert compared_bytes(got) == compared_bytes(GOLDEN / name)


def test_multi_chunk_analytic_scan_is_byte_identical(tmp_path):
    # five chunks of 8 readouts and one of 5; the two branches of the t = 0
    # readout share one shift stage, and each fringe is read from the
    # density of its accelerated row's free flight, taken before the kick
    got = run_golden(DENSE, tmp_path)
    assert compared_bytes(got) == compared_bytes(GOLDEN / DENSE)


def test_per_branch_scan_is_byte_identical(tmp_path):
    # the inertial-against-accelerated pair at t = 1: both branches are
    # propagated, and the predicted columns are the per-branch closed form's
    got = run_golden(BRANCHES, tmp_path)
    assert compared_bytes(got) == compared_bytes(GOLDEN / BRANCHES)


def what_moved(name: str, old: bytes | None, new: bytes) -> list[str]:
    """The compared content of one golden file, old against new, in words.

    For the verify JSON, one line per check field that changed, old -> new;
    for a CSV, "unchanged" or the number of rows that differ, followed by
    the largest absolute change of each column that moved (_largest_changes).
    """
    if old is None:
        return [f"{name}: new file"]
    if old == new:
        return [f"{name}: unchanged"]
    if not name.endswith(".json"):
        rows = list(zip_longest(old.splitlines(), new.splitlines()))
        differ = f"{sum(a != b for a, b in rows)} of {len(rows)} rows differ"
        return [f"{name}: {differ}{_largest_changes(rows)}"]
    before = {c["name"]: c for c in json.loads(old)}
    after = {c["name"]: c for c in json.loads(new)}
    lines = []
    for check in before.keys() | after.keys():
        if check not in after:
            lines.append(f"{name}: {check} removed")
        elif check not in before:
            lines.append(f"{name}: {check} added")
        else:
            lines.extend(
                f"{name}: {check} {field}: {before[check][field]!r}"
                f" -> {after[check][field]!r}"
                for field in sorted(after[check])
                if before[check].get(field) != after[check][field]
            )
    return sorted(lines)


def _largest_changes(rows: list[tuple]) -> str:
    """"; largest change <column> <max |new - old|>, ..." over the CSV's rows.

    rows pairs the old and new lines, the header first.  Only rows in both
    files and cells that parse as numbers on both sides count; columns are
    named by the new header, in its order, and those that did not move are
    left out.  Empty when no counted cell moved.
    """
    (_, header), *body = rows
    columns = header.decode().split(",")
    largest: dict[str, float] = {}
    for a, b in body:
        if a is None or b is None:
            continue
        for column, x, y in zip(columns, a.split(b","), b.split(b",")):
            try:
                change = abs(float(y) - float(x))
            except ValueError:
                continue
            largest[column] = max(largest.get(column, 0.0), change)
    moved = [f"{c} {largest[c]:.2g}" for c in columns if largest.get(c, 0.0) > 0]
    return f"; largest change {', '.join(moved)}" if moved else ""


def regenerate(argv: list[str]) -> int:
    """Rewrite every golden file and report what moved; refuse any argument.

    Given any argument, prints the usage, writes nothing and returns 2.
    """
    if argv:
        print("usage: PYTHONPATH=src python tests/test_golden.py", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        path = GOLDEN / name
        old = compared_bytes(path) if path.exists() else None
        out = run_golden(name, GOLDEN)
        print(f"wrote {out}", file=sys.stderr)
        for line in what_moved(name, old, compared_bytes(out)):
            print(line, file=sys.stderr)
    for stale in GOLDEN.glob("*.config.json"):
        stale.unlink()
    return 0


def test_regenerate_refuses_arguments(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path / "golden")
    assert regenerate(["--help"]) == 2
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "golden").exists()


def test_what_moved_names_each_changed_check_field_and_counts_csv_rows():
    checks = json.loads(compared_bytes(GOLDEN / "verify.json"))
    moved = [dict(c) for c in checks]
    moved[2]["measured"] = "worst deviation 1.000e-08 of tolerance"
    moved[5]["passed"] = False
    old, new = (json.dumps(c, indent=2).encode() for c in (checks, moved))
    assert what_moved("verify.json", old, new) == sorted([
        f"verify.json: {checks[2]['name']} measured: "
        f"{checks[2]['measured']!r} -> 'worst deviation 1.000e-08 of tolerance'",
        f"verify.json: {checks[5]['name']} passed: True -> False",
    ])
    assert what_moved("verify.json", old, old) == ["verify.json: unchanged"]
    csv = (GOLDEN / "evolve.csv").read_bytes()
    lines = csv.splitlines(keepends=True)
    edited = b"".join(lines[:2] + [b"0,0\n"] + lines[3:] + [b"1,1\n"])
    assert what_moved("evolve.csv", csv, csv) == ["evolve.csv: unchanged"]
    assert what_moved("evolve.csv", csv, edited) == [
        f"evolve.csv: 2 of {len(lines) + 1} rows differ;"
        " largest change t 0.5, mean_x_exact 0.13"
    ]
    # a cell that moves by one rounding step is reported with its column;
    # a row of cells that are not numbers counts as differing, with no change
    cells = lines[1].rstrip(b"\n").split(b",")
    cells[6] = repr(float(cells[6]) + 2.2e-16).encode()
    nudged = b"".join(
        lines[:1] + [b",".join(cells) + b"\n"] + lines[2:-1] + [b"a,b\n"]
    )
    norm_error = float(cells[6]) - float(lines[1].split(b",")[6])
    assert what_moved("evolve.csv", csv, nudged) == [
        f"evolve.csv: 2 of {len(lines)} rows differ;"
        f" largest change norm_error {norm_error:.2g}"
    ]
    assert what_moved("evolve.csv", None, csv) == ["evolve.csv: new file"]


def test_regenerate_reports_what_moved(monkeypatch, tmp_path, capsys):
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "evolve.csv").write_bytes((GOLDEN / "evolve.csv").read_bytes())
    monkeypatch.setitem(globals(), "GOLDEN", golden)
    monkeypatch.setitem(globals(), "RUNS", {"evolve.csv": RUNS["evolve.csv"]})
    assert regenerate([]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == "evolve.csv: unchanged"


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
