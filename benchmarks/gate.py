"""Correctness gate applied to every benchmark iteration's output files.

Every comparison is written fail-closed, `not (err < tol)`, so a NaN, a blank
cell or a missing row fails the gate instead of slipping past it.  The
tolerances are the ones the verification suite in wavefall/checks.py uses for
the same cross-checks.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from wavefall.action import ehrenfest_mean
from wavefall.checks import CHECK_NAMES
from wavefall.core import PhysicalParams

# checks._interference_phase_cross_validation: phase, visibility and backend gaps.
PHASE_TOL = 1e-5
VISIBILITY_TOL = 1e-4
BACKEND_TOL = 1e-5
# checks._ehrenfest_means: worst |mean - classical|.
MOMENT_TOL = 1e-6
NORM_TOL = 1e-10
# Readout times are written with 17 significant digits.
TIME_TOL = 1e-12

INTERFERE_HEADER = (
    "t",
    "re_overlap",
    "im_overlap",
    "visibility",
    "phase",
    "phase_unwrapped",
    "predicted_phase",
    "predicted_visibility",
)
EVOLVE_HEADER = (
    "t",
    "mean_x_exact",
    "mean_p_exact",
    "sigma_x_exact",
    "mean_x_numeric",
    "sigma_x_numeric",
    "norm_error",
)
PHASE_COLUMNS = ("phase", "phase_unwrapped", "predicted_phase")


def _cell(text: str) -> float | None:
    return float(text) if text else None


def read_csv(path: Path, header: tuple[str, ...]) -> list[dict]:
    """Rows of a CLI CSV as dicts; raises ValueError on any malformed line."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    lines = lines[:-1]
    if not lines or tuple(lines[0].split(",")) != header:
        raise ValueError(f"header differs from {','.join(header)}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {i}: {len(cells)} cells, expected {len(header)}")
        rows.append(dict(zip(header, map(_cell, cells))))
    return rows


def _gap(a: float | None, b: float | None, wrap: bool = False) -> float:
    """|a - b| (modulo 2 pi when wrap); NaN when a cell is blank."""
    if a is None or b is None:
        return math.nan
    d = a - b
    return abs(math.remainder(d, 2.0 * math.pi) if wrap else d)


def _require(problems: list[str], what: str, gap: float, tol: float) -> None:
    if not gap < tol:
        problems.append(f"{what}: gap {gap:.3e} not below {tol:.0e}")


def _check_times(rows: list[dict], times: list[float], problems: list[str]) -> None:
    if len(rows) != len(times):
        problems.append(f"{len(rows)} rows for {len(times)} readout times")
    for row, t in zip(rows, times):
        _require(problems, f"t={t} time column", _gap(row["t"], t), TIME_TOL)


def check_interfere(cfg: dict, path: Path, reference: list[dict] | None) -> list[str]:
    """Colocated rows match the closed forms; every row matches the reference."""
    problems: list[str] = []
    rows = read_csv(path, INTERFERE_HEADER)
    settings = cfg["interfere"]
    _check_times(rows, settings["t_values"], problems)
    if settings["scheme"] == "colocated":
        for row in rows:
            t = row["t"]
            _require(
                problems,
                f"t={t} phase vs predicted",
                _gap(row["phase"], row["predicted_phase"], wrap=True),
                PHASE_TOL,
            )
            _require(
                problems,
                f"t={t} visibility vs predicted",
                _gap(row["visibility"], row["predicted_visibility"]),
                VISIBILITY_TOL,
            )
    if reference is not None:
        if len(reference) != len(rows):
            problems.append(f"{len(rows)} rows, analytic reference has {len(reference)}")
        for row, ref in zip(rows, reference):
            for col in INTERFERE_HEADER[1:]:
                _require(
                    problems,
                    f"t={row['t']} {col} vs analytic backend",
                    _gap(row[col], ref[col], wrap=col in PHASE_COLUMNS),
                    BACKEND_TOL,
                )
    return problems


def check_evolve(cfg: dict, path: Path) -> list[str]:
    """Numeric moments match the exact ones, which follow the classical fall."""
    problems: list[str] = []
    rows = read_csv(path, EVOLVE_HEADER)
    _check_times(rows, cfg["evolve"]["t_values"], problems)
    params = PhysicalParams(**cfg["params"])
    x0, p0 = cfg["initial"]["x0"], cfg["initial"]["p0"]
    for row in rows:
        t = row["t"]
        if t is None:
            continue  # already reported by _check_times
        for exact, numeric in (("mean_x_exact", "mean_x_numeric"),
                               ("sigma_x_exact", "sigma_x_numeric")):
            _require(problems, f"t={t} {numeric} vs exact",
                     _gap(row[numeric], row[exact]), MOMENT_TOL)
        want_x, want_p = ehrenfest_mean(x0, p0, t, params)
        _require(problems, f"t={t} mean_x_exact vs ehrenfest_mean",
                 _gap(row["mean_x_exact"], want_x), MOMENT_TOL)
        _require(problems, f"t={t} mean_p_exact vs ehrenfest_mean",
                 _gap(row["mean_p_exact"], want_p), MOMENT_TOL)
        _require(problems, f"t={t} norm_error", _gap(row["norm_error"], 0.0), NORM_TOL)
    return problems


def check_verify(rc: int, path: Path) -> list[str]:
    """Exit 0, all_pass, and every named check present and passed."""
    problems: list[str] = []
    if rc != 0:
        problems.append(f"verify exited {rc}")
    summary = json.loads(path.read_text(encoding="utf-8"))
    if summary.get("all_pass") is not True:
        problems.append("all_pass is not true")
    checks = summary.get("checks", [])
    names = tuple(c.get("name") for c in checks)
    if names != CHECK_NAMES:
        problems.append(f"checks {names} differ from {CHECK_NAMES}")
    problems.extend(
        f"check {c.get('name')} failed: {c.get('measured')}"
        for c in checks
        if c.get("passed") is not True
    )
    return problems


def check(command, rc: int, path: Path, reference: list[dict] | None = None) -> list[str]:
    """Problems with one command's output; an empty list means it passed."""
    try:
        if command.subcommand == "verify":
            return check_verify(rc, path)
        if rc != 0:
            return [f"{command.subcommand} exited {rc}"]
        if command.subcommand == "evolve":
            return check_evolve(command.config, path)
        return check_interfere(command.config, path, reference)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output {path.name}: {type(exc).__name__}: {exc}"]
