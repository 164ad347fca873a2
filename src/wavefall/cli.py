"""Command-line front end: evolve, interfere, verify.

All three commands are deterministic: the same config (and seed) produces
byte-identical output files.  CSV values carry 17 significant digits with LF
line endings.  Exit codes: 0 success, 1 verify found a failing check,
2 config validation failure, 3 grid overflow, 4 phase aliasing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_all_checks
from .config import RunConfig, _seed, default_config, load_config
from .core import make_gaussian, moments
from .analytic import evolve_exact
from .errors import ConfigError, GridOverflow, PhaseAliasing, WavefallError
from .interferometry import fringe_scan
from .splitstep import SolverConfig, evolve_split_step

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_ALIASING = 4


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {path}")


def _initial_state(cfg: RunConfig):
    return make_gaussian(
        cfg.grid, cfg.initial.x0, cfg.initial.p0, cfg.initial.sigma0, cfg.params
    )


def _cmd_evolve(cfg: RunConfig, out_path: str) -> int:
    if cfg.evolve is None:
        raise ConfigError("evolve command needs an \"evolve\" block in the config")
    psi0 = _initial_state(cfg)
    header = [
        "t",
        "mean_x_exact",
        "mean_p_exact",
        "sigma_x_exact",
        "mean_x_numeric",
        "sigma_x_numeric",
        "norm_error",
    ]
    times = cfg.evolve.t_values
    exact_moments = moments(evolve_exact(psi0, cfg.params, times), cfg.params)
    numeric_states = evolve_split_step(
        psi0, cfg.params, times, SolverConfig(cfg.evolve.n_steps)
    )
    numeric_moments = moments(numeric_states, cfg.params)
    rows = []
    for t, exact, numeric in zip(times, exact_moments, numeric_moments):
        norm_error = max(abs(exact.norm - 1.0), abs(numeric.norm - 1.0))
        rows.append(
            [
                t,
                exact.mean_x,
                exact.mean_p,
                exact.sigma_x,
                numeric.mean_x,
                numeric.sigma_x,
                norm_error,
            ]
        )
    _write_csv(out_path, header, rows)
    return EXIT_OK


def _cmd_interfere(cfg: RunConfig, out_path: str) -> int:
    if cfg.interfere is None:
        raise ConfigError("interfere command needs an \"interfere\" block in the config")
    psi0 = _initial_state(cfg)
    settings = cfg.interfere
    records = fringe_scan(
        psi0,
        cfg.params,
        list(settings.t_values),
        scheme=settings.scheme,
        backend=settings.backend,
        n_steps=settings.n_steps,
    )
    header = [
        "t",
        "re_overlap",
        "im_overlap",
        "visibility",
        "phase",
        "phase_unwrapped",
        "predicted_phase",
        "predicted_visibility",
    ]
    rows = [
        [
            r.t,
            r.overlap.real,
            r.overlap.imag,
            r.visibility,
            r.phase,
            r.phase_unwrapped,
            r.predicted_phase,
            r.predicted_visibility,
        ]
        for r in records
    ]
    _write_csv(out_path, header, rows)
    return EXIT_OK


def _suggest_denser(t_values) -> list[float]:
    times = [float(t) for t in t_values]
    refined = []
    for a, b in zip(times, times[1:]):
        refined.extend((a, 0.5 * (a + b)))
    refined.append(times[-1])
    return refined


def _cmd_verify(cfg: RunConfig, out_path: str | None, seed: int | None) -> int:
    if seed is not None:
        _seed(seed, "--seed")
    results = run_all_checks(cfg, seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}: measured {r.measured}, target {r.target}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
    all_pass = all(r.passed for r in results)
    print(f"{'all checks passed' if all_pass else 'CHECKS FAILED'}: "
          f"{sum(r.passed for r in results)}/{len(results)}")
    if out_path:
        summary = {
            "all_pass": all_pass,
            "seed": cfg.seed if seed is None else seed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "target": r.target,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavefall",
        description=(
            "Wave packets in a uniform linear potential: exact, numeric, "
            "and interferometric runs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="moments vs time for both backends (CSV)")
    p_evolve.add_argument("--config", required=True, help="JSON config path")
    p_evolve.add_argument("--out", required=True, help="output CSV path")

    p_inter = sub.add_parser("interfere", help="fringe scan records (CSV)")
    p_inter.add_argument("--config", required=True, help="JSON config path")
    p_inter.add_argument("--out", required=True, help="output CSV path")

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument(
        "--config", default=None, help="JSON config path (built-in defaults if omitted)"
    )
    p_verify.add_argument("--out", default=None, help="optional JSON summary path")
    p_verify.add_argument("--seed", type=int, default=None, help="override config seed")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.command == "evolve":
            return _cmd_evolve(cfg, args.out)
        if args.command == "interfere":
            return _cmd_interfere(cfg, args.out)
        return _cmd_verify(cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GridOverflow as exc:
        print(f"grid overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except PhaseAliasing as exc:
        print(f"phase aliasing: {exc}", file=sys.stderr)
        if args.command == "interfere" and cfg.interfere is not None:
            denser = _suggest_denser(cfg.interfere.t_values)
            print(
                "suggested denser t_values: "
                + json.dumps([round(t, 12) for t in denser]),
                file=sys.stderr,
            )
        return EXIT_ALIASING
    except WavefallError as exc:
        # Residual domain errors stem from invalid run setups.
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # Unwritable --out path; config read errors are wrapped upstream.
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
