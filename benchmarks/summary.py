"""Run every workload and print every metric by name and unit.

    python3 benchmarks/summary.py [--seed N] [--seconds S] [--trace] [--record FILE]

Runs benchmarks/run.py once per workload, one workload at a time, for
BENCHMARK.json's run_seconds unless --seconds is given, and prints
the end-to-end metrics (with the wall-time solve_s, its sample count and tail
percentile, and fail_frac).  --trace adds the traced run of each workload, its per-layer
metrics and the layer-separation checks from README.md.  --record writes all
reports, with their provenance blocks, to FILE.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
OUT_DIR = Path(__file__).resolve().parent / "out"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, echo its report lines, and return its full report."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    *lines, last = proc.stdout.strip().splitlines()
    print("\n".join(lines), flush=True)
    report = json.loads((OUT_DIR / workload / f"result-trace{trace}.json").read_text())
    report["correct"] = json.loads(last)["correct"]
    return report


def layer_checks(traced: dict[str, dict]) -> list[tuple[str, bool]]:
    """The separations the workloads are built to show, from the traced runs."""
    value = {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in traced.items()}
    with_oracle = sorted(w for w, v in value.items() if v["oracle.calls"] > 0)
    split = value["interfere-split"]
    checks = [
        ("splitstep.calls = 0 on interfere-analytic",
         value["interfere-analytic"]["splitstep.calls"] == 0),
        (f"oracle.calls > 0 only on verify (got {with_oracle})", with_oracle == ["verify"]),
        ("splitstep.self_s > half of trace.solve_s on interfere-split",
         split["splitstep.self_s"] > 0.5 * split["trace.solve_s"]),
    ]
    for w, v in value.items():
        share = abs(v["trace.unaccounted_s"]) / v["trace.solve_s"]
        checks.append((f"layer self times sum to trace.solve_s on {w} "
                       f"(unaccounted {share:.1e} of it)", share < 1e-3))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)

    reports: dict[str, dict] = {}
    all_correct = True
    for workload in WORKLOADS:
        report = run_workload(workload, args.seed, args.seconds, 0)
        reports[workload] = {"trace0": report}
        all_correct &= report["correct"]
    if args.trace:
        for workload in WORKLOADS:
            report = run_workload(workload, args.seed, args.seconds, 1)
            reports[workload]["trace1"] = report
            all_correct &= report["correct"]
        for text, ok in layer_checks({w: r["trace1"] for w, r in reports.items()}):
            print(f"{'ok  ' if ok else 'FAIL'} {text}")
    if args.record:
        args.record.write_text(json.dumps(reports, indent=1) + "\n")
        print(f"recorded {args.record}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
