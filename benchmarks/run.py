"""wavefall benchmark: one workload, one closed-loop caller, in-process CLI calls.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's configs are generated from
--seed; each iteration calls wavefall.cli.main([...]) for every command of
the workload, times the calls, and gates the output files.  A fixed
reference kernel is timed between iterations, so that each iteration's time
can be read against the host's speed at that moment.  --trace 0 prints the
end-to-end metrics (solve_ref, setup_s, peak_rss_mb); --trace 1 alternates
untraced and traced iterations and prints the per-layer metrics.  The last
stdout line is the result JSON; a fuller report, with the provenance block,
goes to benchmarks/out/<workload>/result-trace<k>.json.  README.md names every
metric and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import ROOT, SRC, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

# One caller and one thread: BLAS is pinned to a single thread so that runs
# on a shared host stay comparable.  main() sets it in os.environ before numpy
# is first imported, and the set-up probes inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
IMPORTTIME_PROBES = 3
MIN_SAMPLES = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Job:
    """One command of an iteration with its config, output and reference files."""

    def __init__(self, command: workloads.Command, workdir: Path):
        self.command = command
        suffix = ".json" if command.subcommand == "verify" else ".csv"
        self.config_path = workdir / f"{command.name}.config.json"
        self.out_path = workdir / f"{command.name}.out{suffix}"
        self.argv = [command.subcommand, "--config", str(self.config_path),
                     "--out", str(self.out_path)]
        self.config_path.write_text(json.dumps(command.config, indent=1) + "\n")
        self.reference_rows = None

    def compute_reference(self, cli, gate, workdir: Path) -> None:
        """Run the analytic twin once; split-step rows are gated against it."""
        ref = self.command.reference
        if ref is None:
            return
        cfg_path = workdir / f"{self.command.name}.reference.config.json"
        out_path = workdir / f"{self.command.name}.reference.csv"
        cfg_path.write_text(json.dumps(ref, indent=1) + "\n")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["interfere", "--config", str(cfg_path), "--out", str(out_path)])
        if rc != 0:
            raise RuntimeError(f"analytic reference for {self.command.name} exited {rc}")
        self.reference_rows = gate.read_csv(out_path, gate.INTERFERE_HEADER)


def call_cli(cli, argv) -> tuple[int | None, str]:
    """One in-process CLI call; a raise or SystemExit is a failed call."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv), ""
    except (Exception, SystemExit) as exc:  # the iteration records it as failed
        return None, f"{type(exc).__name__}: {exc}"


def run_iteration(cli, jobs, tracer=None) -> tuple[float, list]:
    """Run every command of one iteration; (elapsed seconds, [(rc, error)])."""
    results = []
    for job in jobs:
        # A command that writes nothing must not be gated on an older file.
        job.out_path.unlink(missing_ok=True)
    ctx = tracer if tracer is not None else contextlib.nullcontext()
    with ctx:
        t0 = time.perf_counter()
        for job in jobs:
            # cli.main is looked up on the module, so an installed tracer sees it.
            results.append(call_cli(cli, job.argv))
        elapsed = time.perf_counter() - t0
    return elapsed, results


def gate_iteration(gate, jobs, results, expected: dict) -> list[str]:
    """Gate problems of one iteration; the first passing bytes become expected.

    The CLI is byte-deterministic, so every iteration (traced or not) must
    write the same bytes as the first one.
    """
    problems = []
    for job, (rc, error) in zip(jobs, results):
        name = job.command.name
        if error:
            problems.append(f"{name}: raised {error}")
            continue
        found = gate.check(job.command, rc, job.out_path, job.reference_rows)
        problems.extend(f"{name}: {p}" for p in found)
        if found:
            continue
        data = job.out_path.read_bytes()
        if expected.setdefault(name, data) != data:
            problems.append(f"{name}: output bytes differ from the first iteration")
    return problems


def setup_probe(config_path: Path) -> float:
    """Wall seconds from spawning a fresh interpreter until the probe is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path)],
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {rc} with {line!r}")
    return elapsed


def import_times() -> tuple[float, float]:
    """Median cumulative -X importtime of wavefall and wavefall.relativistic, s."""
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import wavefall"
    total, relativistic = [], []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        cumulative = {
            m.group(2): int(m.group(1)) * 1e-6
            for m in map(pattern.match, proc.stderr.splitlines())
            if m
        }
        total.append(cumulative["wavefall"])
        relativistic.append(cumulative["wavefall.relativistic"])
    return statistics.median(total), statistics.median(relativistic)


def fft_floor_us(n: int) -> float:
    """Reference kernel, not the program: one numpy fft+ifft pair at size n, µs."""
    import numpy as np

    amp = np.exp(1j * np.linspace(0.0, 1.0, n))
    reps = max(20, 400_000 // n)
    blocks = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(reps):
            amp = np.fft.ifft(np.fft.fft(amp))
        blocks.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(blocks)


@functools.cache
def _reference_inputs() -> list[tuple]:
    import numpy as np

    inputs = []
    for n, reps in ((256, 300), (4096, 30)):
        x = np.linspace(-20.0, 20.0, n)
        k = np.fft.fftfreq(n)
        inputs.append((reps, np.exp(-x * x + 0.3j * x), np.exp(-0.01j * x * x),
                       np.exp(-0.01j * k * k)))
    return inputs


def reference_kernel() -> float:
    """Reference kernel, not the program: wall seconds of a fixed amount of work.

    Strang-like numpy steps at n=256 and n=4096 and a pure-Python loop: the
    mix of small-array numpy calls, FFT work and interpreter overhead that the
    workloads spend their time on.  The host's speed drifts by up to 2x over
    seconds to minutes, and slows this kernel and the program alike, so an
    iteration's time divided by this kernel's time around it is steady where
    the wall time is not.
    """
    import numpy as np

    t0 = time.perf_counter()
    for reps, psi, phase, kinetic in _reference_inputs():
        for _ in range(reps):
            psi = np.fft.ifft(np.fft.fft(psi * phase) * kinetic) * phase
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return time.perf_counter() - t0


def tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return {
        "percentile": math.floor(100 * (n - TAIL_BEYOND) / n),
        "value": sorted(samples)[n - TAIL_BEYOND - 1],
    }


def git_commit() -> str | None:
    """HEAD of the checkout's .git, read directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Hash of the package sources, so a result names its code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "wavefall").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def provenance(args, commands) -> dict:
    import numpy
    import scipy
    import wavefall

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "wavefall": wavefall.__version__,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one workload at a time",
        "configs": {c.name: c.config for c in commands},
    }


def measure(args, cli, gate, jobs, tracer, setup_config: Path | None) -> dict:
    """The timed closed loop: warm-up, then iterations for --seconds.

    Each pass of the loop runs one iteration per arm, then the reference
    kernel; an iteration's reference time is the mean of the kernel runs just
    before and just after it.  With setup_config, SETUP_PROBES set-up probes
    are spread evenly over the loop, after one untimed probe that writes the
    bytecode caches; their time is not charged to --seconds.
    """
    expected: dict = {}
    failures: list[str] = []
    attempted = failed = 0
    samples: dict[bool, list[float]] = {False: [], True: []}
    refs: list[float] = []
    setup: list[float] = []

    def iterate(traced: bool) -> float:
        nonlocal attempted, failed
        elapsed, results = run_iteration(cli, jobs, tracer if traced else None)
        problems = gate_iteration(gate, jobs, results, expected)
        attempted += 1
        if problems:
            failed += 1
            failures.extend(problems[:3])
        return elapsed

    iterate(False)  # warm-up: gated and counted, not timed
    probes = SETUP_PROBES if setup_config is not None else 0
    if probes:
        setup_probe(setup_config)
    arms = (False, True) if tracer is not None else (False,)
    paused = 0.0
    ref_before = reference_kernel()
    start = time.perf_counter()
    while (
        time.perf_counter() - start - paused < args.seconds
        or min(len(samples[arm]) for arm in arms) < MIN_SAMPLES
    ):
        for traced in arms:
            samples[traced].append(iterate(traced))
        ref_after = reference_kernel()
        refs.append(0.5 * (ref_before + ref_after))
        ref_before = ref_after
        if len(setup) < probes * (time.perf_counter() - start - paused) / args.seconds:
            t0 = time.perf_counter()
            setup.append(setup_probe(setup_config))
            paused += time.perf_counter() - t0
    while len(setup) < probes:
        setup.append(setup_probe(setup_config))
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "untraced": samples[False],
        "traced": samples[True],
        "reference": refs,
        "setup_samples": setup,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wavefall" / "__init__.py").is_file():
        print(f"benchmark: no wavefall sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    commands = workloads.build(args.workload, args.seed)
    workdir = OUT_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = [Job(c, workdir) for c in commands]

    # Imported only now: they load numpy, which must see BLAS_ENV.
    workloads.import_wavefall()
    import gate
    import tracing
    from wavefall import cli

    for job in jobs:
        job.compute_reference(cli, gate, workdir)
    tracer = tracing.Tracer() if args.trace else None
    report = measure(args, cli, gate, jobs, tracer,
                     None if args.trace else jobs[0].config_path)
    untraced = report["untraced"]
    solve_s = statistics.median(untraced)
    report["solve_s"] = solve_s
    report["solve_ref"] = statistics.median(
        p / r for p, r in zip(untraced, report["reference"]))
    report["solve_s_samples"] = len(untraced)
    report["solve_s_tail"] = tail(untraced)
    report["fail_frac"] = report["failed"] / report["attempted"]

    if args.trace == 0:
        metrics = {
            "solve_ref": (report["solve_ref"], "ref"),
            "setup_s": (statistics.median(report["setup_samples"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = tracing.layer_metrics(tracer.iteration_summaries())
        traced = report["traced"]
        traced_mean = statistics.fmean(traced)
        import_s, relativistic_import_s = import_times()
        layers.update({
            "splitstep.fft_floor_us": fft_floor_us(max(c.config["grid"]["n"] for c in commands)),
            "setup.import_s": import_s,
            "setup.relativistic_import_s": relativistic_import_s,
            "trace.solve_s": traced_mean,
            "trace.unaccounted_s": traced_mean - sum(
                v for k, v in layers.items() if k.endswith(".self_s") or k == "config.load_s"
            ),
            "trace.overhead_s": statistics.median(traced) - solve_s,
        })
        metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}
        tracer.write(workdir / "spans.npz")

    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["provenance"] = provenance(args, commands)
    result_path = workdir / f"result-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:32s} {value:14.6g} {unit}")
    tail_note = report["solve_s_tail"]
    print(f"{args.workload:20s} {'solve_s (wall median)':32s} {solve_s:14.6g} s, "
          f"{len(untraced)} samples"
          + (f", p{tail_note['percentile']} {tail_note['value']:.6g} s" if tail_note else ""))
    print(f"{args.workload:20s} {'fail_frac':32s} {report['fail_frac']:14.6g} "
          f"({report['failed']}/{report['attempted']})")
    for problem in report["failures"]:
        print(f"FAILED {problem}")
    host = {k: v for k, v in report["provenance"].items() if k != "configs"}
    print(f"provenance: {json.dumps(host)}")
    print(f"report (with the generated configs): {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
