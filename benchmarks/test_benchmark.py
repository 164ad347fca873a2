"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks -q

They run one real iteration of each workload (untraced and traced) and check
that tracing changes no output byte, that the gate rejects damaged outputs,
and that the traced work counts repeat exactly.
"""

from __future__ import annotations

import importlib
import json
import types

import pytest

import workloads

workloads.import_wavefall()

import gate  # noqa: E402  (needs wavefall on the path)
import run  # noqa: E402
import tracing  # noqa: E402
from wavefall import cli  # noqa: E402
from wavefall.config import parse_config  # noqa: E402
from wavefall.core import make_gaussian  # noqa: E402

SEED = 7
SELFTEST_DIR = run.OUT_DIR / "selftest"


def _iterate(workload: str, traced: bool):
    workdir = SELFTEST_DIR / workload / ("traced" if traced else "untraced")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = [run.Job(c, workdir) for c in workloads.build(workload, SEED)]
    for job in jobs:
        job.compute_reference(cli, gate, workdir)
    tracer = tracing.Tracer() if traced else None
    _, results = run.run_iteration(cli, jobs, tracer)
    problems = run.gate_iteration(gate, jobs, results, {})
    outputs = {job.command.name: job.out_path.read_bytes() for job in jobs}
    summary = tracer.iteration_summaries()[0] if traced else None
    return jobs, problems, outputs, summary


@pytest.fixture(scope="module")
def iterations():
    return {
        w: {traced: _iterate(w, traced) for traced in (False, True)}
        for w in workloads.WORKLOADS
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_iteration_writes_identical_outputs(iterations, workload):
    _, plain_problems, plain, _ = iterations[workload][False]
    _, traced_problems, traced, _ = iterations[workload][True]
    assert plain_problems == [] and traced_problems == []
    assert plain == traced


def test_tracer_restores_every_function(iterations):
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"wavefall.{layer}")
        for attr, obj in vars(module).items():
            if isinstance(obj, types.FunctionType):
                assert not hasattr(obj, "__wrapped__"), f"{layer}.{attr} still traced"


def _damaged(job, text: str):
    job.out_path.write_text(text, encoding="utf-8")
    return gate.check(job.command, 0, job.out_path, job.reference_rows)


def test_gate_rejects_corrupted_csv(iterations):
    jobs, _, outputs, _ = iterations["interfere-split"][False]
    job = jobs[0]
    good = outputs[job.command.name].decode()
    assert _damaged(job, good) == []
    lines = good.split("\n")
    truncated = "\n".join(lines[:3] + [lines[3].rsplit(",", 2)[0]] + lines[4:])
    assert _damaged(job, truncated)
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)  # phase off by 1e-3 rad
    assert _damaged(job, "\n".join(lines[:2] + [",".join(cells)] + lines[3:]))
    assert _damaged(job, "\n".join(lines[:-2]) + "\n")  # a row missing
    job.out_path.unlink()
    assert gate.check(job.command, 0, job.out_path, job.reference_rows)


@pytest.mark.parametrize("column", [1, 3, 4, 6, 7])
def test_gate_rejects_nan_cell(iterations, column):
    jobs, _, outputs, _ = iterations["interfere-split"][False]
    job = jobs[0]
    lines = outputs[job.command.name].decode().split("\n")
    cells = lines[5].split(",")
    cells[column] = "nan"
    assert _damaged(job, "\n".join(lines[:5] + [",".join(cells)] + lines[6:]))


def test_gate_rejects_nan_in_evolve(iterations):
    jobs, _, outputs, _ = iterations["evolve-fine"][False]
    job = jobs[0]
    lines = outputs[job.command.name].decode().split("\n")
    cells = lines[1].split(",")
    cells[6] = "nan"  # norm_error
    assert _damaged(job, "\n".join(lines[:1] + [",".join(cells)] + lines[2:]))


def test_gate_rejects_one_failed_verify_check(iterations):
    jobs, _, outputs, _ = iterations["verify"][False]
    job = jobs[0]
    summary = json.loads(outputs["verify"])
    assert gate.check(job.command, 0, job.out_path) == []
    summary["checks"][4]["passed"] = False
    job.out_path.write_text(json.dumps(summary))
    assert gate.check(job.command, 0, job.out_path)
    assert gate.check(job.command, 1, job.out_path)


def test_splitstep_steps_repeat_exactly(iterations):
    first = iterations["interfere-split"][True][3]
    second = _iterate("interfere-split", True)[3]
    # 10 colocated readouts x 2 branches + 2 branches x 2 segments, 2048 steps each.
    assert first["splitstep.steps"] == second["splitstep.steps"] == 24 * 2048
    assert first["splitstep.calls"] == second["splitstep.calls"] == 24


def test_traced_layers_separate(iterations):
    summaries = {w: iterations[w][True][3] for w in workloads.WORKLOADS}
    assert summaries["interfere-analytic"]["splitstep.calls"] == 0
    assert {w for w, s in summaries.items() if s["oracle.calls"] > 0} == {"verify"}
    for summary in summaries.values():
        self_total = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert self_total == pytest.approx(summary["root_s"], rel=1e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_are_valid_for_many_seeds(workload):
    assert workloads.build(workload, 3) == workloads.build(workload, 3)
    for seed in range(-5, 200):
        for command in workloads.build(workload, seed):
            cfg = parse_config(command.config)
            init = cfg.initial
            make_gaussian(cfg.grid, init.x0, init.p0, init.sigma0, cfg.params)
