"""The verification suite as a library call."""

import math
from dataclasses import replace

import pytest

from wavefall import CHECK_NAMES, checks, default_config, moments, run_all_checks


def test_all_checks_pass_on_defaults():
    results = run_all_checks(default_config())
    assert [r.name for r in results] == list(CHECK_NAMES)
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]


def test_results_carry_measured_and_target_text():
    results = run_all_checks(default_config())
    for r in results:
        assert r.measured
        assert r.target


def test_one_eigendecomposition_per_hamiltonian_and_none_across_runs(
    eigh_calls, monkeypatch
):
    heisenberg = []
    real = checks.heisenberg_position

    def counting(*args):
        heisenberg.append(args)
        return real(*args)

    monkeypatch.setattr(checks, "heisenberg_position", counting)
    run_all_checks(default_config())
    # one Hamiltonian for factorization_vs_dense_oracle, one per g for
    # commutator_identity; one x(t) per (g, t)
    assert len(eigh_calls) == 3
    assert len(heisenberg) == 4
    run_all_checks(default_config())
    assert len(eigh_calls) == 6  # a second run reuses nothing from the first


def test_sweeps_make_one_batched_call_per_route(count_calls):
    names = ("evolve_exact", "evolve_split_step", "moments")
    calls = {name: count_calls(checks, name) for name in names}
    run_all_checks(default_config())
    # evolve_exact: the oracle check, the two sweeps and protocol_symmetries;
    # evolve_split_step and a pair of moments calls: the two sweeps
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {"evolve_exact": 4, "evolve_split_step": 2, "moments": 4}


def _nan_moments(states, params):
    return [replace(m, sigma_x=math.nan) for m in moments(states, params)]


@pytest.mark.parametrize(
    "attr, fake, name",
    [
        ("commutator_element", lambda *args: complex(math.nan), "commutator_identity"),
        ("moments", _nan_moments, "spread_g_independence"),
        ("delta_action", lambda *args: math.nan, "delta_action_identity"),
        ("ehrenfest_mean", lambda *args: (math.nan, math.nan), "ehrenfest_means"),
    ],
)
def test_nan_deviation_fails_its_check(monkeypatch, attr, fake, name):
    monkeypatch.setattr(checks, attr, fake)
    result = next(r for r in run_all_checks(default_config()) if r.name == name)
    assert not result.passed
    assert "nan" in result.measured
