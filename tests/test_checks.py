"""The verification suite as a library call."""

import math
from dataclasses import replace

import pytest

from wavefall import (
    CHECK_NAMES,
    VerifySettings,
    checks,
    default_config,
    moments,
    run_all_checks,
)


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


@pytest.mark.parametrize(
    "key, value, failing",
    [
        ("n_random", 0, {"delta_action_identity"}),
        ("n_oracle", 100, {"factorization_vs_dense_oracle", "commutator_identity"}),
        ("n_oracle", 256.0, {"factorization_vs_dense_oracle", "commutator_identity"}),
        ("step_counts", (64,), {"strang_convergence_order"}),
        ("c_values", (10.0, 20.0), {"relativistic_limit_scaling"}),
    ],
    ids=["n_random-0", "n_oracle-100", "n_oracle-float", "step_counts-one", "c_values-two"],
)
def test_bad_settings_built_in_code_fail_their_checks(key, value, failing):
    # parse_config refuses these values; built in code they reach the checks,
    # which report FAIL naming the setting instead of raising or passing
    cfg = replace(default_config(), verify=VerifySettings(**{key: value}))
    results = run_all_checks(cfg)
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert {r.name for r in results if not r.passed} == failing
    for r in results:
        if r.name in failing:
            assert r.detail.startswith(f"ConfigError: verify.{key}: "), r.detail


def _nan_moments(states, params):
    return [replace(m, sigma_x=math.nan) for m in moments(states, params)]


@pytest.mark.parametrize(
    "attr, fake, name",
    [
        ("commutator_element", lambda *args: complex(math.nan), "commutator_identity"),
        ("moments", _nan_moments, "spread_g_independence"),
        ("delta_action", lambda *args: math.nan, "delta_action_identity"),
        ("ehrenfest_mean", lambda *args: (math.nan, math.nan), "ehrenfest_means"),
        (
            "wavefall.splitstep.l2_distance",
            lambda *args: math.nan,
            "strang_convergence_order",
        ),
    ],
)
def test_nan_deviation_fails_its_check(monkeypatch, attr, fake, name):
    # a dotted attr names a module other than checks
    monkeypatch.setattr(attr if "." in attr else f"wavefall.checks.{attr}", fake)
    result = next(r for r in run_all_checks(default_config()) if r.name == name)
    assert not result.passed
    assert "nan" in result.measured
