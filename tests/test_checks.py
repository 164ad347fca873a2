"""The verification suite as a library call."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from wavefall import (
    CHECK_NAMES,
    DenseOperator,
    Grid,
    PhysicalParams,
    VerifySettings,
    checks,
    default_config,
    dense_hamiltonian,
    interferometry,
    load_config,
    moments,
    run_all_checks,
    run_protocol,
    splitstep,
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
    eigh_calls, count_calls
):
    elements = count_calls(checks, "commutator_element")
    built = count_calls(checks, "dense_hamiltonian")
    run_all_checks(default_config())
    # one Hamiltonian per g, each H real: factorization_vs_dense_oracle's
    # is commutator_identity's at g = cfg.g; two elements per (g, t)
    assert [dtype for _, dtype in eigh_calls] == [np.float64] * 2
    assert len(built) == 2
    assert len(elements) == 8
    run_all_checks(default_config())
    assert len(eigh_calls) == 4  # a second run reuses nothing from the first
    assert len(built) == 4


def test_a_shared_operator_that_fails_its_guard_fails_both_oracle_checks(
    monkeypatch, eigh_calls, count_calls
):
    # the g = cfg.g operator, shared by both oracle checks, holds one NaN; its
    # guard raises on each use, since the operator caches no exception
    cfg = default_config()
    clean = run_all_checks(cfg)
    real = checks.dense_hamiltonian

    def nan_at_g(grid, params):
        h = real(grid, params)
        if params.g != cfg.params.g:
            return h
        matrix = np.array(h.matrix)
        matrix[3, 5] = math.nan
        return DenseOperator(grid, matrix, h.hbar)

    monkeypatch.setattr(checks, "dense_hamiltonian", nan_at_g)
    built = count_calls(checks, "dense_hamiltonian")
    poisoned = run_all_checks(cfg)
    assert len(built) == 2
    assert len(eigh_calls) == 2 + 1  # the clean run's, then g = 0's only
    oracle = {"factorization_vs_dense_oracle", "commutator_identity"}
    for before, after in zip(clean, poisoned):
        if after.name in oracle:
            assert not after.passed
            assert after.detail.startswith("NotHermitian: dense oracle: "), after.detail
        else:
            assert after == before


@given(
    hbar=st.floats(1e-200, 1e3),
    m=st.floats(1e-3, 1e3),
    x_min=st.floats(-30.0, 0.0),
    length=st.floats(1.0, 60.0),
    n=st.sampled_from([8, 64, 256]),
)
def test_signed_zero_g_keys_one_operator_of_the_same_bytes(hbar, m, x_min, length, n):
    # the run's memo compares keys by value, so g = -0.0 finds the g = 0.0
    # operator; every entry is c[|j - l|] plus a zero of either sign, so the
    # two matrices must have the same bytes
    grid = Grid(x_min, x_min + length, n)
    plus, minus = (PhysicalParams(hbar=hbar, m=m, g=g) for g in (0.0, -0.0))
    assert (grid, plus) == (grid, minus)
    assert hash((grid, plus)) == hash((grid, minus))
    assert (
        dense_hamiltonian(grid, plus).matrix.tobytes()
        == dense_hamiltonian(grid, minus).matrix.tobytes()
    )


def test_a_run_at_signed_zero_g_decomposes_one_operator(eigh_calls):
    cfg = default_config()
    results = run_all_checks(replace(cfg, params=replace(cfg.params, g=-0.0)))
    assert len(eigh_calls) == 1
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_sweeps_make_one_batched_call_per_route(count_calls):
    names = ("evolve_exact", "evolve_split_step", "_strang_rows", "moments")
    calls = {name: count_calls(checks, name) for name in names}
    run_all_checks(default_config())
    # evolve_exact: the oracle check, the two sweeps, strang_convergence_order
    # and protocol_symmetries; evolve_split_step: the two sweeps; the Strang
    # kernel: one stacked run of every step count; a pair of moments calls:
    # the two sweeps
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {
        "evolve_exact": 5, "evolve_split_step": 2, "_strang_rows": 1, "moments": 4
    }


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
        ("l2_distance", lambda *args: math.nan, "strang_convergence_order"),
    ],
)
def test_nan_deviation_fails_its_check(monkeypatch, attr, fake, name):
    # a dotted attr names a module other than checks
    monkeypatch.setattr(attr if "." in attr else f"wavefall.checks.{attr}", fake)
    result = next(r for r in run_all_checks(default_config()) if r.name == name)
    assert not result.passed
    assert "nan" in result.measured


def test_verify_runs_704_strang_loop_steps_in_4_runs(count_calls):
    # the three sweeps run _SWEEP_STEPS steps each, and strang_convergence_order
    # one stack of every step count, as long as its largest count; the
    # boundary guard runs once per loop step, on the rows still running
    guards = count_calls(splitstep, "_check_margin")
    public = [count_calls(m, "evolve_split_step") for m in (checks, interferometry)]
    kernel = [count_calls(m, "_strang_rows") for m in (splitstep, checks)]
    run_all_checks(default_config())
    counts = default_config().verify.step_counts
    assert len(guards) == 3 * checks._SWEEP_STEPS + max(counts) == 704
    # the row-steps are those of one single-row run per row: 6 + 2 + 9 rows
    # of _SWEEP_STEPS steps, and one row per step count
    row_steps = sum(len(stack) for stack, *_ in guards)
    assert row_steps == 17 * checks._SWEEP_STEPS + sum(counts) == 2048
    assert sum(map(len, public)) == 3
    assert sum(map(len, kernel)) == 4


def test_verify_fails_a_solver_whose_hbar_over_m_is_off_by_1e_8(monkeypatch):
    # m/(1 + 1e-8) and g (1 + 1e-8) keep m g, so only hbar/m moves, by 1e-8:
    # observables drift by ~4e-8 and the state less phi_N is 4.2e-9 from the
    # exact one, both far above the rounding bounds of the split-step checks.
    # Every split-step run, public or stacked, passes through the kernel.
    real = splitstep._strang_rows

    def scaled(p):
        return replace(p, m=p.m / (1 + 1e-8), g=p.g * (1 + 1e-8))

    def off_by_1e_8(psi, params, t, n_steps):
        params = [scaled(p) for p in params] if isinstance(params, list) else scaled(params)
        return real(psi, params, t, n_steps)

    for module in (splitstep, checks):
        monkeypatch.setattr(module, "_strang_rows", off_by_1e_8)
    failed = {r.name for r in run_all_checks(default_config()) if not r.passed}
    assert {
        "strang_convergence_order",
        "interference_phase_cross_validation",
        "ehrenfest_means",
    } <= failed


@pytest.mark.parametrize("n_random", [1000, checks._DRAW_BLOCK + 1])
def test_delta_action_draws_equal_five_scalar_uniform_calls_per_draw(
    count_calls, n_random
):
    # the block draws must give what five scalar draws per tuple gave, in the
    # same order, and leave the rng where those left it; each block makes one
    # batched delta_action call and two classical_action calls, at x0 and -x0
    deltas = count_calls(checks, "delta_action")
    actions = count_calls(checks, "classical_action")
    cfg = default_config()
    cfg = replace(cfg, verify=replace(cfg.verify, n_random=n_random))
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    assert checks._delta_action_identity(cfg, rng, None)["passed"]
    blocks = -(-n_random // checks._DRAW_BLOCK)
    assert (len(deltas), len(actions)) == (blocks, 2 * blocks)

    def rows(calls):
        return [list(zip(*args)) for args in calls]

    d_rows = [row for block in rows(deltas) for row in block]
    plus = [row for block in rows(actions[0::2]) for row in block]
    minus = [row for block in rows(actions[1::2]) for row in block]
    assert len(d_rows) == len(plus) == len(minus) == n_random
    lows, highs = (0.5, -2.0, 0.25, -5.0, -5.0), (3.0, 2.0, 3.0, 5.0, 5.0)
    for i in range(n_random):
        m, g, t, x0, xt = (ref.uniform(lo, hi) for lo, hi in zip(lows, highs))
        d_xt, d_t, pars = d_rows[i]
        assert (pars.m, pars.g, d_t, d_xt) == (m, g, t, xt)
        assert plus[i][:3] == (x0, xt, t)
        assert minus[i][:3] == (-x0, xt, t)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_verify_calls_each_closed_form_once_per_use(count_calls):
    # one batched call per use of a closed form per draw block, n rows in all
    names = ("classical_action", "shifted_free_action", "delta_action")
    calls = {name: count_calls(checks, name) for name in names}
    cfg = default_config()
    run_all_checks(cfg)
    n = cfg.verify.n_random
    blocks = -(-n // checks._DRAW_BLOCK)
    uses = {"classical_action": 2, "shifted_free_action": 2, "delta_action": 1}
    assert {name: len(c) for name, c in calls.items()} == {
        name: use * blocks for name, use in uses.items()
    }
    assert {name: sum(len(args[0]) for args in c) for name, c in calls.items()} == {
        name: use * n for name, use in uses.items()
    }


def test_a_nan_at_one_draw_fails_delta_action_identity(monkeypatch):
    # a NaN from a single draw, inside the first block, must reach the result
    real, calls = checks.delta_action, []

    def nan_at_draw_500(xt, t, params):
        calls.append(xt)
        out = real(xt, t, params)
        out[500] = math.nan
        return out

    monkeypatch.setattr(checks, "delta_action", nan_at_draw_500)
    result = next(
        r for r in run_all_checks(default_config()) if r.name == "delta_action_identity"
    )
    assert [len(xt) for xt in calls] == [1000]
    assert not result.passed
    assert "identity nan" in result.measured


def test_spread_check_fails_a_split_step_whose_mass_moves_with_g_by_1e_8(monkeypatch):
    # m (1 + 1e-8 g) makes sigma_x depend on g by ~1e-8, far below the old bare
    # 1e-6 bound and far above the rounding bound of about 2.6e-10
    real = splitstep.evolve_split_step

    def g_dependent_mass(psi, params, t, config):
        # rows of one call share m, so each row runs alone
        return [
            real(psi, replace(p, m=p.m * (1 + 1e-8 * p.g)), t_row, config)
            for p, t_row in zip(params, t)
        ]

    monkeypatch.setattr(checks, "evolve_split_step", g_dependent_mass)
    result = checks._spread_g_independence(default_config(), None, None)
    assert not result["passed"]
    assert "split-step < 2.6" in result["target"]


def test_delta_action_identity_fails_a_classical_action_off_by_1e_10(monkeypatch):
    real = checks.classical_action

    def off_by_1e_10(*args):
        return [a * (1 + 1e-10) for a in real(*args)]

    monkeypatch.setattr(checks, "classical_action", off_by_1e_10)
    result = checks._delta_action_identity(
        default_config(), np.random.default_rng(1), None
    )
    assert not result["passed"]


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def test_a_fringe_phase_a_turn_from_its_closed_form_verifies():
    # at x0 = 3.5 the principal phase sits a turn above the unwrapped closed
    # form; taken modulo 2 pi, the gap is rounding
    shipped = load_config(str(DEFAULT_CONFIG))
    cfg = replace(shipped, initial=replace(shipped.initial, x0=3.5))
    rec = run_protocol(checks._start_packet(cfg), cfg.params, 1.0)
    assert abs(rec.phase - rec.predicted_phase - 2.0 * math.pi) < 1e-5
    results = run_all_checks(cfg)
    failures = [f"{r.name}: {r.measured}" for r in results if not r.passed]
    assert not failures and len(results) == 9
    phase = next(r for r in results if r.name == "interference_phase_cross_validation")
    assert float(re.search(r"phase gap (\S+),", phase.measured).group(1)) < 1e-5


@pytest.mark.parametrize(
    "shift, passed",
    [(2.0 * math.pi, True), (-2.0 * math.pi, True), (2.0 * math.pi + 1e-3, False)],
)
def test_the_fringe_phase_gap_forgives_whole_turns_only(monkeypatch, shift, passed):
    real = checks.run_protocol

    def shifted(*args, **kwargs):
        rec = real(*args, **kwargs)
        return replace(rec, predicted_phase=rec.predicted_phase + shift)

    monkeypatch.setattr(checks, "run_protocol", shifted)
    result = checks._interference_phase_cross_validation(default_config(), None, None)
    assert result["passed"] is passed


@pytest.mark.parametrize(
    "shift, passed", [(2.0 * math.pi, True), (2.0 * math.pi + 1e-3, False)]
)
def test_the_gauge_phase_gap_forgives_whole_turns_only(monkeypatch, shift, passed):
    # two principal values near +-pi can sit a turn apart; the gauged run's
    # phase is moved here as they would be
    real_gauge, real_protocol = checks.apply_global_phase, checks.run_protocol
    gauged = []

    def gauge(psi, angle):
        gauged.append(real_gauge(psi, angle))
        return gauged[-1]

    def protocol(psi, *args, **kwargs):
        rec = real_protocol(psi, *args, **kwargs)
        if any(psi is g for g in gauged):
            return replace(rec, phase=rec.phase + shift)
        return rec

    monkeypatch.setattr(checks, "apply_global_phase", gauge)
    monkeypatch.setattr(checks, "run_protocol", protocol)
    result = checks._protocol_symmetries(default_config(), None, None)
    assert gauged and result["passed"] is passed
