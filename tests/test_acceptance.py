"""Acceptance gate: every cross-validation the package promises, at its
stated tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is independent and pinned to explicit literals rather than
fixtures so the gate reads as a standalone contract.
"""

import cmath
import json
import math
import subprocess
import sys

import numpy as np

from wavefall import (
    AccelSchedule,
    BranchSchedules,
    Grid,
    PhysicalParams,
    SolverConfig,
    Trajectory,
    apply_global_phase,
    classical_action,
    commutator_element,
    delta_action,
    dense_hamiltonian,
    ehrenfest_mean,
    evolve_dense,
    evolve_exact,
    evolve_piecewise,
    evolve_split_step,
    l2_distance,
    make_gaussian,
    moments,
    nr_limit_check,
    overlap,
    proper_time,
    run_protocol,
    shifted_free_action,
    static_proper_time,
)

PARAMS = PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=10.0)
GRID = Grid(x_min=-20.0, x_max=20.0, n=256)


def canonical_packet():
    return make_gaussian(GRID, 0.0, 0.0, 1.0, PARAMS)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_exact_propagator_matches_dense_oracle():
    # the factored product and evolution in the eigenbasis of H are two
    # independent routes to the same unitary
    psi = canonical_packet()
    dense = evolve_dense(dense_hamiltonian(GRID, PARAMS), psi, 1.0)
    err = l2_distance(evolve_exact(psi, PARAMS, 1.0), dense)
    report(
        "exact_propagator_matches_dense_oracle",
        err < 1e-6,
        f"L2 distance {err:.3e} (tolerance 1e-6, n=256, t=1)",
    )


def test_spread_is_independent_of_gravity():
    psi = canonical_packet()
    free = PhysicalParams(hbar=1.0, m=1.0, g=0.0, c=10.0)
    worst_exact = 0.0
    worst_split = 0.0
    for t in (0.5, 1.0, 2.0):
        sig_g = moments(evolve_exact(psi, PARAMS, t), PARAMS).sigma_x
        sig_0 = moments(evolve_exact(psi, free, t), PARAMS).sigma_x
        worst_exact = max(worst_exact, abs(sig_g - sig_0) / sig_0)
        num_g = moments(
            evolve_split_step(psi, PARAMS, t, SolverConfig(2048)), PARAMS
        ).sigma_x
        num_0 = moments(
            evolve_split_step(psi, free, t, SolverConfig(2048)), PARAMS
        ).sigma_x
        worst_split = max(worst_split, abs(num_g - num_0) / num_0)
    report(
        "spread_is_independent_of_gravity",
        worst_exact < 1e-10 and worst_split < 1e-6,
        f"relative spread shift: exact {worst_exact:.3e} (tol 1e-10), "
        f"split-step {worst_split:.3e} (tol 1e-6), t in {{0.5, 1, 2}}",
    )


def test_position_commutator_identity():
    # <phi|[x(t), x(0)]|psi> = -i hbar t / m <phi|psi> for any g
    psi = canonical_packet()
    phi = make_gaussian(GRID, 1.0, 0.0, 1.0, PARAMS)
    worst = 0.0
    for g in (0.0, 1.0):
        pr = PhysicalParams(hbar=1.0, m=1.0, g=g, c=10.0)
        h = dense_hamiltonian(GRID, pr)
        for t in (0.5, 1.0):
            for bra, ket in ((psi, psi), (phi, psi)):
                val = commutator_element(bra, ket, h, t)
                ov = overlap(bra, ket)
                expected = -1j * pr.hbar * t / pr.m * ov
                tol = 1e-6 * (pr.hbar * t / pr.m) * abs(ov) + 1e-8
                worst = max(worst, abs(val - expected) / tol)
    report(
        "position_commutator_identity",
        worst < 1.0,
        f"worst deviation at {worst:.3e} of its tolerance "
        f"(1e-6 relative + 1e-8 absolute; g in {{0, 1}}, t in {{0.5, 1}})",
    )


def test_action_difference_identity():
    # delta_action equals the closed-form action difference and ignores x0
    rng = np.random.default_rng(12345)
    worst_id = 0.0
    worst_x0 = 0.0
    for _ in range(1000):
        m = rng.uniform(0.5, 3.0)
        g = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.25, 3.0)
        x0 = rng.uniform(-5.0, 5.0)
        xt = rng.uniform(-5.0, 5.0)
        pr = PhysicalParams(hbar=1.0, m=m, g=g, c=10.0)
        delta = delta_action(xt, t, pr)
        diff = classical_action(x0, xt, t, pr) - shifted_free_action(x0, xt, t, pr)
        other = classical_action(-x0, xt, t, pr) - shifted_free_action(-x0, xt, t, pr)
        worst_id = max(worst_id, abs(delta - diff))
        worst_x0 = max(worst_x0, abs(diff - other))
    report(
        "action_difference_identity",
        worst_id < 1e-12 and worst_x0 < 1e-12,
        f"identity gap {worst_id:.3e}, x0-dependence {worst_x0:.3e} "
        f"(both tol 1e-12, 1000 random tuples)",
    )


def test_interference_phase_and_visibility():
    psi = canonical_packet()
    rec = run_protocol(psi, PARAMS, 1.0, backend="analytic")
    num = run_protocol(psi, PARAMS, 1.0, backend="split-step", n_steps=2048)
    phase_err = abs(rec.phase - 1.0 / 3.0)
    vis_err = abs(rec.visibility - math.exp(-0.625))
    backend_gap = max(abs(rec.phase - num.phase), abs(rec.visibility - num.visibility))
    report(
        "interference_phase_and_visibility",
        phase_err < 1e-5 and vis_err < 1e-4 and backend_gap < 1e-5,
        f"phase off by {phase_err:.3e} (tol 1e-5), visibility off by "
        f"{vis_err:.3e} (tol 1e-4), backend gap {backend_gap:.3e} (tol 1e-5)",
    )


def test_mean_motion_follows_classical_fall():
    worst = 0.0
    for g in (0.0, 1.0, 2.0):
        pr = PhysicalParams(hbar=1.0, m=1.0, g=g, c=10.0)
        psi = make_gaussian(GRID, 0.0, 0.0, 1.0, pr)
        for t in (0.5, 1.0, 2.0):
            xm, pm = ehrenfest_mean(0.0, 0.0, t, pr)
            for state in (
                evolve_exact(psi, pr, t),
                evolve_split_step(psi, pr, t, SolverConfig(512)),
            ):
                mom = moments(state, pr)
                worst = max(worst, abs(mom.mean_x - xm), abs(mom.mean_p - pm))
    report(
        "mean_motion_follows_classical_fall",
        worst < 1e-6,
        f"worst |quantum mean - classical| {worst:.3e} "
        f"(tol 1e-6; g in {{0, 1, 2}}, t in {{0.5, 1, 2}}, both backends)",
    )


def test_split_step_is_second_order():
    # the whole Strang defect is the global phase m g^2 t^3 / (24 hbar N^2):
    # the measured overlap phase matches it and falls as 1/N^2
    psi = canonical_packet()
    exact = evolve_exact(psi, PARAMS, 1.0)
    counts = [64, 128, 256, 512]
    phases = [
        cmath.phase(overlap(exact, evolve_split_step(psi, PARAMS, 1.0, SolverConfig(n))))
        for n in counts
    ]
    predicted = [PARAMS.m * PARAMS.g**2 / (24.0 * PARAMS.hbar * n * n) for n in counts]
    worst = max(abs(a - b) for a, b in zip(phases, predicted))
    orders = [math.log2(a / b) for a, b in zip(phases, phases[1:])]
    ok = worst < 1e-12 and all(abs(o - 2.0) < 1e-4 for o in orders)
    report(
        "split_step_is_second_order",
        ok,
        f"overlap phase off m g^2 t^3/(24 hbar N^2) by {worst:.3e} (tol 1e-12); "
        "orders " + ", ".join(f"{o:.6f}" for o in orders)
        + " (each within 1e-4 of 2 over steps 64..512)",
    )


def test_relativistic_action_approaches_newtonian():
    # geodesic of the clock-rate metric, from rest at the origin
    traj = Trajectory(0.0, 0.0, g=-PARAMS.g)
    rep = nr_limit_check(traj, 1.0, PARAMS, [10.0, 20.0, 40.0, 80.0])
    order_ok = rep.fitted_order is not None and abs(rep.fitted_order + 2.0) <= 0.1
    parked = Trajectory(2.0, 0.0, g=0.0)
    static_gap = abs(
        proper_time(parked, 1.0, PARAMS) - static_proper_time(2.0, 1.0, PARAMS)
    )
    report(
        "relativistic_action_approaches_newtonian",
        order_ok and static_gap < 1e-14,
        f"fitted error order {rep.fitted_order:.3f} (target -2.0 +- 0.1, "
        f"c in {{10, 20, 40, 80}}), static clock gap {static_gap:.3e} (tol 1e-14)",
    )


def test_protocol_symmetries():
    psi = canonical_packet()
    base = run_protocol(psi, PARAMS, 1.0)
    # a global phase on the input cancels between the branches
    rotated = run_protocol(apply_global_phase(psi, 0.7), PARAMS, 1.0)
    gauge = abs(rotated.overlap - base.overlap)
    # swapping the branch schedules conjugates the fringe
    a = AccelSchedule(((1.0, 0.6), (0.0, 0.4)))
    b = AccelSchedule(((0.0, 0.6), (1.0, 0.4)))
    fwd = run_protocol(psi, PARAMS, 1.0, scheme=BranchSchedules(a, b))
    rev = run_protocol(psi, PARAMS, 1.0, scheme=BranchSchedules(b, a))
    swap = abs(fwd.overlap - np.conj(rev.overlap))
    # two half-steps of the same g compose to the single full step
    half = AccelSchedule(((1.0, 0.5), (1.0, 0.5)))
    piecewise = abs(
        overlap(evolve_piecewise(psi, PARAMS, half), evolve_exact(psi, PARAMS, 1.0))
        - 1.0
    )
    report(
        "protocol_symmetries",
        gauge < 1e-12 and swap < 1e-12 and piecewise < 1e-10,
        f"gauge invariance {gauge:.3e} (tol 1e-12), swap conjugation "
        f"{swap:.3e} (tol 1e-12), piecewise composition {piecewise:.3e} (tol 1e-10)",
    )


def test_cli_verify_passes_and_outputs_are_reproducible(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "wavefall", "verify"],
        capture_output=True,
        text=True,
    )
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "params": {"hbar": 1.0, "m": 1.0, "g": 1.0, "c": 10.0},
                "grid": {"x_min": -20.0, "x_max": 20.0, "n": 256},
                "initial": {"x0": 0.0, "p0": 0.0, "sigma0": 1.0},
                "interfere": {"t_values": [0.25, 0.5, 0.75, 1.0]},
            }
        )
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        run = subprocess.run(
            [
                sys.executable, "-m", "wavefall", "interfere",
                "--config", str(cfg), "--out", str(path),
            ],
            capture_output=True,
        )
        assert run.returncode == 0, run.stderr
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1]
    report(
        "cli_verify_passes_and_outputs_are_reproducible",
        res.returncode == 0 and identical,
        f"verify exit code {res.returncode} (want 0), interfere reruns "
        f"byte-identical: {identical}",
    )
