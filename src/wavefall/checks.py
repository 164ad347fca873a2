"""Self-verification suite: one check per cross-validation contract.

Each check exercises two independent routes to the same number (closed form
vs dense oracle, closed form vs quadrature, analytic vs split-step) and
passes only when they agree at the stated tolerance.  Checks never raise:
any domain error is converted into a structured failure so a misconfigured
run (tiny grid, wide packet) reports FAIL rather than a traceback.  Each
verify setting is read through its config rule, so a bad one built in code
fails the checks that use it, naming the setting.  Worst-case reductions go
through `_worst`, which propagates NaN, so a NaN deviation fails its check
instead of being dropped.  The whole suite is deterministic for a fixed
config and seed.

Each check is one private function, _<name>(cfg, rng), that returns the
passed/measured/target/detail fields of its CheckResult; the runner adds
the name, taken from the function.  Adding a check means writing that one
function and adding it to the _CHECKS tuple, from which CHECK_NAMES is
derived.  One rng is passed to every check in order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .action import classical_action, delta_action, ehrenfest_mean, shifted_free_action
from .analytic import AccelSchedule, evolve_exact, evolve_piecewise, apply_global_phase
from .config import RunConfig, _oracle_grid, _start_packet, _verify_setting
from .core import Trajectory, l2_distance, make_gaussian, moments, overlap
from .errors import WavefallError
from .interferometry import branch_states, run_protocol
from .oracle import (
    commutator_element,
    dense_hamiltonian,
    dense_propagator,
    heisenberg_position,
)
from .relativistic import free_fall_trajectory, nr_limit_check, proper_time
from .splitstep import SolverConfig, convergence_report, evolve_split_step

__all__ = ["CheckResult", "run_all_checks", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    target: str
    detail: str = ""


def _worst(*values: float) -> float:
    """The largest value, or NaN if any is NaN; builtin max() would drop it."""
    return float(np.max(values))


def _factorization_vs_dense_oracle(cfg: RunConfig, rng) -> dict:
    grid = _oracle_grid(cfg)
    psi = _start_packet(cfg, grid)
    t = 1.0
    direct = evolve_exact(psi, cfg.params, t)
    u = dense_propagator(dense_hamiltonian(grid, cfg.params), t, cfg.params)
    dist = l2_distance(direct, u.apply(psi))
    return dict(
        passed=dist < 1e-6,
        measured=f"L2 {dist:.3e}",
        target="< 1e-06",
        detail=f"n={grid.n}, t={t}",
    )


def _spread_g_independence(cfg: RunConfig, rng) -> dict:
    psi = _start_packet(cfg)
    pars = [cfg.params] * 3 + [replace(cfg.params, g=0.0)] * 3
    times = (0.5, 1.0, 2.0) * 2

    def worst_spread_gap(states):
        s = [m.sigma_x for m in moments(states, pars)]
        return _worst(*(abs(s_g - s_0) / s_0 for s_g, s_0 in zip(s[:3], s[3:])))

    worst_exact = worst_spread_gap(evolve_exact(psi, pars, times))
    worst_num = worst_spread_gap(evolve_split_step(psi, pars, times, SolverConfig(2048)))
    return dict(
        passed=worst_exact < 1e-10 and worst_num < 1e-6,
        measured=f"analytic {worst_exact:.3e}, split-step {worst_num:.3e}",
        target="analytic < 1e-10, split-step < 1e-06",
        detail="t in {0.5, 1, 2}",
    )


def _commutator_identity(cfg: RunConfig, rng) -> dict:
    grid = _oracle_grid(cfg)
    psi = _start_packet(cfg, grid)
    phi = make_gaussian(
        grid, cfg.initial.x0 + cfg.initial.sigma0, cfg.initial.p0,
        cfg.initial.sigma0, cfg.params,
    )
    worst = 0.0
    for g in (0.0, cfg.params.g):
        pars = replace(cfg.params, g=g)
        h = dense_hamiltonian(grid, pars)
        for t in (0.5, 1.0):
            x_t = heisenberg_position(dense_propagator(h, t, pars))
            for bra, ket in ((psi, psi), (phi, psi)):
                elem = commutator_element(bra, ket, x_t)
                ov = overlap(bra, ket)
                expect = -1j * pars.hbar * t / pars.m * ov
                tol = 1e-6 * (pars.hbar * t / pars.m) * abs(ov) + 1e-8
                worst = _worst(worst, abs(elem - expect) / tol)
    return dict(
        passed=worst < 1.0,
        measured=f"worst deviation {worst:.3e} of tolerance",
        target="< 1 (rel 1e-06 + abs 1e-08)",
        detail=f"g in {{0, {cfg.params.g}}}, t in {{0.5, 1}}, n={grid.n}",
    )


def _delta_action_identity(cfg: RunConfig, rng) -> dict:
    worst_identity = 0.0
    worst_x0 = 0.0
    # Fail closed: zero samples would pass on the initial zeros.
    n_random = _verify_setting(cfg, "n_random")
    for _ in range(n_random):
        m = rng.uniform(0.5, 3.0)
        g = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.25, 3.0)
        x0 = rng.uniform(-5.0, 5.0)
        xt = rng.uniform(-5.0, 5.0)
        pars = replace(cfg.params, m=m, g=g)
        expected = delta_action(xt, t, pars)
        diff = (
            classical_action(x0, xt, 0.0, t, pars).value
            - shifted_free_action(x0, xt, t, pars).value
        )
        worst_identity = _worst(worst_identity, abs(diff - expected))
        other = (
            classical_action(-x0, xt, 0.0, t, pars).value
            - shifted_free_action(-x0, xt, t, pars).value
        )
        worst_x0 = _worst(worst_x0, abs(diff - other))
    return dict(
        passed=worst_identity < 1e-12 and worst_x0 < 1e-12,
        measured=f"identity {worst_identity:.3e}, x0-dependence {worst_x0:.3e}",
        target="both < 1e-12",
        detail=f"{n_random} randomized (m, g, t, x0, xt) tuples",
    )


def _interference_phase_cross_validation(cfg: RunConfig, rng) -> dict:
    psi = _start_packet(cfg)
    rec_a = run_protocol(psi, cfg.params, 1.0)
    rec_s = run_protocol(psi, cfg.params, 1.0, backend="split-step", n_steps=2048)
    d_phase = abs(rec_a.phase - rec_a.predicted_phase)
    pred_vis = rec_a.predicted_visibility
    d_vis = abs(rec_a.visibility - pred_vis) if pred_vis is not None else float("inf")
    d_backend = _worst(
        abs(rec_a.phase - rec_s.phase), abs(rec_a.visibility - rec_s.visibility)
    )
    return dict(
        passed=d_phase < 1e-5 and d_vis < 1e-4 and d_backend < 1e-5,
        measured=(
            f"phase gap {d_phase:.3e}, visibility gap {d_vis:.3e}, "
            f"backend gap {d_backend:.3e}"
        ),
        target="phase < 1e-05, visibility < 1e-04, backends < 1e-05",
        detail=f"t=1, phase {rec_a.phase:+.6f}, visibility {rec_a.visibility:.6f}",
    )


def _ehrenfest_means(cfg: RunConfig, rng) -> dict:
    psi = _start_packet(cfg)
    gs = (0.0, cfg.params.g, 2.0 * cfg.params.g)
    pars = [replace(cfg.params, g=g) for g in gs for _ in range(3)]
    times = [0.5, 1.0, 2.0] * 3
    x0, p0 = cfg.initial.x0, cfg.initial.p0
    wants = [ehrenfest_mean(x0, p0, t, p) for p, t in zip(pars, times)]
    worst = 0.0
    for states in (
        evolve_exact(psi, pars, times),
        evolve_split_step(psi, pars, times, SolverConfig(512)),
    ):
        for got, (want_x, want_p) in zip(moments(states, pars), wants):
            worst = _worst(worst, abs(got.mean_x - want_x), abs(got.mean_p - want_p))
    return dict(
        passed=worst < 1e-6,
        measured=f"worst |mean - classical| {worst:.3e}",
        target="< 1e-06",
        detail="g sweep x t sweep, both backends",
    )


def _strang_convergence_order(cfg: RunConfig, rng) -> dict:
    counts = list(_verify_setting(cfg, "step_counts"))
    rows = convergence_report(_start_packet(cfg), cfg.params, 1.0, counts)
    orders = [r.observed_order for r in rows if r.observed_order is not None]
    if not orders:
        return dict(
            passed=True,
            measured="errors at rounding floor",
            target="order in [1.8, 2.2]",
            detail="no measurable orders (g = 0 case)",
        )
    return dict(
        passed=all(1.8 <= o <= 2.2 for o in orders),
        measured="orders " + ", ".join(f"{o:.3f}" for o in orders),
        target="all in [1.8, 2.2]",
        detail=f"step counts {counts}",
    )


def _relativistic_limit_scaling(cfg: RunConfig, rng) -> dict:
    traj = free_fall_trajectory(0.0, 0.0, 0.0, cfg.params)
    report = nr_limit_check(traj, 1.0, cfg.params, _verify_setting(cfg, "c_values"))
    static = Trajectory.from_initial(0.0, 0.0, 0.0, g=0.0)
    static_gap = abs(proper_time(static, 1.0, cfg.params, 4096) - 1.0)
    if report.fitted_order is None:
        return dict(
            passed=static_gap < 1e-14,
            measured=f"errors at noise floor, static gap {static_gap:.3e}",
            target="order in [-2.1, -1.9] (n/a at g=0), static < 1e-14",
            detail="all errors below the fit floor",
        )
    return dict(
        passed=-2.1 <= report.fitted_order <= -1.9 and static_gap < 1e-14,
        measured=f"fitted order {report.fitted_order:.3f}, static gap {static_gap:.3e}",
        target="order in [-2.1, -1.9], static < 1e-14",
        detail="c values " + ", ".join(f"{r.c:g}" for r in report.rows),
    )


def _protocol_symmetries(cfg: RunConfig, rng) -> dict:
    psi = _start_packet(cfg)
    t = 1.0
    rec = run_protocol(psi, cfg.params, t)
    rec_gauge = run_protocol(apply_global_phase(psi, 0.7), cfg.params, t)
    gauge_gap = _worst(
        abs(rec.overlap - rec_gauge.overlap),
        abs(rec.visibility - rec_gauge.visibility),
        abs(rec.phase - rec_gauge.phase),
    )
    a, b = branch_states(psi, cfg.params, t)
    swap_gap = abs(overlap(b, a) - np.conj(overlap(a, b)))
    schedule = AccelSchedule(((cfg.params.g, 0.5 * t), (cfg.params.g, 0.5 * t)))
    piece_gap = l2_distance(
        evolve_piecewise(psi, cfg.params, schedule), evolve_exact(psi, cfg.params, t)
    )
    return dict(
        passed=gauge_gap < 1e-12 and swap_gap < 1e-12 and piece_gap < 1e-10,
        measured=f"gauge {gauge_gap:.3e}, swap {swap_gap:.3e}, piecewise {piece_gap:.3e}",
        target="gauge < 1e-12, swap < 1e-12, piecewise < 1e-10",
        detail=f"t={t}",
    )


# The suite, in run order; each check's name is its function's.
_CHECKS = (
    _factorization_vs_dense_oracle,
    _spread_g_independence,
    _commutator_identity,
    _delta_action_identity,
    _interference_phase_cross_validation,
    _ehrenfest_means,
    _strang_convergence_order,
    _relativistic_limit_scaling,
    _protocol_symmetries,
)
CHECK_NAMES = tuple(check.__name__[1:] for check in _CHECKS)


def run_all_checks(cfg: RunConfig, seed: int | None = None) -> list[CheckResult]:
    """Run every check against the configured grid/params/initial state."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    results = []
    for name, check in zip(CHECK_NAMES, _CHECKS):
        try:
            fields = check(cfg, rng)
        except WavefallError as exc:
            fields = dict(passed=False, measured="error", target="no error",
                          detail=f"{type(exc).__name__}: {exc}")
        results.append(CheckResult(name=name, **fields))
    return results
