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

Each check is one private function, _<name>(cfg, rng, hamiltonian), that
returns the passed/measured/target/detail fields of its CheckResult; the
runner adds the name, taken from the function.  Adding a check means writing
that one function and adding it to the _CHECKS tuple, from which CHECK_NAMES
is derived.  One rng is passed to every check in order.

hamiltonian(grid, params) is the run's memo of the public dense_hamiltonian:
each (grid, params) is built, and decomposed by eigh, once per run, and the
memo goes with the run.  Checks use an operator only through evolve_dense
and commutator_element.  Sharing one operator between checks keeps the
routes independent: it is built from closed forms alone, its matrix and
eigenpairs are read-only, so no check can change what another sees, and a
guard that fails raises again on every use, because the operator caches its
eigenpairs and never an exception.  Keys compare by value, so g = 0.0 and
g = -0.0 share one operator; their matrices have the same bytes, each entry
being c[|j - l|] plus a zero of either sign or m g x.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .action import classical_action, delta_action, ehrenfest_mean, shifted_free_action
from .analytic import AccelSchedule, evolve_exact, evolve_piecewise, apply_global_phase
from .config import RunConfig, _oracle_grid, _start_packet, _verify_setting
from .core import Trajectory, _extremes, l2_distance, make_gaussian, moments, overlap
from .errors import WavefallError
from .interferometry import branch_states, run_protocol
from .oracle import commutator_element, dense_hamiltonian, evolve_dense
from .relativistic import free_fall_trajectory, nr_limit_check, proper_time
from .splitstep import (
    SolverConfig,
    _strang_phase,
    _strang_rows,
    _strang_tolerance,
    evolve_split_step,
)

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


# Strang steps of every split-step sweep.  N steps give the exact state times
# the global phase e^{i phi_N} (_strang_phase), which a check removes or, for
# means and spreads, never sees, so any N is exact up to phi_N and rounding.
# The rounding bound, _strang_tolerance, grows with N, so fewer steps give a
# tighter bound.  64, not 1: it is the smallest count strang_convergence_order
# certifies by default, and a run of many steps still exercises the
# every-step boundary guard.
_SWEEP_STEPS = 64


def _factorization_vs_dense_oracle(cfg: RunConfig, rng, hamiltonian) -> dict:
    grid = _oracle_grid(cfg)
    psi = _start_packet(cfg, grid)
    t = 1.0
    direct = evolve_exact(psi, cfg.params, t)
    dense = evolve_dense(hamiltonian(grid, cfg.params), psi, t)
    dist = l2_distance(direct, dense)
    return dict(
        passed=dist < 1e-6,
        measured=f"L2 {dist:.3e}",
        target="< 1e-06",
        detail=f"n={grid.n}, t={t}",
    )


def _spread_g_independence(cfg: RunConfig, rng, hamiltonian) -> dict:
    """sigma_x at g against g = 0 on both routes; split-step at a rounding bound.

    For unit-norm states a and b, |sigma_a^2 - sigma_b^2| <= 6 max|x|^2 |a - b|:
    <x^2> moves by at most 2 max|x|^2 |a - b|, as a mean does in
    _ehrenfest_means, and <x>^2 by at most (2 max|x| |a - b|)(2 max|x|).
    Each split-step state is within tol, the sweep's largest
    _strang_tolerance, of the exact one (phi_N drops out of a spread), so its
    sigma is within delta = 6 max|x|^2 tol/(sigma_split + sigma_exact) of the
    exact sigma.  The split-step gap |s_g - s_0| is then at most
    delta_g + delta_0 + |e_g - e_0|, with e the exact sigmas; over s_0, the
    largest such bound of the three times is the split-step target.
    """
    psi = _start_packet(cfg)
    pars = [cfg.params] * 3 + [replace(cfg.params, g=0.0)] * 3
    times = (0.5, 1.0, 2.0) * 2
    grid = psi.grid
    tol = max(
        _strang_tolerance(p, t, _SWEEP_STEPS, grid.n) for p, t in zip(pars, times)
    )
    rounding = 6.0 * _extremes(grid)[1] ** 2 * tol

    def gaps(s):
        return [abs(s_g - s_0) / s_0 for s_g, s_0 in zip(s[:3], s[3:])]

    exact = [m.sigma_x for m in moments(evolve_exact(psi, pars, times), pars)]
    split_states = evolve_split_step(psi, pars, times, SolverConfig(_SWEEP_STEPS))
    split = [m.sigma_x for m in moments(split_states, pars)]
    delta = [rounding / (s + e) for s, e in zip(split, exact)]
    bound = _worst(*(
        (delta[i] + delta[i + 3] + abs(exact[i] - exact[i + 3])) / split[i + 3]
        for i in range(3)
    ))
    worst_exact = _worst(*gaps(exact))
    worst_num = _worst(*gaps(split))
    return dict(
        passed=worst_exact < 1e-10 and worst_num < bound,
        measured=f"analytic {worst_exact:.3e}, split-step {worst_num:.3e}",
        target=f"analytic < 1e-10, split-step < {bound:.3e} (6 max|x|^2 tol rule)",
        detail=f"t in {{0.5, 1, 2}}, N={_SWEEP_STEPS}",
    )


def _commutator_identity(cfg: RunConfig, rng, hamiltonian) -> dict:
    grid = _oracle_grid(cfg)
    psi = _start_packet(cfg, grid)
    phi = make_gaussian(
        grid, cfg.initial.x0 + cfg.initial.sigma0, cfg.initial.p0,
        cfg.initial.sigma0, cfg.params,
    )
    worst = 0.0
    for g in (0.0, cfg.params.g):
        pars = replace(cfg.params, g=g)
        h = hamiltonian(grid, pars)
        for t in (0.5, 1.0):
            for bra, ket in ((psi, psi), (phi, psi)):
                elem = commutator_element(bra, ket, h, t)
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


# Ranges of the (m, g, t, x0, xt) draws of delta_action_identity, and the most
# draws taken in one block.
_DRAW_LOW = (0.5, -2.0, 0.25, -5.0, -5.0)
_DRAW_HIGH = (3.0, 2.0, 3.0, 5.0, 5.0)
_DRAW_BLOCK = 1024


def _delta_action_identity(cfg: RunConfig, rng, hamiltonian) -> dict:
    worst_identity = 0.0
    worst_x0 = 0.0
    # Fail closed: zero samples would pass on the initial zeros.
    n_random = _verify_setting(cfg, "n_random")
    # One uniform call per block of rows gives, bit for bit, the values of
    # five scalar calls per draw in the same order, and leaves the rng in the
    # same state; the block size caps the memory.  Each block makes one
    # batched call per use of a public closed form, which this check tests,
    # and whose rows are bit-identical to single calls.
    for start in range(0, n_random, _DRAW_BLOCK):
        rows = min(_DRAW_BLOCK, n_random - start)
        m, g, t, x0, xt = rng.uniform(_DRAW_LOW, _DRAW_HIGH, (rows, 5)).T.tolist()
        pars = [replace(cfg.params, m=mi, g=gi) for mi, gi in zip(m, g)]
        expected = np.array(delta_action(xt, t, pars))
        diff = np.subtract(
            classical_action(x0, xt, t, pars), shifted_free_action(x0, xt, t, pars)
        )
        minus_x0 = [-v for v in x0]
        other = np.subtract(
            classical_action(minus_x0, xt, t, pars),
            shifted_free_action(minus_x0, xt, t, pars),
        )
        worst_identity = _worst(worst_identity, np.abs(diff - expected).max())
        worst_x0 = _worst(worst_x0, np.abs(diff - other).max())
    return dict(
        passed=worst_identity < 1e-12 and worst_x0 < 1e-12,
        measured=f"identity {worst_identity:.3e}, x0-dependence {worst_x0:.3e}",
        target="both < 1e-12",
        detail=f"{n_random} randomized (m, g, t, x0, xt) tuples",
    )


def _interference_phase_cross_validation(cfg: RunConfig, rng, hamiltonian) -> dict:
    psi = _start_packet(cfg)
    t, n_steps = 1.0, _SWEEP_STEPS
    rec_a = run_protocol(psi, cfg.params, t)
    rec_s = run_protocol(psi, cfg.params, t, backend="split-step", n_steps=n_steps)
    d_phase = abs(rec_a.phase - rec_a.predicted_phase)
    pred_vis = rec_a.predicted_visibility
    d_vis = abs(rec_a.visibility - pred_vis) if pred_vis is not None else float("inf")
    # Only the accelerated branch carries phi_N; each branch state is then
    # within _strang_tolerance, so the unit-norm overlaps within twice that.
    phi = _strang_phase(cfg.params, t, n_steps)
    d_backend = abs(rec_s.overlap * cmath.exp(-1j * phi) - rec_a.overlap)
    tol_backend = 2.0 * _strang_tolerance(cfg.params, t, n_steps, psi.grid.n)
    return dict(
        passed=d_phase < 1e-5 and d_vis < 1e-4 and d_backend < tol_backend,
        measured=(
            f"phase gap {d_phase:.3e}, visibility gap {d_vis:.3e}, "
            f"backend gap {d_backend:.3e}"
        ),
        target=f"phase < 1e-05, visibility < 1e-04, backends < {tol_backend:.3e}",
        detail=f"t=1, phase {rec_a.phase:+.6f}, visibility {rec_a.visibility:.6f}, "
        f"split-step overlap less phi_N={phi:.3e} at N={n_steps}",
    )


def _ehrenfest_means(cfg: RunConfig, rng, hamiltonian) -> dict:
    """Both routes' means against the classical fall, at a rounding bound.

    A mean of a unit-norm state a differs from that of b by at most
    2 max|x| |a - b| for mean_x and 2 hbar k_max |a - b| for mean_p, since
    <a|X|a> - <b|X|b> = <a - b|X|a> + <b|X|a - b> and the momentum amplitudes
    keep the L2 distance.  The global phase phi_N drops out of a mean, and
    either route's state is within _strang_tolerance of the exact one, taken
    at the sweep's largest angle; that tolerance sets both targets.
    """
    psi = _start_packet(cfg)
    gs = (0.0, cfg.params.g, 2.0 * cfg.params.g)
    pars = [replace(cfg.params, g=g) for g in gs for _ in range(3)]
    times = [0.5, 1.0, 2.0] * 3
    x0, p0 = cfg.initial.x0, cfg.initial.p0
    wants = [ehrenfest_mean(x0, p0, t, p) for p, t in zip(pars, times)]
    grid = psi.grid
    tol = max(
        _strang_tolerance(p, t, _SWEEP_STEPS, grid.n) for p, t in zip(pars, times)
    )
    k_max, x_max = _extremes(grid)
    tol_x = 2.0 * x_max * tol
    tol_p = 2.0 * cfg.params.hbar * k_max * tol
    worst_x = worst_p = 0.0
    for states in (
        evolve_exact(psi, pars, times),
        evolve_split_step(psi, pars, times, SolverConfig(_SWEEP_STEPS)),
    ):
        for got, (want_x, want_p) in zip(moments(states, pars), wants):
            worst_x = _worst(worst_x, abs(got.mean_x - want_x))
            worst_p = _worst(worst_p, abs(got.mean_p - want_p))
    return dict(
        passed=worst_x < tol_x and worst_p < tol_p,
        measured=f"worst |mean - classical| x {worst_x:.3e}, p {worst_p:.3e}",
        target=f"x < {tol_x:.3e}, p < {tol_p:.3e} (2 max|x| tol, 2 hbar k_max tol)",
        detail=f"g sweep x t sweep, both backends, N={_SWEEP_STEPS}",
    )


def _strang_convergence_order(cfg: RunConfig, rng, hamiltonian) -> dict:
    counts = _verify_setting(cfg, "step_counts")
    psi, t = _start_packet(cfg), 1.0
    exact = evolve_exact(psi, cfg.params, t)
    worst = 0.0
    # One stack of len(counts) rows, each bit-identical to its own run.
    for n_steps, split in zip(counts, _strang_rows(psi, cfg.params, t, counts)):
        stripped = apply_global_phase(split, -_strang_phase(cfg.params, t, n_steps))
        tol = _strang_tolerance(cfg.params, t, n_steps, psi.grid.n)
        worst = _worst(worst, l2_distance(stripped, exact) / tol)
    return dict(
        passed=worst < 1.0,
        measured=f"worst L2 less phi_N {worst:.3e} of tolerance",
        target="< 1 (eps ((N + 1) log2 n + m g^2 t^3/hbar))",
        detail=f"step counts {list(counts)}, phi_N = m g^2 t^3/(24 hbar N^2), t=1",
    )


def _relativistic_limit_scaling(cfg: RunConfig, rng, hamiltonian) -> dict:
    traj = free_fall_trajectory(0.0, 0.0, cfg.params)
    report = nr_limit_check(traj, 1.0, cfg.params, _verify_setting(cfg, "c_values"))
    static = Trajectory(0.0, 0.0, g=0.0)
    static_gap = abs(proper_time(static, 1.0, cfg.params) - 1.0)
    if report.fitted_order is None:
        return dict(
            passed=static_gap < 1e-14,
            measured=f"errors zero, static gap {static_gap:.3e}",
            target="order in [-2.1, -1.9] (n/a at g=0), static < 1e-14",
            detail="a zero error has no log-log fit",
        )
    return dict(
        passed=-2.1 <= report.fitted_order <= -1.9 and static_gap < 1e-14,
        measured=f"fitted order {report.fitted_order:.3f}, static gap {static_gap:.3e}",
        target="order in [-2.1, -1.9], static < 1e-14",
        detail="c values " + ", ".join(f"{r.c:g}" for r in report.rows),
    )


def _protocol_symmetries(cfg: RunConfig, rng, hamiltonian) -> dict:
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
    # The run's operator memo.  The lambda looks dense_hamiltonian up on each
    # miss, so a fake or traced one set on this module is the one called.
    hamiltonian = cache(lambda grid, params: dense_hamiltonian(grid, params))
    results = []
    for name, check in zip(CHECK_NAMES, _CHECKS):
        try:
            fields = check(cfg, rng, hamiltonian)
        except WavefallError as exc:
            fields = dict(passed=False, measured="error", target="no error",
                          detail=f"{type(exc).__name__}: {exc}")
        results.append(CheckResult(name=name, **fields))
    return results
