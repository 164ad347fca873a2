"""Spin-conditioned interference between an accelerated and an inertial branch.

The protocol prepares an equal superposition of two internal states, lets the
external packet evolve under the full potential in one branch (U_g) and under
the free Hamiltonian in the other (U_{g=0}), then reads out the interference
of the two external states.  With the branch overlap z = <reference|accelerated>:

    visibility = |z|,  phase = arg z,  fringe_x = Re z,  fringe_y = Im z,

where fringe_x and fringe_y are the two quadrature readouts of the internal
state for the equal-amplitude preparation, so fringe_x^2 + fringe_y^2 equals
visibility^2 identically.

Schemes
-------
colocated : the reference branch is the freely evolved packet translated onto
    the fallen branch's center, so the two probability clouds coincide and
    the overlap isolates the evolution phases.  The measured phase then obeys
    the closed form predicted_phase(mean_x of the reference branch, t).
per-branch schedules : each branch evolves under its own piecewise-constant
    acceleration schedule (equal totals, no recentering); the caller controls
    recombination.

For a Gaussian input the visibility obeys gaussian_visibility, a Gaussian in
(m g t sigma_t / hbar); the packet spread is what erases the fringe contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    AccelSchedule,
    evolve_exact,
    evolve_piecewise,
    shift_packet,
)
from .core import (
    PhysicalParams,
    WavePacket,
    make_gaussian,
    moments,
    overlap,
)
from .errors import NegativeTime, PhaseAliasing, SchemeMismatch, WavefallError
from .splitstep import SolverConfig, evolve_split_step

__all__ = [
    "Colocated",
    "BranchSchedules",
    "InterferenceRecord",
    "branch_states",
    "run_protocol",
    "predicted_phase",
    "gaussian_visibility",
    "unwrap_phases",
    "fringe_scan",
]

# Unwrapping jump guard: nearest-branch steps can never exceed pi, so steps
# within this window of pi are indistinguishable from aliased faster motion.
ALIASING_GUARD = 1e-3

_BACKENDS = ("analytic", "split-step")


@dataclass(frozen=True)
class Colocated:
    """Reference branch: free evolution recentered onto the fallen branch."""


@dataclass(frozen=True)
class BranchSchedules:
    """Reference and accelerated branches each follow their own schedule."""

    accelerated: AccelSchedule
    reference: AccelSchedule


@dataclass(frozen=True)
class InterferenceRecord:
    """One protocol readout at time t.

    phase is the principal value in (-pi, pi]; phase_unwrapped equals phase
    for single runs and carries the continued value inside scans.
    predicted_visibility is None when the input packet is not Gaussian.
    """

    t: float
    overlap: complex
    visibility: float
    phase: float
    phase_unwrapped: float
    fringe_x: float
    fringe_y: float
    predicted_phase: float
    predicted_visibility: float | None


def predicted_phase(xbar: float, t: float, params: PhysicalParams) -> float:
    """Closed-form fringe phase -(m g xbar t + m g^2 t^3/6)/hbar.

    xbar is the mean position of the reference branch at readout.  For the
    colocated scheme this matches the measured phase exactly for symmetric
    packets (the translation covers the fall, so only the momentum-kick phase
    at the branch center and the global cubic phase survive).
    """
    m, g = params.m, params.g
    return -(m * g * xbar * t + m * g * g * t**3 / 6.0) / params.hbar


def gaussian_visibility(sigma_t: float, t: float, params: PhysicalParams) -> float:
    """Fringe contrast exp(-(m g t sigma_t / hbar)^2 / 2) for a Gaussian packet.

    sigma_t is the position spread at readout time.  The contrast is the
    magnitude of the Gaussian's characteristic function at the accumulated
    momentum kick m g t.
    """
    kick = params.m * params.g * t * sigma_t / params.hbar
    return math.exp(-0.5 * kick * kick)


def _colocated(psi0, params, times, backend, n_steps):
    """(accelerated, reference) colocated states at each readout time.

    The split-step backend evolves every branch of every time as one batch.
    """
    free_params = replace(params, g=0.0)
    if backend == "analytic":
        runs = [
            (evolve_exact(psi0, params, t), evolve_exact(psi0, free_params, t))
            for t in times
        ]
    else:
        n = len(times)
        out = evolve_split_step(
            psi0, [params] * n + [free_params] * n, times * 2,
            SolverConfig(n_steps),
        )
        runs = zip(out[:n], out[n:])
    # Translate the free branch onto the fallen one: amp(x + g t^2/2)
    # recenters the peak at center_free - g t^2/2.
    return [
        (accelerated, shift_packet(drifted, 0.5 * params.g * t * t))
        for (accelerated, drifted), t in zip(runs, times)
    ]


def _split_step_schedules(psi0, params, schedules, n_steps):
    """Final state of each schedule, segment by segment on the split-step solver.

    Segment i of every schedule that has one runs in the same batched call.
    """
    states = [psi0] * len(schedules)
    for i in range(max(len(s.segments) for s in schedules)):
        live = [b for b, s in enumerate(schedules) if i < len(s.segments)]
        segments = [schedules[b].segments[i] for b in live]
        out = evolve_split_step(
            [states[b] for b in live],
            [replace(params, g=g_i) for g_i, _ in segments],
            [dt_i for _, dt_i in segments],
            SolverConfig(n_steps),
        )
        for b, state in zip(live, out):
            states[b] = state
    return states


def branch_states(
    psi0: WavePacket,
    params: PhysicalParams,
    t: float,
    scheme: Colocated | BranchSchedules = Colocated(),
    backend: str = "analytic",
    n_steps: int = 2048,
) -> tuple[WavePacket, WavePacket]:
    """The (accelerated, reference) external states at readout time t."""
    if not 0 <= t < math.inf:
        raise NegativeTime(f"branch_states: t must be finite and >= 0, got {t}")
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    if isinstance(scheme, Colocated):
        return _colocated(psi0, params, [t], backend, n_steps)[0]

    total_a = scheme.accelerated.total_duration
    total_b = scheme.reference.total_duration
    if abs(total_a - total_b) > 1e-12:
        raise SchemeMismatch(
            f"branch schedules disagree: accelerated total {total_a} vs "
            f"reference total {total_b}"
        )
    if abs(total_a - t) > 1e-9:
        raise SchemeMismatch(
            f"schedule total {total_a} does not match requested t={t}"
        )
    if backend == "analytic":
        accelerated = evolve_piecewise(psi0, params, scheme.accelerated)
        reference = evolve_piecewise(psi0, params, scheme.reference)
    else:
        accelerated, reference = _split_step_schedules(
            psi0, params, (scheme.accelerated, scheme.reference), n_steps
        )
    return accelerated, reference


def _looks_gaussian(psi0: WavePacket, params: PhysicalParams) -> bool:
    """True when refitting a Gaussian to the measured moments recovers psi0."""
    m = moments(psi0, params)
    try:
        fit = make_gaussian(psi0.grid, m.mean_x, m.mean_p, m.sigma_x, params)
    except WavefallError:
        return False
    return abs(abs(overlap(fit, psi0)) - 1.0) < 1e-9


def _readout(
    accelerated: WavePacket,
    reference: WavePacket,
    t: float,
    params: PhysicalParams,
    gaussian: bool,
) -> InterferenceRecord:
    """The fringe record of one pair of branch states read out at time t."""
    z = overlap(reference, accelerated)
    visibility = abs(z)
    phase = math.atan2(z.imag, z.real)
    ref_moments = moments(reference, params)
    pred_phase = predicted_phase(ref_moments.mean_x, t, params)
    pred_vis = (
        gaussian_visibility(ref_moments.sigma_x, t, params) if gaussian else None
    )
    return InterferenceRecord(
        t=t,
        overlap=z,
        visibility=visibility,
        phase=phase,
        phase_unwrapped=phase,
        fringe_x=z.real,
        fringe_y=z.imag,
        predicted_phase=pred_phase,
        predicted_visibility=pred_vis,
    )


def run_protocol(
    psi0: WavePacket,
    params: PhysicalParams,
    t: float,
    scheme: Colocated | BranchSchedules = Colocated(),
    backend: str = "analytic",
    n_steps: int = 2048,
) -> InterferenceRecord:
    """Run the two-branch protocol once and read out the fringe at time t.

    The overlap is <reference|accelerated>.  predicted_phase uses the
    measured mean position of the reference branch; predicted_visibility uses
    its measured spread and is populated only for Gaussian inputs (detected
    by refitting a Gaussian to the input's moments).
    """
    accelerated, reference = branch_states(psi0, params, t, scheme, backend, n_steps)
    return _readout(accelerated, reference, t, params, _looks_gaussian(psi0, params))


def unwrap_phases(phases, t_values=None) -> np.ndarray:
    """Continue principal-value phases by nearest-branch steps.

    Each consecutive step is reduced to the nearest branch (magnitude at most
    pi); a reduced step within ALIASING_GUARD of pi is ambiguous (the true
    phase may have advanced by more than pi between samples) and raises
    PhaseAliasing telling the caller to densify the sample times.
    """
    phases = np.asarray(phases, dtype=float)
    out = np.empty_like(phases)
    if phases.size == 0:
        return out
    out[0] = phases[0]
    two_pi = 2.0 * math.pi
    for i in range(1, phases.size):
        step = math.remainder(phases[i] - out[i - 1], two_pi)
        if abs(step) > math.pi - ALIASING_GUARD:
            where = (
                f"between t={t_values[i - 1]:.6g} and t={t_values[i]:.6g}"
                if t_values is not None
                else f"between samples {i - 1} and {i}"
            )
            raise PhaseAliasing(
                f"phase step {step:+.4f} rad {where} is within {ALIASING_GUARD} "
                f"of pi and cannot be unwrapped; densify t_values"
            )
        out[i] = out[i - 1] + step
    return out


def fringe_scan(
    psi0: WavePacket,
    params: PhysicalParams,
    t_values,
    scheme: Colocated | BranchSchedules = Colocated(),
    backend: str = "analytic",
    n_steps: int = 2048,
) -> list[InterferenceRecord]:
    """run_protocol over strictly increasing times, with unwrapped phases.

    scheme may also be a callable t -> scheme for scans where the branch
    schedules depend on the readout time.  With the split-step backend and a
    Colocated scheme, both branches of every time evolve in one batched
    solver call; otherwise each time runs branch_states on its own.  Raises
    PhaseAliasing when consecutive phase samples are too far apart to
    continue unambiguously.
    """
    times = [float(t) for t in t_values]
    if len(times) == 0:
        return []
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"t_values must be strictly increasing, got {times}")
    if backend == "split-step" and isinstance(scheme, Colocated):
        states = _colocated(psi0, params, times, backend, n_steps)
    else:
        states = (
            branch_states(
                psi0, params, t, scheme(t) if callable(scheme) else scheme,
                backend, n_steps,
            )
            for t in times
        )
    gaussian = _looks_gaussian(psi0, params)
    records = [
        _readout(accelerated, reference, t, params, gaussian)
        for (accelerated, reference), t in zip(states, times)
    ]
    unwrapped = unwrap_phases([r.phase for r in records], times)
    return [
        replace(r, phase_unwrapped=float(u)) for r, u in zip(records, unwrapped)
    ]
