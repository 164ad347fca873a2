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

Both backends, the factored exact propagator ("analytic") and the split-step
solver, take the same path: every branch is a row of (g, duration) segments,
and one call propagates all the rows of a scan.  On split-step that call
batches every branch of every readout time into one solver stack per segment.

For a Gaussian input the visibility obeys gaussian_visibility, a Gaussian in
(m g t sigma_t / hbar); the packet spread is what erases the fringe contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import AccelSchedule, evolve_piecewise, shift_packet
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


def _propagate(psi0, params, rows, backend, n_steps):
    """Final state of each row of (g, duration) segments, in row order.

    The one place that picks a backend.  analytic chains evolve_piecewise
    over each row, lazily, so a scan holds one pair of states at a time;
    split-step runs segment i of every row that has one in the same batched
    solver call.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    if backend == "analytic":
        return (evolve_piecewise(psi0, params, row) for row in rows)
    states = [psi0] * len(rows)
    for i in range(max(map(len, rows), default=0)):
        live = [r for r, row in enumerate(rows) if i < len(row)]
        out = evolve_split_step(
            [states[r] for r in live],
            [replace(params, g=rows[r][i][0]) for r in live],
            [rows[r][i][1] for r in live],
            SolverConfig(n_steps),
        )
        for r, state in zip(live, out):
            states[r] = state
    return states


def _branch_pairs(psi0, params, times, schemes, backend, n_steps):
    """Lazy (accelerated, reference) states for each (time, scheme) pair.

    Each branch becomes a row of (g, duration) segments: a colocated readout
    at t gives ((g, t),) and ((0.0, t),), a BranchSchedules its two schedules.
    Plain tuples, because AccelSchedule refuses the zero duration of t = 0.
    """
    rows = []
    for t, scheme in zip(times, schemes):
        if not 0 <= t < math.inf:
            raise NegativeTime(f"readout time t must be finite and >= 0, got {t}")
        if isinstance(scheme, Colocated):
            rows += [((params.g, t),), ((0.0, t),)]
            continue
        total_a = scheme.accelerated.total_duration
        total_b = scheme.reference.total_duration
        if not math.isclose(total_a, total_b, rel_tol=1e-12, abs_tol=1e-12):
            raise SchemeMismatch(
                f"branch schedules disagree: accelerated total {total_a} vs "
                f"reference total {total_b}"
            )
        if abs(total_a - t) > 1e-9:
            raise SchemeMismatch(
                f"schedule total {total_a} does not match requested t={t}"
            )
        rows += [scheme.accelerated.segments, scheme.reference.segments]
    # zip draws the accelerated, then the reference state from one iterator.
    # The colocated free branch is translated onto the fallen one:
    # amp(x + g t^2/2) recenters the peak at center_free - g t^2/2.
    states = iter(_propagate(psi0, params, rows, backend, n_steps))
    return (
        (accelerated, shift_packet(reference, 0.5 * params.g * t * t))
        if isinstance(scheme, Colocated)
        else (accelerated, reference)
        for accelerated, reference, t, scheme in zip(states, states, times, schemes)
    )


def branch_states(
    psi0: WavePacket,
    params: PhysicalParams,
    t: float,
    scheme: Colocated | BranchSchedules = Colocated(),
    backend: str = "analytic",
    n_steps: int = 2048,
) -> tuple[WavePacket, WavePacket]:
    """The (accelerated, reference) external states at readout time t."""
    return next(_branch_pairs(psi0, params, [t], [scheme], backend, n_steps))


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
    return fringe_scan(psi0, params, [t], scheme, backend, n_steps)[0]


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
    """The protocol read out at strictly increasing times, with unwrapped phases.

    scheme may also be a callable t -> scheme for scans where the branch
    schedules depend on the readout time.  On the split-step backend every
    branch of every time evolves in one batched solver call per schedule
    segment; the analytic backend computes one time at a time.  Raises
    PhaseAliasing when consecutive phase samples are too far apart to
    continue unambiguously.
    """
    times = [float(t) for t in t_values]
    if len(times) == 0:
        return []
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"t_values must be strictly increasing, got {times}")
    schemes = [scheme(t) if callable(scheme) else scheme for t in times]
    states = _branch_pairs(psi0, params, times, schemes, backend, n_steps)
    gaussian = _looks_gaussian(psi0, params)
    records = [
        _readout(accelerated, reference, t, params, gaussian)
        for (accelerated, reference), t in zip(states, times)
    ]
    unwrapped = unwrap_phases([r.phase for r in records], times)
    return [
        replace(r, phase_unwrapped=float(u)) for r, u in zip(records, unwrapped)
    ]
