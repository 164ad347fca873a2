"""Spin-conditioned interference between an accelerated and an inertial branch.

The protocol prepares an equal superposition of two internal states, lets the
external packet evolve under the full potential in one branch (U_g) and under
the free Hamiltonian in the other (U_{g=0}), then reads out the interference
of the two external states.  With the branch overlap z = <reference|accelerated>:

    visibility = |z|,  phase = arg z,

and Re z, Im z are the two quadrature readouts of the internal state for the
equal-amplitude preparation.

Schemes
-------
One scheme serves every readout of a scan.

colocated : the reference branch is the freely evolved packet translated onto
    the fallen branch's center, so the two probability clouds coincide and
    the overlap isolates the evolution phases, which obey predicted_phase
    at the reference's mean, and for a Gaussian input gaussian_visibility:
    the packet spread erases the contrast.  It reads out at any times.
per-branch schedules : each branch evolves under its own piecewise-constant
    acceleration schedule (equal totals, no recentering); the caller controls
    recombination.  The schedules fix the one readout time, their total.
The predicted columns come from the fringe closed forms in action
(_colocated_prediction, _branch_prediction), which take psi0's moments, so
a readout measures the fringe alone.

Both backends, the factored exact propagator ("analytic") and the split-step
solver, take the same path: every branch is a row of (g, duration) segments,
and the rows of a scan run in chunks of whole readouts whose (rows, n)
stack stays within 256 KiB (_chunks).  branch_states and every scan but the
colocated analytic one run each chunk through analytic._segment_chain, the
segment loop evolve_piecewise uses too: segment i of every row of a chunk
is one batched call of the backend's propagator, passed in as the step, so
every refusal names its readout, branch and segment.  They propagate both
branches, recenter a colocated reference with shift_packet, and read each
chunk out with one batched overlap.

A colocated analytic scan instead reads its fringes from the analytic
route's own kernel, analytic._colocated_fringes: one fall of the
accelerated rows per chunk, up to their kick, and each fringe read from
that fallen row's density, with no recentering and no reference row, so
the two backends stay independent routes to the fringe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .action import _branch_prediction, _colocated_prediction
from .analytic import (
    AccelSchedule,
    _colocated_fringes,
    _require_finite_segments,
    _segment_chain,
    evolve_exact,
    shift_packet,
)
from .core import (
    Moments,
    PhysicalParams,
    WavePacket,
    _require_finite,
    _require_times,
    make_gaussian,
    moments,
    overlap,
)
from .errors import NonFiniteState, PhaseAliasing, SchemeMismatch, WavefallError
from .splitstep import SolverConfig, evolve_split_step

__all__ = [
    "Colocated",
    "BranchSchedules",
    "InterferenceRecord",
    "branch_states",
    "run_protocol",
    "unwrap_phases",
    "fringe_scan",
]

# Unwrapping jump guard: nearest-branch steps can never exceed pi, so steps
# within this window of pi are indistinguishable from aliased faster motion.
ALIASING_GUARD = 1e-3

_BACKENDS = ("analytic", "split-step")

# Cap on the amplitudes of one propagation chunk: 16 rows at n = 1024, 64 at
# n = 256, as many readouts of a colocated analytic scan and half as many of
# any other.  It bounds peak memory, which a scan holds one chunk of; a
# colocated analytic scan's kernel, analytic._colocated_fringes, allocates
# that chunk's arrays once, for all chunks.
_CHUNK_BYTES = 256 * 1024


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
    for single runs and carries the continued value inside scans.  The
    predicted columns are the scheme's fringe closed form in action, at
    psi0's moments: _colocated_prediction (predicted_phase and
    gaussian_visibility) for Colocated, _branch_prediction for
    BranchSchedules.  predicted_visibility is None when the input packet is
    not Gaussian.  The measured columns scale with psi0's norm, while the
    predicted ones describe the normalized state: a start off unit norm
    reads a visibility scaled by its norm, and, once |<fit|psi0>| is off 1
    by more than 1e-9, predicted_visibility None.
    """

    t: float
    overlap: complex
    visibility: float
    phase: float
    phase_unwrapped: float
    predicted_phase: float
    predicted_visibility: float | None


def _scan_step(psi0, params, times, scheme, backend, n_steps):
    """The step of a scan, its backend's batched propagator, once the scan is valid.

    The one place that picks a backend: step is evolve_exact or
    evolve_split_step.  The start state, the backend, the times and the
    scheme are validated here, before any moments or propagation, and so
    are the segments' scalars (analytic._require_finite_segments), on rows
    and labels made lazily: a BranchSchedules scan's two, which all its
    readouts share, and a colocated scan's accelerated rows alone, since a
    reference row (0.0, t) has shift 0 and an angle that overflows only
    when the accelerated row's at the same t, read first, does.
    """
    _require_finite(psi0.amp[None], "start state psi0", batched=False)
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    _require_times("readout time", times)
    if isinstance(scheme, BranchSchedules):
        total_a = scheme.accelerated.total_duration
        total_b = scheme.reference.total_duration
        if not math.isclose(total_a, total_b, rel_tol=1e-12, abs_tol=1e-12):
            raise SchemeMismatch(
                f"branch schedules disagree: accelerated total {total_a} vs "
                f"reference total {total_b}"
            )
        for t in times:
            if not math.isclose(total_a, t, rel_tol=1e-12, abs_tol=1e-12):
                raise SchemeMismatch(
                    f"schedule total {total_a} does not match requested t={t}"
                )
        rows = (scheme.accelerated.segments, scheme.reference.segments)
        label = lambda r: _label(times[0], ("accelerated", "reference")[r])
    elif isinstance(scheme, Colocated):
        rows = (((params.g, t),) for t in times)
        label = lambda r: _label(times[r], "accelerated")
    else:
        raise TypeError(f"scheme must be Colocated or BranchSchedules, got {scheme!r}")
    _require_finite_segments(params, rows, label)
    if backend == "analytic":
        return evolve_exact
    return partial(evolve_split_step, config=SolverConfig(n_steps))


def _label(t: float, branch: str) -> str:
    """How a refusal names a branch of a scan: "readout t=T, <branch> branch"."""
    return f"readout t={t}, {branch} branch"


def _chunks(times, width: int, nbytes: int):
    """Each chunk's times: whole readouts whose rows stay within _CHUNK_BYTES.

    A readout holds width rows of nbytes each: its (accelerated,
    reference) pair, or the accelerated row alone for a colocated analytic
    scan.
    """
    per_chunk = max(1, _CHUNK_BYTES // (width * nbytes))
    for first in range(0, len(times), per_chunk):
        yield times[first : first + per_chunk]


def _branches(times, psi0, params, scheme, step):
    """The (accelerated, reference) states of readouts at times, by _segment_chain.

    Each readout gives an accelerated and a reference row of (g, duration)
    segments: ((g, t),) and ((0.0, t),) at a colocated readout t, whose
    free branch is then translated onto its fallen one, amp(x + g t^2/2);
    a BranchSchedules its two schedules.  Plain tuples, because
    AccelSchedule refuses the zero duration of t = 0.
    """
    colocated = isinstance(scheme, Colocated)
    if colocated:
        rows = [row for t in times for row in (((params.g, t),), ((0.0, t),))]
    else:
        rows = [scheme.accelerated.segments, scheme.reference.segments] * len(times)

    def label(r):
        return _label(times[r // 2], ("accelerated", "reference")[r % 2])

    states = _segment_chain(psi0, params, rows, label, step)
    accelerated, reference = states[0::2], states[1::2]
    if colocated:
        reference = shift_packet(reference, [0.5 * params.g * t * t for t in times])
    return accelerated, reference


def branch_states(
    psi0: WavePacket,
    params: PhysicalParams,
    t: float,
    scheme: Colocated | BranchSchedules = Colocated(),
    backend: str = "analytic",
    n_steps: int = 2048,
) -> tuple[WavePacket, WavePacket]:
    """The (accelerated, reference) external states at readout time t.

    Either backend propagates both branches; a colocated reference is then
    recentered onto the fallen branch with shift_packet.
    """
    step = _scan_step(psi0, params, [t], scheme, backend, n_steps)
    (accelerated,), (reference,) = _branches([t], psi0, params, scheme, step)
    return accelerated, reference


def _looks_gaussian(psi0: WavePacket, start: Moments, params: PhysicalParams) -> bool:
    """True when refitting a Gaussian to psi0's moments, start, recovers psi0."""
    try:
        fit = make_gaussian(
            psi0.grid, start.mean_x, start.mean_p, start.sigma_x, params
        )
    except WavefallError:
        return False
    return abs(abs(overlap(fit, psi0)) - 1.0) < 1e-9


def run_protocol(
    psi0: WavePacket,
    params: PhysicalParams,
    t: float,
    scheme: Colocated | BranchSchedules = Colocated(),
    backend: str = "analytic",
    n_steps: int = 2048,
) -> InterferenceRecord:
    """Run the two-branch protocol once and read out the fringe at time t.

    The overlap is <reference|accelerated>.  The predicted columns are the
    scheme's closed form (InterferenceRecord); predicted_visibility is
    populated only for Gaussian inputs (detected by refitting a Gaussian to
    the input's moments).
    """
    return fringe_scan(psi0, params, [t], scheme, backend, n_steps)[0]


def unwrap_phases(phases, t_values) -> np.ndarray:
    """Continue principal-value phases, sampled at t_values, by nearest-branch steps.

    Each consecutive step is reduced to the nearest branch (magnitude at most
    pi); a reduced step within ALIASING_GUARD of pi is ambiguous (the true
    phase may have advanced by more than pi between samples) and raises
    PhaseAliasing telling the caller to densify the sample times.  A NaN or
    inf phase raises NonFiniteState naming its time.  Raises ValueError when
    the two sequences differ in length.
    """
    phases = np.asarray(phases, dtype=float)
    if len(t_values) != phases.size:
        raise ValueError(
            f"{phases.size} phases but {len(t_values)} t_values; need one time per phase"
        )
    out = np.empty_like(phases)
    if phases.size == 0:
        return out
    finite = np.isfinite(phases)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteState(
            f"phase {phases[i]} at t={t_values[i]:.6g} is not finite; cannot unwrap"
        )
    out[0] = phases[0]
    two_pi = 2.0 * math.pi
    for i in range(1, phases.size):
        step = math.remainder(phases[i] - out[i - 1], two_pi)
        if abs(step) > math.pi - ALIASING_GUARD:
            raise PhaseAliasing(
                f"phase step {step:+.4f} rad between t={t_values[i - 1]:.6g} and "
                f"t={t_values[i]:.6g} is within {ALIASING_GUARD} of pi and cannot "
                f"be unwrapped; densify t_values"
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

    One scheme serves every readout: Colocated at any times, a BranchSchedules
    at its one total duration (SchemeMismatch otherwise).  On either backend
    the branches of all times evolve a chunk of rows at a time, in one
    batched call per schedule segment, and each chunk is read out in one
    batched reduction; a scan holds one chunk of rows at a time.  A
    colocated analytic scan reads its fringes from
    analytic._colocated_fringes, which flies the fallen branch alone and
    reads each fringe and the reference's margin from one density per
    readout; it allocates one chunk's arrays and transforms psi0 once for
    all its chunks, and frees them before the records are built.  Every
    other scan reads its fringes from the branch states that branch_states
    gives.  The predicted columns are action's closed forms at psi0's
    moments, taken once: a BranchSchedules scan's before any propagation, a
    colocated scan's after each chunk's fringes.  No fringe is divided by
    psi0's norm, so a start off unit norm reads scaled fringes against
    predictions for the normalized state, and loses its predicted
    visibility (InterferenceRecord).  Raises TypeError for any other scheme;
    NonFiniteState when psi0 holds a non-finite amplitude, or, before any
    propagation, naming the readout time, branch and segment whose fall
    shift g t^2/2 or cubic angle -m g^2 t^3/(6 hbar) is not finite;
    ValueError, from moments and before any propagation, when psi0's norm
    is zero or subnormal, so that its fringes would have underflowed;
    GridOverflow naming the readout time, branch and segment that left the
    grid; and PhaseAliasing when consecutive phase samples are too far
    apart to continue unambiguously.
    """
    times = [float(t) for t in t_values]
    if len(times) == 0:
        return []
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"t_values must be strictly increasing, got {times}")
    step = _scan_step(psi0, params, times, scheme, backend, n_steps)
    start = moments(psi0, params)
    gaussian = _looks_gaussian(psi0, start, params)
    colocated = isinstance(scheme, Colocated)
    if colocated:
        predict = partial(
            _colocated_prediction, start, params=params, gaussian=gaussian
        )
    else:
        a, b = scheme.accelerated, scheme.reference
        branch = _branch_prediction(
            a.segments, b.segments, b.total_duration, start, params, gaussian
        )
        predict = lambda t: branch  # the schedules' one readout time
    density = colocated and backend == "analytic"
    chunks = list(_chunks(times, 1 if density else 2, psi0.amp.nbytes))
    if density:
        readings = _colocated_fringes(psi0, params, chunks, _label)
    else:  # <reference|accelerated>, each chunk's states freed once read
        readings = (
            overlap(*_branches(ts, psi0, params, scheme, step)[::-1]) for ts in chunks
        )
    fringes, predictions = [], []
    # readings first, so that the kernel runs to its end, freeing its
    # workspace, before the records are built: peak memory
    for zs, ts in zip(readings, chunks):
        fringes += zs
        predictions += map(predict, ts)
    phases = [math.atan2(z.imag, z.real) for z in fringes]
    return [
        InterferenceRecord(t, z, abs(z), phase, float(u), *predicted)
        for t, z, phase, u, predicted in zip(
            times, fringes, phases, unwrap_phases(phases, times), predictions
        )
    ]
