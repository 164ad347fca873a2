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
and the rows of a scan run in chunks of whole branch pairs whose (rows, n)
stack stays within 256 KiB.  Each chunk runs through analytic._segment_chain,
the segment loop evolve_piecewise uses too: segment i of every row of a chunk
is one batched call of the backend's propagator, passed in as the step.  On
the analytic backend the rows of a chunk share what they can: one transform
of psi0, one shift stage for all the reference rows (they shift by 0), and
the colocated recentering reuses the fall-shift phase of its accelerated
row.  Each chunk is read out with one batched overlap and one batched
position-moment reduction, with no momentum transform; every row is
bit-identical to a single-row run.

For a Gaussian input the visibility obeys gaussian_visibility, a Gaussian in
(m g t sigma_t / hbar); the packet spread is what erases the fringe contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import (
    AccelSchedule,
    _SharedFallPhases,
    _segment_chain,
    evolve_exact,
    shift_packet,
)
from .core import (
    PhysicalParams,
    WavePacket,
    _position_moments,
    _require_finite,
    _require_times,
    _stack,
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
    "predicted_phase",
    "gaussian_visibility",
    "unwrap_phases",
    "fringe_scan",
]

# Unwrapping jump guard: nearest-branch steps can never exceed pi, so steps
# within this window of pi are indistinguishable from aliased faster motion.
ALIASING_GUARD = 1e-3

_BACKENDS = ("analytic", "split-step")

# Cap on the amplitudes of one propagation chunk: 16 rows at n = 1024, 64 at
# n = 256.  It bounds peak memory: chunks of 50 pairs ran a 400-readout scan
# at n = 1024 at most about 10% faster, for about 9 MB more peak RSS.
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


def _branch_pairs(psi0, params, times, schemes, backend, n_steps):
    """Lazy (times, accelerated states, reference states) lists, chunk by chunk.

    The one place that picks a backend.  Each branch becomes a row of
    (g, duration) segments: a colocated readout at t gives ((g, t),) and
    ((0.0, t),), a BranchSchedules its two schedules.  Plain tuples, because
    AccelSchedule refuses the zero duration of t = 0.  The start state, the
    backend and every (time, scheme) pair are validated on the call, before
    any moments or propagation; the chunks run as they are iterated.
    """
    _require_finite(psi0.amp[None], "start state psi0", batched=False)
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    _require_times("readout time", times)
    rows, labels = [], []
    for t, scheme in zip(times, schemes):
        labels += [f"readout t={t}, {b} branch" for b in ("accelerated", "reference")]
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
        if not math.isclose(total_a, t, rel_tol=1e-12, abs_tol=1e-12):
            raise SchemeMismatch(
                f"schedule total {total_a} does not match requested t={t}"
            )
        rows += [scheme.accelerated.segments, scheme.reference.segments]
    if backend == "analytic":
        step = evolve_exact
    else:
        step = partial(evolve_split_step, config=SolverConfig(n_steps))
    return _propagate(psi0, params, times, schemes, rows, labels, step)


def _propagate(psi0, params, times, schemes, rows, labels, step):
    """The (times, accelerated, reference) lists of each chunk of branch rows.

    Rows run in chunks of whole (accelerated, reference) pairs whose stack
    stays within _CHUNK_BYTES, each through analytic._segment_chain with
    step, the backend's batched propagator.  The colocated free branch is
    then translated onto the fallen one: amp(x + g t^2/2) recenters the
    peak at center_free - g t^2/2.  A chunk runs inside
    analytic._SharedFallPhases, so on the analytic backend that
    recentering reuses the e^{+i k g t^2/2} phase its accelerated branch
    built; the shared phases are dropped before the chunk is yielded.
    """
    per_chunk = max(1, _CHUNK_BYTES // (2 * psi0.amp.nbytes))
    for first in range(0, len(times), per_chunk):
        pairs = range(first, min(first + per_chunk, len(times)))
        chunk = slice(2 * pairs.start, 2 * pairs.stop)
        with _SharedFallPhases():
            states = _segment_chain(psi0, params, rows[chunk], labels[chunk], step)
            accelerated, reference = states[0::2], states[1::2]
            coloc = [
                j for j, k in enumerate(pairs) if isinstance(schemes[k], Colocated)
            ]
            if coloc:
                ts = [times[pairs[j]] for j in coloc]
                shifted = shift_packet(
                    [reference[j] for j in coloc], [0.5 * params.g * t * t for t in ts]
                )
                for j, state in zip(coloc, shifted):
                    reference[j] = state
        yield [times[k] for k in pairs], accelerated, reference


def branch_states(
    psi0: WavePacket,
    params: PhysicalParams,
    t: float,
    scheme: Colocated | BranchSchedules = Colocated(),
    backend: str = "analytic",
    n_steps: int = 2048,
) -> tuple[WavePacket, WavePacket]:
    """The (accelerated, reference) external states at readout time t."""
    _, (accelerated,), (reference,) = next(
        _branch_pairs(psi0, params, [t], [scheme], backend, n_steps)
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
    times: list[float],
    accelerated: list[WavePacket],
    reference: list[WavePacket],
    params: PhysicalParams,
    gaussian: bool,
) -> list[dict]:
    """The fringe record fields of a chunk of branch-state pairs read out at times.

    Every field but phase_unwrapped, which needs the whole scan.  One
    batched overlap gives the fringes.  predicted_phase and
    predicted_visibility need only the reference branch's mean_x and
    sigma_x, which core._position_moments, the position half of moments,
    gives without a momentum transform.
    """
    _, mean_x, sigma_x = _position_moments(
        _stack(reference), reference[0].grid, batched=True
    )
    return [
        dict(
            t=t,
            overlap=z,
            visibility=abs(z),
            phase=math.atan2(z.imag, z.real),
            fringe_x=z.real,
            fringe_y=z.imag,
            predicted_phase=predicted_phase(xbar, t, params),
            predicted_visibility=(
                gaussian_visibility(sigma, t, params) if gaussian else None
            ),
        )
        for t, z, xbar, sigma in zip(
            times, overlap(reference, accelerated), mean_x, sigma_x
        )
    ]


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
    PhaseAliasing telling the caller to densify the sample times.  A NaN or
    inf phase raises NonFiniteState naming its sample (or time).
    """
    phases = np.asarray(phases, dtype=float)
    out = np.empty_like(phases)
    if phases.size == 0:
        return out
    finite = np.isfinite(phases)
    if not finite.all():
        i = int(np.argmin(finite))
        where = f"t={t_values[i]:.6g}" if t_values is not None else f"sample {i}"
        raise NonFiniteState(f"phase {phases[i]} at {where} is not finite; cannot unwrap")
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
    schedules depend on the readout time.  On either backend the branches
    of all times evolve a chunk of rows at a time, in one batched call per
    schedule segment, and each chunk is read out in one batched call; a scan
    holds one chunk of states at a time.  Raises NonFiniteState when psi0
    holds a non-finite amplitude, GridOverflow naming the readout time,
    branch and segment that left the grid, and PhaseAliasing when
    consecutive phase samples are too far apart to continue unambiguously.
    """
    times = [float(t) for t in t_values]
    if len(times) == 0:
        return []
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"t_values must be strictly increasing, got {times}")
    schemes = [scheme(t) if callable(scheme) else scheme for t in times]
    chunks = _branch_pairs(psi0, params, times, schemes, backend, n_steps)
    gaussian = _looks_gaussian(psi0, params)
    fields = [f for chunk in chunks for f in _readout(*chunk, params, gaussian)]
    unwrapped = unwrap_phases([f["phase"] for f in fields], times)
    return [
        InterferenceRecord(**f, phase_unwrapped=float(u))
        for f, u in zip(fields, unwrapped)
    ]
