"""Closed-form evolution for H = p^2/(2m) + m*g*x via an exact factorization.

Because the commutator of x and p is a c-number, the Zassenhaus expansion of
exp(-i t H / hbar) truncates after finitely many factors.  Applied right to
left, the evolution is exactly:

    1. translate the argument by the classical fall, amp(x) -> amp(x + g t^2/2)
       (a momentum-space phase e^{+i k g t^2/2}),
    2. free flight, momentum-space phase e^{-i hbar t k^2/(2 m)},
    3. momentum kick, position-space phase e^{-i m g t x / hbar},
    4. global cubic phase e^{-i m g^2 t^3/(6 hbar)}.

Each factor is one kernel acting in place on a C-contiguous (rows, n) stack
of amplitudes.  shift_packet runs factor 1 on a stack of any number of
rows, free_evolve factor 2 and apply_global_phase the kernel of factor 4 on
a one-row stack; factor 3 has no public form.  evolve_exact composes all
four on such a stack, with its own (g, t) per row, and the interference
protocol propagates its branches that way, a chunk of rows at a time.
evolve_piecewise and the protocol share one segment loop, _segment_chain,
which takes the propagator of a segment as a callable.  Three rules keep
every row bit-identical to a single-row call:

- each row's phase is built from that row's scalar with the single-row
  expression; rows whose scalars have equal bits share one evaluation;
- rows that share a start state (the same object) and the bits of their
  shift g t^2/2 share the shift stage: the start state is checked finite
  and transformed once, and each distinct (start state, shift) pair is
  phased, transformed back, margin-checked and transformed forward once.
  The stack is expanded to one row per input only for free flight, and
  every error names the caller's row;
- every complex multiply is written ``amp *= phase``, the state on the left.
  ``amp = amp * np.exp(...)`` is not safe: once the stack reaches 256 KiB
  numpy reuses the temporary on the right as the output, which swaps the
  operands, and its fused complex multiply then rounds the imaginary part
  differently.

The boundary margin is re-checked over every distinct shift-stage row and
over every row after free flight; it fails closed on NaN and names the first
offending row of a stack.  Note that a single long step whose packet wraps
around the periodic grid and re-enters with a clean final margin cannot be
detected here, so bound long falls with evolve_piecewise (per-segment
checks) or cross-check with the split-step solver, which guards every step.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Grid,
    PhysicalParams,
    WavePacket,
    _as_rows,
    _check_margin_rows,
    _packets,
    _require_finite,
    _require_times,
    _stack,
    check_margin,
)
from .errors import GridOverflow

__all__ = [
    "AccelSchedule",
    "free_evolve",
    "shift_packet",
    "apply_global_phase",
    "evolve_exact",
    "evolve_piecewise",
]


@dataclass(frozen=True)
class AccelSchedule:
    """Ordered piecewise-constant acceleration profile: ((g, duration), ...).

    Every g must be finite and every duration positive and finite; the
    empty schedule is the identity.
    """

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        segs = tuple((float(g), float(dt)) for g, dt in self.segments)
        for i, (g, dt) in enumerate(segs):
            if not math.isfinite(g):
                raise ValueError(f"segment {i}: g must be finite, got {g}")
            if not 0 < dt < math.inf:
                raise ValueError(
                    f"segment {i}: duration must be positive and finite, got {dt}"
                )
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self) -> float:
        return float(sum(dt for _, dt in self.segments))


def _bits(v: float) -> bytes:
    """The bits of a real scalar, the key of every shared evaluation; -0.0 != 0.0."""
    return struct.pack("<d", v)


def _apply_phases(amp: np.ndarray, values, phase, built=None) -> None:
    """Multiply each row of amp in place by phase(v), one scalar v per row.

    phase is the single-row expression, evaluated on the row's own scalar,
    so each row gets the phase a single-row call builds.  Rows whose
    scalars have equal bits, such as the two branches of one readout time
    or the rows with g = 0, share one evaluation; built, when given, holds
    the evaluations by scalar bits across calls.
    """
    if built is None:
        built = {}
    for row, v in zip(amp, values):
        key = _bits(v)
        if key not in built:
            built[key] = phase(v)
        row *= built[key]


# Fall-shift phases e^{+i k a} by grid and bits of a, shared by every shift
# inside a `with _SharedFallPhases():` block; None outside one.
_FALL_PHASES: ContextVar[dict | None] = ContextVar("_FALL_PHASES", default=None)


class _SharedFallPhases:
    """Reuse each fall-shift phase built inside the block; drop them all on exit.

    The interferometer runs one chunk in a block, so the colocated
    recentering by g t^2/2 reuses the phase its accelerated branch built.
    """

    def __enter__(self) -> None:
        self._token = _FALL_PHASES.set({})

    def __exit__(self, *exc) -> None:
        _FALL_PHASES.reset(self._token)


def _distinct(keys) -> tuple[list[int], list[int]]:
    """Each row's entry among the distinct keys, and each entry's first row.

    Entries are numbered in order of first appearance, so the first
    offending entry of a check stands for the first offending row.
    """
    entry: dict = {}
    of, first = [], []
    for row, key in enumerate(keys):
        if key not in entry:
            entry[key] = len(first)
            first.append(row)
        of.append(entry[key])
    return of, first


def _shift(
    psis: list[WavePacket], shifts: list[float], context: str, batched: bool
) -> tuple[np.ndarray, list[int]]:
    """amp(x + a) per row, run once per distinct (start state, bits of a) pair.

    Each distinct start state (by identity) is checked finite and
    transformed once; each distinct pair then takes the k-space phase
    e^{+i k a}, one inverse FFT and the margin check.  Returns the position
    stack of the pairs and each row's pair.  Both checks name the caller's
    first offending row.
    """
    grid = psis[0].grid
    start, start_rows = _distinct(map(id, psis))
    amp = _stack([psis[r] for r in start_rows])
    _require_finite(amp, f"{context} start state", batched, start_rows)
    np.fft.fft(amp, out=amp)
    pair, pair_rows = _distinct(zip(start, map(_bits, shifts)))
    amp = amp[[start[r] for r in pair_rows]]
    shared = _FALL_PHASES.get()
    _apply_phases(
        amp,
        [shifts[r] for r in pair_rows],
        lambda a: np.exp(1j * grid.k * a),
        None if shared is None else shared.setdefault(grid, {}),
    )
    np.fft.ifft(amp, out=amp)
    _check_margin_rows(amp, "shift_packet", pair_rows, len(psis))
    return amp, pair


def _free(
    amp: np.ndarray, grid: Grid, hbar: float, m: float, times: list[float]
) -> None:
    """Free flight per row of a k-space stack: e^{-i hbar t k^2/(2 m)}, then to x."""
    _apply_phases(amp, times, lambda t: np.exp(-0.5j * hbar * t * grid.k * grid.k / m))
    np.fft.ifft(amp, out=amp)
    check_margin(amp, "free_evolve")


def _kick(amp: np.ndarray, grid: Grid, hbar: float, slopes: list[float]) -> None:
    """Momentum kick per row: the position-space phase e^{-i slope x / hbar}."""
    _apply_phases(amp, slopes, lambda slope: np.exp(-1j * slope * grid.x / hbar))


def _rotate(amp: np.ndarray, thetas: list[float]) -> None:
    """Global phase e^{i theta} per row."""
    _apply_phases(amp, thetas, lambda theta: np.exp(1j * theta))


def free_evolve(psi: WavePacket, params: PhysicalParams, t: float) -> WavePacket:
    """Evolve under the kinetic term alone: e^{-i hbar t k^2/(2 m)} in k-space."""
    _require_times("free_evolve", [t])
    amp = _stack([psi])
    _require_finite(amp, "free_evolve start state", batched=False)
    np.fft.fft(amp, out=amp)
    _free(amp, psi.grid, params.hbar, params.m, [t])
    return WavePacket(psi.grid, amp[0])


def shift_packet(
    psi: WavePacket | Sequence[WavePacket], a: float | Sequence[float]
):
    """Translate the argument: amp(x) -> amp(x + a), exact on the lattice.

    A packet peaked at x0 ends up peaked at x0 - a.  Implemented as the
    spectral phase e^{+i k a}, which is exact for band-limited lattice states
    at any real a, not only multiples of dx.  psi and a may each be a single
    value or an equal-length sequence, as in evolve_exact, which also
    describes the errors.
    """
    batched, (psis, shifts) = _as_rows("shift_packet", psi, a)
    if not psis:
        return []
    amp, pair = _shift(psis, shifts, "shift_packet", batched)
    return _packets(psis[0].grid, amp[pair], batched)


def apply_global_phase(psi: WavePacket, theta: float) -> WavePacket:
    """Multiply by the overall phase e^{i theta}; no observable changes."""
    amp = _stack([psi])
    _rotate(amp, [theta])
    return WavePacket(psi.grid, amp[0])


def evolve_exact(
    psi: WavePacket | Sequence[WavePacket],
    params: PhysicalParams | Sequence[PhysicalParams],
    t: float | Sequence[float],
):
    """Exact evolution for duration t under V = +m*g*x.

    Composes the four factors listed in the module docstring.  Ehrenfest
    means follow the classical fall: mean_x picks up -g t^2/2 plus the free
    drift, mean_p picks up -m g t; the spread is identical to the free
    packet's at every t.

    psi, params and t may each be a single value or an equal-length sequence
    (list, tuple or ndarray of times); single values broadcast against the
    sequences, and every row is evolved in one (rows, n) stack.  Rows must
    share the grid (GridMismatch otherwise), hbar and m (ValueError); g, t
    and the start state may differ per row, and each row's result is
    bit-identical to a single-row call.  Rows given the same start-state
    object with equal shift bits share one shift stage (see the module
    docstring).  Returns the final WavePacket, or a list of them when any
    argument is a sequence.  Raises GridOverflow when
    any row touches the guarded boundary nodes after the shift or after free
    flight, naming the first such row of a stack and carrying its index as
    .row, and NonFiniteState, naming the row and node, when a start state
    holds NaN or inf.
    """
    batched, (psis, pars, times) = _as_rows("evolve_exact", psi, params, t)
    if not psis:
        return []
    _require_times("evolve_exact", times)
    grid, hbar, m = psis[0].grid, pars[0].hbar, pars[0].m
    if any((p.hbar, p.m) != (hbar, m) for p in pars):
        raise ValueError("evolve_exact: rows must share hbar and m")
    shifts = [0.5 * p.g * ti * ti for p, ti in zip(pars, times)]
    amp, pair = _shift(psis, shifts, "evolve_exact", batched)
    np.fft.fft(amp, out=amp)
    amp = amp[pair]
    _free(amp, grid, hbar, m, times)
    _kick(amp, grid, hbar, [p.m * p.g * ti for p, ti in zip(pars, times)])
    _rotate(
        amp,
        [-p.m * p.g * p.g * ti**3 / (6.0 * p.hbar) for p, ti in zip(pars, times)],
    )
    return _packets(grid, amp, batched)


def _segment_chain(psi, params, rows, labels, step):
    """Final states of rows of (g, duration) segments, all started from psi.

    Segment i of every row that has one runs in one batched call
    step(states, params, durations), each row's params taking its g.  A
    GridOverflow is re-raised naming the row's label and the segment, with
    the row of step's stack, which means nothing to the caller, dropped.
    """
    states = [psi] * len(rows)
    for i in range(max(map(len, rows), default=0)):
        live = [r for r, row in enumerate(rows) if i < len(row)]
        gs = [rows[r][i][0] for r in live]
        # One params per distinct g, keyed by bits so 0.0 and -0.0 stay apart.
        distinct = {_bits(g): g for g in gs}
        pars = {key: replace(params, g=g) for key, g in distinct.items()}
        try:
            out = step(
                [states[r] for r in live],
                [pars[_bits(g)] for g in gs],
                [rows[r][i][1] for r in live],
            )
        except GridOverflow as exc:
            r = live[exc.row]
            g_i, dt_i = rows[r][i]
            cause = str(exc).replace(f" in row {exc.row}", "", 1)
            raise GridOverflow(
                f"{labels[r]}, segment {i} (g={g_i}, duration={dt_i}): {cause}"
            ) from exc
        for r, state in zip(live, out):
            states[r] = state
    return states


def evolve_piecewise(
    psi: WavePacket, params: PhysicalParams, schedule: AccelSchedule
) -> WavePacket:
    """Chain evolve_exact over a piecewise-constant acceleration schedule.

    hbar and m come from params; each segment overrides g.  A margin failure
    is re-raised as "schedule, segment i (g=..., duration=...): ...".
    """
    rows, labels = [schedule.segments], ["schedule"]
    (out,) = _segment_chain(psi, params, rows, labels, evolve_exact)
    return out
