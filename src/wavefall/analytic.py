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
rows, and apply_global_phase the kernel of factor 4 on a one-row stack;
factors 2 and 3 have no public form.  evolve_exact composes all four on
such a stack, with its own (g, t) per row: _fall runs factors 1 and 2 and
their margin checks, and the kick and global phase follow.  The kernels
check no angle: evolve_exact and shift_packet check each row's phase angles
once, before they build any phase.
evolve_piecewise and the protocol's state scans share one segment loop,
_segment_chain, which takes the propagator of a segment as a callable,
and one check of their segments' scalars, _require_finite_segments.

The protocol's colocated fringe has its own kernel, _colocated_fringes.
The factors above give U_g(t) = e^{i theta} K U_0(t) T_a, with T_a the
translation by a = g t^2/2, K = e^{-i m g t x/hbar} the kick and theta
the cubic angle.  T_a and U_0(t) are both diagonal in k, so they commute
exactly on the lattice, and the colocated reference T_a U_0(t) psi0 is
phi = U_0(t) T_a psi0, the accelerated branch just before its kick:

    z = e^{i theta} <phi|K|phi> = e^{i theta} dx sum_x |phi(x)|^2 K(x).

So the kernel calls _fall once per chunk of fallen rows and kicks their
densities; no reference row is flown, its margin being read from the
same density (_reference_margin).  It passes _fall a workspace (_shift):
psi0's spectrum, transformed once per scan, and one chunk's k-space
stack and x-space copy, allocated once.  The kernel and _segment_chain
name a refusal's segment with _relabelled.

Two rules keep every row bit-identical to a single-row call, and a third
halves the cost of the k-space phases and of the kick without changing a
bit:

- every row is the single-row computation: its start state is checked
  finite and transformed (a colocated scan's rows copy psi0's one
  spectrum, which has those bits), each of its phases is built from its
  own scalar with the single-row expression, one phase built and applied
  at a time (_apply_phases), and its shift-stage margin is checked on a
  copy transformed back to x.  The fall stays in k-space: free flight
  starts from the phased stack, so evolve_exact makes one transform pair
  per row.  Every error names the caller's row;
- every complex multiply is written ``amp *= phase``, the state on the left.
  ``amp = amp * np.exp(...)`` is not safe: once the stack reaches 256 KiB
  numpy reuses the temporary on the right as the output, which swaps the
  operands, and its fused complex multiply then rounds the imaginary part
  differently;
- the k-space phases, free flight's e^{-i hbar t k^2/(2m)} and the shift's
  e^{+i k a}, are built on half the spectrum, the nodes k_0 .. k_{n/2}
  (Nyquist included), and mirrored onto the rest: free flight's as it is,
  the shift's conjugated.  This is exact, not an approximation: fftfreq
  gives k_{-j} = -k_j to the bit, so node n - j's angle is node j's
  (free flight) or its negation (the shift) to the bit, and the real part
  of each exponent is a zero of either sign; e^{+-0 + i theta} has the
  same bits for either zero, cos is even and sin odd.  An angle that is
  zero takes its sign from its own node (_mirrored).  The kick's
  e^{-i slope x/hbar} is odd in x and is mirrored the same way about
  x_{n/2}, np.exp running on x_{n/2} .. x_{n-1} and x_0, when grid.x is
  antisymmetric about x_{n/2} to the bit (_x_fft), as the symmetric
  bounds of every shipped config make it.  Any other grid builds the
  kick on every node; its bits are the same either way.

The boundary margin is re-checked over every shift-stage row, on its copy
in x, and over every row after free flight.  Every refusal (margin, start
state, scalar or angle) is decided in core, fails closed on NaN and names
the caller's first offending row when the call is batched, one-row lists
included.  Note that a single long step whose packet wraps around the
periodic grid and re-enters with a clean final margin cannot be detected
here, so bound long falls with evolve_piecewise (per-segment checks) or
cross-check with the split-step solver, which guards every step.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (
    _MARGIN_AMPLITUDE,
    Grid,
    PhysicalParams,
    WavePacket,
    _as_rows,
    _check_margin,
    _extremes,
    _guard_index,
    _in_row,
    _packets,
    _require_finite,
    _require_finite_rows,
    _require_finite_scalars,
    _require_times,
    _shared_hbar_m,
    _stack,
)
from .errors import GridOverflow, NonFiniteState

__all__ = [
    "AccelSchedule",
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


def _apply_phases(amp: np.ndarray, values, phase) -> None:
    """Multiply each row of amp in place by phase(v), one scalar v per row.

    phase is the single-row expression, evaluated on the row's own scalar,
    so each row gets the phase a single-row call builds.  Each phase is
    built and applied to its row before the next is built, so one phase is
    alive at a time.
    """
    for row, v in zip(amp, values):
        row *= phase(v)


def _mirrored(nodes: np.ndarray, exponent, odd: bool) -> np.ndarray:
    """e^{exponent(nodes)} in FFT layout, with np.exp run on nodes 0 .. n/2 only.

    nodes must be in FFT layout, node n - j the negation of node j to the
    bit for 0 < j < n/2 and |node j| non-decreasing there, as grid.k is and
    as _x_fft gives grid.x.  Node n - j takes node j's phase for an even
    exponent and its conjugate for an odd one; see the module docstring for
    why this is exact.  A zero angle is the exception: its sign comes from
    its own node's arithmetic, which neither rule predicts, so each mirrored
    node whose angle at j is +-0 takes the imaginary part of its own
    exponent, e^{+-0 + i(+-0)} being 1 with that zero.  Each exponent's
    |angle| grows with |node|, rounding included, so only when node 1's
    angle is zero can another node's be.
    """
    n, h = len(nodes), len(nodes) // 2 + 1
    half = exponent(nodes[:h])
    full = np.empty(n, dtype=np.complex128)
    np.exp(half, out=full[:h])
    mirror = full[h - 2 : 0 : -1]
    if odd:
        np.conjugate(mirror, out=full[h:])
    else:
        full[h:] = mirror
    if half[1].imag == 0:
        fix = n - 1 - np.flatnonzero(half.imag[1 : h - 1] == 0)
        full.imag[fix] = exponent(nodes[fix]).imag
    return full


@lru_cache(maxsize=8)
def _x_fft(grid: Grid) -> np.ndarray | None:
    """grid.x rolled into FFT layout, x_{n/2} first, if it is antisymmetric.

    Antisymmetric means x_{n/2 - j} == -x_{n/2 + j} to the bit for
    0 < j < n/2, which the symmetric bounds of every shipped config meet;
    any other grid gives None.  The x nodes increase, so |node j| does too.
    """
    nodes = np.roll(grid.x, -(grid.n // 2))
    mirror = -nodes[: grid.n // 2 : -1]
    if nodes[1 : grid.n // 2].tobytes() != mirror.tobytes():
        return None
    nodes.setflags(write=False)
    return nodes


def _shift_phase(grid: Grid, a: float) -> np.ndarray:
    """The fall shift's k-space phase e^{+i k a}, odd in k."""
    return _mirrored(grid.k, lambda k: 1j * k * a, odd=True)


def _free_phase(grid: Grid, hbar: float, m: float, t: float) -> np.ndarray:
    """Free flight's k-space phase e^{-i hbar t k^2/(2 m)}, even in k."""
    return _mirrored(grid.k, lambda k: -0.5j * hbar * t * k * k / m, odd=False)


def _shift(
    psis: list[WavePacket], shifts: list[float], context: str, batched: bool, space=None
) -> tuple[np.ndarray, np.ndarray]:
    """amp(x + a) per row, each row's start state transformed on its own.

    Each row's start state is checked finite and transformed, then takes
    the k-space phase e^{+i k a}, and a copy transformed back to x takes
    the margin check.  Returns the k-space stack and its position copy, one
    row per input.  Both checks name the caller (context) and its first
    offending row; the caller has checked every shift angle.

    space, when given, is (spectrum, work, copy): the one start state's
    (1, n) spectrum, already checked finite and transformed, and two
    (rows, n) complex arrays that the k-space stack and the copy are
    written into (_colocated_fringes).  Every row of work starts as a copy
    of the spectrum.  Without it, as for evolve_exact and shift_packet, the
    start states are checked and transformed here and both arrays are
    allocated.
    """
    grid = psis[0].grid
    if space is None:
        amp, copy = _stack(psis), None
        _require_finite(amp, f"{context} start state", batched)
        np.fft.fft(amp, out=amp)
    else:
        spectrum, amp, copy = space
        amp[...] = spectrum
    _apply_phases(amp, shifts, lambda a: _shift_phase(grid, a))
    moved = np.fft.ifft(amp, out=copy)
    _check_margin(moved, context, batched)
    return amp, moved


def _shift_angle(a: float, k_max: float) -> float:
    """Largest |angle| of the shift phase e^{+i k a}, k_max |a|."""
    return k_max * abs(a)


def _free_angle(hbar: float, m: float, t: float, k_max: float) -> float:
    """Largest |angle| of _free's phase, hbar t k_max^2/(2m), in its order."""
    return 0.5 * hbar * t * k_max * k_max * (1.0 / m)


def _kick_angle(hbar: float, slope: float, x_max: float) -> float:
    """Largest |angle| of _kick's phase, |slope| max|x|/hbar, in its order."""
    return abs(slope) * x_max * (1.0 / hbar)


def _free(
    amp: np.ndarray, grid: Grid, hbar: float, m: float, times: list[float]
) -> None:
    """Free flight per row of a k-space stack: e^{-i hbar t k^2/(2 m)}, then to x."""
    _apply_phases(amp, times, lambda t: _free_phase(grid, hbar, m, t))
    np.fft.ifft(amp, out=amp)


def _kick_phase(grid: Grid, hbar: float, slope: float) -> np.ndarray:
    """The kick's position-space phase e^{-i slope x / hbar}, odd in x.

    Mirrored about x_{n/2} (_mirrored) when grid.x is antisymmetric about
    it (_x_fft), else built on every node; both give the same bits.
    """
    nodes = _x_fft(grid)
    if nodes is None:
        return np.exp(-1j * slope * grid.x / hbar)
    phase = _mirrored(nodes, lambda x: -1j * slope * x / hbar, odd=True)
    return np.concatenate((phase[grid.n // 2 :], phase[: grid.n // 2]))


def _kick(amp: np.ndarray, grid: Grid, hbar: float, slopes: list[float]) -> None:
    """Momentum kick per row: the position-space phase e^{-i slope x / hbar}.

    Each phase has the bits of np.exp(-1j * slope * grid.x / hbar); it is
    mirrored about x_{n/2} when grid.x allows (_kick_phase).
    """
    _apply_phases(amp, slopes, lambda slope: _kick_phase(grid, hbar, slope))


def _rotate(amp: np.ndarray, thetas: list[float]) -> None:
    """Global phase e^{i theta} per row."""
    _apply_phases(amp, thetas, lambda theta: np.exp(1j * theta))


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
    k_max = _extremes(psis[0].grid)[0]
    _require_finite_rows(
        "shift_packet", batched, shift_angle=[_shift_angle(s, k_max) for s in shifts]
    )
    _, moved = _shift(psis, shifts, "shift_packet", batched)
    return _packets(psis[0].grid, moved, batched)


def apply_global_phase(psi: WavePacket, theta: float) -> WavePacket:
    """Multiply by the overall phase e^{i theta}; no observable changes.

    Raises NonFiniteState when theta is NaN or inf, or naming the node when
    the state holds NaN or inf.
    """
    _require_finite_scalars("apply_global_phase", theta=theta)
    amp = _stack([psi])
    _require_finite(amp, "apply_global_phase start state", False)
    _rotate(amp, [theta])
    return _packets(psi.grid, amp, False)


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
    and the start state may differ per row, and each row is computed on its
    own, bit-identical to a single-row call.  Returns the final WavePacket,
    or a list of them when any argument is a sequence.
    Raises GridOverflow when any row touches the guarded boundary nodes
    after the shift or after free flight, naming the first such row of a
    stack and carrying its index as .row, and NonFiniteState, naming the row
    and node, when a start state holds NaN or inf, or naming the row, before
    any phase is built, when its shift, kick slope or cubic angle, or the
    largest angle of a phase, is not finite.
    """
    batched, (psis, pars, times) = _as_rows("evolve_exact", psi, params, t)
    if not psis:
        return []
    amp, hbar, slopes, thetas = _fall(psis, pars, times, batched)
    grid = psis[0].grid
    _kick(amp, grid, hbar, slopes)
    _rotate(amp, thetas)
    return _packets(grid, amp, batched)


def _fall(psis, pars, times, batched: bool, space=None):
    """evolve_exact up to its kick: every check, the shift stage, free flight.

    Free flight starts from the shift stage's k-space stack, one row per
    input, so each row makes one transform pair.  Returns the
    margin-checked position stack, hbar, and each row's kick slope and
    cubic angle.  The stack is fresh, or, when space is given (see _shift),
    its work array, each row started from the one spectrum, which
    _colocated_fringes reuses from chunk to chunk.
    """
    _require_times("evolve_exact", times, batched)
    grid = psis[0].grid
    hbar, m = _shared_hbar_m("evolve_exact", pars)
    shifts, slopes, thetas = _factor_scalars(grid, pars, times, batched)
    amp, moved = _shift(psis, shifts, "evolve_exact", batched, space)
    del moved  # read by the margin check only; freed to bound peak memory
    _free(amp, grid, hbar, m, times)
    _check_margin(amp, "evolve_exact", batched)
    return amp, hbar, slopes, thetas


def _factor_scalars(grid: Grid, pars, times, batched: bool):
    """Each row's shift g t^2/2, kick slope m g t and cubic angle of evolve_exact.

    Raises NonFiniteState, "evolve_exact[ in row R]: result <name>=<value> is
    not finite", at the first row with a scalar that is not finite; t**3
    past the float range counts as an infinite angle.  The largest angle of
    each phase is checked too, by the kernels' own _shift_angle,
    _free_angle and _kick_angle, so that every row is refused before any
    phase is built; the kernels check no angle themselves.
    """
    k_max, x_max = _extremes(grid)
    shifts = [0.5 * p.g * ti * ti for p, ti in zip(pars, times)]
    slopes = [p.m * p.g * ti for p, ti in zip(pars, times)]
    thetas = [_cubic_angle(p.m, p.g, p.hbar, ti) for p, ti in zip(pars, times)]
    _require_finite_rows(
        "evolve_exact", batched, shift=shifts, kick_slope=slopes, cubic_angle=thetas,
        free_flight_angle=[
            _free_angle(p.hbar, p.m, ti, k_max) for p, ti in zip(pars, times)
        ],
        kick_angle=[_kick_angle(p.hbar, s, x_max) for p, s in zip(pars, slopes)],
        shift_angle=[_shift_angle(s, k_max) for s in shifts],
    )
    return shifts, slopes, thetas


def _cubic_angle(m: float, g: float, hbar: float, t: float) -> float:
    """The global phase angle -m g^2 t^3/(6 hbar); -inf when t**3 overflows."""
    try:
        return -m * g * g * t**3 / (6.0 * hbar)
    except OverflowError:
        return -math.inf


def _segment_label(label: str, i: int, segment) -> str:
    """Segment i as a refusal names it: "<label>, segment i (g=G, duration=D)"."""
    g, duration = segment
    return f"{label}, segment {i} (g={g}, duration={duration})"


def _relabelled(exc, label: str, i: int, segment):
    """A refusal retold as the same type naming label's segment i.

    The message reads "<label>, segment i (g=G, duration=D): <cause>", the
    cause being exc's message with the row of the raiser's stack, which
    means nothing to the caller, dropped; the new refusal carries no row.
    """
    cause = str(exc).replace(_in_row(exc.row, True), "", 1)
    return type(exc)(f"{_segment_label(label, i, segment)}: {cause}")


def _segment_chain(psi, params, rows, label, step):
    """Final states of rows of (g, duration) segments, all started from psi.

    Segment i of every row that has one runs in one batched call
    step(states, params, durations), each row's params being
    replace(params, g=g) with its own segment's g.  A GridOverflow or
    NonFiniteState is re-raised as the same type naming row r's label(r)
    and the segment (_relabelled).
    """
    states = [psi] * len(rows)
    for i in range(max(map(len, rows), default=0)):
        live = [r for r, row in enumerate(rows) if i < len(row)]
        try:
            out = step(
                [states[r] for r in live],
                [replace(params, g=rows[r][i][0]) for r in live],
                [rows[r][i][1] for r in live],
            )
        except (GridOverflow, NonFiniteState) as exc:
            r = live[exc.row]
            raise _relabelled(exc, label(r), i, rows[r][i]) from exc
        for r, state in zip(live, out):
            states[r] = state
    return states


def _require_finite_segments(params, rows, label) -> None:
    """NonFiniteState at the first segment whose fall shift or cubic angle is not finite.

    rows are _segment_chain's rows of (g, duration) segments, read in
    order, and label(r) names row r; both may be lazy.  The fall shift is
    g d^2/2 and the cubic angle _cubic_angle's -m g^2 d^3/(6 hbar), -inf
    once d**3 overflows.  A refusal is labelled as _segment_chain labels
    one from inside the chain.  The protocol checks a scan's rows here
    before any propagation, so both its backends refuse such a segment
    alike; the split-step solver would otherwise build its phases from
    angles far past any meaningful range.
    """
    m, hbar = params.m, params.hbar
    for r, row in enumerate(rows):
        for i, (g, duration) in enumerate(row):
            shift = 0.5 * g * duration * duration
            for name, value in (
                ("shift", shift),
                ("cubic_angle", _cubic_angle(m, g, hbar, duration)),
            ):
                if not math.isfinite(value):
                    raise NonFiniteState(
                        f"{_segment_label(label(r), i, (g, duration))}: "
                        f"result {name}={value} is not finite"
                    )


def evolve_piecewise(
    psi: WavePacket, params: PhysicalParams, schedule: AccelSchedule
) -> WavePacket:
    """Chain evolve_exact over a piecewise-constant acceleration schedule.

    hbar and m come from params; each segment overrides g.  A start state
    holding NaN or inf is refused first, with NonFiniteState naming the
    node, even for the empty schedule.  A margin failure, or a segment
    scalar or angle that is not finite, is re-raised as "schedule, segment
    i (g=..., duration=...): ...".
    """
    _require_finite(psi.amp[None], "evolve_piecewise start state", False)
    rows = [schedule.segments]
    (out,) = _segment_chain(psi, params, rows, lambda r: "schedule", evolve_exact)
    return out


def _reference_margin(times, prob, grid, params) -> None:
    """Refuse the first readout whose reference, U_0(t) psi0, reaches the margin.

    That packet is phi(x - a), with a = g t^2/2 (module docstring), so its
    density on a guarded node j is prob = |phi|^2 at node j - a/dx (mod n):
    both neighbours for a fractional fall, the one node for a whole-node
    fall.  A maximum not below the margin squared, NaN included, raises
    core._check_margin's GridOverflow, its .row the readout's index in
    times, for the caller to label.

    Blind spot: the read takes the neighbours' densities, not the
    translate's value between them, which for an under-resolved state can
    exceed both, its sinc tails reaching the guarded nodes.  So it can
    accept a reference that evolve_exact refuses: on [-20, 20] at n = 64,
    a Gaussian of spread 0.93 (below the 2 dx that make_gaussian allows)
    at x0 = 3.63 with k0 = -0.73, read at g = -1.80 and t = 0.0696, whose
    reference evolve_exact and the split-step backend refuse at 1.344e-10.
    """
    n = grid.n
    index = _guard_index(n)
    falls = np.array([0.5 * params.g * t * t for t in times]) / grid.dx
    # node j - a/dx lies between nodes j + floor(-a/dx) and j + ceil(-a/dx)
    shifts = np.stack((np.floor(-falls), np.ceil(-falls))) % n
    nodes = (index + shifts.astype(np.intp)[..., None]) % n
    band = prob.take(nodes + n * np.arange(len(times))[:, None])
    if band.max() < _MARGIN_AMPLITUDE * _MARGIN_AMPLITUDE:
        return
    # the larger neighbour on the reference's own guarded nodes, for the refusal
    edges = np.zeros_like(prob)
    edges[:, index] = np.sqrt(band.max(axis=0))
    _check_margin(edges, "evolve_exact", False)


def _colocated_fringes(psi0, params, chunks, label):
    """Yield each chunk's colocated fringes, read from one density per readout.

    chunks holds each chunk's readout times, the first the longest.  Each
    chunk is one _fall of psi0's accelerated rows, giving phi in the
    leading rows of the workspace, made once; a refusal names label(t,
    "accelerated") and its segment, as _segment_chain does.  The first
    chunk then checks psi0's margin, and every chunk the reference's
    (_reference_margin), a refusal naming label(t, "reference").  The
    density is written into the copy's buffer, margin-checked by then, and
    then over phi's stack, where it is kicked in place to give
    z = e^{i theta} dx sum |phi|^2 K.  A generator, so its caller reads
    chunk c's fringes before chunk c + 1 falls; the workspace is freed
    once it is exhausted.
    """
    grid = psi0.grid
    spectrum = np.fft.fft(psi0.amp[None])
    work, copy = np.empty((2, len(chunks[0]), grid.n), complex)
    for c, times in enumerate(chunks):
        k = len(times)
        try:
            density, hbar, slopes, thetas = _fall(
                [psi0] * k, [params] * k, times, True, (spectrum, work[:k], copy[:k])
            )
        except (GridOverflow, NonFiniteState) as exc:
            t = times[exc.row]
            raise _relabelled(exc, label(t, "accelerated"), 0, (params.g, t)) from exc
        prob = copy.reshape(-1).view(np.float64)[: density.size].reshape(density.shape)
        np.abs(density, out=prob)
        prob *= prob
        try:
            if c == 0:
                _check_margin(psi0.amp[None], "evolve_exact", False)
            _reference_margin(times, prob, grid, params)
        except GridOverflow as exc:
            t = times[exc.row]
            raise _relabelled(exc, label(t, "reference"), 0, (0.0, t)) from exc
        density[...] = prob
        _kick(density, grid, hbar, slopes)
        sums = np.sum(density, axis=-1) * grid.dx
        yield [cmath.exp(1j * theta) * complex(s) for theta, s in zip(thetas, sums)]
