"""Split-step spectral solver: Strang splitting of kinetic and potential flow.

One step of size dt applies e^{-i V dt/(2 hbar)} e^{-i T dt/hbar}
e^{-i V dt/(2 hbar)} with V = m g x diagonal in position space and
T = p^2/(2m) diagonal in momentum space.  For this linear potential N steps
give the exact state times the global phase e^{i phi_N},
phi_N = m g^2 t^3/(24 hbar N^2) (_strang_phase), so observables match the
closed form to rounding at any dt and the L2 error |e^{i phi_N} - 1| is
second order in dt.  With the phase removed the rest is rounding, bounded by
_strang_tolerance; verify's strang_convergence_order asserts both.

Independent runs are evolved as one (rows, n) stack: each step is one
in-place FFT pair along the last axis, with per-row potential and kinetic
phase arrays built in the single-run operation order, so every row is
bit-identical to the same run made alone.  Rows share the grid, hbar and m
and may differ in g, duration and start state; in the private kernel
(_strang_rows) they may also differ in step count.  There the rows are
stacked longest-first, so the rows still running are always a prefix of
the stack, and each stretch of steps acts on zero-copy views of that
prefix and of its phase rows.  The bits do not change: the FFT transforms
each row on its own, every multiply is elementwise, and a row sees the
same phases, in the same order, for its own number of steps.

The inverse FFT is taken unscaled (norm="forward"), and its 1/n is folded
into the kinetic phase, so a step pays neither numpy's per-call reciprocal
nor pocketfft's separate scaling pass.  Grid makes n a power of two, so 1/n
is exact and scaling by it commutes with every rounded multiply and add
whose result is not subnormal: the bits are those of numpy's
default-normalized inverse.  Two edges move.
- Overflow: the spectrum is scaled before the inverse sums it, so a single
  1e308 spike no longer overflows the inverse to NaN; it reads a finite
  7.991e+304 at the boundary and is still refused at step 1/8.  Two
  adjacent 1e308 nodes still overflow the forward FFT to NaN.
- Subnormals: a value of the scaled spectrum below about n 2^-1022 loses
  low bits.  The default start scaled by 1e-300 keeps its bits for 8 steps
  but not for 1024, and one scaled by 1e-302 loses them within 8; a tiny
  but nonzero Gaussian tail, momentum or phase angle reaches that range at
  any scale.  Once one bit moves, later steps round differently, so such a
  state differs from the old normalization at the rounding level of its
  largest amplitude.

Adjacent half-kicks are fused (Feit, Fleck and Steiger, J. Comput. Phys.
47, 412, 1982): the opening half-kick is applied once, a step is then the
FFT pair and the margin check, and every step but a row's last ends with
the full kick v^2, the closing half-kick of this step and the opening one
of the next.  A row's last step ends with its closing half-kick alone,
built as the opening one was, so a row's bits do not depend on the rows
stacked with it.  v^2 is rounded once where two half-kicks rounded twice,
so results differ from the unfused loop at rounding level: within
_strang_tolerance in L2 from a unit-norm start, and so by at most that
over sqrt(dx) on a guarded node, where the unfused loop's guard could
decide an amplitude that close to 1e-10 the other way.

The boundary margin is checked after every step, not only at the end, so a
packet that would wrap around the periodic grid mid-run raises GridOverflow
even when the final state would look clean.  The check reads the state
before the step's closing half-kick.  That kick has modulus 1 within an
ulp, so it moves no guarded amplitude by more than a few ulps, and only
one within a few ulps of 1e-10 could be decided differently after it.
Each step makes one call of core._check_margin, the margin refusal every
route shares: one gather of the guarded nodes of every row at once and one
dot product, its sum of squared moduli, failing closed on NaN and inf.
Only a step that fails it reduces the gathered nodes per row, to name the
row (for a batched call), step and time.  A start state holding NaN or inf
is refused with NonFiniteState before the first step.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    PhysicalParams,
    WavePacket,
    _as_rows,
    _check_margin,
    _extremes,
    _packets,
    _require_count,
    _require_finite,
    _require_finite_rows,
    _require_times,
    _shared_hbar_m,
    _stack,
)

__all__ = ["SolverConfig", "evolve_split_step"]


@dataclass(frozen=True)
class SolverConfig:
    """Number of Strang steps for one split-step run, an integer of at least 1."""

    n_steps: int

    def __post_init__(self) -> None:
        _require_count("n_steps", self.n_steps)
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


def evolve_split_step(
    psi: WavePacket | Sequence[WavePacket],
    params: PhysicalParams | Sequence[PhysicalParams],
    t: float | Sequence[float],
    config: SolverConfig,
):
    """Propagate for duration t in config.n_steps Strang steps.

    psi, params and t may each be a single value or an equal-length sequence
    (list, tuple or ndarray of times); single values broadcast against the
    sequences, and every row is stepped in one (rows, n) stack.  Rows must
    share the grid (GridMismatch otherwise), hbar and m (ValueError); g, t
    and the start state may differ per row, and each row's result is
    bit-identical to a single-row call.

    Returns the final WavePacket, or a list of them when any argument is a
    sequence.  Raises GridOverflow the moment any row's state touches the
    guarded boundary nodes, naming that row (for a sequence call), its step
    and its time; the exception carries the row's index as .row.  Raises
    NonFiniteState, naming the row and node, when a start state holds NaN
    or inf, and naming the first row whose potential or kinetic phase has a
    largest angle, m |g| max|x| dt/(2 hbar) or hbar k_max^2 dt/(2m), formed
    in the order of the expression that builds the phase, that is not finite.
    """
    return _strang_rows(psi, params, t, config.n_steps)


def _strang_rows(psi, params, t, n_steps):
    """evolve_split_step with n_steps an int or one count (>= 1) per row.

    The rows are stacked longest-first, and each stretch of steps up to the
    next count acts on views of the prefix still running and of its phase
    rows (module docstring), so every row keeps the bits of its single-row
    run.  Results come back in the caller's order, and errors name the
    caller's row with that row's own step and count.  Counts that are
    already longest-first (all equal, say) keep the caller's order, and the
    loop then runs over one view of the whole stack.  Each kinetic phase
    row carries the inverse FFT's exact 1/n, and the inverse runs unscaled
    (module docstring, with the overflow and subnormal edges this moves).
    The adjacent half-kicks are fused (module docstring); a finishing row's
    closing half-kick is built in its kinetic phase row, dead by then, so
    the loop holds no (rows, n) array beyond the stack, the kick and the
    kinetic phase.
    """
    batched, (psis, pars, times, counts) = _as_rows(
        "evolve_split_step", psi, params, t, n_steps
    )
    if not psis:
        return []
    _require_times("evolve_split_step", times, batched)
    grid = psis[0].grid
    hbar, m = _shared_hbar_m("evolve_split_step", pars)

    # Per-row (rows, 1) columns, combined in the single-row operation order so
    # that every row's phases, and hence its bits, match a single-row call.
    dts = [ti / ni for ti, ni in zip(times, counts)]
    k_max, x_max = _extremes(grid)
    _require_finite_rows(
        "evolve_split_step", batched,
        potential_angle=[
            0.5 * p.m * abs(p.g) * x_max * d * (1.0 / hbar) for p, d in zip(pars, dts)
        ],
        kinetic_angle=[0.5 * hbar * (k_max * k_max) * d * (1.0 / m) for d in dts],
    )
    # order[j] is the caller's row at stack row j; a stable sort keeps the
    # caller's order among equal counts.
    order = sorted(range(len(counts)), key=lambda i: -counts[i])
    amp = _stack([psis[i] for i in order])
    dt = np.array([dts[i] for i in order])[:, None]
    kick = np.array([-0.5j * pars[i].m * pars[i].g for i in order])[:, None]
    half_v = _half_kick(kick, grid.x, dt, hbar)
    # The inverse FFT runs unscaled (norm="forward"); its 1/n rides here.
    kinetic = np.exp(-0.5j * hbar * grid.k**2 * dt / m) * (1.0 / grid.n)

    _require_finite(amp, "evolve_split_step start state", batched, rows=order)
    step, running = 0, len(order)

    def at(row):  # reads step when a check fires, so it names that step
        return step, counts[row], step * dts[row]

    # Each step's closing half-kick fuses with the next step's opening one
    # into the full kick v^2, squared in place over half_v; a row's last
    # step takes its closing half-kick alone, rebuilt below.
    amp *= half_v
    full_v = np.multiply(half_v, half_v, out=half_v)
    while running:
        last = counts[order[running - 1]]
        a, v, kin = amp[:running], full_v[:running], kinetic[:running]
        for step in range(step + 1, last + 1):
            np.fft.fft(a, out=a)
            a *= kin
            np.fft.ifft(a, norm="forward", out=a)
            _check_margin(a, "evolve_split_step", batched, order, at)
            if step < last:
                a *= v
        done = running
        while running and counts[order[running - 1]] == last:
            running -= 1
        # The finishing rows' kinetic rows are dead: build their closing
        # half-kick there, as the opening one was built.
        closing = kinetic[running:done]
        _half_kick(kick[running:done], grid.x, dt[running:done], hbar, out=closing)
        amp[running:done] *= closing
        amp[:running] *= full_v[:running]

    out = _packets(grid, amp, batched)
    return [out[j] for j in np.argsort(order)] if batched else out


def _half_kick(kick, x, dt, hbar, out=None):
    """e^{kick x dt/hbar} for (rows, 1) kick and dt, built in place in out.

    One fixed order of rounded operations, so a row's half-kick has the
    same bits wherever it is built; out=None builds it in a fresh array.
    """
    out = np.multiply(kick, x, out=out)
    out *= dt
    out /= hbar
    return np.exp(out, out=out)


def _strang_phase(params: PhysicalParams, t: float, n_steps: int) -> float:
    """phi_N = m g^2 t^3/(24 hbar N^2): N Strang steps give e^{-iHt/hbar} e^{i phi_N}.

    A step is e^{A/2} e^{B} e^{A/2}, A = -i V dt/hbar, B = -i T dt/hbar, whose
    symmetric Baker-Campbell-Hausdorff series is A + B - [A, [A, B]]/24
    - [B, [A, B]]/12 + (longer commutators).  [V, T] = i hbar g p, so
    [T, [V, T]] = 0 and [V, [V, T]] = -m g^2 hbar^2 is a c-number: every
    longer commutator vanishes, and a step is e^{-iH dt/hbar} times
    e^{i m g^2 dt^3/(24 hbar)}.  N steps of dt = t/N give phi_N.  On the
    lattice this holds to rounding for states clear of the band edges.
    """
    return params.m * params.g**2 * t**3 / (24.0 * params.hbar * n_steps**2)


def _strang_tolerance(params: PhysicalParams, t: float, n_steps: int, n: int) -> float:
    """Rounding bound on the L2 distance of e^{-i phi_N} U_split psi from U psi.

    eps ((N + 1) log2 n + m g^2 t^3/hbar), for a unit-norm psi on n nodes.
    A step makes two multiplies by computed unit phases, the kinetic phase
    and the fused kick (module docstring), O(eps) each, and one FFT pair,
    O(eps log2 n) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 24.1); the same arrays act at every step, so
    the errors add: N eps log2 n, and one step more for evolve_exact, whose
    one FFT pair per row is that step's.  A computed angle theta is off by
    eps |theta|, and the largest angles at the packet (kick, cubic phase,
    summed potential) are fractions of m g^2 t^3/hbar.  Start and end
    states must be below about 1e-12 on the outer 5% of nodes in x and in
    k: the margin guard allows 1e-10 in x, and such a tail wraps around by
    more than the bound.  Over 1130 random draws of that domain the worst
    distance was 0.125 of the bound; an hbar/m off by 1e-8 gives 4.2e-9.
    """
    angle = params.m * params.g**2 * t**3 / params.hbar
    return float(np.finfo(float).eps * ((n_steps + 1) * np.log2(n) + angle))
