"""Split-step spectral solver: Strang splitting of kinetic and potential flow.

One step of size dt applies e^{-i V dt/(2 hbar)} e^{-i T dt/hbar}
e^{-i V dt/(2 hbar)} with V = m g x diagonal in position space and
T = p^2/(2m) diagonal in momentum space.  The scheme is second order in dt
and exact at g = 0 (a single kinetic phase).  For this linear potential the
splitting defect is a pure global phase, so observables from this route match
the closed form to rounding even at coarse dt; the L2 error against the exact
state still scales as dt^2 and is what convergence_report measures.

Independent runs are evolved as one (rows, n) stack: each step is one
in-place FFT pair along the last axis, with per-row potential and kinetic
phase arrays built in the single-run operation order, so every row is
bit-identical to the same run made alone.  Rows share the grid, hbar and m
and may differ in g, duration and start state.

The boundary margin is checked after every step, not only at the end, so a
packet that would wrap around the periodic grid mid-run raises GridOverflow
even when the final state would look clean.  The check is one gather of the
guarded nodes of every row at once, then one abs and one max
(core._first_over_margin); it fails closed on NaN and inf, and only when it
fails does it reduce row by row to name the first offending row (for a
batch), its step and its time.  A start state holding NaN or inf is refused
with NonFiniteState before the first step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .analytic import evolve_exact
from .core import (
    PhysicalParams,
    WavePacket,
    _as_rows,
    _first_over_margin,
    _packets,
    _require_count,
    _require_finite,
    _require_times,
    _stack,
    l2_distance,
    margin_nodes,
)
from .errors import GridOverflow

__all__ = [
    "SolverConfig",
    "ConvergenceRow",
    "evolve_split_step",
    "convergence_report",
]

# L2 errors below this sit at the rounding floor; observed orders computed
# from them would be noise, so rows are marked not applicable instead.
ORDER_NOISE_FLOOR = 1e-12

@dataclass(frozen=True)
class SolverConfig:
    """Number of Strang steps for one split-step run, an integer of at least 1."""

    n_steps: int

    def __post_init__(self) -> None:
        _require_count("n_steps", self.n_steps)
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level: step count, L2 error, observed order (or None)."""

    n_steps: int
    l2_error: float
    observed_order: float | None


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
    or inf.
    """
    batched, (psis, pars, times) = _as_rows("evolve_split_step", psi, params, t)
    if not psis:
        return []
    _require_times("evolve_split_step", times)
    grid, hbar, m = psis[0].grid, pars[0].hbar, pars[0].m
    if any((p.hbar, p.m) != (hbar, m) for p in pars):
        raise ValueError("evolve_split_step: rows must share hbar and m")
    amp = _stack(psis)

    # Per-row (rows, 1) columns, combined in the single-row operation order so
    # that every row's phases, and hence its bits, match a single-row call.
    dts = [ti / config.n_steps for ti in times]
    dt = np.array(dts)[:, None]
    kick = np.array([-0.5j * p.m * p.g for p in pars])[:, None]
    half_v = np.exp(kick * grid.x * dt / hbar)
    kinetic = np.exp(-0.5j * hbar * grid.k**2 * dt / m)

    _require_finite(amp, "evolve_split_step start state", batched)
    for step in range(1, config.n_steps + 1):
        amp *= half_v
        np.fft.fft(amp, out=amp)
        amp *= kinetic
        np.fft.ifft(amp, out=amp)
        amp *= half_v
        hit = _first_over_margin(amp)
        if hit is not None:
            row, worst = hit
            where = f" in row {row}" if batched else ""
            raise GridOverflow(
                f"evolve_split_step: boundary amplitude {worst:.3e} on the outer "
                f"{margin_nodes(grid.n)} nodes{where} at step {step}/{config.n_steps} "
                f"(t={step * dts[row]:.6g}); enlarge the grid or shorten the run",
                row=row,
            )

    return _packets(grid, amp, batched)


def _step_counts(step_counts) -> list[int]:
    """convergence_report's rule: at least two strictly increasing step counts."""
    counts = list(step_counts)
    for i, n in enumerate(counts):
        _require_count(f"step_counts[{i}]", n)
    counts = [int(n) for n in counts]
    if len(counts) < 2:
        raise ValueError("need at least two step counts")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError(f"step counts must be strictly increasing, got {counts}")
    SolverConfig(counts[0])  # the smallest count must be a valid run
    return counts


def convergence_report(
    psi: WavePacket,
    params: PhysicalParams,
    t: float,
    step_counts: list[int],
) -> list[ConvergenceRow]:
    """L2 error against the closed form at each step count, with observed order.

    The order between consecutive rows is log(err_i/err_j)/log(n_j/n_i), which
    reduces to log2(err(n)/err(2n)) for doubling counts; a second-order scheme
    lands near 2.  Rows whose error sits at the rounding floor (at most
    1e-12, e.g. every row when g = 0) get observed_order None, as does the
    last row; a NaN error gives a NaN order.
    """
    counts = _step_counts(step_counts)
    reference = evolve_exact(psi, params, t)
    errors = [
        l2_distance(evolve_split_step(psi, params, t, SolverConfig(n)), reference)
        for n in counts
    ]
    rows: list[ConvergenceRow] = []
    for i, (n, err) in enumerate(zip(counts, errors)):
        order: float | None = None
        if i + 1 < len(counts):
            nxt = errors[i + 1]
            # NaN is not at the floor: it gives a NaN order, which fails.
            if not (err <= ORDER_NOISE_FLOOR or nxt <= ORDER_NOISE_FLOOR):
                order = math.log(err / nxt) / math.log(counts[i + 1] / n)
        rows.append(ConvergenceRow(n_steps=n, l2_error=err, observed_order=order))
    return rows
