"""Closed-form evolution for H = p^2/(2m) + m*g*x via an exact factorization.

Because the commutator of x and p is a c-number, the Zassenhaus expansion of
exp(-i t H / hbar) truncates after finitely many factors.  Applied right to
left, the evolution is exactly:

    1. translate the argument by the classical fall, amp(x) -> amp(x + g t^2/2)
       (a momentum-space phase e^{+i k g t^2/2}),
    2. free flight, momentum-space phase e^{-i hbar t k^2/(2 m)},
    3. momentum kick, position-space phase e^{-i m g t x / hbar},
    4. global cubic phase e^{-i m g^2 t^3/(6 hbar)}.

Each factor is its own public operation, so evolve_exact literally composes
them.  The same primitives drive the interference protocol.  All producing
steps re-check the boundary margin; note that a single long step whose packet
wraps around the periodic grid and re-enters with a clean final margin cannot
be detected here, so bound long falls with evolve_piecewise (per-segment
checks) or cross-check with the split-step solver, which guards every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, WavePacket, check_margin
from .errors import GridOverflow, NegativeTime

__all__ = [
    "AccelSchedule",
    "free_evolve",
    "shift_packet",
    "apply_linear_phase",
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

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)


def _apply_k_phase(psi: WavePacket, phase: np.ndarray) -> WavePacket:
    return WavePacket(psi.grid, np.fft.ifft(np.fft.fft(psi.amp) * phase))


def free_evolve(psi: WavePacket, params: PhysicalParams, t: float) -> WavePacket:
    """Evolve under the kinetic term alone: e^{-i hbar t k^2/(2 m)} in k-space."""
    if not 0 <= t < math.inf:
        raise NegativeTime(f"free_evolve: t must be finite and >= 0, got {t}")
    k = psi.grid.k
    out = _apply_k_phase(psi, np.exp(-0.5j * params.hbar * t * k * k / params.m))
    check_margin(out, "free_evolve")
    return out


def shift_packet(psi: WavePacket, a: float) -> WavePacket:
    """Translate the argument: amp(x) -> amp(x + a), exact on the lattice.

    A packet peaked at x0 ends up peaked at x0 - a.  Implemented as the
    spectral phase e^{+i k a}, which is exact for band-limited lattice states
    at any real a, not only multiples of dx.
    """
    out = _apply_k_phase(psi, np.exp(1j * psi.grid.k * a))
    check_margin(out, "shift_packet")
    return out


def apply_linear_phase(
    psi: WavePacket, slope: float, params: PhysicalParams
) -> WavePacket:
    """Multiply by e^{-i slope x / hbar}; shifts the mean momentum by -slope."""
    return WavePacket(
        psi.grid, psi.amp * np.exp(-1j * slope * psi.grid.x / params.hbar)
    )


def apply_global_phase(psi: WavePacket, theta: float) -> WavePacket:
    """Multiply by the overall phase e^{i theta}; no observable changes."""
    return WavePacket(psi.grid, psi.amp * np.exp(1j * theta))


def evolve_exact(psi: WavePacket, params: PhysicalParams, t: float) -> WavePacket:
    """Exact evolution for duration t under V = +m*g*x.

    Composes the four factors listed in the module docstring.  Ehrenfest
    means follow the classical fall: mean_x picks up -g t^2/2 plus the free
    drift, mean_p picks up -m g t; the spread is identical to the free
    packet's at every t.
    """
    if not 0 <= t < math.inf:
        raise NegativeTime(f"evolve_exact: t must be finite and >= 0, got {t}")
    m, g, hbar = params.m, params.g, params.hbar
    out = shift_packet(psi, 0.5 * g * t * t)
    out = free_evolve(out, params, t)
    out = apply_linear_phase(out, m * g * t, params)
    out = apply_global_phase(out, -m * g * g * t**3 / (6.0 * hbar))
    return out


def evolve_piecewise(
    psi: WavePacket, params: PhysicalParams, schedule: AccelSchedule
) -> WavePacket:
    """Chain evolve_exact over a piecewise-constant acceleration schedule.

    hbar and m come from params; each segment overrides g.  A margin failure
    is re-raised with the offending segment index attached.
    """
    out = psi
    for i, (g_i, dt_i) in enumerate(schedule):
        try:
            out = evolve_exact(out, replace(params, g=g_i), dt_i)
        except GridOverflow as exc:
            raise GridOverflow(
                f"schedule segment {i} (g={g_i}, duration={dt_i}): {exc}"
            ) from exc
    return out
