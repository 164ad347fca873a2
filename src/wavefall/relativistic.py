"""Proper time and relativistic action along classical paths, weak-field form.

The clock rate implemented here is

    dtau/dt = sqrt(1 - 2 g x(t)/c^2 - xdot(t)^2/c^2),

integrated over coordinate time [0, t] by composite Simpson quadrature.  The
associated action is S = m c^2 (tau - t), and its literal c -> infinity limit
along the same path is the comparison integral

    nr_action = integral of (-m g x - m xdot^2 / 2) dt,

so |S - nr_action| falls off as c^-2.  Note the sign pairing: in this metric
convention the coordinate acceleration of a geodesic is +g (free fall runs
toward +x), opposite to the quantum convention V = +m*g*x used elsewhere in
the package; free_fall_trajectory builds the geodesic path explicitly so the
two conventions cannot be mixed up silently.  Whether S should carry an
overall minus sign relative to the proper-time integral is a bookkeeping
choice; this module reports both S and nr_action and leaves the comparison to
the caller.

This is the package's only use of scipy (simpson), and it is imported inside
proper_time and rel_action, so importing wavefall, or running evolve and
interfere, never loads scipy; verify loads it on its first proper-time call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, Trajectory, _require_times
from .errors import BadQuadrature, SuperluminalPath

__all__ = [
    "RelActionResult",
    "LimitRow",
    "LimitReport",
    "free_fall_trajectory",
    "proper_time",
    "rel_action",
    "nr_limit_check",
    "static_proper_time",
]

MIN_QUAD_INTERVALS = 16
# Errors below this are quadrature/rounding noise; no scaling fit is possible.
LIMIT_NOISE_FLOOR = 1e-14


@dataclass(frozen=True)
class RelActionResult:
    """Proper time, relativistic action, its non-relativistic limit, and their gap."""

    proper_time: float
    action: float
    nr_action: float
    abs_error: float


@dataclass(frozen=True)
class LimitRow:
    """One c sample of the limit check."""

    c: float
    abs_error: float


@dataclass(frozen=True)
class LimitReport:
    """Scaling study over c: per-c errors and the fitted log-log slope.

    fitted_order is None when every error sits at the noise floor (static
    paths at the origin, or g = 0)."""

    rows: tuple[LimitRow, ...]
    fitted_order: float | None


def free_fall_trajectory(
    x0: float, v0: float, t0: float, params: PhysicalParams
) -> Trajectory:
    """Geodesic of the implemented metric: x(t) = x0 + v0 (t-t0) + g (t-t0)^2/2.

    Built as a Trajectory with the sign of g flipped, because Trajectory
    evaluates xddot = -g while geodesics of this metric accelerate toward +x
    for g > 0.
    """
    return Trajectory.from_initial(x0, v0, t0, g=-params.g)


def _samples(traj: Trajectory, t: float, params: PhysicalParams, n_quad: int):
    _require_times("proper-time quadrature", [t])
    if n_quad < MIN_QUAD_INTERVALS:
        raise BadQuadrature(
            f"n_quad={n_quad} below the minimum of {MIN_QUAD_INTERVALS} intervals"
        )
    n = n_quad + (n_quad % 2)  # Simpson needs an even interval count
    times = np.linspace(0.0, t, n + 1)
    x = np.asarray(traj.position(times))
    v = np.asarray(traj.velocity(times))
    c2 = params.c**2
    radicand = 1.0 - 2.0 * params.g * x / c2 - v * v / c2
    low = float(radicand.min())
    if low <= 0.0:
        where = times[int(np.argmin(radicand))]
        raise SuperluminalPath(
            f"radicand {low:.3e} <= 0 near t={where:.6g}; the path leaves the "
            f"weak-field subluminal regime for c={params.c}"
        )
    return times, x, v, radicand


def proper_time(
    traj: Trajectory, t: float, params: PhysicalParams, n_quad: int
) -> float:
    """Elapsed proper time along traj over coordinate time [0, t].

    Composite Simpson on n_quad uniform intervals (rounded up to even,
    minimum 16).  Raises SuperluminalPath if the clock-rate radicand is
    non-positive at any sample.
    """
    # Imported here: scipy.integrate costs ~0.6 s and ~45 MB, and only this
    # quadrature needs it, so evolve and interfere never load scipy.
    from scipy.integrate import simpson

    times, _, _, radicand = _samples(traj, t, params, n_quad)
    if t == 0.0:
        return 0.0
    return float(simpson(np.sqrt(radicand), x=times))


def rel_action(
    traj: Trajectory, t: float, params: PhysicalParams, n_quad: int
) -> RelActionResult:
    """S = m c^2 (tau - t) with its same-path non-relativistic comparison.

    nr_action integrates -m g x - m xdot^2/2 over [0, t] on the same Simpson
    samples; for parabolic paths the integrand is quadratic, which Simpson
    handles exactly, so abs_error isolates the genuine c^-2 gap.
    """
    from scipy.integrate import simpson  # local for the reason in proper_time

    times, x, v, radicand = _samples(traj, t, params, n_quad)
    if t == 0.0:
        return RelActionResult(0.0, 0.0, 0.0, 0.0)
    tau = float(simpson(np.sqrt(radicand), x=times))
    action = params.m * params.c**2 * (tau - t)
    integrand = -params.m * params.g * x - 0.5 * params.m * v * v
    nr = float(simpson(integrand, x=times))
    return RelActionResult(
        proper_time=tau,
        action=action,
        nr_action=nr,
        abs_error=abs(action - nr),
    )


def nr_limit_check(
    traj: Trajectory,
    t: float,
    params: PhysicalParams,
    c_list: list[float],
    n_quad: int = 4096,
) -> LimitReport:
    """Fit the |S - nr_action| falloff against c on a log-log scale.

    c_list must be strictly increasing with at least three entries.  A clean
    weak-field setup lands near slope -2.  Errors at the noise floor for
    every c (static path at the origin, or g = 0) yield fitted_order None.
    """
    cs = [float(c) for c in c_list]
    if len(cs) < 3:
        raise ValueError("need at least three c values to fit a slope")
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise ValueError(f"c values must be strictly increasing, got {cs}")
    rows = tuple(
        LimitRow(c=c, abs_error=rel_action(traj, t, replace(params, c=c), n_quad).abs_error)
        for c in cs
    )
    errors = np.array([r.abs_error for r in rows])
    # No fit at the noise floor, nor for mixed zero/nonzero errors, which
    # cannot be fitted on a log scale.
    if np.all(errors <= LIMIT_NOISE_FLOOR) or np.any(errors <= 0.0):
        return LimitReport(rows=rows, fitted_order=None)
    slope = float(np.polyfit(np.log(cs), np.log(errors), 1)[0])
    return LimitReport(rows=rows, fitted_order=slope)


def static_proper_time(x0: float, t: float, params: PhysicalParams) -> float:
    """Closed form for a clock held at x0: t sqrt(1 - 2 g x0 / c^2)."""
    _require_times("static_proper_time", [t])
    c2 = params.c**2
    radicand = 1.0 - 2.0 * params.g * x0 / c2
    if radicand <= 0.0:
        raise SuperluminalPath(
            f"static radicand {radicand:.3e} <= 0 at x0={x0} for c={params.c}"
        )
    return t * math.sqrt(radicand)
