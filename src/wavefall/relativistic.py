"""Proper time and relativistic action along classical paths, weak-field form.

The clock rate implemented here is

    dtau/dt = sqrt(1 - 2 g x(t)/c^2 - xdot(t)^2/c^2),

integrated over coordinate time [0, t] by composite Simpson quadrature on a
fixed QUAD_INTERVALS = 4096 uniform intervals.  The associated action is
S = m c^2 (tau - t), and its literal c -> infinity limit along the same path
is the comparison integral

    nr_action = integral of (-m g x - m xdot^2 / 2) dt,

so |S - nr_action| falls off as c^-2.  Note the sign pairing: in this metric
convention the coordinate acceleration of a geodesic is +g (free fall runs
toward +x), opposite to the quantum convention V = +m*g*x used elsewhere in
the package; free_fall_trajectory builds the geodesic path explicitly so the
two conventions cannot be mixed up silently.  Whether S should carry an
overall minus sign relative to the proper-time integral is a bookkeeping
choice; this module reports both S and nr_action and leaves the comparison to
the caller.

The quadrature is _simpson: the branch scipy.integrate.simpson takes on these
samples (uniform nodes, an even interval count), with the same operations in
the same order.  So the package needs numpy only, and its results equal
scipy's bit for bit; the test suite checks that against scipy itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    PhysicalParams, Trajectory, _RefuseOverflow, _require_finite_scalars, _require_times,
)
from .errors import NonFiniteState, SuperluminalPath

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

# Simpson intervals of every proper-time quadrature; Simpson needs an even count.
QUAD_INTERVALS = 4096
# np.errstate of the quadrature: an overflow, 0/0 or x/0 raises, and
# _RefuseOverflow names it, so no sample is silently inf, NaN or zeroed.
_RAISE = dict(over="raise", divide="raise", invalid="raise")


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

    fitted_order is None when an error is exactly zero (a clock parked at
    the origin, or g = 0), which no log-log fit can take."""

    rows: tuple[LimitRow, ...]
    fitted_order: float | None


def free_fall_trajectory(x0: float, v0: float, params: PhysicalParams) -> Trajectory:
    """Geodesic of the implemented metric: x(t) = x0 + v0 t + g t^2/2.

    Built as a Trajectory with the sign of g flipped, because Trajectory
    evaluates xddot = -g while geodesics of this metric accelerate toward +x
    for g > 0.
    """
    return Trajectory(x0, v0, g=-params.g)


def _samples(traj: Trajectory, t: float, params: PhysicalParams):
    _require_times("proper-time quadrature", [t])
    with _RefuseOverflow("proper-time quadrature"), np.errstate(**_RAISE):
        c2 = params.c**2
        times = np.linspace(0.0, t, QUAD_INTERVALS + 1)
        x = np.asarray(traj.position(times))
        v = np.asarray(traj.velocity(times))
        radicand = 1.0 - 2.0 * params.g * x / c2 - v * v / c2
    finite = np.isfinite(radicand)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteState(f"radicand {radicand[i]} at t={times[i]:.6g} is not finite")
    low = float(radicand.min())
    if low <= 0.0:
        where = times[int(np.argmin(radicand))]
        raise SuperluminalPath(
            f"radicand {low:.3e} <= 0 near t={where:.6g}; the path leaves the "
            f"weak-field subluminal regime for c={params.c}"
        )
    return times, x, v, radicand


def _simpson(y: np.ndarray, x: np.ndarray) -> np.float64:
    """Composite Simpson integral of samples y at nodes x, len(x) odd.

    scipy.integrate.simpson(y, x=x) for an odd sample count runs
    _basic_simpson's irregular-spacing formula; this is that formula with
    the same operations in the same order, so the two agree bit for bit.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    h1divh0 = np.true_divide(
        1.0, h0divh1, out=np.zeros_like(h0divh1), where=h0divh1 != 0
    )
    weight1 = hsum * np.true_divide(
        hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0
    )
    tmp = hsum / 6.0 * (
        y[0:-2:2] * (2.0 - h1divh0) + y[1:-1:2] * weight1 + y[2::2] * (2.0 - h0divh1)
    )
    return np.sum(tmp)


def proper_time(traj: Trajectory, t: float, params: PhysicalParams) -> float:
    """Elapsed proper time along traj over coordinate time [0, t].

    Composite Simpson on QUAD_INTERVALS uniform intervals.  Raises
    SuperluminalPath if the clock-rate radicand is non-positive at any
    sample, NonFiniteState if it is NaN or inf, or if t is so small (below
    about 6e-151) that the Simpson weights lose precision.
    """
    return rel_action(traj, t, params).proper_time


def rel_action(traj: Trajectory, t: float, params: PhysicalParams) -> RelActionResult:
    """S = m c^2 (tau - t) with its same-path non-relativistic comparison.

    With q = 2 g x + xdot^2, the radicand is R = 1 - q/c^2, and with
    s = -q/(1 + sqrt(R)) = c^2 (sqrt(R) - 1): S = m int s, tau = t + int s/c^2
    and S - nr_action = -m int s^2/(2 c^2).  No sum subtracts nearly equal
    numbers, so abs_error keeps its c^-2 law at large c.  nr_action integrates
    -m g x - m xdot^2/2 on the same Simpson samples, exactly for parabolas.
    """
    times, x, v, radicand = _samples(traj, t, params)
    if t == 0.0:
        return RelActionResult(0.0, 0.0, 0.0, 0.0)
    with _RefuseOverflow("rel_action"), np.errstate(**_RAISE):
        # Simpson's middle weight divides by h0 h1, which loses bits once it
        # is subnormal: a clock at rest came out at 1.14 t for t = 1e-158.
        hprod = (t / QUAD_INTERVALS) ** 2
        if not hprod >= np.finfo(float).tiny:
            raise NonFiniteState(
                f"rel_action: Simpson step product {hprod:.3e} at t={t:.6g} is "
                "below the smallest normal float"
            )
        s = -(2.0 * params.g * x + v * v) / (1.0 + np.sqrt(radicand))
        lag = float(_simpson(s, times))
        tau = t + lag / params.c**2
        action = params.m * lag
        abs_error = params.m * float(_simpson(0.5 * (s / params.c) ** 2, times))
        integrand = -params.m * params.g * x - 0.5 * params.m * v * v
        nr = float(_simpson(integrand, times))
    _require_finite_scalars(
        "rel_action", result=True, action=action, nr_action=nr, abs_error=abs_error
    )
    return RelActionResult(
        proper_time=tau,
        action=action,
        nr_action=nr,
        abs_error=abs_error,
    )


def _c_values(c_list) -> list[float]:
    """nr_limit_check's rule: at least three strictly increasing positive c."""
    cs = [float(c) for c in c_list]
    if len(cs) < 3:
        raise ValueError("need at least three c values to fit a slope")
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise ValueError(f"c values must be strictly increasing, got {cs}")
    if cs[0] <= 0:
        raise ValueError(f"c values must be positive, got {cs}")
    return cs


def nr_limit_check(
    traj: Trajectory,
    t: float,
    params: PhysicalParams,
    c_list: list[float],
) -> LimitReport:
    """Fit the |S - nr_action| falloff against c on a log-log scale.

    c_list must be positive and strictly increasing, with at least three
    entries.  A clean weak-field setup lands near slope -2.  abs_error is a
    sum of non-negative terms, so it is zero only where every term is (q = 0
    throughout: a static path at the origin, or g = 0) or underflows; any
    zero error yields fitted_order None.
    """
    cs = _c_values(c_list)
    rows = tuple(
        LimitRow(c=c, abs_error=rel_action(traj, t, replace(params, c=c)).abs_error)
        for c in cs
    )
    errors = np.array([r.abs_error for r in rows])
    # A zero error cannot be fitted on a log scale.
    if np.any(errors <= 0.0):
        return LimitReport(rows=rows, fitted_order=None)
    slope = float(np.polyfit(np.log(cs), np.log(errors), 1)[0])
    return LimitReport(rows=rows, fitted_order=slope)


def static_proper_time(x0: float, t: float, params: PhysicalParams) -> float:
    """Closed form for a clock held at x0: t sqrt(1 - 2 g x0 / c^2).

    A NaN or inf x0 or t, or a radicand or result that is not finite,
    raises NonFiniteState.
    """
    _require_finite_scalars("static_proper_time", x0=x0, t=t)
    _require_times("static_proper_time", [t])
    with _RefuseOverflow("static_proper_time"):
        c2 = params.c**2
        radicand = 1.0 - 2.0 * params.g * x0 / c2
    if not math.isfinite(radicand):
        raise NonFiniteState(f"static radicand {radicand} at x0={x0} is not finite")
    if radicand <= 0.0:
        raise SuperluminalPath(
            f"static radicand {radicand:.3e} <= 0 at x0={x0} for c={params.c}"
        )
    tau = t * math.sqrt(radicand)
    _require_finite_scalars("static_proper_time", result=True, tau=tau)
    return tau
