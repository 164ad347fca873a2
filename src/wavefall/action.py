"""Classical two-time mechanics for constant acceleration: paths and actions.

Convention V = +m*g*x throughout, so classical paths obey xddot = -g.  The
closed forms below follow from the unique parabola through the endpoints:

    classical_action(x0, x1 over T) =
        (m/2) [ (x0 - x1)^2 / T - g (x0 + x1) T - g^2 T^3 / 12 ]

    shifted_free_action(x0, xt over t) = (m / 2t) (x0 - xt - g t^2 / 2)^2,
        the free action from x0 to the fall-corrected endpoint,

and their difference is independent of the starting point:

    delta_action(xt, t) = -m g xt t - m g^2 t^3 / 6,

which is exactly hbar times the phase the factored propagator attaches at
position xt (momentum-kick phase plus the global cubic phase).

Every closed form here refuses a NaN or infinite argument with
NonFiniteState naming it, before any other check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PhysicalParams, _require_finite_args
from .errors import BadSigma, DegenerateInterval

__all__ = [
    "ActionValue",
    "classical_action",
    "shifted_free_action",
    "delta_action",
    "ehrenfest_mean",
    "spread_bound",
]


@dataclass(frozen=True)
class ActionValue:
    """An action with its kinetic/potential decomposition, value = kinetic - potential."""

    value: float
    kinetic: float
    potential: float


def classical_action(
    x0: float, x1: float, t0: float, t1: float, params: PhysicalParams
) -> ActionValue:
    """Action of the classical path between (t0, x0) and (t1, x1), in closed form.

    kinetic = (m/2) ((x0-x1)^2/T + g^2 T^3/12) and
    potential = m g (T (x0+x1)/2 + g T^3/12); the value is their difference.
    """
    _require_finite_args("classical_action", x0=x0, x1=x1, t0=t0, t1=t1)
    if not t1 > t0:
        raise DegenerateInterval(f"need t1 > t0, got t0={t0}, t1={t1}")
    m, g = params.m, params.g
    span = t1 - t0
    disp = x0 - x1
    kinetic = 0.5 * m * (disp * disp / span + g * g * span**3 / 12.0)
    potential = m * g * (span * (x0 + x1) / 2.0 + g * span**3 / 12.0)
    return ActionValue(
        value=kinetic - potential, kinetic=kinetic, potential=potential
    )


def shifted_free_action(
    x0: float, xt: float, t: float, params: PhysicalParams
) -> ActionValue:
    """Free (g = 0) action from x0 to the fall-corrected endpoint xt + g t^2/2.

    The comparison path is a straight line, so the action is purely kinetic:
    (m / 2t) (x0 - xt - g t^2/2)^2.  Requires t > 0.
    """
    _require_finite_args("shifted_free_action", x0=x0, xt=xt, t=t)
    if not t > 0:
        raise DegenerateInterval(f"shifted_free_action: need t > 0, got {t}")
    diff = x0 - xt - 0.5 * params.g * t * t
    value = 0.5 * params.m * diff * diff / t
    return ActionValue(value=value, kinetic=value, potential=0.0)


def delta_action(xt: float, t: float, params: PhysicalParams) -> float:
    """classical_action minus shifted_free_action: -m g xt t - m g^2 t^3 / 6.

    Independent of the starting point x0; vanishes identically at g = 0.
    """
    _require_finite_args("delta_action", xt=xt, t=t)
    m, g = params.m, params.g
    return -m * g * xt * t - m * g * g * t**3 / 6.0


def ehrenfest_mean(
    x0: float, p0: float, t: float, params: PhysicalParams
) -> tuple[float, float]:
    """Mean position and momentum after time t: the classical fall.

    Returns (x0 + p0 t/m - g t^2/2, p0 - m g t); quantum means follow these
    exactly because the potential is linear.
    """
    _require_finite_args("ehrenfest_mean", x0=x0, p0=p0, t=t)
    m, g = params.m, params.g
    return (x0 + p0 * t / m - 0.5 * g * t * t, p0 - m * g * t)


def spread_bound(
    sigma0: float, t: float, params: PhysicalParams
) -> tuple[float, float]:
    """Spreading bound and exact position spread after time t, both g-free.

    Returns (hbar t / (m sigma0), sigma0 sqrt(1 + (hbar t / (2 m sigma0^2))^2)).
    The exact spread grows toward half the bound once the free spreading
    dominates sigma0; gravity cancels out of both expressions.
    """
    _require_finite_args("spread_bound", sigma0=sigma0, t=t)
    if not sigma0 > 0:
        raise BadSigma(f"spread_bound: sigma0 must be positive, got {sigma0}")
    ratio = params.hbar * t / (params.m * sigma0)
    exact = sigma0 * math.sqrt(1.0 + (ratio / (2.0 * sigma0)) ** 2)
    return (ratio, exact)
