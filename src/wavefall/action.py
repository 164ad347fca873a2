"""Classical two-time mechanics for constant acceleration: paths and actions.

Convention V = +m*g*x throughout, so classical paths obey xddot = -g.  The
closed forms below follow from the unique parabola through the endpoints:

    classical_action(x0, x1 over t) =
        (m/2) [ (x0 - x1)^2 / t - g (x0 + x1) t - g^2 t^3 / 12 ]

    shifted_free_action(x0, xt over t) = (m / 2t) (x0 - xt - g t^2 / 2)^2,
        the free action from x0 to the fall-corrected endpoint,

and their difference is independent of the starting point:

    delta_action(xt, t) = -m g xt t - m g^2 t^3 / 6,

which is exactly hbar times the phase the factored propagator attaches at
position xt (momentum-kick phase plus the global cubic phase).

Every closed form here refuses a NaN or infinite argument with
NonFiniteState naming it, before any other check, and refuses a result that
overflows to inf (or NaN), or whose float arithmetic raises OverflowError or
ZeroDivisionError, the same way, naming the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    PhysicalParams, _RefuseOverflow, _require_finite_scalars, _require_times,
)
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
    x0: float, x1: float, t: float, params: PhysicalParams
) -> ActionValue:
    """Action of the classical path from (0, x0) to (t, x1), in closed form.

    kinetic = (m/2) ((x0-x1)^2/t + g^2 t^3/12) and
    potential = m g (t (x0+x1)/2 + g t^3/12); the value is their difference.
    Requires t > 0.
    """
    _require_finite_scalars("classical_action", x0=x0, x1=x1, t=t)
    if not t > 0:
        raise DegenerateInterval(f"classical_action: need t > 0, got {t}")
    m, g = params.m, params.g
    disp = x0 - x1
    with _RefuseOverflow("classical_action"):
        kinetic = 0.5 * m * (disp * disp / t + g * g * t**3 / 12.0)
        potential = m * g * (t * (x0 + x1) / 2.0 + g * t**3 / 12.0)
    value = kinetic - potential
    _require_finite_scalars("classical_action", result=True, value=value)
    return ActionValue(value=value, kinetic=kinetic, potential=potential)


def shifted_free_action(
    x0: float, xt: float, t: float, params: PhysicalParams
) -> ActionValue:
    """Free (g = 0) action from x0 to the fall-corrected endpoint xt + g t^2/2.

    The comparison path is a straight line, so the action is purely kinetic:
    (m / 2t) (x0 - xt - g t^2/2)^2.  Requires t > 0.
    """
    _require_finite_scalars("shifted_free_action", x0=x0, xt=xt, t=t)
    if not t > 0:
        raise DegenerateInterval(f"shifted_free_action: need t > 0, got {t}")
    diff = x0 - xt - 0.5 * params.g * t * t
    value = 0.5 * params.m * diff * diff / t
    _require_finite_scalars("shifted_free_action", result=True, value=value)
    return ActionValue(value=value, kinetic=value, potential=0.0)


def delta_action(xt: float, t: float, params: PhysicalParams) -> float:
    """classical_action minus shifted_free_action: -m g xt t - m g^2 t^3 / 6.

    Independent of the starting point x0; vanishes identically at g = 0.
    """
    _require_finite_scalars("delta_action", xt=xt, t=t)
    m, g = params.m, params.g
    with _RefuseOverflow("delta_action"):
        value = -m * g * xt * t - m * g * g * t**3 / 6.0
    _require_finite_scalars("delta_action", result=True, value=value)
    return value


def ehrenfest_mean(
    x0: float, p0: float, t: float, params: PhysicalParams
) -> tuple[float, float]:
    """Mean position and momentum after time t: the classical fall.

    Returns (x0 + p0 t/m - g t^2/2, p0 - m g t); quantum means follow these
    exactly because the potential is linear.
    """
    _require_finite_scalars("ehrenfest_mean", x0=x0, p0=p0, t=t)
    m, g = params.m, params.g
    x, p = x0 + p0 * t / m - 0.5 * g * t * t, p0 - m * g * t
    _require_finite_scalars("ehrenfest_mean", result=True, x=x, p=p)
    return (x, p)


def spread_bound(
    sigma0: float, t: float, params: PhysicalParams
) -> tuple[float, float]:
    """Spreading bound and exact position spread after time t, both g-free.

    Returns (hbar t / (m sigma0), sigma0 sqrt(1 + (hbar t / (2 m sigma0^2))^2)).
    The exact spread grows toward half the bound once the free spreading
    dominates sigma0; gravity cancels out of both expressions.  Raises
    NegativeTime for t < 0.
    """
    _require_finite_scalars("spread_bound", sigma0=sigma0, t=t)
    _require_times("spread_bound", [t])
    if not sigma0 > 0:
        raise BadSigma(f"spread_bound: sigma0 must be positive, got {sigma0}")
    with _RefuseOverflow("spread_bound"):
        ratio = params.hbar * t / (params.m * sigma0)
        exact = sigma0 * math.sqrt(1.0 + (ratio / (2.0 * sigma0)) ** 2)
    _require_finite_scalars("spread_bound", result=True, bound=ratio, exact=exact)
    return (ratio, exact)
