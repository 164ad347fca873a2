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

classical_action, shifted_free_action and delta_action each return the
action as a float, and take rows, as evolve_exact and moments do: each
argument, params included, may be one value or an equal-length sequence
(list, tuple or ndarray), single values broadcast against the sequences, and
a list of floats is returned when any argument is a sequence.  All rows are
evaluated at once as float64 arrays, one elementwise operation at a time in
a fixed order, so every row is bit-identical to its single call; t**3 is
taken row by row with Python's float pow, because numpy's t**3 differs from
it in the last bit for some t.

Every closed form here refuses a NaN or infinite argument with
NonFiniteState naming it, before any other check, and refuses a result that
overflows to inf (or NaN), or whose float arithmetic raises OverflowError or
ZeroDivisionError, the same way, naming the function.  A batched call runs
each check over all its rows in one pass before the next check; only a
failing pass searches row by row, and the refusal names the first offending
row, "<function> in row R: ...", carried as .row by NonFiniteState.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .core import (
    PhysicalParams,
    _as_rows,
    _in_row,
    _RefuseOverflow,
    _require_finite_rows,
    _require_finite_scalars,
    _require_times,
)
from .errors import BadSigma, DegenerateInterval

__all__ = [
    "classical_action",
    "shifted_free_action",
    "delta_action",
    "ehrenfest_mean",
    "spread_bound",
]


def _rows(context: str, params, positive_t: bool, **args):
    """batched, then m, g and each argument (t last) as a float64 array of rows.

    Refuses, each check over all rows before the next, an argument that is
    not finite (NonFiniteState) and, when positive_t, a t that is not
    positive (DegenerateInterval, "<context>[ in row R]: need t > 0, got t").
    """
    batched, (pars, *columns) = _as_rows(context, params, *args.values())
    values = np.array(columns, dtype=np.float64)
    if not np.isfinite(values).all():
        _require_finite_rows(context, batched, result=False, **dict(zip(args, columns)))
    if positive_t and not (values[-1] > 0).all():
        row = int(np.argmin(values[-1] > 0))
        raise DegenerateInterval(
            f"{context}{_in_row(row, batched)}: need t > 0, got {columns[-1][row]}"
        )
    m = np.array([p.m for p in pars], dtype=np.float64)
    g = np.array([p.g for p in pars], dtype=np.float64)
    return batched, m, g, *values


def _cubes(context: str, batched: bool, t: np.ndarray) -> np.ndarray:
    """t**3 row by row with Python's float pow, as each single call cubes t.

    Python raises OverflowError for a cube past the float range; the rows
    are then searched one by one, and NonFiniteState names the first.
    """
    ts = t.tolist()
    try:
        return np.array([v**3 for v in ts], dtype=np.float64)
    except OverflowError:
        for row, v in enumerate(ts):
            with _RefuseOverflow(f"{context}{_in_row(row, batched)}", row):
                v**3  # raises at the first row past the range
        raise


def _finite(context: str, batched: bool, value: np.ndarray) -> list[float]:
    """The rows of a result as floats; NonFiniteState at the first not finite."""
    values = value.tolist()
    if not np.isfinite(value).all():
        _require_finite_rows(context, batched, value=values)
    return values


def classical_action(
    x0: float | Sequence[float],
    x1: float | Sequence[float],
    t: float | Sequence[float],
    params: PhysicalParams | Sequence[PhysicalParams],
):
    """Action of the classical path from (0, x0) to (t, x1), in closed form.

    kinetic = (m/2) ((x0-x1)^2/t + g^2 t^3/12) and
    potential = m g (t (x0+x1)/2 + g t^3/12); the action is their difference.
    Requires t > 0.  Returns a float, or a list of them for a batched call
    (module docstring).
    """
    name = "classical_action"
    batched, m, g, x0, x1, t = _rows(name, params, True, x0=x0, x1=x1, t=t)
    t3 = _cubes(name, batched, t)
    with np.errstate(over="ignore", invalid="ignore"):
        disp = x0 - x1
        kinetic = 0.5 * m * (disp * disp / t + g * g * t3 / 12.0)
        potential = m * g * (t * (x0 + x1) / 2.0 + g * t3 / 12.0)
        value = kinetic - potential
    out = _finite(name, batched, value)
    return out if batched else out[0]


def shifted_free_action(
    x0: float | Sequence[float],
    xt: float | Sequence[float],
    t: float | Sequence[float],
    params: PhysicalParams | Sequence[PhysicalParams],
):
    """Free (g = 0) action from x0 to the fall-corrected endpoint xt + g t^2/2.

    The comparison path is a straight line, so the action is purely kinetic:
    (m / 2t) (x0 - xt - g t^2/2)^2.  Requires t > 0.  Returns a float, or a
    list of them for a batched call (module docstring).
    """
    name = "shifted_free_action"
    batched, m, g, x0, xt, t = _rows(name, params, True, x0=x0, xt=xt, t=t)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x0 - xt - 0.5 * g * t * t
        value = 0.5 * m * diff * diff / t
    out = _finite(name, batched, value)
    return out if batched else out[0]


def delta_action(
    xt: float | Sequence[float],
    t: float | Sequence[float],
    params: PhysicalParams | Sequence[PhysicalParams],
):
    """classical_action minus shifted_free_action: -m g xt t - m g^2 t^3 / 6.

    Independent of the starting point x0; vanishes identically at g = 0.
    Returns a float, or a list of them for a batched call (module docstring).
    """
    name = "delta_action"
    batched, m, g, xt, t = _rows(name, params, False, xt=xt, t=t)
    t3 = _cubes(name, batched, t)
    with np.errstate(over="ignore", invalid="ignore"):
        value = -m * g * xt * t - m * g * g * t3 / 6.0
    out = _finite(name, batched, value)
    return out if batched else out[0]


def ehrenfest_mean(
    x0: float, p0: float, t: float, params: PhysicalParams
) -> tuple[float, float]:
    """Mean position and momentum after time t: the classical fall.

    Returns (x0 + p0 t/m - g t^2/2, p0 - m g t); quantum means follow these
    exactly because the potential is linear.  Raises NegativeTime for t < 0.
    """
    _require_finite_scalars("ehrenfest_mean", x0=x0, p0=p0, t=t)
    _require_times("ehrenfest_mean", [t])
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
