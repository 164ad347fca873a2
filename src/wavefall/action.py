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

The fringe closed forms that interferometry's predicted columns read sit
beside them: a colocated fringe's phase predicted_phase(xbar, t), equal to
delta_action(xbar, t)/hbar (in value; a zero's sign may differ), and its
Gaussian contrast gaussian_visibility; and _branch_prediction, a per-branch
fringe.  This module imports only core and errors, so they share no code
with the propagators they check (tests/test_public_surface.py).

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
    Moments,
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
    "predicted_phase",
    "gaussian_visibility",
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


def predicted_phase(xbar: float, t: float, params: PhysicalParams) -> float:
    """Closed-form fringe phase -(m g xbar t + m g^2 t^3/6)/hbar.

    xbar is the mean position of the reference branch at readout.  For the
    colocated scheme this matches the measured phase exactly for symmetric
    packets (the translation covers the fall, so only the momentum-kick phase
    at the branch center and the global cubic phase survive).  Equal in
    value to delta_action(xbar, t)/hbar, but not computed through it, which
    would flip the sign of some zero phases.  A non-finite argument or
    result raises NonFiniteState, and t < 0 NegativeTime.
    """
    _require_finite_scalars("predicted_phase", xbar=xbar, t=t)
    _require_times("predicted_phase", [t])
    m, g = params.m, params.g
    with _RefuseOverflow("predicted_phase"):
        phase = -(m * g * xbar * t + m * g * g * t**3 / 6.0) / params.hbar
    _require_finite_scalars("predicted_phase", result=True, phase=phase)
    return phase


def gaussian_visibility(sigma_t: float, t: float, params: PhysicalParams) -> float:
    """Fringe contrast exp(-(m g t sigma_t / hbar)^2 / 2) for a Gaussian packet.

    sigma_t is the position spread at readout time.  The contrast is the
    magnitude of the Gaussian's characteristic function at the accumulated
    momentum kick m g t.  A NaN or inf sigma_t or t raises NonFiniteState
    naming the argument, t < 0 raises NegativeTime and sigma_t < 0 BadSigma.
    A NaN contrast, such as sigma_t = 0 against a kick that overflows, raises
    NonFiniteState.
    """
    _require_finite_scalars("gaussian_visibility", sigma_t=sigma_t, t=t)
    _require_times("gaussian_visibility", [t])
    if sigma_t < 0:
        raise BadSigma(
            f"gaussian_visibility: sigma_t must be non-negative, got {sigma_t}"
        )
    kick = params.m * params.g * t * sigma_t / params.hbar
    visibility = math.exp(-0.5 * kick * kick)
    _require_finite_scalars("gaussian_visibility", result=True, visibility=visibility)
    return visibility


def _free_flight(start: Moments, t: float, m: float) -> tuple[float, float, float]:
    """(xbar, sigma_p t/m, sigma_x^2) of psi0's moments, start, after free flight t.

    xbar drifts by pbar t/m for any state, and sigma_x^2 gains (sigma_p t/m)^2
    for the uncorrelated Gaussian that interferometry._looks_gaussian refits.
    """
    drift = start.sigma_p * t / m
    return start.mean_x + start.mean_p * t / m, drift, start.sigma_x**2 + drift * drift


def _colocated_prediction(
    start: Moments, t: float, params: PhysicalParams, gaussian: bool
) -> tuple[float, float | None]:
    """Closed-form (phase, visibility) of a colocated fringe at readout t.

    predicted_phase and gaussian_visibility at the reference branch's mean
    and spread, which are psi0's moments, start, carried through free
    flight (_free_flight), the mean then translated by -g t^2/2 onto the
    fallen branch.  The potential is linear, so the reference's mean is
    exact for any state; the visibility is None unless gaussian.
    """
    xbar, _, var_x = _free_flight(start, t, params.m)
    phase = predicted_phase(xbar - 0.5 * params.g * t * t, t, params)
    if not gaussian:
        return phase, None
    return phase, gaussian_visibility(math.sqrt(var_x), t, params)


def _branch_prediction(
    accelerated, reference, t: float, start: Moments, params: PhysicalParams,
    gaussian: bool,
) -> tuple[float, float | None]:
    """Closed-form (phase, visibility) of a per-branch fringe at total duration t.

    With K(q) = e^{i q x/hbar}, T(a) psi(x) = psi(x + a) and U_0 free
    flight, a branch's (g, d) segments compose to e^{i beta} K(q) T(a) U_0(t):
    from beta = q = a = 0, each segment (g, d) in order adds
    theta + q (g d^2/2)/hbar - q^2 d/(2 m hbar) to beta, with
    theta = -m g^2 d^3/(6 hbar), then g d^2/2 - q d/m to a and -m g d to q.
    With dq = q_A - q_B and da = a_A - a_B over the accelerated (A) and
    reference (B) branches, and the moments of U_0(t) psi0 (xbar, pbar,
    sigma_x, sigma_p and C = <{dX, dP}>/2),

        phase = beta_A - beta_B - dq a_B/hbar - dq da/(2 hbar)
                + (dq xbar + da pbar)/hbar,
        visibility = exp(-(dq^2 sigma_x^2 + da^2 sigma_p^2 + 2 dq da C)/(2 hbar^2)),

    the visibility being a Gaussian's characteristic function and None
    unless gaussian (Storey and Cohen-Tannoudji, J. Phys. II France 4, 1999,
    1994).  The moments are start's, psi0's, carried through free flight
    (_free_flight), and C is sigma_p^2 t/m for the uncorrelated Gaussian
    that interferometry._looks_gaussian refits.  A result that is not
    finite raises NonFiniteState.  Independent of analytic: see
    test_the_routes_and_the_closed_forms_import_only_core_and_errors.
    """
    hbar, m = params.hbar, params.m

    def composed(segments):
        beta = q = a = 0.0
        for g, d in segments:
            shift = 0.5 * g * d * d
            beta += -m * g * g * d**3 / (6.0 * hbar) + q * shift / hbar
            beta -= q * q * d / (2.0 * m * hbar)
            a += shift - q * d / m
            q -= m * g * d
        return beta, q, a

    with _RefuseOverflow("predicted_phase"):
        beta_a, q_a, a_a = composed(accelerated)
        beta_b, q_b, a_b = composed(reference)
        dq, da = q_a - q_b, a_a - a_b
        xbar, drift, var_x = _free_flight(start, t, m)
        pbar = start.mean_p
        phase = (
            beta_a - beta_b - dq * a_b / hbar - dq * da / (2.0 * hbar)
            + (dq * xbar + da * pbar) / hbar
        )
        _require_finite_scalars("predicted_phase", result=True, phase=phase)
        if not gaussian:
            return phase, None
        sigma_p = start.sigma_p
        spread = dq * dq * var_x + da * (da * sigma_p + 2.0 * dq * drift) * sigma_p
        visibility = math.exp(-spread / (2.0 * hbar * hbar))
    _require_finite_scalars("gaussian_visibility", result=True, visibility=visibility)
    return phase, visibility


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
