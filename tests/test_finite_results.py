"""Finite in, finite out: overflow is refused with NonFiniteState, never leaked.

Python float arithmetic raises a bare OverflowError (t**3, x**2 past the
float range) or ZeroDivisionError (a divisor that underflowed to 0) where
numpy returns inf or NaN with a RuntimeWarning; pytest treats a warning as
an error, so each case below also shows that no warning is emitted.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavefall import (
    Grid,
    NonFiniteState,
    PhysicalParams,
    SolverConfig,
    Trajectory,
    WavefallError,
    analytic,
    apply_global_phase,
    classical_action,
    delta_action,
    ehrenfest_mean,
    evolve_exact,
    evolve_split_step,
    free_fall_trajectory,
    gaussian_visibility,
    make_gaussian,
    predicted_phase,
    proper_time,
    rel_action,
    shift_packet,
    shifted_free_action,
    spread_bound,
    static_proper_time,
)

P = PhysicalParams()
TINY_M = replace(P, m=1e-300)
HUGE_G = replace(P, g=1e300)


@pytest.mark.parametrize(
    "call, message",
    [
        # a bare OverflowError from the float t**3
        (
            lambda: classical_action(0, 1, 1e200, P),
            "classical_action: a result overflows",
        ),
        (lambda: delta_action(0, 1e200, P), "delta_action: a result overflows"),
        # a bare OverflowError from (ratio / 2 sigma0)**2
        (lambda: spread_bound(1e-150, 1.0, P), "spread_bound: a result overflows"),
        # a ZeroDivisionError once m sigma0 underflows to 0
        (lambda: spread_bound(1e-300, 1.0, TINY_M), "spread_bound: a result overflows"),
        # returned -inf
        (lambda: predicted_phase(1e300, 1e10, P), "predicted_phase: result phase=-inf"),
        # returned NaN: sigma_t = 0 against a kick m g t that overflows
        (
            lambda: gaussian_visibility(0.0, 1e300, replace(P, m=1e300)),
            "gaussian_visibility: result visibility=nan",
        ),
    ],
    ids=[
        "classical_action-t3", "delta_action-t3", "spread_bound-pow",
        "spread_bound-zero-division", "predicted_phase", "gaussian_visibility",
    ],
)
def test_closed_forms_refuse_overflow(call, message):
    with pytest.raises(NonFiniteState, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        # c**2 raised a bare OverflowError in the quadrature and the closed form
        (
            lambda: rel_action(free_fall_trajectory(0, 0, P), 1.0, replace(P, c=1e300)),
            "proper-time quadrature: a result overflows",
        ),
        (
            lambda: static_proper_time(0.0, 1.0, replace(P, c=1e300)),
            "static_proper_time: a result overflows",
        ),
        # c**2 underflows to 0: a ZeroDivisionError
        (
            lambda: static_proper_time(1.0, 1.0, replace(P, c=1e-300)),
            "static_proper_time: a result overflows",
        ),
        # returned inf
        (
            lambda: static_proper_time(-1e20, 1e300, P),
            "static_proper_time: result tau=inf",
        ),
        # raised NonFiniteState only after a RuntimeWarning
        (
            lambda: proper_time(free_fall_trajectory(0, 0, HUGE_G), 1.0, HUGE_G),
            "proper-time quadrature: a result overflows",
        ),
        # a clock at rest for t = 1e300: h0 h1 overflowed inside the Simpson
        # weights, which zeroed them, and proper_time came out as t/3
        (
            lambda: rel_action(Trajectory(0.0, 0.0, 0.0), 1e300, P),
            "rel_action: a result overflows",
        ),
    ],
    ids=[
        "quadrature-c2", "static-c2", "static-c2-underflow", "static-result",
        "quadrature-g", "simpson-weights",
    ],
)
def test_proper_time_route_refuses_overflow(call, message):
    with pytest.raises(NonFiniteState, match=message):
        call()


def test_evolve_exact_refuses_a_non_finite_shift_before_any_phase(
    psi0, count_calls
):
    # emitted RuntimeWarnings building e^{ika} with a = inf, then blamed the
    # boundary margin
    phases = count_calls(analytic, "_apply_phases")
    with pytest.raises(NonFiniteState, match=r"^evolve_exact: result shift=inf "):
        evolve_exact(psi0, P, 1e200)
    with pytest.raises(NonFiniteState, match=r"^evolve_exact in row 1: result shift"):
        evolve_exact(psi0, P, [1.0, 1e200])
    assert phases == []


def test_evolve_exact_refuses_a_cubic_angle_past_the_float_range(psi0):
    # t**3 raises OverflowError for t above about 5.6e102
    with pytest.raises(NonFiniteState, match="evolve_exact: result cubic_angle=-inf"):
        evolve_exact(psi0, P, 1e103)


@pytest.mark.parametrize(
    "params, t, name",
    [
        # hbar t k^2/(2m) overflowed dividing by m
        (replace(P, m=1e-300, g=0.0), 1e10, "free_flight_angle"),
        # m g t x/hbar overflowed while the cubic angle stayed finite
        (PhysicalParams(hbar=1e-10, m=1e300), 1e-2, "kick_angle"),
        # k a overflowed: shift 1.2e307, cubic and free-flight angles 1.4e308
        (PhysicalParams(hbar=1e-10, m=1.5e-216, g=2.4e107), 1e100, "shift_angle"),
    ],
    ids=["free-flight", "kick", "shift"],
)
def test_evolve_exact_refuses_a_phase_angle_past_the_float_range(
    psi0, count_calls, params, t, name
):
    # each emitted an overflow RuntimeWarning while building its phase
    phases = count_calls(analytic, "_apply_phases")
    with pytest.raises(NonFiniteState, match=rf"^evolve_exact: result {name}=inf "):
        evolve_exact(psi0, params, t)
    assert phases == []


def test_each_phase_angle_is_evaluated_once_per_row(psi0, count_calls):
    # each angle is formed once per row, at the public entry point; the
    # kernels behind it form none
    names = ("_shift_angle", "_free_angle", "_kick_angle")
    angles = [count_calls(analytic, name) for name in names]
    evolve_exact(psi0, P, [0.5, 1.0, 1.5])
    assert [len(calls) for calls in angles] == [3, 3, 3]
    shift_packet([psi0] * 4, [0.5, 1.0, 1.0, 1.5])
    assert [len(calls) for calls in angles] == [7, 3, 3]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda psi: shift_packet([psi, psi], [1.0, 1e307]),
            r"^shift_packet in row 1: result shift_angle=inf ",
        ),
        (
            lambda psi: evolve_split_step(psi, TINY_M, 1e10, SolverConfig(1)),
            r"^evolve_split_step: result kinetic_angle=inf ",
        ),
        (
            lambda psi: evolve_split_step(
                [psi, psi], PhysicalParams(hbar=1e-10, m=1e300), 1e-2, SolverConfig(1)
            ),
            r"^evolve_split_step in row 0: result potential_angle=inf ",
        ),
        # rows are searched row by row: row 0's kinetic angle overflows and so
        # does row 1's potential angle.  Every row's potential angle used to
        # be checked first, which named row 1.
        (
            lambda psi: evolve_split_step(
                [psi, psi], [replace(P, g=0.0), HUGE_G], [1e307, 1e10], SolverConfig(1)
            ),
            r"^evolve_split_step in row 0: result kinetic_angle=inf ",
        ),
    ],
    ids=["shift_packet", "split-step-kinetic", "split-step-potential", "row-major"],
)
def test_public_kernels_refuse_a_phase_angle_past_the_float_range(
    psi0, call, message
):
    # each emitted an overflow RuntimeWarning while building its phase
    with pytest.raises(NonFiniteState, match=message):
        call(psi0)


@pytest.mark.parametrize("t", [1e-158, 1e-160])
def test_proper_time_refuses_a_t_whose_simpson_weights_underflow(t):
    # h0 h1 is subnormal below t of about 6e-151: a clock at rest read
    # 1.14 t at t = 1e-158 and t/3 at t = 1e-160
    with pytest.raises(NonFiniteState, match="rel_action: Simpson step product"):
        proper_time(Trajectory(0.0, 0.0, 0.0), t, P)


def test_proper_time_keeps_full_precision_just_above_the_underflow():
    t = 1e-150
    assert proper_time(Trajectory(0.0, 0.0, 0.0), t, P) == pytest.approx(t, rel=1e-14)


MAGNITUDES = [0.0] + [
    sign * 10.0**e for sign in (1.0, -1.0) for e in range(-300, 301, 50)
]
magnitude = st.sampled_from(MAGNITUDES)
positive = st.sampled_from([v for v in MAGNITUDES if v > 0])


# The start state of the propagators and kernels in the magnitude property.
PSI = make_gaussian(Grid(-20.0, 20.0, 256), 0.0, 0.0, 1.0, P)


@given(
    hbar=positive, m=positive, g=magnitude, c=positive,
    a=magnitude, b=magnitude, t=magnitude,
)
def test_closed_forms_are_finite_or_refused(hbar, m, g, c, a, b, t):
    params = PhysicalParams(hbar=hbar, m=m, g=g, c=c)
    path = Trajectory(a, b, g)
    calls = [
        lambda: classical_action(a, b, t, params),
        lambda: shifted_free_action(a, b, t, params),
        lambda: delta_action(a, t, params),
        lambda: ehrenfest_mean(a, b, t, params),
        lambda: spread_bound(a, t, params),
        lambda: predicted_phase(a, t, params),
        lambda: gaussian_visibility(a, t, params),
        lambda: static_proper_time(a, t, params),
        lambda: evolve_exact(PSI, params, t).amp,
        lambda: shift_packet(PSI, a).amp,
        lambda: [out.amp for out in shift_packet([PSI, PSI], [0.0, a])],
        lambda: apply_global_phase(PSI, a).amp,
        lambda: evolve_split_step(PSI, params, t, SolverConfig(1)).amp,
        lambda: astuple(rel_action(path, t, params)),
        lambda: proper_time(path, t, params),
    ]
    for call in calls:
        try:
            out = call()
        except WavefallError:
            continue
        assert np.isfinite(out).all()
