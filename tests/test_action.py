"""Two-time actions: closed forms vs quadrature, and the phase they control."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavefall import (
    BadSigma,
    DegenerateInterval,
    NonFiniteState,
    PhysicalParams,
    Trajectory,
    classical_action,
    delta_action,
    ehrenfest_mean,
    evolve_exact,
    free_evolve,
    make_gaussian,
    moments,
    shift_packet,
    shifted_free_action,
    spread_bound,
)


def lagrangian_integral(traj, t0, t1, params):
    """Quadrature oracle: integrate m xdot^2/2 - m g x along traj."""

    def kin(t):
        v = traj.velocity(t)
        return 0.5 * params.m * v * v

    def pot(t):
        return params.m * params.g * traj.position(t)

    k, _ = quad(kin, t0, t1, epsabs=1e-12, epsrel=1e-12)
    p, _ = quad(pot, t0, t1, epsabs=1e-12, epsrel=1e-12)
    return k, p


def test_classical_action_matches_quadrature(params, rng):
    for _ in range(20):
        x0, x1 = rng.uniform(-5, 5, size=2)
        t0 = rng.uniform(-1, 1)
        t1 = t0 + rng.uniform(0.25, 3.0)
        m = rng.uniform(0.5, 3.0)
        g = rng.uniform(-2.0, 2.0)
        pr = PhysicalParams(hbar=1.0, m=m, g=g, c=10.0)
        span = t1 - t0
        traj = Trajectory.from_initial(x0, (x1 - x0) / span + g * span / 2, t0, g)
        k_ref, p_ref = lagrangian_integral(traj, t0, t1, pr)
        val = classical_action(x0, x1, t0, t1, pr)
        assert val.kinetic == pytest.approx(k_ref, abs=1e-9)
        assert val.potential == pytest.approx(p_ref, abs=1e-9)
        assert val.value == pytest.approx(k_ref - p_ref, abs=1e-9)


def test_classical_action_frozen_example(params):
    # stationary endpoints over T = 2: value -1/3 splits as 1/3 - 2/3
    val = classical_action(0.0, 0.0, 0.0, 2.0, params)
    assert val.kinetic == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert val.potential == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert val.value == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_classical_action_needs_ordered_times(params):
    with pytest.raises(DegenerateInterval):
        classical_action(0.0, 1.0, 1.0, 1.0, params)
    with pytest.raises(DegenerateInterval):
        classical_action(0.0, 1.0, 2.0, 1.0, params)


def test_shifted_free_action_is_straight_line_action(params, rng):
    for _ in range(10):
        x0, xt = rng.uniform(-4, 4, size=2)
        t = rng.uniform(0.25, 3.0)
        target = xt + 0.5 * params.g * t * t
        v = (target - x0) / t
        expected = 0.5 * params.m * v * v * t  # free particle, constant speed
        val = shifted_free_action(x0, xt, t, params)
        assert val.value == pytest.approx(expected, abs=1e-12)
        assert val.potential == 0.0


def test_shifted_free_action_frozen_example(params):
    assert shifted_free_action(0.0, 0.0, 1.0, params).value == pytest.approx(0.125)
    with pytest.raises(DegenerateInterval):
        shifted_free_action(0.0, 0.0, 0.0, params)


def test_delta_action_closed_form_and_frozen_values(params):
    assert delta_action(0.0, 1.0, params) == pytest.approx(-1.0 / 6.0, abs=1e-15)
    assert delta_action(1.0, 1.0, params) == pytest.approx(-7.0 / 6.0, abs=1e-15)
    # the canonical fall endpoint gives the interference phase 1/3
    assert delta_action(-0.5, 1.0, params) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_delta_action_is_the_action_difference(params, rng):
    # delta = S_cl(x0 -> xt) - S_free(x0 -> xt + g t^2/2), for every x0
    for _ in range(25):
        x0, xt = rng.uniform(-5, 5, size=2)
        t = rng.uniform(0.25, 3.0)
        m = rng.uniform(0.5, 3.0)
        g = rng.uniform(-2.0, 2.0)
        pr = PhysicalParams(hbar=1.0, m=m, g=g, c=10.0)
        lhs = delta_action(xt, t, pr)
        rhs = (
            classical_action(x0, xt, 0.0, t, pr).value
            - shifted_free_action(x0, xt, t, pr).value
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_delta_action_independent_of_x0(params):
    # the closed form has no x0 slot at all; confirm the difference that
    # defines it is flat in x0
    t, xt = 1.3, 0.7
    vals = [
        classical_action(x0, xt, 0.0, t, params).value
        - shifted_free_action(x0, xt, t, params).value
        for x0 in (-5.0, -1.0, 0.0, 2.0, 5.0)
    ]
    assert max(vals) - min(vals) < 1e-12


def test_delta_action_vanishes_without_gravity():
    free = PhysicalParams(hbar=1.0, m=1.0, g=0.0, c=10.0)
    assert delta_action(3.0, 2.0, free) == 0.0


def test_phase_factor_is_exp_of_delta_action(grid, params):
    # pointwise: evolved amp / (shift + free flight) amp = e^{i delta/hbar}
    psi = make_gaussian(grid, 0.0, 0.0, 1.0, params)
    t = 1.0
    full = evolve_exact(psi, params, t)
    base = free_evolve(shift_packet(psi, 0.5 * params.g * t * t), params, t)
    mask = np.abs(base.amp) > 1e-6
    x = grid.x[mask]
    pred = np.exp(1j * (-params.m * params.g * x * t - params.m * params.g**2 * t**3 / 6.0) / params.hbar)
    np.testing.assert_allclose(full.amp[mask] / base.amp[mask], pred, atol=1e-12)
    # and the exponent is delta_action evaluated at the node
    assert delta_action(x[0], t, params) == pytest.approx(
        -params.m * params.g * x[0] * t - params.m * params.g**2 * t**3 / 6.0
    )


def test_ehrenfest_mean_matches_quantum_evolution(grid, params):
    psi = make_gaussian(grid, -1.0, 2.0, 0.9, params)
    for t in (0.5, 1.0, 1.5):
        xm, pm = ehrenfest_mean(-1.0, 2.0, t, params)
        m = moments(evolve_exact(psi, params, t), params)
        assert m.mean_x == pytest.approx(xm, abs=1e-8)
        assert m.mean_p == pytest.approx(pm, abs=1e-8)


def test_spread_bound_frozen_example(params):
    bound, exact = spread_bound(1.0, 2.0, params)
    assert bound == pytest.approx(2.0)
    assert exact == pytest.approx(math.sqrt(2.0))


def test_spread_bound_dominates_actual_growth(grid, params):
    psi = make_gaussian(grid, 0.0, 0.0, 1.0, params)
    for t in (0.5, 1.0, 2.0):
        bound, exact = spread_bound(1.0, t, params)
        measured = moments(evolve_exact(psi, params, t), params).sigma_x
        assert measured == pytest.approx(exact, abs=1e-8)
        assert measured - 1.0 <= bound  # growth never beats the bound


@pytest.mark.parametrize("sigma0", [0.0, -0.0, -1.0])
def test_spread_bound_refuses_non_positive_sigma(params, sigma0):
    # refused as make_gaussian refuses it, not a ZeroDivisionError or a
    # negative bound
    with pytest.raises(BadSigma) as info:
        spread_bound(sigma0, 1.0, params)
    assert str(info.value) == f"spread_bound: sigma0 must be positive, got {sigma0}"


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: classical_action(NAN, 1, 0, 1, p), "classical_action: x0=nan"),
        (lambda p: classical_action(0, 1, 0, INF, p), "classical_action: t1=inf"),
        (lambda p: shifted_free_action(0, -INF, 1, p), "shifted_free_action: xt=-inf"),
        (lambda p: shifted_free_action(0, 0, NAN, p), "shifted_free_action: t=nan"),
        (lambda p: delta_action(NAN, 1, p), "delta_action: xt=nan"),
        (lambda p: ehrenfest_mean(NAN, 0, 1, p), "ehrenfest_mean: x0=nan"),
        (lambda p: ehrenfest_mean(0, INF, 1, p), "ehrenfest_mean: p0=inf"),
        (lambda p: spread_bound(INF, 1, p), "spread_bound: sigma0=inf"),
        (lambda p: spread_bound(1, NAN, p), "spread_bound: t=nan"),
    ],
    ids=[
        "classical_action-x0", "classical_action-t1", "shifted_free_action-xt",
        "shifted_free_action-t", "delta_action", "ehrenfest_mean-x0",
        "ehrenfest_mean-p0", "spread_bound-sigma0", "spread_bound-t",
    ],
)
def test_closed_forms_refuse_non_finite_arguments(params, call, message):
    with pytest.raises(NonFiniteState) as info:
        call(params)
    assert str(info.value) == message + " is not finite"
