"""Proper time and the c^-2 approach of the relativistic action."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavefall import (
    BadQuadrature,
    NegativeTime,
    PhysicalParams,
    SuperluminalPath,
    Trajectory,
    free_fall_trajectory,
    nr_limit_check,
    proper_time,
    rel_action,
    static_proper_time,
)


def test_free_fall_trajectory_accelerates_toward_plus_x(params):
    # geodesics of the implemented clock rate curve toward +x for g > 0
    tr = free_fall_trajectory(0.0, 0.0, 0.0, params)
    assert tr.position(1.0) == pytest.approx(0.5)
    assert tr.velocity(1.0) == pytest.approx(1.0)


def test_proper_time_against_quadrature(params):
    tr = free_fall_trajectory(0.5, -0.3, 0.0, params)
    c2 = params.c**2

    def rate(t):
        x, v = tr.position(t), tr.velocity(t)
        return math.sqrt(1.0 - 2.0 * params.g * x / c2 - v * v / c2)

    ref, _ = quad(rate, 0.0, 2.0, epsabs=1e-13, epsrel=1e-13)
    val = proper_time(tr, 2.0, params, 4096)
    assert val == pytest.approx(ref, abs=1e-10)


def test_moving_clock_runs_slow(params):
    tr = free_fall_trajectory(0.0, 0.0, 0.0, params)
    tau = proper_time(tr, 1.0, params, 2048)
    assert tau < 1.0
    # zero coordinate time means zero proper time
    assert proper_time(tr, 0.0, params, 2048) == 0.0


def test_static_proper_time_closed_form(params):
    # clock held at x0: rate sqrt(1 - 2 g x0 / c^2), exactly
    assert static_proper_time(0.0, 1.0, params) == 1.0
    x0 = 2.0
    expected = math.sqrt(1.0 - 2.0 * x0 / 100.0)
    assert static_proper_time(x0, 1.0, params) == pytest.approx(expected, abs=1e-15)
    still = Trajectory.from_initial(x0, 0.0, 0.0, g=0.0)
    assert proper_time(still, 1.0, params, 4096) == pytest.approx(expected, abs=1e-14)


def test_static_clock_above_floor_raises(params):
    with pytest.raises(SuperluminalPath):
        static_proper_time(51.0, 1.0, params)  # 2 g x / c^2 > 1


def test_quadrature_floor_enforced(params):
    tr = free_fall_trajectory(0.0, 0.0, 0.0, params)
    with pytest.raises(BadQuadrature):
        proper_time(tr, 1.0, params, 8)


def test_superluminal_path_rejected(params):
    fast = Trajectory.from_initial(0.0, 11.0, 0.0, g=0.0)  # v > c = 10
    with pytest.raises(SuperluminalPath):
        proper_time(fast, 1.0, params, 64)


def test_rel_action_reduces_to_nr_action(params):
    # on a weak-field path the two actions agree to O(c^-2)
    tr = free_fall_trajectory(0.0, 0.2, 0.0, params)
    big_c = PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=1000.0)
    res = rel_action(tr, 1.0, big_c, 4096)
    assert res.abs_error < 1e-4
    assert res.action == pytest.approx(res.nr_action, abs=1e-4)


def test_nr_action_value_is_exact_for_parabolas(params):
    # Simpson is exact on the quadratic integrand; check against the closed
    # form for x = t^2/2: integral of -t^2/2 - t^2/2 over [0,1] is -1/3
    tr = free_fall_trajectory(0.0, 0.0, 0.0, params)
    res = rel_action(tr, 1.0, params, 64)
    assert res.nr_action == pytest.approx(-1.0 / 3.0, abs=1e-13)


def test_limit_scaling_order_is_minus_two(params):
    tr = free_fall_trajectory(0.0, 0.0, 0.0, params)
    report = nr_limit_check(tr, 1.0, params, [10.0, 20.0, 40.0, 80.0])
    assert report.fitted_order == pytest.approx(-2.0, abs=0.1)
    errs = [r.abs_error for r in report.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))  # monotone falloff


def test_limit_scaling_flat_cases_return_none():
    # a clock parked at the origin has zero error for every c
    free = PhysicalParams(hbar=1.0, m=1.0, g=0.0, c=10.0)
    parked = Trajectory.from_initial(0.0, 0.0, 0.0, g=0.0)
    report = nr_limit_check(parked, 1.0, free, [10.0, 20.0, 40.0])
    assert report.fitted_order is None


def test_limit_check_validates_c_list(params):
    tr = free_fall_trajectory(0.0, 0.0, 0.0, params)
    with pytest.raises(ValueError):
        nr_limit_check(tr, 1.0, params, [10.0, 20.0])
    with pytest.raises(ValueError):
        nr_limit_check(tr, 1.0, params, [10.0, 10.0, 20.0])


def test_leading_error_coefficient(params):
    # |S - S_nr| for the from-rest geodesic is ~ m t^5 g^2 / (10 c^2) plus
    # higher orders; check the c = 80 row against that estimate
    tr = free_fall_trajectory(0.0, 0.0, 0.0, params)
    report = nr_limit_check(tr, 1.0, params, [20.0, 40.0, 80.0])
    est = 1.0 / (10.0 * 80.0**2)
    assert report.rows[-1].abs_error == pytest.approx(est, rel=0.05)


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize(
    "clock",
    [
        lambda t, p: proper_time(free_fall_trajectory(0.0, 0.0, 0.0, p), t, p, 64),
        lambda t, p: rel_action(free_fall_trajectory(0.0, 0.0, 0.0, p), t, p, 64),
        lambda t, p: static_proper_time(0.0, t, p),
    ],
    ids=["proper_time", "rel_action", "static_proper_time"],
)
def test_proper_time_rejects_bad_durations(params, clock, t):
    with pytest.raises(NegativeTime, match="t must be finite and >= 0"):
        clock(t, params)
