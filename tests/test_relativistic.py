"""Proper time and the c^-2 approach of the relativistic action."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from wavefall import (
    NegativeTime,
    NonFiniteState,
    PhysicalParams,
    SuperluminalPath,
    Trajectory,
    free_fall_trajectory,
    nr_limit_check,
    proper_time,
    rel_action,
    static_proper_time,
    unwrap_phases,
)
from wavefall.relativistic import _samples, _simpson


def test_free_fall_trajectory_accelerates_toward_plus_x(params):
    # geodesics of the implemented clock rate curve toward +x for g > 0
    tr = free_fall_trajectory(0.0, 0.0, params)
    assert tr.position(1.0) == pytest.approx(0.5)
    assert tr.velocity(1.0) == pytest.approx(1.0)


def test_proper_time_against_quadrature(params):
    tr = free_fall_trajectory(0.5, -0.3, params)
    c2 = params.c**2

    def rate(t):
        x, v = tr.position(t), tr.velocity(t)
        return math.sqrt(1.0 - 2.0 * params.g * x / c2 - v * v / c2)

    ref, _ = quad(rate, 0.0, 2.0, epsabs=1e-13, epsrel=1e-13)
    val = proper_time(tr, 2.0, params)
    assert val == pytest.approx(ref, abs=1e-10)


def test_moving_clock_runs_slow(params):
    tr = free_fall_trajectory(0.0, 0.0, params)
    tau = proper_time(tr, 1.0, params)
    assert tau < 1.0
    # zero coordinate time means zero proper time
    assert proper_time(tr, 0.0, params) == 0.0


def test_static_proper_time_closed_form(params):
    # clock held at x0: rate sqrt(1 - 2 g x0 / c^2), exactly
    assert static_proper_time(0.0, 1.0, params) == 1.0
    x0 = 2.0
    expected = math.sqrt(1.0 - 2.0 * x0 / 100.0)
    assert static_proper_time(x0, 1.0, params) == pytest.approx(expected, abs=1e-15)
    still = Trajectory(x0, 0.0, g=0.0)
    assert proper_time(still, 1.0, params) == pytest.approx(expected, abs=1e-14)


def test_static_clock_above_floor_raises(params):
    with pytest.raises(SuperluminalPath):
        static_proper_time(51.0, 1.0, params)  # 2 g x / c^2 > 1


def test_superluminal_path_rejected(params):
    fast = Trajectory(0.0, 11.0, g=0.0)  # v > c = 10
    with pytest.raises(SuperluminalPath):
        proper_time(fast, 1.0, params)


def test_rel_action_reduces_to_nr_action(params):
    # on a weak-field path the two actions agree to O(c^-2)
    tr = free_fall_trajectory(0.0, 0.2, params)
    big_c = PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=1000.0)
    res = rel_action(tr, 1.0, big_c)
    assert res.abs_error < 1e-4
    assert res.action == pytest.approx(res.nr_action, abs=1e-4)


def test_nr_action_value_is_exact_for_parabolas(params):
    # Simpson is exact on the quadratic integrand; check against the closed
    # form for x = t^2/2: integral of -t^2/2 - t^2/2 over [0,1] is -1/3
    tr = free_fall_trajectory(0.0, 0.0, params)
    res = rel_action(tr, 1.0, params)
    assert res.nr_action == pytest.approx(-1.0 / 3.0, abs=1e-13)


def test_limit_scaling_order_is_minus_two(params):
    tr = free_fall_trajectory(0.0, 0.0, params)
    report = nr_limit_check(tr, 1.0, params, [10.0, 20.0, 40.0, 80.0])
    assert report.fitted_order == pytest.approx(-2.0, abs=0.1)
    errs = [r.abs_error for r in report.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))  # monotone falloff


def test_limit_scaling_flat_cases_return_none():
    # a clock parked at the origin has zero error for every c
    free = PhysicalParams(hbar=1.0, m=1.0, g=0.0, c=10.0)
    parked = Trajectory(0.0, 0.0, g=0.0)
    report = nr_limit_check(parked, 1.0, free, [10.0, 20.0, 40.0])
    assert report.fitted_order is None


def test_limit_check_validates_c_list(params):
    tr = free_fall_trajectory(0.0, 0.0, params)
    with pytest.raises(ValueError):
        nr_limit_check(tr, 1.0, params, [10.0, 20.0])
    with pytest.raises(ValueError):
        nr_limit_check(tr, 1.0, params, [10.0, 10.0, 20.0])


def test_leading_error_coefficient(params):
    # |S - S_nr| for the from-rest geodesic is ~ m t^5 g^2 / (10 c^2) plus
    # higher orders; check the c = 80 row against that estimate
    tr = free_fall_trajectory(0.0, 0.0, params)
    report = nr_limit_check(tr, 1.0, params, [20.0, 40.0, 80.0])
    est = 1.0 / (10.0 * 80.0**2)
    assert report.rows[-1].abs_error == pytest.approx(est, rel=0.05)


NEGATIVE_TIME = (NegativeTime, "t must be finite and >= 0")
QUADRATURE_NON_FINITE = (
    NonFiniteState, "^proper-time quadrature: t=(nan|inf) is not finite$"
)


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize(
    "clock, non_finite",
    [
        # every clock names a NaN or inf t with NonFiniteState, as the closed
        # forms of t do
        (
            lambda t, p: proper_time(free_fall_trajectory(0.0, 0.0, p), t, p),
            QUADRATURE_NON_FINITE,
        ),
        (
            lambda t, p: rel_action(free_fall_trajectory(0.0, 0.0, p), t, p),
            QUADRATURE_NON_FINITE,
        ),
        (
            lambda t, p: static_proper_time(0.0, t, p),
            (NonFiniteState, "static_proper_time: t=(nan|inf) is not finite"),
        ),
    ],
    ids=["proper_time", "rel_action", "static_proper_time"],
)
def test_proper_time_rejects_bad_durations(params, clock, non_finite, t):
    error, message = NEGATIVE_TIME if math.isfinite(t) else non_finite
    with pytest.raises(error, match=message):
        clock(t, params)


@pytest.mark.parametrize(
    "call, where",
    [
        (lambda p: unwrap_phases([0.0, math.nan, 1.0], [0.5, 0.75, 1.0]), "t=0.75"),
        (lambda p: proper_time(Trajectory(math.nan, 0, g=0), 1, p), "t=0 "),
        (lambda p: static_proper_time(math.nan, 1.0, p), "x0=nan"),
    ],
    ids=["unwrap_phases", "proper_time", "static_proper_time"],
)
def test_nan_is_refused_naming_its_sample(params, call, where):
    # NaN must not read as "within 1e-3 of pi" or as "radicand nan <= 0"
    with pytest.raises(NonFiniteState, match=where):
        call(params)


@pytest.fixture(scope="module")
def scipy_simpson():
    return pytest.importorskip("scipy.integrate").simpson


def _assert_same_bits(y, x, simpson):
    assert float(_simpson(y, x)).hex() == float(simpson(y, x=x)).hex()


@given(
    n=st.integers(8, 2049).map(lambda k: 2 * k),
    u=st.floats(-300.0, 6.0),
    decades=st.floats(0.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_simpson_matches_scipy_bit_for_bit(scipy_simpson, n, u, decades, seed):
    # uniform nodes with an even interval count, as _samples builds them,
    # and finite samples of either sign spread over many decades
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 10.0**u, n + 1)
    y = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-decades, decades, n + 1)
    _assert_same_bits(y, x, scipy_simpson)


@given(
    t=st.floats(1e-3, 3.0),
    x0=st.floats(-10.0, 10.0),
    v0=st.floats(-5.0, 5.0),
    g=st.floats(-10.0, 10.0),
    c=st.floats(100.0, 1e4),
)
def test_simpson_matches_scipy_on_clock_rates(scipy_simpson, t, x0, v0, g, c):
    # |x| <= 70 and |v| <= 35 keep the radicand above 0.7 for c >= 100
    params = PhysicalParams(g=g, c=c)
    times, _, _, radicand = _samples(free_fall_trajectory(x0, v0, params), t, params)
    _assert_same_bits(np.sqrt(radicand), times, scipy_simpson)


@pytest.mark.parametrize(
    "field, bits",
    [
        ("proper_time", "0x1.fe49c5edbf080p-1"),
        ("action", "-0x1.565d5e42c1bbcp-2"),
        ("nr_action", "-0x1.5555555555554p-2"),
        ("abs_error", "0x1.0808ed6c6669ap-10"),
    ],
)
def test_rel_action_bits_on_default_params(field, bits):
    # the values scipy.integrate.simpson gives on verify's limit-check path,
    # with the integrands of rel_action's rearranged form
    params = PhysicalParams()
    res = rel_action(free_fall_trajectory(0.0, 0.0, params), 1.0, params)
    assert getattr(res, field).hex() == bits


@pytest.mark.parametrize(
    "traj",
    [free_fall_trajectory(0.0, 0.0, PhysicalParams()), Trajectory(0.3, 0.7, g=0.5)],
    ids=["free_fall", "thrown"],
)
def test_action_gap_keeps_its_c_minus_two_law_at_large_c(traj):
    # formed as m c^2 (tau - t) minus nr_action, c^2 |S - nr_action| on the
    # free-fall path read 0.538, 275.8 and 4.4e7 at c = 1e4, 1e5 and 1e6,
    # against 0.1000 at c = 1e3: the difference cancelled to rounding
    def scaled(c):
        return c * c * rel_action(traj, 1.0, PhysicalParams(c=c)).abs_error

    reference = scaled(1e3)
    for c in (1e4, 1e5, 1e6):
        assert abs(scaled(c) - reference) < 1e-6
    # errors of 1e-15 to 1e-19 are still exact, and still fitted
    for cs in ([1e4, 1e5, 1e6], [1e7, 1e8, 1e9]):
        report = nr_limit_check(traj, 1.0, PhysicalParams(), cs)
        assert report.fitted_order == pytest.approx(-2.0, abs=1e-6)
