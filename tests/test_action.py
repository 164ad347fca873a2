"""Two-time actions: closed forms vs quadrature, and the phase they control."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from wavefall import (
    BadSigma,
    DegenerateInterval,
    NegativeTime,
    NonFiniteState,
    PhysicalParams,
    Trajectory,
    WavefallError,
    classical_action,
    delta_action,
    ehrenfest_mean,
    evolve_exact,
    gaussian_visibility,
    make_gaussian,
    moments,
    predicted_phase,
    shift_packet,
    shifted_free_action,
    spread_bound,
    static_proper_time,
)


def lagrangian_integral(traj, t, params):
    """Quadrature oracle: integrate m xdot^2/2 - m g x along traj."""

    def kin(t):
        v = traj.velocity(t)
        return 0.5 * params.m * v * v

    def pot(t):
        return params.m * params.g * traj.position(t)

    k, _ = quad(kin, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    p, _ = quad(pot, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    return k, p


def test_classical_action_matches_quadrature(params, rng):
    for _ in range(20):
        x0, x1 = rng.uniform(-5, 5, size=2)
        t = rng.uniform(0.25, 3.0)
        m = rng.uniform(0.5, 3.0)
        g = rng.uniform(-2.0, 2.0)
        pr = PhysicalParams(hbar=1.0, m=m, g=g, c=10.0)
        traj = Trajectory(x0, (x1 - x0) / t + g * t / 2, g=g)
        k_ref, p_ref = lagrangian_integral(traj, t, pr)
        val = classical_action(x0, x1, t, pr)
        assert val == pytest.approx(k_ref - p_ref, abs=1e-9)


def test_classical_action_frozen_example(params):
    # stationary endpoints over t = 2: kinetic 1/3 less potential 2/3
    val = classical_action(0.0, 0.0, 2.0, params)
    assert type(val) is float
    assert val == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_classical_action_needs_ordered_times(params):
    # the path starts at t = 0, so the end time must come after it
    for t in (0.0, -1.0):
        with pytest.raises(DegenerateInterval, match="classical_action: need t > 0"):
            classical_action(0.0, 1.0, t, params)


def test_shifted_free_action_is_straight_line_action(params, rng):
    for _ in range(10):
        x0, xt = rng.uniform(-4, 4, size=2)
        t = rng.uniform(0.25, 3.0)
        target = xt + 0.5 * params.g * t * t
        v = (target - x0) / t
        expected = 0.5 * params.m * v * v * t  # free particle, constant speed
        val = shifted_free_action(x0, xt, t, params)
        assert val == pytest.approx(expected, abs=1e-12)


def test_shifted_free_action_frozen_example(params):
    assert shifted_free_action(0.0, 0.0, 1.0, params) == pytest.approx(0.125)
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
        rhs = classical_action(x0, xt, t, pr) - shifted_free_action(x0, xt, t, pr)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_delta_action_independent_of_x0(params):
    # the closed form has no x0 slot at all; confirm the difference that
    # defines it is flat in x0
    t, xt = 1.3, 0.7
    vals = [
        classical_action(x0, xt, t, params) - shifted_free_action(x0, xt, t, params)
        for x0 in (-5.0, -1.0, 0.0, 2.0, 5.0)
    ]
    assert max(vals) - min(vals) < 1e-12


def test_a_zero_dimensional_array_is_one_value(params):
    # a 0-d ndarray is one row, as a float is, not a sequence to iterate
    assert delta_action(np.array(-0.5), np.array(1.0), params) == delta_action(
        -0.5, 1.0, params
    )
    assert classical_action(np.array(0.0), 0.0, 2.0, params) == classical_action(
        0.0, 0.0, 2.0, params
    )


def test_delta_action_vanishes_without_gravity():
    free = PhysicalParams(hbar=1.0, m=1.0, g=0.0, c=10.0)
    assert delta_action(3.0, 2.0, free) == 0.0


@given(
    m=st.floats(1e-3, 1e3),
    hbar=st.floats(1e-3, 1e3),
    g=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
    t=st.one_of(st.just(0.0), st.floats(0.0, 1e2)),
    xbar=st.floats(-1e3, 1e3),
)
@example(m=1.0, hbar=1.0, g=0.0, t=1.0, xbar=-0.4)
def test_predicted_phase_is_delta_action_over_hbar(m, hbar, g, t, xbar):
    # the paper's observable: the fringe phase is the action difference over
    # hbar.  Compared by value, since a zero's sign may differ: at g = 0 and
    # xbar = -0.4 predicted_phase gives -0.0 and delta_action / hbar 0.0,
    # and the interfere CSV prints each phase's own sign
    params = PhysicalParams(hbar=hbar, m=m, g=g, c=10.0)
    assert predicted_phase(xbar, t, params) == delta_action(xbar, t, params) / hbar


def test_phase_factor_is_exp_of_delta_action(grid, params, free_flight):
    # pointwise: evolved amp / (shift + free flight) amp = e^{i delta/hbar}
    psi = make_gaussian(grid, 0.0, 0.0, 1.0, params)
    t = 1.0
    full = evolve_exact(psi, params, t)
    base = free_flight(shift_packet(psi, 0.5 * params.g * t * t), params, t)
    mask = np.abs(base) > 1e-6
    x = grid.x[mask]
    pred = np.exp(1j * (-params.m * params.g * x * t - params.m * params.g**2 * t**3 / 6.0) / params.hbar)
    np.testing.assert_allclose(full.amp[mask] / base[mask], pred, atol=1e-12)
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


@pytest.mark.parametrize("t", [-1.0, -1e-300])
def test_spread_bound_refuses_negative_time(params, t):
    # not a negative bound from a negative duration
    with pytest.raises(NegativeTime, match="spread_bound: t must be finite and >= 0"):
        spread_bound(1.0, t, params)


# The closed forms of an elapsed time t, each at fixed other arguments.  Each
# checks t's finiteness before its sign, so a NaN or inf t raises
# NonFiniteState naming t, and only a finite negative t raises NegativeTime.
CLOSED_FORMS_OF_T = {
    "predicted_phase": lambda t, p: predicted_phase(0.0, t, p),
    "gaussian_visibility": lambda t, p: gaussian_visibility(1.0, t, p),
    "ehrenfest_mean": lambda t, p: ehrenfest_mean(0.0, 0.0, t, p),
    "spread_bound": lambda t, p: spread_bound(1.0, t, p),
    "static_proper_time": lambda t, p: static_proper_time(0.0, t, p),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS_OF_T))
def test_closed_forms_refuse_a_negative_time(params, name):
    # each formula reads t as an elapsed time: at t = -1 predicted_phase gave
    # 0.1667, gaussian_visibility 0.6065 and ehrenfest_mean (-0.5, 1.0)
    call = CLOSED_FORMS_OF_T[name]
    with pytest.raises(NegativeTime) as info:
        call(-1.0, params)
    assert str(info.value) == f"{name}: t must be finite and >= 0, got -1.0"
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteState, match=f"^{name}: t={t} is not finite$"):
            call(t, params)
    call(-0.0, params)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: classical_action(NAN, 1, 1, p), "classical_action: x0=nan"),
        (lambda p: classical_action(0, 1, INF, p), "classical_action: t=inf"),
        (lambda p: shifted_free_action(0, -INF, 1, p), "shifted_free_action: xt=-inf"),
        (lambda p: shifted_free_action(0, 0, NAN, p), "shifted_free_action: t=nan"),
        (lambda p: delta_action(NAN, 1, p), "delta_action: xt=nan"),
        (lambda p: ehrenfest_mean(NAN, 0, 1, p), "ehrenfest_mean: x0=nan"),
        (lambda p: ehrenfest_mean(0, INF, 1, p), "ehrenfest_mean: p0=inf"),
        (lambda p: spread_bound(INF, 1, p), "spread_bound: sigma0=inf"),
        (lambda p: spread_bound(1, NAN, p), "spread_bound: t=nan"),
        # finite arguments whose result overflows: (1e+200, inf), value=inf
        # and (-inf, -1e+200) were returned without error
        (lambda p: spread_bound(1e-200, 1.0, p), "spread_bound: result exact=inf"),
        (lambda p: classical_action(0, 1, 1e-320, p), "classical_action: result value=inf"),
        (lambda p: ehrenfest_mean(0, 0, 1e200, p), "ehrenfest_mean: result x=-inf"),
    ],
    ids=[
        "classical_action-x0", "classical_action-t", "shifted_free_action-xt",
        "shifted_free_action-t", "delta_action", "ehrenfest_mean-x0",
        "ehrenfest_mean-p0", "spread_bound-sigma0", "spread_bound-t",
        "spread_bound-result", "classical_action-result", "ehrenfest_mean-result",
    ],
)
def test_closed_forms_refuse_non_finite_arguments(params, call, message):
    with pytest.raises(NonFiniteState) as info:
        call(params)
    assert str(info.value) == message + " is not finite"


# Values drawn on their own: signed zeros, the smallest subnormal, the float
# limits, and the edge of the range where t**3 overflows (about 5.64e102).
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e154, 5.6e102, 5.7e102,
    1e308, 1.7976931348623157e308,
]
EDGES += [-v for v in EDGES if v > 0]
any_float = st.floats(allow_nan=False, allow_infinity=False)
real = st.one_of(st.sampled_from(EDGES), any_float)
mass = st.one_of(
    st.sampled_from([v for v in EDGES if v > 0]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
EDGE_ROWS = st.lists(st.tuples(mass, real, real, real, real), max_size=8)
# Ordinary (m, g, t, x0, x1) rows in the ranges verify draws, from a seed:
# about 5% of such t have a cube that numpy's t**3 rounds differently, where
# the short decimals Hypothesis favours have cubes that round the same way
# in every implementation.
ORDINARY_LOW, ORDINARY_HIGH = (0.5, -2.0, 0.25, -5.0, -5.0), (3.0, 2.0, 3.0, 5.0, 5.0)


def _classical_reference(x0, x1, t, m, g):
    disp = x0 - x1
    kinetic = 0.5 * m * (disp * disp / t + g * g * t**3 / 12.0)
    potential = m * g * (t * (x0 + x1) / 2.0 + g * t**3 / 12.0)
    return kinetic - potential


def _shifted_free_reference(x0, xt, t, m, g):
    diff = x0 - xt - 0.5 * g * t * t
    return 0.5 * m * diff * diff / t


def _delta_reference(xt, t, m, g):
    return -m * g * xt * t - m * g * g * t**3 / 6.0


# Each closed form, the arguments it takes from a row's (x0, x1, t), and its
# scalar expression in Python floats, the reference for every row's bits.
FORMS = {
    "classical_action": (
        classical_action, lambda x0, x1, t: (x0, x1, t), _classical_reference
    ),
    "shifted_free_action": (
        shifted_free_action, lambda x0, x1, t: (x0, x1, t), _shifted_free_reference
    ),
    "delta_action": (delta_action, lambda x0, x1, t: (x1, t), _delta_reference),
}


def _bits(rows):
    return np.array(rows, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("form", FORMS)
@given(seed=st.integers(0, 2**32 - 1), edges=EDGE_ROWS)
def test_batched_rows_are_bit_identical_to_single_calls(form, seed, edges):
    # every row of one batched call has the bits of its own single call and
    # of the scalar expression in Python floats, whose t**3 is Python's pow;
    # a batch is refused exactly when one of its rows is refused alone
    rng = np.random.default_rng(seed)
    rows = rng.uniform(ORDINARY_LOW, ORDINARY_HIGH, (16, 5)).tolist() + edges
    call, args, reference = FORMS[form]
    singles, expected, kept = [], [], []
    for m, g, t, x0, x1 in rows:
        params = PhysicalParams(m=m, g=g)
        try:
            singles.append(call(*args(x0, x1, t), params))
        except WavefallError:
            continue
        expected.append(reference(*args(x0, x1, t), m, g))
        kept.append((args(x0, x1, t), params))
    columns = [[a[i] for a, _ in kept] for i in range(len(args(0, 0, 0)))]
    batched = call(*columns, [p for _, p in kept])
    assert _bits(batched) == _bits(singles)
    assert _bits(singles) == _bits(expected)
    if len(kept) < len(rows):
        columns = [list(c) for c in zip(*(args(x0, x1, t) for _, _, t, x0, x1 in rows))]
        with pytest.raises(WavefallError):
            call(*columns, [PhysicalParams(m=m, g=g) for m, g, *_ in rows])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda p: classical_action([0.0, 1.0, NAN], 1.0, 1.0, p),
            NonFiniteState,
            "classical_action in row 2: x0=nan is not finite",
        ),
        (
            lambda p: shifted_free_action(0.0, [1.0, -INF], 1.0, p),
            NonFiniteState,
            "shifted_free_action in row 1: xt=-inf is not finite",
        ),
        (
            lambda p: delta_action(0.0, (1.0, 2.0, 3.0, NAN), p),
            NonFiniteState,
            "delta_action in row 3: t=nan is not finite",
        ),
        (
            lambda p: classical_action(0.0, 1.0, np.array([1.0, 0.0]), p),
            DegenerateInterval,
            "classical_action in row 1: need t > 0, got 0.0",
        ),
        (
            lambda p: shifted_free_action(0.0, 1.0, [2.0, 1.0, -1.0], p),
            DegenerateInterval,
            "shifted_free_action in row 2: need t > 0, got -1.0",
        ),
        (
            lambda p: classical_action(0.0, 1.0, [1.0, 1e200], p),
            NonFiniteState,
            "classical_action in row 1: a result overflows the float range "
            "(OverflowError)",
        ),
        (
            lambda p: shifted_free_action(0.0, 1.0, [1.0, 2.0, 1e200], p),
            NonFiniteState,
            "shifted_free_action in row 2: result value=inf is not finite",
        ),
        (
            lambda p: delta_action(0.0, [1e200, 1.0], [p, p]),
            NonFiniteState,
            "delta_action in row 0: a result overflows the float range (OverflowError)",
        ),
    ],
    ids=[
        "classical_action-nan", "shifted_free_action-inf", "delta_action-nan",
        "classical_action-zero-t", "shifted_free_action-negative-t",
        "classical_action-t3", "shifted_free_action-result", "delta_action-t3",
    ],
)
def test_batched_refusals_name_the_row_without_a_warning(params, call, error, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as info:
            call(params)
    assert str(info.value) == message
    assert not caught
    if error is NonFiniteState:
        assert info.value.row == int(re.search(r" in row (\d+):", message)[1])
