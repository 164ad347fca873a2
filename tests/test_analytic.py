"""Factored exact propagator: moments, composition, piecewise schedules."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wavefall import (
    AccelSchedule,
    BranchSchedules,
    Grid,
    GridOverflow,
    NegativeTime,
    NonFiniteState,
    PhysicalParams,
    SolverConfig,
    WavePacket,
    analytic,
    apply_global_phase,
    branch_states,
    evolve_exact,
    evolve_piecewise,
    evolve_split_step,
    l2_distance,
    make_gaussian,
    moments,
    overlap,
    shift_packet,
)


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "evolve, where, row",
    [
        (evolve_exact, "evolve_exact", 0),
        (
            lambda psi, params, t: evolve_split_step(psi, params, t, SolverConfig(8)),
            "evolve_split_step",
            0,
        ),
        (branch_states, "readout time", 0),
        (
            lambda psi, params, t: evolve_exact([psi, psi], params, [1.0, t]),
            "evolve_exact in row 1",
            1,
        ),
    ],
    ids=["evolve_exact", "evolve_split_step", "branch_states", "evolve_exact-row"],
)
def test_non_finite_time_is_rejected(psi0, params, evolve, where, row, t):
    # named as the closed forms of t name it; only a finite negative t raises
    # NegativeTime
    with pytest.raises(NonFiniteState) as info:
        evolve(psi0, params, t)
    assert str(info.value) == f"{where}: t={t} is not finite"
    assert info.value.row == row


@pytest.mark.parametrize(
    "evolve",
    [
        evolve_exact,
        lambda psi, params, t: evolve_exact([psi, psi], params, [1.0, t]),
        branch_states,
    ],
    ids=["evolve_exact", "evolve_exact-row", "branch_states"],
)
def test_negative_time_is_rejected(psi0, params, evolve):
    with pytest.raises(NegativeTime, match=r"t must be finite and >= 0, got -0\.1$"):
        evolve(psi0, params, -0.1)


@pytest.mark.parametrize("route", ["evolve_exact-g0", "branch_states-reference"])
def test_free_flight_preserves_norm_and_momentum(psi0, params, route):
    # free flight at g = 0, and the reference branch T U0 psi0, which also
    # translates by -g t^2/2 without a kick
    t = 1.3
    if route == "evolve_exact-g0":
        out, center = evolve_exact(psi0, replace(params, g=0.0), t), 0.0
    else:
        out, center = branch_states(psi0, params, t)[1], -0.5 * params.g * t * t
    assert out.norm == pytest.approx(1.0, abs=1e-12)
    m = moments(out, params)
    assert m.mean_p == pytest.approx(0.0, abs=1e-10)
    assert m.mean_x == pytest.approx(center, abs=1e-10)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
@pytest.mark.parametrize(
    "name, evolve",
    [
        ("evolve_exact", evolve_exact),
        ("shift_packet", lambda psi, params, t: shift_packet(psi, t)),
        (
            "evolve_split_step",
            lambda psi, params, t: evolve_split_step(psi, params, t, SolverConfig(8)),
        ),
    ],
    ids=["evolve_exact", "shift_packet", "evolve_split_step"],
)
def test_non_finite_start_state_is_refused_by_row_and_node(
    psi0, params, name, evolve, value
):
    amp = np.array(psi0.amp)
    amp[100] = value
    bad = WavePacket(psi0.grid, amp)
    with pytest.raises(NonFiniteState) as info:
        evolve(bad, params, 1.0)
    assert str(info.value) == f"{name} start state: non-finite amplitude at node 100"
    with pytest.raises(NonFiniteState, match="in row 1 at node 100$"):
        evolve([psi0, bad], params, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_apply_global_phase_refuses_a_non_finite_state(psi0, value):
    # returned the state with nan+nanj at node 100
    amp = np.array(psi0.amp)
    amp[100] = value
    with pytest.raises(NonFiniteState) as info:
        apply_global_phase(WavePacket(psi0.grid, amp), 0.3)
    assert str(info.value) == (
        "apply_global_phase start state: non-finite amplitude at node 100"
    )


@pytest.mark.parametrize(
    "segments", [(), ((1.0, 0.5), (0.0, 0.5))], ids=["empty", "two-segment"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_evolve_piecewise_refuses_a_non_finite_start_state_under_its_own_name(
    psi0, params, count_calls, segments, value
):
    # the empty schedule returned the packet unchanged, and a non-empty one
    # named "evolve_exact start state ... in row 0"
    steps = count_calls(analytic, "evolve_exact")
    amp = np.array(psi0.amp)
    amp[100] = value
    with pytest.raises(NonFiniteState) as info:
        evolve_piecewise(WavePacket(psi0.grid, amp), params, AccelSchedule(segments))
    assert str(info.value) == (
        "evolve_piecewise start state: non-finite amplitude at node 100"
    )
    assert steps == []


def test_shift_packet_moves_the_center(grid, params):
    psi = make_gaussian(grid, 1.0, 0.5, 1.0, params)
    # amp(x) -> amp(x + a) carries the peak from x0 to x0 - a
    out = shift_packet(psi, 3.0)
    m = moments(out, params)
    assert m.mean_x == pytest.approx(-2.0, abs=1e-9)
    assert m.mean_p == pytest.approx(0.5, abs=1e-9)


def test_global_phase_changes_overlap_argument_only(psi0, params):
    out = apply_global_phase(psi0, 0.8)
    z = overlap(psi0, out)
    assert abs(z) == pytest.approx(1.0, abs=1e-12)
    assert math.atan2(z.imag, z.real) == pytest.approx(0.8, abs=1e-12)
    ma, mb = moments(out, params), moments(psi0, params)
    assert ma.mean_x == pytest.approx(mb.mean_x, abs=1e-12)
    assert ma.sigma_x == pytest.approx(mb.sigma_x, abs=1e-12)
    assert ma.mean_p == pytest.approx(mb.mean_p, abs=1e-12)


def test_evolve_exact_canonical_moments(psi0, params):
    # from rest at the origin: mean_x = -g t^2/2, mean_p = -m g t
    out = evolve_exact(psi0, params, 1.0)
    m = moments(out, params)
    assert m.mean_x == pytest.approx(-0.5, abs=1e-9)
    assert m.mean_p == pytest.approx(-1.0, abs=1e-9)
    assert m.sigma_x == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-9)
    assert out.norm == pytest.approx(1.0, abs=1e-12)


def test_evolve_exact_matches_drifting_frame(grid, params):
    # general initial data: means must follow the classical fall
    psi = make_gaussian(grid, -1.0, 1.5, 0.8, params)
    t = 0.9
    m = moments(evolve_exact(psi, params, t), params)
    assert m.mean_x == pytest.approx(-1.0 + 1.5 * t - 0.5 * t * t, abs=1e-9)
    assert m.mean_p == pytest.approx(1.5 - t, abs=1e-9)


def test_evolve_exact_spread_is_g_independent(psi0, params):
    t = 1.7
    sig_g = moments(evolve_exact(psi0, params, t), params).sigma_x
    free = PhysicalParams(hbar=1.0, m=1.0, g=0.0, c=10.0)
    sig_0 = moments(evolve_exact(psi0, free, t), params).sigma_x
    assert sig_g == pytest.approx(sig_0, abs=1e-12)


def test_evolve_exact_zero_time_is_identity(psi0, params):
    assert l2_distance(evolve_exact(psi0, params, 0.0), psi0) < 1e-14


def test_evolve_exact_composes_in_time(psi0, params):
    # U(t1 + t2) = U(t2) U(t1), including all phase factors
    one = evolve_exact(psi0, params, 1.4)
    two = evolve_exact(evolve_exact(psi0, params, 0.9), params, 0.5)
    assert l2_distance(one, two) < 1e-12


def test_evolve_piecewise_single_segment_matches_exact(psi0, params):
    sched = AccelSchedule(((params.g, 1.0),))
    a = evolve_piecewise(psi0, params, sched)
    b = evolve_exact(psi0, params, 1.0)
    assert l2_distance(a, b) < 1e-13


def test_evolve_piecewise_reports_failing_segment(psi0, params):
    # second segment pushes the packet off the grid
    sched = AccelSchedule(((1.0, 0.5), (1.0, 8.0)))
    with pytest.raises(GridOverflow, match="segment 1"):
        evolve_piecewise(psi0, params, sched)


def test_piecewise_overflow_is_labelled_like_a_scan_overflow(psi0, params):
    # one relabel site: "<label>, segment i (g=..., duration=...): <cause>"
    sched = AccelSchedule(((1.0, 0.5), (1.0, 8.0)))
    with pytest.raises(GridOverflow) as info:
        evolve_piecewise(psi0, params, sched)
    assert str(info.value).startswith(
        "schedule, segment 1 (g=1.0, duration=8.0): evolve_exact: "
    )


def test_piecewise_non_finite_segment_scalar_is_labelled_like_an_overflow(
    psi0, params
):
    # the second segment's shift g t^2/2 overflows; the message named row 0
    # of evolve_exact's stack instead of the segment
    sched = AccelSchedule(((1.0, 0.5), (1.0, 1e200)))
    with pytest.raises(NonFiniteState) as info:
        evolve_piecewise(psi0, params, sched)
    assert str(info.value) == (
        "schedule, segment 1 (g=1.0, duration=1e+200): evolve_exact: "
        "result shift=inf is not finite"
    )
    assert info.value.row is None


def test_schedule_duration_validation():
    with pytest.raises(ValueError):
        AccelSchedule(((1.0, 0.0),))
    with pytest.raises(ValueError):
        AccelSchedule(((1.0, -0.5),))
    for segment, match in [
        ((math.nan, 0.5), "segment 0: g must be finite, got nan"),
        ((math.inf, 0.5), "segment 0: g must be finite, got inf"),
        ((1.0, math.inf), "segment 0: duration must be positive and finite, got inf"),
        ((1.0, math.nan), "segment 0: duration must be positive and finite, got nan"),
    ]:
        with pytest.raises(ValueError, match=match):
            AccelSchedule((segment,))
    sched = AccelSchedule(((1.0, 0.5), (-2.0, 0.25)))
    assert sched.total_duration == pytest.approx(0.75)


@pytest.mark.parametrize("theta", [math.nan, math.inf], ids=["nan", "inf"])
def test_global_phase_refuses_a_non_finite_angle(psi0, theta):
    # returned an all-NaN state, for inf after a RuntimeWarning
    with pytest.raises(
        NonFiniteState, match=rf"^apply_global_phase: theta={theta} is not finite$"
    ):
        apply_global_phase(psi0, theta)


def test_evolve_exact_overflow_on_long_fall(psi0, params):
    # the packet reaches x ~ -12.5 at t = 5 and leaks into the margin band
    with pytest.raises(GridOverflow):
        evolve_exact(psi0, params, 5.0)


def test_factorization_order_matters(psi0, params, free_flight):
    # dropping the global cubic phase changes the state by exactly that phase
    t = 1.0
    full = evolve_exact(psi0, params, t)
    flown = free_flight(shift_packet(psi0, 0.5 * t * t), params, t)
    kick = np.exp(-1j * params.m * params.g * t * psi0.grid.x / params.hbar)
    partial = WavePacket(psi0.grid, flown * kick)
    z = overlap(partial, full)
    assert abs(z) == pytest.approx(1.0, abs=1e-12)
    assert math.atan2(z.imag, z.real) == pytest.approx(-1.0 / 6.0, abs=1e-12)


CANONICAL = PhysicalParams()
STARTS = [
    make_gaussian(Grid(-20.0, 20.0, 256), x0, p0, sigma0, CANONICAL)
    for x0, p0, sigma0 in ((0.0, 0.0, 1.0), (-1.0, 0.5, 1.3), (0.7, -0.3, 0.9))
]
# g = 0, g = -0.0 and t = 0 are drawn on their own: they make factors of
# unit phase, and 0.0 and -0.0 have different bits, so both are drawn.
G_VALUES = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))
T_VALUES = st.one_of(st.just(0.0), st.floats(0.0, 1.5))
# Rows are drawn from a small pool, so (start, g, t) rows repeat.
ROWS = st.lists(
    st.tuples(st.sampled_from(STARTS), G_VALUES, T_VALUES), min_size=1, max_size=6
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))


@given(ROWS)
def test_batched_exact_rows_equal_single_calls(rows):
    # bytes, not np.array_equal, which takes -0.0 for 0.0
    starts = [psi for psi, _, _ in rows]
    pars = [replace(CANONICAL, g=g) for _, g, _ in rows]
    times = [t for _, _, t in rows]
    batch = evolve_exact(starts, pars, times)
    assert len(batch) == len(rows)
    for psi, p, t, row in zip(starts, pars, times, batch):
        assert row.amp.tobytes() == evolve_exact(psi, p, t).amp.tobytes()
    # the shift stage alone, over the same rows: repeated (start, shift)
    # rows are each phased on their own, with the single call's bits
    shifts = [0.5 * g * t * t for _, g, t in rows]
    moved = shift_packet(starts, shifts)
    assert len(moved) == len(rows)
    for psi, a, row in zip(starts, shifts, moved):
        assert row.amp.tobytes() == shift_packet(psi, a).amp.tobytes()


# Schedules of 1 to 4 segments short enough to stay clear of the guard band;
# g = 0.0 and g = -0.0 are drawn on their own, as in G_VALUES.
SCHEDULES = st.lists(
    st.tuples(G_VALUES, st.floats(0.05, 0.5)), min_size=1, max_size=4
).map(AccelSchedule)


def _chain(psi, schedule):
    """The schedule as single evolve_exact calls, each with its segment's g."""
    for g, duration in schedule.segments:
        psi = evolve_exact(psi, replace(CANONICAL, g=g), duration)
    return psi


@given(st.sampled_from(STARTS), SCHEDULES)
@example(STARTS[1], AccelSchedule(((0.0, 0.3), (-0.0, 0.2), (1.0, 0.4))))
def test_piecewise_equals_a_chain_of_single_exact_calls(psi, schedule):
    # bytes, not np.array_equal, which takes -0.0 for 0.0
    out = evolve_piecewise(psi, CANONICAL, schedule)
    assert out.amp.tobytes() == _chain(psi, schedule).amp.tobytes()


@given(st.sampled_from(STARTS), SCHEDULES, SCHEDULES)
@example(
    STARTS[0],
    AccelSchedule(((0.0, 0.5), (1.0, 0.25))),
    AccelSchedule(((-0.0, 0.5), (-0.0, 0.25))),
)
def test_branch_states_of_schedules_equal_their_chains(psi, accelerated, reference):
    # the two branches run through one batched call per segment index, and
    # each must get its own segment's g, a 0.0 and a -0.0 included
    total = accelerated.total_duration
    scale = total / reference.total_duration
    reference = AccelSchedule(tuple((g, d * scale) for g, d in reference.segments))
    scheme = BranchSchedules(accelerated, reference)
    acc, ref = branch_states(psi, CANONICAL, total, scheme)
    assert acc.amp.tobytes() == _chain(psi, accelerated).amp.tobytes()
    assert ref.amp.tobytes() == _chain(psi, reference).amp.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


# The k-space phases run np.exp on k_0 .. k_{n/2} only and mirror the rest.
# That is exact because fftfreq gives k_{-j} = -k_j to the bit, e^{+-0 + i
# theta} has the same bits for either zero and sin is odd; a zero angle
# keeps the sign its own node gives it.  t and a of 0.0 and -0.0, and
# angles that underflow to zero, are drawn on their own.
@given(
    n=st.sampled_from([2**p for p in range(3, 13)]),
    bounds=st.tuples(FINITE, FINITE),
    hbar=POSITIVE,
    m=POSITIVE,
    t=st.one_of(st.just(0.0), st.just(-0.0), st.just(5e-324), POSITIVE),
    a=st.one_of(st.just(0.0), st.just(-0.0), st.just(5e-324), st.just(-5e-324), FINITE),
)
@example(n=64, bounds=(-20.0, 20.0), hbar=1.0, m=1.0, t=0.0, a=-0.0)
@example(n=64, bounds=(-20.0, 20.0), hbar=1.0, m=1.0, t=1e-320, a=-5e-324)
def test_half_spectrum_phases_equal_the_full_spectrum_bit_for_bit(
    n, bounds, hbar, m, t, a
):
    try:
        grid = Grid(*bounds, n)
    except ValueError:
        assume(False)
    # Grid refuses a span near the float floor, whose dx is 0 or k infinite
    assert grid.dx > 0
    assert np.isfinite(grid.k).all()
    k_max = float(np.abs(grid.k).max())
    # the entry points refuse a phase whose largest angle is not finite
    assume(math.isfinite(analytic._free_angle(hbar, m, t, k_max)))
    assume(math.isfinite(analytic._shift_angle(a, k_max)))
    free = np.exp(-0.5j * hbar * t * grid.k * grid.k / m)
    shift = np.exp(1j * grid.k * a)
    assert np.array_equal(_bits(analytic._free_phase(grid, hbar, m, t)), _bits(free))
    assert np.array_equal(_bits(analytic._shift_phase(grid, a)), _bits(shift))


# The kick runs np.exp on x_{n/2} .. x_{n-1} and x_0 only, and mirrors the
# rest, when grid.x is antisymmetric about x_{n/2} to the bit.  Bounds
# +-k 2^e are, so they must take the mirror; drawn finite bounds mostly are
# not, and take the full-node path.  Slopes of 0.0, -0.0 and +-5e-324, whose
# angles are or underflow to zeros of either sign, and large slopes are
# drawn on their own.  The row is 1 - 0j, which keeps the sign of a zero
# imaginary part through the kick's multiply, so it ends up with the
# phase's bits.
MIRRORED_BOUNDS = st.builds(
    lambda k, e: ((-k * 2.0**e, k * 2.0**e), True),
    st.integers(1, 2**20),
    st.integers(-30, 30),
)
OTHER_BOUNDS = st.tuples(st.tuples(FINITE, FINITE), st.just(False))
EDGE_SLOPES = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)


@given(
    n=st.sampled_from([2**p for p in range(3, 13)]),
    bounds=st.one_of(MIRRORED_BOUNDS, OTHER_BOUNDS),
    hbar=POSITIVE,
    slope=st.one_of(*map(st.just, EDGE_SLOPES), FINITE),
)
@example(n=64, bounds=((-20.0, 20.0), True), hbar=1.0, slope=0.0)
@example(n=64, bounds=((-20.0, 20.0), True), hbar=1.0, slope=-0.0)
@example(n=64, bounds=((-20.0, 20.0), True), hbar=1.0, slope=-5e-324)
@example(n=1024, bounds=((-20.0, 20.0), True), hbar=1.0, slope=-1.25)
def test_mirrored_kick_equals_the_full_node_kick_bit_for_bit(n, bounds, hbar, slope):
    (x_min, x_max), mirrored = bounds
    try:
        grid = Grid(x_min, x_max, n)
    except ValueError:
        assume(False)
    if mirrored:
        assert analytic._x_fft(grid) is not None
    # the entry points refuse a kick whose largest angle is not finite
    assume(math.isfinite(analytic._kick_angle(hbar, slope, float(np.abs(grid.x).max()))))
    amp = np.full((1, n), complex(1.0, -0.0))
    analytic._kick(amp, grid, hbar, [slope])
    assert np.array_equal(_bits(amp[0]), _bits(np.exp(-1j * slope * grid.x / hbar)))


def test_rows_of_a_stack_above_256_kib_equal_single_calls():
    # 40 rows at n = 1024 make a 640 KiB stack, past the size at which numpy
    # reuses a temporary operand; a multiply written with the phase on the
    # left would then round some rows differently
    grid = Grid(-20.0, 20.0, 1024)
    psi = make_gaussian(grid, 0.3, 0.2, 1.0, CANONICAL)
    gs = [0.0] + list(np.linspace(-1.5, 1.5, 39))
    ts = [0.0] + list(np.linspace(0.05, 1.2, 39))
    pars = [replace(CANONICAL, g=float(g)) for g in gs]
    batch = evolve_exact(psi, pars, ts)
    shifted = shift_packet(batch, gs)
    for p, t, g, row, moved in zip(pars, ts, gs, batch, shifted):
        single = evolve_exact(psi, p, t)
        assert row.amp.tobytes() == single.amp.tobytes()
        assert moved.amp.tobytes() == shift_packet(single, g).amp.tobytes()


def test_batched_exact_rows_make_one_forward_transform_each(fft_rows):
    # Two start states over five rows, rows 0 and 3 alike: every row is
    # computed on its own, alike rows included.  Forward rows: one per row,
    # the fall staying in k-space.  Inverse rows: one per row for the
    # shift-stage margin check, and one per row after free flight.
    a, b = STARTS[:2]
    rows = [(a, 1.0, 0.5), (a, 0.0, 0.5), (b, 1.0, 0.5), (a, 1.0, 0.5), (b, -0.0, 0.7)]
    out = evolve_exact(
        [psi for psi, _, _ in rows],
        [replace(CANONICAL, g=g) for _, g, _ in rows],
        [t for _, _, t in rows],
    )
    assert len(out) == len(rows)
    assert fft_rows == {"fft": len(rows), "ifft": 2 * len(rows)}


def test_batch_broadcasts_single_values_and_returns_a_list(psi0, params):
    assert isinstance(evolve_exact([psi0], params, 1.0), list)
    assert evolve_exact(psi0, params, []) == []
    with pytest.raises(ValueError, match="differ in length"):
        evolve_exact([psi0, psi0], params, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="share hbar and m"):
        evolve_exact(psi0, [params, replace(params, m=2.0)], 1.0)


def test_batched_overflow_names_the_offending_row(psi0, params):
    # t = 8 carries the middle row's packet 32 units down a 40-unit grid
    with pytest.raises(GridOverflow, match="in row 1 exceeds") as info:
        evolve_exact(psi0, params, [1.0, 8.0, 1.0])
    assert info.value.row == 1
    with pytest.raises(GridOverflow) as single:
        evolve_exact(psi0, params, 8.0)
    assert "in row" not in str(single.value)


@pytest.mark.parametrize("g, t", [(0.0, 1e8), (1.0, 7.0)], ids=["free-flight", "shift"])
def test_evolve_exact_margin_failures_name_evolve_exact(psi0, params, g, t):
    with pytest.raises(GridOverflow, match="^evolve_exact: boundary amplitude"):
        evolve_exact(psi0, replace(params, g=g), t)


def test_shift_overflow_names_the_callers_first_row(psi0, params):
    # t = 6 shifts the packet 18 units down, onto the guard band, in the shift
    # stage.  Every row starts from the same psi0 object, and the refusal
    # names the caller's first offending row, 2.
    with pytest.raises(GridOverflow) as info:
        evolve_exact(psi0, params, [1.0, 1.0, 6.0, 6.0])
    assert str(info.value).startswith("evolve_exact: ")
    assert " in row 2 exceeds" in str(info.value)
    assert info.value.row == 2
    # two alike rows: the caller's first, row 0, is named
    with pytest.raises(GridOverflow, match="in row 0 exceeds") as info:
        evolve_exact(psi0, params, [6.0, 6.0])
    assert info.value.row == 0
    with pytest.raises(GridOverflow) as info:
        shift_packet([psi0, psi0, psi0], [1.0, 1.0, 18.0])
    assert str(info.value).startswith("shift_packet: ")
    assert " in row 2 exceeds" in str(info.value)
    assert info.value.row == 2


def test_non_finite_start_state_names_the_callers_first_row(psi0, params):
    other = make_gaussian(psi0.grid, 0.5, 0.0, 1.0, params)
    amp = np.array(psi0.amp)
    amp[100] = math.nan
    bad = WavePacket(psi0.grid, amp)
    # the caller's first row holding bad is 4, the row the refusal names
    stack = [psi0, other, psi0, other, bad, bad]
    for call, name in [
        (lambda: evolve_exact(stack, params, 1.0), "evolve_exact"),
        (lambda: shift_packet(stack, 1.0), "shift_packet"),
    ]:
        with pytest.raises(NonFiniteState) as info:
            call()
        assert str(info.value) == (
            f"{name} start state: non-finite amplitude in row 4 at node 100"
        )
