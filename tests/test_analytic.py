"""Factored exact propagator: moments, composition, piecewise schedules."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavefall import (
    AccelSchedule,
    Grid,
    GridOverflow,
    NegativeTime,
    NonFiniteState,
    PhysicalParams,
    SolverConfig,
    WavePacket,
    apply_global_phase,
    branch_states,
    evolve_exact,
    evolve_piecewise,
    evolve_split_step,
    free_evolve,
    l2_distance,
    make_gaussian,
    moments,
    overlap,
    shift_packet,
)


def test_free_evolve_preserves_norm_and_momentum(psi0, params):
    out = free_evolve(psi0, params, 1.3)
    assert out.norm == pytest.approx(1.0, abs=1e-12)
    m = moments(out, params)
    assert m.mean_p == pytest.approx(0.0, abs=1e-10)
    assert m.mean_x == pytest.approx(0.0, abs=1e-10)


def test_free_evolve_rejects_negative_time(psi0, params):
    with pytest.raises(NegativeTime):
        free_evolve(psi0, params, -0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "evolve",
    [
        free_evolve,
        evolve_exact,
        lambda psi, params, t: evolve_split_step(psi, params, t, SolverConfig(8)),
        branch_states,
    ],
    ids=["free_evolve", "evolve_exact", "evolve_split_step", "branch_states"],
)
def test_non_finite_time_is_rejected(psi0, params, evolve, t):
    with pytest.raises(NegativeTime, match="finite"):
        evolve(psi0, params, t)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
@pytest.mark.parametrize(
    "name, evolve",
    [
        ("free_evolve", free_evolve),
        ("evolve_exact", evolve_exact),
        ("shift_packet", lambda psi, params, t: shift_packet(psi, t)),
        (
            "evolve_split_step",
            lambda psi, params, t: evolve_split_step(psi, params, t, SolverConfig(8)),
        ),
    ],
    ids=["free_evolve", "evolve_exact", "shift_packet", "evolve_split_step"],
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
    if name != "free_evolve":
        with pytest.raises(NonFiniteState, match="in row 1 at node 100$"):
            evolve([psi0, bad], params, 1.0)


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
        "schedule, segment 1 (g=1.0, duration=8.0): free_evolve: "
    )


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


def test_evolve_exact_overflow_on_long_fall(psi0, params):
    # the packet reaches x ~ -12.5 at t = 5 and leaks into the margin band
    with pytest.raises(GridOverflow):
        evolve_exact(psi0, params, 5.0)


def test_factorization_order_matters(psi0, params):
    # dropping the global cubic phase changes the state by exactly that phase
    t = 1.0
    full = evolve_exact(psi0, params, t)
    flown = free_evolve(shift_packet(psi0, 0.5 * t * t), params, t)
    kick = np.exp(-1j * params.m * params.g * t * psi0.grid.x / params.hbar)
    partial = WavePacket(psi0.grid, flown.amp * kick)
    z = overlap(partial, full)
    assert abs(z) == pytest.approx(1.0, abs=1e-12)
    assert math.atan2(z.imag, z.real) == pytest.approx(-1.0 / 6.0, abs=1e-12)


CANONICAL = PhysicalParams()
STARTS = [
    make_gaussian(Grid(-20.0, 20.0, 256), x0, p0, sigma0, CANONICAL)
    for x0, p0, sigma0 in ((0.0, 0.0, 1.0), (-1.0, 0.5, 1.3), (0.7, -0.3, 0.9))
]
# g = 0, g = -0.0 and t = 0 are drawn on their own: they make factors of
# unit phase, and 0.0 and -0.0 have different bits, so must not share.
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


def test_shift_overflow_names_the_callers_row_after_sharing(psi0, params):
    # t = 6 shifts the packet 18 units down, onto the guard band, in the shift
    # stage.  Rows 0 and 1 share one shift-stage row, so the shared stack's
    # offending row is 1, while the caller's first offending row is 2.
    with pytest.raises(GridOverflow) as info:
        evolve_exact(psi0, params, [1.0, 1.0, 6.0, 6.0])
    assert str(info.value).startswith("shift_packet: ")
    assert " in row 2 exceeds" in str(info.value)
    assert info.value.row == 2
    # two rows share one shift-stage row: the caller's row 0 is still named
    with pytest.raises(GridOverflow, match="in row 0 exceeds") as info:
        evolve_exact(psi0, params, [6.0, 6.0])
    assert info.value.row == 0
    with pytest.raises(GridOverflow) as info:
        shift_packet([psi0, psi0, psi0], [1.0, 1.0, 18.0])
    assert " in row 2 exceeds" in str(info.value)
    assert info.value.row == 2


def test_non_finite_start_state_names_the_callers_row_after_sharing(psi0, params):
    other = make_gaussian(psi0.grid, 0.5, 0.0, 1.0, params)
    amp = np.array(psi0.amp)
    amp[100] = math.nan
    bad = WavePacket(psi0.grid, amp)
    # distinct start states are [psi0, other, bad]: bad is shared row 2, but
    # the caller's first row holding it is 4
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
