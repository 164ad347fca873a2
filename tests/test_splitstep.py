"""Split-step solver: accuracy, the Strang phase, boundary guard, batches."""

import cmath
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, reject
from hypothesis import strategies as st

from wavefall import splitstep
from wavefall import (
    Grid,
    GridMismatch,
    GridOverflow,
    NegativeTime,
    NonFiniteState,
    PhysicalParams,
    WavePacket,
    SolverConfig,
    apply_global_phase,
    evolve_exact,
    evolve_split_step,
    l2_distance,
    make_gaussian,
    moments,
    overlap,
)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(0)


@pytest.mark.parametrize("n_steps", [2.5, 8.0, True], ids=["fraction", "float", "bool"])
def test_solver_config_refuses_a_non_integer_count(n_steps):
    with pytest.raises(ValueError, match=f"n_steps must be an integer, got {n_steps!r}"):
        SolverConfig(n_steps)


def test_solver_config_accepts_numpy_integer_counts(psi0, params):
    numpy_count = evolve_split_step(psi0, params, 1.0, SolverConfig(np.int32(4)))
    plain_count = evolve_split_step(psi0, params, 1.0, SolverConfig(4))
    assert numpy_count.amp.tobytes() == plain_count.amp.tobytes()


def test_split_step_matches_exact_at_high_resolution(psi0, params):
    out = evolve_split_step(psi0, params, 1.0, SolverConfig(1024))
    ref = evolve_exact(psi0, params, 1.0)
    assert l2_distance(out, ref) < 1e-6
    assert out.norm == pytest.approx(1.0, abs=1e-12)


def test_split_step_observables_exact_even_at_one_step(psi0, params):
    # the splitting defect for a linear potential is a pure global phase,
    # so every observable is exact at any step count
    m = moments(evolve_split_step(psi0, params, 1.0, SolverConfig(1)), params)
    assert m.mean_x == pytest.approx(-0.5, abs=1e-9)
    assert m.mean_p == pytest.approx(-1.0, abs=1e-9)
    assert m.sigma_x == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-9)


def test_split_step_rejects_negative_time(psi0, params):
    with pytest.raises(NegativeTime):
        evolve_split_step(psi0, params, -1.0, SolverConfig(8))


def test_split_step_zero_time(psi0, params):
    out = evolve_split_step(psi0, params, 0.0, SolverConfig(4))
    assert l2_distance(out, psi0) < 1e-14


def test_boundary_guard_fires_mid_run(grid, params):
    # p0 = 8 drives the packet across the lattice; with t = 4 it would wrap.
    # The guard must fire during the run, naming the offending step.
    psi = make_gaussian(grid, 0.0, 8.0, 1.0, params)
    with pytest.raises(GridOverflow, match=r"step \d+/64"):
        evolve_split_step(psi, params, 4.0, SolverConfig(64))


def test_guard_fires_mid_run_not_at_the_end(grid, params):
    # the margin sits near |x| = 18.1, reached around t = 2.3 of the t = 4
    # run; the reported step must be well before the last one
    psi = make_gaussian(grid, 0.0, 8.0, 1.0, params)
    with pytest.raises(GridOverflow) as info:
        evolve_split_step(psi, params, 4.0, SolverConfig(64))
    step = int(re.search(r"step (\d+)/64", str(info.value)).group(1))
    assert step < 48


def test_nan_amplitude_trips_the_guard(psi0, params):
    # NaN compares False against the margin, so the guard must fail closed.
    # A non-finite start state is refused before the first step, so the NaN
    # is made mid-run: a finite 1e308 spike overflows the first inverse FFT
    # and leaves every node NaN.
    amp = np.array(psi0.amp)
    amp[psi0.grid.n // 2] = 1e308
    bad = WavePacket(psi0.grid, amp)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridOverflow, match=r"amplitude nan .* step 1/8"):
            evolve_split_step(bad, params, 1.0, SolverConfig(8))
        with pytest.raises(GridOverflow, match=r"row 1 at step 1/8"):
            evolve_split_step([psi0, bad], params, 1.0, SolverConfig(8))


def test_guard_runs_at_every_step(grid, psi0, params, count_calls):
    guard = count_calls(splitstep, "_check_margin")
    evolve_split_step([psi0, psi0], params, [1.0, 0.5], SolverConfig(64))
    assert len(guard) == 64
    evolve_split_step(psi0, params, 1.0, SolverConfig(7))
    assert len(guard) == 64 + 7
    # a run that leaves the grid stops at the step whose check fired
    runaway = make_gaussian(grid, 0.0, 8.0, 1.0, params)
    with pytest.raises(GridOverflow) as info:
        evolve_split_step(runaway, params, 4.0, SolverConfig(64))
    step = int(re.search(r"step (\d+)/64", str(info.value)).group(1))
    assert len(guard) == 64 + 7 + step


def test_batched_rows_match_single_calls_bit_for_bit(grid, psi0, params):
    starts = [psi0, make_gaussian(grid, -1.0, 0.5, 1.3, params)] * 2
    pars = [replace(params, g=g) for g in (1.0, 0.0, -0.7, 2.5)]
    times = np.array([1.0, 0.3, 1.7, 0.0])
    batch = evolve_split_step(starts, pars, times, SolverConfig(200))
    assert len(batch) == 4
    for psi, p, t, row in zip(starts, pars, times, batch):
        single = evolve_split_step(psi, p, t, SolverConfig(200))
        assert np.array_equal(row.amp, single.amp)
    # single values broadcast against the sequences; a list of one is a batch
    shared = evolve_split_step(psi0, params, [0.5, 1.0], SolverConfig(64))
    for t, row in zip([0.5, 1.0], shared):
        single = evolve_split_step(psi0, params, t, SolverConfig(64))
        assert np.array_equal(row.amp, single.amp)
    assert isinstance(evolve_split_step([psi0], params, 1.0, SolverConfig(4)), list)


def test_batch_overflow_names_the_offending_row(grid, psi0, params):
    runaway = make_gaussian(grid, 0.0, 8.0, 1.0, params)
    with pytest.raises(GridOverflow) as single:
        evolve_split_step(runaway, params, 4.0, SolverConfig(64))
    with pytest.raises(GridOverflow) as batch:
        evolve_split_step(
            [psi0, runaway, psi0], params, [1.0, 4.0, 2.0], SolverConfig(64)
        )
    where = r"step (\d+/64) \(t=([^)]*)\)"
    assert "in row 1 at step" in str(batch.value)
    assert re.search(where, str(batch.value)).groups() == re.search(
        where, str(single.value)
    ).groups()


@pytest.mark.parametrize(
    "propagate",
    [evolve_exact, partial(evolve_split_step, config=SolverConfig(4))],
    ids=["exact", "split-step"],
)
def test_rows_on_different_grids_raise_grid_mismatch(psi0, params, propagate):
    other_grid = make_gaussian(Grid(-20.0, 20.0, 512), 0.0, 0.0, 1.0, params)
    with pytest.raises(GridMismatch, match="grids differ"):
        propagate([psi0, other_grid], params, 1.0)


def test_batch_rows_must_share_grid_hbar_and_m(grid, psi0, params):
    # The grid case is test_rows_on_different_grids_raise_grid_mismatch.
    cfg = SolverConfig(4)
    for field, value in (("hbar", 2.0), ("m", 3.0)):
        other = replace(params, **{field: value})
        with pytest.raises(ValueError, match="share"):
            evolve_split_step(psi0, [params, other], 1.0, cfg)
    with pytest.raises(ValueError, match="length"):
        evolve_split_step([psi0, psi0], params, [1.0, 2.0, 3.0], cfg)
    with pytest.raises(NegativeTime):
        evolve_split_step(psi0, params, [1.0, -1.0], cfg)
    assert evolve_split_step([], params, 1.0, cfg) == []
    # c plays no part in the solver, so rows may differ in it
    evolve_split_step(psi0, [params, PhysicalParams(c=3.0)], 1.0, cfg)


def _clear_of_band_edges(psi):
    """Whether the unit-norm state is below 1e-12 on the outer 5% of x and of k.

    The domain of _strang_tolerance: on the lattice, [x, p] is a c-number,
    and the Strang defect the global phase phi_N, only for states clear of
    both edges.  The margin guard allows up to 1e-10 in x and nothing
    guards k, so the property states the domain.
    """
    grid = psi.grid
    amp_k = np.fft.fftshift(np.fft.fft(psi.amp)) / np.sqrt(grid.n)
    m = max(1, int(0.05 * grid.n))
    edges = np.abs(np.stack([psi.amp, amp_k]))
    worst = np.maximum(edges[:, :m].max(axis=-1), edges[:, -m:].max(axis=-1))
    return bool(np.all(worst * np.sqrt(grid.dx) < 1e-12))


def _less_strang_phase(psi, params, t, n_steps):
    return apply_global_phase(psi, -splitstep._strang_phase(params, t, n_steps))


def test_strang_phase_closed_form(params):
    assert splitstep._strang_phase(params, 1.0, 64) == 1.0 / (24.0 * 64**2)
    other = PhysicalParams(hbar=0.5, m=2.0, g=-0.7)
    assert splitstep._strang_phase(other, 1.5, 3) == pytest.approx(
        2.0 * 0.49 * 1.5**3 / (24.0 * 0.5 * 9)
    )
    for g in (0.0, -0.0):
        assert splitstep._strang_phase(replace(params, g=g), 1.0, 1) == 0.0


def test_split_step_error_is_second_order(psi0, params):
    # the raw L2 error is |e^{i phi_N} - 1|, so doubling N quarters it
    exact = evolve_exact(psi0, params, 1.0)
    counts = [64, 128, 256, 512]
    errors = [
        l2_distance(evolve_split_step(psi0, params, 1.0, SolverConfig(n)), exact)
        for n in counts
    ]
    for err, nxt in zip(errors, errors[1:]):
        assert math.log2(err / nxt) == pytest.approx(2.0, abs=1e-3)


def test_convergence_error_magnitude_matches_phase_defect(psi0, params):
    # the whole error is the global phase: the raw distance is
    # |e^{i phi_N} - 1| = 2 sin(phi_N / 2), the overlap phase is phi_N, and
    # what is left once it is removed is rounding
    exact = evolve_exact(psi0, params, 1.0)
    for n in (8, 64, 128):
        split = evolve_split_step(psi0, params, 1.0, SolverConfig(n))
        phi = splitstep._strang_phase(params, 1.0, n)
        tol = splitstep._strang_tolerance(params, 1.0, n, psi0.grid.n)
        assert abs(l2_distance(split, exact) - 2.0 * math.sin(0.5 * phi)) < tol
        assert abs(cmath.phase(overlap(exact, split)) - phi) < tol
        assert l2_distance(_less_strang_phase(split, params, 1.0, n), exact) < tol


def test_convergence_flat_at_zero_g(psi0, params):
    # with g = 0 (or -0.0) the splitting is exact: no phase, only rounding
    for g in (0.0, -0.0):
        flat = replace(params, g=g)
        exact = evolve_exact(psi0, flat, 1.0)
        for n in (1, 16, 32, 64):
            split = evolve_split_step(psi0, flat, 1.0, SolverConfig(n))
            tol = splitstep._strang_tolerance(flat, 1.0, n, psi0.grid.n)
            assert l2_distance(split, exact) < tol


@given(
    hbar=st.floats(0.5, 2.0),
    m=st.floats(0.5, 2.0),
    g=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
    t=st.floats(0.0, 2.0),
    x0=st.floats(-4.0, 4.0),
    p0=st.floats(-1.5, 1.5),
    n=st.sampled_from([64, 128, 256, 512, 1024]),
    n_steps=st.integers(1, 512),
)
def test_split_step_less_strang_phase_is_exact_to_rounding(
    hbar, m, g, t, x0, p0, n, n_steps
):
    # sigma0 = 1.4 fits every n here: make_gaussian needs 2 dx = 1.25 at n = 64
    params = PhysicalParams(hbar=hbar, m=m, g=g)
    try:
        psi = make_gaussian(Grid(-20.0, 20.0, n), x0, p0, 1.4, params)
        exact = evolve_exact(psi, params, t)
        split = evolve_split_step(psi, params, t, SolverConfig(n_steps))
    except GridOverflow:
        reject()
    assume(_clear_of_band_edges(psi) and _clear_of_band_edges(exact))
    distance = l2_distance(_less_strang_phase(split, params, t, n_steps), exact)
    assert distance < splitstep._strang_tolerance(params, t, n_steps, n)


# One row of a mixed-count stack: (count, g, t, x0, p0).  A count of 1 and
# the zeros of g are drawn on their own; on WIDE no row nears the margin.
WIDE = Grid(-30.0, 30.0, 256)
_ROW = st.tuples(
    st.one_of(st.just(1), st.integers(1, 40)),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
    st.floats(0.0, 1.5),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.0),
)


@given(
    rows=st.lists(_ROW, min_size=1, max_size=5).flatmap(st.permutations),
    equal_counts=st.booleans(),
)
def test_rows_of_a_mixed_count_stack_equal_single_runs_bit_for_bit(rows, equal_counts):
    counts = [rows[0][0]] * len(rows) if equal_counts else [r[0] for r in rows]
    pars = [PhysicalParams(g=g) for _, g, _, _, _ in rows]
    times = [t for _, _, t, _, _ in rows]
    starts = [make_gaussian(WIDE, x0, p0, 1.0, p) for (*_, x0, p0), p in zip(rows, pars)]
    stacked = splitstep._strang_rows(starts, pars, times, counts)
    assert len(stacked) == len(rows)
    for psi, p, t, n_steps, row in zip(starts, pars, times, counts, stacked):
        single = evolve_split_step(psi, p, t, SolverConfig(n_steps))
        assert np.array_equal(row.amp.view(np.uint64), single.amp.view(np.uint64))


def test_mixed_count_overflow_names_the_callers_row_step_and_time(grid, psi0, params):
    # longest-first, the runaway row 2 sits at stack row 1, behind the
    # 100-step row; the error must name caller row 2 and its own step and time
    runaway = make_gaussian(grid, 0.0, 8.0, 1.0, params)
    with pytest.raises(GridOverflow) as single:
        evolve_split_step(runaway, params, 4.0, SolverConfig(64))
    with pytest.raises(GridOverflow) as mixed:
        splitstep._strang_rows([psi0, psi0, runaway], params, [1.0, 1.0, 4.0], [8, 100, 64])
    where = r"step (\d+/64) \(t=([^)]*)\)"
    assert "in row 2 at step" in str(mixed.value)
    assert mixed.value.row == 2
    assert re.search(where, str(mixed.value)).groups() == re.search(
        where, str(single.value)
    ).groups()


def test_mixed_count_non_finite_start_names_the_callers_row(psi0, params):
    amp = np.array(psi0.amp)
    amp[100] = np.nan
    bad = WavePacket(psi0.grid, amp)
    with pytest.raises(
        NonFiniteState, match=r"start state: non-finite amplitude in row 2 at node 100"
    ):
        splitstep._strang_rows([psi0, psi0, bad], params, 1.0, [8, 16, 32])
