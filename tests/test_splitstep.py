"""Split-step solver: accuracy, the Strang phase, boundary guard, batches."""

import cmath
import math
import re
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, reject
from hypothesis import strategies as st

from wavefall import splitstep
from wavefall.core import _guard_index
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
    # is made mid-run: 1e308 on two adjacent nodes overflows the first
    # forward FFT, and the inverse then leaves every node NaN.
    amp = np.array(psi0.amp)
    amp[psi0.grid.n // 2 : psi0.grid.n // 2 + 2] = 1e308
    bad = WavePacket(psi0.grid, amp)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridOverflow, match=r"amplitude nan .* step 1/8"):
            evolve_split_step(bad, params, 1.0, SolverConfig(8))
        with pytest.raises(GridOverflow, match=r"row 1 at step 1/8"):
            evolve_split_step([psi0, bad], params, 1.0, SolverConfig(8))


def test_a_single_huge_spike_is_refused_with_a_finite_amplitude(psi0, params):
    # One 1e308 node transforms to 1e308-sized modes without overflow, and
    # the unscaled inverse's 1/n, folded into the kinetic phase, is applied
    # before the sum, so the spread-out spike stays finite on every node.
    amp = np.array(psi0.amp)
    amp[psi0.grid.n // 2] = 1e308
    bad = WavePacket(psi0.grid, amp)
    with pytest.raises(GridOverflow, match=r"step 1/8") as info:
        evolve_split_step(bad, params, 1.0, SolverConfig(8))
    found = re.search(r"boundary amplitude (\S+) ", str(info.value)).group(1)
    assert math.isfinite(float(found))


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


def _reference_stack(psis, pars, times, counts):
    """The kernel's longest-first stack and phases, the kinetic phase unscaled."""
    grid, hbar, m = psis[0].grid, pars[0].hbar, pars[0].m
    dts = [ti / ni for ti, ni in zip(times, counts)]
    order = sorted(range(len(counts)), key=lambda i: -counts[i])
    amp = np.array([psis[i].amp for i in order])
    dt = np.array([dts[i] for i in order])[:, None]
    kick = np.array([-0.5j * pars[i].m * pars[i].g for i in order])[:, None]
    half_v = np.exp(kick * grid.x * dt / hbar)
    kinetic = np.exp(-0.5j * hbar * grid.k**2 * dt / m)
    return dts, order, amp, half_v, kinetic


def _reference_strang_rows(
    psis, pars, times, counts, batched, guard=splitstep._check_margin
):
    """The fused Strang loop with numpy's own inverse normalization, rows in caller order.

    This is _strang_rows' loop with an unscaled kinetic phase and the
    default-normalized np.fft.ifft, which applies 1/n itself: one opening
    half-kick, then per step the FFT pair, the margin check and the full
    kick v^2, a row's last step taking its closing half-kick from half_v
    itself.  It stacks the rows longest-first and checks the margin after
    every step as the kernel does, so a refusal carries the kernel's message.
    """
    dts, order, amp, half_v, kinetic = _reference_stack(psis, pars, times, counts)
    full_v = half_v * half_v
    step, running = 0, len(order)

    def at(row):
        return step, counts[row], step * dts[row]

    amp *= half_v
    while running:
        last = counts[order[running - 1]]
        a = amp[:running]
        for step in range(step + 1, last + 1):
            np.fft.fft(a, out=a)
            a *= kinetic[:running]
            np.fft.ifft(a, out=a)
            guard(a, "evolve_split_step", batched, order, at)
            if step < last:
                a *= full_v[:running]
        done = running
        while running and counts[order[running - 1]] == last:
            running -= 1
        amp[running:done] *= half_v[running:done]
        amp[:running] *= full_v[:running]
    return [amp[j] for j in np.argsort(order)]


def _unfused_strang_rows(
    psis, pars, times, counts, batched, guard=splitstep._check_margin
):
    """The unfused Strang loop: half-kick, FFT pair, half-kick, margin check.

    Three phase multiplies a step, as the kernel made them before its
    adjacent half-kicks were fused, with the inverse and its 1/n as in
    _reference_strang_rows.
    """
    dts, order, amp, half_v, kinetic = _reference_stack(psis, pars, times, counts)
    step, running = 0, len(order)

    def at(row):
        return step, counts[row], step * dts[row]

    while running:
        last = counts[order[running - 1]]
        a, v, kin = amp[:running], half_v[:running], kinetic[:running]
        for step in range(step + 1, last + 1):
            a *= v
            np.fft.fft(a, out=a)
            a *= kin
            np.fft.ifft(a, out=a)
            a *= v
            guard(a, "evolve_split_step", batched, order, at)
        while running and counts[order[running - 1]] == last:
            running -= 1
    return [amp[j] for j in np.argsort(order)]


def _outcome(run):
    """The amplitude bytes of each row a run returns, or its refusal's message."""
    try:
        return [row.tobytes() for row in run()]
    except GridOverflow as err:
        return str(err)


def _zero_or_at_least(low, high):
    """0.0, or a float of either sign whose magnitude is in [low, high]."""
    return st.one_of(st.just(0.0), st.floats(low, high), st.floats(-high, -low))


# One row: (x0, p0, sigma0, g, t, count).  The start is a Gaussian sampled on
# the nodes, so n = 8 is allowed; make_gaussian would refuse it unresolved.
# p0, g and t are zero or at least 1e-3 in magnitude: a tiny nonzero one
# leaves a real or imaginary part of the state tiny at any scale, where the
# subnormal edge of the module docstring applies.
_SCALED_ROW = st.tuples(
    st.floats(-4.0, 4.0),
    _zero_or_at_least(1e-3, 1.5),
    st.floats(0.5, 2.0),
    _zero_or_at_least(1e-3, 3.0),
    st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    st.integers(1, 16),
)


@given(
    n=st.sampled_from([2**j for j in range(3, 11)]),
    rows=st.lists(_SCALED_ROW, min_size=1, max_size=4),
    s=st.floats(-250.0, 0.0),
)
def test_the_folded_inverse_normalization_keeps_every_bit(n, rows, s):
    # Grid forces n to a power of two, so 1/n is exact and moving it from the
    # inverse FFT into the kinetic phase moves no bit of a normal value.  Each
    # start's largest amplitude is 10^s, and its real and imaginary parts
    # below n 2^-970 are zeroed.  Near the subnormal range bits do move (the
    # splitstep module docstring): with those parts kept from s = -249, and
    # with them zeroed at s = -285.
    grid = Grid(-20.0, 20.0, n)
    psis = []
    for x0, p0, sigma0, *_ in rows:
        amp = np.exp(-(((grid.x - x0) / (2.0 * sigma0)) ** 2) + 1j * p0 * grid.x)
        amp *= 10.0**s / np.abs(amp).max()
        parts = amp.view(np.float64)
        parts[np.abs(parts) < n * 2.0**-970] = 0.0
        psis.append(WavePacket(grid, amp))
    pars = [PhysicalParams(g=g) for *_, g, _, _ in rows]
    times = [t for *_, t, _ in rows]
    counts = [count for *_, count in rows]
    single = _outcome(
        lambda: [evolve_split_step(psis[0], pars[0], times[0], SolverConfig(counts[0])).amp]
    )
    assert single == _outcome(
        lambda: _reference_strang_rows(psis[:1], pars[:1], times[:1], counts[:1], False)
    )
    mixed = _outcome(
        lambda: [row.amp for row in splitstep._strang_rows(psis, pars, times, counts)]
    )
    assert mixed == _outcome(
        lambda: _reference_strang_rows(psis, pars, times, counts, True)
    )


def _recorded(loop, psis, pars, times, counts):
    """A reference loop's batched rows, or None and its refusal.

    The refusal is (message, row, step, A), A the refused row's largest
    guarded |z| read from the stack itself, not from the message's four
    digits.
    """
    worst = []

    def guard(a, *args):
        worst.append(np.abs(a.take(_guard_index(a.shape[-1]), axis=-1)).max(axis=-1))
        splitstep._check_margin(a, *args)

    try:
        return loop(psis, pars, times, counts, True, guard), None
    except GridOverflow as err:
        step = int(re.search(r"step (\d+)/", str(err)).group(1))
        return None, (str(err), err.row, step, worst[-1][~(worst[-1] < 1e-10)][0])


@given(
    n=st.sampled_from([2**j for j in range(3, 11)]),
    rows=st.lists(_SCALED_ROW, min_size=1, max_size=4),
)
def test_the_fused_kicks_move_each_row_only_by_rounding(n, rows):
    # Fusing a step's closing half-kick with the next one's opening one
    # changes rounding only: from unit-norm starts each row lands within its
    # _strang_tolerance, in L2, of the unfused loop's.  Both loops refuse with
    # the same row and step, except where a node is decided differently; a
    # node moves by at most the L2 distance over sqrt(dx), so the refused
    # amplitude must then be that close to 1e-10.
    grid = Grid(-20.0, 20.0, n)
    psis = []
    for x0, p0, sigma0, *_ in rows:
        amp = np.exp(-(((grid.x - x0) / (2.0 * sigma0)) ** 2) + 1j * p0 * grid.x)
        amp /= math.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx)
        psis.append(WavePacket(grid, amp))
    pars = [PhysicalParams(g=g) for *_, g, _, _ in rows]
    times = [t for *_, t, _ in rows]
    counts = [count for *_, count in rows]
    tols = [
        splitstep._strang_tolerance(p, t, c, n) for p, t, c in zip(pars, times, counts)
    ]
    fused, fused_refusal = _recorded(_reference_strang_rows, psis, pars, times, counts)
    unfused, unfused_refusal = _recorded(_unfused_strang_rows, psis, pars, times, counts)
    kernel = _outcome(
        lambda: [row.amp for row in splitstep._strang_rows(psis, pars, times, counts)]
    )
    assert kernel == (fused_refusal[0] if fused is None else _outcome(lambda: fused))
    refusals = [r for r in (fused_refusal, unfused_refusal) if r is not None]
    if not refusals:
        for a, b, tol in zip(fused, unfused, tols):
            assert l2_distance(WavePacket(grid, a), WavePacket(grid, b)) <= tol
    elif len(refusals) < 2 or refusals[0][1:3] != refusals[1][1:3]:
        assert any(
            abs(amp - 1e-10) <= tols[row] / math.sqrt(grid.dx)
            for _, row, _, amp in refusals
        )


def test_the_kernels_peak_allocation_is_four_stacks(params):
    # The stack, the half-kick, the kinetic phase and one temporary while a
    # phase is built: the full kick is squared in place over the half-kick,
    # and each closing half-kick is built in its row's dead kinetic phase.
    grid = Grid(-20.0, 20.0, 4096)
    starts = [make_gaussian(grid, x0, 0.0, 1.0, params) for x0 in range(-4, 4)]
    tracemalloc.start()
    try:
        evolve_split_step(starts, params, 1.0, SolverConfig(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.05 * 8 * grid.n * 16
