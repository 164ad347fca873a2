"""Two-branch protocol: fringe phase, visibility, unwrapping, schedules."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavefall import (
    BadSigma,
    AccelSchedule,
    BranchSchedules,
    Colocated,
    Grid,
    GridOverflow,
    NegativeTime,
    NonFiniteState,
    PhaseAliasing,
    PhysicalParams,
    SchemeMismatch,
    WavefallError,
    WavePacket,
    branch_states,
    evolve_exact,
    fringe_scan,
    gaussian_visibility,
    make_gaussian,
    moments,
    overlap,
    predicted_phase,
    run_protocol,
    shift_packet,
    unwrap_phases,
)
from wavefall import analytic, core, interferometry, splitstep
from wavefall.config import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# phase(t2) - phase(1) is exactly pi for the canonical fall, the one step
# size the unwrapper must refuse
ALIASING_T2 = (1.0 + 3.0 * math.pi) ** (1.0 / 3.0)


def test_canonical_fringe_at_unit_time(psi0, params):
    rec = run_protocol(psi0, params, 1.0)
    assert rec.phase == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rec.visibility == pytest.approx(math.exp(-0.625), abs=1e-9)
    assert rec.predicted_phase == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rec.predicted_visibility == pytest.approx(math.exp(-0.625), abs=1e-9)


def test_overlap_matches_characteristic_function(psi0, params):
    # for the colocated scheme the overlap is the reference density's
    # characteristic function at the momentum kick, times the cubic phase
    t = 0.8
    rec = run_protocol(psi0, params, t)
    _, ref = branch_states(psi0, params, t)
    g = psi0.grid
    kick = params.m * params.g * t / params.hbar
    char = np.sum(np.abs(ref.amp) ** 2 * np.exp(-1j * kick * g.x)) * g.dx
    oracle = np.exp(-1j * params.m * params.g**2 * t**3 / (6 * params.hbar)) * char
    assert abs(rec.overlap - oracle) < 1e-13


def test_prediction_tracks_measurement_across_times(psi0, params):
    for t in (0.25, 0.75, 1.25):
        rec = run_protocol(psi0, params, t)
        assert rec.phase == pytest.approx(rec.predicted_phase, abs=1e-9)
        assert rec.visibility == pytest.approx(rec.predicted_visibility, abs=1e-9)


@pytest.mark.parametrize("name", ["default.json", "interfere_branches.json"])
def test_predicted_columns_do_not_depend_on_the_backend(name):
    # both schemes predict from psi0's moments alone, so the two backends,
    # whose measured fringes differ, give the same predicted bits
    cfg = load_config(str(CONFIGS / name))
    init, scan = cfg.initial, cfg.interfere
    psi = make_gaussian(cfg.grid, init.x0, init.p0, init.sigma0, cfg.params)
    predicted = [
        [
            (rec.predicted_phase.hex(), rec.predicted_visibility.hex())
            for rec in fringe_scan(
                psi, cfg.params, scan.t_values, scan.scheme, backend, scan.n_steps
            )
        ]
        for backend in ("analytic", "split-step")
    ]
    assert len(predicted[0]) == len(scan.t_values)
    assert predicted[0] == predicted[1]


# Gaussian starts on [-30, 30] whose packet, over both branches, keeps 10
# spreads clear of the margin band at |x| > 27 and 10 momentum spreads below
# half the lattice momentum limit.  Model of the gap between a readout's
# measured fringe z and its predicted columns: z sums |phi|^2 K dx over the
# nodes of a unit-norm density, and each term's phase is rounded by eps
# times its angle, the largest at the packet being the kick's m g t x/hbar,
# the cubic angle, the fall's k g t^2/2 and free flight's hbar k^2 t/(2 m);
# so |dz| <= eps (log2 n + angle).  The split-step fringe adds twice
# _strang_tolerance and carries the Strang phase phi_N.  The visibility gap
# is then at most |dz|, and the phase gap |dz|/|z| plus eps |phase| for the
# predicted angle's own rounding: cancellation, eps sum rho/|z|, so the
# phase bound grows as 1/visibility (a gap of 7.8e-7 was seen at
# visibility 4.6e-11).  Over 6300 draws the worst visibility gap was 0.40
# of its bound and the worst phase gap 0.11.
@settings(max_examples=100)
@given(
    m=st.floats(0.5, 4.0),
    g=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
    x0=st.floats(-2.0, 2.0),
    p0=st.floats(-1.0, 1.0),
    sigma0=st.floats(1.0, 3.0),
    t=st.floats(0.0, 2.0),
    n=st.sampled_from([64, 256, 1024]),
)
def test_predicted_columns_track_the_measured_fringe(m, g, x0, p0, sigma0, t, n):
    params = PhysicalParams(m=m, g=g)
    grid = Grid(-30.0, 30.0, n)
    sigma_p = 0.5 / sigma0
    k_packet = abs(p0) + m * abs(g) * t + 10.0 * sigma_p
    fall = 0.5 * abs(g) * t * t
    spread = math.hypot(sigma0, sigma_p * t / m)
    x_packet = abs(x0) + abs(p0) * t / m + fall + 10.0 * spread
    assume(sigma0 >= 2.0 * grid.dx and x_packet < 27.0)
    assume(k_packet < 0.5 * math.pi / grid.dx)
    angle = (
        m * abs(g) * t * x_packet + m * g * g * t**3 / 6.0 + k_packet * fall
        + k_packet**2 * t / (2.0 * m)
    )
    eps = np.finfo(float).eps
    psi = make_gaussian(grid, x0, p0, sigma0, params)
    for backend, n_steps in (("analytic", 1), ("split-step", 64)):
        (rec,) = fringe_scan(psi, params, [t], backend=backend, n_steps=n_steps)
        dz, phi = eps * (math.log2(n) + angle), 0.0
        if backend == "split-step":
            dz += 2.0 * splitstep._strang_tolerance(params, t, n_steps, n)
            phi = splitstep._strang_phase(params, t, n_steps)
        assert abs(rec.visibility - rec.predicted_visibility) <= dz
        gap = math.remainder(rec.phase - phi - rec.predicted_phase, 2.0 * math.pi)
        bound = dz / rec.predicted_visibility + eps * abs(rec.predicted_phase)
        assert abs(gap) <= bound


def test_split_step_backend_agrees(psi0, params):
    a = run_protocol(psi0, params, 1.0, backend="analytic")
    s = run_protocol(psi0, params, 1.0, backend="split-step", n_steps=2048)
    assert s.phase == pytest.approx(a.phase, abs=1e-5)
    assert s.visibility == pytest.approx(a.visibility, abs=1e-6)


def test_moving_packet_changes_phase_not_visibility(grid, params):
    # launching the packet shifts the readout center, moving the fringe
    # phase through the m g xbar t term; contrast depends only on sigma_t
    psi = make_gaussian(grid, 0.0, 1.0, 1.0, params)
    rec = run_protocol(psi, params, 1.0)
    _, ref = branch_states(psi, params, 1.0)
    xbar = moments(ref, params).mean_x
    assert xbar == pytest.approx(0.5, abs=1e-9)  # drifted then recentered
    assert rec.phase == pytest.approx(predicted_phase(xbar, 1.0, params), abs=1e-9)
    assert rec.visibility == pytest.approx(math.exp(-0.625), abs=1e-9)


def test_non_gaussian_input_gives_no_visibility_prediction(grid, params):
    a = make_gaussian(grid, -2.0, 0.0, 1.0, params)
    b = make_gaussian(grid, 2.0, 0.0, 1.0, params)
    cat = WavePacket(grid, (a.amp + b.amp) / math.sqrt(2.0))
    rec = run_protocol(cat, params, 0.5)
    assert rec.predicted_visibility is None
    assert rec.predicted_phase == pytest.approx(rec.phase, abs=1e-6)


def test_gaussian_visibility_closed_form(params):
    sigma_t = math.sqrt(5.0) / 2.0
    assert gaussian_visibility(sigma_t, 1.0, params) == pytest.approx(
        math.exp(-0.625), abs=1e-15
    )
    free = type(params)(hbar=1.0, m=1.0, g=0.0, c=10.0)
    assert gaussian_visibility(2.0, 1.0, free) == 1.0


@pytest.mark.parametrize(
    "sigma_t, t, error, text",
    [
        (1.0, math.inf, NonFiniteState, "gaussian_visibility: t=inf is not finite"),
        (1.0, math.nan, NonFiniteState, "gaussian_visibility: t=nan is not finite"),
        (math.inf, 1.0, NonFiniteState, "gaussian_visibility: sigma_t=inf is not finite"),
        (-math.inf, 1.0, NonFiniteState, "gaussian_visibility: sigma_t=-inf is not finite"),
        (-1.0, 1.0, BadSigma, "gaussian_visibility: sigma_t must be non-negative, got -1.0"),
    ],
)
def test_gaussian_visibility_refuses_bad_arguments(params, sigma_t, t, error, text):
    # an infinite kick would read as a finite contrast of 0.0, and a negative
    # spread as the contrast of its absolute value, so both are refused
    with pytest.raises(error) as info:
        gaussian_visibility(sigma_t, t, params)
    assert str(info.value) == text
    assert gaussian_visibility(0.0, 1.0, params) == 1.0


def test_negative_time_rejected(psi0, params):
    with pytest.raises(NegativeTime):
        run_protocol(psi0, params, -0.5)


def test_equal_schedules_interfere_perfectly(psi0, params):
    sched = AccelSchedule(((1.0, 0.5), (0.0, 0.5)))
    rec = run_protocol(
        psi0, params, 1.0, scheme=BranchSchedules(accelerated=sched, reference=sched)
    )
    assert rec.visibility == pytest.approx(1.0, abs=1e-12)
    assert rec.phase == pytest.approx(0.0, abs=1e-12)


def test_swapped_schedules_conjugate_the_overlap(psi0, params):
    a = AccelSchedule(((1.0, 0.6), (0.0, 0.4)))
    b = AccelSchedule(((0.0, 0.6), (1.0, 0.4)))
    fwd = run_protocol(psi0, params, 1.0, scheme=BranchSchedules(a, b))
    rev = run_protocol(psi0, params, 1.0, scheme=BranchSchedules(b, a))
    assert abs(fwd.overlap - np.conj(rev.overlap)) < 1e-12


def test_schedule_totals_must_agree(psi0, params):
    a = AccelSchedule(((1.0, 0.5),))
    b = AccelSchedule(((1.0, 0.75),))
    with pytest.raises(SchemeMismatch):
        run_protocol(psi0, params, 0.5, scheme=BranchSchedules(a, b))


def test_schedule_total_must_match_requested_time(psi0, params):
    sched = AccelSchedule(((1.0, 0.5),))
    with pytest.raises(SchemeMismatch):
        run_protocol(psi0, params, 1.0, scheme=BranchSchedules(sched, sched))


def test_split_step_backend_on_schedules(psi0, params):
    a = AccelSchedule(((1.0, 0.6), (0.0, 0.4)))
    b = AccelSchedule(((0.0, 0.6), (1.0, 0.4)))
    fwd = run_protocol(psi0, params, 1.0, scheme=BranchSchedules(a, b))
    num = run_protocol(
        psi0, params, 1.0, scheme=BranchSchedules(a, b),
        backend="split-step", n_steps=1024,
    )
    assert num.phase == pytest.approx(fwd.phase, abs=1e-5)
    assert num.visibility == pytest.approx(fwd.visibility, abs=1e-6)


def test_split_step_backend_on_unequal_length_schedules(psi0, params):
    a = AccelSchedule(((1.0, 0.6), (0.0, 0.4)))
    b = AccelSchedule(((0.0, 0.25), (1.0, 0.5), (0.0, 0.25)))
    c = AccelSchedule(((0.0, 1.0),))
    for ref in (b, c):
        exact = run_protocol(psi0, params, 1.0, scheme=BranchSchedules(a, ref))
        num = run_protocol(
            psi0, params, 1.0, scheme=BranchSchedules(a, ref),
            backend="split-step", n_steps=1024,
        )
        assert num.phase == pytest.approx(exact.phase, abs=1e-5)
        assert num.visibility == pytest.approx(exact.visibility, abs=1e-6)


@pytest.mark.parametrize("backend", ["analytic", "split-step"])
def test_scan_equals_per_time_protocol(psi0, params, count_calls, backend):
    # colocated readouts in two chunks, the second not full: a chunk holds
    # one row per readout on the analytic backend, a branch pair on the
    # split-step one
    width = 1 if backend == "analytic" else 2
    per_chunk = interferometry._CHUNK_BYTES // (width * psi0.amp.nbytes)
    steps = count_calls(
        analytic if backend == "analytic" else interferometry,
        "_fall" if backend == "analytic" else "evolve_split_step",
    )
    times = list(np.linspace(0.05, 0.95, per_chunk + 5))
    scan = fringe_scan(psi0, params, times, Colocated(), backend=backend, n_steps=128)
    assert len(scan) == len(times)
    assert [len(args[0]) for args in steps] == [width * per_chunk, width * 5]
    for rec in scan:
        one = run_protocol(psi0, params, rec.t, backend=backend, n_steps=128)
        assert replace(rec, phase_unwrapped=one.phase) == one
    # per-branch schedules of unequal lengths, so the last segment runs on the
    # reference row alone, read out at their one time, the total
    schedules = BranchSchedules(
        accelerated=AccelSchedule(((1.0, 0.6), (0.0, 0.4))),
        reference=AccelSchedule(((0.0, 0.25), (1.0, 0.5), (0.0, 0.25))),
    )
    (rec,) = fringe_scan(psi0, params, [1.0], schedules, backend=backend, n_steps=128)
    accelerated, reference = branch_states(
        psi0, params, 1.0, schedules, backend=backend, n_steps=128
    )
    assert rec.overlap == overlap(reference, accelerated)
    assert rec.phase_unwrapped == rec.phase


def test_one_chunk_analytic_scan_shares_its_transforms(
    psi0, params, count_calls, fft_rows
):
    # N colocated readouts fit one chunk at n = 256, one fallen row each;
    # no reference row is flown.  Forward rows: psi0 once and once for its
    # moments (the Gaussian test); the fall stays in k-space from the shift
    # stage to free flight.  Inverse rows: N shift-stage rows for the margin
    # check and N after free flight.  The fringe and the reference's margin
    # are read from the density of the fallen rows, so nothing is recentered.
    momentum = count_calls(core, "_momentum_amp")
    exps = count_calls(np, "exp")
    n = 8
    scan = fringe_scan(psi0, params, [0.1 * (i + 1) for i in range(n)])
    assert len(scan) == n
    assert fft_rows == {"fft": 2, "ifft": 2 * n}
    # the one momentum transform is psi0's, for the Gaussian test; the
    # readout takes position moments only
    assert len(momentum) == 1
    # N shift and N free-flight phases, N kicks of the densities and two
    # for the Gaussian test; each global phase multiplies a scalar sum, and
    # no zero-shift phase is built
    assert len(exps) == 3 * n + 2
    # np.exp runs on half the nodes for each k-space phase (k_0 .. k_{n/2})
    # and for each kick (x_{n/2} .. x_{n-1} and x_0, the grid being
    # symmetric), and on every node for the Gaussian test
    half = psi0.grid.n // 2 + 1
    sizes = sorted(np.size(args[0]) for args in exps)
    assert sizes == sorted([half] * (3 * n) + [psi0.grid.n] * 2)


def test_multi_chunk_analytic_scan_reads_each_chunk_from_psi0(
    psi0, params, count_calls, fft_rows
):
    # N = 70 readouts at n = 256 run in chunks of 64 and 6, one fallen row
    # per readout.  Each chunk is one plain fall from psi0, whose transform
    # is made once per scan, so 1 + 1 forward-transform rows (the Gaussian
    # test's), 2N inverse rows and 3N + 2 np.exp calls
    exps = count_calls(np, "exp")
    steps = count_calls(analytic, "_fall")
    n = 70
    scan = fringe_scan(psi0, params, [0.02 * (i + 1) for i in range(n)])
    assert len(scan) == n
    assert [len(args[0]) for args in steps] == [64, 6]
    assert fft_rows == {"fft": 2, "ifft": 2 * n}
    assert len(exps) == 3 * n + 2


def test_multi_chunk_analytic_scan_writes_every_chunk_into_one_workspace(
    psi0, params, monkeypatch
):
    # N = 70 readouts at n = 256 run in chunks of 64 and 6.  The scan
    # allocates one chunk's arrays once, so every chunk's fallen stack is a
    # view of the first's, and the short last chunk writes the leading rows;
    # every fringe keeps the bits of a single-readout call
    stacks, real = [], analytic._fall

    def fall(*args):
        out = real(*args)
        stacks.append(out[0])
        return out

    monkeypatch.setattr(analytic, "_fall", fall)
    times = [0.02 * (i + 1) for i in range(70)]
    scan = fringe_scan(psi0, params, times)
    monkeypatch.undo()
    assert [len(stack) for stack in stacks] == [64, 6]
    assert all(np.shares_memory(stack, stacks[0]) for stack in stacks)
    one = [run_protocol(psi0, params, t).overlap for t in times]
    assert np.array([rec.overlap for rec in scan]).tobytes() == np.array(one).tobytes()


def test_colocated_analytic_scan_holds_one_chunk(params):
    # a 400-readout scan at n = 1024 runs 25 chunks of 16 readouts.  Its
    # traced peak is one chunk's workspace (a 256 KiB k-space stack and a
    # 256 KiB shift-stage copy) plus one phase at a time and the records;
    # a scan that kept every chunk, or every phase of a chunk, exceeds it
    psi0 = make_gaussian(Grid(-20.0, 20.0, 1024), 0.0, 0.0, 1.0, params)
    times = [0.005 * (i + 1) for i in range(400)]
    tracemalloc.start()
    try:
        fringe_scan(psi0, params, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * interferometry._CHUNK_BYTES


def _scan_refusal(scan):
    with pytest.raises(WavefallError) as info:
        scan()
    return type(info.value), str(info.value), info.value.row


MARGIN = "exceeds the 1e-10 margin; enlarge the grid or shorten the evolution"


def test_multi_chunk_analytic_scan_refuses_each_readout_by_name(
    psi0, params, count_calls
):
    # three scans of 70 readouts at n = 256, in chunks of 64 and 6, one
    # fallen row per readout.  Each expected refusal is the one a scan made
    # when every chunk transformed psi0 and shifted its reference rows by 0
    # itself
    per_chunk = interferometry._CHUNK_BYTES // psi0.amp.nbytes
    steps = count_calls(analytic, "_fall")
    times = [0.01 * (i + 1) for i in range(per_chunk + 6)]
    # psi0 above the margin, refused in the first chunk's shift stage
    amp = np.array(psi0.amp)
    amp[0] = 1e-3
    edge = WavePacket(psi0.grid, amp)
    assert _scan_refusal(lambda: fringe_scan(edge, params, times)) == (
        GridOverflow,
        "readout t=0.01, accelerated branch, segment 0 (g=1.0, duration=0.01): "
        f"evolve_exact: boundary amplitude 1.000e-03 on the outer 12 nodes {MARGIN}",
        None,
    )
    assert len(steps) == 1
    # the third readout of the second chunk leaves the grid in its shift stage
    far = times[: per_chunk + 2] + [5.0, 6.0, 7.0, 8.0]
    assert _scan_refusal(lambda: fringe_scan(psi0, params, far)) == (
        GridOverflow,
        "readout t=5.0, accelerated branch, segment 0 (g=1.0, duration=5.0): "
        f"evolve_exact: boundary amplitude 1.485e-04 on the outer 12 nodes {MARGIN}",
        None,
    )
    assert len(steps) == 1 + 2
    # m g t max|x| overflows from t = 0.09, first reached in the second chunk
    heavy = replace(params, m=1e308)
    psi = make_gaussian(psi0.grid, 0.0, 0.0, 1.0, heavy)
    kicks = [0.001 * (i + 1) for i in range(per_chunk + 2)] + [0.1, 0.2, 0.3, 0.4]
    assert _scan_refusal(lambda: fringe_scan(psi, heavy, kicks)) == (
        NonFiniteState,
        "readout t=0.1, accelerated branch, segment 0 (g=1.0, duration=0.1): "
        "evolve_exact: result kick_angle=inf is not finite",
        None,
    )
    assert len(steps) == 1 + 2 + 2


@pytest.mark.parametrize("backend", ["analytic", "split-step"])
def test_colocated_readout_at_time_zero(psi0, params, backend):
    rec = run_protocol(psi0, params, 0.0, backend=backend, n_steps=64)
    assert rec.visibility == pytest.approx(1.0, abs=1e-12)
    assert rec.phase == pytest.approx(0.0, abs=1e-12)
    assert rec.predicted_visibility == 1.0


def test_schedule_totals_compare_relative_to_their_size(psi0, params):
    # 1000 x 0.1 sums to 99.9999999999986: equal to 100 to rounding, but
    # 1.4e-12 apart, which an absolute 1e-12 tolerance refuses
    heavy = replace(params, m=1e4)  # the packet barely spreads over t = 100
    many = AccelSchedule(((0.0, 0.1),) * 1000)
    one = AccelSchedule(((0.0, 100.0),))
    accelerated, reference = branch_states(
        psi0, heavy, 100.0, scheme=BranchSchedules(accelerated=many, reference=one)
    )
    assert abs(overlap(reference, accelerated)) == pytest.approx(1.0, abs=1e-9)


def test_unwrap_accumulates_a_growing_phase():
    true = np.array([0.0, 1.5, 3.0, 4.5, 6.0, 7.5])
    wrapped = np.angle(np.exp(1j * true))
    out = unwrap_phases(wrapped, range(len(true)))
    np.testing.assert_allclose(out, true, atol=1e-12)


def test_unwrap_handles_decreasing_phase():
    true = -np.array([0.2, 1.7, 3.2, 4.7])
    out = unwrap_phases(np.angle(np.exp(1j * true)), [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(out, true, atol=1e-12)


def test_unwrap_refuses_half_turn_steps():
    with pytest.raises(PhaseAliasing, match="between t=0.5 and t=0.75"):
        unwrap_phases([0.0, math.pi], [0.5, 0.75])


@pytest.mark.parametrize(
    "phases, t_values",
    [([0.0, math.nan], [0.5]), ([0.0], [0.5, 0.75]), ([], [0.5])],
    ids=["missing-time", "extra-time", "no-phases"],
)
def test_unwrap_needs_one_time_per_phase(phases, t_values):
    # every phase needs its time, which the error messages name
    message = f"{len(phases)} phases but {len(t_values)} t_values"
    with pytest.raises(ValueError, match=message):
        unwrap_phases(phases, t_values)


def test_fringe_scan_unwraps_the_cubic_phase(psi0, params):
    times = [0.6, 1.0, 1.4, 1.8, 2.2]
    records = fringe_scan(psi0, params, times)
    for rec in records:
        assert rec.phase_unwrapped == pytest.approx(rec.t**3 / 3.0, abs=1e-8)
    # t = 2.2 sits past the first wrap (t^3/3 > pi), so the principal value
    # and the continued branch must part ways there
    assert abs(records[-1].phase - records[-1].phase_unwrapped) == pytest.approx(
        2.0 * math.pi, abs=1e-8
    )


def test_fringe_scan_raises_on_engineered_aliasing(psi0, params):
    with pytest.raises(PhaseAliasing, match="densify"):
        fringe_scan(psi0, params, [1.0, ALIASING_T2])


def test_fringe_scan_validates_times(psi0, params):
    with pytest.raises(ValueError):
        fringe_scan(psi0, params, [1.0, 0.5])
    assert fringe_scan(psi0, params, []) == []


@pytest.mark.parametrize("scheme", ["colocated", None, lambda t: Colocated()])
def test_fringe_scan_refuses_a_scheme_of_another_type(psi0, params, scheme):
    with pytest.raises(TypeError, match="scheme must be Colocated or BranchSchedules"):
        fringe_scan(psi0, params, [0.5, 1.0], scheme)


def test_per_branch_scan_reads_out_at_the_schedule_total_only(psi0, params):
    schedules = BranchSchedules(
        accelerated=AccelSchedule(((params.g, 0.4),)),
        reference=AccelSchedule(((0.0, 0.4),)),
    )
    with pytest.raises(SchemeMismatch, match=r"total 0.4 does not match requested t=0.2"):
        fringe_scan(psi0, params, [0.2, 0.4], schedules)


def test_schedule_total_matches_the_readout_time_relative_to_its_size(psi0):
    # 54 x 18181.8 plus the remainder sums to 1000000.000000001: equal to
    # t = 1e6 to rounding, but 1e-9 apart, which an absolute 1e-9 refuses
    heavy = PhysicalParams(m=1e8, g=0.0)  # the packet barely spreads
    sched = AccelSchedule(((0.0, 18181.8),) * 54 + ((0.0, 1e6 - 18181.8 * 54),))
    accelerated, reference = branch_states(
        psi0, heavy, 1e6, scheme=BranchSchedules(accelerated=sched, reference=sched)
    )
    assert abs(overlap(reference, accelerated)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("backend", ["analytic", "split-step"])
def test_scan_overflow_names_the_readout_time_and_branch(psi0, params, backend):
    # the packet falls 12.5 by t = 5 and reaches the margin band; t = 1 is fine
    with pytest.raises(GridOverflow) as info:
        fringe_scan(psi0, params, [1.0, 5.0], backend=backend, n_steps=64)
    assert str(info.value).startswith(
        "readout t=5.0, accelerated branch, segment 0 (g=1.0, duration=5.0): "
    )
    # the row of the solver's chunk stack means nothing to the caller
    assert "in row" not in str(info.value)
    assert info.value.row is None


@pytest.mark.parametrize("backend", ["analytic", "split-step"])
def test_a_reference_only_overflow_stays_refused(backend):
    # launched at p0 = 9 against g = 9, the accelerated branch turns around
    # at x = 4.5 and both fallen states are clean, but the un-fallen
    # reference drifts to x = 9 and reaches the margin band by t = 1
    params = PhysicalParams(g=9.0)
    psi = make_gaussian(Grid(-20.0, 20.0, 256), 0.0, 9.0, 1.0, params)
    with pytest.raises(GridOverflow) as info:
        fringe_scan(psi, params, [1.0], backend=backend)
    assert str(info.value).startswith(
        "readout t=1.0, reference branch, segment 0 (g=0.0, duration=1.0): "
    )


def test_a_whole_node_reference_refusal_reads_evolve_exacts_amplitude():
    # the fall g t^2/2 = 5 is 32 nodes, so the reference's guarded nodes are
    # read on exactly the nodes of the fallen density they moved to; the
    # fallen branch turns around at x = 7.45 and stays clean
    params = PhysicalParams(g=10.0)
    psi = make_gaussian(Grid(-20.0, 20.0, 256), 5.0, 7.0, 1.0, params)
    with pytest.raises(GridOverflow) as exact:
        evolve_exact(psi, replace(params, g=0.0), 1.0)
    with pytest.raises(GridOverflow) as info:
        fringe_scan(psi, params, [1.0])
    assert str(info.value) == (
        "readout t=1.0, reference branch, segment 0 (g=0.0, duration=1.0): "
        f"{exact.value}"
    )
    assert "boundary amplitude 3.294e-04 on the outer 12 nodes" in str(info.value)


# Starts of spread 1.25 at 3 to 6 from the center of a [-20, 20] grid, on the
# side g pulls them from and mostly launched outward, so that the fall often
# carries the accelerated branch inward while the un-fallen reference drifts
# into the margin band.  Whole-node falls take t a power of two, which makes
# g t^2/2 = k dx exact.
@settings(max_examples=100)
@given(
    data=st.data(),
    n=st.sampled_from([64, 128, 256, 1024]),
    whole=st.booleans(),
    offset=st.floats(3.0, 6.0),
    p0=st.floats(-1.0, 2.4),
    two=st.booleans(),
)
def test_a_scan_refuses_every_reference_that_evolve_exact_refuses(
    data, n, whole, offset, p0, two
):
    # the scan reads the reference's margin from the fallen density, on a
    # band up to one node wider than the reference's own, so it refuses at
    # least what evolve_exact refuses of the un-fallen packet
    grid = Grid(-20.0, 20.0, n)
    if whole:
        t = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
        most = int(1.5 * t * t / grid.dx)
        g = 2 * data.draw(st.integers(-most, most)) * grid.dx / (t * t)
    else:
        t = data.draw(st.floats(0.0, 2.0))
        g = data.draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)))
    params = PhysicalParams(g=g)
    side = math.copysign(1.0, g)
    psi = make_gaussian(grid, side * offset, side * p0, 1.25, params)
    if two:
        other = make_gaussian(grid, -side * offset, -side * p0, 1.25, params)
        psi = WavePacket(grid, (psi.amp + other.amp) / math.sqrt(2.0))
    try:
        evolve_exact(psi, replace(params, g=0.0), t)
    except GridOverflow:
        with pytest.raises(GridOverflow):
            fringe_scan(psi, params, [t])


def test_an_under_resolved_reference_slips_past_the_neighbour_read():
    # a known blind spot of _reference_margin, pinned as it stands (ROADMAP
    # direction 1): the start's spread is below 2 dx, which make_gaussian
    # refuses, so its translate's sinc tails reach guarded nodes where the
    # fallen density's two neighbours stay below the margin.  evolve_exact
    # and the split-step backend refuse the un-fallen reference; the
    # analytic scan reads the fringe
    grid = Grid(-20.0, 20.0, 64)
    sigma, x0, k0 = 0.9310665611538621, 3.6328990649387674, -0.726530883261751
    amp = np.exp(-((grid.x - x0) ** 2) / (4 * sigma * sigma) + 1j * k0 * grid.x)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx)
    amp[np.abs(amp) < 1e-300] = 0.0
    psi = WavePacket(grid, amp)
    params = PhysicalParams(g=-1.8036923041414608)
    t = 0.06955908030083412
    with pytest.raises(GridOverflow, match="amplitude 1.344e-10 on the outer 3 "):
        evolve_exact(psi, replace(params, g=0.0), t)
    with pytest.raises(GridOverflow, match=r"reference branch.*at step 1523/2048"):
        fringe_scan(psi, params, [t], backend="split-step")
    (rec,) = fringe_scan(psi, params, [t])
    assert rec.visibility == pytest.approx(0.99319, abs=1e-5)
    assert rec.phase == pytest.approx(0.44982, abs=1e-5)


# Colocated scans on lattices of 64 to 1024 nodes: the start packet (spread 2)
# and both branches stay at least 21 from the margin band at |x| > 27.
@given(
    m=st.floats(0.5, 4.0),
    g=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0)),
    t=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    x0=st.floats(-1.0, 1.0),
    p0=st.floats(-1.0, 1.0),
    n=st.sampled_from([64, 128, 256, 1024]),
)
def test_analytic_colocated_branches_match_their_definitions(m, g, t, x0, p0, n):
    # the accelerated branch is evolve_exact's to the bit; the reference is
    # the free packet translated onto it, which branch_states recenters with
    # shift_packet as the definition does; within 4 eps log2(n) in L2
    params = PhysicalParams(m=m, g=g)
    grid = Grid(-30.0, 30.0, n)
    psi = make_gaussian(grid, x0, p0, 2.0, params)
    accelerated, reference = branch_states(psi, params, t, backend="analytic")
    exact = evolve_exact(psi, params, t)
    assert np.array_equal(accelerated.amp.view(np.uint64), exact.amp.view(np.uint64))
    free = evolve_exact(psi, replace(params, g=0.0), t)
    recentered = shift_packet(free, g * t * t / 2)
    gap = math.sqrt(np.sum(np.abs(reference.amp - recentered.amp) ** 2) * grid.dx)
    assert gap <= 4 * np.finfo(float).eps * math.log2(n)


# Colocated scans of one to three chunks: a chunk holds one fallen row per
# readout, 256, 64 and 16 readouts at n = 64, 256 and 1024.  The readouts
# span 0 to 1.46, inside the bounds of the property above.
@given(
    m=st.floats(0.5, 4.0),
    g=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0)),
    t=st.one_of(st.just(0.0), st.floats(0.0, 1.2)),
    x0=st.floats(-1.0, 1.0),
    p0=st.floats(-1.0, 1.0),
    n=st.sampled_from([64, 256, 1024]),
    chunks=st.integers(1, 3),
    extra=st.integers(1, 8),
)
def test_density_fringes_match_the_branch_states(m, g, t, x0, p0, n, chunks, extra):
    # the analytic scan reads each fringe from the density of the fallen
    # branch before its kick; branch_states propagates both branches and
    # recenters the reference.  The two routes round differently, by a few
    # FFT round-offs: within 4 eps log2(n) of each other
    params = PhysicalParams(m=m, g=g)
    grid = Grid(-30.0, 30.0, n)
    psi = make_gaussian(grid, x0, p0, 2.0, params)
    per_chunk = interferometry._CHUNK_BYTES // psi.amp.nbytes
    readouts = per_chunk * (chunks - 1) + extra
    with mock.patch.object(analytic, "_fall", wraps=analytic._fall) as steps:
        scan = fringe_scan(psi, params, [t + 5e-4 * i for i in range(readouts)])
    assert steps.call_count == chunks
    for rec in scan:
        accelerated, reference = branch_states(psi, params, rec.t)
        gap = abs(rec.overlap - overlap(reference, accelerated))
        assert gap <= 4 * np.finfo(float).eps * math.log2(n)


@pytest.mark.parametrize("backend", ["analytic", "split-step"])
@pytest.mark.parametrize(
    "accelerated, reference, phase, visibility",
    [
        (((1.0, 1.0),), ((0.0, 1.0),), 1 / 12, math.exp(-17 / 32)),
        (((1.0, 0.5), (-1.0, 0.5)), ((0.0, 1.0),), -1 / 24, math.exp(-1 / 128)),
        (
            ((2.0, 0.5), (0.0, 0.5)), ((0.0, 0.5), (2.0, 0.5)),
            -1 / 4, math.exp(-1 / 32),
        ),
        (((1.0, 1.0),), ((1.0, 1.0),), 0.0, 1.0),
    ],
    ids=["inertial", "turnaround", "swapped", "equal"],
)
def test_per_branch_predictions_are_the_per_branch_closed_form(
    psi0, params, backend, accelerated, reference, phase, visibility
):
    # the colocated closed forms predicted -1/6, -1/6, 1/12 and 1/3 with
    # visibility 0.5353 on every row; the per-branch closed form gives the
    # measured fringe, to the split-step solver's Strang error
    scheme = BranchSchedules(AccelSchedule(accelerated), AccelSchedule(reference))
    (rec,) = fringe_scan(psi0, params, [1.0], scheme, backend=backend)
    assert rec.predicted_phase == pytest.approx(phase, abs=1e-14)
    assert rec.predicted_visibility == pytest.approx(visibility, abs=1e-14)
    assert rec.phase == pytest.approx(phase, abs=1e-7)
    assert rec.visibility == pytest.approx(visibility, abs=1e-12)
    # a start that is not Gaussian has no visibility prediction
    other = make_gaussian(psi0.grid, 2.0, 0.0, 1.0, params)
    cat = WavePacket(psi0.grid, (psi0.amp + other.amp) / math.sqrt(2.0))
    (rec,) = fringe_scan(cat, params, [1.0], scheme, backend=backend)
    assert rec.predicted_visibility is None


@pytest.mark.parametrize(
    "t, cause",
    [(1e200, "result shift=inf"), (1e103, "result cubic_angle=-inf")],
    ids=["shift", "cubic_angle"],
)
def test_analytic_scan_names_the_readout_of_a_non_finite_scalar(
    psi0, params, t, cause
):
    # the message named a row of the chunk stack, "evolve_exact in row 2"; a
    # shift or cubic angle that overflows is refused before any propagation
    with pytest.raises(NonFiniteState) as info:
        fringe_scan(psi0, params, [0.5, t], backend="analytic")
    assert str(info.value) == (
        f"readout t={t}, accelerated branch, segment 0 (g=1.0, duration={t}): "
        f"{cause} is not finite"
    )
    assert info.value.row is None


@pytest.mark.parametrize("backend", ["analytic", "split-step"])
@pytest.mark.parametrize("scheme", ["colocated", "schedules"])
@pytest.mark.parametrize(
    "t, cause",
    [
        (1e200, "result shift=inf"),
        (1e103, "result cubic_angle=-inf"),
        (1e150, "result cubic_angle=-inf"),
        (1e154, "result cubic_angle=-inf"),
    ],
    ids=["shift", "cube-1e103", "cube-1e150", "cube-1e154"],
)
def test_both_backends_refuse_an_overflowing_fall_shift_before_propagating(
    psi0, params, count_calls, backend, scheme, t, cause
):
    # the analytic backend refused it inside evolve_exact, the split-step one
    # with GridOverflow at step 1/2048, after building phases from angles far
    # past any meaningful range.  From about t = 6e102 the cube overflows,
    # and from about 1.3e154 the shift too, which is then named first
    propagators = [
        count_calls(interferometry, "evolve_exact"),
        count_calls(analytic, "_fall"),
        count_calls(interferometry, "evolve_split_step"),
        count_calls(splitstep, "_check_margin"),
    ]
    if scheme == "colocated":
        scan = (psi0, params, [0.5, t])
    else:
        branches = BranchSchedules(
            accelerated=AccelSchedule(((params.g, t),)),
            reference=AccelSchedule(((0.0, t),)),
        )
        scan = (psi0, params, [t], branches)
    with pytest.raises(NonFiniteState) as info:
        fringe_scan(*scan, backend=backend)
    assert str(info.value) == (
        f"readout t={t}, accelerated branch, segment 0 (g=1.0, duration={t}): "
        f"{cause} is not finite"
    )
    assert info.value.row is None
    assert [len(calls) for calls in propagators] == [0, 0, 0, 0]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "run",
    [
        lambda psi, params: fringe_scan(psi, params, [0.5, 1.0]),
        lambda psi, params: run_protocol(psi, params, 1.0, backend="split-step"),
        lambda psi, params: branch_states(psi, params, 1.0),
    ],
    ids=["fringe_scan", "run_protocol", "branch_states"],
)
def test_non_finite_start_state_is_refused_by_name(psi0, params, run, value):
    amp = np.array(psi0.amp)
    amp[17] = value
    with pytest.raises(WavefallError, match="start state psi0") as info:
        run(WavePacket(psi0.grid, amp), params)
    assert not isinstance(info.value, GridOverflow)


@pytest.mark.parametrize("backend", ["analytic", "split-step"])
def test_a_start_off_unit_norm_scales_its_fringe_and_loses_its_prediction(
    psi0, params, backend
):
    # pinned as it stands (ROADMAP, open findings): no fringe is divided by
    # psi0's norm, so the visibility scales with the square of psi0's scale,
    # while the Gaussian test compares |<fit|psi0>| with 1 to within 1e-9,
    # the refitted Gaussian being normalized
    (unit,) = fringe_scan(psi0, params, [1.0], backend=backend)
    assert unit.visibility == pytest.approx(0.53526, abs=1e-5)
    off = WavePacket(psi0.grid, psi0.amp * 1.001)
    (rec,) = fringe_scan(off, params, [1.0], backend=backend)
    assert rec.visibility == pytest.approx(0.53633, abs=1e-5)
    assert rec.visibility == pytest.approx(1.002001 * unit.visibility, rel=1e-12)
    assert rec.predicted_visibility is None
    near = WavePacket(psi0.grid, psi0.amp * (1.0 + 1e-12))
    (rec,) = fringe_scan(near, params, [1.0], backend=backend)
    assert rec.predicted_visibility == pytest.approx(0.53526, abs=1e-5)


@pytest.mark.parametrize("backend", ["analytic", "split-step"])
def test_a_start_of_subnormal_norm_is_refused_before_propagating(
    psi0, params, count_calls, backend
):
    # scaled by 1e-160 the canonical start has norm 1e-320, subnormal, and
    # its fringes underflow: the split-step scan read overlap 0 and phase 0
    # at t = 3 with no refusal.  moments(psi0) refuses it as it refuses a
    # zero norm, before any propagation
    propagators = [
        count_calls(analytic, "_fall"),
        count_calls(interferometry, "_segment_chain"),
    ]
    tiny = WavePacket(psi0.grid, psi0.amp * 1e-160)
    with pytest.raises(ValueError) as info:
        fringe_scan(tiny, params, [1.0, 3.0], backend=backend)
    assert str(info.value) == (
        "moments: norm 9.995e-321 is subnormal; cannot take moments"
    )
    assert not isinstance(info.value, WavefallError)
    assert [len(calls) for calls in propagators] == [0, 0]
    # scaled by 1e-150 (norm 1e-300) it scans, with the predicted phase
    small = WavePacket(psi0.grid, psi0.amp * 1e-150)
    (rec,) = fringe_scan(small, params, [1.0], backend=backend)
    assert rec.phase == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert rec.phase == pytest.approx(rec.predicted_phase, abs=1e-6)
