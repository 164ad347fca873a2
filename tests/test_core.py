"""Grid, packet construction, transforms, moments, trajectories."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavefall import (
    BadSigma,
    Grid,
    GridMismatch,
    GridOverflow,
    NonFiniteState,
    PhysicalParams,
    Trajectory,
    WavePacket,
    evolve_exact,
    l2_distance,
    make_gaussian,
    moments,
    overlap,
)
from wavefall.core import (
    MARGIN_AMPLITUDE,
    _first_over_margin,
    _momentum_amp,
    _require_finite,
    boundary_amplitude,
    check_margin,
    margin_nodes,
)


def test_grid_nodes_and_spacing():
    g = Grid(-10.0, 10.0, 64)
    assert g.dx == pytest.approx(20.0 / 64)
    assert g.x[0] == -10.0
    # x_max is the wrap point, not a node
    assert g.x[-1] == pytest.approx(10.0 - g.dx)
    assert g.k[0] == 0.0
    assert g.dk == pytest.approx(2 * math.pi / 20.0)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Grid(-1.0, -2.0, 64)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 4)  # below the minimum


@pytest.mark.parametrize(
    "x_min, x_max",
    [(-math.inf, 20.0), (-20.0, math.inf), (math.nan, 20.0), (-1e308, 1e308)],
    ids=["-inf", "inf", "nan", "span-overflows"],
)
def test_grid_rejects_non_finite_bounds_and_span(x_min, x_max):
    with pytest.raises(ValueError, match="finite"):
        Grid(x_min, x_max, 256)


def test_grid_arrays_are_readonly():
    g = Grid(-10.0, 10.0, 64)
    with pytest.raises(ValueError):
        g.x[0] = 99.0
    with pytest.raises(ValueError):
        g.k[0] = 99.0


def test_params_positivity():
    with pytest.raises(ValueError):
        PhysicalParams(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(m=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(c=0.0)
    # g may carry any sign
    PhysicalParams(g=-3.0)
    PhysicalParams(g=0.0)


@pytest.mark.parametrize("field", ["hbar", "m", "g", "c"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PhysicalParams(**{field: value})


def test_wavepacket_amp_is_copied_and_readonly(grid):
    raw = np.ones(grid.n, dtype=complex)
    psi = WavePacket(grid, raw)
    raw[0] = 0.0
    assert psi.amp[0] == 1.0
    with pytest.raises(ValueError):
        psi.amp[0] = 2.0


def test_gaussian_is_normalized_with_requested_moments(grid, params):
    psi = make_gaussian(grid, 1.5, 0.75, 1.2, params)
    assert psi.norm == pytest.approx(1.0, abs=1e-12)
    m = moments(psi, params)
    assert m.mean_x == pytest.approx(1.5, abs=1e-9)
    assert m.mean_p == pytest.approx(0.75, abs=1e-9)
    assert m.sigma_x == pytest.approx(1.2, abs=1e-9)
    # minimum-uncertainty packet: sigma_p = hbar / (2 sigma_x)
    assert m.sigma_p == pytest.approx(1.0 / 2.4, abs=1e-9)


def test_gaussian_rejects_bad_inputs(grid, params):
    with pytest.raises(BadSigma):
        make_gaussian(grid, 0.0, 0.0, -1.0, params)
    with pytest.raises(BadSigma):
        make_gaussian(grid, 0.0, 0.0, 0.1, params)  # under 2*dx
    with pytest.raises(GridOverflow):
        make_gaussian(grid, 19.0, 0.0, 1.0, params)  # 6 sigma leaves the grid
    with pytest.raises(GridOverflow):
        make_gaussian(grid, 0.0, 10.5, 1.0, params)  # above half the momentum limit
    # non-finite inputs fail closed, each naming the value
    for sigma0 in (math.nan, math.inf):
        with pytest.raises(BadSigma, match=f"got {sigma0}"):
            make_gaussian(grid, 0.0, 0.0, sigma0, params)


@pytest.mark.parametrize(
    "x0, p0, name",
    [
        (math.nan, 0.0, "x0=nan"),
        (math.inf, 0.0, "x0=inf"),
        (0.0, math.nan, "p0=nan"),
        (0.0, -math.inf, "p0=-inf"),
    ],
    ids=["x0-nan", "x0-inf", "p0-nan", "p0--inf"],
)
def test_gaussian_refuses_non_finite_centre_and_momentum(grid, params, x0, p0, name):
    # a non-finite input is not a grid overflow; it is refused before the
    # support and momentum checks, naming the value
    with pytest.raises(NonFiniteState) as info:
        make_gaussian(grid, x0, p0, 1.0, params)
    assert str(info.value) == f"make_gaussian: {name} is not finite"


def test_momentum_norm_matches_position_norm(psi0):
    phi = _momentum_amp(np.array(psi0.amp), psi0.grid)
    norm_k = float(np.sum(np.abs(phi) ** 2) * psi0.grid.dk)
    assert norm_k == pytest.approx(psi0.norm, abs=1e-12)


def test_momentum_packet_centered_at_p0(grid, params):
    psi = make_gaussian(grid, 0.0, 2.0, 1.0, params)
    phi = _momentum_amp(np.array(psi.amp), grid)
    p = params.hbar * grid.k
    w = np.abs(phi) ** 2
    mean_p = float(np.sum(p * w) / np.sum(w))
    assert mean_p == pytest.approx(2.0, abs=1e-9)


def test_overlap_requires_same_grid(psi0, params):
    other = Grid(-20.0, 20.0, 128)
    chi = make_gaussian(other, 0.0, 0.0, 1.0, params)
    with pytest.raises(GridMismatch):
        overlap(psi0, chi)


def test_overlap_of_displaced_gaussians(grid, params):
    # |<g(0)|g(d)>| = exp(-d^2/(8 sigma^2)); d=4, sigma=1 gives e^-2
    a = make_gaussian(grid, -2.0, 0.0, 1.0, params)
    b = make_gaussian(grid, 2.0, 0.0, 1.0, params)
    assert abs(overlap(a, b)) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_margin_helpers():
    assert margin_nodes(256) == 12
    assert margin_nodes(8) == 1
    amp = np.zeros(64, dtype=complex)
    amp[3] = 1e-9  # inside the 3-node guard band
    assert boundary_amplitude(amp, 64) == 0.0
    amp[1] = 1e-9
    assert boundary_amplitude(amp, 64) == pytest.approx(1e-9)


def test_boundary_amplitude_reduces_the_last_axis():
    stack = np.zeros((3, 64), dtype=complex)
    stack[0, 1] = 1e-9
    stack[1, 3] = 1.0  # inside, not on the guard band
    stack[2, -1] = 2e-3
    worst = boundary_amplitude(stack, 64)
    assert worst.shape == (3,)
    np.testing.assert_array_equal(worst, [1e-9, 0.0, 2e-3])
    assert type(boundary_amplitude(stack[2], 64)) is float


def test_nan_on_the_margin_fails_closed(grid):
    amp = np.zeros(grid.n, dtype=complex)
    amp[-1] = np.nan
    assert np.isnan(boundary_amplitude(amp, grid.n))
    with pytest.raises(GridOverflow, match="nan-test"):
        check_margin(WavePacket(grid, amp), "nan-test")


# Values that must trip the guard on a guarded node, or sit just below it.
_EDGE_VALUES = [
    complex(math.nan, 0.0),
    complex(0.0, math.nan),
    complex(math.inf, 0.0),
    complex(0.0, -math.inf),
    complex(MARGIN_AMPLITUDE, 0.0),
    complex(0.0, -MARGIN_AMPLITUDE),
    complex(np.nextafter(MARGIN_AMPLITUDE, 0.0), 0.0),
]


@given(
    rows=st.integers(1, 24),
    n=st.sampled_from([8, 64, 256, 4096]),
    seed=st.integers(0, 2**32 - 1),
    injections=st.lists(
        st.tuples(
            st.integers(0, 23),
            st.booleans(),
            st.integers(0, 2**16),
            st.sampled_from(_EDGE_VALUES),
        ),
        max_size=4,
    ),
)
def test_first_over_margin_matches_the_per_row_reference(rows, n, seed, injections):
    rng = np.random.default_rng(seed)
    m = margin_nodes(n)
    # order-one interior amplitudes, guarded nodes below the margin
    stack = np.exp(2j * math.pi * rng.random((rows, n))) * rng.random((rows, n))
    stack[:, :m] *= 0.9 * MARGIN_AMPLITUDE
    stack[:, n - m :] *= 0.9 * MARGIN_AMPLITUDE
    for row, guarded, pick, value in injections:
        if guarded:
            node = [*range(m), *range(n - m, n)][pick % (2 * m)]
        else:
            node = m + pick % (n - 2 * m)
        stack[row % rows, node] = value
    worst = boundary_amplitude(stack, n)
    over = np.flatnonzero(~(worst < MARGIN_AMPLITUDE))
    hit = _first_over_margin(stack)
    if over.size == 0:
        assert hit is None
    else:
        row, amplitude = hit
        assert row == over[0]
        np.testing.assert_array_equal(amplitude, worst[row])


@given(
    rows=st.integers(1, 12),
    n=st.sampled_from([8, 64, 256]),
    seed=st.integers(0, 2**32 - 1),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    imaginary=st.booleans(),
    hits=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 255)), min_size=1, max_size=3
    ),
)
def test_require_finite_names_the_first_non_finite_node(
    rows, n, seed, value, imaginary, hits
):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    for row, node in hits:
        stack[row % rows, node % n] += complex(0.0, value) if imaginary else value
    row, node = divmod(int(np.argmin(np.isfinite(stack))), n)
    with pytest.raises(NonFiniteState) as info:
        _require_finite(stack, "ctx", batched=True)
    assert str(info.value) == f"ctx: non-finite amplitude in row {row} at node {node}"
    with pytest.raises(NonFiniteState) as info:
        _require_finite(stack[row : row + 1], "ctx", batched=False)
    assert str(info.value) == f"ctx: non-finite amplitude at node {node}"


def test_require_finite_accepts_a_finite_stack_whose_sum_overflows():
    # every node is finite, but the sum of the stack overflows to inf (and
    # inf - inf in the imaginary part gives NaN); the stack is still finite
    stack = np.full((3, 8), complex(1e308, 1e308))
    stack[2] = complex(1e308, -1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(stack.sum())
    _require_finite(stack, "ctx", batched=True)
    _require_finite(stack[:1], "ctx", batched=False)


def test_check_margin_raises_with_context(grid):
    amp = np.zeros(grid.n, dtype=complex)
    amp[0] = 1.0
    with pytest.raises(GridOverflow, match="edge-test"):
        check_margin(WavePacket(grid, amp), "edge-test")


def test_trajectory_initial_value_form():
    # xddot = -g: falling from rest toward -x for g > 0
    tr = Trajectory.from_initial(1.0, 2.0, 0.0, g=3.0)
    assert tr.position(0.0) == 1.0
    assert tr.position(2.0) == pytest.approx(1.0 + 4.0 - 0.5 * 3.0 * 4.0)
    assert tr.velocity(2.0) == pytest.approx(2.0 - 6.0)


def test_trajectory_velocity_is_position_derivative():
    tr = Trajectory.from_initial(0.0, 2.5, 0.0, g=1.0)
    h = 1e-6
    t = 0.7
    fd = (tr.position(t + h) - tr.position(t - h)) / (2 * h)
    assert tr.velocity(t) == pytest.approx(fd, abs=1e-8)


def test_moments_variance_never_negative(grid, params):
    # a one-node spike has zero spread; clamping must not produce NaN
    amp = np.zeros(grid.n, dtype=complex)
    amp[grid.n // 2] = 1.0
    m = moments(WavePacket(grid, amp), params)
    assert m.sigma_x == 0.0
    assert np.isfinite(m.sigma_p)


CANONICAL = PhysicalParams()
START = make_gaussian(Grid(-20.0, 20.0, 256), 0.0, 0.0, 1.0, CANONICAL)


@given(
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
            st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_batched_moments_and_overlaps_equal_single_calls(rows):
    states = [evolve_exact(START, replace(CANONICAL, g=g), t) for g, t in rows]
    batch_moments = moments(states, CANONICAL)
    batch_overlaps = overlap(START, states)
    for state, m, z in zip(states, batch_moments, batch_overlaps):
        assert astuple(m) == astuple(moments(state, CANONICAL))
        assert z == overlap(START, state)


def test_readouts_of_a_stack_above_256_kib_equal_single_calls():
    # 40 rows at n = 1024: a 640 KiB stack, where numpy reuses temporaries
    grid = Grid(-20.0, 20.0, 1024)
    states = [
        make_gaussian(grid, x0, p0, 1.0, CANONICAL)
        for x0, p0 in zip(np.linspace(-2.0, 2.0, 40), np.linspace(1.0, -1.0, 40))
    ]
    kets = states[1:] + states[:1]
    for state, ket, m, z in zip(
        states, kets, moments(states, CANONICAL), overlap(states, kets)
    ):
        assert astuple(m) == astuple(moments(state, CANONICAL))
        assert z == overlap(state, ket)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_moments_fail_closed_on_a_non_finite_state(psi0, params, bad):
    amp = np.array(psi0.amp)
    amp[psi0.grid.n // 2] = bad
    broken = WavePacket(psi0.grid, amp)
    with pytest.raises(ValueError, match="is not positive and finite"):
        moments(broken, params)
    with pytest.raises(ValueError, match="in row 1 is not positive"):
        moments([psi0, broken, psi0], params)


def test_moments_of_a_non_finite_state_raise_a_wavefall_error(psi0, params):
    amp = np.array(psi0.amp)
    amp[100] = math.nan
    with pytest.raises(NonFiniteState, match="norm nan"):
        moments(WavePacket(psi0.grid, amp), params)
    # a zero state is finite; its norm is refused as a plain ValueError
    with pytest.raises(ValueError, match="norm 0.0") as info:
        moments(WavePacket(psi0.grid, np.zeros(psi0.grid.n)), params)
    assert not isinstance(info.value, NonFiniteState)
