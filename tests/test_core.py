"""Grid, packet construction, transforms, moments, trajectories."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wavefall import (
    BadSigma,
    Grid,
    GridMismatch,
    GridOverflow,
    NonFiniteState,
    PhysicalParams,
    SolverConfig,
    Trajectory,
    WavePacket,
    apply_global_phase,
    evolve_exact,
    evolve_split_step,
    make_gaussian,
    moments,
    overlap,
    shift_packet,
)
from wavefall.core import (
    _MARGIN_AMPLITUDE,
    _check_margin,
    _momentum_amp,
    _require_finite,
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


@pytest.mark.parametrize("n", [256.0, True, "256"], ids=["float", "bool", "str"])
def test_grid_refuses_a_non_integer_count(n):
    # refused by name before the power-of-two test, which needs an int
    with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
        Grid(-20.0, 20.0, n)


def test_grid_accepts_numpy_integer_counts():
    assert Grid(-20.0, 20.0, np.int64(256)) == Grid(-20.0, 20.0, 256)


@pytest.mark.parametrize(
    "x_min, x_max",
    [(-math.inf, 20.0), (-20.0, math.inf), (math.nan, 20.0), (-1e308, 1e308)],
    ids=["-inf", "inf", "nan", "span-overflows"],
)
def test_grid_rejects_non_finite_bounds_and_span(x_min, x_max):
    with pytest.raises(ValueError, match="finite"):
        Grid(x_min, x_max, 256)


@pytest.mark.parametrize(
    "x_max, reason",
    [(5e-324, "dx=0.0"), (2.225073858507e-311, "the wavenumbers overflow")],
    ids=["dx-zero", "k-overflows"],
)
def test_grid_refuses_a_span_too_small_for_its_lattice(x_max, reason):
    # a finite, positive span whose dx is 0, or whose pi/dx overflows
    with pytest.raises(ValueError, match=f"span {x_max} is too small for n=8: {reason}"):
        Grid(0.0, x_max, 8)


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
    assert not np.shares_memory(psi.amp, raw)
    with pytest.raises(ValueError):
        psi.amp[0] = 2.0


@pytest.mark.parametrize(
    "kernel",
    [
        lambda psi, params: evolve_exact(psi, params, [0.3, 0.6]),
        lambda psi, params: shift_packet(psi, [0.5, -0.5]),
        lambda psi, params: evolve_split_step(psi, params, [0.3, 0.6], SolverConfig(4)),
        lambda psi, params: [apply_global_phase(psi, 0.4)],
    ],
    ids=["evolve_exact", "shift_packet", "evolve_split_step", "apply_global_phase"],
)
def test_kernel_packets_are_read_only_rows(psi0, params, kernel):
    # a kernel hands out the rows of its own fresh stack, not copies of them
    packets = kernel(psi0, params)
    stack = packets[0].amp.base
    assert stack is not None and all(psi.amp.base is stack for psi in packets)
    for psi in packets:
        assert not psi.amp.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            psi.amp[0] = 2.0
        assert not np.shares_memory(psi.amp, psi0.amp)


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


def _margin_refusal(stack, *args):
    """The text of the GridOverflow _check_margin(stack, ...) raises, and its .row."""
    with pytest.raises(GridOverflow) as info:
        _check_margin(stack, *args)
    return str(info.value), info.value.row


def _over(amplitude, nodes, where=""):
    return (
        f"ctx: boundary amplitude {amplitude} on the outer {nodes} nodes{where} "
        f"exceeds the 1e-10 margin; enlarge the grid or shorten the evolution"
    )


def test_margin_band_is_five_percent_of_the_nodes_at_each_end():
    for n, nodes in [(256, 12), (8, 1)]:
        amp = np.zeros((1, n), dtype=complex)
        amp[0, nodes] = 1.0  # first node inside the band
        _check_margin(amp, "ctx", False)
        amp[0, n - nodes] = 2e-9
        assert _margin_refusal(amp, "ctx", False) == (_over("2.000e-09", nodes), 0)
    amp = np.zeros((1, 64), dtype=complex)
    amp[0, 3] = 1e-9  # inside the 3-node guard band
    _check_margin(amp, "ctx", False)
    amp[0, 1] = 1e-9
    assert _margin_refusal(amp, "ctx", False) == (_over("1.000e-09", 3), 0)


def test_check_margin_names_the_first_row_over_the_margin():
    stack = np.zeros((3, 64), dtype=complex)
    stack[0, 3] = 1.0  # inside, not on the guard band
    stack[1, 1] = 1e-9
    stack[2, -1] = 2e-3
    assert _margin_refusal(stack, "ctx", True) == (
        _over("1.000e-09", 3, " in row 1"), 1
    )
    assert _margin_refusal(stack[::2], "ctx", True, [4, 7]) == (
        _over("2.000e-03", 3, " in row 7"), 7
    )
    assert _margin_refusal(stack[2:], "ctx", False) == (_over("2.000e-03", 3), 0)
    _check_margin(stack[:1], "ctx", False)


def test_nan_on_the_margin_fails_closed(grid):
    amp = np.zeros(grid.n, dtype=complex)
    amp[-1] = np.nan
    with pytest.raises(GridOverflow, match="nan-test: boundary amplitude nan"):
        _check_margin(amp[None], "nan-test", False)


# Values that must trip the guard on a guarded node, or sit just below it.
_EDGE_VALUES = [
    complex(math.nan, 0.0),
    complex(0.0, math.nan),
    complex(math.inf, 0.0),
    complex(0.0, -math.inf),
    complex(_MARGIN_AMPLITUDE, 0.0),
    complex(0.0, -_MARGIN_AMPLITUDE),
    complex(np.nextafter(_MARGIN_AMPLITUDE, 0.0), 0.0),
    complex(1e200, 0.0),  # finite, but its square overflows the sum to inf
]


# The clean case is one sum of squares; each example reaches its fallback:
# every guarded node just below the margin (the sum passes the squared
# margin, no node does), a finite 1e200 (the sum overflows), and a real
# stack as analytic._reference_margin passes.
@given(
    rows=st.integers(1, 24),
    n=st.sampled_from([8, 64, 256, 4096]),
    seed=st.integers(0, 2**32 - 1),
    filled=st.booleans(),
    real=st.booleans(),
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
@example(rows=3, n=64, seed=1, filled=True, real=False, injections=[])
@example(
    rows=3, n=64, seed=1, filled=False, real=False,
    injections=[(1, True, 2, complex(1e200, 0.0))],
)
@example(
    rows=2, n=256, seed=1, filled=True, real=True,
    injections=[(1, True, 5, complex(0.0, -_MARGIN_AMPLITUDE))],
)
def test_check_margin_refuses_exactly_the_rows_the_reference_finds(
    rows, n, seed, filled, real, injections
):
    rng = np.random.default_rng(seed)
    m = max(1, int(0.05 * n))
    # order-one interior amplitudes, guarded nodes below the margin
    stack = np.exp(2j * math.pi * rng.random((rows, n))) * rng.random((rows, n))
    stack[:, :m] *= 0.9 * _MARGIN_AMPLITUDE
    stack[:, n - m :] *= 0.9 * _MARGIN_AMPLITUDE
    if filled:
        stack[:, :m] = stack[:, n - m :] = np.nextafter(_MARGIN_AMPLITUDE, 0.0)
    if real:
        stack = np.abs(stack)
    for row, guarded, pick, value in injections:
        if guarded:
            node = [*range(m), *range(n - m, n)][pick % (2 * m)]
        else:
            node = m + pick % (n - 2 * m)
        stack[row % rows, node] = abs(value) if real else value
    # per-row maxima over the two end slices; a NaN propagates into its row
    worst = np.maximum(
        np.abs(stack[:, :m]).max(axis=-1), np.abs(stack[:, n - m :]).max(axis=-1)
    )
    over = np.flatnonzero(~(worst < 1e-10))
    names = [int(r) for r in rng.permutation(4 * rows)[:rows]]

    def at(row):
        return row + 1, 2 * row + 3, 0.125 * row

    if over.size == 0:
        _check_margin(stack, "ctx", False)
        _check_margin(stack, "ctx", True, names, at)
        return
    first = int(over[0])
    amplitude = f"{worst[first]:.3e}"
    assert _margin_refusal(stack, "ctx", False) == (_over(amplitude, m), first)
    name = names[first]
    where = f" in row {name} at step {name + 1}/{2 * name + 3} (t={0.125 * name:g})"
    assert _margin_refusal(stack, "ctx", True, names, at) == (
        _over(amplitude, m, where), name
    )


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


def _nan_at_100(psi):
    amp = np.array(psi.amp)
    amp[100] = math.nan
    return WavePacket(psi.grid, amp)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # t = 8 carries the packet 32 units down a 40-unit grid
        (
            lambda psi, p: evolve_exact([psi], p, 8.0),
            GridOverflow,
            r"^evolve_exact: boundary amplitude \S+ on the outer 12 nodes in row 0 "
            r"exceeds the 1e-10 margin; enlarge the grid or shorten the evolution$",
        ),
        (
            lambda psi, p: shift_packet([psi], 18.0),
            GridOverflow,
            r"^shift_packet: boundary amplitude \S+ on the outer 12 nodes in row 0 "
            r"exceeds the 1e-10 margin",
        ),
        (
            lambda psi, p: evolve_split_step([psi], p, 8.0, SolverConfig(64)),
            GridOverflow,
            r"^evolve_split_step: boundary amplitude \S+ on the outer 12 nodes "
            r"in row 0 at step \d+/64 \(t=\S+\) exceeds the 1e-10 margin; "
            r"enlarge the grid or shorten the evolution$",
        ),
        (
            lambda psi, p: evolve_exact([_nan_at_100(psi)], p, 1.0),
            NonFiniteState,
            r"^evolve_exact start state: non-finite amplitude in row 0 at node 100$",
        ),
        (
            lambda psi, p: shift_packet([_nan_at_100(psi)], 1.0),
            NonFiniteState,
            r"^shift_packet start state: non-finite amplitude in row 0 at node 100$",
        ),
        (
            lambda psi, p: evolve_split_step(
                [_nan_at_100(psi)], p, 1.0, SolverConfig(8)
            ),
            NonFiniteState,
            r"^evolve_split_step start state: non-finite amplitude in row 0 "
            r"at node 100$",
        ),
        (
            lambda psi, p: evolve_exact([psi], p, 1e200),
            NonFiniteState,
            r"^evolve_exact in row 0: result shift=inf ",
        ),
        (
            lambda psi, p: shift_packet([psi], [1e307]),
            NonFiniteState,
            r"^shift_packet in row 0: result shift_angle=inf ",
        ),
        (
            lambda psi, p: evolve_split_step(
                [psi], replace(p, m=1e-300), 1e10, SolverConfig(1)
            ),
            NonFiniteState,
            r"^evolve_split_step in row 0: result kinetic_angle=inf ",
        ),
    ],
    ids=[
        "evolve_exact-margin",
        "shift_packet-margin",
        "split-step-margin",
        "evolve_exact-start",
        "shift_packet-start",
        "split-step-start",
        "evolve_exact-angle",
        "shift_packet-angle",
        "split-step-angle",
    ],
)
def test_one_row_batched_calls_name_row_0_on_every_refusal(
    psi0, params, call, error, message
):
    # a batched call names its row by being batched, not by its row count;
    # evolve_exact and shift_packet named no row on a one-row overflow.  Both
    # error types carry the row as .row
    with pytest.raises(error, match=message) as info:
        call(psi0, params)
    assert info.value.row == 0


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
        _check_margin(amp[None], "edge-test", False)


def test_trajectory_initial_value_form():
    # xddot = -g: falling from rest toward -x for g > 0
    tr = Trajectory(1.0, 2.0, g=3.0)
    assert tr.position(0.0) == 1.0
    assert tr.position(2.0) == pytest.approx(1.0 + 4.0 - 0.5 * 3.0 * 4.0)
    assert tr.velocity(2.0) == pytest.approx(2.0 - 6.0)


def test_trajectory_velocity_is_position_derivative():
    tr = Trajectory(0.0, 2.5, g=1.0)
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


def test_moments_refuse_a_subnormal_norm_as_a_zero_one(psi0, params):
    # a norm below the smallest normal float has lost its precision to
    # underflow; it is refused like a zero norm, a plain ValueError
    tiny = WavePacket(psi0.grid, psi0.amp * 1e-160)
    with pytest.raises(ValueError) as info:
        moments([psi0, tiny], params)
    assert str(info.value) == (
        "moments: norm 9.995e-321 in row 1 is subnormal; cannot take moments"
    )
    assert not isinstance(info.value, NonFiniteState)
    # a normal norm of 1e-300 is taken; the means are scale-free
    small = moments(WavePacket(psi0.grid, psi0.amp * 1e-150), params)
    assert small.norm == pytest.approx(1e-300, rel=1e-9)
    assert small.mean_x == pytest.approx(moments(psi0, params).mean_x, abs=1e-12)
