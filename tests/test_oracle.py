"""Dense-matrix route: operators, propagator, Heisenberg commutator."""

import ast
from pathlib import Path

import numpy as np
import pytest

from wavefall import (
    DenseOperator,
    Grid,
    GridMismatch,
    NotHermitian,
    NotUnitary,
    PhysicalParams,
    TooLarge,
    WavePacket,
    commutator_element,
    dense_hamiltonian,
    dense_propagator,
    evolve_exact,
    heisenberg_position,
    l2_distance,
    make_gaussian,
    overlap,
)
from wavefall import oracle
from wavefall.core import _momentum_amp


@pytest.fixture
def small_grid():
    # dense algebra is O(n^3); n=64 keeps these tests quick
    return Grid(-20.0, 20.0, 64)


@pytest.fixture
def small_psi(small_grid, params):
    return make_gaussian(small_grid, 0.0, 0.0, 1.5, params)


def x_of_t(grid, params, t):
    """Heisenberg-picture position x(t) from a fresh Hamiltonian."""
    u = dense_propagator(dense_hamiltonian(grid, params), t, params)
    return heisenberg_position(u)


def wavenumbers(grid):
    """k_j = 2 pi j / L in FFT order: j = 0, ..., n/2 - 1, then -n/2, ..., -1."""
    return 2.0 * np.pi / grid.length * np.r_[0 : grid.n // 2, -grid.n // 2 : 0]


def dft_matrix(grid):
    """Unitary DFT matrix F[j, i] = e^{-i k_j x_i} / sqrt(n)."""
    return np.exp(-1j * np.outer(wavenumbers(grid), grid.x)) / np.sqrt(grid.n)


def spectral_hamiltonian(grid, params):
    """F^dagger diag((hbar k)^2 / 2m) F + diag(m g x), the oracle's reference."""
    f = dft_matrix(grid)
    kinetic = (params.hbar * wavenumbers(grid)) ** 2 / (2.0 * params.m)
    return (f.conj().T * kinetic) @ f + np.diag(params.m * params.g * grid.x)


def test_momentum_transform_matches_explicit_dft_sum(small_psi):
    # amp_k(k_j) = dx / sqrt(2 pi) sum_i amp(x_i) e^{-i k_j x_i}, in FFT layout
    g = small_psi.grid
    f = dft_matrix(g)
    assert np.abs(f @ f.conj().T - np.eye(g.n)).max() < 1e-12
    explicit = g.dx * np.sqrt(g.n / (2.0 * np.pi)) * (f @ small_psi.amp)
    phi = _momentum_amp(np.array(small_psi.amp), g)
    assert np.abs(phi - explicit).max() < 1e-12


@pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
@pytest.mark.parametrize(
    "hbar, m, g, bounds",
    [(1.0, 1.0, 1.0, (-20.0, 20.0)), (1.3, 0.7, -2.5, (-3.0, 9.0)),
     (2.0, 0.01, 10.0, (-100.0, -50.0))],
)
def test_hamiltonian_is_the_spectral_construction_in_closed_form(n, hbar, m, g, bounds):
    grid = Grid(*bounds, n)
    pars = PhysicalParams(hbar=hbar, m=m, g=g, c=10.0)
    h = dense_hamiltonian(grid, pars).matrix
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)
    ref = spectral_hamiltonian(grid, pars)
    assert np.abs(h - ref).max() <= 1e-12 * np.abs(h).max()


def test_oracle_source_reads_no_fft_and_no_wavenumbers():
    # the oracle shares no DFT code with the routes it cross-checks
    nodes = list(ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))))
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    words = attrs | {n.id for n in nodes if isinstance(n, ast.Name)}
    words |= {n.name for n in nodes if isinstance(n, ast.alias)}
    words |= {n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)}
    assert [word for word in words if "fft" in word.lower()] == []
    assert "k" not in attrs


def test_hamiltonian_is_exactly_hermitian(small_grid, params):
    h = dense_hamiltonian(small_grid, params)
    # real, indexed by |j - l|: the defect is identically zero
    assert h.matrix.dtype == np.float64
    assert h.hermiticity_defect() == 0.0


def test_propagator_is_unitary(small_grid, params):
    h = dense_hamiltonian(small_grid, params)
    u = dense_propagator(h, 1.0, params)
    assert u.unitarity_defect() < 1e-12


def test_propagator_of_a_complex_hamiltonian_matches_the_real_one(small_grid, params):
    # D H D^dagger, D a diagonal unitary, has the propagator D U D^dagger;
    # the real H stored as complex has U itself
    h = dense_hamiltonian(small_grid, params)
    u = dense_propagator(h, 1.0, params).matrix
    d = np.exp(1j * np.linspace(0.0, 3.0, small_grid.n))
    rotated = DenseOperator(small_grid, d[:, None] * h.matrix * d.conj())
    stored = DenseOperator(small_grid, h.matrix.astype(complex))
    for operator, expected in [(rotated, d[:, None] * u * d.conj()), (stored, u)]:
        assert operator.matrix.dtype == np.complex128
        u_c = dense_propagator(operator, 1.0, params)
        assert u_c.unitarity_defect() < 1e-12
        assert np.abs(u_c.matrix - expected).max() < 1e-10


def test_propagator_matches_factored_evolution(small_grid, small_psi, params):
    u = dense_propagator(dense_hamiltonian(small_grid, params), 1.0, params)
    dense_out = u.apply(small_psi)
    exact_out = evolve_exact(small_psi, params, 1.0)
    assert l2_distance(dense_out, exact_out) < 1e-10


def test_propagator_rejects_non_hermitian(small_grid, params):
    bad = np.zeros((small_grid.n, small_grid.n), dtype=complex)
    bad[0, 1] = 1.0  # no conjugate partner
    with pytest.raises(NotHermitian):
        dense_propagator(DenseOperator(small_grid, bad), 1.0, params)


def test_heisenberg_position_rejects_non_unitary(small_grid):
    not_u = DenseOperator(small_grid, 2.0 * np.eye(small_grid.n, dtype=complex))
    with pytest.raises(NotUnitary):
        heisenberg_position(not_u)


def test_heisenberg_position_mean_follows_the_fall(small_grid, small_psi, params):
    u = dense_propagator(dense_hamiltonian(small_grid, params), 1.0, params)
    xt = heisenberg_position(u)
    val = overlap(small_psi, xt.apply(small_psi))
    assert val.real == pytest.approx(-0.5, abs=1e-9)  # -g t^2 / 2 from rest


def test_commutator_is_minus_i_hbar_t_over_m(small_grid, params):
    psi = make_gaussian(small_grid, 0.0, 0.0, 1.5, params)
    phi = make_gaussian(small_grid, 1.5, 0.0, 1.5, params)
    t = 0.7
    val = commutator_element(phi, psi, x_of_t(small_grid, params, t))
    expected = -1j * params.hbar * t / params.m * overlap(phi, psi)
    assert abs(val - expected) < 1e-6 * abs(expected) + 1e-8


def test_commutator_independent_of_g(small_grid, params):
    psi = make_gaussian(small_grid, 0.0, 0.0, 1.5, params)
    free = PhysicalParams(hbar=1.0, m=1.0, g=0.0, c=10.0)
    v_g = commutator_element(psi, psi, x_of_t(small_grid, params, 0.5))
    v_0 = commutator_element(psi, psi, x_of_t(small_grid, free, 0.5))
    assert abs(v_g - v_0) < 1e-8


def test_commutator_guards(small_grid, params, psi0):
    # the n = 1024 size guard: test_commutator_size_guard_runs_before_any_eigh
    chi = make_gaussian(small_grid, 0.0, 0.0, 1.5, params)
    with pytest.raises(GridMismatch):
        x_op = DenseOperator(small_grid, np.diag(small_grid.x))
        commutator_element(chi, psi0, x_op)


def test_propagators_share_one_eigendecomposition_per_hamiltonian(
    small_grid, params, eigh_calls
):
    h = dense_hamiltonian(small_grid, params)
    dense_propagator(h, 0.5, params)
    dense_propagator(h, 1.0, params)
    assert eigh_calls == [((small_grid.n, small_grid.n), np.float64)]
    dense_propagator(dense_hamiltonian(small_grid, params), 1.0, params)
    assert len(eigh_calls) == 2  # a new Hamiltonian object decomposes afresh


def test_propagators_from_one_hamiltonian_equal_fresh_ones(small_grid, params):
    h = dense_hamiltonian(small_grid, params)
    for t in (0.5, 1.0):
        shared = dense_propagator(h, t, params)
        fresh = dense_propagator(dense_hamiltonian(small_grid, params), t, params)
        assert np.array_equal(shared.matrix, fresh.matrix)


def test_commutator_size_guard_runs_before_any_eigh(params, eigh_calls):
    big = Grid(-20.0, 20.0, 1024)
    amp = np.zeros(big.n, dtype=complex)
    amp[big.n // 2] = 1.0
    spike = WavePacket(big, amp)
    with pytest.raises(TooLarge):
        commutator_element(spike, spike, DenseOperator(big, np.diag(big.x)))
    assert eigh_calls == []


def test_nan_entry_fails_the_hermiticity_check(small_grid, params):
    m = np.eye(small_grid.n, dtype=complex)
    m[3, 3] = np.nan
    with pytest.raises(NotHermitian):
        dense_propagator(DenseOperator(small_grid, m), 1.0, params)


def test_nan_gravity_hamiltonian_fails_the_hermiticity_check(small_grid):
    # PhysicalParams rejects a NaN g; force one past it, so that the oracle's
    # own guard is shown to fail closed on what reaches it.
    pars = PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=10.0)
    object.__setattr__(pars, "g", float("nan"))
    with pytest.raises(NotHermitian):
        dense_propagator(dense_hamiltonian(small_grid, pars), 1.0, pars)


def test_nan_entry_fails_the_unitarity_check(small_grid):
    m = np.eye(small_grid.n, dtype=complex)
    m[3, 3] = np.nan
    with pytest.raises(NotUnitary):
        heisenberg_position(DenseOperator(small_grid, m))


def test_matrix_element_grid_mismatch(small_grid, small_psi, psi0):
    xop = DenseOperator(small_grid, np.diag(small_grid.x))
    with pytest.raises(GridMismatch):
        overlap(psi0, xop.apply(small_psi))


def test_ground_state_localizes_at_the_potential_floor(params):
    # periodic lattice turns V = x into a sawtooth whose minimum sits at
    # x_min; the ground state is an edge-pinned triangular-well state.
    # Bounds frozen from inspection: E0 = -18.35 for this grid, peak at
    # x = -19.2, five orders of magnitude down by mid grid.
    g = Grid(-20.0, 20.0, 256)
    h = dense_hamiltonian(g, params)
    w, v = np.linalg.eigh(h.matrix)
    assert -18.5 < w[0] < -18.0
    amp = np.abs(v[:, 0])
    assert int(np.argmax(amp)) < g.n // 20
    assert amp[g.n // 2] / amp.max() < 1e-5
    # triangular-well level spacings shrink with energy
    gaps = np.diff(w[:4])
    assert gaps[0] > gaps[1] > gaps[2] > 0


@pytest.mark.parametrize("g", [0.0, 1.0])
def test_commutator_element_equals_the_dense_commutator(small_grid, rng, g):
    # random complex states, zero on the outer quarter at each end so that
    # they pass the margin check; the reference builds X_t X - X X_t, and the
    # scale is the sum of the two terms' magnitudes
    pars = PhysicalParams(hbar=1.0, m=1.0, g=g, c=10.0)
    x_t = x_of_t(small_grid, pars, 0.7)
    n, x, dx = small_grid.n, small_grid.x, small_grid.dx
    amps = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    amps[:, : n // 4] = amps[:, -n // 4 :] = 0.0
    phi, psi = (WavePacket(small_grid, amp) for amp in amps)
    comm = x_t.matrix @ np.diag(x) - np.diag(x) @ x_t.matrix
    want = np.vdot(phi.amp, comm @ psi.amp) * dx
    a_phi, a_xt, a_psi = np.abs(phi.amp), np.abs(x_t.matrix), np.abs(psi.amp)
    a_x = np.abs(x)
    scale = (a_phi @ (a_xt @ (a_x * a_psi)) + (a_phi * a_x) @ (a_xt @ a_psi)) * dx
    assert abs(commutator_element(phi, psi, x_t) - want) <= 1e-12 * scale
