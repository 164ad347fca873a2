"""Dense-matrix route: operators, propagator, Heisenberg commutator."""

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
    fourier_matrix,
    heisenberg_position,
    l2_distance,
    make_gaussian,
    overlap,
    to_momentum,
)


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
    return heisenberg_position(u, grid)


def test_fourier_matrix_is_unitary(small_grid):
    f = fourier_matrix(small_grid)
    eye = f @ f.conj().T
    assert np.abs(eye - np.eye(small_grid.n)).max() < 1e-12


def test_fourier_matrix_matches_momentum_transform(small_psi):
    # F uses absolute coordinates, so it differs from the dedicated
    # transform only by the real scale dx sqrt(n / 2 pi)
    g = small_psi.grid
    f = fourier_matrix(g)
    spec = f @ small_psi.amp
    phi = to_momentum(small_psi)
    ratio = g.dx * np.sqrt(g.n / (2.0 * np.pi))
    assert np.abs(phi.amp - spec * ratio).max() < 1e-12


def test_hamiltonian_is_exactly_hermitian(small_grid, params):
    h = dense_hamiltonian(small_grid, params)
    # symmetrized construction: the defect is identically zero
    assert h.hermiticity_defect() == 0.0


def test_propagator_is_unitary(small_grid, params):
    h = dense_hamiltonian(small_grid, params)
    u = dense_propagator(h, 1.0, params)
    assert u.unitarity_defect() < 1e-12


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
        heisenberg_position(not_u, small_grid)


def test_heisenberg_position_mean_follows_the_fall(small_grid, small_psi, params):
    u = dense_propagator(dense_hamiltonian(small_grid, params), 1.0, params)
    xt = heisenberg_position(u, small_grid)
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
    big = Grid(-20.0, 20.0, 1024)
    amp = np.zeros(big.n, dtype=complex)
    amp[big.n // 2] = 1.0
    spike = WavePacket(big, amp)
    with pytest.raises(TooLarge):
        commutator_element(spike, spike, DenseOperator(big, np.diag(big.x)))
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
    assert len(eigh_calls) == 1
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
        heisenberg_position(DenseOperator(small_grid, m), small_grid)


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
