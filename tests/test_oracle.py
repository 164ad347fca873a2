"""Dense-matrix route: the Hamiltonian, energy-basis evolution, Heisenberg commutator."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wavefall import (
    DenseOperator,
    Grid,
    GridMismatch,
    NegativeTime,
    NonFiniteState,
    NotHermitian,
    NotUnitary,
    PhysicalParams,
    TooLarge,
    WavePacket,
    commutator_element,
    dense_hamiltonian,
    evolve_dense,
    evolve_exact,
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


def test_energy_basis_is_unitary(small_grid, params):
    # U = V E V^dagger is unitary exactly when V is; hold V to 1e-12 for the
    # real H and for the complex operators of the next test
    h = dense_hamiltonian(small_grid, params)
    d = np.exp(1j * np.linspace(0.0, 3.0, small_grid.n))
    for operator in (
        h,
        DenseOperator(small_grid, d[:, None] * h.matrix * d.conj(), params.hbar),
        DenseOperator(small_grid, h.matrix.astype(complex), params.hbar),
    ):
        v = operator._eigh[1]
        assert np.abs(v.conj().T @ v - np.eye(small_grid.n)).max() < 1e-12


def test_propagator_of_a_complex_hamiltonian_matches_the_real_one(
    small_grid, small_psi, params
):
    # D H D^dagger, D a diagonal unitary, evolves psi to D U D^dagger psi; the
    # real H stored as complex evolves it to U psi
    h = dense_hamiltonian(small_grid, params)
    d = np.exp(1j * np.linspace(0.0, 3.0, small_grid.n))
    rotated = DenseOperator(small_grid, d[:, None] * h.matrix * d.conj(), params.hbar)
    stored = DenseOperator(small_grid, h.matrix.astype(complex), params.hbar)
    back = WavePacket(small_grid, d.conj() * small_psi.amp)
    expected = (
        d * evolve_dense(h, back, 1.0).amp,
        evolve_dense(h, small_psi, 1.0).amp,
    )
    for operator, want in zip((rotated, stored), expected):
        assert operator.matrix.dtype == np.complex128
        got = evolve_dense(operator, small_psi, 1.0).amp
        assert np.abs(got - want).max() < 1e-10


def test_propagator_matches_factored_evolution_on_the_default_packet(
    small_grid, small_psi, params
):
    # g = 1 at n = 64 lies outside the property's conservative domain below
    dense = evolve_dense(dense_hamiltonian(small_grid, params), small_psi, 1.0)
    assert l2_distance(dense, evolve_exact(small_psi, params, 1.0)) < 1e-10


# The draws of the property below keep only packets inside a conservative
# phase-space domain: on the box [-20, 20] the classical mean +- 9 sigma_x
# stays within |x| <= 14 over [0, t], and |p| + 8 sigma_p <= 0.7 hbar k_max.
# The routes carry no a-priori phase-space guard, so nothing else defines
# where the exact route and the oracle must agree; outside it the packet
# wraps in x or aliases in k.
def _inside_domain(grid, m, g, t, x0, p0, sigma0):
    hbar = 1.0
    times = [0.0, t] + ([p0 / (m * g)] if g != 0.0 and 0.0 < p0 / (m * g) < t else [])
    mean_x = max(abs(x0 + p0 * s / m - 0.5 * g * s * s) for s in times)
    sigma_x = math.hypot(sigma0, hbar * t / (2.0 * m * sigma0))
    mean_p = max(abs(p0), abs(p0 - m * g * t))
    k_max = math.pi / grid.dx
    return (
        sigma0 >= 2.0 * grid.dx
        and mean_x + 9.0 * sigma_x <= 14.0
        and mean_p + 8.0 * hbar / (2.0 * sigma0) <= 0.7 * hbar * k_max
    )


@given(
    m=st.floats(0.5, 3.0),
    g=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 2.0),
    x0=st.floats(-5.0, 5.0),
    p0=st.floats(-2.0, 2.0),
    sigma0=st.floats(0.7, 2.0),
    n=st.sampled_from([64, 128, 256]),
)
# at n = 64 the domain is narrow (sigma0 in [1.25, 1.55]), and draws seldom land in it
@example(m=1.0, g=0.3, t=1.0, x0=0.0, p0=0.0, sigma0=1.5, n=64)
def test_propagator_matches_factored_evolution(m, g, t, x0, p0, sigma0, n):
    grid = Grid(-20.0, 20.0, n)
    assume(_inside_domain(grid, m, g, t, x0, p0, sigma0))
    pars = PhysicalParams(m=m, g=g)
    psi = make_gaussian(grid, x0, p0, sigma0, pars)
    h = dense_hamiltonian(grid, pars)
    dense = evolve_dense(h, psi, t)
    assert l2_distance(dense, evolve_exact(psi, pars, t)) < 1e-10
    assert abs(dense.norm - psi.norm) < 1e-12
    # commutator_identity's tolerance: rel 1e-6 of hbar t/m |<psi|psi>|, abs 1e-8
    ov = overlap(psi, psi)
    expect = -1j * pars.hbar * t / pars.m * ov
    tol = 1e-6 * (pars.hbar * t / pars.m) * abs(ov) + 1e-8
    assert abs(commutator_element(psi, psi, h, t) - expect) < tol


def test_propagator_rejects_non_hermitian(small_grid, small_psi, params):
    bad = np.zeros((small_grid.n, small_grid.n), dtype=complex)
    bad[0, 1] = 1.0  # no conjugate partner
    with pytest.raises(NotHermitian):
        evolve_dense(DenseOperator(small_grid, bad, params.hbar), small_psi, 1.0)


def _scaled_column(v):
    v[:, 0] *= 1.01
    return v


def _nan_entry(v):
    v[3, 3] = np.nan
    return v


@pytest.mark.parametrize("edit", [_scaled_column, _nan_entry], ids=["scaled", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda h, psi: evolve_dense(h, psi, 1.0),
        lambda h, psi: commutator_element(psi, psi, h, 1.0),
    ],
    ids=["evolve_dense", "commutator_element"],
)
def test_non_orthogonal_eigenvectors_fail_closed(
    small_grid, small_psi, params, monkeypatch, edit, call
):
    # U = V E V^dagger is unitary only for an orthogonal V; a V that is not,
    # NaN included, must never reach a state
    real = np.linalg.eigh

    def seeded(a):
        w, v = real(a)
        return w, edit(v)

    monkeypatch.setattr(np.linalg, "eigh", seeded)
    h = dense_hamiltonian(small_grid, params)
    for _ in range(2):  # a refused decomposition is not cached
        with pytest.raises(NotUnitary, match="orthogonality"):
            call(h, small_psi)


def test_dense_mean_follows_the_fall(small_grid, small_psi, params):
    # <U psi| X U psi> = -g t^2 / 2 from rest
    state = evolve_dense(dense_hamiltonian(small_grid, params), small_psi, 1.0)
    mean = float(np.sum(small_grid.x * np.abs(state.amp) ** 2) * small_grid.dx)
    assert mean == pytest.approx(-0.5, abs=1e-9)


def test_commutator_is_minus_i_hbar_t_over_m(small_grid, params):
    psi = make_gaussian(small_grid, 0.0, 0.0, 1.5, params)
    phi = make_gaussian(small_grid, 1.5, 0.0, 1.5, params)
    t = 0.7
    val = commutator_element(phi, psi, dense_hamiltonian(small_grid, params), t)
    expected = -1j * params.hbar * t / params.m * overlap(phi, psi)
    assert abs(val - expected) < 1e-6 * abs(expected) + 1e-8


def test_commutator_independent_of_g(small_grid, params):
    psi = make_gaussian(small_grid, 0.0, 0.0, 1.5, params)
    free = PhysicalParams(hbar=1.0, m=1.0, g=0.0, c=10.0)
    v_g, v_0 = (
        commutator_element(psi, psi, dense_hamiltonian(small_grid, p), 0.5)
        for p in (params, free)
    )
    assert abs(v_g - v_0) < 1e-8


def test_commutator_guards(small_grid, params, psi0):
    # the n = 2048 size guard: test_commutator_size_guard_runs_before_any_eigh
    chi = make_gaussian(small_grid, 0.0, 0.0, 1.5, params)
    with pytest.raises(GridMismatch):
        commutator_element(chi, psi0, dense_hamiltonian(small_grid, params), 1.0)


@pytest.mark.parametrize("t", [-0.5, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_bad_durations_are_refused(small_grid, small_psi, params, eigh_calls, t):
    h = dense_hamiltonian(small_grid, params)
    # a NaN or inf t is named as not finite, a negative one as negative
    error, text = (
        (NegativeTime, "t must be finite and >= 0, got -0.5")
        if math.isfinite(t)
        else (NonFiniteState, f"t={t} is not finite")
    )
    with pytest.raises(error, match=f"^evolve_dense: {text}$"):
        evolve_dense(h, small_psi, t)
    with pytest.raises(error, match=f"^commutator_element: {text}$"):
        commutator_element(small_psi, small_psi, h, t)
    assert eigh_calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_states_are_refused_before_any_product(
    small_grid, small_psi, params, eigh_calls, bad
):
    amp = small_psi.amp.copy()
    amp[32] = bad
    broken = WavePacket(small_grid, amp)
    h = dense_hamiltonian(small_grid, params)
    with pytest.raises(NonFiniteState, match=r"^evolve_dense start state: .* node 32$"):
        evolve_dense(h, broken, 1.0)
    for args, which in (((broken, small_psi), "phi"), ((small_psi, broken), "psi")):
        with pytest.raises(
            NonFiniteState, match=rf"^commutator_element \({which}\): .* node 32$"
        ):
            commutator_element(*args, h, 1.0)
    assert eigh_calls == []


def test_operator_evolves_with_the_hbar_it_was_built_with(small_grid, params):
    pars = PhysicalParams(hbar=2.0, m=1.0, g=1.0, c=10.0)
    psi = make_gaussian(small_grid, 0.0, 0.0, 1.5, pars)
    h = dense_hamiltonian(small_grid, pars)
    assert h.hbar == 2.0
    assert l2_distance(evolve_dense(h, psi, 1.0), evolve_exact(psi, pars, 1.0)) < 1e-6
    # the same matrix declared with hbar = 1 is another evolution
    other = DenseOperator(small_grid, h.matrix, params.hbar)
    assert l2_distance(evolve_dense(other, psi, 1.0), evolve_exact(psi, pars, 1.0)) > 0.1


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
def test_operator_hbar_must_be_finite_and_positive(small_grid, hbar):
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        DenseOperator(small_grid, np.eye(small_grid.n), hbar)


def test_operator_from_a_bare_matrix_must_be_given_its_hbar(small_grid):
    with pytest.raises(TypeError):
        DenseOperator(small_grid, np.eye(small_grid.n))


def test_propagators_share_one_eigendecomposition_per_hamiltonian(
    small_grid, small_psi, params, eigh_calls
):
    h = dense_hamiltonian(small_grid, params)
    evolve_dense(h, small_psi, 0.5)
    evolve_dense(h, small_psi, 1.0)
    commutator_element(small_psi, small_psi, h, 1.0)
    assert eigh_calls == [((small_grid.n, small_grid.n), np.float64)]
    evolve_dense(dense_hamiltonian(small_grid, params), small_psi, 1.0)
    assert len(eigh_calls) == 2  # a new Hamiltonian object decomposes afresh


def test_propagators_from_one_hamiltonian_equal_fresh_ones(small_grid, small_psi, params):
    h = dense_hamiltonian(small_grid, params)
    for t in (0.5, 1.0):
        shared = evolve_dense(h, small_psi, t)
        fresh = evolve_dense(dense_hamiltonian(small_grid, params), small_psi, t)
        assert np.array_equal(shared.amp, fresh.amp)


def test_commutator_size_guard_runs_before_any_eigh(params, eigh_calls):
    big = Grid(-20.0, 20.0, 2048)
    amp = np.zeros(big.n, dtype=complex)
    amp[big.n // 2] = 1.0
    spike = WavePacket(big, amp)
    h = DenseOperator(big, np.diag(big.x), params.hbar)
    with pytest.raises(TooLarge):
        commutator_element(spike, spike, h, 1.0)
    with pytest.raises(TooLarge):
        evolve_dense(h, spike, 1.0)
    assert eigh_calls == []


def test_nan_entry_fails_the_hermiticity_check(small_grid, small_psi, params):
    m = np.eye(small_grid.n, dtype=complex)
    m[3, 3] = np.nan
    with pytest.raises(NotHermitian):
        evolve_dense(DenseOperator(small_grid, m, params.hbar), small_psi, 1.0)


def test_nan_gravity_hamiltonian_fails_the_hermiticity_check(small_grid, small_psi):
    # PhysicalParams rejects a NaN g; force one past it, so that the oracle's
    # own guard is shown to fail closed on what reaches it.
    pars = PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=10.0)
    object.__setattr__(pars, "g", float("nan"))
    with pytest.raises(NotHermitian):
        evolve_dense(dense_hamiltonian(small_grid, pars), small_psi, 1.0)


def test_evolution_grid_mismatch(small_grid, params, psi0):
    with pytest.raises(GridMismatch):
        evolve_dense(dense_hamiltonian(small_grid, params), psi0, 1.0)


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
    # they pass the margin check.  The reference builds X_t X - X X_t from
    # U = expm(-i H t/hbar), independent of the oracle's own eigh; the scale
    # is the sum of the two terms' magnitudes
    expm = pytest.importorskip("scipy.linalg").expm
    pars = PhysicalParams(hbar=1.0, m=1.0, g=g, c=10.0)
    h, t = dense_hamiltonian(small_grid, pars), 0.7
    u = expm(-1j * h.matrix * t / pars.hbar)
    n, x, dx = small_grid.n, small_grid.x, small_grid.dx
    x_t = u.conj().T @ (x[:, None] * u)
    amps = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    amps[:, : n // 4] = amps[:, -n // 4 :] = 0.0
    phi, psi = (WavePacket(small_grid, amp) for amp in amps)
    comm = x_t @ np.diag(x) - np.diag(x) @ x_t
    want = np.vdot(phi.amp, comm @ psi.amp) * dx
    a_phi, a_xt, a_psi = np.abs(phi.amp), np.abs(x_t), np.abs(psi.amp)
    a_x = np.abs(x)
    scale = (a_phi @ (a_xt @ (a_x * a_psi)) + (a_phi * a_x) @ (a_xt @ a_psi)) * dx
    assert abs(commutator_element(phi, psi, h, t) - want) <= 1e-12 * scale
