"""Dense-matrix reference route: brute-force operators on small grids.

Everything here is deliberately independent of the factored propagator and of
the split-step solver: the Hamiltonian is assembled as an explicit matrix
(momentum via conjugating a diagonal wavenumber lattice with the unitary DFT),
the propagator comes from a Hermitian eigendecomposition, and Heisenberg-
picture operators from explicit conjugation.  Sizes are guarded because the
cost is O(n^3); this module is a cross-check, not a production solver.

Each DenseOperator computes its eigendecomposition at most once, on first
use, so propagators at several times share one `eigh` when they are built
from the same Hamiltonian object.  The matrix is read-only, so the cached
eigenpairs cannot go stale; nothing is cached across objects.  Likewise
`commutator_element(phi, psi, x_t)` takes a ready Heisenberg-picture
operator, so one x(t) serves every (bra, ket) pair at that time.  Every
guard compares as `not defect <= tol`, so a NaN defect fails closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Grid, PhysicalParams, WavePacket, _frozen, check_margin
from .errors import GridMismatch, NotHermitian, NotUnitary, TooLarge

__all__ = [
    "DenseOperator",
    "fourier_matrix",
    "dense_hamiltonian",
    "dense_propagator",
    "heisenberg_position",
    "commutator_element",
]

MAX_DENSE_N = 1024
MAX_COMMUTATOR_N = 512


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """An n x n matrix acting on position-space amplitudes of one Grid."""

    grid: Grid
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        object.__setattr__(self, "matrix", _frozen(self.matrix, (n, n), "matrix"))

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def unitarity_defect(self) -> float:
        eye = np.eye(self.grid.n)
        return float(np.abs(self.matrix.conj().T @ self.matrix - eye).max())

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (w, v) of the matrix, taken as Hermitian; read-only."""
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def apply(self, psi: WavePacket) -> WavePacket:
        if psi.grid != self.grid:
            raise GridMismatch("operator and state grids differ")
        return WavePacket(self.grid, self.matrix @ psi.amp)


def fourier_matrix(grid: Grid) -> np.ndarray:
    """Unitary DFT matrix F[j, i] = e^{-i k_j x_i} / sqrt(n)."""
    return np.exp(-1j * np.outer(grid.k, grid.x)) / np.sqrt(grid.n)


def dense_hamiltonian(grid: Grid, params: PhysicalParams) -> DenseOperator:
    """H = P^2/(2m) + m g X with the spectral kinetic term, as a dense matrix.

    The kinetic block is F^dagger diag((hbar k)^2 / 2m) F; the result is
    symmetrized so the Hermiticity defect is exactly zero.  Guarded at
    n <= 1024.
    """
    if grid.n > MAX_DENSE_N:
        raise TooLarge(f"dense_hamiltonian: n={grid.n} exceeds the {MAX_DENSE_N} guard")
    f = fourier_matrix(grid)
    kinetic_diag = (params.hbar * grid.k) ** 2 / (2.0 * params.m)
    h = (f.conj().T * kinetic_diag) @ f
    h += np.diag(params.m * params.g * grid.x)
    h = 0.5 * (h + h.conj().T)
    return DenseOperator(grid, h)


def dense_propagator(
    hamiltonian: DenseOperator, t: float, params: PhysicalParams
) -> DenseOperator:
    """U = exp(-i H t / hbar) through the eigendecomposition of Hermitian H.

    The Hermiticity check runs on every call; the eigendecomposition is
    computed once per `hamiltonian` object and reused for later times.
    """
    defect = hamiltonian.hermiticity_defect()
    scale = max(1.0, float(np.abs(hamiltonian.matrix).max()))
    if not defect <= 1e-12 * scale:
        raise NotHermitian(
            f"dense_propagator: Hermiticity defect {defect:.3e} exceeds tolerance"
        )
    w, v = hamiltonian._eigh
    u = (v * np.exp(-1j * w * t / params.hbar)) @ v.conj().T
    return DenseOperator(hamiltonian.grid, u)


def heisenberg_position(propagator: DenseOperator) -> DenseOperator:
    """x(t) = U^dagger X U on the propagator's grid; requires U unitary."""
    defect = propagator.unitarity_defect()
    if not defect <= 1e-9:
        raise NotUnitary(
            f"heisenberg_position: unitarity defect {defect:.3e} exceeds tolerance"
        )
    u = propagator.matrix
    x = propagator.grid.x.astype(np.complex128)
    return DenseOperator(propagator.grid, u.conj().T @ (x[:, None] * u))


def commutator_element(phi: WavePacket, psi: WavePacket, x_t: DenseOperator) -> complex:
    """<phi| [x(t), x(0)] |psi> by explicit dense algebra.

    `x_t` is the Heisenberg-picture position from `heisenberg_position`, on
    the grid of both states.  For margin-localized states the value is
    -i hbar t / m * <phi|psi>, independent of g, to within
    1e-6 * (hbar t / m) * |<phi|psi>| + 1e-8.  The identity holds because
    x(t) = x + p t/m - g t^2/2 in the Heisenberg picture, so only the p term
    survives the commutator.  Guarded at n <= 512; poorly localized inputs
    raise GridOverflow.
    """
    grid = x_t.grid
    if grid.n > MAX_COMMUTATOR_N:
        raise TooLarge(
            f"commutator_element: n={grid.n} exceeds the {MAX_COMMUTATOR_N} guard"
        )
    if phi.grid != grid or psi.grid != grid:
        raise GridMismatch("commutator_element: state grids differ from operator grid")
    check_margin(phi, "commutator_element (phi)")
    check_margin(psi, "commutator_element (psi)")
    x = grid.x
    # [x(t), X] with diagonal X: right multiplication scales columns, left rows.
    comm = x_t.matrix * x[None, :] - x[:, None] * x_t.matrix
    return complex(np.conj(phi.amp) @ (comm @ psi.amp) * grid.dx)
