"""Dense-matrix reference route: brute-force operators on small grids.

Everything here is deliberately independent of the factored propagator and of
the split-step solver, and uses no DFT: the Hamiltonian is a real symmetric
matrix built from closed forms, the propagator comes from its eigenpairs, and
Heisenberg-picture operators from explicit conjugation.  Sizes are guarded
because the cost is O(n^3); this module is a cross-check, not a production
solver.

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
    "dense_hamiltonian",
    "dense_propagator",
    "heisenberg_position",
    "commutator_element",
]

MAX_DENSE_N = 1024
MAX_COMMUTATOR_N = 512


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """An n x n matrix acting on position amplitudes of one Grid; real stays real."""

    grid: Grid
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = _frozen(self.matrix, (self.grid.n,) * 2, "matrix", keep_real=True)
        object.__setattr__(self, "matrix", matrix)

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


def dense_hamiltonian(grid: Grid, params: PhysicalParams) -> DenseOperator:
    """H = P^2/(2m) + m g X as a real symmetric matrix, with no DFT.

    The kinetic block is the periodic Fourier-grid matrix T[j, l] = c[|j - l|],
    c[0] = (hbar^2/2m) (pi/dx)^2 (1 + 2/n^2)/3 and, for d >= 1,
    c[d] = (hbar^2/m) (pi/L)^2 (-1)^d / sin^2(pi d/n), L the box length: the
    lattice's spectral kinetic term, summed in closed form (Marston and
    Balint-Kurti, J. Chem. Phys. 91, 3571, 1989; Colbert and Miller, J. Chem.
    Phys. 96, 1982, 1992).  Indexing by |j - l| makes H exactly symmetric.
    Guarded at n <= 1024.
    """
    if grid.n > MAX_DENSE_N:
        raise TooLarge(f"dense_hamiltonian: n={grid.n} exceeds the {MAX_DENSE_N} guard")
    d = np.arange(grid.n)
    c = params.hbar**2 / params.m * (np.pi / grid.length) ** 2 * (-1.0) ** d
    c[1:] /= np.sin(np.pi * d[1:] / grid.n) ** 2
    c[0] *= (grid.n**2 + 2) / 6.0  # (hbar^2/2m) (pi/dx)^2 (1 + 2/n^2)/3
    h = c[np.abs(d[:, None] - d)] + np.diag(params.m * params.g * grid.x)
    return DenseOperator(grid, h)


def dense_propagator(
    hamiltonian: DenseOperator, t: float, params: PhysicalParams
) -> DenseOperator:
    """U = V e^{-i w t / hbar} V^dagger from the eigenpairs (w, V) of Hermitian H.

    For a real matrix V is real, and U is formed as two real products written
    straight into one complex array: Re U = (V cos(w t/hbar)) V^T and
    Im U = (V sin(-w t/hbar)) V^T, half the flops of one complex product and
    no complex temporary.  A complex matrix, Hermitian or merely stored as
    complex, takes the one complex product.  The Hermiticity check runs on
    every call; the eigendecomposition is computed once per `hamiltonian`
    object and reused.
    """
    defect = hamiltonian.hermiticity_defect()
    scale = max(1.0, float(np.abs(hamiltonian.matrix).max()))
    if not defect <= 1e-12 * scale:
        raise NotHermitian(
            f"dense_propagator: Hermiticity defect {defect:.3e} exceeds tolerance"
        )
    w, v = hamiltonian._eigh
    angle = w * t / params.hbar
    if not np.isrealobj(v):
        u = (v * np.exp(-1j * angle)) @ v.conj().T
        return DenseOperator(hamiltonian.grid, u)
    u = np.empty(v.shape, dtype=complex)
    np.matmul(v * np.cos(angle), v.T, out=u.real)
    np.matmul(v * np.sin(-angle), v.T, out=u.imag)
    return DenseOperator(hamiltonian.grid, u)


def heisenberg_position(propagator: DenseOperator) -> DenseOperator:
    """x(t) = U^dagger X U on the propagator's grid; requires U unitary."""
    defect = propagator.unitarity_defect()
    if not defect <= 1e-9:
        raise NotUnitary(
            f"heisenberg_position: unitarity defect {defect:.3e} exceeds tolerance"
        )
    u, x = propagator.matrix, propagator.grid.x
    return DenseOperator(propagator.grid, u.conj().T @ (x[:, None] * u))


def commutator_element(phi: WavePacket, psi: WavePacket, x_t: DenseOperator) -> complex:
    """<phi| [x(t), x(0)] |psi> by explicit dense algebra.

    `x_t` is the Heisenberg-picture position from `heisenberg_position`, on
    the grid of both states.  For margin-localized states the value is
    -i hbar t / m * <phi|psi>, independent of g, to within
    1e-6 * (hbar t / m) * |<phi|psi>| + 1e-8.  The identity holds because
    x(t) = x + p t/m - g t^2/2 in the Heisenberg picture, so only the p term
    survives the commutator.  The element is formed from two matrix-vector
    products, <phi|x(t) (X psi)> - <X phi|x(t) psi>, with no n x n
    temporary.  Guarded at n <= 512; poorly localized inputs raise
    GridOverflow.
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
    x, bra = grid.x, np.conj(phi.amp)
    return complex(
        (bra @ (x_t.matrix @ (x * psi.amp)) - (bra * x) @ (x_t.matrix @ psi.amp))
        * grid.dx
    )
