"""Dense-matrix reference route: brute-force operators on small grids.

Everything here is deliberately independent of the factored propagator and of
the split-step solver, and uses no DFT: the Hamiltonian is a real symmetric
matrix built from closed forms, and time evolution runs in its energy basis.
With H = V diag(w) V^dagger, U(t) psi = V (e^{-i w t/hbar} * (V^dagger psi)),
one formula for real and complex H (Moler and Van Loan, SIAM Review 45, 3,
2003).  No n x n propagator is formed: after `eigh`, U costs matrix-vector
products only.

Each DenseOperator decomposes itself at most once, on first use, and every
guard of that O(n^3) work runs there: size, Hermiticity, and orthogonality
of V.  U = V E V^dagger is unitary exactly when V is orthogonal, so the last
is the unitarity guard.  The matrix is read-only, so the cached eigenpairs
cannot go stale.  This module caches nothing beyond each operator's own
eigenpairs: one verify run shares each Hamiltonian between its checks, and
nothing is shared across runs.  A guard that fails stores nothing, so it
raises again on every use.  Every guard compares as `not defect <= tol`, so
a NaN defect fails closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Grid,
    PhysicalParams,
    WavePacket,
    _check_margin,
    _frozen,
    _require_finite,
    _require_times,
)
from .errors import GridMismatch, NotHermitian, NotUnitary, TooLarge

__all__ = [
    "DenseOperator",
    "dense_hamiltonian",
    "evolve_dense",
    "commutator_element",
]

MAX_DENSE_N = 1024


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """An n x n Hamiltonian on position amplitudes of one Grid; real stays real.

    hbar is the quantum scale its evolution U(t) = e^{-i H t/hbar} uses, so
    an operator cannot be evolved with a hbar other than the one it was
    built with; it must be finite and positive (ValueError otherwise).
    """

    grid: Grid
    matrix: np.ndarray
    hbar: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be finite and positive, got {self.hbar}")
        matrix = _frozen(self.matrix, (self.grid.n,) * 2, "matrix", keep_real=True)
        object.__setattr__(self, "matrix", matrix)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (w, V), read-only, after the guards that fail closed."""
        n = self.grid.n
        if n > MAX_DENSE_N:
            raise TooLarge(f"dense oracle: n={n} exceeds the {MAX_DENSE_N} guard")
        defect = self.hermiticity_defect()
        scale = max(1.0, float(np.abs(self.matrix).max()))
        if not defect <= 1e-12 * scale:
            raise NotHermitian(
                f"dense oracle: Hermiticity defect {defect:.3e} exceeds tolerance"
            )
        w, v = np.linalg.eigh(self.matrix)
        defect = float(np.abs(v.conj().T @ v - np.eye(n)).max())
        if not defect <= 1e-9:
            raise NotUnitary(
                f"dense oracle: orthogonality defect {defect:.3e} of V exceeds tolerance"
            )
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


def dense_hamiltonian(grid: Grid, params: PhysicalParams) -> DenseOperator:
    """H = P^2/(2m) + m g X as a real symmetric matrix, with no DFT.

    The kinetic block is the periodic Fourier-grid matrix T[j, l] = c[|j - l|],
    c[0] = (hbar^2/2m) (pi/dx)^2 (1 + 2/n^2)/3 and, for d >= 1,
    c[d] = (hbar^2/m) (pi/L)^2 (-1)^d / sin^2(pi d/n), L the box length: the
    lattice's spectral kinetic term, summed in closed form (Marston and
    Balint-Kurti, J. Chem. Phys. 91, 3571, 1989; Colbert and Miller, J. Chem.
    Phys. 96, 1982, 1992).  Indexing by |j - l| makes H exactly symmetric.
    The operator records params.hbar.  Guarded at n <= 1024.
    """
    if grid.n > MAX_DENSE_N:
        raise TooLarge(f"dense_hamiltonian: n={grid.n} exceeds the {MAX_DENSE_N} guard")
    d = np.arange(grid.n)
    c = params.hbar**2 / params.m * (np.pi / grid.length) ** 2 * (-1.0) ** d
    c[1:] /= np.sin(np.pi * d[1:] / grid.n) ** 2
    c[0] *= (grid.n**2 + 2) / 6.0  # (hbar^2/2m) (pi/dx)^2 (1 + 2/n^2)/3
    h = c[np.abs(d[:, None] - d)] + np.diag(params.m * params.g * grid.x)
    return DenseOperator(grid, h, params.hbar)


def _times(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for complex a, as two products, so a real m is never cast to complex."""
    return a.real @ m + 1j * (a.imag @ m)


def _evolve(hamiltonian: DenseOperator, amps: np.ndarray, t: float) -> np.ndarray:
    """U(t) applied to each row of amps: V (e^{-i w t/hbar} * (V^dagger a))."""
    w, v = hamiltonian._eigh
    energy = _times(amps, v.conj()) * np.exp(-1j * w * t / hamiltonian.hbar)
    return _times(energy, v.T)


def evolve_dense(hamiltonian: DenseOperator, psi: WavePacket, t: float) -> WavePacket:
    """U(t) psi in the energy basis of `hamiltonian`, with its own hbar; four
    real matrix-vector products for a real H.  GridMismatch off the operator's
    grid, NonFiniteState naming t for a t that is NaN or inf, NegativeTime for
    a negative t, NonFiniteState naming the node for a start state holding
    NaN or inf.
    """
    if psi.grid != hamiltonian.grid:
        raise GridMismatch("evolve_dense: operator and state grids differ")
    _require_times("evolve_dense", [t])
    _require_finite(psi.amp[None], "evolve_dense start state", False)
    return WavePacket(psi.grid, _evolve(hamiltonian, psi.amp, t))


def commutator_element(
    phi: WavePacket,
    psi: WavePacket,
    hamiltonian: DenseOperator,
    t: float,
) -> complex:
    """<phi| [x(t), x(0)] |psi> with x(t) = U^dagger X U, by dense algebra.

    x(t) itself is never formed.  By associativity,
    <phi|x(t) X psi> = <U phi| X U(X psi)> and <phi|X x(t) psi> =
    <U(X phi)| X U psi>, so the element is the Heisenberg-picture one, built
    from four evolved states.  For margin-localized states the value is
    -i hbar t / m * <phi|psi>, independent of g, to within
    1e-6 * (hbar t / m) * |<phi|psi>| + 1e-8: x(t) = x + p t/m - g t^2/2 in
    the Heisenberg picture, so only the p term survives the commutator.
    Poorly localized inputs raise GridOverflow, and a state holding NaN or
    inf raises NonFiniteState naming phi or psi and the node.
    """
    grid = hamiltonian.grid
    if phi.grid != grid or psi.grid != grid:
        raise GridMismatch("commutator_element: state grids differ from operator grid")
    _require_times("commutator_element", [t])
    _require_finite(phi.amp[None], "commutator_element (phi)", False)
    _require_finite(psi.amp[None], "commutator_element (psi)", False)
    _check_margin(phi.amp[None], "commutator_element (phi)", False)
    _check_margin(psi.amp[None], "commutator_element (psi)", False)
    x = grid.x
    u_phi, u_x_phi, u_psi, u_x_psi = _evolve(
        hamiltonian, np.stack([phi.amp, x * phi.amp, psi.amp, x * psi.amp]), t
    )
    return complex((np.vdot(u_phi, x * u_x_psi) - np.vdot(u_x_phi, x * u_psi)) * grid.dx)
