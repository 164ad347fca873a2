"""Three independent propagation routes cross-checked.

The factored closed form, the split-step spectral solver, and the dense
oracle, which evolves in the eigenbasis of H, evolve the same packet; the
script prints the pairwise L2 distances, then the split-step refinement
toward the closed form.  For a linear potential the whole Strang splitting error is the global
phase phi_N = m g^2 t^3 / (24 hbar N^2): the overlap phase of the split-step
state with the exact one equals phi_N, and the L2 error, |e^{i phi_N} - 1|,
falls as 1/N^2.
"""

import cmath

from wavefall import (
    Grid,
    PhysicalParams,
    SolverConfig,
    dense_hamiltonian,
    evolve_dense,
    evolve_exact,
    evolve_split_step,
    l2_distance,
    make_gaussian,
    overlap,
)

params = PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=10.0)
grid = Grid(x_min=-20.0, x_max=20.0, n=256)
psi0 = make_gaussian(grid, 0.0, 0.0, 1.0, params)
t = 1.0

exact = evolve_exact(psi0, params, t)
split = evolve_split_step(psi0, params, t, SolverConfig(2048))
dense = evolve_dense(dense_hamiltonian(grid, params), psi0, t)

print("pairwise L2 distances at t = 1:")
print(f"  factored vs dense  : {l2_distance(exact, dense):.3e}")
print(f"  factored vs split  : {l2_distance(exact, split):.3e}")
print(f"  split    vs dense  : {l2_distance(split, dense):.3e}")

print("\nsplit-step refinement toward the closed form:")
print(f"{'steps':>6} {'L2 error':>12} {'phase':>12} {'phi_N':>12}")
for n in (32, 64, 128, 256, 512, 1024):
    state = evolve_split_step(psi0, params, t, SolverConfig(n))
    phase = cmath.phase(overlap(exact, state))
    phi_n = params.m * params.g**2 * t**3 / (24.0 * params.hbar * n * n)
    print(f"{n:6d} {l2_distance(state, exact):12.3e} {phase:12.5e} {phi_n:12.5e}")
