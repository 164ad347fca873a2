"""The action difference that becomes the interference phase.

Compares the classical action between two fixed events with the free action
to the fall-corrected endpoint.  Their difference collapses to
-m g xt t - m g^2 t^3/6 no matter where the path starts, and exponentiating
it reproduces the phase factor relating the evolved quantum states.
"""

import numpy as np

from wavefall import (
    Grid,
    PhysicalParams,
    branch_states,
    classical_action,
    delta_action,
    make_gaussian,
    shifted_free_action,
)

params = PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=10.0)
t = 1.0

print("start x0 | S_classical | S_shifted_free | difference | closed form")
xt = -0.5  # where the canonical packet lands at t = 1
for x0 in (-3.0, -1.0, 0.0, 2.0):
    s_cl = classical_action(x0, xt, t, params)
    s_fr = shifted_free_action(x0, xt, t, params)
    print(
        f"{x0:8.1f} | {s_cl:11.6f} | {s_fr:14.6f} | "
        f"{s_cl - s_fr:10.6f} | {delta_action(xt, t, params):11.6f}"
    )

print("\nthe x0 column drops out of the difference entirely")

# the same number, read off the wavefunctions: the falling state divided by
# the interferometer's reference branch, the free flight recentered by the
# classical fall, is e^{i delta_action(x)/hbar} across the packet
grid = Grid(x_min=-20.0, x_max=20.0, n=256)
psi0 = make_gaussian(grid, 0.0, 0.0, 1.0, params)
full, base = branch_states(psi0, params, t)
mask = np.abs(base.amp) > 1e-3
measured = np.angle(full.amp[mask] / base.amp[mask])
predicted = np.array(delta_action(grid.x[mask], t, params))  # one row per node
wrapped = np.angle(np.exp(1j * predicted / params.hbar))
print(f"max phase mismatch across the packet: {np.abs(measured - wrapped).max():.3e}")
