"""How fast the relativistic action forgets it is relativistic.

Follows the weak-field geodesic, evaluates S = m c^2 (tau - t) against the
Newtonian action on the same path for growing c, and fits the error slope:
the gap closes as c^-2.  A parked clock checks the quadrature against the
closed-form gravitational rate.
"""

from wavefall import (
    PhysicalParams,
    Trajectory,
    free_fall_trajectory,
    nr_limit_check,
    proper_time,
    rel_action,
    static_proper_time,
)

params = PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=10.0)
traj = free_fall_trajectory(0.0, 0.0, params)

res = rel_action(traj, 1.0, params)
print(f"c = {params.c}: proper time {res.proper_time:.9f} (coordinate time 1)")
print(f"  S_rel = {res.action:.9f}, S_newton = {res.nr_action:.9f}")
print(f"  |gap| = {res.abs_error:.3e}")

report = nr_limit_check(traj, 1.0, params, [10.0, 20.0, 40.0, 80.0, 160.0])
print(f"\n{'c':>6} {'|S_rel - S_newton|':>20}")
for row in report.rows:
    print(f"{row.c:6.0f} {row.abs_error:20.3e}")
print(f"fitted error order: {report.fitted_order:.3f} (expect -2)")

x0 = 2.0
parked = Trajectory(x0, 0.0, g=0.0)
gap = abs(proper_time(parked, 1.0, params) - static_proper_time(x0, 1.0, params))
print(f"\nparked clock at x = {x0}: quadrature vs closed form gap {gap:.3e}")
