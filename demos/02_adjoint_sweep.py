"""Backward multiplier sweep through a slide-and-exit trajectory.

The control pushes the state onto the surface, along it, and off again.
Running the adjoint backward through that history shows the two things
that make hybrid sweeps different from smooth ones: the multiplier
jumps at the located entry, and on sliding stretches it obeys the
algebraic condition g_x lam = 0 instead of a plain ODE.  The exit sits
on the breakpoint t = 0.9, a node with a fixed time, where the
multiplier does not jump (pi = 0) and keeps its normal part.
"""

import numpy as np

from slidoc import get_problem, integrate, run_adjoint

ocp, grid = get_problem("slide-exit")
traj = integrate(ocp, grid, steps_per_interval=8)
adj = run_adjoint(ocp, traj, grid, ocp.phi)

print("forward transitions:")
for rec in traj.transitions:
    print(f"  {rec.kind.value:14s} t = {rec.t:.6f}")

print("\nbackward jumps (pi scales the E_x^T kick; event None: a fixed time):")
for j in adj.jumps:
    print(f"  {j['kind']:14s} t = {j['t_t']:.6f}  event = {j['event']}  pi = {j['pi']:+.6f}")

# between the two events the multiplier is tangent to the surface; the
# exit node itself is not projected
ks = [rec.k for rec in traj.transitions]
inside = range(ks[0] + 1, ks[1])
worst = max(abs(float(ocp.g_x(traj.x[k]) @ adj.lam[k])) for k in inside)
print(f"\nmax |g_x lam| on the sliding stretch: {worst:.3e}")
print(f"lam(t0) = {adj.lam[0]}")
