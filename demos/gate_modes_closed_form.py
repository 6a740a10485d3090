#!/usr/bin/env python3
"""Solve every mode of the transistor-level NOR and check one against pen and paper.

The gate's analog core is a two-node RC network whose topology depends on the
digital inputs, so each of the four input pairs gives one affine ODE.  For the
(1, 1) mode the network decouples and the solution is elementary; the script
solves all four modes numerically and verifies that one closed form.
"""

import math

from hybridgates import Trajectory, make_simple_nor, solve_mode

nor = make_simple_nor()
x0 = (0.3, 0.9)  # (internal node, output node), volts with v_dd = 1
grid = [float(t) for t in range(11)]

print("mode constants (K = Lipschitz bound, M = velocity bound on the box):")
for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
    mode = nor.choice(bits, bits, None)
    print(f"  inputs {bits}: K={mode.lipschitz_k:.4f}  M={mode.rhs_bound_m:.4f}")

print(f"\ntrajectories from x0 = {x0}:")
for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
    mode = nor.choice(bits, bits, None)
    traj = Trajectory([solve_mode(mode, x0, 0.0, 10.0, nor.state_space)])
    u, w = zip(*traj.values(grid))
    print(f"  inputs {bits}: output node w(1)={w[1]:.6f}  w(5)={w[5]:.6f}  w(10)={w[10]:.6f}")

# (1, 1): both pull-downs conduct, the internal node floats, so
# u(t) = u0 and w(t) = w0 * exp(-2 t) at unit resistances and capacitances.
mode = nor.choice((1, 1), (1, 1), None)
traj = Trajectory([solve_mode(mode, x0, 0.0, 10.0, nor.state_space)])
exact = [(x0[0], x0[1] * math.exp(-2.0 * t)) for t in grid]
err = max(abs(v - e) for row, want in zip(traj.values(grid), exact) for v, e in zip(row, want))
print(f"\n(1, 1) closed form u0, w0*exp(-2t): max abs deviation {err:.3e}")
