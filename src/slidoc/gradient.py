"""Reduced gradients of endpoint functionals over the control grid.

The derivative of a functional w(x(tf)) with respect to the constant
control of interval n collects -F_u^T(k) R(k) from every step k inside
the interval, where R(k) is the step's adjoint multiplier vector.  The
backward sweep forms these rows from the step systems it solves and
sums them into AdjointTrajectory.grad (see adjoint.py), so this module
only checks meshes and exposes the result.
"""

from __future__ import annotations

import numpy as np

from .adjoint import AdjointTrajectory, run_adjoint
from .errors import MeshMismatch
from .integrator import Trajectory
from .model import ControlGrid, EndpointFunctional, HybridOCP


def reduced_gradient(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid,
                     adj: AdjointTrajectory) -> np.ndarray:
    """dw/du, shape (N, m), from a finished backward sweep."""
    if adj.K != traj.K or adj.times.shape != traj.times.shape \
            or not np.array_equal(adj.times, traj.times) \
            or adj.grad.shape != (grid.N, grid.m):
        raise MeshMismatch("adjoint sweep and trajectory live on different meshes")
    return adj.grad.copy()


def reduced_gradient_matrix(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid,
                            w: EndpointFunctional) -> np.ndarray:
    """Gradient via the assembled matrix route on every step.  Oracle for
    the stage-form assembly; one extra backward sweep."""
    return run_adjoint(ocp, traj, grid, w, backend="matrix").grad
