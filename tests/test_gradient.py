"""Reduced gradients: zero cases, closed forms, route equivalence, and
agreement with re-integration."""

import numpy as np
import pytest

from slidoc.adjoint import run_adjoint
from slidoc.errors import DimensionMismatch, MeshMismatch
from slidoc.gradient import reduced_gradient, reduced_gradient_matrix
from slidoc.integrator import integrate
from slidoc.model import ControlGrid, EndpointFunctional, HybridOCP
from slidoc.problems import get_problem
from slidoc.verify import fd_gradient

FD_STEP = 1e-6


def full_gradient(ocp, grid, spi, w=None):
    w = w if w is not None else ocp.phi
    traj = integrate(ocp, grid, spi)
    adj = run_adjoint(ocp, traj, grid, w)
    return reduced_gradient(ocp, traj, grid, adj)


def fd_entry(ocp, grid, spi, n, j, w=None):
    w = w if w is not None else ocp.phi
    out = []
    for sgn in (1.0, -1.0):
        v = grid.values.copy()
        v[n, j] += sgn * FD_STEP
        traj = integrate(ocp, grid.with_values(v), spi)
        out.append(w.value(traj.x[-1]))
    return (out[0] - out[1]) / (2 * FD_STEP)


def test_control_independent_dynamics_give_zero_gradient():
    w = EndpointFunctional(value=lambda x: float(x[0]),
                           grad=lambda x: np.array([1.0]))
    drift = lambda x, u: np.array([0.5 - x[0]])
    dx = lambda x, u: np.array([[-1.0]])
    du = lambda x, u: np.zeros((1, 1))
    ocp = HybridOCP(name="nofu", n=1, m=1,
                    f1=drift, f1_x=dx, f1_u=du,
                    f2=drift, f2_x=dx, f2_u=du,
                    g=lambda x: float(x[0] - 1e6),
                    g_x=lambda x: np.array([1.0]),
                    g_xx=lambda x: np.zeros((1, 1)),
                    phi=w, x0=np.array([1.0]), t0=0.0, tf=1.0,
                    u_lo=np.array([-1.0]), u_hi=np.array([1.0]))
    grid = ControlGrid(0.0, 1.0, 0.3 * np.ones((5, 1)))
    assert np.all(full_gradient(ocp, grid, 4) == 0.0)


def test_relay_gradient_is_zero():
    """phi = x1 and x1' = 1 everywhere: the cost never sees the control."""
    ocp, grid = get_problem("p2-sliding")
    assert np.all(full_gradient(ocp, grid, 8) == 0.0)


def test_slide_exit_gradient_closed_form():
    """Only control action after the exit (t > 0.9) reaches the cost, and
    there du/dx2(tf) integrates to the overlap of the interval with
    (0.9, tf].  Before the exit, sliding pins x2 and the entry shift has
    no effect on the cost."""
    ocp, grid = get_problem("slide-exit", {"N": 6})
    expect = np.array([0.0, 0.0, 0.0, 0.1, 0.25, 0.25]).reshape(6, 1)
    grad = full_gradient(ocp, grid, 8)
    assert grad == pytest.approx(expect, abs=1e-8)


def test_smooth_linear_gradient_vs_fd():
    ocp, grid = get_problem("smooth-linear")
    grad = full_gradient(ocp, grid, 8)
    for n in (0, 4, 9):
        fd = fd_entry(ocp, grid, 8, n, 0)
        assert grad[n, 0] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_steered_sliding_gradient_vs_fd():
    """p2-steered keeps a genuine control dependence along the sliding
    segment; the adjoint gradient must track re-integration there."""
    ocp, grid = get_problem("p2-steered")
    grad = full_gradient(ocp, grid, 8)
    assert float(np.max(np.abs(grad))) > 1e-3   # not a trivial zero check
    for n in (0, 5, 9):
        fd = fd_entry(ocp, grid, 8, n, 0)
        assert grad[n, 0] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_constraint_functional_gradients_vs_fd():
    ocp, grid = get_problem("constrained-toy")
    for w in (ocp.g1[0], ocp.g2[0]):
        grad = full_gradient(ocp, grid, 8, w)
        for n in (0, 7):
            fd = fd_entry(ocp, grid, 8, n, 0, w)
            assert grad[n, 0] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_stage_and_matrix_routes_agree():
    for name in ("smooth-linear", "slide-exit"):
        ocp, grid = get_problem(name)
        traj = integrate(ocp, grid, 8)
        adj = run_adjoint(ocp, traj, grid, ocp.phi)
        g1 = reduced_gradient(ocp, traj, grid, adj)
        g2 = reduced_gradient_matrix(ocp, traj, grid, ocp.phi)
        scale = max(1.0, float(np.max(np.abs(g2))))
        assert np.max(np.abs(g1 - g2)) <= 1e-12 * scale, name


def test_directional_derivative_matches_fd():
    ocp, grid = get_problem("smooth-linear")
    grad = full_gradient(ocp, grid, 8)
    rng = np.random.default_rng(3)
    d = rng.normal(size=grad.shape)
    t = 1e-6
    vals = []
    for sgn in (1.0, -1.0):
        traj = integrate(ocp, grid.with_values(grid.values + sgn * t * d), 8)
        vals.append(ocp.phi.value(traj.x[-1]))
    fd = (vals[0] - vals[1]) / (2 * t)
    assert float(np.sum(grad * d)) == pytest.approx(fd, rel=1e-6)


def test_mesh_mismatch_is_detected():
    ocp, grid = get_problem("smooth-linear")
    traj_a = integrate(ocp, grid, 4)
    traj_b = integrate(ocp, grid, 8)
    adj_b = run_adjoint(ocp, traj_b, grid, ocp.phi)
    with pytest.raises(MeshMismatch):
        reduced_gradient(ocp, traj_a, grid, adj_b)


@pytest.mark.parametrize("name", ["p2-steered", "smooth-linear"])
def test_a_grid_of_the_wrong_width_is_refused(name):
    """A grid with two controls per interval for a problem with one is
    refused by integrate, by the sweep given a good trajectory, and by
    the FD oracle, before anything runs: p2-steered would otherwise
    integrate with the first column and copy its gradient into the
    second, and smooth-linear would fail inside a matrix product."""
    ocp, grid = get_problem(name)
    assert ocp.m == 1
    wide = grid.with_values(np.repeat(grid.values, 2, axis=1))
    with pytest.raises(DimensionMismatch):
        integrate(ocp, wide, 4)
    traj = integrate(ocp, grid, 4)
    for backend in ("transformed", "matrix"):
        with pytest.raises(DimensionMismatch):
            run_adjoint(ocp, traj, wide, ocp.phi, backend=backend)
    with pytest.raises(DimensionMismatch):
        fd_gradient(ocp, wide, traj)


def test_a_grid_on_another_time_span_is_refused():
    """A p2-sliding trajectory on [0, 1] and a grid of the same N on
    [0, 2]: the sweep refuses the pair, as the FD oracle does, instead
    of returning a gradient for the wrong mesh."""
    ocp, grid = get_problem("p2-sliding")
    traj = integrate(ocp, grid, 8)
    wide = ControlGrid(grid.t0, 2.0 * grid.tf, grid.values)
    with pytest.raises(MeshMismatch, match="different mesh"):
        run_adjoint(ocp, traj, wide, ocp.phi)
    with pytest.raises(MeshMismatch, match="different mesh"):
        fd_gradient(ocp, wide, traj)
