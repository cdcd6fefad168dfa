"""Invariants every committed trajectory keeps, checked node by node by
trajectory_violations of tools/drawn_survey.py (its docstring lists
them and what the identity grid's trajectories reach)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidoc import (ControlGrid, SlidocError, get_problem, gradient_check, integrate,
                    problem_names, run_adjoint)
from slidoc.integrator import TransitionRecord
from slidoc.model import Mode, TransitionKind
from test_adjoint import _chain_problem, _circle_slide
from test_integrator import _jump_at_the_breakpoint
from test_tools import drawn_survey, identity_grid

# the checker and the drawn two-field problems of tools/drawn_survey.py
_survey = drawn_survey()
trajectory_violations = _survey.trajectory_violations


def _cases() -> dict:
    """name: () -> (ocp, grid at its default controls) of every problem
    the invariants are checked on; the grid's transition problems at
    N = 10 with u = 0, as tools/identity_grid.py runs them."""
    cases = {name: (lambda name=name: get_problem(name)) for name in problem_names()}
    cases["chain-4"] = lambda: _chain_problem()(4, np.random.default_rng(1))
    cases["circle-slide"] = _circle_slide
    for name, ocp in identity_grid()._transition_problems().items():
        cases[name] = lambda ocp=ocp: (ocp, ControlGrid(ocp.t0, ocp.tf, np.zeros((10, ocp.m))))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_default_runs_keep_the_invariants(name):
    ocp, grid = CASES[name]()
    traj = integrate(ocp, grid, 8)
    assert trajectory_violations(ocp, traj, grid) == []


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(spi=st.sampled_from([2, 4, 8]), data=st.data())
def test_drawn_runs_keep_the_invariants(name, spi, data):
    """Controls drawn from the problem's box; a run that raises a domain
    error has no trajectory to check."""
    ocp, grid = CASES[name]()
    share = data.draw(st.lists(st.floats(0.0, 1.0), min_size=grid.values.size,
                               max_size=grid.values.size))
    values = ocp.u_lo + (ocp.u_hi - ocp.u_lo) * np.reshape(share, grid.values.shape)
    grid = grid.with_values(values)
    try:
        traj = integrate(ocp, grid, spi)
    except SlidocError:
        return
    assert trajectory_violations(ocp, traj, grid) == []


def _drawn_failures(seed: int) -> list:
    """What drawn seed's problem breaks at 8 steps per interval: [] when
    it raises a domain error, or integrates to a trajectory that keeps
    the invariants and whose gradient the matrix oracle reproduces to
    1e-9 and, with a transition, the FD oracle to 1e-6."""
    ocp, grid = _survey.drawn_problem(seed)
    try:
        traj = integrate(ocp, grid, 8)
        grads = [run_adjoint(ocp, traj, grid, ocp.phi, backend=backend).grad
                 for backend in ("transformed", "matrix")]
    except SlidocError:
        return []
    out = trajectory_violations(ocp, traj, grid)
    if not np.max(np.abs(grads[0] - grads[1])) <= 1e-9 * max(1.0, np.max(np.abs(grads[1]))):
        out.append("the two sweep backends disagree")
    if traj.transitions:
        chk = gradient_check(ocp, grid, 8)
        if not (chk.rel is not None and chk.rel <= 1e-6):
            out.append(f"gradient_check rel = {chk.rel}")
    return out


def test_drawn_problems_raise_typed_or_keep_the_invariants():
    """Every drawn problem of seeds 0-199 (tools/drawn_survey.py) raises
    a domain error or keeps the invariants, with its gradient reproduced
    by both oracles (_drawn_failures).  The seeds are fixed, so an edit
    of this test checks the same problems."""
    failures = {seed: out for seed in range(200) if (out := _drawn_failures(seed))}
    assert failures == {}


def test_sliding_on_a_repulsive_surface_is_flagged():
    """A run that slides through both intervals at u = 0, checked against
    controls whose jump at t = 0.5 makes the surface repulsive (w1 = -1,
    w2 = 1, so alpha = 1/2 stays in (0, 1)): every sliding step of the
    second interval is flagged at its start."""
    ocp, grid = _jump_at_the_breakpoint(-2.0, 2.0)
    traj = integrate(ocp, grid.with_values(np.zeros((2, 1))), 4)
    assert traj.transitions == [] and set(traj.mode) == {Mode.SLIDING}
    flagged = trajectory_violations(ocp, traj, grid)
    assert flagged == [f"step {k}: sliding from a node with w1 = -1.000e+00, w2 = 1.000e+00"
                       for k in range(4, 8)]


def test_a_crossing_recorded_at_a_graze_is_flagged():
    """The fd-check benchmark's seed-5 slide-exit input grazes the surface
    at the breakpoint t = 0.9 (tests/test_verify.py) and records nothing
    there.  A Cross12 recorded at that node is flagged: entry_test sends
    the trajectory back below, and with the modes left as they are the
    node also switches nothing; with the steps after it put in ABOVE, as
    a crossing would, they run below the surface."""
    rng = np.random.default_rng([5, 1])
    for name in ("p2-sliding", "p2-steered", "slide-exit"):
        ocp, grid = get_problem(name, {"N": 10})
        u = grid.values + rng.uniform(-0.1, 0.1, grid.values.shape)
    grid = grid.with_values(np.clip(u, ocp.u_lo, ocp.u_hi))
    traj = integrate(ocp, grid, 8)
    assert trajectory_violations(ocp, traj, grid) == []
    k = int(traj.breakpoint_nodes[6])
    cross = TransitionRecord(kind=TransitionKind.CROSS_12, t=float(traj.times[k]), k=k,
                             x=traj.x[k])
    spurious = dataclasses.replace(traj, transitions=traj.transitions + [cross])
    flagged = trajectory_violations(ocp, spurious, grid)
    assert f"transition 2 (Cross12) at node {k}: the surface test at its state gives below" \
        in flagged
    assert f"node {k}: above is followed by below" in flagged
    flipped = dataclasses.replace(spurious, mode=traj.mode[:k] + [Mode.ABOVE] * (traj.K - k),
                                  terminal_mode=Mode.ABOVE)
    flagged = trajectory_violations(ocp, flipped, grid)
    assert f"transition 2 (Cross12) at node {k}: the surface test at its state gives below" \
        in flagged
    assert any(line.startswith(f"step {k + 1}: above point with g = -") for line in flagged)
