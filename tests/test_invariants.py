"""Invariants every committed trajectory keeps, checked node by node.

trajectory_violations is a checker, not part of slidoc: it reads a
Trajectory and its grid and lists every place where

- an off-surface step's nodes or stages lie beyond surface_tol on the
  wrong side of the surface for its mode;
- a sliding step's nodes have |g| > surface_tol, or a blend weight alpha
  (with the step's control) outside [-event_tol, 1 + event_tol], or its
  start is not attractive: the normal speeds there (with the step's
  control) break w1 > 0 > w2, so both fields do not point at the surface;
- a transition's kind does not fit the modes before and after its node,
  or entry_test / exit_test at its state (with the control of the
  interval that recorded it) gives another mode, or the mode changes at
  a node that records no transition.

Measured on the 144 trajectories of tools/identity_grid.py (the 145th
raises ChatteringLimit): off-surface nodes and stages reach 1.9e-11 past
the surface, sliding nodes |g| = 1.9e-11, alpha at sliding nodes stays in
[0, 1] exactly, every sliding step starts with w1 and -w2 >= 2.2e-3,
and a located exit's alpha lies up to 3.4e-12 inside its
boundary, so exit_test there still says SLIDING; the checker accepts
that within event_tol, the tolerance the exit was located to.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidoc import (ControlGrid, SlidocError, get_problem, gradient_check, integrate,
                    problem_names, run_adjoint)
from slidoc.integrator import TransitionRecord
from slidoc.model import (Mode, TransitionKind, alpha, entry_test, exit_mode, exit_test,
                          normal_speeds)
from test_adjoint import _chain_problem, _circle_slide
from test_integrator import _jump_at_the_breakpoint
from test_tools import drawn_survey, identity_grid

# kind: (modes it may leave, the mode it enters)
_KINDS = {TransitionKind.CROSS_12: ({Mode.BELOW}, Mode.ABOVE),
          TransitionKind.CROSS_21: ({Mode.ABOVE}, Mode.BELOW),
          TransitionKind.ENTER_SLIDING: ({Mode.BELOW, Mode.ABOVE}, Mode.SLIDING),
          TransitionKind.EXIT_TO_F1: ({Mode.SLIDING}, Mode.BELOW),
          TransitionKind.EXIT_TO_F2: ({Mode.SLIDING}, Mode.ABOVE)}
# the blend-weight boundary of each exit
_BOUNDARY = {TransitionKind.EXIT_TO_F1: 0, TransitionKind.EXIT_TO_F2: 1}


def _verdict(ocp, traj, grid, i, rec):
    """The mode entry_test or exit_test gives at rec.x with the
    control of the interval that recorded transition i (at a breakpoint
    node, the interval that ends there when the transition was recorded
    before the next one began), or the name of the error it raises."""
    opts = traj.opts
    n = min(int(np.searchsorted(traj.breakpoint_nodes, rec.k, side="right")) - 1, grid.N - 1)
    if n > 0 and rec.k == traj.breakpoint_nodes[n] and i < traj.starts[n].transitions:
        n -= 1
    u = grid.values[n]
    try:
        if rec.kind not in _BOUNDARY:
            return entry_test(ocp, rec.x, u, eps_tan=opts.eps_tan)
        verdict = exit_test(ocp, rec.x, u, eps_den=opts.eps_den, eps_tan=opts.eps_tan)
        boundary = _BOUNDARY[rec.kind]
        if verdict is Mode.SLIDING and \
                abs(alpha(ocp, rec.x, u, eps_den=opts.eps_den) - boundary) <= opts.event_tol:
            verdict = exit_mode(*normal_speeds(ocp, rec.x, u), boundary, opts.eps_tan)
        return verdict
    except SlidocError as exc:
        return type(exc).__name__


def trajectory_violations(ocp, traj, grid) -> list:
    """Every broken invariant of traj (see the module docstring), one
    line each; [] when it keeps them all."""
    opts, out = traj.opts, []
    for k in range(traj.K):
        mode, u = traj.mode[k], grid.values[traj.ctrl[k]]
        if mode is Mode.SLIDING:
            w1, w2 = normal_speeds(ocp, traj.x[k], u)
            if not w1 > 0.0 > w2:
                out.append(f"step {k}: sliding from a node with w1 = {w1:.3e}, w2 = {w2:.3e}")
            for x in traj.x[k:k + 2]:
                g, a = ocp.g(x), alpha(ocp, x, u, eps_den=opts.eps_den)
                if not abs(g) <= opts.surface_tol:
                    out.append(f"step {k}: sliding node with g = {g:.3e}")
                if not -opts.event_tol <= a <= 1.0 + opts.event_tol:
                    out.append(f"step {k}: sliding node with alpha = {a!r}")
        else:
            sign = -1.0 if mode is Mode.BELOW else 1.0
            for x in (*traj.x[k:k + 2], *traj.stages_x[k]):
                if not sign * ocp.g(x) >= -opts.surface_tol:
                    out.append(f"step {k}: {mode.value} point with g = {ocp.g(x):.3e}")
    at_node: dict = {}
    for i, rec in enumerate(traj.transitions):
        at_node.setdefault(rec.k, []).append((i, rec))
    for k in range(traj.K + 1):
        mode = traj.mode[k - 1] if k > 0 else traj.starts[0].mode
        after = traj.mode[k] if k < traj.K else traj.terminal_mode
        for i, rec in at_node.get(k, []):
            leaves, enters = _KINDS[rec.kind]
            if mode not in leaves:
                out.append(f"transition {i} ({rec.kind.value}) at node {k} leaves {mode.value}")
            verdict = _verdict(ocp, traj, grid, i, rec)
            if verdict is not enters:
                out.append(f"transition {i} ({rec.kind.value}) at node {k}: the surface "
                           f"test at its state gives {getattr(verdict, 'value', verdict)}")
            mode = enters
        if mode is not after:
            out.append(f"node {k}: {mode.value} is followed by {after.value}")
    return out


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


# the drawn two-field problems of tools/drawn_survey.py
_drawn_problem = drawn_survey().drawn_problem


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problem=st.integers(0, 2**32 - 1).map(_drawn_problem))
def test_drawn_problems_raise_typed_or_keep_the_invariants(problem):
    """Every drawn problem (_drawn_problem, 8 steps per interval) either
    raises a domain error, or integrates to a trajectory that keeps the
    invariants and whose gradient the matrix oracle reproduces to 1e-9;
    with a transition, the FD oracle reproduces it to 1e-6 as well."""
    ocp, grid = problem
    try:
        traj = integrate(ocp, grid, 8)
        grads = [run_adjoint(ocp, traj, grid, ocp.phi, backend=backend).grad
                 for backend in ("transformed", "matrix")]
    except SlidocError:
        return
    assert trajectory_violations(ocp, traj, grid) == []
    assert np.max(np.abs(grads[0] - grads[1])) <= 1e-9 * max(1.0, np.max(np.abs(grads[1])))
    if traj.transitions:
        chk = gradient_check(ocp, grid, 8)
        assert chk.rel is not None and chk.rel <= 1e-6, (ocp.name, chk.rel)


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
