"""Integration: single steps, event location, sliding, and the mesh.

The relay problem and the slide-exit problem both have closed-form
transition times, so the event machinery is checked against exact
values, not self-consistency.
"""

import dataclasses
import enum
import math
import re

import numpy as np
import pytest

import slidoc.adjoint as adjoint_mod
import slidoc.integrator as integrator_mod
from slidoc.adjoint import run_adjoint
from slidoc.errors import (ChatteringLimit, MeshMismatch, NewtonDivergence, NoBracket,
                           SingularIteration, TangentialAmbiguity, ValidationError)
from slidoc.integrator import (IntegratorOptions, StageStore, Trajectory, integrate,
                               locate_event, step_ode, step_sliding)
from slidoc.model import (ControlGrid, EndpointFunctional, HybridOCP, Mode, filippov_field,
                          filippov_values)
from slidoc.problems import get_problem, problem_names
from slidoc.tableau import RADAU_IIA, RADAU_IIA_EIGVALS
from slidoc.verify import gradient_check
from test_adjoint import _chain_problem, _circle_slide
from test_tools import drawn_survey

OPTS = IntegratorOptions()


def scalar_ocp(f, f_x, x0=1.0):
    """One-state problem with identical fields and a far-away surface."""
    w = EndpointFunctional(value=lambda x: float(x[0]),
                           grad=lambda x: np.array([1.0]))
    return HybridOCP(
        name="scalar", n=1, m=1,
        f1=f, f1_x=f_x, f1_u=lambda x, u: np.zeros((1, 1)),
        f2=f, f2_x=f_x, f2_u=lambda x, u: np.zeros((1, 1)),
        g=lambda x: float(x[0] - 1e6),
        g_x=lambda x: np.array([1.0]),
        g_xx=lambda x: np.zeros((1, 1)),
        phi=w, x0=np.array([x0]), t0=0.0, tf=1.0,
        u_lo=np.array([-1.0]), u_hi=np.array([1.0]))


def test_zero_field_stays_put():
    ocp = scalar_ocp(lambda x, u: np.zeros(1), lambda x, u: np.zeros((1, 1)),
                     x0=0.7)
    grid = ControlGrid(0.0, 1.0, np.zeros((4, 1)))
    traj = integrate(ocp, grid, 3)
    assert traj.K == 12
    assert np.all(traj.x == 0.7)
    assert traj.times[-1] == 1.0


def test_linear_decay_single_step():
    """x' = -0.1 x over one step of h = 1: the scheme's rational
    approximation of exp(-0.1) is accurate to its fifth-order error term,
    far below 1e-8."""
    ocp = scalar_ocp(lambda x, u: -0.1 * x, lambda x, u: np.array([[-0.1]]))
    _, x1 = step_ode(ocp, Mode.BELOW, np.array([1.0]), np.zeros(1), 1.0, OPTS)
    assert abs(float(x1[0]) - math.exp(-0.1)) <= 1e-8


def test_endpoint_error_halving_ratio():
    """Fifth order: halving h divides the endpoint error by about 32."""
    ocp, grid = get_problem("smooth-linear")
    ref = integrate(ocp, grid, 64).x[-1]
    errs = [float(np.max(np.abs(integrate(ocp, grid, spi).x[-1] - ref)))
            for spi in (2, 4, 8)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 20.0 <= e0 / e1 <= 45.0


def test_mesh_hits_breakpoints_bitwise():
    ocp, grid = get_problem("smooth-linear")
    traj = integrate(ocp, grid, 4)
    bp = grid.breakpoints()
    assert np.array_equal(traj.times[traj.breakpoint_nodes], bp)


@pytest.mark.parametrize("spi", [2.5, 2.0, True, "3", 0, -1])
def test_steps_per_interval_must_be_an_integer(spi):
    """A step count that is not an integer >= 1 raises ValueError before
    any step; it is never truncated (2.5 once ran with 2 steps per
    interval, True with 1)."""
    ocp, grid = get_problem("p2-sliding")
    with pytest.raises(ValueError, match="steps_per_interval must be an integer >= 1"):
        integrate(ocp, grid, spi)


def test_steps_per_interval_takes_numpy_integers():
    ocp, grid = get_problem("p2-sliding")
    traj = integrate(ocp, grid, np.int64(2))
    assert traj.spi == 2 and type(traj.spi) is int
    assert traj.x.tobytes() == integrate(ocp, grid, 2).x.tobytes()


def test_relay_capture():
    """Entry at t = 0.5/1.2 with u = 0.2, then perfect sliding."""
    ocp, grid = get_problem("p2-sliding")
    traj = integrate(ocp, grid, 8)
    assert traj.transition_kinds() == ["EnterSliding"]
    rec = traj.transitions[0]
    assert rec.t == pytest.approx(0.5 / 1.2, abs=1e-8)
    assert traj.terminal_mode is Mode.SLIDING
    assert traj.x[-1] == pytest.approx([1.0, 0.0], abs=1e-12)

    entry_node = rec.k
    g_vals = [abs(ocp.g(traj.x[k])) for k in range(entry_node, traj.K + 1)]
    assert max(g_vals) <= 10.0 * OPTS.newton_tol
    z_tail = np.abs(traj.z_node[entry_node:])
    assert z_tail.max() <= 1e-6


def test_relay_entry_on_the_final_node():
    ocp, grid = get_problem("p2-sliding", {"tf": 0.5, "u": 0.0})
    traj = integrate(ocp, grid, 8)
    assert traj.transition_kinds() == ["EnterSliding"]
    assert traj.times[-1] == 0.5
    assert traj.terminal_mode is Mode.SLIDING


def test_slide_exit_closed_forms():
    """Entry when the blend becomes admissible, exit when it hits 0.

    With u = 0 the entry time solves a quadratic, t* = (1.8 - sqrt(1.24))/2,
    and the blend weight reaches zero at t = 0.9 exactly."""
    ocp, grid = get_problem("slide-exit")
    traj = integrate(ocp, grid, 8)
    assert traj.transition_kinds() == ["EnterSliding", "ExitToF1"]
    t_enter = traj.transitions[0].t
    t_exit = traj.transitions[1].t
    assert t_enter == pytest.approx((1.8 - math.sqrt(1.24)) / 2, abs=1e-10)
    assert t_exit == pytest.approx(0.9, abs=1e-8)
    # after the exit: x2' = 0.9 - t, so x2(tf) = -(tf - 0.9)^2 / 2
    assert traj.x[-1] == pytest.approx([1.5, -0.18], abs=1e-10)
    # plus-side convention: z is zeroed once the surface is left
    exit_node = traj.transitions[1].k
    assert traj.z_node[exit_node] == 0.0


def test_crossing_from_below():
    ocp, grid = get_problem("p2-sliding")
    # override the second field so both push upward: transversal crossing
    ocp_up = dataclasses.replace(ocp,
                                 f2=lambda x, u: np.array([1.0, 0.5 + u[0]]),
                                 f2_x=lambda x, u: np.zeros((2, 2)))
    traj = integrate(ocp_up, ControlGrid(0.0, 1.0, np.zeros((5, 1))), 8)
    assert traj.transition_kinds() == ["Cross12"]
    rec = traj.transitions[0]
    assert rec.t == pytest.approx(0.5, abs=1e-10)
    # a crossing does not jump the state: the record holds its node's
    assert np.array_equal(rec.x, traj.x[rec.k])
    assert traj.terminal_mode is Mode.ABOVE
    assert traj.x[-1] == pytest.approx([1.0, 0.25], abs=1e-12)


def test_crossing_from_above():
    ocp, _ = get_problem("p2-sliding")
    ocp_down = dataclasses.replace(
        ocp,
        x0=np.array([0.0, 0.5]),
        f1=lambda x, u: np.array([1.0, -0.5 + u[0]]),
        f1_x=lambda x, u: np.zeros((2, 2)),
        f2=lambda x, u: np.array([1.0, -1.0 + u[0]]),
        f2_x=lambda x, u: np.zeros((2, 2)))
    traj = integrate(ocp_down, ControlGrid(0.0, 1.0, np.zeros((5, 1))), 8)
    assert traj.transition_kinds() == ["Cross21"]
    assert traj.transitions[0].t == pytest.approx(0.5, abs=1e-10)
    assert traj.terminal_mode is Mode.BELOW


def test_newton_divergence_is_reported():
    """Off the surface on x' = x^3 from 2, and sliding on circle-slide's
    circle with a step of 20: neither Newton iteration converges."""
    ocp = scalar_ocp(lambda x, u: x ** 3,
                     lambda x, u: np.array([[3.0 * x[0] ** 2]]), x0=2.0)
    with pytest.raises(NewtonDivergence):
        step_ode(ocp, Mode.BELOW, np.array([2.0]), np.zeros(1), 1.0, OPTS)
    ocp, _ = _circle_slide()
    with pytest.raises(NewtonDivergence) as exc:
        step_sliding(ocp, np.array([math.cos(0.3), math.sin(0.3)]), np.array([0.4]), 20.0, OPTS)
    assert exc.value.payload["h"] == 20.0


@pytest.mark.parametrize("h", [1.0, 0.5, 0.25, 0.1])
def test_singular_stage_newton_matrix_is_reported(h):
    """x' = J x with J = 1 / (h lambda_0), lambda_0 the real eigenvalue
    of A: the first Newton matrix's eigenbasis block 1 - h lambda_0 J is
    exactly 0, so the first correction cannot be solved."""
    J = 1.0 / (h * RADAU_IIA_EIGVALS[0].real)
    ocp = scalar_ocp(lambda x, u: J * x, lambda x, u: np.array([[J]]))
    message = f"stage Newton matrix singular at h = {h:.3e}"
    with pytest.raises(SingularIteration, match=re.escape(message)):
        step_ode(ocp, Mode.BELOW, np.array([1.0]), np.zeros(1), h, OPTS)


def test_sliding_stages_solve_the_stage_equations_where_z_is_large():
    """Drawn seed 953 at 8 steps per interval slides on a curved surface
    for three steps, the last with |z| = 0.50.  Each step's stages (X, Z)
    from step_sliding solve the index-2 stage equations
    X_i = x + h sum_j a_ij (f_F(X_j) + g_x(X_j)^T Z_j) and g(X_i) = 0 to
    the Newton tolerance, evaluated here term by term with
    model.filippov_field and ocp.g_x."""
    ocp, grid = drawn_survey().drawn_problem(953)
    traj = integrate(ocp, grid, 8)
    sliding = [k for k in range(traj.K) if traj.mode[k] is Mode.SLIDING]
    assert len(sliding) == 3
    A, s, z_max = RADAU_IIA.A, RADAU_IIA.s, 0.0
    for k in sliding:
        x, u, h = traj.x[k], grid.values[traj.ctrl[k]], traj.h[k]
        X, Z, _, _ = step_sliding(ocp, x, u, h, OPTS)
        V = [filippov_field(ocp, X[j], u, OPTS.eps_den)[0] + ocp.g_x(X[j]) * Z[j]
             for j in range(s)]
        for i in range(s):
            acc = np.zeros(ocp.n)
            for j in range(s):
                acc += A[i, j] * V[j]
            assert np.abs(X[i] - x - h * acc).max() <= OPTS.newton_tol
            assert abs(ocp.g(X[i])) <= OPTS.newton_tol
        z_max = max(z_max, float(np.abs(Z).max()))
    assert z_max > 0.1


def test_chattering_guard(monkeypatch):
    """On one control interval slide-exit enters and leaves sliding; a
    cap of 1 stops the run at the second transition."""
    ocp, grid = get_problem("slide-exit", {"N": 1})
    monkeypatch.setattr(integrator_mod, "MAX_TRANSITIONS_PER_INTERVAL", 1)
    with pytest.raises(ChatteringLimit) as exc:
        integrate(ocp, grid, 8)
    assert exc.value.payload["interval"] == 0
    assert str(exc.value) == "more than 1 transitions in control interval 0"


@pytest.mark.parametrize("field, value", [
    ("newton_tol", 0), ("surface_tol", -1), ("eps_den", -1), ("eps_tan", "1e-10"),
    ("event_tol", float("nan")), ("eps_tan", float("inf"))])
def test_options_reject_bad_values(field, value):
    """A tolerance that is not a finite number > 0 is refused when the
    options are built, with a ValidationError naming the field, instead
    of failing inside a run."""
    with pytest.raises(ValidationError) as exc:
        IntegratorOptions(**{field: value})
    assert exc.value.payload["field"] == field
    assert str(exc.value).startswith(f"{field}: must be ")


def _mirrored_slide_exit():
    """slide-exit mirrored in x1 = 0: it starts above the surface, f2
    pushes down until x0 = 0.9 + u, and the blend weight drifts to 1, so
    sliding ends towards g > 0 (ExitToF2)."""
    ocp, grid = get_problem("slide-exit")
    down_u = lambda x, u: np.array([[0.0], [-1.0]])
    return dataclasses.replace(
        ocp, name="slide-exit-mirrored", x0=np.array([0.0, 0.25]),
        f1=lambda x, u: np.array([1.0, 1.0 - u[0]]),
        f1_x=lambda x, u: np.zeros((2, 2)), f1_u=down_u,
        f2=lambda x, u: np.array([1.0, x[0] - 0.9 - u[0]]),
        f2_x=lambda x, u: np.array([[0.0, 0.0], [1.0, 0.0]]), f2_u=down_u), grid


def test_exit_to_f2_end_to_end():
    """The mirrored slide-exit leaves the surface upwards at x0 = 0.9;
    its gradient agrees with the FD oracle through both jumps, and the
    two adjoint backends agree."""
    ocp, grid = _mirrored_slide_exit()
    traj = integrate(ocp, grid, 8)
    assert traj.transition_kinds() == ["EnterSliding", "ExitToF2"]
    assert traj.terminal_mode is Mode.ABOVE
    chk = gradient_check(ocp, grid, 8)
    assert chk.rel is not None and chk.rel <= 1e-6
    a1 = run_adjoint(ocp, traj, grid, ocp.phi, backend="transformed")
    a2 = run_adjoint(ocp, traj, grid, ocp.phi, backend="matrix")
    for got, ref in ((a1.lam, a2.lam), (a1.lam_g, a2.lam_g), (a1.grad, a2.grad),
                     ([j["pi"] for j in a1.jumps], [j["pi"] for j in a2.jumps])):
        got, ref = np.asarray(got), np.asarray(ref)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _jump_at_the_breakpoint(c1, c2):
    """p2-sliding started on the surface with normal speeds w1 = 1 + c1 u
    and w2 = -1 + c2 u: it slides through interval 0 (u = 0), and the
    control jump to u = 1 at t = 0.5 moves the speeds to (1 + c1,
    -1 + c2)."""
    ocp, _ = get_problem("p2-sliding")
    ocp = dataclasses.replace(
        ocp, x0=np.zeros(2),
        f1=lambda x, u: np.array([1.0, 1.0 + c1 * u[0]]),
        f1_u=lambda x, u: np.array([[0.0], [c1]]),
        f2=lambda x, u: np.array([1.0, -1.0 + c2 * u[0]]),
        f2_u=lambda x, u: np.array([[0.0], [c2]]))
    return ocp, ControlGrid(0.0, 1.0, np.array([[0.0], [1.0]]))


@pytest.mark.parametrize("c1, c2, kind, mode, x1", [
    (0.0, 3.0, "ExitToF2", Mode.ABOVE, 1.0),      # w = (1, 2): alpha = -1
    (-3.0, 0.0, "ExitToF1", Mode.BELOW, -1.0)])   # w = (-2, -1): alpha = 2
def test_a_control_jump_that_turns_both_fields_to_one_side_exits(c1, c2, kind, mode, x1):
    """Both speeds of one sign after the jump: the run leaves the surface
    at the breakpoint for the side they point to, whichever is larger
    (both up with w2 > w1 puts alpha below 0, both down with |w1| > |w2|
    above 1), and the state then follows that side's field."""
    ocp, grid = _jump_at_the_breakpoint(c1, c2)
    traj = integrate(ocp, grid, 4)
    assert traj.starts[0].mode is Mode.SLIDING and traj.transition_kinds() == [kind]
    rec = traj.transitions[0]
    assert rec.t == 0.5 and rec.k == traj.breakpoint_nodes[1]
    assert traj.mode[rec.k:] == [mode] * (traj.K - rec.k) and traj.terminal_mode is mode
    assert traj.x[-1] == pytest.approx([1.0, x1], abs=1e-12)


def test_a_control_jump_that_makes_the_surface_repulsive_raises():
    """w = (-1, 1) after the jump: alpha = 1/2 lies in (0, 1), but both
    fields leave the surface and the solution is not unique, so the run
    raises instead of sliding on."""
    ocp, grid = _jump_at_the_breakpoint(-2.0, 2.0)
    with pytest.raises(TangentialAmbiguity, match="repulsive surface") as exc:
        integrate(ocp, grid, 4)
    assert exc.value.payload == {"w1": -1.0, "w2": 1.0}


def _dip():
    """x = (t, y), g = y, from y(0) = 1e-3 - 0.25 under f1 = (1, 1 - 2t):
    y = 1e-3 - (t - 1/2)^2 rises above the surface on (1/2 -+ sqrt(1e-3)),
    a dip of width 0.063 around t = 1/2.  With f2 = (1, -1) the surface
    is attractive while f1 points up, so the run slides from
    1/2 - sqrt(1e-3) to 1/2, where f1 turns down and the run exits."""
    ocp, _ = get_problem("p2-sliding")
    f1 = lambda x, u: np.array([1.0, -2.0 * (x[0] - 0.5) + u[0]])
    f1_x = lambda x, u: np.array([[0.0, 0.0], [-2.0, 0.0]])
    ocp = dataclasses.replace(
        ocp, x0=np.array([0.0, 1e-3 - 0.25]),
        f1=f1, f1_x=f1_x, f1_u=lambda x, u: np.array([[0.0], [1.0]]),
        f2=lambda x, u: np.array([1.0, -1.0 + u[0]]), f2_x=lambda x, u: np.zeros((2, 2)),
        f2_u=lambda x, u: np.array([[0.0], [1.0]]))
    return ocp, ControlGrid(0.0, 1.0, np.zeros((1, 1)))


@pytest.mark.parametrize("spi", [4, 5, 8, 16])
def test_a_dip_that_only_an_interior_stage_sees_is_bracketed_there(spi, monkeypatch):
    """At 5 steps, step [0.4, 0.6] ends below the surface but its second
    stage (t = 0.52) lies above it: the event is bracketed on the first
    interior stage that is beyond the surface, not on the endpoint.  Every
    resolution records the same two transitions at the closed-form
    times."""
    ocp, grid = _dip()
    fars = []

    def spy(eval_at, e0, far, event_tol):
        if len(far[1]) == 2:   # an off-surface trial: (stages, x)
            fars.append(far[0])
        return locate_event(eval_at, e0, far, event_tol)
    monkeypatch.setattr(integrator_mod, "locate_event", spy)
    traj = integrate(ocp, grid, spi)
    assert traj.transition_kinds() == ["EnterSliding", "ExitToF1"]
    assert [rec.t for rec in traj.transitions] == pytest.approx(
        [0.5 - math.sqrt(1e-3), 0.5], abs=1e-9)
    h = 1.0 / spi
    interior = [tau for tau in fars if tau < h]
    assert interior == ([pytest.approx(RADAU_IIA.c[1] * h, rel=1e-15)] if spi == 5 else [])


def test_chattering_cap_counts_per_interval(monkeypatch):
    """With these controls the mirrored slide-exit exits and re-enters
    sliding in control interval 5, its only interval with two
    transitions: a cap of 1 stops the run there, a cap of 2 does not."""
    ocp, grid = _mirrored_slide_exit()
    grid = grid.with_values(np.random.default_rng(1).uniform(-0.5, 0.5, (grid.N, 1)))
    monkeypatch.setattr(integrator_mod, "MAX_TRANSITIONS_PER_INTERVAL", 1)
    with pytest.raises(ChatteringLimit) as exc:
        integrate(ocp, grid, 8)
    assert exc.value.payload["interval"] == 5
    monkeypatch.setattr(integrator_mod, "MAX_TRANSITIONS_PER_INTERVAL", 2)
    traj = integrate(ocp, grid, 8)
    assert traj.transition_intervals() == [1, 4, 5, 5, 6, 7]


def test_graze_at_a_step_start_that_dips_raises():
    """x = (t, y), g = y, starting on the surface with both fields
    pointing down (y' = t - 1e-3 below, t - 1e-3 - 1 above): the start
    is a graze, so nothing is recorded and the run stays below.  The
    first step then rises through the surface at t = 2e-3, but its start
    is within event_tol of the surface, so the event sits at tau = 0
    and the node would be a graze again on every retry: the run raises
    NoBracket instead of looping."""
    J = lambda x, u: np.array([[0.0, 0.0], [1.0, 0.0]])
    B = lambda x, u: np.zeros((2, 1))
    ocp = HybridOCP(name="graze", n=2, m=1,
                    f1=lambda x, u: np.array([1.0, x[0] - 1e-3]), f1_x=J, f1_u=B,
                    f2=lambda x, u: np.array([1.0, x[0] - 1e-3 - 1.0]), f2_x=J, f2_u=B,
                    g=lambda x: float(x[1]), g_x=lambda x: np.array([0.0, 1.0]),
                    g_xx=lambda x: np.zeros((2, 2)),
                    phi=EndpointFunctional(value=lambda x: float(x[1]),
                                           grad=lambda x: np.array([0.0, 1.0])),
                    x0=np.zeros(2), t0=0.0, tf=1.0, u_lo=-np.ones(1), u_hi=np.ones(1))
    with pytest.raises(NoBracket):
        integrate(ocp, ControlGrid(0.0, 1.0, np.zeros((2, 1))), 4)


def test_locate_event_brackets_a_root():
    """e(tau) = 1 - 5 tau: root at exactly 0.2.  The far end (tau = 1,
    e = -4) comes from the caller and is never evaluated again."""
    trials = []

    def eval_at(tau):
        trials.append(tau)
        return None, 1.0 - 5.0 * tau
    tau, _, e = locate_event(eval_at, 1.0, (1.0, None, -4.0), event_tol=1e-12)
    assert tau == pytest.approx(0.2, abs=1e-12)
    assert abs(e) <= 1e-12
    assert 0 < len(trials) and all(0.0 < t < 1.0 for t in trials)


def test_locate_event_no_sign_change():
    with pytest.raises(NoBracket):
        locate_event(lambda t: (None, 1.0 + t), 1.0, (1.0, None, 2.0), event_tol=1e-12)
    with pytest.raises(NoBracket, match="already negative") as exc:
        locate_event(lambda t: (None, -1.0 - t), -1.0, (1.0, None, -2.0), event_tol=1e-12)
    assert exc.value.payload == {"e0": -1.0}


def test_locate_event_that_never_reaches_the_tolerance_raises():
    """e = +-5 event_tol with its sign change at tau = 0.3: no trial gets
    |e| <= event_tol, so the search raises NoBracket after
    MAX_EVENT_ITERS trials inside the bracket (its far end came from the
    caller) instead of accepting a point outside the tolerance."""
    tol, trials = 1e-10, []

    def eval_at(tau):
        trials.append(tau)
        return None, 5.0 * tol * (1.0 if tau < 0.3 else -1.0)
    with pytest.raises(NoBracket):
        locate_event(eval_at, 5.0 * tol, (1.0, None, -5.0 * tol), tol)
    assert len(trials) == integrator_mod.MAX_EVENT_ITERS


# ---------------------------------------------------------------------------
# resumed runs


def _field_bytes(value) -> bytes:
    """Every byte of a trajectory field, through lists, tuples and
    records, by content.  A value numpy would hold only as an object
    array (a dict, a set, any other object) raises TypeError: its bytes
    would be pointers, not contents."""
    if value is None:
        return b"-"
    if isinstance(value, enum.Enum):
        return value.value.encode()
    if isinstance(value, str):
        return value.encode()
    if dataclasses.is_dataclass(value):
        return b"{" + b",".join(_field_bytes(getattr(value, f.name))
                                for f in dataclasses.fields(value)) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(map(_field_bytes, value)) + b"]"
    arr = np.asarray(value)
    if arr.dtype == object:
        raise TypeError(f"no content bytes for a {type(value).__name__}")
    return f"{arr.dtype}{arr.shape}".encode() + arr.tobytes()


def test_field_bytes_compare_by_content():
    """Equal contents give equal bytes whatever objects hold them: a
    tuple hashes as the list of its items, None inside one included; a
    dict or a set has no content bytes and raises."""
    a, b = np.arange(3.0), np.arange(3.0)
    assert _field_bytes((a, None, Mode.SLIDING)) == _field_bytes([b, None, Mode.SLIDING])
    assert _field_bytes((1.0, None)) != _field_bytes((2.0, None))
    assert _field_bytes([integrator_mod.EventNode(3, None)]) == \
        _field_bytes([integrator_mod.EventNode(3, None)])
    for value in ({3: None}, {3}, object()):
        with pytest.raises(TypeError, match="no content bytes"):
            _field_bytes(value)


def assert_resumes_exactly(ocp, grid, spi, steps):
    """For every n in [1, N) and every step d, resuming the run of grid
    at interval n with u_n + d equals a full run of those controls."""
    base = integrate(ocp, grid, spi)
    for n in range(1, grid.N):
        for d in steps:
            values = grid.values.copy()
            values[n] += d
            probe = grid.with_values(values)
            full = integrate(ocp, probe, spi)
            resumed = integrate(ocp, probe, spi, base=base, start=n)
            for f in dataclasses.fields(Trajectory):
                assert _field_bytes(getattr(resumed, f.name)) == \
                    _field_bytes(getattr(full, f.name)), (ocp.name, n, d, f.name)
    return base


@pytest.mark.parametrize("name", problem_names())
def test_resumed_run_equals_full_run(name):
    ocp, grid = get_problem(name)
    assert_resumes_exactly(ocp, grid, 4, [1e-3, -1e-4])


def test_resume_from_a_node_the_interval_changes():
    """slide-exit default: the exit sits on t = 0.9, and u_5 - 1e-4 moves
    it into interval 5.  With seeded controls interval 7 exits sliding at
    its start: it records a transition at its first node, which the
    resumed run copies from the base and must not count as committed."""
    ocp, grid = get_problem("slide-exit")
    base = assert_resumes_exactly(ocp, grid, 8, [1e-4, -1e-4])
    assert [r.t for r in base.transitions][-1] == 0.9
    seeded = grid.with_values(np.random.default_rng([3, 10]).uniform(
        ocp.u_lo, ocp.u_hi, (grid.N, ocp.m)))
    base = assert_resumes_exactly(ocp, seeded, 8, [1e-3])
    counts = [st.transitions for st in base.starts] + [len(base.transitions)]
    changed = [n for n in range(seeded.N)
               if any(rec.k == base.breakpoint_nodes[n]
                      for rec in base.transitions[counts[n]:counts[n + 1]])]
    assert changed == [7]
    assert base.z_node[base.breakpoint_nodes[7]] == 0.0


def test_options_refuse_an_event_tolerance_above_the_surface_tolerance():
    """A located event lands within event_tol of the surface and a node
    on it needs |g| <= surface_tol, so event_tol > surface_tol is refused
    when the options are built, naming event_tol and both values; equal
    tolerances are accepted."""
    with pytest.raises(ValidationError) as exc:
        IntegratorOptions(event_tol=1e-6)
    assert exc.value.payload["field"] == "event_tol"
    assert "1e-06" in exc.value.message and "1e-09" in exc.value.message
    opts = IntegratorOptions(event_tol=1e-9)
    assert opts.event_tol == opts.surface_tol


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_resumed_chain_run_equals_full_run(seed):
    ocp, grid = _chain_problem()(4, np.random.default_rng(seed))
    assert_resumes_exactly(ocp, grid, 8, [1e-3])


def test_resume_needs_a_matching_base():
    ocp, grid = get_problem("p2-steered")
    base = integrate(ocp, grid, 4)
    with pytest.raises(ValueError):
        integrate(ocp, grid, 4, start=3)
    with pytest.raises(MeshMismatch, match="different mesh"):
        integrate(ocp, grid, 8, base=base, start=3)
    with pytest.raises(ValueError):
        integrate(ocp, grid, 4, base=base, start=grid.N)
    with pytest.raises(ValueError):
        integrate(ocp, grid, 4, base=base, start=0)
    for t0, tf in [(grid.t0, 1.1 * grid.tf), (grid.t0 - 0.5, grid.tf)]:
        with pytest.raises(MeshMismatch, match="different mesh"):
            integrate(ocp, ControlGrid(t0, tf, grid.values), 4, base=base, start=3)
    # a base integrated with other options would give a mixed trajectory
    loose = integrate(ocp, grid, 4, opts=IntegratorOptions(newton_tol=1e-6, eps_den=1e-6))
    assert loose.opts != OPTS and base.opts == OPTS
    with pytest.raises(ValueError):
        integrate(ocp, grid, 4, base=loose, start=3)
    with pytest.raises(ValueError):
        integrate(ocp, grid, 4, opts=loose.opts, base=base, start=3)


# ---------------------------------------------------------------------------
# work counts


def _count_steps(monkeypatch):
    """Count the step_ode and step_sliding calls of the integrator."""
    steps = {"ode": 0, "sliding": 0}
    for kind in steps:
        fn = getattr(integrator_mod, f"step_{kind}")

        def counted(*args, _fn=fn, _kind=kind):
            steps[_kind] += 1
            return _fn(*args)
        monkeypatch.setattr(integrator_mod, f"step_{kind}", counted)
    return steps


def test_sliding_stage_sums_match_the_ordered_loop():
    """step_sliding forms x_plus = x + h sum_j b_j V_j as one product
    b @ V.  On every sliding step of circle-slide (curved surface, z
    nonzero) it agrees with the reference that adds the terms b_j V_j
    over j in order, to 4 ulps of the largest number in the sum."""
    ocp, grid = _circle_slide()
    traj = integrate(ocp, grid, 8)
    b, eps = RADAU_IIA.b, np.finfo(float).eps
    sliding = [k for k in range(traj.K) if traj.mode[k] is Mode.SLIDING]
    assert len(sliding) > 10
    for k in sliding:
        X, Z, x_plus, _ = step_sliding(ocp, traj.x[k], grid.values[traj.ctrl[k]], traj.h[k], OPTS)
        V = [filippov_values(ocp, X[j], grid.values[traj.ctrl[k]], OPTS.eps_den) for j in range(3)]
        acc = np.zeros(ocp.n)
        for j in range(3):
            acc += b[j] * (V[j].fF + V[j].gx * Z[j])
        scale = max(np.abs(traj.x[k]).max(), traj.h[k] * np.abs(acc).max())
        assert np.abs(x_plus - (traj.x[k] + traj.h[k] * acc)).max() <= 4 * eps * scale


def test_sliding_newton_forms_state_jacobians_only_before_a_solve(monkeypatch):
    """On the curved circle-slide case (g_xx = 2 I; below the surface,
    then sliding to tf) a sliding step's first solve follows one
    state-Jacobian evaluation, at the step start where its first iterate
    puts every stage; every later solve follows s of them, one per
    stage, and the converging iteration evaluates none; control
    Jacobians are never evaluated.  The off-surface steps use f1 alone,
    which is linear, so each converges after its first solve; f2_x and
    g_xx count sliding work only and f1_x counts the Jacobians of solves
    of either kind.  Evaluating every stage of the first iterate, as the
    step once did, takes 159 f1_x and 81 f2_x and g_xx calls here.
    Solves are counted as StageStore.solve calls, each of which follows
    its Jacobian evaluations whether it factors or reuses the slot."""
    calls = {"f1_x": 0, "f2_x": 0, "g_xx": 0, "f1_u": 0, "f2_u": 0}
    solves = {"ode": 0, "sliding": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    ocp, grid = _circle_slide()
    ocp = dataclasses.replace(ocp, **{name: counted(name, getattr(ocp, name)) for name in calls})
    s = RADAU_IIA.s

    solve = StageStore.solve

    def counted_solve(store, h, Js, gxs, r):
        solves["ode" if gxs is None else "sliding"] += 1
        return solve(store, h, Js, gxs, r)

    monkeypatch.setattr(StageStore, "solve", counted_solve)
    steps = _count_steps(monkeypatch)
    traj = integrate(ocp, grid, 4)
    assert traj.transition_kinds() == ["EnterSliding"]
    assert traj.terminal_mode is Mode.SLIDING
    assert steps == {"ode": 26, "sliding": 9} and solves == {"ode": 26, "sliding": 27}
    jacobians = {kind: steps[kind] + s * (solves[kind] - steps[kind]) for kind in steps}
    assert jacobians == {"ode": 26, "sliding": 63}
    assert calls == {"f1_x": jacobians["ode"] + jacobians["sliding"],
                     "f2_x": jacobians["sliding"], "g_xx": jacobians["sliding"],
                     "f1_u": 0, "f2_u": 0}


def _count_factorizations(monkeypatch):
    """Count the LU solves and inversions numpy makes, and the LU solves
    made inside locate_event."""
    counts = {"lu": 0, "inv": 0, "event lu": 0}
    in_event = [False]
    solve, inv, locate = np.linalg.solve, np.linalg.inv, integrator_mod.locate_event

    def counted_solve(*args):
        counts["lu"] += 1
        counts["event lu"] += in_event[0]
        return solve(*args)

    def counted_inv(*args):
        counts["inv"] += 1
        return inv(*args)

    def counted_locate(*args):
        in_event[0] = True
        try:
            return locate(*args)
        finally:
            in_event[0] = False

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(integrator_mod, "locate_event", counted_locate)
    return counts


def test_forward_pass_reuses_its_stage_factors(monkeypatch):
    """chain-16, seed 1 (N = 10, 8 steps per interval): the forward pass
    solves 91 stage systems, all eigenbasis, and keeps the blocks it
    factored last.  It factors 13 block pairs, 10 of them for the trial
    steps of event location (each trial has its own h), and inverts 2.
    A run resumed at interval 5, with base's controls or with u_5 + 1e-6,
    starts from the store base held there and factors nothing."""
    ocp, grid = _chain_problem()(16, np.random.default_rng(1))
    counts = _count_factorizations(monkeypatch)
    base = integrate(ocp, grid, 8)
    assert counts == {"lu": 13, "inv": 2, "event lu": 10}
    for d in [0.0, 1e-6]:
        values = grid.values.copy()
        values[5] += d
        counts.update(dict.fromkeys(counts, 0))
        integrate(ocp, grid.with_values(values), 8, base=base, start=5)
        assert counts == {"lu": 0, "inv": 0, "event lu": 0}, d


def test_ode_newton_evaluates_the_start_iterate_once(monkeypatch):
    """On smooth-linear (f1 linear, the surface never reached) Newton
    converges in one solve: the first iterate, every stage at the step
    start, costs one f and one f_x call, and the converged iterate s f
    calls.  So each step makes one f_x call and 1 + s f calls."""
    calls = {"f1": 0, "f1_x": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    ocp, grid = get_problem("smooth-linear")
    ocp = dataclasses.replace(ocp, **{name: counted(name, getattr(ocp, name)) for name in calls})
    steps = _count_steps(monkeypatch)
    traj = integrate(ocp, grid, 4)
    assert traj.transitions == [] and steps == {"ode": traj.K, "sliding": 0}
    assert traj.K == 4 * grid.N
    assert calls == {"f1": (1 + RADAU_IIA.s) * traj.K, "f1_x": traj.K}


def test_steps_evaluate_no_point_twice(monkeypatch):
    """After a step the event tests reuse what the step evaluated: an
    off-surface step calls g at its first s - 1 stages and at x_plus,
    which stands in for the last stage (the table is stiffly accurate),
    so s calls per committed step plus one for the initial mode; a
    sliding step reads alpha from its converged iteration, so the
    integrator calls alpha only at the start of a located exit."""
    g_calls = []
    ocp, grid = get_problem("smooth-linear")
    g = ocp.g
    ocp = dataclasses.replace(ocp, g=lambda x: g_calls.append(1) or g(x))
    traj = integrate(ocp, grid, 4)
    assert traj.transitions == [] and len(g_calls) == 1 + RADAU_IIA.s * traj.K

    alpha_calls = []
    alpha = integrator_mod.alpha
    monkeypatch.setattr(integrator_mod, "alpha",
                        lambda *args, **kw: alpha_calls.append(1) or alpha(*args, **kw))
    for name, exits in (("p2-sliding", 0), ("slide-exit", 1)):
        ocp, grid = get_problem(name)
        traj = integrate(ocp, grid, 4)
        assert sum(mode is Mode.SLIDING for mode in traj.mode) >= 15
        assert traj.transition_kinds().count("ExitToF1") == exits
        assert len(alpha_calls) == exits
        alpha_calls.clear()


# ---------------------------------------------------------------------------
# the eigenbasis stage solve


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("sliding", [False, True])
def test_eigen_stage_solve_matches_the_dense_stage_matrix(n, sliding):
    """With one Jacobian J at every stage, the eigenbasis solve of a fresh
    StageStore gives what np.linalg.solve of stage_matrix gives, for the
    plain and the bordered (sliding) pencil, for M (StageStore()) and M^T
    (StageStore(transpose=True)), and for a batch of right-hand sides
    solved at once, with h |J|_2 from 1e-3 to 10."""
    rng = np.random.default_rng([n, sliding])
    s = RADAU_IIA.s
    d = n + 1 if sliding else n
    for hJ in (1e-3, 0.3, 2.0, 10.0):
        J = rng.standard_normal((n, n))
        h = 0.05
        J *= hJ / (h * np.linalg.norm(J, 2))
        gx = rng.standard_normal(n) if sliding else None
        M = integrator_mod.stage_matrix(h, np.repeat(J[None], s, axis=0),
                                        None if gx is None else np.repeat(gx[None], s, axis=0))
        for transpose in (False, True):
            Mt = M.T if transpose else M
            for batch in ((), (5,)):
                r = rng.standard_normal(batch + (s, d))
                y = StageStore(transpose).eigen_solve(h, J, gx, r)
                ref = np.linalg.solve(np.broadcast_to(Mt, batch + Mt.shape),
                                      r.reshape(batch + (s * d, 1))).reshape(r.shape)
                assert y.shape == r.shape and y.dtype == float
                assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("sliding", [False, True])
def test_solve_stages_is_the_eigenbasis_or_the_dense_solve_bit_for_bit(sliding, monkeypatch):
    """StageStore.solve gives the bytes of its eigenbasis solve on stage
    0's Jacobian and g_x row when every stage repeats them (or a single value
    stands for all s), or when one stage differs from them by one ulp or
    by (c - 1) eps max|V_0|, c = STAGE_SPREAD_ULPS.  It gives the bytes of
    np.linalg.solve of stage_matrix, one solve per leading index of r,
    when one stage's Jacobian or g_x row differs by (c + 1) eps max|V_0|
    or by 1e-10 relative, and when it holds a NaN (the eigenbasis solve
    is not called then).  For M and M^T, and r with leading axes () and
    (3,).  Every solve is the first of a fresh solver, whose empty slot
    matches nothing."""
    rng = np.random.default_rng([18, sliding])
    s, n, h = RADAU_IIA.s, 4, 0.05
    d = n + 1 if sliding else n
    J = rng.standard_normal((n, n))
    gx = rng.standard_normal(n) if sliding else None
    Js = np.repeat(J[None], s, axis=0)
    gxs = None if gx is None else np.repeat(gx[None], s, axis=0)
    c, eps = integrator_mod.STAGE_SPREAD_ULPS, np.finfo(float).eps

    def moved(V, idx, to):
        """V with entry idx set to to(V[idx], eps max|V_0|)."""
        W = V.copy()
        W[idx] = to(W[idx], eps * np.abs(V[0]).max())
        return W

    def variants(*moves):
        """(Js, gxs) with one entry of a stage moved, for each move: in
        the Jacobian of stage 1, and on the surface in the g_x row of
        stage 2."""
        for to in moves:
            yield moved(Js, (1, 0, 0), to), gxs
            if sliding:
                yield Js, moved(gxs, (2, 1), to)

    shared = [(Js, gxs), (J[None], None if gx is None else gx[None])] + list(variants(
        lambda v, e: np.nextafter(v, np.inf),
        lambda v, e: v + (c - 1) * e))
    spread = list(variants(lambda v, e: v + (c + 1) * e,
                           lambda v, e: v * (1 + 1e-10)))
    nan = list(variants(lambda v, e: np.nan))
    for Js_v, gxs_v in spread + nan:
        assert not integrator_mod._shared(Js_v) or not integrator_mod._shared(gxs_v)
    eigen_calls = []
    eigen_solve = StageStore.eigen_solve
    monkeypatch.setattr(StageStore, "eigen_solve",
                        lambda *args: eigen_calls.append(1) or eigen_solve(*args))
    for transpose in (False, True):
        for lead in ((), (3,)):
            r = rng.standard_normal(lead + (s, d))
            eigen = eigen_solve(StageStore(transpose), h, J, gx, r)
            for Js_v, gxs_v in shared:
                y = StageStore(transpose).solve(h, Js_v, gxs_v, r)
                assert y.tobytes() == eigen.tobytes()
            for Js_v, gxs_v in spread + nan:
                M = integrator_mod.stage_matrix(h, Js_v, gxs_v)
                M = M.T if transpose else M
                dense = np.array([np.linalg.solve(M, ri.reshape(-1))
                                  for ri in r.reshape(-1, s * d)]).reshape(r.shape)
                eigen_calls.clear()
                y = StageStore(transpose).solve(h, Js_v, gxs_v, r)
                assert y.shape == r.shape and y.tobytes() == dense.tobytes()
                assert not eigen_calls and not np.array_equal(y, eigen)


def test_solve_stages_raises_on_a_singular_system():
    """A vanishing g_x row leaves the bordered pencil a zero row (a zero
    column in M^T): both the eigenbasis and the dense route raise
    LinAlgError."""
    s, n, h = RADAU_IIA.s, 2, 0.1
    Js = np.repeat(np.eye(n)[None], s, axis=0)
    Js_off = Js.copy()
    Js_off[0, 0, 1] = 1e-3
    gxs = np.zeros((s, n))
    r = np.ones((s, n + 1))
    for stage_Js in (Js, Js_off):
        for transpose in (False, True):
            with pytest.raises(np.linalg.LinAlgError):
                StageStore(transpose).solve(h, stage_Js, gxs, r)


def test_sweep_calls_g_x_and_g_xx_once_per_sliding_stage():
    """The backward sweep on circle-slide takes g_x(x_j) from the
    Filippov values of each sliding stage and evaluates g_xx(x_j) once
    there, for the stage Jacobian; the lam_g recoveries and the event
    rule's E_x = g_x at the located entry add their own.  27 sliding
    stages: 39 g_x and 37 g_xx calls, where a second evaluation of each
    per stage would make 66 and 64."""
    ocp, grid = _circle_slide()
    traj = integrate(ocp, grid, 4)
    assert sum(mode is Mode.SLIDING for mode in traj.mode) * RADAU_IIA.s == 27
    calls = {"g_x": 0, "g_xx": 0}

    def counted(name):
        fn = getattr(ocp, name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    counting = dataclasses.replace(ocp, g_x=counted("g_x"), g_xx=counted("g_xx"))
    run_adjoint(counting, traj, grid, ocp.phi)
    assert calls == {"g_x": 39, "g_xx": 37}


def _solve_paths(monkeypatch):
    """Record, per forward step call and per backward step, which stage
    solves it makes: 'eigen' (StageStore.eigen_solve) or 'dense'
    (StageStore.dense_solve).  Returns (forward, backward): forward lists one
    list of solve kinds per step_ode / step_sliding call, backward maps
    (mode of step k, kind) to a count."""
    forward, backward, current = [], {}, []

    for kind, name in (("eigen", "eigen_solve"), ("dense", "dense_solve")):
        def recorded(*args, _fn=getattr(StageStore, name), _kind=kind):
            if current:
                current[-1].append(_kind)
            return _fn(*args)
        monkeypatch.setattr(StageStore, name, recorded)
    for name in ("step_ode", "step_sliding"):
        def step(*args, _fn=getattr(integrator_mod, name)):
            current.append([])
            try:
                return _fn(*args)
            finally:
                forward.append(current.pop())
        monkeypatch.setattr(integrator_mod, name, step)
    step_adjoint = adjoint_mod._step_adjoint

    def backward_step(traj, k, *args):
        current.append([])
        try:
            return step_adjoint(traj, k, *args)
        finally:
            kinds = current.pop()
            key = (traj.mode[k], kinds[0])
            backward[key] = backward.get(key, 0) + len(kinds)
    monkeypatch.setattr(adjoint_mod, "_step_adjoint", backward_step)
    return forward, backward


@pytest.mark.parametrize("n", [4, 16])
def test_first_iterates_and_off_surface_sweeps_take_the_eigenbasis_solve(monkeypatch, n):
    """On chain-n every Newton first iterate has every stage at the step
    start and takes the eigenbasis solve (the fields are affine on and
    off the surface, so no step solves a later iterate), and so does
    every backward step off the surface, whose stage Jacobians are the
    constant f_x."""
    forward, backward = _solve_paths(monkeypatch)
    ocp, grid = _chain_problem()(n, np.random.default_rng(1))
    traj = integrate(ocp, grid, 4)
    assert any(mode is Mode.SLIDING for mode in traj.mode)
    solving = [kinds for kinds in forward if kinds]
    assert len(solving) >= traj.K
    assert all(kinds[0] == "eigen" and "eigen" not in kinds[1:] for kinds in solving)
    run_adjoint(ocp, traj, grid, ocp.phi)
    off = sum(mode is not Mode.SLIDING for mode in traj.mode)
    assert off > 0 and backward.get((Mode.BELOW, "eigen"), 0) \
        + backward.get((Mode.ABOVE, "eigen"), 0) == off
    assert sum(backward.values()) == traj.K


@pytest.mark.parametrize("n", [4, 16])
def test_sliding_sweeps_on_chain_n_take_the_eigenbasis_solve(monkeypatch, n):
    """On chain-n the blend weight is affine in x and g_x is constant, so
    the stage Jacobians fF_x of a sliding step differ only by rounding:
    every sliding backward step takes the eigenbasis solve, some of them
    with stage Jacobians whose bytes differ."""
    forward, backward = _solve_paths(monkeypatch)
    unequal = []
    solve = StageStore.solve

    def recorded(store, h, Js, gxs, r):
        if store.transpose:
            unequal.append(Js.tobytes() != Js[0].tobytes() * Js.shape[0])
        return solve(store, h, Js, gxs, r)
    monkeypatch.setattr(StageStore, "solve", recorded)
    ocp, grid = _chain_problem()(n, np.random.default_rng(1))
    traj = integrate(ocp, grid, 4)
    run_adjoint(ocp, traj, grid, ocp.phi)
    sliding = sum(mode is Mode.SLIDING for mode in traj.mode)
    assert sliding > 0 and backward.get((Mode.SLIDING, "eigen"), 0) == sliding
    assert sum(backward.values()) == traj.K and any(unequal)


def test_sliding_sweeps_on_a_curved_surface_take_the_dense_solve(monkeypatch):
    """On circle-slide the sliding stages carry different z g_xx terms,
    so each sliding backward step factors the dense stage matrix; the
    off-surface steps (f1_x constant) take the eigenbasis solve."""
    forward, backward = _solve_paths(monkeypatch)
    ocp, grid = _circle_slide()
    traj = integrate(ocp, grid, 4)
    run_adjoint(ocp, traj, grid, ocp.phi)
    sliding = sum(mode is Mode.SLIDING for mode in traj.mode)
    assert sliding == 9 and backward == {(Mode.SLIDING, "dense"): sliding,
                                         (Mode.BELOW, "eigen"): traj.K - sliding}
    assert all(kinds[0] == "eigen" for kinds in forward if kinds)
