"""Verification harness: the FD oracle against closed forms, structure
change flagging, and the convergence-order machinery."""

import numpy as np
import pytest

import slidoc.integrator as integrator_mod
import slidoc.verify as verify_mod
from slidoc.adjoint import run_adjoint
from slidoc.errors import (ChatteringLimit, MeshMismatch, ReferenceUnconverged,
                           TangentialAmbiguity, ValidationError)
from slidoc.integrator import IntegratorOptions, integrate
from slidoc.model import ControlGrid, EndpointFunctional, HybridOCP, Mode
from slidoc.problems import get_problem
from slidoc.verify import (FLAG_NONSMOOTH, QUANTITIES, fd_gradient,
                           gradient_check, order_study)
from test_adjoint import _circle_slide


def quadratic_cost_ocp():
    """x' = u^2 on [0, 1], no switching: phi(u) = x0 + u^2, so the exact
    gradient in the single control entry is 2u."""
    zero = lambda x, u: np.zeros((1, 1))
    return HybridOCP(
        name="quad", n=1, m=1,
        f1=lambda x, u: np.array([u[0] ** 2]), f1_x=zero,
        f1_u=lambda x, u: np.array([[2.0 * u[0]]]),
        f2=lambda x, u: np.array([u[0] ** 2]), f2_x=zero,
        f2_u=lambda x, u: np.array([[2.0 * u[0]]]),
        g=lambda x: x[0] - 100.0, g_x=lambda x: np.array([1.0]),
        g_xx=lambda x: np.zeros((1, 1)),
        phi=EndpointFunctional(lambda x: float(x[0]),
                               lambda x: np.array([1.0])),
        x0=np.zeros(1), t0=0.0, tf=1.0,
        u_lo=np.array([-5.0]), u_hi=np.array([5.0]))


def test_fd_oracle_matches_a_closed_form():
    ocp = quadratic_cost_ocp()
    grid = ControlGrid(0.0, 1.0, np.array([[3.0]]))
    rep = fd_gradient(ocp, grid, integrate(ocp, grid, 4))
    # central differences are exact on a quadratic, up to integrator noise
    assert rep.entries[0, 0] == pytest.approx(6.0, abs=1e-8)
    assert not rep.flags.any()
    assert rep.base_kinds == ()


def test_fd_oracle_zero_for_control_free_dynamics():
    ocp, grid = get_problem("p2-sliding")
    rep = fd_gradient(ocp, grid, integrate(ocp, grid, 4))
    assert np.all(rep.entries == 0.0)


def test_fd_rejects_bad_eps(monkeypatch):
    """eps must be a finite number > 0.  gradient_check refuses any other
    before it integrates: an eps of inf once ran the base and its sweep,
    then made every probe raise, so every entry came back flagged."""
    ocp, grid = get_problem("smooth-linear")
    base = integrate(ocp, grid, 4)
    monkeypatch.setattr(verify_mod, "integrate", None)   # nothing may integrate
    for eps in (0.0, -1e-6, np.inf, np.nan, "1e-6", True):
        for check in (lambda: fd_gradient(ocp, grid, base, eps=eps),
                      lambda: gradient_check(ocp, grid, 4, eps=eps)):
            with pytest.raises(ValidationError) as exc:
                check()
            assert exc.value.payload["field"] == "eps"


def test_gradient_check_agrees_on_smooth_problem():
    ocp, grid = get_problem("smooth-linear")
    chk = gradient_check(ocp, grid, 4)
    assert chk.rel is not None and chk.rel <= 1e-5
    assert chk.fd.flagged == []


@pytest.mark.parametrize("name", ["p2-steered", "circle-slide"])
def test_gradient_check_agrees_through_sliding(name):
    """p2-steered slides on a flat surface; circle-slide slides along a
    curved one (g_xx = 2 I) up to tf, so the g_xx terms of the sliding
    step Jacobians are nonzero."""
    ocp, grid = _circle_slide() if name == "circle-slide" else get_problem(name)
    chk = gradient_check(ocp, grid, 8)
    assert "EnterSliding" in chk.fd.base_kinds
    assert chk.fd.flagged == []
    assert chk.rel is not None and chk.rel <= 1e-5


def test_structure_change_flagging():
    """Entry placed exactly at tf: every probe shifts the entry time
    across the horizon boundary and changes the kind sequence, so every
    entry is flagged and rel degenerates to None."""
    ocp, grid = get_problem("p2-sliding", overrides={"tf": 0.5, "u": 0.0})
    chk = gradient_check(ocp, grid, 8)
    assert chk.fd.flags.all()
    assert chk.rel is None and chk.max_abs_diff is None
    assert chk.fd.base_kinds == ("EnterSliding",)
    d = chk.to_dict()
    assert d["flag"] == FLAG_NONSMOOTH
    assert len(d["flagged"]) == grid.N


@pytest.mark.parametrize("spi", [8, 16])
def test_an_entry_that_moves_off_a_mesh_node_is_flagged(spi):
    """p2-steered from x0 = (0, -0.495) enters sliding within
    surface_tol of the mesh node t = 0.4125, which the full step lands
    on: a fixed-time node, no event node.  A probe of u_0..u_4 moves the
    entry inside a step, where locate_event finds its time; the kinds and
    intervals stay, but the entry's time now moves with u, so the
    functional has a kink there and those entries are flagged.  The
    others agree with the adjoint gradient."""
    ocp, grid = get_problem("p2-steered", {"x0": [0.0, -0.495]})
    chk = gradient_check(ocp, grid, spi)
    base = integrate(ocp, grid, spi)
    (rec,) = base.transitions
    assert abs(rec.t - 0.4125) <= 1e-15 and rec.k == 33 * spi // 8 and base.events == []
    values = grid.values.copy()
    values[0, 0] += 1e-6
    probe = integrate(ocp, grid.with_values(values), spi)
    assert probe.transition_kinds() == ["EnterSliding"] and probe.transition_intervals() == [4]
    assert [e.k for e in probe.events] == [rec.k] and probe.transitions[0].t < rec.t
    assert chk.fd.flagged == [[n, 0] for n in range(5)]
    assert chk.rel is not None and chk.rel <= 1e-7


def test_failing_probe_flags_its_entry(monkeypatch):
    """slide-exit: the probe u_5 - 1e-6 ends an interval at the
    breakpoint t = 0.9 on a graze (|g| below surface_tol, both fields
    pointing back below); it integrates, with the exit moved across the
    breakpoint into interval 5, so its entry is flagged without an
    error.  A probe that raises (here the same probe, made to raise
    TangentialAmbiguity) flags its entry too: NaN, the error class
    named, and every other entry still agrees with the adjoint
    gradient."""
    ocp, grid = get_problem("slide-exit")
    chk = gradient_check(ocp, grid, 8)
    assert chk.fd.errors == {}
    assert chk.fd.flagged == [[5, 0]]
    assert np.isfinite(chk.fd.entries).all()
    assert chk.rel is not None and chk.rel <= 1e-9
    values = grid.values.copy()
    values[5, 0] -= 1e-6
    probe = integrate(ocp, grid.with_values(values), 8)
    assert probe.transition_kinds() == ["EnterSliding", "ExitToF1"]
    assert probe.transition_intervals() == [2, 5]

    integrate_ = verify_mod.integrate

    def failing(ocp, grid, *args, **kwargs):
        if grid.values[5, 0] == values[5, 0]:
            raise TangentialAmbiguity("probe made to fail", w1=0.0, w2=-1.0)
        return integrate_(ocp, grid, *args, **kwargs)
    monkeypatch.setattr(verify_mod, "integrate", failing)
    chk = gradient_check(ocp, get_problem("slide-exit")[1], 8)
    assert chk.fd.errors == {(5, 0): "TangentialAmbiguity"}
    assert chk.fd.flagged == [[5, 0]]
    assert np.isnan(chk.fd.entries[5, 0])
    assert chk.rel is not None and chk.rel <= 1e-9
    d = chk.to_dict()
    assert d["probe_errors"] == [[5, 0, "TangentialAmbiguity"]]
    assert d["entries"][5] == [None]


def test_perturbed_slide_exit_grazes_a_breakpoint_without_crossing():
    """The fd-check benchmark's seed-5 perturbed slide-exit input (N =
    10, 8 steps per interval) exits just before the breakpoint t = 0.9,
    and the short step to it ends on a graze: |g| below surface_tol
    with both fields pointing back below.  No crossing is recorded, the
    run goes on below the surface, and the gradient agrees with FD."""
    rng = np.random.default_rng([5, 1])
    for name in ("p2-sliding", "p2-steered", "slide-exit"):
        ocp, grid = get_problem(name, {"N": 10})
        u = grid.values + rng.uniform(-0.1, 0.1, grid.values.shape)
    grid = grid.with_values(np.clip(u, ocp.u_lo, ocp.u_hi))
    traj = integrate(ocp, grid, 8)
    assert traj.transition_kinds() == ["EnterSliding", "ExitToF1"]
    k = int(traj.breakpoint_nodes[6])
    assert traj.times[k] == 0.9 and traj.transitions[1].t < 0.9
    assert traj.mode[k - 1] is Mode.BELOW and traj.mode[k] is Mode.BELOW
    assert 0.0 < -ocp.g(traj.x[k]) <= traj.opts.surface_tol
    chk = gradient_check(ocp, grid, 8)
    assert chk.rel is not None and chk.rel <= 1e-6


def test_probe_moving_a_transition_across_a_breakpoint_is_flagged():
    """slide-exit exits on the breakpoint t = 0.9, which opens interval 6;
    u_5 - 1e-4 moves the exit to t = 0.8999, into interval 5, with the
    same kind sequence.  The entry is flagged: FD gives 2.5e-5 there and
    the adjoint 0."""
    ocp, grid = get_problem("slide-exit")
    base = integrate(ocp, grid, 8)
    values = grid.values.copy()
    values[5, 0] -= 1e-4
    probe = integrate(ocp, grid.with_values(values), 8)
    assert probe.transition_kinds() == base.transition_kinds()
    assert base.transition_intervals() == [2, 6]
    assert probe.transition_intervals() == [2, 5]
    chk = gradient_check(ocp, grid, 8, eps=1e-4)
    assert chk.fd.flagged == [[5, 0]]
    assert chk.fd.errors == {}


def test_failing_base_run_still_raises(monkeypatch):
    ocp, grid = get_problem("slide-exit", {"N": 1})
    monkeypatch.setattr(integrator_mod, "MAX_TRANSITIONS_PER_INTERVAL", 1)
    with pytest.raises(ChatteringLimit):
        gradient_check(ocp, grid, 8)


def test_gradient_check_refuses_a_fractional_step_count():
    """2.5 steps per interval is refused by the check's own integration,
    not truncated to 2 and then misreported as a base on another mesh."""
    ocp, grid = get_problem("slide-exit", {"N": 2})
    with pytest.raises(ValueError, match="steps_per_interval must be an integer"):
        gradient_check(ocp, grid, 2.5)


def test_fd_oracle_takes_its_options_from_the_base(monkeypatch):
    """A p2-steered base integrated at 4 steps per interval (integrate's
    default is 8) and newton_tol = 1e-10: every probe runs with the
    base's steps per interval and options, and none raises."""
    ocp, grid = get_problem("p2-steered")
    opts = IntegratorOptions(newton_tol=1e-10)
    base = integrate(ocp, grid, 4, opts=opts)
    seen = []
    original = verify_mod.integrate

    def spy(*args, **kwargs):
        seen.append((args[2], kwargs["opts"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "integrate", spy)
    rep = fd_gradient(ocp, grid, base)
    assert len(seen) == 2 * grid.N * grid.m and set(seen) == {(4, opts)}
    assert rep.errors == {}


def test_fd_oracle_rejects_a_base_from_another_mesh(monkeypatch):
    """A base of N = 1 and a grid of N = 2 raise MeshMismatch before any
    probe runs: the u_0 probes integrate from t0 instead of resuming the
    base, so they would run before the first resume failed."""
    ocp, grid = get_problem("smooth-linear", {"N": 1})
    base = integrate(ocp, grid, 8)
    seen = []
    monkeypatch.setattr(verify_mod, "integrate", lambda *args, **kw: seen.append(args))
    with pytest.raises(MeshMismatch, match="different mesh"):
        fd_gradient(ocp, grid.with_values(np.zeros((2, grid.m))), base)
    assert seen == []


@pytest.mark.parametrize("N", [1, 2])
def test_fd_oracle_rejects_a_base_on_another_time_span(monkeypatch, N):
    """A base integrated on [0, 1] and a grid on [0, 2] of the same N
    and steps per interval raise MeshMismatch before any probe runs.
    With N = 1 no probe resumes the base, so nothing later would notice;
    with N = 2 the u_0 probes would run before the first resume failed."""
    ocp, grid = get_problem("smooth-linear", {"N": N})
    base = integrate(ocp, grid, 8)
    wide = ControlGrid(grid.t0, 2.0 * grid.tf, grid.values)
    seen = []
    monkeypatch.setattr(verify_mod, "integrate", lambda *args, **kw: seen.append(args))
    with pytest.raises(MeshMismatch, match="different mesh"):
        fd_gradient(ocp, wide, base)
    assert seen == []


def test_gradient_check_resumes_every_probe(monkeypatch):
    """One integration for the check, then 2 N m probes, each resuming
    at the probed interval.  The step counts are exact: integrating every
    probe from t0, as the oracle once did, takes 260 off-surface and 220
    sliding step solves here."""
    calls = {"integrate": 0, "step_ode": 0, "step_sliding": 0}

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(verify_mod, "integrate")
    spy(integrator_mod, "step_ode")
    spy(integrator_mod, "step_sliding")
    ocp, grid = get_problem("slide-exit", {"N": 4})
    chk = gradient_check(ocp, grid, 4)
    assert chk.fd.base_kinds == ("EnterSliding", "ExitToF1")
    assert calls == {"integrate": 1 + 2 * grid.N * grid.m, "step_ode": 111,
                     "step_sliding": 135}


@pytest.mark.parametrize("name, pi", [("cross12", 0.735), ("cross21", 0.279)])
def test_crossing_jump_with_a_nonzero_pi_end_to_end(name, pi):
    """A crossing whose adjoint jump pi is far from zero, end to end: the
    grid's Cross12 and Cross21 problems at 8 steps per interval, seeded
    controls and w = x1 + 0.3 x0^2, whose gradient is not normal to the
    surface.  The reduced gradient agrees with the FD oracle (measured
    rel 1.6e-9 and 8.6e-10, no entry flagged) and the matrix backend
    agrees with the transformed one."""
    from test_tools import identity_grid
    ocp = identity_grid()._transition_problems()[name]
    values = np.random.default_rng(7).uniform(ocp.u_lo, ocp.u_hi, (10, 1))
    grid = ControlGrid(ocp.t0, ocp.tf, values)
    w = EndpointFunctional(lambda x: float(x[1] + 0.3 * x[0] ** 2),
                           lambda x: np.array([0.6 * x[0], 1.0]), name="w")
    chk = gradient_check(ocp, grid, 8, functional=w)
    assert chk.fd.base_kinds == ({"cross12": "Cross12", "cross21": "Cross21"}[name],)
    assert chk.fd.flagged == [] and chk.fd.errors == {}
    assert chk.rel <= 1e-6
    traj = integrate(ocp, grid, 8)
    adj = run_adjoint(ocp, traj, grid, w)
    ref = run_adjoint(ocp, traj, grid, w, backend="matrix")
    (jump,) = adj.jumps
    assert abs(jump["pi"]) > 0.1 and jump["pi"] == pytest.approx(pi, abs=1e-3)
    assert abs(ref.jumps[0]["pi"] - jump["pi"]) <= 1e-12
    assert np.max(np.abs(ref.grad - adj.grad)) <= 1e-12
    assert np.array_equal(chk.grad, adj.grad)


HS = [0.1, 0.05, 0.025]


def test_order_study_state_quantities():
    ocp, grid = get_problem("smooth-linear")
    rep = order_study(ocp, grid, "state_endpoint", HS)
    assert 4.6 <= rep.slope <= 5.4
    assert rep.reference_gap <= 1e-12
    assert all(e > 0 for e in rep.errors)
    rep = order_study(ocp, grid, "state_stage", HS)
    assert 3.6 <= rep.slope <= 4.6


def test_order_study_adjoint_and_gradient():
    ocp, grid = get_problem("smooth-linear")
    # node multipliers are exact derivatives of the discrete flow, and the
    # discrete adjoint of Radau IIA is itself an order-5 scheme for the
    # adjoint equation (its reversed-time table satisfies B(5), C(2), D(3))
    rep = order_study(ocp, grid, "adjoint_endpoint", HS)
    assert 4.6 <= rep.slope <= 5.4
    # third-order quantity: the reference gate needs the deeper ladder
    rep = order_study(ocp, grid, "adjoint_stage", HS + [0.0125])
    assert rep.slope >= 2.6
    # the gradient is a quadrature of the node and stage multipliers and
    # keeps their fifth order on this smooth problem
    rep = order_study(ocp, grid, "gradient", HS)
    assert 4.6 <= rep.slope <= 5.4


def test_adjoint_nodes_converge_to_closed_form():
    """smooth-linear is x' = A x + B u far from the surface, so the
    continuous adjoint is exp(A^T (tf - t)) grad phi.  The node multipliers
    must reach it at the method's fifth order."""
    ocp, grid = get_problem("smooth-linear")
    A = ocp.f1_x(ocp.x0, grid.values[0])
    w, V = np.linalg.eig(A.T)
    V_inv = np.linalg.inv(V)
    lam_tf = ocp.phi.grad(ocp.x0)

    def exact(s):
        return (V @ np.diag(np.exp(w * s)) @ V_inv @ lam_tf).real

    hs, errors = [], []
    for spi in (1, 2, 4, 8):
        traj = integrate(ocp, grid, spi)
        adj = run_adjoint(ocp, traj, grid, ocp.phi)
        lam = np.array([exact(grid.tf - t) for t in traj.times])
        hs.append((grid.tf - grid.t0) / (grid.N * spi))
        errors.append(float(np.max(np.abs(adj.lam - lam))))
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 4.6 <= slope <= 5.4


def damped_pendulum_ocp(base):
    """x1' = x2, x2' = -sin x1 - 0.2 x2 + u with cost x1^2 + sin x2; the
    surface x1 = 100 is never reached.  x0, horizon and box come from
    base."""
    f = lambda x, u: np.array([x[1], -np.sin(x[0]) - 0.2 * x[1] + u[0]])
    f_x = lambda x, u: np.array([[0.0, 1.0], [-np.cos(x[0]), -0.2]])
    f_u = lambda x, u: np.array([[0.0], [1.0]])
    return HybridOCP(
        name="pendulum", n=2, m=1,
        f1=f, f1_x=f_x, f1_u=f_u, f2=f, f2_x=f_x, f2_u=f_u,
        g=lambda x: float(x[0] - 100.0), g_x=lambda x: np.array([1.0, 0.0]),
        g_xx=lambda x: np.zeros((2, 2)),
        phi=EndpointFunctional(lambda x: float(x[0] ** 2 + np.sin(x[1])),
                               lambda x: np.array([2.0 * x[0], np.cos(x[1])])),
        x0=base.x0, t0=base.t0, tf=base.tf, u_lo=base.u_lo, u_hi=base.u_hi)


def test_order_study_adjoint_endpoint_nonlinear():
    """The fifth-order node adjoint is the method's order, not a property
    of linear dynamics: it holds with nonlinear dynamics and cost."""
    base, grid = get_problem("smooth-linear")
    rep = order_study(damped_pendulum_ocp(base), grid, "adjoint_endpoint", HS)
    assert 4.6 <= rep.slope <= 5.4


def test_order_study_report_shape():
    ocp, grid = get_problem("smooth-linear")
    rep = order_study(ocp, grid, "state_endpoint", HS)
    assert rep.quantity == "state_endpoint"
    assert len(rep.pairwise_orders) == len(HS) - 1
    d = rep.to_dict()
    assert set(d) == {"quantity", "h", "errors", "pairwise_orders",
                      "slope", "reference_gap"}


def test_order_study_input_validation():
    ocp, grid = get_problem("smooth-linear")
    with pytest.raises(ValidationError):
        order_study(ocp, grid, "no_such_quantity", HS)
    with pytest.raises(ValidationError):
        order_study(ocp, grid, "state_endpoint", [0.05, 0.1])   # not decreasing
    with pytest.raises(ValidationError):
        order_study(ocp, grid, "state_endpoint", [0.1, 0.03])   # 3.3 steps per interval
    with pytest.raises(ValidationError):
        order_study(ocp, grid, "state_endpoint", [0.07, 0.035])  # uneven fit
    with pytest.raises(ValidationError, match="at least two"):
        order_study(ocp, grid, "state_endpoint", [0.05])
    span = (grid.tf - grid.t0) / grid.N
    # 3 steps per interval do not divide the reference's 8 x 8
    with pytest.raises(ValidationError, match="does not nest"):
        order_study(ocp, grid, "state_endpoint", [span / 3, span / 8])


@pytest.mark.parametrize("hs", [[np.inf, 0.1], [0.1, 0.0], [0.1, -0.05], ["a", 0.05],
                                [0.1, None]])
def test_order_study_refuses_a_step_that_is_not_finite_and_positive(hs):
    """An h of inf gives 0 steps per interval and one of 0 divides by
    zero, and a str or None once raised ValueError or TypeError from
    float(h); each is refused as a ValidationError on h before any run."""
    ocp, grid = get_problem("smooth-linear")
    with pytest.raises(ValidationError, match="finite number > 0") as exc:
        order_study(ocp, grid, "gradient", hs)
    assert exc.value.payload["field"] == "h"


def test_order_study_refuses_transitions():
    ocp, grid = get_problem("p2-sliding")
    with pytest.raises(ValidationError):
        order_study(ocp, grid, "state_endpoint", HS)


def test_order_study_reference_gate(monkeypatch):
    """A third-order quantity needs a deep reference; with the depth
    capped at 8 the two references disagree above the gate and the
    study must refuse."""
    ocp, grid = get_problem("smooth-linear")
    monkeypatch.setattr(verify_mod, "MAX_REF_FACTOR", 8)
    with pytest.raises(ReferenceUnconverged) as exc:
        order_study(ocp, grid, "adjoint_stage", HS)
    assert exc.value.payload["gap"] > 1e-12
    assert str(exc.value).startswith("references at 32 and 64 steps per interval disagree by ")


@pytest.mark.parametrize("quantity, depths", [("state_stage", [8]),
                                              ("adjoint_stage", [8, 16, 32, 64])])
def test_order_study_stops_at_the_shallowest_reference_that_agrees(monkeypatch, quantity,
                                                                   depths):
    """On HS + [0.0125] (finest 8 steps per interval) the reference starts at
    8 times the finest resolution and doubles, one new run per doubling,
    until it agrees with the run twice as fine: state_stage at once,
    adjoint_stage at 64 after 8, 16 and 32 refuse.  The study runs
    follow."""
    runs = []

    class Spy(verify_mod._RunData):
        def __init__(self, ocp, grid, spi, *args):
            runs.append(spi)
            super().__init__(ocp, grid, spi, *args)
    monkeypatch.setattr(verify_mod, "_RunData", Spy)
    ocp, grid = get_problem("smooth-linear")
    rep = order_study(ocp, grid, quantity, HS + [0.0125])
    assert runs == [8 * d for d in depths + [2 * depths[-1]]] + [1, 2, 4, 8]
    assert rep.reference_gap <= 1e-12


def test_quantity_list_is_closed():
    assert QUANTITIES == ("state_endpoint", "state_stage",
                          "adjoint_endpoint", "adjoint_stage", "gradient")
