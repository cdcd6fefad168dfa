"""Backward sweeps: terminal conditions, stage recursions, jumps, and the
equivalence of the transformed and assembled formulations."""

import dataclasses
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import slidoc.adjoint as adjoint_mod
import slidoc.integrator as integrator_mod
import slidoc.tableau as tableau_mod
from slidoc.adjoint import (adjoint_step_matrix, adjoint_step_sliding,
                            adjoint_step_transformed, assemble_ode_step_matrices,
                            assemble_sliding_step_matrices, run_adjoint,
                            lambda_g_pointwise, run_adjoints, terminal_conditions)
from slidoc.errors import SingularJumpSystem
from slidoc.gradient import reduced_gradient_matrix
from slidoc.verify import gradient_check
from test_tools import drawn_survey
from slidoc.integrator import EventNode, IntegratorOptions, StageStore, integrate
from slidoc.model import (ControlGrid, EndpointFunctional, HybridOCP, Mode,
                          filippov_jacobians, filippov_values)
from slidoc.problems import get_problem
from slidoc.tableau import adjoint_tableau, radau_iia_3

TAB = radau_iia_3()


def test_zero_field_keeps_multiplier_constant():
    w = EndpointFunctional(value=lambda x: float(x[0]),
                           grad=lambda x: np.array([1.0, 0.0]))
    zeros = lambda x, u: np.zeros((2, 2))
    bu = lambda x, u: np.zeros((2, 1))
    still = lambda x, u: np.zeros(2)
    ocp = HybridOCP(name="still", n=2, m=1,
                    f1=still, f1_x=zeros, f1_u=bu,
                    f2=still, f2_x=zeros, f2_u=bu,
                    g=lambda x: float(x[1] - 5.0),
                    g_x=lambda x: np.array([0.0, 1.0]),
                    g_xx=lambda x: np.zeros((2, 2)),
                    phi=w, x0=np.zeros(2), t0=0.0, tf=1.0,
                    u_lo=np.array([-1.0]), u_hi=np.array([1.0]))
    grid = ControlGrid(0.0, 1.0, np.zeros((3, 1)))
    traj = integrate(ocp, grid, 4)
    adj = run_adjoint(ocp, traj, grid, w)
    assert np.all(adj.lam == adj.lam[-1])
    assert np.all(adj.lam[-1] == [1.0, 0.0])


def test_terminal_conditions_off_surface():
    ocp, grid = get_problem("smooth-linear")
    traj = integrate(ocp, grid, 4)
    lam_f, lam_g, nu1 = terminal_conditions(ocp, traj, grid, ocp.phi)
    assert np.array_equal(lam_f, ocp.phi.grad(traj.x[-1]))
    assert lam_g == 0.0
    assert nu1 is None


def test_terminal_conditions_on_surface_are_tangent():
    """Sliding at tf: the terminal multiplier is the cost gradient minus
    its normal component, so g_x lam_f = 0."""
    ocp, grid = get_problem("p2-sliding")
    w = EndpointFunctional(value=lambda x: float(x[0] + 3.0 * x[1]),
                           grad=lambda x: np.array([1.0, 3.0]))
    traj = integrate(ocp, grid, 8)
    lam_f, lam_g, nu1 = terminal_conditions(ocp, traj, grid, w)
    gx = ocp.g_x(traj.x[-1])
    assert abs(float(gx @ lam_f)) <= 1e-12
    assert lam_f == pytest.approx([1.0, 0.0], abs=1e-12)
    # lam_f = w_x + nu1 g_x^T, so nu1 carries minus the normal component
    assert nu1 == pytest.approx(-3.0, abs=1e-12)


def test_relay_sweep_annihilates_the_normal_component():
    """On the relay problem the sliding adjoint kills lambda_2 exactly,
    and the entry jump is zero because the Hamiltonian is continuous."""
    ocp, grid = get_problem("p2-sliding")
    traj = integrate(ocp, grid, 8)
    adj = run_adjoint(ocp, traj, grid, ocp.phi)
    entry = traj.transitions[0].k
    assert np.all(adj.lam[entry:, 1] == 0.0)
    assert adj.lam[0] == pytest.approx([1.0, 0.0], abs=1e-13)
    assert adj.nu1 == 0.0
    assert [j["pi"] for j in adj.jumps] == [pytest.approx(0.0, abs=1e-13)]


def test_sliding_step_is_exact_in_one_step():
    """One backward sliding step on the relay problem maps any lam_plus
    onto the tangent space with no truncation error: the normal component
    is removed completely, the tangential one kept."""
    ocp, grid = get_problem("p2-sliding")
    traj = integrate(ocp, grid, 8)
    k = traj.transitions[0].k + 1          # a fully sliding step
    u = grid.values[traj.ctrl[k]]
    lam_plus = np.array([1.0, 0.7])
    lam_k, row = adjoint_step_sliding(ocp, traj, k, u, lam_plus[None],
                                      StageStore(transpose=True))
    assert lam_k.shape == (1, ocp.n)
    assert lam_k[0] == pytest.approx([1.0, 0.0], abs=1e-13)
    assert row.shape == (1, ocp.m)


@pytest.mark.parametrize("name", ["smooth-linear", "p2-sliding", "slide-exit",
                                  "circle-slide"])
def test_two_backends_agree(name):
    """The transposed-stage-matrix kernel and the dense oracle are two
    derivations of the same step adjoint, off the surface and sliding:
    lam, lam_g, the gradient and every jump pi agree."""
    ocp, grid = _circle_slide() if name == "circle-slide" else get_problem(name)
    traj = integrate(ocp, grid, 6)
    assert (Mode.SLIDING in traj.mode) == (name != "smooth-linear")
    a1 = run_adjoint(ocp, traj, grid, ocp.phi, backend="transformed")
    a2 = run_adjoint(ocp, traj, grid, ocp.phi, backend="matrix")
    for got, ref in ((a1.lam, a2.lam), (a1.lam_g, a2.lam_g), (a1.grad, a2.grad),
                     ([j["pi"] for j in a1.jumps], [j["pi"] for j in a2.jumps])):
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.shape == ref.shape
        if ref.size:
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name", ["smooth-linear", "constrained-toy"])
def test_stage_multipliers_satisfy_the_reversed_table_recursion(name):
    """Off the surface the stage multipliers of the transposed solve are
    those of the reversed-time table a~ = adjoint_tableau(A):
    lam_i = lam_plus + h sum_j a~_ij f_x^T(x_j) lam_j, and
    lam_k = lam_plus + h sum_i b_i f_x^T(x_i) lam_i."""
    ocp, grid = get_problem(name)
    traj = integrate(ocp, grid, 4)
    adj_tab = adjoint_tableau(TAB)
    rng = np.random.default_rng(7)
    for k in range(traj.K):
        assert traj.mode[k] is not Mode.SLIDING
        u = grid.values[traj.ctrl[k]]
        h = traj.h[k]
        lam_plus = rng.normal(size=(2, ocp.n))
        stages, lam_k, _ = adjoint_step_transformed(ocp, traj, k, u, lam_plus,
                                                    StageStore(transpose=True))
        _, f_x, _ = ocp.field(traj.mode[k])
        fxT = [f_x(x_j, u).T for x_j in traj.stages_x[k]]
        for f in range(2):
            lam = stages[f]
            scale = max(1.0, float(np.max(np.abs(lam))))
            for i in range(TAB.s):
                rec = lam_plus[f] + h * sum(adj_tab.A[i, j] * fxT[j] @ lam[j]
                                            for j in range(TAB.s))
                assert np.max(np.abs(lam[i] - rec)) <= 1e-13 * scale
            end = lam_plus[f] + h * sum(TAB.b[i] * fxT[i] @ lam[i] for i in range(TAB.s))
            assert np.max(np.abs(lam_k[f] - end)) <= 1e-13 * scale


def test_matrix_backend_keeps_stage_slots_empty():
    """Between steps only the endpoint slot of the padded multiplier
    carries information; the stage slots vanish identically."""
    ocp, grid = get_problem("smooth-linear")
    traj = integrate(ocp, grid, 4)
    adj = run_adjoint(ocp, traj, grid, ocp.phi, backend="matrix")
    n, s = ocp.n, TAB.s
    for k in (0, traj.K // 2, traj.K - 1):
        u = grid.values[traj.ctrl[k]]
        Lam_plus = np.zeros((s + 1) * n)
        Lam_plus[s * n:] = adj.lam[k + 1]
        Lam_k, _ = adjoint_step_matrix(ocp, traj, k, u, Lam_plus[None])
        assert np.all(Lam_k[0, :s * n] == 0.0)
        assert np.array_equal(Lam_k[0, s * n:], adj.lam[k])


def _constant_crossing():
    """Constant fields f1 = (1, 2 + u) below and f2 = (1, 0.5 + u) above
    g = x1, w = x1, from (0, -0.5) at u = 0: the run crosses upward at
    t = 0.25, between the mesh nodes 1/6 and 1/3 of N = 3 intervals at 2
    steps each, so its node is an event node."""
    zeros = lambda x, u: np.zeros((2, 2))
    bu = lambda x, u: np.array([[0.0], [1.0]])
    w = EndpointFunctional(value=lambda x: float(x[1]),
                           grad=lambda x: np.array([0.0, 1.0]))
    ocp = HybridOCP(name="cross", n=2, m=1,
                    f1=lambda x, u: np.array([1.0, 2.0 + u[0]]), f1_x=zeros, f1_u=bu,
                    f2=lambda x, u: np.array([1.0, 0.5 + u[0]]), f2_x=zeros, f2_u=bu,
                    g=lambda x: float(x[1]),
                    g_x=lambda x: np.array([0.0, 1.0]),
                    g_xx=lambda x: np.zeros((2, 2)),
                    phi=w, x0=np.array([0.0, -0.5]), t0=0.0, tf=1.0,
                    u_lo=np.array([-1.0]), u_hi=np.array([1.0]))
    return ocp, ControlGrid(0.0, 1.0, np.zeros((3, 1)))


def test_crossing_jump_hand_case():
    """Constant fields, crossing upward at a located node, end to end: the
    step before it has H_k(lam) = lam . f1 = 2 and H_k(g_x) = g_x f1 = 2,
    the step after it mu = -lam . f2 = -0.5, so pi = (2 - 0.5) / 2 and
    lam^- = lam^+ - pi g_x^T = (0, 0.25).  The gradient agrees with the
    FD oracle."""
    ocp, grid = _constant_crossing()
    traj = integrate(ocp, grid, 2)
    assert traj.transition_kinds() == ["Cross12"]
    assert traj.events == [EventNode(k=traj.transitions[0].k, boundary=None)]
    adj = run_adjoint(ocp, traj, grid, ocp.phi)
    (jump,) = adj.jumps
    assert jump["kind"] == "Cross12" and jump["event"] == "g"
    assert jump["pi"] == (2.0 - 0.5) / 2.0
    assert adj.lam[jump["k"]] == pytest.approx([0.0, 0.25], abs=1e-14)
    chk = gradient_check(ocp, grid, 2)
    assert chk.rel <= 1e-8 and np.abs(chk.grad).max() > 0.1


def test_crossing_jump_singular_when_tangent():
    """The jump's denominator H_k(E_x) = g_x f1 = 2 on the constant
    crossing: a sweep whose eps_tan is not below it raises
    SingularJumpSystem naming the node and the denominator."""
    ocp, grid = _constant_crossing()
    traj = integrate(ocp, grid, 2)
    traj = dataclasses.replace(traj, opts=IntegratorOptions(eps_tan=2.0))
    with pytest.raises(SingularJumpSystem) as exc:
        run_adjoint(ocp, traj, grid, ocp.phi)
    assert exc.value.payload == {"den": 2.0, "k": traj.transitions[0].k}


def test_an_exit_at_a_fixed_time_takes_no_jump():
    """slide-exit leaves the surface at the breakpoint t = 0.9, a node
    with a fixed time: only its located entry is an event node, the exit
    records event None and pi = 0, lam keeps its normal part there, and
    the gradient still agrees with the FD oracle."""
    ocp, grid = get_problem("slide-exit")
    traj = integrate(ocp, grid, 8)
    entry, exit_ = traj.transitions
    assert traj.events == [EventNode(k=entry.k, boundary=None)]
    assert exit_.k in traj.breakpoint_nodes
    adj = run_adjoint(ocp, traj, grid, ocp.phi)
    assert [(j["kind"], j["event"], j["pi"]) for j in adj.jumps] == [
        ("EnterSliding", "g", pytest.approx(0.0, abs=1e-10)), ("ExitToF1", None, 0.0)]
    assert abs(float(ocp.g_x(traj.x[exit_.k]) @ adj.lam[exit_.k])) > 0.5
    assert gradient_check(ocp, grid, 8).rel <= 1e-8


@pytest.mark.parametrize("seed", [953, 183])
def test_located_events_give_the_gradient_of_the_discrete_map(seed):
    """Drawn seeds 953 and 183 (tools/drawn_survey.py) enter sliding and
    exit a curved surface where the blend weight reaches 0, both at
    located nodes.  Their times move with x and u, and so do the steps
    on either side, which the event rule carries through mu: the gradient
    agrees with the FD oracle to 1e-8 (it missed by 2.5e-3 and 4.2e-6
    with continuous-time jumps and no mu), and the two backends agree to
    1e-12."""
    ocp, grid = drawn_survey().drawn_problem(seed)
    traj = integrate(ocp, grid, 8)
    assert traj.transition_kinds() == ["EnterSliding", "ExitToF1"]
    assert [e.boundary for e in traj.events] == [None, 0]
    chk = gradient_check(ocp, grid, 8)
    assert chk.fd.flagged == [] and chk.rel <= 1e-8
    ref = run_adjoint(ocp, traj, grid, ocp.phi, backend="matrix").grad
    assert np.array_equal(chk.grad, run_adjoint(ocp, traj, grid, ocp.phi).grad)
    assert np.max(np.abs(chk.grad - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def _circle_slide():
    """Curved surface g = |x|^2 - 1 (g_xx = 2 I) with f1 = x + u J x +
    (0.3, 0) inside and f2 = -x + u J x outside: from (0.5, 0) at u = 0.4
    the trajectory reaches the circle and slides along it."""
    w = EndpointFunctional(value=lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0.0]))
    ocp = HybridOCP(name="circle-slide", n=2, m=1,
                    f1=lambda x, u: x + u[0] * (ROT @ x) + np.array([0.3, 0.0]),
                    f1_x=lambda x, u: np.eye(2) + u[0] * ROT,
                    f1_u=lambda x, u: (ROT @ x)[:, None],
                    f2=lambda x, u: -x + u[0] * (ROT @ x),
                    f2_x=lambda x, u: -np.eye(2) + u[0] * ROT,
                    f2_u=lambda x, u: (ROT @ x)[:, None],
                    g=lambda x: float(x @ x - 1.0),
                    g_x=lambda x: 2.0 * x,
                    g_xx=lambda x: 2.0 * np.eye(2),
                    phi=w, x0=np.array([0.5, 0.0]), t0=0.0, tf=1.0,
                    u_lo=np.array([-1.0]), u_hi=np.array([1.0]))
    return ocp, ControlGrid(0.0, 1.0, np.full((4, 1), 0.4))


def _chain_problem():
    """chain-n of the benchmark, loaded from benchmarks/chain.py as is."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "chain.py"
    spec = importlib.util.spec_from_file_location("_benchmark_chain", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.chain_problem


def _terminal_system(ocp, traj, grid, w):
    """(lam_f, lam_g, nu1) at tf from one dense (n+2) solve of the
    conditions on the surface: lam_f - nu1 g_x^T = w_x, g_x lam_f = 0 and
    |g_x|^2 lam_g = (g_x fF_x^T + z g_x g_xx - (g_xx x')^T) lam_f, with
    x' = f_F + z g_x^T."""
    xK, n = traj.x[-1], ocp.n
    u, z = grid.values[traj.ctrl[-1]], float(traj.z_node[-1])
    fF, fF_x = filippov_jacobians(ocp, xK, u, eps_den=traj.opts.eps_den)[:2]
    gx, gxx = ocp.g_x(xK), ocp.g_xx(xK)
    M = np.zeros((n + 2, n + 2))
    rhs = np.zeros(n + 2)
    M[:n, :n] = np.eye(n)
    M[:n, n + 1] = -gx
    rhs[:n] = w.grad(xK)
    M[n, :n] = gx
    M[n + 1, :n] = -(gx @ fF_x.T) - z * (gx @ gxx) + gxx @ (fF + z * gx)
    M[n + 1, n] = gx @ gx
    sol = np.linalg.solve(M, rhs)
    return sol[:n], sol[n], sol[n + 1]


@pytest.mark.parametrize("z", [None, 0.5])
@pytest.mark.parametrize("name", ["circle-slide", "chain-4"])
def test_terminal_conditions_solve_the_terminal_system(name, z):
    """Ending on the surface, the projected w_x, its pointwise lam_g and
    nu1 = -pi solve the dense (n+2) terminal system, on a curved and a
    flat surface, at the converged z(tf) and at z(tf) = 0.5."""
    if name == "circle-slide":
        ocp, grid = _circle_slide()
    else:
        ocp, grid = _chain_problem()(4, np.random.default_rng(1))
    traj = integrate(ocp, grid, 8)
    assert traj.terminal_mode is Mode.SLIDING
    if z is not None:
        traj.z_node[-1] = z
    c = np.arange(1.0, ocp.n + 1)
    tilted = EndpointFunctional(value=lambda x: float(c @ x), grad=lambda x: c)
    for w in (ocp.phi, tilted):
        got = terminal_conditions(ocp, traj, grid, w)
        ref = _terminal_system(ocp, traj, grid, w)
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-13 * max(1e-300, np.max(np.abs(ref[0])),
                                                         abs(ref[1]), abs(ref[2]))
    assert ref[2] != 0.0   # the tilted functional has a normal part


def test_lambda_g_is_the_bracket_of_the_normal_and_the_sliding_field():
    """lambda_g_pointwise's numerator is lam . [N, F], the Lie bracket of
    N = g_x^T and F = f_F + z g_x^T, checked against the central
    difference (F(x + eN) - F(x - eN) - N(x + eF) + N(x - eF)) / 2e on
    the circle, at z = 0.5 and a lam with a normal part, so that both
    g_xx terms count."""
    ocp, grid = _circle_slide()
    traj = integrate(ocp, grid, 8)
    x, u, z = traj.x[-1], grid.values[-1], 0.5
    lam = np.array([0.7, -1.3])

    def F(y):
        return filippov_values(ocp, y, u, traj.opts.eps_den).fF + z * ocp.g_x(y)

    N, e = ocp.g_x, 1e-5
    bracket = (F(x + e * N(x)) - F(x - e * N(x)) - N(x + e * F(x)) + N(x - e * F(x))) / (2 * e)
    ref = float(lam @ bracket) / float(N(x) @ N(x))
    assert abs(lambda_g_pointwise(ocp, x, u, z, lam, traj.opts.eps_den) - ref) <= 1e-9 * max(1.0, abs(ref))


def _step_residual(ocp, mode, h, Xp, xk, u):
    """F(X(k+1), x(k), u) of one step in mode, written out from the
    scheme: the stage rows x_i - x(k) - h sum_j a_ij v_j (each followed
    by g(x_i) when sliding), then the endpoint row x(k+1) - x(k) - h
    sum_j b_j v_j, with v_j = f(x_j, u) off the surface and the Filippov
    field plus g_x^T(x_j) z_j on it."""
    n, s = ocp.n, TAB.s
    sliding = mode is Mode.SLIDING
    d = n + 1 if sliding else n
    stages = Xp[:s * d].reshape(s, d)

    def v(x, z):
        if not sliding:
            return ocp.field(mode)[0](x, u)
        gx = ocp.g_x(x)
        f1, f2 = ocp.f1(x, u), ocp.f2(x, u)
        a = (gx @ f1) / (gx @ f1 - gx @ f2)
        return (1.0 - a) * f1 + a * f2 + gx * z

    vs = [v(row[:n], row[n] if sliding else 0.0) for row in stages]
    rows = []
    for i in range(s):
        rows.append(stages[i, :n] - xk - h * sum(TAB.A[i, j] * vs[j] for j in range(s)))
        if sliding:
            rows.append([ocp.g(stages[i, :n])])
    rows.append(Xp[s * d:] - xk - h * sum(TAB.b[j] * vs[j] for j in range(s)))
    return np.concatenate(rows)


def _central_differences(F, v, eps=1e-6):
    cols = []
    for i in range(v.size):
        e = np.zeros(v.size)
        e[i] = eps
        cols.append((F(v + e) - F(v - e)) / (2.0 * eps))
    return np.array(cols).T


@pytest.mark.parametrize("case", ["off-surface", "sliding", "sliding-unconverged"])
def test_step_jacobians_match_central_differences(case):
    """F_{X+}, F_X and F_u of both step assemblies against central
    differences of the step residual, on a curved surface.  At converged
    sliding stages z is about 1e-8, so the z g_xx terms are also checked
    at a perturbed iterate with |z| about 0.5."""
    ocp, grid = _circle_slide()
    traj = integrate(ocp, grid, 4)
    assert traj.transition_kinds() == ["EnterSliding"]
    u = grid.values[0]
    n, s = ocp.n, TAB.s
    if case == "off-surface":
        k = 0
        assert traj.mode[k] is Mode.BELOW
        FXp, FX, Fu = assemble_ode_step_matrices(ocp, traj, k, u)
        stages = traj.stages_x[k]
    else:
        k = traj.transitions[0].k + 1
        assert traj.mode[k] is Mode.SLIDING
        if case == "sliding-unconverged":
            traj.stages_x[k] = traj.stages_x[k] + np.array([[0.02, -0.01]])
            traj.stages_z[k] = np.array([0.5, -0.45, 0.4])
        FXp, FX, Fu = assemble_sliding_step_matrices(ocp, traj, k, u)
        stages = np.column_stack([traj.stages_x[k], traj.stages_z[k]])
    sliding = case != "off-surface"
    h, xk = traj.h[k], traj.x[k]
    Xp = np.append(stages.ravel(), traj.x[k + 1])
    dim = Xp.size
    assert FXp.shape == FX.shape == (dim, dim) and Fu.shape == (dim, ocp.m)

    def F(Xp=Xp, xk=xk, u=u):
        return _step_residual(ocp, traj.mode[k], h, Xp, xk, u)

    fd_FXp = _central_differences(lambda v: F(Xp=v), Xp)
    fd_FX = np.zeros((dim, dim))   # only the endpoint slot of X(k) enters
    fd_FX[:, dim - n:] = _central_differences(lambda v: F(xk=v), xk)
    fd_Fu = _central_differences(lambda v: F(u=v), u)
    assert np.max(np.abs(FXp - fd_FXp)) <= 1e-8
    assert np.max(np.abs(FX - fd_FX)) <= 1e-8
    assert np.max(np.abs(Fu - fd_Fu)) <= 1e-8


def test_stability_function_is_preserved_by_the_transform():
    """Both tableaus apply the same rational map on a scalar linear step."""
    adj = adjoint_tableau(TAB)

    def stab(tab, z):
        s = tab.s
        K = np.linalg.solve(np.eye(s) - z * tab.A, np.ones(s))
        return 1.0 + z * float(tab.b @ K)

    for z in (-2.0, -0.5, -0.1, 0.3):
        assert stab(adj, z) == pytest.approx(stab(TAB, z), abs=1e-13)


def _lockstep_cases():
    ocp, grid = get_problem("constrained-toy")
    yield ocp, grid, [ocp.phi, ocp.g1[0], ocp.g2[0]]
    # chain-16: sliding steps whose solves reuse stored eigenbasis blocks
    ocp, grid = _chain_problem()(16, np.random.default_rng(1))
    yield ocp, grid, [ocp.phi, _chain_linear(ocp.n)]
    # drawn seed 953: jumps at a located entry (E = g) and a located exit
    # (E = alpha), each solved with E_x as one more right-hand side
    ocp, grid = drawn_survey().drawn_problem(953)
    yield ocp, grid, [ocp.phi, EndpointFunctional(value=lambda x: float(x[0] - 2.0 * x[1]),
                                                  grad=lambda x: np.array([1.0, -2.0]))]
    # sliding steps, a located entry and an exit at a fixed time, two
    # functionals
    ocp, grid = get_problem("slide-exit")
    w = EndpointFunctional(value=lambda x: float(x[0] + 3.0 * x[1] ** 2),
                           grad=lambda x: np.array([1.0, 6.0 * x[1]]), name="w")
    yield ocp, grid, [ocp.phi, w]


def _chain_linear(n: int) -> EndpointFunctional:
    """w = x_0 + 2 x_{n-2} on chain-n: a second functional whose
    gradient is nonzero."""
    c = np.zeros(n)
    c[0], c[n - 2] = 1.0, 2.0
    return EndpointFunctional(value=lambda x: float(c @ x), grad=lambda x: c, name="w")


def test_unknown_backend_is_refused():
    ocp, grid = get_problem("p2-sliding")
    traj = integrate(ocp, grid, 2)
    with pytest.raises(ValueError, match="unknown adjoint backend 'dense'"):
        run_adjoints(ocp, traj, grid, [ocp.phi], backend="dense")


def test_run_adjoints_matches_single_sweeps():
    """The lockstep sweep gives every functional bit for bit what a sweep
    of that functional alone gives, on both backends, also when its
    steps reuse stored eigenbasis blocks (chain-16)."""
    for (ocp, grid, ws), backend in itertools.product(_lockstep_cases(),
                                                      ("transformed", "matrix")):
        traj = integrate(ocp, grid, 8)
        batch = run_adjoints(ocp, traj, grid, ws, backend=backend)
        assert len(batch) == len(ws)
        for w, adj in zip(ws, batch):
            solo = run_adjoint(ocp, traj, grid, w, backend=backend)
            assert adj.functional == w.name
            assert np.array_equal(adj.lam, solo.lam)
            assert np.array_equal(adj.lam_g, solo.lam_g)
            assert np.array_equal(adj.grad, solo.grad)
            assert len(adj.stage_lams) == len(solo.stage_lams)
            for a, b in zip(adj.stage_lams, solo.stage_lams):
                assert (a is None and b is None) or np.array_equal(a, b)
            assert np.array_equal([j["pi"] for j in adj.jumps],
                                  [j["pi"] for j in solo.jumps])
            assert adj.nu1 == solo.nu1
            assert np.abs(adj.grad).max() > 0.0
    # the last case swept sliding steps and both transitions in lockstep
    assert traj.transition_kinds() == ["EnterSliding", "ExitToF1"]
    assert [len(adj.jumps) for adj in batch] == [2, 2]


def test_lockstep_lam_g_evaluates_the_model_once_per_node(monkeypatch):
    """Three functionals on circle-slide (sliding to tf on a curved
    surface) and on slide-exit (an exit node after sliding steps): lam_g
    and the terminal values equal each functional's own sweep bit for
    bit, and lambda_g_pointwise evaluates filippov_values, g_xx and
    filippov_state_jacobian once per sliding node, once per transition
    or event node after a sliding step and once at tf on the surface,
    however many functionals the sweep carries.  (On slide-exit's flat
    surface with constant fields lam_g is 0 throughout.)"""
    calls = []

    def spy(original):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == "lambda_g_pointwise":
                calls.append(original.__name__)
            return original(*args, **kwargs)
        wrapper.__name__ = original.__name__
        return wrapper

    for name in ("filippov_values", "filippov_state_jacobian"):
        monkeypatch.setattr(adjoint_mod, name, spy(getattr(adjoint_mod, name)))
    quad = EndpointFunctional(value=lambda x: float(x[0] + 3.0 * x[1] ** 2),
                              grad=lambda x: np.array([1.0, 6.0 * x[1]]), name="quad")
    lin = EndpointFunctional(value=lambda x: float(x[0] - 2.0 * x[1]),
                             grad=lambda x: np.array([1.0, -2.0]), name="lin")
    for ocp, grid in (_circle_slide(), get_problem("slide-exit")):
        ocp = dataclasses.replace(ocp, g_xx=spy(ocp.g_xx))
        ws = [ocp.phi, quad, lin]
        traj = integrate(ocp, grid, 8)
        del calls[:]
        batch = run_adjoints(ocp, traj, grid, ws)
        counts = {name: calls.count(name) for name in set(calls)}
        sliding = [k for k in range(traj.K) if traj.mode[k] is Mode.SLIDING]
        nodes = {rec.k for rec in traj.transitions} | {e.k for e in traj.events}
        expected = len(sliding) + len([k for k in sliding if k + 1 in nodes]) \
            + (traj.terminal_mode is Mode.SLIDING)
        assert counts == dict.fromkeys(["filippov_values", "<lambda>",
                                        "filippov_state_jacobian"], expected)
        for w, adj in zip(ws, batch):
            solo = run_adjoint(ocp, traj, grid, w)
            assert adj.lam_g.tobytes() == solo.lam_g.tobytes()
            assert adj.lam.tobytes() == solo.lam.tobytes() and adj.nu1 == solo.nu1
        if ocp.name == "circle-slide":
            assert min(np.abs(adj.lam_g).max() for adj in batch) > 0.0
    assert traj.transition_kinds() == ["EnterSliding", "ExitToF1"]


def _count_factorizations(monkeypatch) -> dict:
    """Count np.linalg.solve and np.linalg.inv calls from here on."""
    counts = {"solve": 0, "inv": 0}
    for name in counts:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_lockstep_sweep_shares_each_step_solve(monkeypatch):
    """Three functionals, one sweep, 16 off-surface steps with the one
    Jacobian f1_x and one step size: the first step
    factors its eigenbasis blocks (one batched solve for the three
    functionals), the second inverts them and every later step applies
    that inverse.  No reversed-time table is built (the sweep solves
    with the transposed forward stage matrix)."""
    ocp, grid = get_problem("constrained-toy", {"N": 4})
    traj = integrate(ocp, grid, 4)
    table = tableau_mod.adjoint_tableau
    tables = []
    monkeypatch.setattr(tableau_mod, "adjoint_tableau",
                        lambda *args, **kwargs: tables.append(1) or table(*args, **kwargs))
    counts = _count_factorizations(monkeypatch)
    run_adjoints(ocp, traj, grid, [ocp.phi, ocp.g1[0], ocp.g2[0]])
    assert traj.K == 16 and not traj.transitions
    assert counts == {"solve": 1, "inv": 1} and not tables


def _chain16():
    ocp, grid = _chain_problem()(16, np.random.default_rng(1))
    traj = integrate(ocp, grid, 8)
    assert traj.K == 81 and sum(mode is Mode.SLIDING for mode in traj.mode) == 59
    return ocp, grid, traj


def test_chain_sweep_factors_four_blocks(monkeypatch):
    """chain-16 (seed 1, 8 steps per interval): 81 backward steps, 22 off
    the surface and 59 sliding, with 9 distinct step sizes: full steps a
    few ulps apart on either side, the located entry step (off) and the
    rest of its step (sliding).  The sweep factors four sets of
    eigenbasis blocks, one per side and size, and inverts the two of
    full steps, which later steps reuse; every other step applies a
    stored inverse."""
    ocp, grid, traj = _chain16()
    assert len(set(traj.h)) == 9
    counts = _count_factorizations(monkeypatch)
    run_adjoint(ocp, traj, grid, ocp.phi)
    assert counts == {"solve": 4, "inv": 2}


def test_slide_exit_sweep_factors_the_off_surface_blocks_twice(monkeypatch):
    """slide-exit (default, N = 10, 8 steps per interval): 81 backward
    steps, off the surface from tf back to the exit, sliding back to the
    located entry, off again before it.  The store holds only the blocks
    factored last, so the full off-surface steps before the entry factor
    and invert their blocks again after the sliding arc: the eigenbasis
    solves factor five sets of blocks (full off-surface steps twice,
    full sliding steps, both parts of the entry step) and invert three,
    and eight sliding steps whose stage Jacobians differ by more than a
    few ulps factor the dense stage matrix."""
    ocp, grid = get_problem("slide-exit")
    traj = integrate(ocp, grid, 8)
    assert traj.K == 81 and traj.transition_kinds() == ["EnterSliding", "ExitToF1"]
    counts = _count_factorizations(monkeypatch)
    run_adjoint(ocp, traj, grid, ocp.phi)
    assert counts == {"solve": 13, "inv": 3}


def test_reruns_of_a_sweep_are_byte_identical():
    """Each sweep starts with an empty store, so a second run_adjoints
    gives the bytes of the first."""
    ocp, grid, traj = _chain16()
    ws = [ocp.phi, _chain_linear(ocp.n)]
    first, second = (run_adjoints(ocp, traj, grid, ws) for _ in range(2))
    for a, b in zip(first, second):
        for name in ("lam", "lam_g", "grad"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert [j["pi"] for j in a.jumps] == [j["pi"] for j in b.jumps]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.stage_lams, b.stage_lams)
                   if x is not None)


def test_ill_conditioned_blocks_are_solved_not_inverted(monkeypatch):
    """With COND_BOUND forced below every block's ||B||_1 ||B^-1||_1 no
    stored inverse is applied: every step factors its own blocks and
    gives the bytes of the first solve of a fresh solver, whose empty
    slot matches nothing."""
    ocp, grid, traj = _chain16()
    monkeypatch.setattr(integrator_mod, "COND_BOUND", 0.5)
    solve, checked = StageStore.solve, []

    def recorded(store, h, Js, gxs, r):
        y = solve(store, h, Js, gxs, r)
        own = solve(StageStore(transpose=True), h, Js, gxs, r)
        checked.append(store.transpose and y.tobytes() == own.tobytes())
        return y
    monkeypatch.setattr(StageStore, "solve", recorded)
    counts = _count_factorizations(monkeypatch)
    run_adjoint(ocp, traj, grid, ocp.phi)
    assert len(checked) == traj.K and all(checked)
    # the K own solves of the check, the sweep's K solves and its two
    # rejected inversions
    assert counts == {"solve": 2 * traj.K, "inv": 2}


def test_sweep_forwards_eps_den_to_every_blend_jacobian(monkeypatch):
    """The backward sweep blends with the eps_den the trajectory was
    integrated with at all three sites, each of which evaluates
    filippov_values (the piece that computes alpha) directly or through
    filippov_jacobians: the Jacobians of a sliding step (which the kernel
    and the dense oracle share), the pointwise lam_g (which the terminal
    values use too) and the gradient of E = alpha - b at an exit node
    located by the blend weight (drawn seed 953).
    Neither sweep is given a tolerance; the matrix oracle of
    reduced_gradient_matrix reads it from the trajectory too."""
    seen = []

    def spy(original):
        def wrapper(*args, **kwargs):
            seen.append((sys._getframe(1).f_code.co_name, kwargs.get("eps_den")))
            return original(*args, **kwargs)
        return wrapper

    for name in ("filippov_values", "filippov_jacobians"):
        monkeypatch.setattr(adjoint_mod, name, spy(getattr(adjoint_mod, name)))
    opts = IntegratorOptions(eps_den=3e-13)
    for ocp, grid in (*map(get_problem, ("p2-sliding", "slide-exit")),
                      drawn_survey().drawn_problem(953)):
        traj = integrate(ocp, grid, 8, opts=opts)
        run_adjoint(ocp, traj, grid, ocp.phi)
        reduced_gradient_matrix(ocp, traj, grid, ocp.phi)
    assert [e.boundary for e in traj.events] == [None, 0]
    assert {site for site, _ in seen} == {
        "_step_jacobians", "lambda_g_pointwise", "_event_gradient"}
    assert {eps for _, eps in seen} == {3e-13}


def test_random_linear_two_route_equivalence():
    """Matrix and transformed sweeps agree to near machine precision on
    randomized linear dynamics (a compact version of the larger
    randomized acceptance check)."""
    rng = np.random.default_rng(412)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n)) * 0.8
        B = rng.normal(size=(n, 1))
        cvec = rng.normal(size=n)
        w = EndpointFunctional(value=lambda x, c=cvec: float(c @ x),
                               grad=lambda x, c=cvec: c)
        lin = lambda x, u, A=A, B=B: A @ x + B @ u
        lin_x = lambda x, u, A=A: A
        lin_u = lambda x, u, B=B: B
        ocp = HybridOCP(name="rand", n=n, m=1,
                        f1=lin, f1_x=lin_x, f1_u=lin_u,
                        f2=lin, f2_x=lin_x, f2_u=lin_u,
                        g=lambda x: float(x[0] - 1e6),
                        g_x=lambda x, n=n: np.eye(n)[0],
                        g_xx=lambda x, n=n: np.zeros((n, n)),
                        phi=w, x0=rng.normal(size=n), t0=0.0, tf=1.0,
                        u_lo=-2 * np.ones(1), u_hi=2 * np.ones(1))
        grid = ControlGrid(0.0, 1.0, rng.normal(size=(4, 1)) * 0.5)
        traj = integrate(ocp, grid, 2)
        a1 = run_adjoint(ocp, traj, grid, w, backend="transformed")
        a2 = run_adjoint(ocp, traj, grid, w, backend="matrix")
        scale = max(1.0, float(np.max(np.abs(a1.lam))))
        assert np.max(np.abs(a1.lam - a2.lam)) <= 1e-12 * scale
