"""Discrete adjoint sweeps consistent with the forward discretization.

Each forward step defines an implicit map F(X(k+1), X(k), u) = 0 from the
previous endpoint state to the new stages and endpoint.  The adjoint of
one step is

    F_{X+}^T(k) R(k) = Lambda(k+1),      Lambda(k) = -F_X^T(k) R(k),

solved backwards from the endpoint gradient of the functional.  Only the
endpoint slot of Lambda is ever nonzero (stages of one step never enter
the next), so the sweep carries a vector of length n between steps.

The same solve gives the step's control gradient: with F_u the control
Jacobian of the step, dw/du_n collects -F_u^T(k) R(k) over the steps k
of interval n.  The sweep sums these rows into AdjointTrajectory.grad,
so no step is built a second time for the gradient.

One kernel (_step_adjoint) serves off-surface and sliding steps alike.
F_{X+} is block lower triangular, [[M, 0], [-W, I]], where M is the
stage Newton matrix of the forward step (integrator.stage_pencil, with
the constraint rows on a sliding step), so the step's adjoint is one
solve with M^T and no dense F_{X+} or F_X is built.  The forward
Newton correction and this solve share their kernel: the stage
Jacobians fF_x + z g_xx of a sliding step come from
integrator.sliding_jacobians (from the Filippov values at the stored
stages), and run_adjoints solves every step with one
integrator.StageStore(transpose=True), the solver of the sweep, whose
docstring states the eigenbasis-or-dense rule and the reuse of the
blocks it factored last.  It lives for one call, so which steps reuse
depends on the trajectory alone.  Off the surface the stage
multipliers it yields are exactly those of the reversed-time table
a~_ij = a_ji b_j / b_i (Hager 2000, Numer. Math. 87): the discrete
adjoint is a Runge-Kutta step of the adjoint equation, though the sweep
never builds that table.  The gradient row is the stage quadrature
h sum_i b_i f_u^T(x_i(k+1), u) lam_i, which equals -F_u^T R.  The dense
assembly (_step_matrices, adjoint_step_matrix) is kept as the oracle of
backend 'matrix' for both modes, which the two-route tests compare
against.

run_adjoints sweeps F functionals in lockstep.  The step matrices depend
only on the trajectory, so each step builds its stage Jacobians and its
matrix once and carries F multipliers of length n; terminal values, jump
scalars and lam_g stay per functional.  The F right-hand sides go to
the solver as one batch of single-RHS solves or matrix-vector products,
which gives each functional bit for bit what its own solve gives.  One
solve with a (d, F) right-hand side would not: the multi-RHS triangular
solves round differently, so the result would depend on which
functionals share the sweep.  Every error a sweep can raise depends on
the trajectory alone, so the lockstep sweep fails at the same step,
with the same error, as a sweep of the first functional.

The tolerances eps_tan and eps_den of a sweep are the ones the
trajectory was integrated with (traj.opts), so the forward and the
backward pass classify and blend with the same values; only the
pointwise helpers transition_jump and lambda_g_pointwise take them as
arguments.

At transition nodes the multiplier jumps by pi * g_x^T.  For crossings
and sliding entries pi is pinned by continuity of the Hamiltonian across
the event; for sliding exits (seen backwards: off-surface to sliding) it
is pinned by the algebraic condition g_x lambda = 0 on the sliding side,
and Hamiltonian continuity then holds automatically because g_x f_j = 0
at the blend-weight boundary.  A run that ends on the surface starts
from the same projection (_tangent_projection) of the functional
gradient, with nu1 = -pi, and takes its lam_g from lambda_g_pointwise
like every sliding node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularJumpSystem, SingularSystem, SingularTerminalSystem
from .integrator import (StageStore, Trajectory, check_mesh, check_width,
                         sliding_jacobians, stage_matrix, stage_sums)
from .model import (ControlGrid, EndpointFunctional, HybridOCP, Mode,
                    TransitionKind, filippov_control_jacobian, filippov_state_jacobian,
                    filippov_values)
from .tableau import RADAU_IIA


@dataclass
class AdjointTrajectory:
    """Backward sweep results on the forward mesh.

    lam[k] is the multiplier at node k; at a transition node it is the
    minus-side value (the one step k-1 continues from), with the jump
    size recorded in jumps.  lam_g[k] is the algebraic multiplier on
    sliding nodes, zero elsewhere.  stage_lams[k] holds the stage
    multipliers (s, n) of an off-surface step, which satisfy the
    reversed-table recursion, and None on sliding steps (and on every
    step of the matrix backend).  grad[n] is dw/du_n, the reduced
    gradient over the control grid, shape (N, m).
    """

    functional: str
    times: np.ndarray
    lam: np.ndarray
    lam_g: np.ndarray
    stage_lams: list
    jumps: list
    nu1: Optional[float]
    grad: np.ndarray

    @property
    def K(self) -> int:
        return self.lam.shape[0] - 1


# ---------------------------------------------------------------------------
# single-step sweeps


def _step_jacobians(ocp: HybridOCP, traj: Trajectory, k: int, u: np.ndarray,
                    sliding: bool):
    """Stage Jacobians Js (s, n, n), control Jacobians fus (s, n, m) and
    surface gradients gxs (s, n) of step k (None off the surface).  On a
    sliding step J_j = fF_x(x_j, u) + z_j g_xx(x_j), the derivative of
    f_F + g_x^T z, blended with the trajectory's eps_den."""
    xs = traj.stages_x[k]
    if not sliding:
        _, f_x, f_u = ocp.field(traj.mode[k])
        return (np.array([f_x(x_j, u) for x_j in xs]),
                np.array([f_u(x_j, u) for x_j in xs]), None)
    vals = []
    for x_j in xs:
        vals.append(filippov_values(ocp, x_j, u, eps_den=traj.opts.eps_den))
    return (sliding_jacobians(ocp, vals, xs, traj.stages_z[k], u),
            np.array([filippov_control_jacobian(ocp, v, x_j, u)[0]
                      for v, x_j in zip(vals, xs)]),
            np.array([v.gx for v in vals]))


def _endpoint_weights(h: float, Js: np.ndarray, gxs: Optional[np.ndarray]) -> np.ndarray:
    """W (n, s d), the derivative of the endpoint increment h sum_j b_j v_j
    by the stage unknowns: block j is h b_j (J_j, g_x(x_j)^T)."""
    b = RADAU_IIA.b
    s, n = Js.shape[:2]
    W = np.empty((n, s, n if gxs is None else n + 1))
    W[:, :, :n] = (h * b)[None, :, None] * Js.transpose(1, 0, 2)
    if gxs is not None:
        W[:, :, n] = (h * b)[None, :] * gxs.T
    return W.reshape(n, -1)


def _step_adjoint(traj: Trajectory, k: int, Js: np.ndarray, fus: np.ndarray,
                  gxs: Optional[np.ndarray], lam_plus: np.ndarray, store: StageStore):
    """The backward step of either mode for every row of lam_plus (F, n):
    R_end = lam_plus, M^T R_s = W^T lam_plus, lam_k = lam_plus + sum_i
    R_s,i (x parts), stage multipliers lam_i = lam_plus + sum_j a_ji
    R_s,j / b_i and gradient row h sum_i b_i f_u,i^T lam_i.  store is the
    sweep's solver, which solves with M^T.  Returns (stage multipliers
    (F, s, n), lam_k (F, n), gradient rows (F, m))."""
    A, b = RADAU_IIA.A, RADAU_IIA.b
    s, n = Js.shape[:2]
    h = traj.h[k]
    rhs = (_endpoint_weights(h, Js, gxs).T @ lam_plus[..., None])[..., 0]
    try:
        R = store.solve(h, Js, gxs, rhs.reshape(lam_plus.shape[0], s, -1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"adjoint system singular at step {k}") from exc
    Rx = R[..., :n]
    lam_k = lam_plus + sum(Rx[:, i] for i in range(s))
    stages = lam_plus[:, None] + (A.T @ Rx) / b[:, None]
    fuT_lam = (fus.transpose(0, 2, 1) @ stages[..., None])[..., 0]
    return stages, lam_k, h * sum(b[i] * fuT_lam[:, i] for i in range(s))


def adjoint_step_transformed(ocp: HybridOCP, traj: Trajectory, k: int,
                             u: np.ndarray, lam_plus: np.ndarray, store: StageStore):
    """One backward off-surface step for every row of lam_plus (F, n).
    Returns (stage multipliers (F, s, n), lam_k (F, n), gradient rows
    (F, m)); the stage multipliers are those of the reversed-time table."""
    return _step_adjoint(traj, k, *_step_jacobians(ocp, traj, k, u, False), lam_plus, store)


def adjoint_step_sliding(ocp: HybridOCP, traj: Trajectory, k: int,
                         u: np.ndarray, lam_plus: np.ndarray, store: StageStore):
    """One backward step through the sliding stage system for every row
    of lam_plus (F, n).  Returns (lam_k (F, n), gradient rows (F, m))."""
    return _step_adjoint(traj, k, *_step_jacobians(ocp, traj, k, u, True), lam_plus, store)[1:]


def _step_matrices(h: float, Js: np.ndarray, fus: np.ndarray,
                   gxs: Optional[np.ndarray]):
    """Dense F_{X+}, F_X and F_u of one step from its Jacobians (see
    _step_jacobians), for the oracle.

    Unknowns are the stage unknowns of stage_matrix followed by x(k+1);
    the equations are the stage equations (with their constraint rows)
    followed by the endpoint row x(k+1) - x(k) - h sum_j b_j v_j, where
    v_j is stage j's right-hand side.
    """
    A, b = RADAU_IIA.A, RADAU_IIA.b
    s, n = Js.shape[:2]
    d = n if gxs is None else n + 1
    re = s * d
    dim = re + n
    FXp = np.zeros((dim, dim))
    FXp[:re, :re] = stage_matrix(h, Js, gxs)
    FXp[re:, :re] = -_endpoint_weights(h, Js, gxs)
    FXp[re:, re:] = np.eye(n)

    FX = np.zeros((dim, dim))
    FX[:re].reshape(s, d, dim)[:, :n, re:] = -np.eye(n)   # stage rows see -x(k)
    FX[re:, re:] = -np.eye(n)                  # endpoint row too; constraints do not

    sums = -h * stage_sums(np.vstack([A, b]), fus)
    Fu = np.zeros((dim, fus.shape[2]))
    Fu[:re].reshape(s, d, -1)[:, :n] = sums[:s]
    Fu[re:] = sums[s]
    return FXp, FX, Fu


def assemble_ode_step_matrices(ocp: HybridOCP, traj: Trajectory, k: int,
                               u: np.ndarray):
    """Dense F_{X+}, F_X and F_u of an off-surface step, in the block
    layout (x_1, ..., x_s, x(k+1)) by (stage rows, endpoint row)."""
    return _step_matrices(traj.h[k], *_step_jacobians(ocp, traj, k, u, False))


def assemble_sliding_step_matrices(ocp: HybridOCP, traj: Trajectory, k: int,
                                   u: np.ndarray):
    """Dense F_{X+}, F_X and F_u of a sliding step, in the block layout
    (x_1, z_1, ..., x_s, z_s, x(k+1)) by (stage rows + constraint row per
    stage, endpoint row)."""
    return _step_matrices(traj.h[k], *_step_jacobians(ocp, traj, k, u, True))


def adjoint_step_matrix(ocp: HybridOCP, traj: Trajectory, k: int,
                        u: np.ndarray, Lambda_plus: np.ndarray):
    """Assembled one-step adjoint of either mode, the oracle.  Lambda_plus
    holds one full padded vector per row, (s d + n,) with d = n off the
    surface and n + 1 on it; returns (Lambda_k, gradient rows -F_u^T R),
    both with the same leading axis."""
    assemble = (assemble_sliding_step_matrices if traj.mode[k] is Mode.SLIDING
                else assemble_ode_step_matrices)
    FXp, FX, Fu = assemble(ocp, traj, k, u)
    # one single-RHS solve per row, as each row's own solve would give
    F, d = Lambda_plus.shape
    try:
        R = np.linalg.solve(np.broadcast_to(FXp.T, (F, d, d)), Lambda_plus.reshape(F, d, 1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"adjoint system singular at step {k}") from exc
    return (-FX.T @ R)[..., 0], -(Fu.T @ R)[..., 0]


# ---------------------------------------------------------------------------
# terminal values and jumps


def lambda_g_pointwise(ocp: HybridOCP, x: np.ndarray, u: np.ndarray, z: float,
                       lam_f: np.ndarray, eps_den: float) -> float:
    """Algebraic multiplier recovered from the state multiplier:

        lam_g = (g_x fF_x^T lam + z g_x g_xx lam - (g_xx x')^T lam) / (g_x g_x^T)

    with x' = f_F + g_x^T z the sliding velocity.
    """
    v = filippov_values(ocp, x, u, eps_den=eps_den)
    gx = v.gx
    gxx = ocp.g_xx(x)
    fF_x, _ = filippov_state_jacobian(ocp, v, x, u, gxx)
    xdot = v.fF + gx * z
    den = float(gx @ gx)
    if den < 1e-30:
        raise SingularTerminalSystem("g_x vanishes; algebraic multiplier undefined")
    num = float((gx @ fF_x.T) @ lam_f) + z * float((gx @ gxx) @ lam_f) \
        - float((gxx @ xdot) @ lam_f)
    return num / den


def _tangent_projection(gx: np.ndarray, lam: np.ndarray, error, where: str):
    """(lam - pi g_x^T, pi) with pi = g_x lam / |g_x|^2: the part of lam
    tangent to the surface, as g_x lam = 0 asks on the sliding side.
    Raises error when g_x vanishes."""
    den = float(gx @ gx)
    if den < 1e-30:
        raise error(f"g_x vanishes at {where}")
    pi = float(gx @ lam) / den
    return lam - pi * gx, pi


def terminal_conditions(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid,
                        w: EndpointFunctional):
    """Multiplier start values (lam_f, lam_g, nu1) at tf.

    Off the surface lam_f is the functional gradient w_x, lam_g = 0 and
    nu1 is None.  On the surface lam_f = w_x + nu1 g_x^T is w_x projected
    onto the tangent space, as at an exit, so nu1 = -pi; lam_g is
    lambda_g_pointwise of lam_f.
    """
    xK = traj.x[-1]
    wx = np.asarray(w.grad(xK), dtype=float)
    if traj.terminal_mode is not Mode.SLIDING:
        return wx, 0.0, None
    lam_f, pi = _tangent_projection(ocp.g_x(xK), wx, SingularTerminalSystem,
                                    "the final state")
    lam_g = lambda_g_pointwise(ocp, xK, grid.values[traj.ctrl[-1]], float(traj.z_node[-1]),
                               lam_f, traj.opts.eps_den)
    return lam_f, lam_g, 0.0 - pi   # 0.0 - pi is never -0.0


def transition_jump(ocp: HybridOCP, kind: TransitionKind, x_star: np.ndarray,
                    u_minus: np.ndarray, u_plus: np.ndarray,
                    lam_plus: np.ndarray, lam_g_plus: float,
                    mode_before: Mode, eps_tan: float, eps_den: float):
    """Backward jump at a transition node: lam_minus = lam_plus - pi g_x^T.

    kind refers to the forward-time event.  mode_before is the mode just
    before the event in forward time; off the surface it names the field
    (f1 below, f2 above).  Returns (lam_minus, pi).
    """
    gx = ocp.g_x(x_star)

    if kind in (TransitionKind.EXIT_TO_F1, TransitionKind.EXIT_TO_F2):
        # sliding before the event: pi enforces the algebraic condition
        # g_x lam = 0 on the sliding side; Hamiltonian continuity is
        # automatic at the blend-weight boundary
        return _tangent_projection(gx, lam_plus, SingularJumpSystem, "an exit node")

    if mode_before is Mode.SLIDING:
        raise SingularJumpSystem(f"a {kind.value} event cannot follow a sliding step")
    f_b = ocp.field(mode_before)[0](x_star, u_minus)

    if kind is TransitionKind.ENTER_SLIDING:
        fF = filippov_values(ocp, x_star, u_plus, eps_den=eps_den).fF
        rhs_H = float(lam_plus @ fF) - lam_g_plus * ocp.g(x_star)
    else:
        f_after = ocp.f2(x_star, u_plus) if kind is TransitionKind.CROSS_12 \
            else ocp.f1(x_star, u_plus)
        rhs_H = float(lam_plus @ f_after)

    gfb = float(gx @ f_b)
    if abs(gfb) <= eps_tan:
        raise SingularJumpSystem(
            f"g_x f = {gfb:.3e} at a {kind.value} node; jump system degenerate",
            g_x_f=gfb)
    pi = (float(lam_plus @ f_b) - rhs_H) / gfb
    return lam_plus - pi * gx, pi


def _jump(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid, rec,
          lam_plus: np.ndarray, lam_g_plus: float):
    """Backward through the transition rec at node k > 0: (lam, lam_g)
    just before the event in forward time, and pi.  That lam_g is zero
    when step k - 1 is off the surface and the pointwise recovery when
    it slides (an exit)."""
    k = rec.k
    u_minus = grid.values[traj.ctrl[k - 1]]
    u_plus = grid.values[traj.ctrl[min(k, traj.K - 1)]]
    mode_before = traj.mode[k - 1]
    lam_minus, pi = transition_jump(ocp, rec.kind, traj.x[k], u_minus, u_plus,
                                    lam_plus, lam_g_plus, mode_before,
                                    eps_tan=traj.opts.eps_tan,
                                    eps_den=traj.opts.eps_den)
    if mode_before is not Mode.SLIDING:
        return lam_minus, 0.0, pi
    z_minus = float(traj.stages_z[k - 1][-1])
    return lam_minus, lambda_g_pointwise(ocp, traj.x[k], u_minus, z_minus, lam_minus,
                                         traj.opts.eps_den), pi


# ---------------------------------------------------------------------------
# full sweeps


def run_adjoints(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid,
                 functionals, backend: str = "transformed") -> list:
    """Backward sweep of several endpoint functionals over the whole mesh,
    in lockstep; one AdjointTrajectory per functional, in input order.

    backend 'transformed' solves each step, off the surface or sliding,
    with the transposed stage matrix (the implementation of record),
    through this call's integrator.StageStore(transpose=True); 'matrix'
    solves the assembled one-step systems of both modes instead,
    the oracle the two-route consistency tests compare against.  Either
    way the sweep also yields the reduced gradient of each functional.
    """
    if backend not in ("transformed", "matrix"):
        raise ValueError(f"unknown adjoint backend {backend!r}")
    check_width(ocp, grid)
    check_mesh(traj, grid)
    K = traj.K

    n, s = ocp.n, RADAU_IIA.s
    F = len(functionals)
    lam = np.zeros((F, K + 1, n))
    lam_g = np.zeros((F, K + 1))
    stage_lams = [[None] * K for _ in range(F)]
    rows = np.zeros((F, K, ocp.m))
    jumps: list = [[] for _ in range(F)]
    trans_at = {rec.k: rec for rec in traj.transitions}
    store = StageStore(transpose=True)

    nu1 = []
    for f, w in enumerate(functionals):
        lam[f, K], lam_g[f, K], nu1_f = terminal_conditions(ocp, traj, grid, w)
        nu1.append(nu1_f)

    for k in range(K - 1, -1, -1):
        if k + 1 in trans_at:
            # back through the transition at node k + 1 before step k;
            # none at node 0, which no step precedes
            rec = trans_at[k + 1]
            for f in range(F):
                lam[f, k + 1], lam_g[f, k + 1], pi = _jump(ocp, traj, grid, rec,
                                                           lam[f, k + 1], lam_g[f, k + 1])
                jumps[f].append({"t_t": rec.t, "k": rec.k, "kind": rec.kind.value,
                                 "pi": float(pi)})

        u = grid.values[traj.ctrl[k]]
        sliding = traj.mode[k] is Mode.SLIDING
        if backend == "matrix":
            re = s * (n + 1 if sliding else n)
            Lam_plus = np.zeros((F, re + n))
            Lam_plus[:, re:] = lam[:, k + 1]
            Lambda_k, rows[:, k] = adjoint_step_matrix(ocp, traj, k, u, Lam_plus)
            lam[:, k] = Lambda_k[:, re:]
        elif sliding:
            lam[:, k], rows[:, k] = adjoint_step_sliding(ocp, traj, k, u, lam[:, k + 1],
                                                         store)
        else:
            stages, lam[:, k], rows[:, k] = adjoint_step_transformed(
                ocp, traj, k, u, lam[:, k + 1], store)
            for f in range(F):
                stage_lams[f][k] = stages[f]
        if sliding:
            for f in range(F):
                lam_g[f, k] = lambda_g_pointwise(ocp, traj.x[k], u, float(traj.z_node[k]),
                                                 lam[f, k], traj.opts.eps_den)

    out = []
    for f, w in enumerate(functionals):
        jumps[f].reverse()
        # each interval's rows are summed in ascending step order, not in
        # the order the backward sweep produced them
        grad = np.zeros((grid.N, grid.m))
        np.add.at(grad, traj.ctrl, rows[f])
        out.append(AdjointTrajectory(functional=w.name, times=traj.times, lam=lam[f],
                                     lam_g=lam_g[f], stage_lams=stage_lams[f],
                                     jumps=jumps[f], nu1=nu1[f], grad=grad))
    return out


def run_adjoint(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid,
                w: EndpointFunctional,
                backend: str = "transformed") -> AdjointTrajectory:
    """Backward sweep of one endpoint functional (see run_adjoints)."""
    return run_adjoints(ocp, traj, grid, [w], backend=backend)[0]
