"""Discrete adjoint sweeps consistent with the forward discretization.

Each forward step defines an implicit map F(X(k+1), X(k), u) = 0 from the
previous endpoint state to the new stages and endpoint.  The adjoint of
one step is

    F_{X+}^T(k) R(k) = Lambda(k+1),      Lambda(k) = -F_X^T(k) R(k),

solved backwards from the endpoint gradient of the functional.  Only the
endpoint slot of Lambda is ever nonzero, so the sweep carries a vector
of length n between steps.  The same solve gives the step's control
gradient: dw/du_n collects -F_u^T(k) R(k) over the steps k of interval
n, summed into AdjointTrajectory.grad.

One kernel (_step_adjoint) serves off-surface and sliding steps alike.
F_{X+} is block lower triangular, [[M, 0], [-W, I]], with M the stage
Newton matrix of the forward step, so the step's adjoint is one solve
with M^T, through one integrator.StageStore(transpose=True) per call.
Off the surface the stage multipliers are exactly those of the
reversed-time table a~_ij = a_ji b_j / b_i (Hager 2000, Numer. Math.
87), on a sliding step those of the stage system's x rows, and the
gradient row is the stage quadrature h sum_i b_i f_u^T(x_i, u) lam_i =
-F_u^T R.  Every step keeps them in stage_lams but on backend 'matrix',
whose dense assembly (_step_matrices, adjoint_step_matrix) is the
oracle for both modes.

run_adjoints sweeps F functionals in lockstep: each step builds its
Jacobians and its matrix once, and the F right-hand sides go to the
solver as one batch of single-RHS solves or matrix-vector products, and
every stage sum to a matmul stacked over the F functionals, one product
each, so each functional gets bit for bit what its own sweep gives (one
solve with a (d, F) right-hand side, or one product over all F rows,
would round differently).  lam_g's model terms at a node are evaluated
once for all F.  Every error a sweep raises depends on the trajectory
alone.  Its tolerances are the ones the trajectory was integrated with
(traj.opts).

The one jump rule acts at event nodes (traj.events), where
E(x, u) = 0 located the node's time: E = g after an off-surface step,
E = alpha - b after a sliding step whose blend weight reached b.  That
time, and so the size of the steps on either side, moves with x and u.
The sweep carries mu = dJ/dt next to lam, 0 at tf.  With the step's
discrete Hamiltonian H_k(l) = l . Phi_h = sum_i b_i l_i . V_i (l_i the
stage multipliers, V_i the stage values f or f_F + g_x^T z), step k goes
back from lam~, where at an event node k + 1

    c = (H_k(lam_{k+1}) + mu_{k+1}) / H_k(E_x),   lam~ = lam_{k+1} - c E_x^T,
    the step's row gains -c E_u,   mu_k = mu_{k+1},

and otherwise lam~ = lam_{k+1} and mu_k = -H_k(lam_{k+1}).  No solve is
added: the stage values make one more column of the step's control
Jacobian, whose row entry is h H_k, and E_x is one more right-hand side
of the step's solve.  c is recorded as jumps[].pi; |H_k(E_x)| <= eps_tan
raises SingularJumpSystem.  A transition at a node with a fixed time (a
breakpoint, a full step that lands on the surface, node 0) moves no
step, so lam does not jump there.  A run that ends on the surface starts
from w_x projected onto the tangent space, nu1 = -pi (README, "The
backward sweep").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularJumpSystem, SingularSystem, SingularTerminalSystem
from .integrator import (StageStore, Trajectory, check_mesh, check_width,
                         sliding_jacobians, stage_matrix)
from .model import (ControlGrid, EndpointFunctional, HybridOCP, Mode,
                    filippov_control_jacobian, filippov_jacobians, filippov_state_jacobian,
                    filippov_values)
from .tableau import RADAU_IIA


@dataclass
class AdjointTrajectory:
    """Backward sweep results on the forward mesh.

    lam[k] is the multiplier at node k; at a transition or event node it
    is the minus-side value (the one step k-1 continues from), with the
    jump recorded in jumps.  lam_g[k] is the algebraic multiplier on
    sliding nodes, zero elsewhere.  stage_lams[k] holds the stage
    multipliers (s, n) of step k, on a sliding step those of the stage
    system's x rows; it is None only on the matrix backend.  grad[n] is
    dw/du_n, the reduced gradient over the control grid, shape (N, m).
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
                    timed: bool = False):
    """Stage Jacobians Js (s, n, n), control Jacobians fus (s, n, m) and
    surface gradients gxs (s, n) of step k in its mode (gxs None off the
    surface).  On a sliding step J_j = fF_x(x_j, u) + z_j g_xx(x_j), the
    derivative of f_F + g_x^T z, blended with the trajectory's eps_den.
    With timed, fus gains a last column, the stage values V_j: that
    column's part of F_u is then h F_h, the derivative of the step's
    equations by h times h, and its gradient-row entry is h H_k."""
    xs = traj.stages_x[k]
    if traj.mode[k] is not Mode.SLIDING:
        f, f_x, f_u = ocp.field(traj.mode[k])
        Js, fus, gxs = np.array([f_x(x_j, u) for x_j in xs]), [f_u(x_j, u) for x_j in xs], None
        V = [f(x_j, u) for x_j in xs] if timed else None
    else:
        vals = []
        for x_j in xs:
            vals.append(filippov_values(ocp, x_j, u, eps_den=traj.opts.eps_den))
        Js = sliding_jacobians(ocp, vals, xs, traj.stages_z[k], u)
        fus = [filippov_control_jacobian(ocp, v, x_j, u)[0] for v, x_j in zip(vals, xs)]
        gxs = np.array([v.gx for v in vals])
        V = [v.fF + v.gx * z_j for v, z_j in zip(vals, traj.stages_z[k])] if timed else None
    return Js, np.array(fus) if V is None else np.dstack([fus, V]), gxs


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
    lam_k = lam_plus + np.ones(s) @ Rx
    stages = lam_plus[:, None] + (A.T @ Rx) / b[:, None]
    fuT_lam = (fus.transpose(0, 2, 1) @ stages[..., None])[..., 0]
    return stages, lam_k, h * (b @ fuT_lam)


def adjoint_step_transformed(ocp: HybridOCP, traj: Trajectory, k: int,
                             u: np.ndarray, lam_plus: np.ndarray, store: StageStore,
                             timed: bool = False):
    """One backward off-surface step for every row of lam_plus (F, n).
    Returns (stage multipliers (F, s, n), lam_k (F, n), gradient rows
    (F, m), or (F, m + 1) ending in h H_k with timed); the stage
    multipliers are those of the reversed-time table."""
    return _step_adjoint(traj, k, *_step_jacobians(ocp, traj, k, u, timed), lam_plus, store)


def adjoint_step_sliding(ocp: HybridOCP, traj: Trajectory, k: int,
                         u: np.ndarray, lam_plus: np.ndarray, store: StageStore,
                         timed: bool = False):
    """One backward step through the sliding stage system for every row
    of lam_plus (F, n).  Returns (stage multipliers (F, s, n), those of
    the stages' x rows, lam_k (F, n), gradient rows (F, m), or (F, m + 1)
    ending in h H_k with timed)."""
    return _step_adjoint(traj, k, *_step_jacobians(ocp, traj, k, u, timed), lam_plus, store)


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

    sums = -h * (np.vstack([A, b]) @ fus.reshape(s, -1)).reshape(s + 1, n, -1)
    Fu = np.zeros((dim, fus.shape[2]))
    Fu[:re].reshape(s, d, -1)[:, :n] = sums[:s]
    Fu[re:] = sums[s]
    return FXp, FX, Fu


def assemble_ode_step_matrices(ocp: HybridOCP, traj: Trajectory, k: int,
                               u: np.ndarray, timed: bool = False):
    """Dense F_{X+}, F_X and F_u of an off-surface step, in the block
    layout (x_1, ..., x_s, x(k+1)) by (stage rows, endpoint row); with
    timed, F_u's last column is h F_h."""
    return _step_matrices(traj.h[k], *_step_jacobians(ocp, traj, k, u, timed))


def assemble_sliding_step_matrices(ocp: HybridOCP, traj: Trajectory, k: int,
                                   u: np.ndarray, timed: bool = False):
    """Dense F_{X+}, F_X and F_u of a sliding step, in the block layout
    (x_1, z_1, ..., x_s, z_s, x(k+1)) by (stage rows + constraint row per
    stage, endpoint row); with timed, F_u's last column is h F_h."""
    return _step_matrices(traj.h[k], *_step_jacobians(ocp, traj, k, u, timed))


def adjoint_step_matrix(ocp: HybridOCP, traj: Trajectory, k: int,
                        u: np.ndarray, Lambda_plus: np.ndarray, timed: bool = False):
    """Assembled one-step adjoint of either mode, the oracle.  Lambda_plus
    holds one full padded vector per row, (s d + n,) with d = n off the
    surface and n + 1 on it; returns (Lambda_k, gradient rows -F_u^T R),
    both with the same leading axis, the rows ending in h H_k with timed."""
    assemble = (assemble_sliding_step_matrices if traj.mode[k] is Mode.SLIDING
                else assemble_ode_step_matrices)
    FXp, FX, Fu = assemble(ocp, traj, k, u, timed)
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
                       lam_f: np.ndarray, eps_den: float):
    """Algebraic multiplier recovered from the state multiplier:

        lam_g = (g_x fF_x^T lam + z g_x g_xx lam - (g_xx x')^T lam) / (g_x g_x^T)

    with x' = f_F + g_x^T z the sliding velocity, for every row of lam_f
    (F, n): one value per row, (F,), from one evaluation of the model
    terms, each row's products taken as for a row alone.
    """
    v = filippov_values(ocp, x, u, eps_den=eps_den)
    gx = v.gx
    gxx = ocp.g_xx(x)
    fF_x, _ = filippov_state_jacobian(ocp, v, x, u, gxx)
    xdot = v.fF + gx * z
    den = float(gx @ gx)
    if den < 1e-30:
        raise SingularTerminalSystem("g_x vanishes; algebraic multiplier undefined")
    p, q, r = gx @ fF_x.T, gx @ gxx, gxx @ xdot
    return np.array([(float(p @ lam) + z * float(q @ lam) - float(r @ lam)) / den
                     for lam in lam_f])


def _tangent_projection(gx: np.ndarray, lam: np.ndarray):
    """(lam - pi g_x^T, pi) with pi = g_x lam / |g_x|^2: the part of lam
    tangent to the surface, as g_x lam = 0 asks on the sliding side.
    Raises SingularTerminalSystem when g_x vanishes."""
    den = float(gx @ gx)
    if den < 1e-30:
        raise SingularTerminalSystem("g_x vanishes at the final state")
    pi = float(gx @ lam) / den
    return lam - pi * gx, pi


def terminal_conditions(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid,
                        w: EndpointFunctional):
    """Multiplier start values (lam_f, lam_g, nu1) at tf.

    Off the surface lam_f is the functional gradient w_x, lam_g = 0 and
    nu1 is None.  On the surface lam_f = w_x + nu1 g_x^T is w_x projected
    onto the tangent space, so nu1 = -pi; lam_g is lambda_g_pointwise of
    lam_f.
    """
    (lam_f,), (lam_g,), (nu1,) = _terminal_values(ocp, traj, grid, [w])
    return lam_f, lam_g, nu1


def _terminal_values(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid, functionals):
    """terminal_conditions of every functional, as (lam_f (F, n), lam_g
    (F,), nu1 list); on the surface g_x and the terms of lam_g are
    evaluated once for all of them."""
    xK = traj.x[-1]
    wx = np.array([np.asarray(w.grad(xK), dtype=float) for w in functionals])
    if traj.terminal_mode is not Mode.SLIDING:
        return wx, [0.0] * len(wx), [None] * len(wx)
    gx = ocp.g_x(xK)
    lam_f, pis = zip(*(_tangent_projection(gx, row) for row in wx))
    lam_f = np.array(lam_f)
    lam_g = lambda_g_pointwise(ocp, xK, grid.values[traj.ctrl[-1]], float(traj.z_node[-1]),
                               lam_f, traj.opts.eps_den)
    return lam_f, lam_g, [0.0 - pi for pi in pis]   # 0.0 - pi is never -0.0


def _event_gradient(ocp: HybridOCP, traj: Trajectory, k: int, boundary: Optional[int],
                    u: np.ndarray):
    """(E_x, E_u) at event node k of the function that located it, with
    the control u of the step before: E = g (boundary None) or E = alpha
    - boundary."""
    x = traj.x[k]
    if boundary is None:
        return ocp.g_x(x), np.zeros(ocp.m)
    return filippov_jacobians(ocp, x, u, eps_den=traj.opts.eps_den)[4:]


def _backward_step(ocp: HybridOCP, traj: Trajectory, k: int, u: np.ndarray,
                   lam_plus: np.ndarray, store: StageStore, backend: str, timed: bool):
    """Step k backward for every row of lam_plus on the chosen backend:
    (stage multipliers, None on the matrix backend; lam_k; rows)."""
    if backend == "matrix":
        re = RADAU_IIA.s * (ocp.n + 1 if traj.mode[k] is Mode.SLIDING else ocp.n)
        Lam_plus = np.zeros((lam_plus.shape[0], re + ocp.n))
        Lam_plus[:, re:] = lam_plus
        Lambda_k, rows = adjoint_step_matrix(ocp, traj, k, u, Lam_plus, timed)
        return None, Lambda_k[:, re:], rows
    # one function per mode, so that each is timed and counted apart
    step = adjoint_step_sliding if traj.mode[k] is Mode.SLIDING else adjoint_step_transformed
    return step(ocp, traj, k, u, lam_plus, store, timed)


# ---------------------------------------------------------------------------
# full sweeps


def run_adjoints(ocp: HybridOCP, traj: Trajectory, grid: ControlGrid,
                 functionals, backend: str = "transformed") -> list:
    """Backward sweep of several endpoint functionals over the whole mesh,
    in lockstep; one AdjointTrajectory per functional, in input order.

    backend 'transformed' solves each step with the transposed stage
    matrix (the implementation of record), 'matrix' the assembled
    one-step systems, the oracle.  Either way the sweep yields the
    reduced gradient of each functional and applies the event rule of
    the module docstring.  jumps holds one record per transition or event
    node after node 0: t_t, k, kind (None at an event node that records
    no transition), event ("g", "alpha", or None at a fixed time) and pi,
    the jump c (0.0 at a fixed time).
    """
    if backend not in ("transformed", "matrix"):
        raise ValueError(f"unknown adjoint backend {backend!r}")
    check_width(ocp, grid)
    check_mesh(traj, grid)
    K = traj.K

    F = len(functionals)
    lam = np.zeros((F, K + 1, ocp.n))
    lam_g = np.zeros((F, K + 1))
    stage_lams = [[None] * K for _ in range(F)]
    rows = np.zeros((F, K, ocp.m))
    jumps: list = [[] for _ in range(F)]
    trans_at = {rec.k: rec for rec in traj.transitions}
    events = {e.k: e.boundary for e in traj.events}
    store = StageStore(transpose=True)

    lam[:, K], lam_g[:, K], nu1 = _terminal_values(ocp, traj, grid, functionals)
    mu = np.zeros(F)     # dJ/dt at the node the sweep has reached

    for k in range(K - 1, -1, -1):
        u = grid.values[traj.ctrl[k]]
        sliding = traj.mode[k] is Mode.SLIDING
        event, timed, rec = k + 1 in events, k + 1 in events or k in events, trans_at.get(k + 1)
        lam_plus = lam[:, k + 1]
        if event:
            E_x, E_u = _event_gradient(ocp, traj, k + 1, events[k + 1], u)
            lam_plus = np.vstack([lam_plus, E_x])
        stages, lam_k, row = _backward_step(ocp, traj, k, u, lam_plus, store, backend, timed)
        c = np.zeros(F)
        if timed:
            H, row = row[:, -1] / traj.h[k], row[:, :-1]
            mu = mu if event else -H
        if event:
            if not abs(H[F]) > traj.opts.eps_tan:
                raise SingularJumpSystem(
                    f"E_x Phi_h = {H[F]:.3e} at event node {k + 1}; jump degenerate",
                    den=float(H[F]), k=k + 1)
            c = (H[:F] + mu) / H[F] + 0.0   # + 0.0: a zero jump is never -0.0
            lam[:, k + 1] -= c[:, None] * E_x
            lam_k = lam_k[:F] - c[:, None] * lam_k[F]
            row = row[:F] - c[:, None] * (row[F] + E_u)
            stages = None if stages is None else stages[:F] - c[:, None, None] * stages[F]
        lam[:, k], rows[:, k] = lam_k, row
        kind = None if not event else "g" if events[k + 1] is None else "alpha"
        if rec is not None or event:
            # node k + 1 keeps what step k continues from: lam~, and
            # lam_g = 0 after an off-surface step
            lam_g[:, k + 1] = 0.0 if not sliding else lambda_g_pointwise(
                ocp, traj.x[k + 1], u, float(traj.stages_z[k][-1]), lam[:, k + 1],
                traj.opts.eps_den)
        if sliding:
            lam_g[:, k] = lambda_g_pointwise(ocp, traj.x[k], u, float(traj.z_node[k]),
                                             lam[:, k], traj.opts.eps_den)
        for f in range(F):
            if stages is not None:
                stage_lams[f][k] = stages[f]
            if rec is not None or event:
                jumps[f].append({"t_t": traj.times[k + 1], "k": k + 1,
                                 "kind": None if rec is None else rec.kind.value,
                                 "event": kind, "pi": float(c[f])})

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
