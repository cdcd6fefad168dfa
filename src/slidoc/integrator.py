"""Radau IIA integration of the hybrid system.

The mesh is built from the control breakpoints: every interval [t_n,
t_{n+1}] is cut into steps_per_interval equal steps, so breakpoints are
bit-exact mesh nodes and no step ever straddles a control jump.  Surface
events are located inside a step by shrinking the step, from the trial
that came back beyond the surface, until the event function is below
tolerance; the located point is committed as a mesh node, the
transition is classified and recorded, and integration resumes toward
the same base node with the new mode.  A node whose time a trial of
locate_event found is an event node (Trajectory.events, EventNode): its
time depends on the state, which the backward sweep differentiates.

Every surface test (entry_test, exit_test, exit_mode) returns the mode
the trajectory goes to, and _Builder.transition takes every verdict: it
records nothing when that is the current mode (a graze), else the kind
_KIND gives for (mode, next mode) at the last committed node, counted
against MAX_TRANSITIONS_PER_INTERVAL.  It reads t and x from that node
and never writes it: no state jumps at a transition, so every node is
written once, when it is committed.

Every step uses the one table tableau.RADAU_IIA and one full Newton
iteration of at most MAX_NEWTON_ITERS iterations, _newton_step, which
step_ode and step_sliding wrap.  Off the surface its unknowns are the
stage states (d = n per stage) and its stage values the mode's field f;
on the surface they are (x_i, z_i) (d = n + 1) of the index-2 system

    x_i = x + h sum_j a_ij (f_F(x_j, u) + g_x(x_j)^T z_j)
    0   = g(x_i)

whose multiplier z vanishes identically in exact arithmetic; its computed
size is a diagnostic for the discretization.  The iteration stops on its
residual, which cannot see an error in z below about eps |x| / (h a_ii
|g_x|), so z is reproducible only to about 1e-13 (circle-slide) when a
change rounds differently.  step_sliding relies on the table being
stiffly accurate: the endpoint is the last stage (c_s = 1).  The first
iterate puts every stage at the step start x (and z = 0), so the first
iteration evaluates the model once, at x, and repeats each value for
the s stages (_at_stages), the bytes an evaluation at each stage would
give; later iterations evaluate it at every stage.

stage_pencil is the one place the stage blocks are written, and each
pass solves every one of its stage systems, M forward and M^T backward,
with its own StageStore, which picks the eigenbasis or the dense LU
solve and reuses the blocks it factored last (its docstring and README
"The stage solve" state the rule).  Every stage sum sum_j W_ij V_j (the
Newton residuals and x_plus here, the sweep's multiplier sums, gradient
rows and F_u in adjoint) is one matrix product, W @ V.  Where the sweep
carries F functionals, V is stacked (F, s, ...) and numpy's matmul
takes one product per functional, the bytes that functional's own
sweep gets; one product over all F rows at once, such as (F, s d) @ M,
may round differently for each F.

A run is resumable at any control breakpoint (integrate's base and
start, IntervalStart), bit for bit.  The trajectory keeps the
IntegratorOptions it was integrated with (Trajectory.opts): a resumed
run must use the same ones, and the backward sweep reads its
tolerances from there.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (POSITIVE, ChatteringLimit, DimensionMismatch, MeshMismatch,
                     NewtonDivergence, NoBracket, SingularIteration, ValidationError,
                     check_fields, is_count)
from .model import (ControlGrid, HybridOCP, Mode, TransitionKind, alpha,
                    entry_test, exit_mode, exit_test, filippov_state_jacobian,
                    filippov_values, normal_speeds)
from .tableau import RADAU_IIA, RADAU_IIA_EIGVALS, RADAU_IIA_T, RADAU_IIA_TINV

MAX_NEWTON_ITERS = 25
MAX_EVENT_ITERS = 80
MAX_TRANSITIONS_PER_INTERVAL = 100
# c of the solve rule: StageStore.solve treats the stage Jacobians (and
# g_x rows) as one when max_j |V_j - V_0| <= c eps max|V_0| (_shared); the
# eigenbasis solve then errs by no more than the dense LU's rounding
STAGE_SPREAD_ULPS = 4
# Each pass keeps the eigenbasis blocks it factored last (StageStore)
# and reuses them as an explicit inverse only while
# ||B||_1 ||B^-1||_1 <= COND_BOUND: an inverse applied to the blocks of a
# step that moved them by c eps max|B| errs by about COND_BOUND (c + 1)
# eps relative, 1.1e-11 at the bound
COND_BOUND = 1e4


# (field, rule, check) for IntegratorOptions (check_fields)
_RULES = [(key, *POSITIVE) for key in ("newton_tol", "event_tol", "surface_tol",
                                       "eps_tan", "eps_den")]


@dataclass(frozen=True)
class IntegratorOptions:
    """A located event has |e| <= event_tol and a node on the surface has
    |g| <= surface_tol, so event_tol must not exceed surface_tol: an
    event would otherwise land off the surface it was located on.
    Normal speeds within eps_tan of zero cannot be classified, and alpha
    needs |w1 - w2| > eps_den max(1, |w1| + |w2|).  Every tolerance must
    be a finite number > 0; anything else, or event_tol > surface_tol,
    raises ValidationError naming the field."""
    newton_tol: float = 1e-12
    event_tol: float = 1e-10
    surface_tol: float = 1e-9
    eps_tan: float = 1e-10
    eps_den: float = 1e-12

    def __post_init__(self):
        check_fields(self, _RULES)
        if self.event_tol > self.surface_tol:
            raise ValidationError(f"event_tol: must be <= surface_tol = {self.surface_tol!r}, "
                                  f"got {self.event_tol!r}", field="event_tol")


@dataclass(frozen=True)
class TransitionRecord:
    """A transition of the given kind at node k, time t: x is that node's
    state, which is the state on both sides (no state jumps), so to_dict
    writes it as both x_minus and x_plus."""
    kind: TransitionKind
    t: float
    k: int                 # node index in the committed mesh
    x: np.ndarray

    def to_dict(self) -> dict:
        x = list(map(float, self.x))
        return {"kind": self.kind.value, "t_t": self.t, "k": self.k,
                "x_minus": x, "x_plus": x}


@dataclass(frozen=True)
class EventNode:
    """Node k, whose time a trial of locate_event found: the event
    function E vanishes there, E = g when boundary is None and E = alpha
    - boundary (0 or 1) when a sliding step reached that blend weight."""
    k: int
    boundary: Optional[int]


@dataclass(frozen=True)
class IntervalStart:
    """The interval loop's state when control interval n begins, besides
    the time and state of node breakpoint_nodes[n]: the mode, how many
    transitions are committed, and a copy of the run's StageStore, the
    blocks the forward pass factored last."""
    mode: Mode
    transitions: int
    store: StageStore


@dataclass
class Trajectory:
    """Committed mesh with endpoint states, stage data and transitions.

    Arrays are indexed by node k = 0..K (states and z_node) and step
    k = 0..K-1 (everything else).  stages_z[k] is None on non-sliding
    steps.  z_node[k] is the last stage multiplier of the sliding step
    that ends at node k, and 0 after an off-surface step, at node 0 and
    at every transition node.  mode[k] is the mode of step k (off the
    surface it names the field, ocp.field(mode[k])), ctrl[k] is the
    control interval the step belongs to, breakpoint_nodes[n] is the
    node index of t_n and starts[n] is what integration resumes from at
    interval n (IntervalStart).  events lists the event nodes in node
    order (EventNode); every other node has a fixed time.  opts are the
    options the run was integrated with.
    """

    times: np.ndarray
    x: np.ndarray
    h: np.ndarray
    mode: list
    ctrl: np.ndarray
    stages_x: list
    stages_z: list
    z_node: np.ndarray
    transitions: list
    breakpoint_nodes: np.ndarray
    starts: list
    terminal_mode: Mode
    spi: int
    opts: IntegratorOptions
    events: list

    @property
    def K(self) -> int:
        return self.h.shape[0]

    def transition_kinds(self) -> list:
        return [rec.kind.value for rec in self.transitions]

    def transition_intervals(self) -> list:
        """Control interval n of each transition, its node lying in
        [t_n, t_{n+1}); a transition at tf counts in the last interval."""
        last = len(self.breakpoint_nodes) - 2
        return [min(int(np.searchsorted(self.breakpoint_nodes, rec.k, side="right")) - 1, last)
                for rec in self.transitions]


# ---------------------------------------------------------------------------
# single steps


@lru_cache(maxsize=None)
def _identities(m: int, n: int) -> np.ndarray:
    """m identities of size n, (m, n, n), read-only."""
    return np.broadcast_to(np.eye(n), (m, n, n))


def stage_pencil(Js: np.ndarray, gxs: Optional[np.ndarray] = None):
    """The per-stage pencil (P_i, Q_i), each (m, d, d), of the stage
    Jacobians Js (m, n, n) and surface gradients gxs (m, n): stage i's
    rows of the Newton matrix are P_i y_i - h sum_j a_ij Q_j y_j.

    Off the surface d = n, P_i = I and Q_i = J_i.  On it d = n + 1 and
    the unknowns of a stage are (x_i, z_i): P_i = [[I, 0], [g_x(x_i), 0]]
    holds the constraint row and Q_i = [[J_i, g_x(x_i)^T], [0, 0]] the
    multiplier column.
    """
    m, n = Js.shape[:2]
    if gxs is None:
        return _identities(m, n), Js
    P = np.zeros((m, n + 1, n + 1))
    P[:, :n, :n] = _identities(m, n)
    P[:, n, :n] = gxs
    Q = np.zeros((m, n + 1, n + 1))
    Q[:, :n, :n] = Js
    Q[:, :n, n] = gxs
    return P, Q


def stage_matrix(h: float, Js: np.ndarray, gxs: Optional[np.ndarray] = None) -> np.ndarray:
    """Jacobian of the stage equations with respect to the stage unknowns:
    block (i, j) is P_i delta_ij - h a_ij Q_j (A of RADAU_IIA) for the
    stage pencil of Js (s, n, n) and gxs (s, n) (stage_pencil).  On the
    surface the unknowns interleave as (x_1, z_1, ..., x_s, z_s).

    The products (h a_ij) Q_j are written straight into one (s, d, s, d)
    buffer, which then becomes M in place: 0 - (h a_ij) Q_j, then + P_i
    on the diagonal blocks.  At large n a second array of M's size (a
    broadcast temporary) would double the memory the call touches, which
    the allocator returns to the system and faults in again on every
    call.
    """
    P, Q = stage_pencil(Js, gxs)
    s, d = Q.shape[:2]
    M4 = np.empty((s, d, s, d))
    np.multiply((h * RADAU_IIA.A)[:, None, :, None], Q.transpose(1, 0, 2)[None], out=M4)
    M = M4.reshape(s * d, s * d)
    np.subtract(0.0, M, out=M)
    for i in range(s):
        M4[i, :, i] += P[i]
    return M


# The eigenbasis solve keeps the real eigenvalue's block and one block of
# the pair; the pair's other block is the conjugate of the first, so the
# back-transform y = Re(B w) counts the first pair block twice.  _SOLVE
# holds, for M and for M^T, the transform into the eigenbasis and B.
_EIG = RADAU_IIA_EIGVALS[:2, None, None]
_SOLVE = {False: (RADAU_IIA_TINV[:2], RADAU_IIA_T[:, :2] * np.array([1.0, 2.0])),
          True: (RADAU_IIA_T[:, :2].T, RADAU_IIA_TINV[:2].T * np.array([1.0, 2.0]))}
# |lambda_k| bounds how far a change of h or Q moves the blocks
_EIG_MAX = float(np.abs(RADAU_IIA_EIGVALS).max())


@dataclass(eq=False)
class StageStore:
    """The stage solver of one pass: integrate makes StageStore() and
    solves M y = r with it, run_adjoints makes StageStore(transpose=True)
    and solves M^T y = r.  Nothing carries over from another run.

    solve(h, Js, gxs, r) takes the stage pencil (stage_pencil) of Js
    (m, n, n) and gxs (m, n), None off the surface, holding one value per
    stage or one (m = 1) for all s; r and y are (..., s, d), stage-major.
    When every stage's Js and gxs agree with stage 0's to
    STAGE_SPREAD_ULPS ulps of their largest entry (_shared), eigen_solve
    takes stage 0's values: M = I_s (x) P - h A (x) Q then splits, with
    A = T diag(lambda) T^-1 (tableau.RADAU_IIA_T), into the blocks
    P - h lambda_k Q, one real and a conjugate pair, and one
    np.linalg.solve call on the complex (2, d, d) batch, broadcast over
    r's leading axes, solves the real block and one block of the pair.
    That matrix lies within h |A| STAGE_SPREAD_ULPS eps |J| of M, the
    backward error the LU of M already makes.  Otherwise dense_solve
    factors stage_matrix, one single-RHS solve per leading index of r.
    Both give each leading index the bytes its own solve would give.
    Raises np.linalg.LinAlgError when the system is singular.

    The solver keeps one slot: the h, J and gx of the blocks it factored
    last (copies, not the blocks), the match tolerance tol = c eps max|B|
    (c = STAGE_SPREAD_ULPS) and, once reused, their inverse.  An
    eigenbasis solve whose h, J and gx move the held blocks by at most
    tol entrywise forms no blocks and applies the inverse as a
    matrix-vector product per leading index.  numpy keeps no LU factors,
    so the inverse is computed on the first reuse, from the held bytes;
    blocks whose ||B||_1 ||B^-1||_1 exceeds COND_BOUND are never
    inverted, and a match on them solves its own blocks.  Any other
    eigenbasis solve factors its blocks, which then take the slot.  The
    slot is replaced, never written into, so a shallow copy (copy.copy,
    as IntervalStart records) shares the held bytes and reuses exactly
    what the original would.  README "The stage solve" gives the
    reasoning and the counts."""
    transpose: bool = False
    h: Optional[float] = field(default=None, init=False)
    J: Optional[np.ndarray] = field(default=None, init=False)
    gx: Optional[np.ndarray] = field(default=None, init=False)

    def solve(self, h: float, Js: np.ndarray, gxs: Optional[np.ndarray],
              r: np.ndarray) -> np.ndarray:
        """Solve this pass's stage system for the pencil of Js and gxs."""
        if (gxs is None or _shared(gxs)) and _shared(Js):
            return self.eigen_solve(h, Js[0], None if gxs is None else gxs[0], r)
        return self.dense_solve(h, Js, gxs, r)

    def eigen_solve(self, h, J, gx, r) -> np.ndarray:
        """The eigenbasis solve on one Jacobian J (n, n) and gx (n,)."""
        into, back = _SOLVE[self.transpose]
        match = self._matches(h, J, gx)
        inv = self._inverse() if match else None
        if inv is not None:
            return (back @ (inv @ (into @ r)[..., None])[..., 0]).real
        blocks = self._blocks(h, J, gx)
        y = (back @ np.linalg.solve(blocks, (into @ r)[..., None])[..., 0]).real
        if not match:
            self._hold(h, J, gx, blocks)
        return y

    def dense_solve(self, h, Js, gxs, r) -> np.ndarray:
        """The LU solve of stage_matrix, transposed for the sweep."""
        M = stage_matrix(h, Js, gxs)
        if self.transpose:
            M = M.T
        lead = r.shape[:-2]
        return np.linalg.solve(np.broadcast_to(M, lead + M.shape),
                               r.reshape(lead + (-1, 1))).reshape(r.shape)

    def _blocks(self, h, J, gx) -> np.ndarray:
        """The complex (2, d, d) blocks P - h lambda_k Q, transposed for
        the sweep.  They are formed in place, h lambda_k Q then P - that:
        as in stage_matrix, a second temporary of their size would be
        freed and faulted in again on every call at large d."""
        P, Q = stage_pencil(J[None], None if gx is None else gx[None])
        blocks = (h * _EIG) * Q[0]
        np.subtract(P[0], blocks, out=blocks)
        return blocks.transpose(0, 2, 1) if self.transpose else blocks

    def _hold(self, h, J, gx, blocks):
        """Replace the slot with the blocks of (h, J, gx) just factored."""
        self.h, self.J = h, J.copy()
        self.gx = None if gx is None else gx.copy()
        self.tol = STAGE_SPREAD_ULPS * np.finfo(float).eps * float(np.abs(blocks).max())
        self.qmax = float(np.abs(J).max()) if gx is None else \
            max(float(np.abs(J).max()), float(np.abs(gx).max()))
        self.inverted, self.inv = False, None

    def _matches(self, h, J, gx) -> bool:
        """Whether the blocks of (h, J, gx) lie within tol of the held
        ones, entrywise.  The gx row of P moves by dg = max|gx - gx0|,
        and every entry of h lambda_k Q by at most |lambda|max (|h - h0|
        (max|Q0| + dQ) + h0 dQ), dQ = max(max|J - J0|, dg).  An empty
        slot and a NaN match nothing.  The same h and the same bytes
        match without that arithmetic while tol is finite (no NaN or inf
        in the held blocks), exactly when the bound would pass them."""
        if self.J is None or (gx is None) != (self.gx is None) or J.shape != self.J.shape:
            return False
        if h == self.h and self.tol < np.inf and J.tobytes() == self.J.tobytes() and \
                (gx is None or gx.tobytes() == self.gx.tobytes()):
            return True
        dh = abs(h - self.h)
        if not _EIG_MAX * dh * self.qmax <= self.tol:
            return False
        dg = 0.0 if gx is None else float(np.abs(gx - self.gx).max())
        dQ = max(float(np.abs(J - self.J).max()), dg)
        return dg <= self.tol and _EIG_MAX * (dh * (self.qmax + dQ) + self.h * dQ) <= self.tol

    def _inverse(self) -> Optional[np.ndarray]:
        """The inverse of the held blocks, computed on the first call from
        the same bytes the first solve factored; None when a block's
        ||B||_1 ||B^-1||_1 exceeds COND_BOUND (or is not finite)."""
        if not self.inverted:
            self.inverted = True
            blocks = self._blocks(self.h, self.J, self.gx)
            inv = np.linalg.inv(blocks)
            cond = (np.abs(blocks).sum(axis=1).max(axis=1)
                    * np.abs(inv).sum(axis=1).max(axis=1)).max()
            self.inv = inv if cond <= COND_BOUND else None
        return self.inv


def _at_stages(values: list, s: int) -> np.ndarray:
    """The (s, ...) array of per-stage values.  A single value comes from
    the first Newton iterate, which puts every stage at the step start,
    and is repeated for all s stages."""
    V = np.array(values)
    return V if len(V) == s else np.repeat(V, s, axis=0)


def _shared(V: np.ndarray) -> bool:
    """Whether every stage value V[j] agrees with V[0] to rounding:
    max_j |V[j] - V[0]| <= STAGE_SPREAD_ULPS * eps * max|V[0]|, entrywise
    maxima.  A single value (a first iterate) is shared without a look,
    equal bytes without arithmetic; a NaN spread is not shared."""
    if V.shape[0] == 1 or V.tobytes() == V[0].tobytes() * V.shape[0]:
        return True
    spread = np.abs(V[1:] - V[0]).max()
    return bool(spread <= STAGE_SPREAD_ULPS * np.finfo(float).eps * np.abs(V[0]).max())


def sliding_jacobians(ocp: HybridOCP, vals: list, X: np.ndarray, Z: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """The stage Jacobians fF_x(x_j, u) + z_j g_xx(x_j) (m, n, n), the
    derivative of f_F + g_x^T z, of the first m = len(vals) stages of X
    and Z from their Filippov values vals (filippov_values)."""
    Js = np.empty((len(vals), ocp.n, ocp.n))
    for j, v in enumerate(vals):
        gxx = ocp.g_xx(X[j])
        Js[j] = filippov_state_jacobian(ocp, v, X[j], u, gxx)[0] + Z[j] * gxx
    return Js


def _newton_step(ocp: HybridOCP, mode: Mode, x: np.ndarray, u: np.ndarray, h: float,
                 opts: IntegratorOptions, store: Optional[StageStore]):
    """The stage Newton iteration of one step in mode (module docstring).
    Returns (stages_x, stages_z, x_plus, v), v the Filippov values the
    converged iterate evaluated at the last stage; stages_z and v are
    None off the surface.

    Every iteration evaluates the stage values (and g on the surface),
    which is all its residual and x_plus read; the state Jacobians f_x,
    or fF_x + z g_xx, are formed only when it goes on to a solve, and
    the control part never.  The first iterate's solve is the eigenbasis
    one; later ones factor the dense stage matrix unless the stage
    Jacobians agree to rounding.  store is the run's StageStore, which
    solves every correction; None means a fresh one.
    """
    store = store if store is not None else StageStore()
    n, s = ocp.n, RADAU_IIA.s
    A, b = RADAU_IIA.A, RADAU_IIA.b
    sliding = mode is Mode.SLIDING
    if not sliding:
        f, f_x, _ = ocp.field(mode)
    what = "sliding stage Newton" if sliding else "stage Newton"

    X = np.repeat(x[None], s, axis=0)
    Z = np.zeros(s) if sliding else None
    for it in range(MAX_NEWTON_ITERS + 1):
        m = 1 if it == 0 else s
        if sliding:
            vals = [filippov_values(ocp, X[j], u, eps_den=opts.eps_den) for j in range(m)]
            gxs = _at_stages([v.gx for v in vals], s)
            V = _at_stages([v.fF for v in vals], s) + gxs * Z[:, None]   # f_F + g_x^T z
            res = np.empty((s, n + 1))
            res[:, :n] = X - x - h * (A @ V)
            res[:, n] = [ocp.g(X[i]) for i in range(m)]
        else:
            V = _at_stages([f(X[i], u) for i in range(m)], s)
            res = X - x - h * (A @ V)
        if np.abs(res).max() <= opts.newton_tol:
            return X, Z, x + h * (b @ V), vals[-1] if sliding else None
        if it == MAX_NEWTON_ITERS:
            break
        Js = sliding_jacobians(ocp, vals, X, Z, u) if sliding else \
            np.array([f_x(X[j], u) for j in range(m)])
        try:
            delta = store.solve(h, Js, gxs[:m] if sliding else None, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularIteration(f"{what} matrix singular at h = {h:.3e}: {exc}") from exc
        if sliding:
            X, Z = X + delta[:, :n], Z + delta[:, n]
        else:
            X = X + delta
    raise NewtonDivergence(
        f"{what} stalled after {MAX_NEWTON_ITERS} iterations "
        f"(h = {h:.3e}, residual = {np.abs(res).max():.3e})",
        residual=float(np.abs(res).max()), h=h)


def step_ode(ocp: HybridOCP, mode: Mode, x: np.ndarray, u: np.ndarray,
             h: float, opts: IntegratorOptions, store: Optional[StageStore] = None):
    """One implicit Runge-Kutta step of x' = f(x, u) with f the field of
    the off-surface mode (ocp.field: f1 below, f2 above).  Returns
    (stages, x_plus) with stages of shape (s, n).  Mode.SLIDING, where
    no single field flows, raises ValueError."""
    if mode is Mode.SLIDING:
        raise ValueError(f"no single field flows in mode {mode!r}")
    stages, _, x_plus, _ = _newton_step(ocp, mode, x, u, h, opts, store)
    return stages, x_plus


def step_sliding(ocp: HybridOCP, x: np.ndarray, u: np.ndarray, h: float,
                 opts: IntegratorOptions, store: Optional[StageStore] = None):
    """One stiffly-accurate step of the sliding index-2 system.  Returns
    (stages_x, stages_z, x_plus, a_plus); a_plus is the blend weight
    alpha the converged iteration evaluated at the last stage, which is
    x_plus up to rounding (the table is stiffly accurate).  The
    endpoint's multiplier is the last stage's, stages_z[-1]."""
    X, Z, x_plus, v = _newton_step(ocp, Mode.SLIDING, x, u, h, opts, store)
    return X, Z, x_plus, v.a


# ---------------------------------------------------------------------------
# event localization


def locate_event(eval_at: Callable[[float], tuple], e0: float, far: tuple,
                 event_tol: float):
    """Find tau in (0, h] where the oriented event function crosses zero.

    eval_at(tau) -> (step_data, e) evaluates a trial step of size tau.
    e0 is the event value at tau = 0 (no step); far = (h, step_data, e)
    is the trial its caller solved already, e of the opposite (negative)
    orientation.  Returns (tau, step_data, e) of an accepted trial (far
    included) with |e| <= event_tol, or (0.0, None, e0) when the event
    already sits at the step start.  Safeguarded secant: every iterate
    stays inside the current bracket, falling back to bisection when the
    secant point leaves it.  NoBracket when e0 < 0 or far's e > 0, or
    after MAX_EVENT_ITERS trials without |e| <= event_tol.
    """
    if abs(e0) <= event_tol:
        return 0.0, None, e0
    if e0 < 0.0:
        raise NoBracket(f"event function already negative at step start (e0 = {e0:.3e})", e0=e0)

    lo, e_lo = 0.0, e0
    hi, _, e_hi = far
    if abs(e_hi) <= event_tol:
        return far
    if e_hi > 0.0:
        raise NoBracket(f"no sign change over the step (e(h) = {e_hi:.3e})", e_h=e_hi)

    for _ in range(MAX_EVENT_ITERS):
        span = hi - lo
        tau = lo - e_lo * span / (e_hi - e_lo)  # secant through bracket ends
        if not (lo + 0.01 * span <= tau <= hi - 0.01 * span):
            tau = lo + 0.5 * span
        data, e = eval_at(tau)
        if abs(e) <= event_tol:
            return tau, data, e
        if e > 0.0:
            lo, e_lo = tau, e
        else:
            hi, e_hi = tau, e
    raise NoBracket(f"event localization did not reach |e| <= {event_tol:.1e} in "
                    f"{MAX_EVENT_ITERS} trials (bracket e = {e_lo:.3e}, {e_hi:.3e})",
                    e_lo=e_lo, e_hi=e_hi)


# ---------------------------------------------------------------------------
# the main loop


def _initial_mode(ocp: HybridOCP, x0: np.ndarray, u: np.ndarray,
                  opts: IntegratorOptions) -> Mode:
    g0 = ocp.g(x0)
    if g0 < -opts.surface_tol:
        return Mode.BELOW
    if g0 > opts.surface_tol:
        return Mode.ABOVE
    return entry_test(ocp, x0, u, eps_tan=opts.eps_tan)


# the kind of the transition from one mode to the next
_KIND = {(Mode.BELOW, Mode.ABOVE): TransitionKind.CROSS_12,
         (Mode.ABOVE, Mode.BELOW): TransitionKind.CROSS_21,
         (Mode.BELOW, Mode.SLIDING): TransitionKind.ENTER_SLIDING,
         (Mode.ABOVE, Mode.SLIDING): TransitionKind.ENTER_SLIDING,
         (Mode.SLIDING, Mode.BELOW): TransitionKind.EXIT_TO_F1,
         (Mode.SLIDING, Mode.ABOVE): TransitionKind.EXIT_TO_F2}


class _Builder:
    """Accumulates committed steps; keeps integrate() itself readable."""

    def __init__(self, t0, x0, spi, opts):
        self.times = [float(t0)]
        self.xs = [np.array(x0, dtype=float)]
        self.hs = []
        self.modes = []
        self.stages_x = []
        self.stages_z = []
        self.transitions = []
        self.events = []
        self.breakpoint_nodes = [0]
        self.starts = []
        self.spi = spi
        self.opts = opts
        self.store = StageStore()

    @classmethod
    def resumed(cls, base: Trajectory, n: int):
        """Base's committed data through node breakpoint_nodes[n], its
        event nodes up to there, the transitions committed before interval
        n began and a copy of the stage store base held then."""
        state = base.starts[n]
        k = int(base.breakpoint_nodes[n])
        bld = cls(base.times[0], base.x[0], base.spi, base.opts)
        bld.times = base.times[:k + 1].tolist()
        bld.xs = list(base.x[:k + 1])
        bld.hs = base.h[:k].tolist()
        bld.modes = base.mode[:k]
        bld.stages_x = base.stages_x[:k]
        bld.stages_z = base.stages_z[:k]
        bld.transitions = base.transitions[:state.transitions]
        bld.events = [e for e in base.events if e.k <= k]
        bld.breakpoint_nodes = base.breakpoint_nodes[:n + 1].tolist()
        bld.starts = base.starts[:n]
        bld.store = copy.copy(state.store)
        return bld

    def begin_interval(self, mode):
        self.starts.append(IntervalStart(mode=mode, transitions=len(self.transitions),
                                         store=copy.copy(self.store)))

    def commit(self, t_new, x_new, h, mode, stages, zstages):
        """Append a step; the arrays are the fresh ones a step function
        returned, which nothing writes into afterwards, so they are kept
        as they are."""
        self.times.append(float(t_new))
        self.xs.append(x_new)
        self.hs.append(float(h))
        self.modes.append(mode)
        self.stages_x.append(stages)
        self.stages_z.append(zstages)

    def transition(self, mode, next_mode) -> Mode:
        """Go from mode to next_mode at the last node and return next_mode.
        Unless they are the same (nothing to record), record kind _KIND[mode,
        next_mode] with the node's t and x and count it against the cap."""
        if next_mode is mode:
            return mode
        self.transitions.append(TransitionRecord(
            kind=_KIND[mode, next_mode], t=float(self.times[-1]), k=len(self.xs) - 1,
            x=np.array(self.xs[-1], dtype=float)))
        if len(self.transitions) - self.starts[-1].transitions > MAX_TRANSITIONS_PER_INTERVAL:
            n = len(self.starts) - 1
            raise ChatteringLimit(f"more than {MAX_TRANSITIONS_PER_INTERVAL} transitions "
                                  f"in control interval {n}", interval=n)
        return next_mode

    def finish(self, terminal_mode) -> Trajectory:
        """The trajectory, with ctrl read off breakpoint_nodes and z_node
        off stages_z: a sliding step's last stage multiplier, else 0, and
        0 at every transition node."""
        bp = np.array(self.breakpoint_nodes, dtype=int)
        z_node = np.array([0.0] + [0.0 if Z is None else float(Z[-1]) for Z in self.stages_z])
        z_node[[rec.k for rec in self.transitions]] = 0.0
        return Trajectory(
            times=np.array(self.times), x=np.array(self.xs), h=np.array(self.hs),
            mode=self.modes, ctrl=np.repeat(np.arange(len(bp) - 1), np.diff(bp)),
            stages_x=self.stages_x, stages_z=self.stages_z,
            z_node=z_node, transitions=self.transitions, breakpoint_nodes=bp,
            starts=self.starts, terminal_mode=terminal_mode, spi=self.spi,
            opts=self.opts, events=self.events)


def check_width(ocp: HybridOCP, grid: ControlGrid):
    """Raise DimensionMismatch unless grid holds ocp.m controls per interval."""
    if grid.m != ocp.m:
        raise DimensionMismatch(f"grid has {grid.m} controls per interval, problem {ocp.m}")


def check_mesh(traj: Trajectory, grid: ControlGrid):
    """Raise MeshMismatch unless traj was integrated on grid's control
    mesh: N and every breakpoint t_0..t_N."""
    if not np.array_equal(traj.times[traj.breakpoint_nodes], grid.breakpoints()):
        raise MeshMismatch("trajectory was integrated on a different mesh")


def integrate(ocp: HybridOCP, grid: ControlGrid, steps_per_interval: int = 8,
              opts: Optional[IntegratorOptions] = None,
              base: Optional[Trajectory] = None, start: int = 0) -> Trajectory:
    """Integrate the hybrid system over [t0, tf] with piecewise-constant
    control, localizing and recording every surface transition.

    With base and start = n > 0 the run resumes base at control interval
    n: it keeps base's data up to t_n and integrates intervals n..N-1
    only.  A grid whose width is not ocp.m raises DimensionMismatch, a
    base from another mesh (steps_per_interval, N or breakpoints)
    MeshMismatch.  A steps_per_interval that is no integer >= 1 (a bool
    is none), a base with other options, or a base with start = 0 raises
    ValueError.  Past those checks the result equals a full run bit for
    bit when base came from the same problem and grid's controls before
    interval n are the ones base was integrated with; neither of these
    is checked.
    """
    opts = opts if opts is not None else IntegratorOptions()
    spi = steps_per_interval
    if not is_count(spi):
        raise ValueError(f"steps_per_interval must be an integer >= 1, got {spi!r}")
    spi = int(spi)
    check_width(ocp, grid)

    bp = grid.breakpoints()
    N = grid.N
    if base is None and start == 0:
        mode = _initial_mode(ocp, ocp.x0, grid.values[0], opts)
        bld = _Builder(grid.t0, ocp.x0, spi, opts)
    else:
        if base is None or not 0 < start < N:
            raise ValueError(f"resuming at interval {start} needs a base trajectory "
                             f"and 0 < start < N = {N}")
        if base.spi != spi:
            raise MeshMismatch("base trajectory has a different mesh")
        check_mesh(base, grid)
        if base.opts != opts:
            raise ValueError("base trajectory was integrated with different options")
        bld = _Builder.resumed(base, start)
        mode = base.starts[start].mode
    t, x = bld.times[-1], bld.xs[-1]

    for n in range(start, N):
        bld.begin_interval(mode)
        u = grid.values[n]
        nodes = np.linspace(bp[n], bp[n + 1], spi + 1)

        # a control jump can throw the blend weight out of [0, 1] at the
        # very start of the interval: exit immediately at the breakpoint
        if mode is Mode.SLIDING:
            mode = bld.transition(mode, exit_test(ocp, x, u, eps_den=opts.eps_den,
                                                  eps_tan=opts.eps_tan))

        for j in range(spi):
            target = nodes[j + 1]
            while True:
                h = target - t
                if h <= 1e-13 * max(1.0, abs(target)):
                    # within roundoff of the base node: snap instead of
                    # taking a degenerate step, so nodes stay bit-exact
                    t = target
                    bld.times[-1] = target
                    break
                if mode is Mode.SLIDING:
                    t, x, mode = _advance_sliding(ocp, bld, t, x, u, h, opts)
                else:
                    t, x, mode = _advance_ode(ocp, bld, t, x, u, h, mode, opts)
        bld.breakpoint_nodes.append(len(bld.xs) - 1)

    return bld.finish(mode)


def _advance_ode(ocp, bld, t, x, u, h, mode, opts):
    """Try a full step in an off-surface mode; shrink to a located event
    when the endpoint (or an internal stage) lands beyond the surface.
    Every trial solves with the run's stage store (bld.store)."""
    sgn = -1.0 if mode is Mode.BELOW else 1.0   # interior sign of g

    stages, x_try = step_ode(ocp, mode, x, u, h, opts, bld.store)
    g_end = ocp.g(x_try)
    e_end = sgn * g_end   # positive while we stay in our region

    # the last stage is x_try up to rounding (the table is stiffly
    # accurate), so e_end stands in for it
    stage_dip = min([sgn * ocp.g(stages[i]) for i in range(RADAU_IIA.s - 1)] + [e_end])
    if stage_dip < -opts.surface_tol:
        def eval_at(tau):
            st, xp = step_ode(ocp, mode, x, u, tau, opts, bld.store)
            return (st, xp), sgn * ocp.g(xp)

        far = (h, (stages, x_try), e_end)
        if e_end >= -opts.surface_tol:
            # the endpoint (c_s = 1) came back; bracket on the first
            # offending interior stage time
            probes = ((ci * h, *eval_at(ci * h)) for ci in RADAU_IIA.c[:-1])
            far = next((p for p in probes if p[2] < -opts.surface_tol), None)
            if far is None:
                raise NoBracket("stage values dip through the surface but no trial "
                                "endpoint does", stage_dip=float(stage_dip))
        tau, data, _ = locate_event(eval_at, sgn * ocp.g(x), far, opts.event_tol)
        if tau > 0.0:   # tau = 0: the event sits at the step start
            st, x = data
            t = t + tau
            bld.commit(t, x, tau, mode, st, None)
            if tau < h:   # a trial, not the full step: an event node
                bld.events.append(EventNode(len(bld.xs) - 1, None))
        next_mode = bld.transition(mode, entry_test(ocp, x, u, eps_tan=opts.eps_tan))
        if tau == 0.0 and next_mode is mode:
            # a graze at the step start whose step still dips through
            # the surface: retrying the step would loop forever
            raise NoBracket("the step dips through the surface from a graze at its start",
                            stage_dip=float(stage_dip))
        return t, x, next_mode

    bld.commit(t + h, x_try, h, mode, stages, None)
    if abs(g_end) <= opts.surface_tol:
        # grazed onto the surface exactly at the node
        mode = bld.transition(mode, entry_test(ocp, x_try, u, eps_tan=opts.eps_tan))
    return t + h, x_try, mode


def _advance_sliding(ocp, bld, t, x, u, h, opts):
    """Try a full sliding step; shrink to the blend-weight boundary when
    the weight leaves [0, 1].  Every trial solves with bld.store."""
    Xs, Zs, x_try, a_end = step_sliding(ocp, x, u, h, opts, bld.store)

    if 0.0 < a_end < 1.0:
        bld.commit(t + h, x_try, h, Mode.SLIDING, Xs, Zs)
        return t + h, x_try, Mode.SLIDING

    boundary = 0 if a_end <= 0.0 else 1
    a0 = alpha(ocp, x, u, eps_den=opts.eps_den)
    orient = 1.0 if boundary == 0 else -1.0    # oriented distance into (0, 1)

    def eval_at(tau):
        data = step_sliding(ocp, x, u, tau, opts, bld.store)
        return data, orient * (data[3] - boundary)

    far = (h, (Xs, Zs, x_try, a_end), orient * (a_end - boundary))
    tau, data, _ = locate_event(eval_at, orient * (a0 - boundary), far, opts.event_tol)
    if tau > 0.0:   # tau = 0: the weight sits on its boundary at the step start
        Xs, Zs, x, _ = data
        t = t + tau
        bld.commit(t, x, tau, Mode.SLIDING, Xs, Zs)
        if tau < h:
            bld.events.append(EventNode(len(bld.xs) - 1, boundary))
    next_mode = exit_mode(*normal_speeds(ocp, x, u), boundary, opts.eps_tan)
    return t, x, bld.transition(Mode.SLIDING, next_mode)
