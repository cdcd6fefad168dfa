"""Exact-penalty descent for endpoint-constrained control problems.

Minimizes F0(u) subject to endpoint equalities g1_i(u) = 0, inequalities
g2_j(u) <= 0 and the control box, through the nonsmooth penalty

    F_c(u) = F0(u) + c M(u),    M(u) = max(0, max_i |g1_i|, max_j g2_j).

Each iteration solves a direction-finding QP in (d, beta):

    min  <grad F0, d> + c beta + 1/2 d^T H d
    s.t. |g1_i + <grad g1_i, d>| <= beta
         g2_j + <grad g2_j, d>  <= beta
         beta >= 0,   u + d inside the box,

whose value certificate sigma = <grad F0, d> + c (beta - M) must be
negative enough (t_c = sigma + M/c <= 0) before c is accepted; otherwise
c grows geometrically.  An Armijo backtracking line search on F_c
finishes the iteration.  The QP is solved by a primal active-set method:
the problems are small and the method produces sharp KKT residuals,
which the iterate records keep for audit.

The metric H is damped BFGS (Powell 1978), started at h_scale I and
kept inside nu1 I <= H <= nu2 I with nu1 = 1e-2 h_scale and
nu2 = 1e2 h_scale, the bounds the exact-penalty convergence argument
asks of H.  Each accepted step u -> u+ updates it with s = u+ - u and
y = grad L(u+, mu) - grad L(u, mu), where

    L = F0 + sum_i (mu_i+ - mu_i-) g1_i + sum_j mu_j g2_j

and mu are the multipliers of the step's direction QP: the QP models
the constraints to first order only, so their curvature has to reach
the step through H.  The box and beta rows are linear in (d, beta) and
carry none.  When s^T y < 0.2 s^T H s, y is replaced by
theta y + (1 - theta) H s with theta = 0.8 s^T H s / (s^T H s - s^T y),
which keeps H positive definite.  Two Cholesky factorizations, of
H - nu1 I and nu2 I - H, test the bounds; only when one fails are the
eigenvalues clipped to [nu1, nu2].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .adjoint import run_adjoints
from .errors import (COUNT, POSITIVE, CFailure, LineSearchFailure, QPFailure,
                     ValidationError, check_fields)
from .gradient import reduced_gradient
from .integrator import IntegratorOptions, integrate
from .model import ControlGrid, HybridOCP


# (field, rule, check) for OptimizerConfig (check_fields)
_RULES = (("c0", *POSITIVE), ("kappa", "> 1", lambda v: v > 1),
          ("gamma", "in (0, 1)", lambda v: 0 < v < 1), ("eta", "in (0, 1)", lambda v: 0 < v < 1),
          ("epsilon", *POSITIVE), ("max_iters", *COUNT), ("h_scale", *POSITIVE))


@dataclass(frozen=True)
class OptimizerConfig:
    c0: float = 1.0
    kappa: float = 2.0
    gamma: float = 0.1
    eta: float = 0.5
    epsilon: float = 1e-8
    max_iters: int = 200
    h_scale: float = 1.0

    def __post_init__(self):
        """Raise ValidationError naming the first field of the wrong type
        or out of range (a config file sets each field as a flat key)."""
        check_fields(self, _RULES)


MAX_PENALTY_RAISES = 60
MAX_BACKTRACKS = 60
# the metric's spectral bounds, as multiples of h_scale
NU1_FACTOR = 1e-2
NU2_FACTOR = 1e2


def make_hessian(dim: int, h_scale: float):
    """Starting metric H0 = h_scale I with its spectral bounds
    nu1 = NU1_FACTOR h_scale and nu2 = NU2_FACTOR h_scale; returns
    (H0, nu1, nu2).  OptimizerConfig has checked h_scale > 0."""
    return h_scale * np.eye(dim), NU1_FACTOR * float(h_scale), NU2_FACTOR * float(h_scale)


def update_hessian(H: np.ndarray, s: np.ndarray, y: np.ndarray,
                   nu1: float, nu2: float) -> np.ndarray:
    """Damped BFGS update of H along the step s with gradient change y,
    returned inside [nu1, nu2] (see the module docstring)."""
    Hs = H @ s
    sHs = float(s @ Hs)
    sy = float(s @ y)
    if sy < 0.2 * sHs:
        theta = 0.8 * sHs / (sHs - sy)
        y = theta * y + (1.0 - theta) * Hs
        sy = float(s @ y)
    H = H - np.outer(Hs, Hs) / sHs + np.outer(y, y) / sy
    eye = np.eye(H.shape[0])
    try:
        np.linalg.cholesky(H - nu1 * eye)
        np.linalg.cholesky(nu2 * eye - H)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(H)
        H = (V * np.clip(w, nu1, nu2)) @ V.T
        H = 0.5 * (H + H.T)   # the product rounds asymmetrically
    return H


def constraint_violation(eq_vals, ineq_vals) -> float:
    m = 0.0
    for v in eq_vals:
        m = max(m, abs(float(v)))
    for v in ineq_vals:
        m = max(m, float(v))
    return m


# ---------------------------------------------------------------------------
# direction-finding QP

KKT_TOL = 1e-8   # largest KKT residual solve_direction accepts


@dataclass
class QPInfo:
    """mu holds one multiplier per QP row, in row order: each equality's
    pair (value + <grad, d> <= beta, then its negation), each inequality,
    beta >= 0, then each coordinate's (upper, lower) box pair."""
    kkt_residual: float
    iterations: int
    active: list
    mu: np.ndarray


def solve_direction(grad0: np.ndarray, c: float, H: np.ndarray,
                    eqs, ineqs, lo: np.ndarray, hi: np.ndarray):
    """Primal active-set solve of the direction-finding QP.

    eqs and ineqs are sequences of (value, gradient) pairs; lo and hi
    bound d (box minus current control).  Returns (d, beta, QPInfo).

    Variables are y = (d, beta); every constraint is a row a^T y <= b.
    G's beta row is zero, so in every KKT solve the multipliers of the
    working set's beta rows sum to c > 0: a lone beta row has mu = c and
    is never dropped, and the start set holds one, so some beta row
    always pins the otherwise flat beta direction.  Were rounding to
    break this, the KKT matrix would have a zero beta column and the
    solve would raise QPFailure "degenerate working set".
    """
    dim = grad0.shape[0]
    nv = dim + 1
    G = np.zeros((nv, nv))
    G[:dim, :dim] = H
    q = np.concatenate([grad0, [c]])

    rows_a, rows_b, beta_rows = [], [], []

    def add_row(a, b, is_beta):
        beta_rows.append(bool(is_beta))
        rows_a.append(np.asarray(a, dtype=float))
        rows_b.append(float(b))

    M0 = constraint_violation([v for v, _ in eqs], [v for v, _ in ineqs])
    for val, gradc in eqs:
        add_row(np.concatenate([gradc, [-1.0]]), -val, True)
        add_row(np.concatenate([-gradc, [-1.0]]), val, True)
    for val, gradc in ineqs:
        add_row(np.concatenate([gradc, [-1.0]]), -val, True)
    add_row(np.concatenate([np.zeros(dim), [-1.0]]), 0.0, True)
    for l in range(dim):
        e = np.zeros(nv)
        e[l] = 1.0
        add_row(e, hi[l], False)
        add_row(-e, -lo[l], False)

    A = np.array(rows_a)
    bvec = np.array(rows_b)
    nrows = A.shape[0]

    y = np.zeros(nv)
    y[dim] = M0
    # start from a beta-type row active at y0: the first max achiever, or
    # the beta >= 0 row when already feasible
    slack0 = bvec - A @ y
    work: list[int] = []
    for l in range(nrows):
        if beta_rows[l] and abs(slack0[l]) <= 1e-12 * max(1.0, M0):
            work.append(l)
            break
    if not work:
        raise QPFailure("no active beta row at the starting point", M=M0)

    feas_tol = 1e-10
    mu_by_row = np.zeros(nrows)
    cap = 50 + 10 * nrows
    for it in range(1, cap + 1):
        Aw = A[work]
        kdim = nv + len(work)
        KKT = np.zeros((kdim, kdim))
        KKT[:nv, :nv] = G
        KKT[:nv, nv:] = Aw.T
        KKT[nv:, :nv] = Aw
        rhs = np.concatenate([-(G @ y + q), np.zeros(len(work))])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError as exc:
            raise QPFailure(f"degenerate working set {sorted(work)}") from exc
        p = sol[:nv]
        mu = sol[nv:]

        if np.max(np.abs(p)) <= 1e-12:
            neg = [(mu[i], i) for i in range(len(work)) if mu[i] < -1e-12]
            if not neg:
                mu_by_row[:] = 0.0
                for i, l in enumerate(work):
                    mu_by_row[l] = mu[i]
                stat = np.max(np.abs(G @ y + q + A.T @ mu_by_row))
                feas = max(0.0, float(np.max(A @ y - bvec)))
                comp = max((abs(mu_by_row[l] * (A[l] @ y - bvec[l])) for l in work),
                           default=0.0)
                res = max(stat, feas, comp)
                if res > KKT_TOL:
                    raise QPFailure(f"KKT residual {res:.3e} above {KKT_TOL:.1e}",
                                    kkt_residual=float(res))
                beta = max(0.0, float(y[dim]))   # beta >= 0 is a row; scrub roundoff
                return y[:dim].copy(), beta, QPInfo(float(res), it, sorted(work), mu_by_row.copy())
            _, drop_i = min(neg)
            work.pop(drop_i)
            continue

        # ratio test against rows not in the working set
        alpha = 1.0
        blocking = -1
        for l in range(nrows):
            if l in work:
                continue
            ap = float(A[l] @ p)
            if ap > 1e-14:
                ratio = (bvec[l] - float(A[l] @ y)) / ap
                if ratio < alpha - 1e-15:
                    alpha = max(ratio, 0.0)
                    blocking = l
        y = y + alpha * p
        if blocking >= 0:
            work.append(blocking)
    raise QPFailure(f"active-set iteration cap {cap} reached", iterations=cap)


def lagrangian_weights(mu: np.ndarray, n_eq: int, n_ineq: int) -> np.ndarray:
    """Weights of the gradients of (F0, g1..., g2...) in grad L, from a
    QPInfo.mu: 1, then mu+ - mu- per equality, then mu per inequality."""
    eq = mu[0:2 * n_eq:2] - mu[1:2 * n_eq:2]
    return np.concatenate([[1.0], eq, mu[2 * n_eq:2 * n_eq + n_ineq]])


def descent_measures(grad0: np.ndarray, d: np.ndarray, beta: float,
                     c: float, M: float):
    """sigma is the QP's decrease certificate; t_c tells whether the
    current penalty weight dominates the violation."""
    sigma = float(grad0 @ d) + c * (beta - M)
    t_c = sigma + M / c
    return sigma, t_c


def adjust_penalty(solve: Callable[[float], tuple], c: float, kappa: float,
                   grad0: np.ndarray, M: float):
    """Smallest weight in c, kappa c, ..., kappa^MAX_PENALTY_RAISES c with
    t_c below zero (up to roundoff).  solve(c) -> (d, beta, info).
    Returns (c, d, beta, sigma, t_c, info, raises)."""
    for j in range(MAX_PENALTY_RAISES + 1):
        d, beta, info = solve(c)
        sigma, t_c = descent_measures(grad0, d, beta, c, M)
        if t_c <= 1e-12:
            return c, d, beta, sigma, t_c, info, j
        c = c * kappa
    raise CFailure(f"no acceptable penalty weight within {MAX_PENALTY_RAISES} raises "
                   f"(last t_c = {t_c:.3e})", t_c=float(t_c), c=float(c))


def line_search(merit: Callable[[np.ndarray], float], F_cur: float,
                u: np.ndarray, d: np.ndarray, sigma: float,
                gamma: float, eta: float):
    """Largest step in {1, eta, ..., eta^MAX_BACKTRACKS} with the Armijo
    decrease F_c(u + a d) - F_c(u) <= gamma a sigma.  merit re-integrates.
    Returns (a, u + a d, F_c there, trials)."""
    a = 1.0
    for trial in range(MAX_BACKTRACKS + 1):
        u_try = u + a * d
        F_try = merit(u_try)
        if F_try - F_cur <= gamma * a * sigma:
            return a, u_try, F_try, trial + 1
        a = a * eta
    raise LineSearchFailure(
        f"no Armijo step within {MAX_BACKTRACKS} backtracks (sigma = {sigma:.3e})", sigma=sigma)


# ---------------------------------------------------------------------------
# outer loop


@dataclass
class IterateRecord:
    k: int
    F0: float
    M: float
    c: float
    sigma: float
    t_c: float
    beta: float
    alpha: Optional[float]
    penalty_before: float
    penalty_after: Optional[float]
    kkt_residual: float
    u: np.ndarray
    d: np.ndarray

    def to_dict(self) -> dict:
        return {"k": self.k, "F0": self.F0, "M": self.M, "c": self.c,
                "sigma": self.sigma, "t_c": self.t_c, "beta": self.beta,
                "alpha": self.alpha, "penalty_before": self.penalty_before,
                "penalty_after": self.penalty_after,
                "kkt_residual": self.kkt_residual,
                "u": [list(map(float, row)) for row in self.u],
                "d": [list(map(float, row)) for row in self.d]}


@dataclass
class OptimizeResult:
    grid: ControlGrid
    history: list
    status: str          # 'stationary' or 'max_iters'

    @property
    def converged(self) -> bool:
        return self.status == "stationary"


def optimize(ocp: HybridOCP, grid0: ControlGrid, steps_per_interval: int = 8,
             cfg: Optional[OptimizerConfig] = None,
             integ_opts: Optional[IntegratorOptions] = None) -> OptimizeResult:
    """Run the exact-penalty method from grid0 until the certificate
    |sigma| drops below epsilon or the iteration budget runs out."""
    cfg = cfg if cfg is not None else OptimizerConfig()

    N, m = grid0.N, grid0.m
    dim = N * m
    H, nu1, nu2 = make_hessian(dim, cfg.h_scale)
    lo_flat = np.tile(ocp.u_lo, N)
    hi_flat = np.tile(ocp.u_hi, N)
    functionals = [ocp.phi, *ocp.g1, *ocp.g2]
    n_eq, n_ineq = len(ocp.g1), len(ocp.g2)
    # the last evaluation, keyed by the control's bytes: the next
    # iteration starts from the accepted line-search trial, which the
    # line search has just integrated
    last: dict = {}

    def evaluate(uflat: np.ndarray):
        key = uflat.tobytes()
        if key not in last:
            grid = grid0.with_values(uflat.reshape(N, m))
            traj = integrate(ocp, grid, steps_per_interval, opts=integ_opts)
            xK = traj.x[-1]
            last.clear()
            last[key] = grid, traj, [w.value(xK) for w in functionals]
        return last[key]

    def merit_factory(c):
        def merit(uflat):
            _, _, vals = evaluate(uflat)
            F0 = vals[0]
            M = constraint_violation(vals[1:1 + n_eq], vals[1 + n_eq:])
            return F0 + c * M
        return merit

    u = grid0.values.reshape(dim).copy()
    c = cfg.c0
    history: list[IterateRecord] = []
    status = "max_iters"
    # the last accepted step: (s, gradients before it, Lagrangian weights)
    step = None

    for it in range(cfg.max_iters):
        grid, traj, vals = evaluate(u)
        F0 = vals[0]
        eq_vals = vals[1:1 + n_eq]
        ineq_vals = vals[1 + n_eq:]
        M = constraint_violation(eq_vals, ineq_vals)

        adjs = run_adjoints(ocp, traj, grid, functionals)
        grads = np.array([reduced_gradient(ocp, traj, grid, a).reshape(dim)
                          for a in adjs])
        if step is not None:
            s, grads_before, weights = step
            H = update_hessian(H, s, weights @ (grads - grads_before), nu1, nu2)
        grad0 = grads[0]
        eqs = list(zip(eq_vals, grads[1:1 + n_eq]))
        ineqs = list(zip(ineq_vals, grads[1 + n_eq:]))

        def solve(cc):
            return solve_direction(grad0, cc, H, eqs, ineqs,
                                   lo_flat - u, hi_flat - u)

        c, d, beta, sigma, t_c, info, _ = adjust_penalty(solve, c, cfg.kappa, grad0, M)

        rec = IterateRecord(k=it, F0=float(F0), M=float(M), c=float(c),
                            sigma=float(sigma), t_c=float(t_c), beta=float(beta),
                            alpha=None, penalty_before=F0 + c * M,
                            penalty_after=None, kkt_residual=info.kkt_residual,
                            u=u.reshape(N, m).copy(), d=d.reshape(N, m).copy())

        if abs(sigma) <= cfg.epsilon:
            history.append(rec)
            status = "stationary"
            break

        merit = merit_factory(c)
        a, u_new, F_new, _ = line_search(merit, rec.penalty_before, u, d, sigma,
                                         cfg.gamma, cfg.eta)
        rec.alpha = float(a)
        rec.penalty_after = float(F_new)
        history.append(rec)
        u_new = np.clip(u_new, lo_flat, hi_flat)
        step = u_new - u, grads, lagrangian_weights(info.mu, n_eq, n_ineq)
        u = u_new

    return OptimizeResult(grid=grid0.with_values(u.reshape(N, m)),
                          history=history, status=status)
