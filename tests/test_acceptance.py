"""Acceptance gate: ten numbered criteria, one test and one printed
PASS/FAIL line each.

Criterion 4 bounds the node-adjoint slope to [4.6, 5.4], the band of the
state in criterion 2.  The node multipliers are exact derivatives of the
discrete flow, and the discrete adjoint of an order-p Runge-Kutta method
with nonzero weights is an order-p scheme for the adjoint equation
(Hager 2000; Sanz-Serna 2016): fifth order for 3-stage Radau IIA, as the
reversed-time table's B(5), C(2), D(3) in criterion 1 certify.  The
stage multipliers are third order.  Criterion 5 holds the reduced
gradient, a quadrature of both, to the same [4.6, 5.4] band.
"""

import json
import math
import time

import numpy as np
import pytest

from slidoc.adjoint import run_adjoint
from slidoc.cli import main as cli_main
from slidoc.integrator import integrate
from slidoc.model import Mode, TransitionKind, filippov_jacobians
from slidoc.model import ControlGrid, EndpointFunctional, HybridOCP
from slidoc.optimizer import OptimizerConfig, optimize
from slidoc.problems import get_problem
from slidoc.tableau import adjoint_tableau, check_conditions, radau_iia_3
from slidoc.verify import gradient_check, order_study

H_LADDER = [0.1 / 2 ** k for k in range(4)]


def report(k, ok, detail):
    print(f"ACCEPTANCE #{k} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_acceptance_01_tableau_conditions():
    t0 = time.perf_counter()
    tab = radau_iia_3()
    adj = adjoint_tableau(tab)
    rep = check_conditions(tab)
    rep_a = check_conditions(adj)
    orders_ok = (rep.p, rep.q, rep.r) == (5, 3, 2) \
        and (rep_a.p, rep_a.q, rep_a.r) == (5, 2, 3)
    res_ok = all(rep.residuals[f"B{l}"] <= 1e-12 for l in range(1, 6)) \
        and all(rep.residuals[f"C{l}"] <= 1e-12 for l in range(1, 4)) \
        and all(rep.residuals[f"D{l}"] <= 1e-12 for l in range(1, 3)) \
        and all(rep_a.residuals[f"B{l}"] <= 1e-12 for l in range(1, 6)) \
        and all(rep_a.residuals[f"C{l}"] <= 1e-12 for l in range(1, 3)) \
        and all(rep_a.residuals[f"D{l}"] <= 1e-12 for l in range(1, 4))

    # closed forms of the left-endpoint companion scheme
    s6 = math.sqrt(6.0)
    A_cf = np.array([
        [11 / 45 - 7 * s6 / 360, 11 / 45 + 43 * s6 / 360, 1 / 9],
        [11 / 45 - 43 * s6 / 360, 11 / 45 + 7 * s6 / 360, 1 / 9],
        [-1 / 18 + s6 / 18, -1 / 18 - s6 / 18, 1 / 9]])
    b_cf = np.array([4 / 9 - s6 / 36, 4 / 9 + s6 / 36, 1 / 9])
    c_cf = np.array([3 / 5 + s6 / 10, 3 / 5 - s6 / 10, 0.0])
    cf_ok = np.max(np.abs(adj.A - A_cf)) <= 1e-13 \
        and np.max(np.abs(adj.b - b_cf)) <= 1e-13 \
        and np.max(np.abs(adj.c - c_cf)) <= 1e-13

    dt = time.perf_counter() - t0
    report(1, orders_ok and res_ok and cf_ok and dt < 1.0,
           f"orders {(rep.p, rep.q, rep.r)}/{(rep_a.p, rep_a.q, rep_a.r)}, "
           f"closed-form gap {np.max(np.abs(adj.A - A_cf)):.2e}, {dt:.2f}s")


def test_acceptance_02_state_endpoint_order():
    ocp, grid = get_problem("smooth-linear")
    t0 = time.perf_counter()
    rep = order_study(ocp, grid, "state_endpoint", H_LADDER)
    dt = time.perf_counter() - t0
    report(2, 4.6 <= rep.slope <= 5.4 and dt < 10.0,
           f"slope {rep.slope:.3f} in [4.6, 5.4], {dt:.1f}s")


def test_acceptance_03_state_stage_order():
    ocp, grid = get_problem("smooth-linear")
    rep = order_study(ocp, grid, "state_stage", H_LADDER)
    report(3, 3.6 <= rep.slope <= 4.6, f"slope {rep.slope:.3f} in [3.6, 4.6]")


def test_acceptance_04_adjoint_orders():
    ocp, grid = get_problem("smooth-linear")
    rep_e = order_study(ocp, grid, "adjoint_endpoint", H_LADDER)
    rep_s = order_study(ocp, grid, "adjoint_stage", H_LADDER)
    ok_e = 4.6 <= rep_e.slope <= 5.4
    ok_s = rep_s.slope >= 2.6
    report(4, ok_e and ok_s,
           f"adjoint_endpoint slope {rep_e.slope:.3f} in [4.6, 5.4]: {ok_e}, "
           f"adjoint_stage slope {rep_s.slope:.3f} >= 2.6: {ok_s}")


def test_acceptance_05_gradient_order():
    ocp, grid = get_problem("smooth-linear")
    rep = order_study(ocp, grid, "gradient", H_LADDER)
    report(5, 4.6 <= rep.slope <= 5.4, f"slope {rep.slope:.3f} in [4.6, 5.4]")


def test_acceptance_06_oracle_agreement():
    t0 = time.perf_counter()
    ocp, grid = get_problem("smooth-linear")
    smooth = gradient_check(ocp, grid, eps=1e-6)
    ocp, grid = get_problem("p2-sliding")
    sliding = gradient_check(ocp, grid, eps=1e-6)
    dt = time.perf_counter() - t0
    ok = smooth.rel is not None and smooth.rel <= 1e-5 \
        and sliding.rel is not None and sliding.rel <= 1e-4 \
        and dt < 30.0
    report(6, ok, f"smooth rel {smooth.rel:.2e} <= 1e-5, "
           f"sliding rel {sliding.rel:.2e} <= 1e-4, {dt:.1f}s")


def test_acceptance_07_two_formulation_equivalence():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n)) * 0.8
        B = rng.normal(size=(n, 1))
        cvec = rng.normal(size=n)
        w = EndpointFunctional(value=lambda x, c=cvec: float(c @ x),
                               grad=lambda x, c=cvec: c)
        lin = lambda x, u, A=A, B=B: A @ x + B @ u
        ocp = HybridOCP(name="rand", n=n, m=1,
                        f1=lin, f1_x=lambda x, u, A=A: A,
                        f1_u=lambda x, u, B=B: B,
                        f2=lin, f2_x=lambda x, u, A=A: A,
                        f2_u=lambda x, u, B=B: B,
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
        worst = max(worst, float(np.max(np.abs(a1.lam - a2.lam))) / scale)
    report(7, worst <= 1e-12, f"worst relative gap {worst:.2e} over 100 draws")


def test_acceptance_08_sliding_invariants():
    ocp, grid = get_problem("p2-sliding")
    traj = integrate(ocp, grid, 8)
    adj = run_adjoint(ocp, traj, grid, ocp.phi)
    K = traj.K

    sliding_nodes = [k for k in range(K) if traj.mode[k] is Mode.SLIDING]
    if traj.terminal_mode is Mode.SLIDING:
        sliding_nodes.append(K)
    g_worst = max(abs(ocp.g(traj.x[k])) for k in sliding_nodes)
    z_worst = float(np.max(np.abs(traj.z_node)))

    rec = traj.transitions[0]
    t_err = abs(rec.t - 0.5 / 1.2)

    # adjoint tangency on the sliding side: the minus-side value stored at
    # the entry node is excluded, every later node is a sliding multiplier
    entry = rec.k
    lam_worst = 0.0
    for k in range(entry + 1, K + 1):
        lam = adj.lam[k]
        nrm = max(float(np.linalg.norm(lam)), 1e-30)
        lam_worst = max(lam_worst, abs(float(ocp.g_x(traj.x[k]) @ lam)) / nrm)

    # jump system solved at the entry: Hamiltonian continuity residual
    jump = adj.jumps[0]
    x_star = traj.x[entry]
    gx = ocp.g_x(x_star)
    lam_plus = adj.lam[entry] + jump["pi"] * gx
    u_plus = grid.values[traj.ctrl[entry]]
    u_minus = grid.values[traj.ctrl[entry - 1]]
    fF = filippov_jacobians(ocp, x_star, u_plus, traj.opts.eps_den)[0]
    rhs_H = float(lam_plus @ fF) + float(traj.z_node[entry]) * float(lam_plus @ gx) \
        - float(adj.lam_g[entry]) * ocp.g(x_star)
    jump_res = abs(float(adj.lam[entry] @ ocp.f1(x_star, u_minus)) - rhs_H)

    ok = g_worst <= 1e-11 and z_worst <= 1e-6 and t_err <= 1e-8 \
        and lam_worst <= 1e-8 and jump_res <= 1e-10 \
        and rec.kind is TransitionKind.ENTER_SLIDING
    report(8, ok, f"|g| {g_worst:.2e}, |z| {z_worst:.2e}, t gap {t_err:.2e}, "
           f"|g_x lam|/|lam| {lam_worst:.2e}, jump residual {jump_res:.2e}")


def test_acceptance_09_optimizer_contract():
    t0 = time.perf_counter()
    ocp, grid = get_problem("constrained-toy")
    cfg = OptimizerConfig()
    res = optimize(ocp, grid, 8, cfg=cfg)
    dt = time.perf_counter() - t0
    h = res.history
    sigma_ok = all(r.sigma <= 1e-10 for r in h)
    tc_ok = all(r.t_c <= 1e-10 for r in h)
    c_ok = all(a.c <= b.c for a, b in zip(h, h[1:]))
    armijo_ok = all(r.penalty_after - r.penalty_before
                    <= cfg.gamma * r.alpha * r.sigma + 1e-15
                    for r in h if r.alpha is not None)
    final_ok = h[-1].M <= 1e-6 and abs(h[-1].sigma) <= 1e-6 and len(h) <= 200
    ok = sigma_ok and tc_ok and c_ok and armijo_ok and final_ok and dt < 120.0
    report(9, ok, f"{len(h)} iterations, final M {h[-1].M:.2e}, "
           f"final |sigma| {abs(h[-1].sigma):.2e}, c {h[0].c} -> {h[-1].c}, "
           f"{dt:.1f}s")


def test_acceptance_10_determinism(tmp_path):
    runs = {
        "simulate": ["simulate", "--problem", "p2-sliding"],
        "adjoint": ["adjoint", "--problem", "slide-exit"],
        "gradient": ["gradient", "--problem", "smooth-linear"],
        "check": ["check-gradient", "--problem", "smooth-linear",
                  "--steps-per-interval", "4"],
        "optimize": ["optimize", "--problem", "constrained-toy"],
        "orders": ["verify-orders", "--problem", "smooth-linear",
                   "--quantity", "state_endpoint", "--h", "0.1,0.05"],
        "tableau": ["tableau-check"],
    }
    suffix = {"simulate": ".csv", "adjoint": ".csv"}
    ok = True
    for name, argv in runs.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}{suffix.get(name, '.json')}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            blob = out.read_bytes()
            side = out.with_suffix(".json")
            if side != out and side.exists():
                blob += side.read_bytes()
            blobs.append(blob)
        ok = ok and blobs[0] == blobs[1]
    report(10, ok, "reruns byte-identical across all seven subcommands")
