"""Exact-penalty machinery: QP hand cases, penalty adjustment, Armijo
search, and the full loop on the constrained toy problem."""

from dataclasses import replace

import numpy as np
import pytest

import slidoc.optimizer as optimizer_mod
from slidoc.errors import CFailure, LineSearchFailure, ValidationError
from slidoc.model import EndpointFunctional
from slidoc.optimizer import (OptimizerConfig, adjust_penalty,
                              constraint_violation, descent_measures,
                              lagrangian_weights, line_search, make_hessian,
                              optimize, solve_direction,
                              update_hessian)
from slidoc.problems import get_problem

WIDE = 10.0 * np.ones(2)


def test_constraint_violation_cases():
    assert constraint_violation([], []) == 0.0
    assert constraint_violation([-0.3], []) == 0.3
    assert constraint_violation([0.1], [-5.0]) == 0.1     # inactive inequality
    assert constraint_violation([0.1], [0.4]) == 0.4


def test_hessian_spectral_bounds():
    H, nu1, nu2 = make_hessian(4, 2.5)
    assert np.array_equal(H, 2.5 * np.eye(4))
    assert nu1 == pytest.approx(1e-2 * 2.5)
    assert nu2 == pytest.approx(1e2 * 2.5)
    # the configuration refuses a scale that is not > 0; make_hessian
    # does not check it again
    with pytest.raises(ValidationError) as exc:
        OptimizerConfig(h_scale=0.0)
    assert exc.value.payload["field"] == "h_scale"


def _spd(rng, dim, lo, hi):
    """A random symmetric matrix with eigenvalues drawn from [lo, hi]."""
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    A = (Q * rng.uniform(lo, hi, dim)) @ Q.T
    return 0.5 * (A + A.T)


def test_metric_update_satisfies_the_secant_equation():
    """With enough curvature along s no damping applies, and the update
    maps s to y exactly (H+ s = y)."""
    rng = np.random.default_rng(3)
    H0, nu1, nu2 = make_hessian(5, 1.0)
    H = _spd(rng, 5, 0.5, 2.0)
    s = rng.normal(size=5)
    y = _spd(rng, 5, 0.5, 2.0) @ s
    assert s @ y >= 0.2 * (s @ H @ s)
    Hp = update_hessian(H, s, y, nu1, nu2)
    assert np.max(np.abs(Hp @ s - y)) <= 1e-12
    assert np.array_equal(Hp, Hp.T)


def test_metric_update_damps_negative_curvature():
    """s^T y < 0 would make plain BFGS indefinite; Powell's damping
    keeps s^T H+ s = 0.2 s^T H s > 0."""
    rng = np.random.default_rng(4)
    _, nu1, nu2 = make_hessian(4, 1.0)
    H = _spd(rng, 4, 0.5, 2.0)
    s = rng.normal(size=4)
    y = -s
    assert s @ y < 0
    Hp = update_hessian(H, s, y, nu1, nu2)
    sHs = float(s @ H @ s)
    assert float(s @ Hp @ s) > 0
    assert float(s @ Hp @ s) == pytest.approx(0.2 * sHs, rel=1e-12)
    assert np.min(np.linalg.eigvalsh(Hp)) > 0


def test_metric_update_is_kept_inside_the_bounds():
    """A curvature of 1e4 along s would push H past nu2 = 100; the
    eigenvalue clip brings it back inside [nu1, nu2]."""
    rng = np.random.default_rng(5)
    H, nu1, nu2 = make_hessian(3, 1.0)
    s = rng.normal(size=3)
    Hp = update_hessian(H, s, 1e4 * s, nu1, nu2)
    w = np.linalg.eigvalsh(Hp)
    assert w.max() <= nu2 * (1 + 1e-12)
    assert w.min() >= nu1 * (1 - 1e-12)
    assert w.max() == pytest.approx(nu2, rel=1e-12)
    assert np.array_equal(Hp, Hp.T)
    # an update that stays inside is not touched by the clip
    assert np.array_equal(update_hessian(H, s, 2.0 * s, nu1, nu2),
                          H - np.outer(s, s) / (s @ s) + np.outer(2 * s, 2 * s) / (2 * s @ s))


def _qp_stationarity(grad0, c, H, eqs, ineqs, d, mu):
    """Largest residual of the QP's stationarity conditions in d and in
    beta, from QPInfo.mu in its documented row order."""
    dim = grad0.shape[0]
    neq, nineq = len(eqs), len(ineqs)
    r_d = H @ d + grad0
    r_beta = c - mu[2 * neq + nineq]
    for i, (_, g) in enumerate(eqs):
        r_d = r_d + (mu[2 * i] - mu[2 * i + 1]) * g
        r_beta -= mu[2 * i] + mu[2 * i + 1]
    for j, (_, g) in enumerate(ineqs):
        r_d = r_d + mu[2 * neq + j] * g
        r_beta -= mu[2 * neq + j]
    box = mu[2 * neq + nineq + 1:]
    assert box.shape == (2 * dim,)
    r_d = r_d + box[0::2] - box[1::2]
    return max(float(np.max(np.abs(r_d))), abs(r_beta))


def test_qp_multipliers_satisfy_stationarity_with_inequality_and_box():
    """The case of test_qp_hand_case_with_inequality_and_box: d2 = -0.3
    is held by the inequality (mu = 0.3), and beta = 0 by beta >= 0
    (mu = c - 0.3)."""
    H, _, _ = make_hessian(2, 1.0)
    grad0, ineqs = np.array([1.0, 0.0]), [(0.3, np.array([0.0, 1.0]))]
    d, beta, info = solve_direction(grad0, 10.0, H, [], ineqs,
                                    np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.all(info.mu >= 0)
    assert _qp_stationarity(grad0, 10.0, H, [], ineqs, d, info.mu) <= 1e-10
    assert info.mu[0] == pytest.approx(0.3, abs=1e-10)
    assert info.mu[1] == pytest.approx(9.7, abs=1e-10)
    assert lagrangian_weights(info.mu, 0, 1) == pytest.approx([1.0, 0.3], abs=1e-10)


def test_qp_multipliers_satisfy_stationarity_with_equality():
    """The case of test_qp_equality_hand_case: the equality's pair of
    rows nets mu+ - mu- = 0.5 against d = -0.5."""
    H, _, _ = make_hessian(1, 1.0)
    grad0, eqs = np.zeros(1), [(0.5, np.array([1.0]))]
    d, beta, info = solve_direction(grad0, 100.0, H, eqs, [],
                                    np.array([-10.0]), np.array([10.0]))
    assert np.all(info.mu >= 0)
    assert _qp_stationarity(grad0, 100.0, H, eqs, [], d, info.mu) <= 1e-10
    assert lagrangian_weights(info.mu, 1, 0) == pytest.approx([1.0, 0.5], abs=1e-10)


def test_config_validation():
    """The config checks itself when it is built."""
    with pytest.raises(ValidationError):
        OptimizerConfig(eta=1.5)
    with pytest.raises(ValidationError):
        OptimizerConfig(kappa=1.0)
    OptimizerConfig()


def test_ill_typed_config_is_a_validation_error():
    """A value of the wrong type fails as a ValidationError naming its
    field when the config is built, also inside the call to optimize,
    not as a bare TypeError."""
    with pytest.raises(ValidationError) as exc:
        OptimizerConfig(gamma="0.5")
    assert exc.value.payload["field"] == "gamma"
    ocp, grid = get_problem("constrained-toy")
    with pytest.raises(ValidationError) as exc:
        optimize(ocp, grid, 8, cfg=OptimizerConfig(max_iters=2.5))
    assert exc.value.payload["field"] == "max_iters"


def test_qp_unconstrained_is_scaled_steepest_descent():
    g = np.array([0.7, -0.4])
    H, _, _ = make_hessian(2, 1.0)
    d, beta, info = solve_direction(g, 5.0, H, [], [], -WIDE, WIDE)
    assert d == pytest.approx(-g, abs=1e-12)
    assert beta == 0.0
    assert info.kkt_residual <= 1e-8


def test_qp_hand_case_with_inequality_and_box():
    """H = I, grad = (1, 0), one linearized inequality 0.3 + d2 <= beta,
    box [-1, 1]^2, c = 10.  The box pins d1 at -1; the inequality is
    cheapest satisfied by d2 = -0.3 with beta = 0."""
    H, _, _ = make_hessian(2, 1.0)
    d, beta, _ = solve_direction(np.array([1.0, 0.0]), 10.0, H,
                                 [], [(0.3, np.array([0.0, 1.0]))],
                                 np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert d == pytest.approx([-1.0, -0.3], abs=1e-10)
    assert beta == pytest.approx(0.0, abs=1e-12)


def test_qp_equality_hand_case():
    """Flat objective, one equality at 0.5: the penalty term pulls d to
    -0.5 where the residual vanishes."""
    H, _, _ = make_hessian(1, 1.0)
    d, beta, _ = solve_direction(np.zeros(1), 100.0, H,
                                 [(0.5, np.array([1.0]))], [],
                                 np.array([-10.0]), np.array([10.0]))
    assert d == pytest.approx([-0.5], abs=1e-10)
    assert beta == pytest.approx(0.0, abs=1e-10)


def test_qp_box_binding():
    H, _, _ = make_hessian(1, 1.0)
    d, beta, _ = solve_direction(np.array([10.0]), 1.0, H, [], [],
                                 np.array([-0.5]), np.array([0.5]))
    assert d == pytest.approx([-0.5], abs=1e-12)


def test_qp_invariant_under_constraint_permutation():
    rng = np.random.default_rng(99)
    H = np.diag(rng.uniform(0.5, 2.0, 3))
    g0 = rng.normal(size=3)
    ineqs = [(float(rng.normal() * 0.4), rng.normal(size=3)) for _ in range(4)]
    lo, hi = -2 * np.ones(3), 2 * np.ones(3)
    d_ref, beta_ref, _ = solve_direction(g0, 7.0, H, [], ineqs, lo, hi)
    for perm in ([3, 1, 0, 2], [2, 3, 1, 0]):
        d, beta, _ = solve_direction(g0, 7.0, H, [], [ineqs[i] for i in perm],
                                     lo, hi)
        assert np.max(np.abs(d - d_ref)) <= 1e-8
        assert abs(beta - beta_ref) <= 1e-8


def test_descent_measures():
    sigma, t_c = descent_measures(np.array([1.0, 0.0]), np.array([-2.0, 0.0]),
                                  0.25, 4.0, 1.0)
    assert sigma == pytest.approx(-2.0 + 4.0 * (0.25 - 1.0))
    assert t_c == pytest.approx(sigma + 0.25)


def test_adjust_penalty_raises_c_until_acceptable():
    M = 1.0
    grad0 = np.array([1.0])

    def solve(c):
        # crafted so t_c flips sign between c = 1 and c = 2
        beta = 0.9 if c < 2 else 0.2
        return np.array([-0.5]), beta, None

    c, d, beta, sigma, t_c, info, raises = adjust_penalty(solve, 1.0, 2.0,
                                                          grad0, M)
    assert c == 2.0
    assert raises == 1
    assert t_c <= 1e-12
    assert sigma == pytest.approx(-0.5 + 2.0 * (0.2 - 1.0))


def test_adjust_penalty_gives_up_at_the_cap(monkeypatch):
    weights = []

    def solve(c):
        weights.append(c)
        return np.zeros(1), 1.0, None   # beta == M: no progress, ever

    monkeypatch.setattr(optimizer_mod, "MAX_PENALTY_RAISES", 5)
    with pytest.raises(CFailure, match="within 5 raises"):
        adjust_penalty(solve, 1.0, 2.0, np.zeros(1), 1.0)
    assert weights == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def test_line_search_full_step_on_a_well_scaled_quadratic():
    merit = lambda u: float(u[0] ** 2)
    a, u_new, F_new, trials = line_search(merit, 1.0, np.array([1.0]),
                                          np.array([-1.0]), -2.0, 0.1, 0.5)
    assert a == 1.0 and trials == 1
    assert F_new == 0.0


def test_line_search_backtracks_once_on_overshoot():
    merit = lambda u: float(u[0] ** 2)
    a, u_new, F_new, trials = line_search(merit, 1.0, np.array([1.0]),
                                          np.array([-2.0]), -4.0, 0.1, 0.5)
    assert a == 0.5 and trials == 2
    assert u_new == pytest.approx([0.0])


def test_line_search_failure_on_ascent(monkeypatch):
    trials = []

    def merit(u):
        trials.append(float(u[0]))
        return float(u[0])
    monkeypatch.setattr(optimizer_mod, "MAX_BACKTRACKS", 10)
    with pytest.raises(LineSearchFailure, match="within 10 backtracks"):
        line_search(merit, 0.0, np.array([0.0]), np.array([1.0]), -1.0, 0.1, 0.5)
    assert trials == [0.5 ** k for k in range(11)]


def test_optimize_constrained_toy_contract():
    """Every iterate must certify descent (sigma <= 0, t_c <= 0), the
    penalty weight may only grow, and each accepted step satisfies the
    Armijo inequality at its own weight.  The merit before each step is
    the exact penalty F0 + c M at the iterate's weight."""
    ocp, grid = get_problem("constrained-toy")
    cfg = OptimizerConfig()
    res = optimize(ocp, grid, 8, cfg=cfg)
    assert res.status == "stationary"
    assert res.converged
    h = res.history
    assert len(h) <= 60
    assert all(r.penalty_before == r.F0 + r.c * r.M for r in h)
    assert max(r.sigma for r in h) <= 1e-10
    assert max(r.t_c for r in h) <= 1e-10
    cs = [r.c for r in h]
    assert all(a <= b for a, b in zip(cs, cs[1:]))
    for r in h:
        if r.alpha is not None:
            assert (r.penalty_after - r.penalty_before
                    <= cfg.gamma * r.alpha * r.sigma + 1e-15)
    assert h[-1].M <= 1e-6
    assert abs(h[-1].sigma) <= cfg.epsilon
    # the endpoint actually lands on the constraint set
    assert h[-1].F0 == pytest.approx(0.36, abs=1e-4)


def test_optimize_integrates_each_iterate_once(monkeypatch):
    """The line search integrates the accepted trial; the next iteration
    reuses it, so integrate runs once per line-search trial plus once
    for the starting point."""
    calls = {"integrate": 0, "trials": 0}
    integrate, search = optimizer_mod.integrate, optimizer_mod.line_search

    def counted_integrate(*args, **kwargs):
        calls["integrate"] += 1
        return integrate(*args, **kwargs)

    def counted_search(*args, **kwargs):
        result = search(*args, **kwargs)
        calls["trials"] += result[3]
        return result

    monkeypatch.setattr(optimizer_mod, "integrate", counted_integrate)
    monkeypatch.setattr(optimizer_mod, "line_search", counted_search)
    ocp, grid = get_problem("constrained-toy", {"N": 4})
    res = optimize(ocp, grid, 4)
    assert res.status == "stationary"
    assert calls["integrate"] == 1 + calls["trials"]
    assert calls["integrate"] == len(res.history)


def test_optimize_unconstrained_linear_pins_the_box():
    """phi linear in the control: the minimizer sits on the box, and the
    method stops there with a zero certificate."""
    ocp, grid = get_problem("smooth-linear")
    res = optimize(ocp, grid, 4)
    assert res.status == "stationary"
    u = res.grid.values
    assert np.all((np.abs(u - ocp.u_lo) < 1e-9) | (np.abs(u - ocp.u_hi) < 1e-9))


def test_iterate_record_serializes():
    ocp, grid = get_problem("constrained-toy")
    res = optimize(ocp, grid, 8)
    d = res.history[0].to_dict()
    for key in ("k", "F0", "M", "c", "sigma", "t_c", "beta", "alpha",
                "penalty_before", "penalty_after", "kkt_residual", "u", "d"):
        assert key in d
    assert isinstance(d["u"], list) and isinstance(d["u"][0], list)


# iterations (history records, the last one stationary) each built-in
# needs at N = 10, spi 8; the damped-BFGS metric measured 6, 11, 27, 3
# and 1 (H = h_scale I took 22, 32, > 200, 5 and 1)
BUDGETS = {"constrained-toy": 8, "smooth-linear": 14, "p2-steered": 35,
           "slide-exit": 5, "p2-sliding": 1}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_every_builtin_is_stationary_within_its_budget(monkeypatch, name):
    """Every built-in stops 'stationary' within its budget, and every
    metric the direction QP receives lies in [nu1, nu2]."""
    _, nu1, nu2 = make_hessian(1, OptimizerConfig().h_scale)
    spectra = []
    solve = optimizer_mod.solve_direction

    def spy(grad0, c, H, *args):
        spectra.append(np.linalg.eigvalsh(H))
        return solve(grad0, c, H, *args)

    monkeypatch.setattr(optimizer_mod, "solve_direction", spy)
    ocp, grid = get_problem(name)
    res = optimize(ocp, grid, 8)
    assert res.status == "stationary"
    assert len(res.history) <= BUDGETS[name]
    assert spectra
    assert min(w.min() for w in spectra) >= nu1 * (1 - 1e-12)
    assert max(w.max() for w in spectra) <= nu2 * (1 + 1e-12)


def _circle_toy():
    """constrained-toy with min x1 - 2 x2 over endpoints on the unit
    circle: the endpoint is linear in u, so F0 is linear and all the
    curvature is the constraint's.  The optimum is -sqrt(5)."""
    ocp, grid = get_problem("constrained-toy")
    phi = EndpointFunctional(value=lambda x: float(x[0] - 2.0 * x[1]),
                             grad=lambda x: np.array([1.0, -2.0]), name="phi")
    circle = EndpointFunctional(value=lambda x: float(x[0] ** 2 + x[1] ** 2 - 1.0),
                                grad=lambda x: 2.0 * np.asarray(x, dtype=float),
                                name="g1:0")
    return replace(ocp, phi=phi, g1=(circle,), g2=()), grid


def test_lagrangian_metric_carries_the_constraint_curvature(monkeypatch):
    """With F0 linear, grad F0 changes by nothing along a step, so a
    metric updated from grad F0 alone sees no curvature and the descent
    crawls along the circle (113 iterations).  grad L adds the
    constraint's curvature through its multiplier: 12 iterations."""
    ocp, grid = _circle_toy()
    res = optimize(ocp, grid, 8)
    assert res.status == "stationary"
    assert len(res.history) <= 15
    assert res.history[-1].F0 == pytest.approx(-np.sqrt(5.0), abs=1e-6)

    monkeypatch.setattr(optimizer_mod, "lagrangian_weights",
                        lambda mu, n_eq, n_ineq: np.eye(1 + n_eq + n_ineq)[0])
    assert len(optimize(ocp, grid, 8).history) > 50
