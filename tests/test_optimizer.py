"""Exact-penalty machinery: QP hand cases, penalty adjustment, Armijo
search, and the full loop on the constrained toy problem."""

import numpy as np
import pytest

import slidoc.optimizer as optimizer_mod
from slidoc.errors import CFailure, LineSearchFailure, ValidationError
from slidoc.optimizer import (OptimizerConfig, adjust_penalty,
                              constraint_violation, descent_measures,
                              line_search, make_hessian, optimize,
                              penalty_value, solve_direction)
from slidoc.problems import get_problem

WIDE = 10.0 * np.ones(2)


def test_constraint_violation_cases():
    assert constraint_violation([], []) == 0.0
    assert constraint_violation([-0.3], []) == 0.3
    assert constraint_violation([0.1], [-5.0]) == 0.1     # inactive inequality
    assert constraint_violation([0.1], [0.4]) == 0.4
    assert penalty_value(2.0, 10.0, 0.25) == 4.5


def test_hessian_spectral_bounds():
    H, nu1, nu2 = make_hessian(4, 2.5)
    assert nu1 == pytest.approx(2.5)
    assert nu2 == pytest.approx(2.5)
    with pytest.raises(ValidationError):
        make_hessian(3, 0.0)


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(eta=1.5).validate()
    with pytest.raises(ValidationError):
        OptimizerConfig(kappa=1.0).validate()
    OptimizerConfig().validate()


def test_ill_typed_config_is_a_validation_error():
    """A value of the wrong type fails as a ValidationError naming its
    field, in validate and in optimize, not as a bare TypeError."""
    with pytest.raises(ValidationError) as exc:
        OptimizerConfig(gamma="0.5").validate()
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


def test_adjust_penalty_gives_up_at_the_cap():
    def solve(c):
        return np.zeros(1), 1.0, None   # beta == M: no progress, ever

    with pytest.raises(CFailure):
        adjust_penalty(solve, 1.0, 2.0, np.zeros(1), 1.0, cap=5)


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


def test_line_search_failure_on_ascent():
    merit = lambda u: float(u[0])
    with pytest.raises(LineSearchFailure):
        line_search(merit, 0.0, np.array([0.0]), np.array([1.0]), -1.0,
                    0.1, 0.5, cap=10)


def test_optimize_constrained_toy_contract():
    """Every iterate must certify descent (sigma <= 0, t_c <= 0), the
    penalty weight may only grow, and each accepted step satisfies the
    Armijo inequality at its own weight."""
    ocp, grid = get_problem("constrained-toy")
    cfg = OptimizerConfig()
    res = optimize(ocp, grid, 8, cfg=cfg)
    assert res.status == "stationary"
    assert res.converged
    h = res.history
    assert len(h) <= 60
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
