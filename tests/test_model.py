"""Surface algebra: blend weight, sliding field, entry/exit verdicts."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slidoc.adjoint
import slidoc.integrator
import slidoc.model
from slidoc.errors import (DegenerateDenominator, DimensionMismatch, TangentialAmbiguity,
                           ValidationError)
from slidoc.integrator import IntegratorOptions
from slidoc.model import (ControlGrid, EndpointFunctional, HybridOCP, Mode,
                          alpha, entry_test, exit_test,
                          filippov_field, filippov_jacobians)
from slidoc.problems import get_problem

# the surface tests take their tolerances from the run's options
TOL = IntegratorOptions()


def const_fields_ocp(v1, v2):
    """Two constant fields on n = 2 with the surface g(x) = x1; the
    normal velocities are then just the second components of v1, v2."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    zeros = lambda x, u: np.zeros((2, 2))
    bu = lambda x, u: np.zeros((2, 1))
    w = EndpointFunctional(value=lambda x: float(x[0]),
                           grad=lambda x: np.array([1.0, 0.0]))
    return HybridOCP(
        name="const", n=2, m=1,
        f1=lambda x, u: v1, f1_x=zeros, f1_u=bu,
        f2=lambda x, u: v2, f2_x=zeros, f2_u=bu,
        g=lambda x: float(x[1]),
        g_x=lambda x: np.array([0.0, 1.0]),
        g_xx=lambda x: np.zeros((2, 2)),
        phi=w,
        x0=np.zeros(2), t0=0.0, tf=1.0,
        u_lo=np.array([-1.0]), u_hi=np.array([1.0]))


X = np.array([0.3, 0.0])
U = np.array([0.0])


def test_alpha_on_the_relay_problem():
    ocp, _ = get_problem("p2-sliding")
    a = alpha(ocp, X, np.array([0.2]), TOL.eps_den)
    assert a == pytest.approx(0.6, abs=1e-15)
    ff = filippov_field(ocp, X, np.array([0.2]), TOL.eps_den)[0]
    assert ff == pytest.approx([1.0, 0.0], abs=1e-15)


def test_sliding_field_is_tangent():
    ocp = const_fields_ocp([1.0, 2.0], [0.5, -1.0])
    ff, _ = filippov_field(ocp, X, U, TOL.eps_den)
    assert float(ocp.g_x(X) @ ff) == pytest.approx(0.0, abs=1e-15)


def test_alpha_degenerate_denominator():
    ocp = const_fields_ocp([1.0, 1.0], [2.0, 1.0])   # equal normal speeds
    with pytest.raises(DegenerateDenominator):
        alpha(ocp, X, U, TOL.eps_den)


def test_jacobian_consistency_fd():
    """filippov_jacobians against finite differences of filippov_field
    on a problem with real state dependence."""
    ocp, _ = get_problem("slide-exit")
    x = np.array([0.4, 0.0])
    u = np.array([0.1])
    _, ffx, _, _, _, _ = filippov_jacobians(ocp, x, u, TOL.eps_den)
    eps = 1e-7
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = eps
        fp = filippov_field(ocp, x + dx, u, TOL.eps_den)[0]
        fm = filippov_field(ocp, x - dx, u, TOL.eps_den)[0]
        assert ffx[:, j] == pytest.approx((fp - fm) / (2 * eps), abs=1e-6)


def test_entry_attractive_is_captured():
    ocp = const_fields_ocp([1.0, 1.0], [1.0, -0.5])  # pushes in from both sides
    assert entry_test(ocp, X, U, TOL.eps_tan) is Mode.SLIDING


def test_entry_transversal_crossings():
    up = const_fields_ocp([1.0, 1.0], [1.0, 0.5])    # both upward: pass through
    assert entry_test(up, X, U, TOL.eps_tan) is Mode.ABOVE
    down = const_fields_ocp([1.0, -1.0], [1.0, -0.5])
    assert entry_test(down, X, U, TOL.eps_tan) is Mode.BELOW


def test_entry_repulsive_is_ambiguous():
    ocp = const_fields_ocp([1.0, -1.0], [1.0, 0.5])  # both point away
    with pytest.raises(TangentialAmbiguity):
        entry_test(ocp, X, U, TOL.eps_tan)


def test_entry_tangential_is_ambiguous():
    ocp = const_fields_ocp([1.0, 0.0], [1.0, -0.5])  # w1 on the tolerance
    with pytest.raises(TangentialAmbiguity):
        entry_test(ocp, X, U, TOL.eps_tan)


def test_exit_interior_keeps_sliding():
    ocp = const_fields_ocp([1.0, 1.0], [1.0, -1.0])  # alpha = 1/2
    assert exit_test(ocp, X, U, TOL.eps_den, TOL.eps_tan) is Mode.SLIDING


def test_exit_at_alpha_zero_returns_to_f1():
    # w1 barely negative, w2 strongly negative: alpha < 0, f1 takes over
    ocp = const_fields_ocp([1.0, -0.1], [1.0, -2.0])
    assert exit_test(ocp, X, U, TOL.eps_den, TOL.eps_tan) is Mode.BELOW


def test_exit_at_alpha_one_returns_to_f2():
    ocp = const_fields_ocp([1.0, 2.0], [1.0, 0.1])
    assert exit_test(ocp, X, U, TOL.eps_den, TOL.eps_tan) is Mode.ABOVE


@pytest.mark.parametrize("w1, w2, boundary", [(0.0, 1.0, 0), (-1.0, 0.0, 1)])
def test_exit_without_a_decisive_field_is_ambiguous(w1, w2, boundary):
    """w = (0, 1) puts alpha at 0 with f1 tangent and f2 pointing away;
    w = (-1, 0) puts it at 1 with f2 tangent: no side to leave for."""
    ocp = const_fields_ocp([1.0, w1], [1.0, w2])
    with pytest.raises(TangentialAmbiguity, match=f"blend weight reached {boundary}") as exc:
        exit_test(ocp, X, U, TOL.eps_den, TOL.eps_tan)
    assert exc.value.payload == {"w1": w1, "w2": w2}


normal_speeds = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


@given(w1=normal_speeds, w2=normal_speeds,
       scale=st.floats(min_value=0.01, max_value=100.0),
       tangential=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=80, deadline=None)
def test_alpha_scale_invariance_and_tangency(w1, w2, scale, tangential):
    """alpha depends only on the direction field, not its magnitude, and
    the blended field always lies in the surface."""
    ocp = const_fields_ocp([tangential, w1], [1.0, -w2])
    scaled = const_fields_ocp([tangential * scale, w1 * scale],
                              [scale, -w2 * scale])
    a = alpha(ocp, X, U, TOL.eps_den)
    assert alpha(scaled, X, U, TOL.eps_den) == pytest.approx(a, rel=1e-12)
    assert 0.0 < a < 1.0
    ff, _ = filippov_field(ocp, X, U, TOL.eps_den)
    assert abs(float(ocp.g_x(X) @ ff)) <= 1e-12 * (abs(w1) + abs(w2))


def test_dimension_checks_reject_bad_x0():
    ocp, _ = get_problem("p2-sliding")
    with pytest.raises(DimensionMismatch):
        HybridOCP(name="bad", n=2, m=1,
                  f1=ocp.f1, f1_x=ocp.f1_x, f1_u=ocp.f1_u,
                  f2=ocp.f2, f2_x=ocp.f2_x, f2_u=ocp.f2_u,
                  g=ocp.g, g_x=ocp.g_x, g_xx=ocp.g_xx,
                  phi=ocp.phi,
                  x0=np.zeros(3), t0=0.0, tf=1.0,
                  u_lo=ocp.u_lo, u_hi=ocp.u_hi)


def test_dimension_checks_reject_a_control_box_of_the_wrong_shape():
    ocp, _ = get_problem("p2-sliding")
    for bounds in ({"u_lo": np.zeros(2)}, {"u_hi": np.zeros((1, 1))}):
        with pytest.raises(DimensionMismatch, match="control box"):
            dataclasses.replace(ocp, **bounds)


def test_no_single_field_flows_on_the_surface():
    """ocp.field names f1 below and f2 above; on the surface the field
    is the Filippov blend, so asking for one field there is refused, and
    so is an off-surface step there."""
    ocp, _ = get_problem("p2-sliding")
    assert ocp.field(Mode.BELOW) == (ocp.f1, ocp.f1_x, ocp.f1_u)
    assert ocp.field(Mode.ABOVE) == (ocp.f2, ocp.f2_x, ocp.f2_u)
    with pytest.raises(ValueError, match="no single field flows"):
        ocp.field(Mode.SLIDING)
    with pytest.raises(ValueError, match="no single field flows"):
        slidoc.integrator.step_ode(ocp, Mode.SLIDING, ocp.x0, np.zeros(1), 0.1, TOL)


def test_control_grid_refuses_values_that_are_not_a_matrix():
    with pytest.raises(DimensionMismatch, match=r"must be \(N, m\), got shape \(4,\)"):
        ControlGrid(0.0, 1.0, np.zeros(4))


@pytest.mark.parametrize("N", [2.5, 2.0, True, "3", 0])
def test_problem_override_N_must_be_an_integer(N):
    """N = 2.5 once built N = 2, True N = 1 and "3" N = 3 without a word."""
    with pytest.raises(ValidationError) as exc:
        get_problem("p2-sliding", {"N": N})
    assert exc.value.payload["field"] == "overrides.N"
    assert str(exc.value).startswith("overrides.N: must be an integer >= 1, got ")


def test_problem_override_N_takes_numpy_integers():
    _, grid = get_problem("p2-sliding", {"N": np.int64(3)})
    assert grid.N == 3 and grid.values.shape == (3, 1)


def test_problem_overrides_reach_the_problem_and_the_grid():
    """Scalar bounds apply to every control; u may be a scalar, an (N,)
    vector when m = 1, or an (N, m) array."""
    ocp, grid = get_problem("p2-sliding", {"N": 3, "x0": [0.1, -0.2], "t0": 1.0, "tf": 2.0,
                                           "u_lo": -2.0, "u_hi": 3.0, "u": 2.5})
    assert np.array_equal(ocp.x0, [0.1, -0.2]) and (ocp.t0, ocp.tf) == (1.0, 2.0)
    assert np.array_equal(ocp.u_lo, [-2.0]) and np.array_equal(ocp.u_hi, [3.0])
    assert (grid.t0, grid.tf) == (1.0, 2.0) and np.array_equal(grid.values, np.full((3, 1), 2.5))
    for u in ([0.1, 0.2, 0.3], [[0.1], [0.2], [0.3]]):
        _, grid = get_problem("p2-sliding", {"N": 3, "u": u})
        assert np.array_equal(grid.values, [[0.1], [0.2], [0.3]])


@pytest.mark.parametrize("name, overrides, field", [
    ("no-such-problem", {}, "problem"),
    ("p2-sliding", {"bogus": 1}, "overrides.bogus"),
    ("p2-sliding", {"x0": [0.0, 0.0, 0.0]}, "overrides.x0"),
    ("p2-sliding", {"u_lo": 1.0, "u_hi": 1.0}, "overrides.u_hi"),
    ("p2-sliding", {"N": 3, "u": [0.1, 0.2]}, "overrides.u"),
    ("p2-sliding", {"N": 3, "u": np.zeros((3, 2))}, "overrides.u"),
    ("p2-sliding", {"u": 99.0}, "overrides.u"),
    ("p2-sliding", {"tf": math.inf}, "overrides.tf"),
    ("p2-sliding", {"tf": math.nan}, "overrides.tf"),
    ("p2-sliding", {"t0": -math.inf}, "overrides.t0"),
    ("p2-sliding", {"t0": math.nan}, "overrides.t0"),
    ("p2-sliding", {"u": math.nan}, "overrides.u"),
    ("p2-sliding", {"x0": [math.nan, -0.5]}, "overrides.x0"),
    ("p2-sliding", {"x0": [1, None]}, "overrides.x0"),
    ("p2-sliding", {"x0": "abc"}, "overrides.x0"),
    ("p2-sliding", {"tf": "2"}, "overrides.tf"),
    ("p2-sliding", {"t0": True}, "overrides.t0"),
    ("p2-sliding", {"u_lo": [0.0, 1.0]}, "overrides.u_lo"),
    ("p2-sliding", {"x0": [10 ** 400, 0.0]}, "overrides.x0")])
def test_problem_overrides_are_refused_naming_the_key(name, overrides, field):
    """A non-finite t0 or tf is refused as the override it is, not under
    the grid field (tf, t0) it would otherwise reach.  Every override is
    a finite real number (a bool or a str is none) or a nested list of
    them, as RunConfig asks, and a control bound has one entry or m: a
    NaN control or start once ended in NewtonDivergence, and a str or a
    bound of the wrong length in an untyped ValueError, and an int beyond
    a float's range in OverflowError."""
    with pytest.raises(ValidationError, match=f"^{field}: ") as exc:
        get_problem(name, overrides)
    assert exc.value.payload["field"] == field


def test_control_grid_breakpoints_are_reproducible():
    grid = ControlGrid(0.0, 1.0, np.zeros((8, 1)))
    bp = grid.breakpoints()
    assert bp.shape == (9,)
    # bit-exact formula: t0 + span * k / N
    expect = 0.0 + 1.0 * np.arange(9) / 8
    assert np.array_equal(bp, expect)
    assert bp[0] == 0.0 and bp[-1] == 1.0


@pytest.mark.parametrize("t0, tf, field", [(1.0, 0.0, "tf"), (0.0, 0.0, "tf"),
                                           (0.0, math.nan, "tf"), (0.0, math.inf, "tf"),
                                           (math.nan, 1.0, "t0"), (-math.inf, 1.0, "t0"),
                                           ("a", 1.0, "t0"), (0.0, None, "tf"),
                                           (True, 2.0, "t0"),
                                           pytest.param(0, 10 ** 400, "tf", id="0-10**400-tf")])
def test_control_grid_refuses_a_horizon_that_is_not_finite_and_increasing(t0, tf, field):
    """A reversed or empty horizon would integrate no step and overwrite
    node 0's time with tf, and a NaN tf would end in NewtonDivergence:
    the grid refuses them, naming the field, and so it does a str or
    None (once a TypeError), an int a float cannot hold (once an
    OverflowError) and a bool (once read as 1.0).  get_problem
    keeps its own message for an overridden tf."""
    with pytest.raises(ValidationError) as exc:
        ControlGrid(t0, tf, np.zeros((4, 1)))
    assert exc.value.payload["field"] == field
    with pytest.raises(ValidationError, match=r"^overrides.tf: need tf > t0"):
        get_problem("p2-sliding", {"tf": 0.0})


def test_control_grid_with_values_is_fresh():
    grid = ControlGrid(0.0, 1.0, np.zeros((4, 1)))
    other = grid.with_values(np.ones((4, 1)))
    assert other.values[0, 0] == 1.0
    assert grid.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        grid.values[0, 0] = 5.0


TOLERANCES = ("eps_tan", "eps_den", "newton_tol", "event_tol", "surface_tol")


def test_only_the_integrator_options_default_a_tolerance():
    """No function or method of model, adjoint or integrator gives a
    tolerance a default: each takes the run's value, which only
    IntegratorOptions defaults, so the forward pass and the backward
    sweep cannot test with different numbers by omission."""
    defaulted, seen = [], 0
    for module in (slidoc.model, slidoc.adjoint, slidoc.integrator):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ \
                    or obj is slidoc.integrator.IntegratorOptions:
                continue
            funcs = [obj] if inspect.isfunction(obj) else (
                [f for f in vars(obj).values() if inspect.isfunction(f)]
                if inspect.isclass(obj) else [])
            for fn in funcs:
                for param in inspect.signature(fn).parameters.values():
                    if param.name in TOLERANCES:
                        seen += 1
                        if param.default is not inspect.Parameter.empty:
                            defaulted.append(f"{module.__name__}.{fn.__qualname__}({param.name})")
    assert defaulted == []
    assert seen >= 10      # alpha, the Filippov values, the surface tests, the jump, ...
    assert {f.name: f.default for f in dataclasses.fields(IntegratorOptions)} == {
        "newton_tol": 1e-12, "event_tol": 1e-10, "surface_tol": 1e-9,
        "eps_tan": 1e-10, "eps_den": 1e-12}
