"""Built-in problem registry.

Each factory returns a fully specified HybridOCP plus its default control
grid.  The registry is keyed by name; get_problem applies user overrides
(initial state, horizon, interval count, control box, initial control)
on top of the factory defaults.

Problems:

  smooth-linear    damped oscillator, surface far away: pure ODE flow.
                   Used for convergence-order studies and FD checks where
                   the exact solution must be smooth.
  p2-sliding       constant fields pushing onto g(x) = x2 = 0 from both
                   sides; slides forever once captured.  Everything about
                   it has closed forms, so it anchors the event and
                   sliding tests.  It is p2-steered with kappa = 0.
  p2-steered       p2 with the control also steering the tangential
                   velocity, so sliding-segment gradients are nonzero.
  slide-exit       the blend weight drifts to 0 along the surface and the
                   trajectory drops back into g < 0 at the breakpoint
                   t = 0.9, a fixed time, where lam does not jump.
  constrained-toy  rotation dynamics with one endpoint equality and one
                   endpoint inequality; the optimizer demo.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ValidationError, is_count, is_number
from .model import ControlGrid, EndpointFunctional, HybridOCP


def _const_jac(mat):
    arr = np.array(mat, dtype=float)
    arr.flags.writeable = False
    return lambda x, u: arr


def _linear_fields(A, B, shift):
    """f(x,u) = A x + B u + shift and its Jacobians."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    shift = np.asarray(shift, dtype=float)

    def f(x, u):
        return A @ x + B @ u + shift

    return f, _const_jac(A), _const_jac(B)


# ---------------------------------------------------------------------------


def _smooth_linear(N: int):
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    B = np.array([[0.0], [1.0]])
    f1, f1_x, f1_u = _linear_fields(A, B, [0.0, 0.0])
    # second field is never reached (surface sits at x1 = 100) but is kept
    # distinct so the blend weight stays well defined everywhere
    f2, f2_x, f2_u = _linear_fields(A, B, [0.5, -0.25])

    phi = EndpointFunctional(
        value=lambda x: float(x[0] + 2.0 * x[1]),
        grad=lambda x: np.array([1.0, 2.0]),
        name="phi")

    ocp = HybridOCP(
        name="smooth-linear", n=2, m=1,
        f1=f1, f1_x=f1_x, f1_u=f1_u,
        f2=f2, f2_x=f2_x, f2_u=f2_u,
        g=lambda x: float(x[0] - 100.0),
        g_x=lambda x: np.array([1.0, 0.0]),
        g_xx=lambda x: np.zeros((2, 2)),
        phi=phi,
        x0=np.array([1.0, 0.3]), t0=0.0, tf=1.0,
        u_lo=np.array([-2.0]), u_hi=np.array([2.0]))
    # deterministic non-constant default control so gradients have no
    # accidental symmetry
    u = (0.5 - np.arange(N) / N).reshape(N, 1)
    return ocp, ControlGrid(0.0, 1.0, u)


def _p2_steered(N: int, kappa: float = 0.5):
    def f1(x, u):
        return np.array([1.0 + kappa * u[0], 1.0 + u[0]])

    def f2(x, u):
        return np.array([1.0 - kappa * u[0], -1.0 + u[0]])

    zeros22 = _const_jac(np.zeros((2, 2)))

    phi = EndpointFunctional(
        value=lambda x: float(x[0]),
        grad=lambda x: np.array([1.0, 0.0]),
        name="phi")

    ocp = HybridOCP(
        name="p2-steered", n=2, m=1,
        f1=f1, f1_x=zeros22, f1_u=_const_jac([[kappa], [1.0]]),
        f2=f2, f2_x=zeros22, f2_u=_const_jac([[-kappa], [1.0]]),
        g=lambda x: float(x[1]),
        g_x=lambda x: np.array([0.0, 1.0]),
        g_xx=lambda x: np.zeros((2, 2)),
        phi=phi,
        x0=np.array([0.0, -0.5]), t0=0.0, tf=1.0,
        u_lo=np.array([-0.8]), u_hi=np.array([0.8]))
    u = np.full((N, 1), 0.2)
    return ocp, ControlGrid(0.0, 1.0, u)


def _p2_sliding(N: int):
    ocp, grid = _p2_steered(N, kappa=0.0)
    return replace(ocp, name="p2-sliding"), grid


def _slide_exit(N: int):
    # With u = 0 the whole trajectory is elementary: x0(t) = t, entry to
    # the surface at t = (1.8 - sqrt(1.24))/2, blend weight hits zero at
    # x0 = 0.9, and the tail falls away parabolically.
    def f1(x, u):
        return np.array([1.0, 0.9 - x[0] + u[0]])

    def f1_x(x, u):
        return np.array([[0.0, 0.0], [-1.0, 0.0]])

    def f2(x, u):
        return np.array([1.0, -1.0 + u[0]])

    bu = _const_jac([[0.0], [1.0]])

    phi = EndpointFunctional(
        value=lambda x: float(x[1]),
        grad=lambda x: np.array([0.0, 1.0]),
        name="phi")

    ocp = HybridOCP(
        name="slide-exit", n=2, m=1,
        f1=f1, f1_x=f1_x, f1_u=bu,
        f2=f2, f2_x=_const_jac(np.zeros((2, 2))), f2_u=bu,
        g=lambda x: float(x[1]),
        g_x=lambda x: np.array([0.0, 1.0]),
        g_xx=lambda x: np.zeros((2, 2)),
        phi=phi,
        x0=np.array([0.0, -0.25]), t0=0.0, tf=1.5,
        u_lo=np.array([-0.5]), u_hi=np.array([0.5]))
    u = np.zeros((N, 1))
    return ocp, ControlGrid(0.0, 1.5, u)


def _constrained_toy(N: int):
    # Rotation dynamics: the endpoint sensitivity of each control interval
    # points in a different direction, so the reduced problem is well
    # conditioned and the penalty method converges in a handful of steps.
    # The surface sits at x1 = 100 and is never reached.
    A = np.array([[0.0, 2.0], [-2.0, 0.0]])
    B = np.array([[0.0], [2.0]])
    f1, f1_x, f1_u = _linear_fields(A, B, [0.0, 0.0])
    f2, f2_x, f2_u = _linear_fields(A, B, [0.5, -0.25])

    phi = EndpointFunctional(
        value=lambda x: float((x[0] - 1.2) ** 2 + x[1] ** 2),
        grad=lambda x: np.array([2.0 * (x[0] - 1.2), 2.0 * x[1]]),
        name="phi")
    eq = EndpointFunctional(
        value=lambda x: float(x[0] - 0.6),
        grad=lambda x: np.array([1.0, 0.0]),
        name="g1:0")
    ineq = EndpointFunctional(
        value=lambda x: float(-x[1] - 0.5),
        grad=lambda x: np.array([0.0, -1.0]),
        name="g2:0")

    ocp = HybridOCP(
        name="constrained-toy", n=2, m=1,
        f1=f1, f1_x=f1_x, f1_u=f1_u,
        f2=f2, f2_x=f2_x, f2_u=f2_u,
        g=lambda x: float(x[0] - 100.0),
        g_x=lambda x: np.array([1.0, 0.0]),
        g_xx=lambda x: np.zeros((2, 2)),
        phi=phi, g1=(eq,), g2=(ineq,),
        x0=np.array([0.5, 0.0]), t0=0.0, tf=1.0,
        u_lo=np.array([-2.0]), u_hi=np.array([2.0]))
    u = np.zeros((N, 1))
    return ocp, ControlGrid(0.0, 1.0, u)


_FACTORIES = {
    "smooth-linear": _smooth_linear,
    "p2-sliding": _p2_sliding,
    "p2-steered": _p2_steered,
    "slide-exit": _slide_exit,
    "constrained-toy": _constrained_toy,
}


def problem_names():
    return sorted(_FACTORIES)


# every override but N, with whether it may be a nested list
OVERRIDES = {"t0": False, "tf": False, "x0": True, "u": True, "u_lo": True, "u_hi": True}


def check_override(key: str, field: str, v) -> None:
    """Raise ValidationError naming field unless the value v of override
    key is a finite real number or, where OVERRIDES allows, a nested list
    of them."""
    if not is_number(v, OVERRIDES[key]):
        rule = "a finite number" + (" or a nested list of them" if OVERRIDES[key] else "")
        raise ValidationError(f"{field}: must be {rule}, got {v!r}", field=field)


def get_problem(name: str, overrides: dict | None = None):
    """Build a registry problem with overrides applied.

    Recognized override keys: x0, t0, tf, N (an integer >= 1), u, u_lo,
    u_hi.  u may be a scalar, an (N,) vector (m = 1), or an (N, m) array.
    Anything else is a ValidationError naming the offending key.
    """
    if name not in _FACTORIES:
        raise ValidationError(f"problem: unknown name {name!r}; known: {', '.join(problem_names())}",
                              field="problem")
    ov = dict(overrides or {})
    for key in ov:
        if key in OVERRIDES:
            check_override(key, f"overrides.{key}", ov[key])
        elif key != "N":
            raise ValidationError(f"overrides.{key}: unknown override", field=f"overrides.{key}")

    N = ov.get("N", 10)
    if not is_count(N):
        raise ValidationError(f"overrides.N: must be an integer >= 1, got {N!r}",
                              field="overrides.N")
    N = int(N)
    ocp, grid = _FACTORIES[name](N)

    t0, tf = float(ov.get("t0", ocp.t0)), float(ov.get("tf", ocp.tf))
    if not tf > t0:
        raise ValidationError(f"overrides.tf: need tf > t0, got [{t0}, {tf}]", field="overrides.tf")

    changed = {"t0": t0, "tf": tf}
    if "x0" in ov:
        x0 = np.asarray(ov["x0"], dtype=float)
        if x0.shape != (ocp.n,):
            raise ValidationError(f"overrides.x0: expected {ocp.n} entries, got shape {x0.shape}",
                                  field="overrides.x0")
        changed["x0"] = x0
    for key in ("u_lo", "u_hi"):
        if key in ov:
            val = np.asarray(ov[key], dtype=float)
            if val.shape not in ((), (ocp.m,)):
                raise ValidationError(f"overrides.{key}: expected a number or {ocp.m} entries, "
                                      f"got shape {val.shape}", field=f"overrides.{key}")
            changed[key] = np.broadcast_to(val, (ocp.m,)).copy()

    ocp = replace(ocp, **changed)
    if np.any(ocp.u_hi <= ocp.u_lo):
        raise ValidationError("overrides.u_hi: control box is empty", field="overrides.u_hi")

    uv = ov.get("u")
    if uv is None:
        values = grid.values
    else:
        arr = np.asarray(uv, dtype=float)
        if arr.ndim == 0:
            values = np.full((N, ocp.m), float(arr))
        elif arr.shape == (N,) and ocp.m == 1:
            values = arr.reshape(N, 1)
        elif arr.shape == (N, ocp.m):
            values = arr
        else:
            raise ValidationError(
                f"overrides.u: expected scalar, ({N},) or ({N}, {ocp.m}), got shape {arr.shape}",
                field="overrides.u")
    lo, hi = ocp.u_lo, ocp.u_hi
    if np.any(values < lo) or np.any(values > hi):
        raise ValidationError("overrides.u: initial control leaves the box", field="overrides.u")
    return ocp, ControlGrid(t0, tf, values)
