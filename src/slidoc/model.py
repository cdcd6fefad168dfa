"""Problem container and Filippov surface algebra.

A HybridOCP bundles two smooth vector fields f1, f2 separated by a scalar
switching surface g(x) = 0, an endpoint cost, optional endpoint
constraints, and the control box.  This module also owns the pointwise
algebra on the surface: the convex combination weight alpha, the sliding
field, its Jacobians, and the sign tests that classify what happens when
a trajectory meets the surface.

The Filippov calculus comes in three pieces, each computed once per
point and only by a caller that reads it: the values (filippov_values:
g_x, f1, f2, w1, w2, alpha, f_F), the state part (fF_x and a_x, with the
g_xx terms) and the control part (fF_u and a_u), both built from the
values by one derivative of the quotient (_blend_derivative).
filippov_field and filippov_jacobians compose them.  The sliding Newton
iteration evaluates the state part only before it solves; the sweep's
step Jacobians take all three at each stage, and its event rule a_x
and a_u at an exit it located.

Conventions: region "below" is g < 0 and flows with f1, region "above"
is g > 0 and flows with f2.  g_x is stored as a 1-D array of length n.
eps_tan and eps_den have no defaults: callers pass their run's options.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DegenerateDenominator, DimensionMismatch, TangentialAmbiguity,
                     ValidationError, is_number)

class Mode(enum.Enum):
    BELOW = "below"
    ABOVE = "above"
    SLIDING = "sliding"


class TransitionKind(enum.Enum):
    """What happened at a surface event.  Values are the wire names used
    in CSV/JSON output."""

    CROSS_12 = "Cross12"
    CROSS_21 = "Cross21"
    ENTER_SLIDING = "EnterSliding"
    EXIT_TO_F1 = "ExitToF1"
    EXIT_TO_F2 = "ExitToF2"


@dataclass(frozen=True)
class EndpointFunctional:
    """Scalar function of the final state with its gradient."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = "w"


@dataclass(frozen=True)
class HybridOCP:
    """Two-field hybrid optimal control problem with one switching surface.

    Field callables take (x, u) and return arrays: f(x,u) -> (n,),
    f_x(x,u) -> (n,n), f_u(x,u) -> (n,m).  Surface callables take x alone:
    g -> float, g_x -> (n,), g_xx -> (n,n).  phi is the endpoint cost;
    g1/g2 are endpoint equality/inequality constraint functionals.
    """

    name: str
    n: int
    m: int
    f1: Callable
    f1_x: Callable
    f1_u: Callable
    f2: Callable
    f2_x: Callable
    f2_u: Callable
    g: Callable
    g_x: Callable
    g_xx: Callable
    phi: EndpointFunctional
    x0: np.ndarray
    t0: float
    tf: float
    u_lo: np.ndarray
    u_hi: np.ndarray
    g1: tuple = ()
    g2: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "u_lo", np.asarray(self.u_lo, dtype=float))
        object.__setattr__(self, "u_hi", np.asarray(self.u_hi, dtype=float))
        if self.x0.shape != (self.n,):
            raise DimensionMismatch(f"x0 has shape {self.x0.shape}, expected ({self.n},)")
        if self.u_lo.shape != (self.m,) or self.u_hi.shape != (self.m,):
            raise DimensionMismatch("control box shape does not match m")

    def field(self, mode: Mode):
        """Return (f, f_x, f_u) of the field that flows in an off-surface
        mode: f1 in Mode.BELOW, f2 in Mode.ABOVE."""
        if mode is Mode.BELOW:
            return self.f1, self.f1_x, self.f1_u
        if mode is Mode.ABOVE:
            return self.f2, self.f2_x, self.f2_u
        raise ValueError(f"no single field flows in mode {mode!r}")


@dataclass(frozen=True)
class ControlGrid:
    """Piecewise-constant control on N uniform intervals of [t0, tf].
    t0 and tf must be finite real numbers (a bool is none) with tf > t0,
    or ValidationError names the field."""

    t0: float
    tf: float
    values: np.ndarray  # (N, m)

    def __post_init__(self):
        for key in ("t0", "tf"):
            if not is_number(getattr(self, key)):
                raise ValidationError(f"{key}: must be a finite number, got {getattr(self, key)!r}",
                                      field=key)
        if not self.tf > self.t0:
            raise ValidationError(f"tf: must be > t0 = {self.t0!r}, got {self.tf!r}", field="tf")
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatch(f"control values must be (N, m), got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def breakpoints(self) -> np.ndarray:
        """Interval endpoints t_0 < t_1 < ... < t_N, computed once so that
        every consumer sees bit-identical node values."""
        N = self.N
        return self.t0 + (self.tf - self.t0) * np.arange(N + 1) / N

    def with_values(self, values: np.ndarray) -> "ControlGrid":
        return ControlGrid(self.t0, self.tf, np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# surface algebra


def normal_speeds(ocp: HybridOCP, x: np.ndarray, u: np.ndarray):
    """Normal speeds w1 = g_x f1 and w2 = g_x f2 at (x, u)."""
    gx = ocp.g_x(x)
    return float(gx @ ocp.f1(x, u)), float(gx @ ocp.f2(x, u))


def _blend_weight(w1: float, w2: float, eps_den: float) -> float:
    """The quotient alpha = w1 / (w1 - w2), guarded: DegenerateDenominator
    when the two normal speeds are too close for it to be meaningful; the
    threshold scales with the size of the speeds themselves."""
    den = w1 - w2
    if abs(den) <= eps_den * max(1.0, abs(w1) + abs(w2)):
        raise DegenerateDenominator(
            f"g_x(f1 - f2) = {den:.3e} with speeds w1 = {w1:.3e}, w2 = {w2:.3e}",
            w1=w1, w2=w2)
    return w1 / den


def alpha(ocp: HybridOCP, x: np.ndarray, u: np.ndarray,
          eps_den: float) -> float:
    """Convex weight alpha = g_x f1 / (g_x (f1 - f2)) of the sliding field.

    Raises DegenerateDenominator when the two normal speeds are too close
    for the quotient to be meaningful (see _blend_weight).
    """
    return _blend_weight(*normal_speeds(ocp, x, u), eps_den)


class FilippovValues(NamedTuple):
    """The blend at one point (x, u): g_x(x), f1, f2, the normal speeds
    w1 = g_x f1 and w2 = g_x f2, the weight alpha and the sliding field
    f_F.  Both Jacobian parts are built from these values."""

    gx: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    w1: float
    w2: float
    a: float
    fF: np.ndarray


def filippov_values(ocp: HybridOCP, x: np.ndarray, u: np.ndarray,
                    eps_den: float) -> FilippovValues:
    """Values of the sliding field f_F = (1 - alpha) f1 + alpha f2 at
    (x, u), with what its Jacobians need.  Raises DegenerateDenominator
    as alpha does."""
    gx = ocp.g_x(x)
    f1v, f2v = ocp.f1(x, u), ocp.f2(x, u)
    w1 = float(gx @ f1v)
    w2 = float(gx @ f2v)
    a = _blend_weight(w1, w2, eps_den)
    return FilippovValues(gx, f1v, f2v, w1, w2, a, (1.0 - a) * f1v + a * f2v)


def _blend_derivative(v: FilippovValues, d1: np.ndarray, d2: np.ndarray,
                      dw1: np.ndarray, dw2: np.ndarray):
    """Derivative of f_F and alpha in x or u from the derivatives d1, d2
    of f1, f2 and the rows dw1, dw2 of w1, w2:

        a' = (dw1 - a (dw1 - dw2)) / (w1 - w2)
        f_F' = (1 - a) d1 + a d2 + (f2 - f1) a'

    Returns (f_F', a')."""
    a = v.a
    a_d = (dw1 - a * (dw1 - dw2)) / (v.w1 - v.w2)
    return (1.0 - a) * d1 + a * d2 + (v.f2 - v.f1)[:, None] * a_d, a_d


def filippov_state_jacobian(ocp: HybridOCP, v: FilippovValues, x: np.ndarray,
                            u: np.ndarray, gxx: np.ndarray):
    """(fF_x, a_x) at (x, u) from its values v and gxx = g_xx(x), which
    the callers need for their own z g_xx terms:

        dw_i/dx = f_i^T g_xx + g_x f_i,x      (row)
    """
    f1x, f2x = ocp.f1_x(x, u), ocp.f2_x(x, u)
    return _blend_derivative(v, f1x, f2x, v.f1 @ gxx + v.gx @ f1x, v.f2 @ gxx + v.gx @ f2x)


def filippov_control_jacobian(ocp: HybridOCP, v: FilippovValues, x: np.ndarray,
                              u: np.ndarray):
    """(fF_u, a_u) at (x, u) from its values v; dw_i/du = g_x f_i,u (g_xx
    does not enter)."""
    f1u, f2u = ocp.f1_u(x, u), ocp.f2_u(x, u)
    return _blend_derivative(v, f1u, f2u, v.gx @ f1u, v.gx @ f2u)


def filippov_field(ocp: HybridOCP, x: np.ndarray, u: np.ndarray,
                   eps_den: float):
    """Sliding vector field f_F = (1 - alpha) f1 + alpha f2 and alpha.

    By construction g_x f_F = 0: the field is tangent to the surface.
    """
    v = filippov_values(ocp, x, u, eps_den=eps_den)
    return v.fF, v.a


def filippov_jacobians(ocp: HybridOCP, x: np.ndarray, u: np.ndarray,
                       eps_den: float):
    """Sliding field with its state and control Jacobians: the values,
    the state part and the control part at one point.

    Returns (fF, fF_x, fF_u, a, a_x, a_u).
    """
    v = filippov_values(ocp, x, u, eps_den=eps_den)
    fF_x, a_x = filippov_state_jacobian(ocp, v, x, u, ocp.g_xx(x))
    fF_u, a_u = filippov_control_jacobian(ocp, v, x, u)
    return v.fF, fF_x, fF_u, v.a, a_x, a_u


def entry_test(ocp: HybridOCP, x: np.ndarray, u: np.ndarray,
               eps_tan: float) -> Mode:
    """Classify arrival at the surface from the normal speeds w1, w2:
    the mode the arrival leads to.

    Both speeds up: the trajectory crosses into Mode.ABOVE; both down:
    into Mode.BELOW.  w1 pushing up and w2 pushing down: both fields
    point at the surface and sliding starts (Mode.SLIDING).  Speeds
    within eps_tan of zero cannot be classified and raise
    TangentialAmbiguity.
    """
    w1, w2 = normal_speeds(ocp, x, u)
    if abs(w1) <= eps_tan or abs(w2) <= eps_tan:
        raise TangentialAmbiguity(
            f"normal speeds w1 = {w1:.3e}, w2 = {w2:.3e} within eps_tan = {eps_tan:.1e}",
            w1=w1, w2=w2)
    if w1 > 0.0 and w2 > 0.0:
        return Mode.ABOVE
    if w1 < 0.0 and w2 < 0.0:
        return Mode.BELOW
    if w1 > 0.0 and w2 < 0.0:
        return Mode.SLIDING
    raise _repulsive(w1, w2)


def _repulsive(w1: float, w2: float) -> TangentialAmbiguity:
    """The error for w1 < 0 < w2: both fields leave the surface, and the
    solution is not unique."""
    return TangentialAmbiguity(
        f"repulsive surface: w1 = {w1:.3e} < 0 < w2 = {w2:.3e}", w1=w1, w2=w2)


def exit_test(ocp: HybridOCP, x: np.ndarray, u: np.ndarray,
              eps_den: float, eps_tan: float) -> Mode:
    """Decide whether sliding has ended at (x, u): the mode the
    trajectory goes to.

    Returns Mode.SLIDING while alpha stays inside (0, 1) with w1 > 0 > w2;
    otherwise the verdict of exit_mode at the boundary alpha has reached.
    alpha lies in (0, 1) also when w1 < 0 < w2: a control jump has made
    the surface repulsive, both fields leave it and the solution is not
    unique, which raises TangentialAmbiguity as entry_test does.
    """
    w1, w2 = normal_speeds(ocp, x, u)
    a = _blend_weight(w1, w2, eps_den)
    if 0.0 < a < 1.0:
        if w1 < 0.0:
            raise _repulsive(w1, w2)
        return Mode.SLIDING
    return exit_mode(w1, w2, 0 if a <= 0.0 else 1, eps_tan)


def exit_mode(w1: float, w2: float, boundary: int, eps_tan: float) -> Mode:
    """Where sliding goes once the blend weight has reached boundary 0 or 1.

    At alpha <= 0 the blend has degenerated to f1; sliding ends towards
    g < 0 (Mode.BELOW) provided f2 still points down decisively (w2 <
    -eps_tan).  Symmetrically at alpha >= 1 (Mode.ABOVE).  A control jump
    at a breakpoint can also turn both fields to one side, and the
    trajectory leaves for that side: alpha = w1 / (w1 - w2) <= 0 when
    both point up with w2 > w1 (Mode.ABOVE), and >= 1 when both point
    down with |w1| > |w2| (Mode.BELOW); both speeds must be decisive
    (beyond eps_tan).  Sign patterns that fit none of these raise
    TangentialAmbiguity.
    """
    if boundary == 0:
        if w2 < -eps_tan:
            return Mode.BELOW
        if w1 > eps_tan and w2 > eps_tan:
            return Mode.ABOVE
        raise TangentialAmbiguity(
            f"blend weight reached 0 but w2 = {w2:.3e} is not decisively negative",
            w1=w1, w2=w2)
    if w1 > eps_tan:
        return Mode.ABOVE
    if w1 < -eps_tan and w2 < -eps_tan:
        return Mode.BELOW
    raise TangentialAmbiguity(
        f"blend weight reached 1 but w1 = {w1:.3e} is not decisively positive",
        w1=w1, w2=w2)
