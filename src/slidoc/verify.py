"""Finite-difference gradient oracle and convergence-order studies.

The oracle integrates the hybrid system again for every probe, events
and all, so it is an independent check on the adjoint-based gradient.
Every probe runs with the mesh and options of the unperturbed base run,
and a probe of u_n resumes the base at control interval n (integrate's
base/start): the state at t_n does not depend on u_n, so only intervals
n..N-1 are integrated again, and the result equals a full run bit for
bit.  An entry is flagged NonSmoothAcrossEvent when a probe changes the
transition structure (the sequence of transition kinds, the control
interval any transition falls in, or whether it sits at an event node,
whose time moves with u, or at a node of fixed time, whose time does
not): the functional is not differentiable across such a change, so
those entries are excluded from pass/fail comparisons but still
reported.  A probe that raises a SlidocError
(e.g. it lands on a tangential exit) flags its entry too; the entry is
NaN and FDReport.errors names the error class.

Order studies are self-convergent: the reference is the same integrator
on a mesh 8 times finer than the finest study mesh, refined by doubling
until it agrees with a second reference at twice its resolution.  Stage
quantities are compared against the reference's own collocation
interpolant, the polynomial through the step endpoints and interior
stage values (a cubic for 3-stage Radau IIA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import run_adjoint
from .errors import ReferenceUnconverged, SlidocError, ValidationError
from .gradient import reduced_gradient
from .integrator import IntegratorOptions, Trajectory, check_mesh, check_width, integrate
from .model import ControlGrid, EndpointFunctional, HybridOCP
from .tableau import RADAU_IIA

FLAG_NONSMOOTH = "NonSmoothAcrossEvent"

QUANTITIES = ("state_endpoint", "state_stage", "adjoint_endpoint",
              "adjoint_stage", "gradient")

MAX_REF_FACTOR = 512   # deepest order-study reference / finest resolution


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass(frozen=True)
class FDReport:
    entries: np.ndarray          # (N, m) central differences, NaN where a probe raised
    flags: np.ndarray            # (N, m) bool, True = NonSmoothAcrossEvent or a probe raised
    eps: float
    base_kinds: tuple            # transition kinds of the unperturbed run
    errors: dict                 # (n, j) -> error class of the probe that raised

    @property
    def flagged(self) -> list:
        return [[int(n), int(j)] for n, j in zip(*np.nonzero(self.flags))]

    def to_dict(self) -> dict:
        return {"entries": [[float(v) if np.isfinite(v) else None for v in row]
                            for row in self.entries],
                "flagged": self.flagged,
                "flag": FLAG_NONSMOOTH,
                "probe_errors": [[n, j, name] for (n, j), name in self.errors.items()],
                "eps": self.eps,
                "base_kinds": list(self.base_kinds)}


def _structure(traj: Trajectory) -> tuple:
    """Kind, control interval and whether it sits at an event node, of
    every transition, in order."""
    located = {e.k for e in traj.events}
    return tuple(zip(traj.transition_kinds(), traj.transition_intervals(),
                     [rec.k in located for rec in traj.transitions]))


def fd_gradient(ocp: HybridOCP, grid: ControlGrid, base: Trajectory,
                functional: Optional[EndpointFunctional] = None,
                eps: float = 1e-6) -> FDReport:
    """Central differences of w(x(tf)) in every control entry.

    The probe size is eps scaled by max(1, |u_nj|).  base is the
    unperturbed run; every probe runs with its steps per interval and
    options, and a probe of u_n resumes it at interval n, event location
    included.  A grid whose width is not ocp.m raises DimensionMismatch
    and a base from another mesh (N or any breakpoint) MeshMismatch, both
    before any probe runs; a failing probe flags its entry.
    """
    if not eps > 0:
        raise ValidationError(f"eps: must be > 0, got {eps}", field="eps")
    functional = functional if functional is not None else ocp.phi
    check_width(ocp, grid)
    check_mesh(base, grid)
    base_structure = _structure(base)

    N, m = grid.N, grid.m
    entries = np.zeros((N, m))
    flags = np.zeros((N, m), dtype=bool)
    errors = {}

    def probe(n, values):
        """(w(x(tf)), transition structure, None), or (None, None, the
        class name of the error that stopped the run)."""
        try:
            traj = integrate(ocp, grid.with_values(values), base.spi,
                             opts=base.opts, base=base if n else None, start=n)
        except SlidocError as exc:
            return None, None, type(exc).__name__
        return functional.value(traj.x[-1]), _structure(traj), None

    for n in range(N):
        for j in range(m):
            step = eps * max(1.0, abs(float(grid.values[n, j])))
            up = grid.values.copy()
            up[n, j] += step
            dn = grid.values.copy()
            dn[n, j] -= step
            w_up, structure_up, error_up = probe(n, up)
            w_dn, structure_dn, error_dn = probe(n, dn)
            error = error_up or error_dn
            if error is not None:
                entries[n, j] = np.nan
                flags[n, j] = True
                errors[(n, j)] = error
                continue
            entries[n, j] = (w_up - w_dn) / (2.0 * step)
            if structure_up != base_structure or structure_dn != base_structure:
                flags[n, j] = True

    entries.flags.writeable = False
    flags.flags.writeable = False
    return FDReport(entries=entries, flags=flags, eps=eps,
                    base_kinds=tuple(base.transition_kinds()), errors=errors)


@dataclass(frozen=True)
class GradientCheck:
    grad: np.ndarray             # adjoint-based reduced gradient (N, m)
    fd: FDReport
    rel: Optional[float]         # None when every entry is flagged
    max_abs_diff: Optional[float]

    def to_dict(self) -> dict:
        d = self.fd.to_dict()
        d["grad"] = [[float(v) for v in row] for row in self.grad]
        d["rel"] = self.rel
        d["max_abs_diff"] = self.max_abs_diff
        return d


def gradient_check(ocp: HybridOCP, grid: ControlGrid, steps_per_interval: int = 8,
                   functional: Optional[EndpointFunctional] = None,
                   eps: float = 1e-6,
                   opts: Optional[IntegratorOptions] = None) -> GradientCheck:
    """Reduced gradient vs the FD oracle, both from one integration
    (the oracle's base), whose failure raises.

    rel is the max-norm difference over unflagged entries divided by
    max(‖fd‖_inf over those entries, 1e-3); the floor keeps near-zero
    gradients from inflating the ratio.
    """
    functional = functional if functional is not None else ocp.phi

    traj = integrate(ocp, grid, steps_per_interval, opts=opts)
    adj = run_adjoint(ocp, traj, grid, functional)
    grad = reduced_gradient(ocp, traj, grid, adj)
    fd = fd_gradient(ocp, grid, traj, functional, eps)

    keep = ~fd.flags
    if not np.any(keep):
        return GradientCheck(grad=grad, fd=fd, rel=None, max_abs_diff=None)
    diff = float(np.max(np.abs(grad[keep] - fd.entries[keep])))
    denom = max(float(np.max(np.abs(fd.entries[keep]))), 1e-3)
    return GradientCheck(grad=grad, fd=fd, rel=diff / denom, max_abs_diff=diff)


# ---------------------------------------------------------------------------
# order studies


@dataclass(frozen=True)
class OrderReport:
    quantity: str
    h: list
    errors: list
    pairwise_orders: list        # log(e_i/e_{i+1}) / log(h_i/h_{i+1})
    slope: float                 # least-squares fit of log e vs log h
    reference_gap: float         # ref vs double-resolution ref

    def to_dict(self) -> dict:
        return {"quantity": self.quantity, "h": list(self.h),
                "errors": list(self.errors),
                "pairwise_orders": list(self.pairwise_orders),
                "slope": self.slope, "reference_gap": self.reference_gap}


def _lagrange_eval(nodes, vals, tau):
    """Value at tau of the interpolating polynomial through
    (nodes[i], vals[i]); vals rows are vectors."""
    out = np.zeros_like(vals[0])
    for i in range(len(nodes)):
        w = 1.0
        for l in range(len(nodes)):
            if l != i:
                w *= (tau - nodes[l]) / (nodes[i] - nodes[l])
        out = out + w * vals[i]
    return out


class _RunData:
    """One study run plus whatever the requested quantity needs."""

    def __init__(self, ocp, grid, spi, quantity, functional, opts):
        self.spi = spi
        self.traj = integrate(ocp, grid, spi, opts=opts)
        if self.traj.transitions:
            kinds = ", ".join(self.traj.transition_kinds())
            raise ValidationError(
                f"problem: order study needs a transition-free horizon, got [{kinds}]",
                field="problem")
        self.adj = None
        self.grad = None
        if quantity in ("adjoint_endpoint", "adjoint_stage", "gradient"):
            self.adj = run_adjoint(ocp, self.traj, grid, functional)
        if quantity == "gradient":
            self.grad = reduced_gradient(ocp, self.traj, grid, self.adj)


def _measure(quantity: str, run: _RunData, ref: _RunData) -> float:
    """Max-norm error of the run against the reference.

    Meshes nest, so node comparisons go by index; stage comparisons
    evaluate the reference's collocation polynomial through the step
    start, the interior stages and the step end at the run's stage times
    (interior stages only; the last abscissa is the step endpoint)."""
    # steps per interval differ by an integer ratio; nodes align at
    # index k * ratio
    ratio = ref.spi // run.spi
    K = run.traj.K

    if quantity == "gradient":
        return float(np.max(np.abs(run.grad - ref.grad)))

    if quantity == "state_endpoint":
        idx = np.arange(K + 1) * ratio
        return float(np.max(np.abs(run.traj.x - ref.traj.x[idx])))

    if quantity == "adjoint_endpoint":
        idx = np.arange(K + 1) * ratio
        return float(np.max(np.abs(run.adj.lam - ref.adj.lam[idx])))

    c = RADAU_IIA.c
    nodes = (0.0, *c[:-1], 1.0)
    err = 0.0
    for k in range(K):
        for i in range(len(c) - 1):        # interior stages
            pos = c[i] * ratio
            sub = int(np.floor(pos))
            tau = pos - sub
            j = k * ratio + sub
            if quantity == "state_stage":
                vals = (ref.traj.x[j], *ref.traj.stages_x[j][:-1], ref.traj.x[j + 1])
                approx = run.traj.stages_x[k][i]
            else:                          # adjoint_stage
                vals = (ref.adj.lam[j], *ref.adj.stage_lams[j][:-1], ref.adj.lam[j + 1])
                approx = run.adj.stage_lams[k][i]
            exact = _lagrange_eval(nodes, vals, tau)
            err = max(err, float(np.max(np.abs(approx - exact))))
    return err


def order_study(ocp: HybridOCP, grid: ControlGrid, quantity: str, hs,
                functional: Optional[EndpointFunctional] = None,
                opts: Optional[IntegratorOptions] = None) -> OrderReport:
    """Self-convergence study of one quantity over a ladder of step sizes.

    Every h must put an integer number of steps in each control interval
    and nest into the reference mesh at 8 times the finest resolution.
    The reference is the shallowest of 8, 16, ..., MAX_REF_FACTOR times
    the finest resolution that agrees to 1e-12 at the comparison points
    with a reference twice as fine (the third-order stage multipliers
    need a deeper one); each doubling reuses that finer run as the next
    reference.  When none agrees the study is not trustworthy and
    ReferenceUnconverged is raised.
    """
    if quantity not in QUANTITIES:
        raise ValidationError(
            f"quantity: unknown {quantity!r}; one of {', '.join(QUANTITIES)}",
            field="quantity")
    hs = [float(h) for h in hs]
    if len(hs) < 2:
        raise ValidationError("h: need at least two step sizes", field="h")
    for a, b in zip(hs, hs[1:]):
        if not b < a:
            raise ValidationError(f"h: must be strictly decreasing, got {a} before {b}",
                                  field="h")
    functional = functional if functional is not None else ocp.phi

    span = (grid.tf - grid.t0) / grid.N
    spis = []
    for h in hs:
        if not 0 < h < np.inf:
            raise ValidationError(f"h: must be a finite number > 0, got {h}", field="h")
        spi = span / h
        if abs(spi - round(spi)) > 1e-9 * max(1.0, abs(spi)):
            raise ValidationError(
                f"h: {h} does not give a whole number of steps per control interval "
                f"(interval span {span})", field="h")
        spis.append(int(round(spi)))

    spi_ref = 8 * spis[-1]
    for h, spi in zip(hs, spis):
        if spi_ref % spi:
            raise ValidationError(f"h: {h} does not nest into the reference mesh",
                                  field="h")

    ref = _RunData(ocp, grid, spi_ref, quantity, functional, opts)
    ref2 = _RunData(ocp, grid, 2 * spi_ref, quantity, functional, opts)
    while (gap := _measure(quantity, ref, ref2)) > 1e-12:
        if ref.spi >= MAX_REF_FACTOR * spis[-1]:
            raise ReferenceUnconverged(
                f"references at {ref.spi} and {ref2.spi} steps per interval "
                f"disagree by {gap:.3e}", quantity=quantity, gap=gap)
        ref, ref2 = ref2, _RunData(ocp, grid, 2 * ref2.spi, quantity, functional, opts)

    errors = []
    for spi in spis:
        run = _RunData(ocp, grid, spi, quantity, functional, opts)
        err = _measure(quantity, run, ref)
        if not err > 0.0:
            raise ValidationError(
                f"h: error at h={span/spi} is exactly zero; no resolution dependence "
                f"to fit", field="h")
        errors.append(err)

    pairwise = [float(np.log(errors[i] / errors[i + 1]) / np.log(hs[i] / hs[i + 1]))
                for i in range(len(hs) - 1)]
    lh = np.log(hs)
    le = np.log(errors)
    slope = float(np.polyfit(lh, le, 1)[0])
    return OrderReport(quantity=quantity, h=hs, errors=errors,
                       pairwise_orders=pairwise, slope=slope,
                       reference_gap=gap)
