"""Survey the drawn two-field problems: outcomes and gradient checks.

drawn_problem(seed) builds one random problem (see its docstring); the
tests draw their property-test problems from it.  The command line runs
a range of seeds:

    python3 tools/drawn_survey.py --seeds 0-1399 --spi 8

integrates every seed's problem at the given steps per interval and
prints

- the outcome counts: the runs that integrate, and the runs that raise,
  by error class;
- over the runs with at least one transition, how many have an FD entry
  flagged, and gradient_check's rel (FD step --eps) in decades, split by
  whether the run exits sliding; a check that raises counts under its
  error class;
- the worst seeds by rel, with their transitions;
- the runs that break an invariant of trajectory_violations, with the
  first broken invariant of each.

trajectory_violations reads a Trajectory and its grid and lists every
place where

- an off-surface step's nodes or stages lie beyond surface_tol on the
  wrong side of the surface for its mode;
- a sliding step's nodes have |g| > surface_tol, or a blend weight alpha
  (with the step's control) outside [-event_tol, 1 + event_tol], or its
  start is not attractive: the normal speeds there (with the step's
  control) break w1 > 0 > w2, so both fields do not point at the surface;
- a transition's kind does not fit the modes before and after its node,
  or entry_test / exit_test at its state (with the control of the
  interval that recorded it) gives another mode, or the mode changes at
  a node that records no transition.

Measured on the 144 trajectories of tools/identity_grid.py (the 145th
raises ChatteringLimit): off-surface nodes and stages reach 1.9e-11 past
the surface, sliding nodes |g| = 1.9e-11, alpha at sliding nodes stays in
[0, 1] exactly, every sliding step starts with w1 and -w2 >= 2.2e-3,
and a located exit's alpha lies up to 3.4e-12 inside its boundary, so
exit_test there still says SLIDING; the checker accepts that within
event_tol, the tolerance the exit was located to.

It prints no timings, so the outputs of two trees can be compared with
diff or cmp.  --event-tol sets IntegratorOptions.event_tol, which must
not exceed the default surface_tol.  The script imports slidoc from the
src/ of its own checkout; to survey an older tree, copy the script into
that tree's tools/.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from slidoc import (ControlGrid, IntegratorOptions, SlidocError,  # noqa: E402
                    gradient_check, integrate)
from slidoc.model import (EndpointFunctional, HybridOCP, Mode,  # noqa: E402
                          TransitionKind, alpha, entry_test, exit_mode, exit_test,
                          normal_speeds)

# the rel table's decades: (label, lower edge)
BINS = [("< 1e-8", 0.0), ("[1e-8, 1e-7)", 1e-8), ("[1e-7, 1e-6)", 1e-7),
        ("[1e-6, 1e-5)", 1e-6), (">= 1e-5", 1e-5)]
EXITS = ("ExitToF1", "ExitToF2")
WORST = 8

# kind: (modes it may leave, the mode it enters)
_KINDS = {TransitionKind.CROSS_12: ({Mode.BELOW}, Mode.ABOVE),
          TransitionKind.CROSS_21: ({Mode.ABOVE}, Mode.BELOW),
          TransitionKind.ENTER_SLIDING: ({Mode.BELOW, Mode.ABOVE}, Mode.SLIDING),
          TransitionKind.EXIT_TO_F1: ({Mode.SLIDING}, Mode.BELOW),
          TransitionKind.EXIT_TO_F2: ({Mode.SLIDING}, Mode.ABOVE)}
# the blend-weight boundary of each exit
_BOUNDARY = {TransitionKind.EXIT_TO_F1: 0, TransitionKind.EXIT_TO_F2: 1}


def drawn_problem(seed: int):
    """A random two-field problem on t in [0, 1] from
    np.random.default_rng([seed, 99]), drawn in this order: affine fields
    f_i = A_i x + B_i u + c_i (A_i, B_i ~ N(0, 1), c_i ~ N(0, 1.5)), a
    quadratic surface g = q.x + x^T H x / 2 + g0 (q ~ N(0, 1), H = S + S^T
    with S ~ N(0, 0.5), g0 ~ N(0, 0.3)), phi = w.x + 0.3 x_1^2 (w ~
    N(0, 1)), x0 ~ N(0, 0.5), and N = 6 controls uniform in the box
    [-1, 1].  Every draw is taken as it comes, curved surfaces included."""
    rng = np.random.default_rng([seed, 99])
    A1, A2 = rng.normal(0.0, 1.0, (2, 2)), rng.normal(0.0, 1.0, (2, 2))
    B1, B2 = rng.normal(0.0, 1.0, (2, 1)), rng.normal(0.0, 1.0, (2, 1))
    c1, c2 = rng.normal(0.0, 1.5, 2), rng.normal(0.0, 1.5, 2)
    q, S, g0 = rng.normal(0.0, 1.0, 2), rng.normal(0.0, 0.5, (2, 2)), rng.normal(0.0, 0.3)
    H = S + S.T
    w, x0 = rng.normal(0.0, 1.0, 2), rng.normal(0.0, 0.5, 2)
    phi = EndpointFunctional(value=lambda x: float(w @ x + 0.3 * x[0] ** 2),
                             grad=lambda x: w + np.array([0.6 * x[0], 0.0]), name="phi")
    ocp = HybridOCP(
        name=f"drawn-{seed}", n=2, m=1,
        f1=lambda x, u: A1 @ x + B1 @ u + c1, f1_x=lambda x, u: A1, f1_u=lambda x, u: B1,
        f2=lambda x, u: A2 @ x + B2 @ u + c2, f2_x=lambda x, u: A2, f2_u=lambda x, u: B2,
        g=lambda x: float(q @ x + 0.5 * x @ H @ x + g0), g_x=lambda x: q + H @ x,
        g_xx=lambda x: H, phi=phi, x0=x0, t0=0.0, tf=1.0,
        u_lo=np.array([-1.0]), u_hi=np.array([1.0]))
    return ocp, ControlGrid(0.0, 1.0, rng.uniform(-1.0, 1.0, (6, 1)))


def _verdict(ocp, traj, grid, i, rec):
    """The mode entry_test or exit_test gives at rec.x with the
    control of the interval that recorded transition i (at a breakpoint
    node, the interval that ends there when the transition was recorded
    before the next one began), or the name of the error it raises."""
    opts = traj.opts
    n = min(int(np.searchsorted(traj.breakpoint_nodes, rec.k, side="right")) - 1, grid.N - 1)
    if n > 0 and rec.k == traj.breakpoint_nodes[n] and i < traj.starts[n].transitions:
        n -= 1
    u = grid.values[n]
    try:
        if rec.kind not in _BOUNDARY:
            return entry_test(ocp, rec.x, u, eps_tan=opts.eps_tan)
        verdict = exit_test(ocp, rec.x, u, eps_den=opts.eps_den, eps_tan=opts.eps_tan)
        boundary = _BOUNDARY[rec.kind]
        if verdict is Mode.SLIDING and \
                abs(alpha(ocp, rec.x, u, eps_den=opts.eps_den) - boundary) <= opts.event_tol:
            verdict = exit_mode(*normal_speeds(ocp, rec.x, u), boundary, opts.eps_tan)
        return verdict
    except SlidocError as exc:
        return type(exc).__name__


def trajectory_violations(ocp, traj, grid) -> list:
    """Every broken invariant of traj (see the module docstring), one
    line each; [] when it keeps them all."""
    opts, out = traj.opts, []
    for k in range(traj.K):
        mode, u = traj.mode[k], grid.values[traj.ctrl[k]]
        if mode is Mode.SLIDING:
            w1, w2 = normal_speeds(ocp, traj.x[k], u)
            if not w1 > 0.0 > w2:
                out.append(f"step {k}: sliding from a node with w1 = {w1:.3e}, w2 = {w2:.3e}")
            for x in traj.x[k:k + 2]:
                g, a = ocp.g(x), alpha(ocp, x, u, eps_den=opts.eps_den)
                if not abs(g) <= opts.surface_tol:
                    out.append(f"step {k}: sliding node with g = {g:.3e}")
                if not -opts.event_tol <= a <= 1.0 + opts.event_tol:
                    out.append(f"step {k}: sliding node with alpha = {a!r}")
        else:
            sign = -1.0 if mode is Mode.BELOW else 1.0
            for x in (*traj.x[k:k + 2], *traj.stages_x[k]):
                if not sign * ocp.g(x) >= -opts.surface_tol:
                    out.append(f"step {k}: {mode.value} point with g = {ocp.g(x):.3e}")
    at_node: dict = {}
    for i, rec in enumerate(traj.transitions):
        at_node.setdefault(rec.k, []).append((i, rec))
    for k in range(traj.K + 1):
        mode = traj.mode[k - 1] if k > 0 else traj.starts[0].mode
        after = traj.mode[k] if k < traj.K else traj.terminal_mode
        for i, rec in at_node.get(k, []):
            leaves, enters = _KINDS[rec.kind]
            if mode not in leaves:
                out.append(f"transition {i} ({rec.kind.value}) at node {k} leaves {mode.value}")
            verdict = _verdict(ocp, traj, grid, i, rec)
            if verdict is not enters:
                out.append(f"transition {i} ({rec.kind.value}) at node {k}: the surface "
                           f"test at its state gives {getattr(verdict, 'value', verdict)}")
            mode = enters
        if mode is not after:
            out.append(f"node {k}: {mode.value} is followed by {after.value}")
    return out


def survey(seeds, spi: int, eps: float, opts: IntegratorOptions) -> dict:
    """Outcome counts, per run with a transition its seed, kinds and
    gradient_check rel (or the error class the check raised), and per
    run that breaks an invariant its seed and trajectory_violations."""
    outcomes, checked, violations = Counter(), [], []
    for seed in seeds:
        ocp, grid = drawn_problem(seed)
        try:
            traj = integrate(ocp, grid, spi, opts=opts)
        except SlidocError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["integrate"] += 1
        broken = trajectory_violations(ocp, traj, grid)
        if broken:
            violations.append((seed, broken))
        kinds = traj.transition_kinds()
        if not kinds:
            continue
        try:
            chk = gradient_check(ocp, grid, spi, eps=eps, opts=opts)
        except SlidocError as exc:
            checked.append((seed, kinds, type(exc).__name__, False))
            continue
        checked.append((seed, kinds, chk.rel, bool(chk.fd.flags.any())))
    return {"outcomes": outcomes, "checked": checked, "violations": violations}


def report(result: dict, head: str) -> str:
    """The survey as text."""
    outcomes, checked = result["outcomes"], result["checked"]
    lines = [head, "outcomes: " + ", ".join(
        f"{name} {count}" for name, count in
        sorted(outcomes.items(), key=lambda item: (item[0] != "integrate", item[0])))]
    rels = [(seed, kinds, rel) for seed, kinds, rel, _ in checked if isinstance(rel, float)]
    raised = Counter(rel for _, _, rel, _ in checked if isinstance(rel, str))
    unchecked = sum(rel is None for _, _, rel, _ in checked)
    lines.append(f"runs with a transition: {len(checked)}; with an FD entry flagged: "
                 f"{sum(flag for *_, flag in checked)}; every entry flagged: {unchecked}"
                 + "".join(f"; check raised {name}: {count}"
                           for name, count in sorted(raised.items())))
    lines += ["", "| gradient_check rel | runs | of which exit |", "|---|---|---|"]
    for i, (label, lo) in enumerate(BINS):
        hi = BINS[i + 1][1] if i + 1 < len(BINS) else float("inf")
        inside = [kinds for _, kinds, rel in rels if lo <= rel < hi]
        lines.append(f"| {label} | {len(inside)} | "
                     f"{sum(any(k in EXITS for k in kinds) for kinds in inside)} |")
    lines += ["", f"runs at or above 1e-6: {sum(rel >= 1e-6 for _, _, rel in rels)}",
              "worst seeds:"]
    for seed, kinds, rel in sorted(rels, key=lambda r: (-r[2], r[0]))[:WORST]:
        lines.append(f"  {seed}: rel {rel:.2e} {', '.join(kinds)}")
    violations = result["violations"]
    lines += ["", f"runs breaking an invariant: {len(violations)}"]
    for seed, broken in violations[:WORST]:
        more = f" (and {len(broken) - 1} more)" if len(broken) > 1 else ""
        lines.append(f"  {seed}: {broken[0]}{more}")
    return "\n".join(lines) + "\n"


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    try:
        return range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}; expected A-B")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seed_range, default=_seed_range("0-1399"),
                    help="seed range A-B, both ends included (default 0-1399)")
    ap.add_argument("--spi", type=int, default=8, help="steps per interval (default 8)")
    ap.add_argument("--eps", type=float, default=1e-6, help="FD step (default 1e-6)")
    ap.add_argument("--event-tol", type=float, default=IntegratorOptions().event_tol,
                    help="IntegratorOptions.event_tol (default %(default)g)")
    args = ap.parse_args(argv)
    opts = IntegratorOptions(event_tol=args.event_tol)
    seeds = args.seeds
    head = (f"drawn problems, seeds {seeds.start}-{seeds.stop - 1}, spi {args.spi}, "
            f"eps {args.eps:g}, event_tol {args.event_tol:g}")
    sys.stdout.write(report(survey(seeds, args.spi, args.eps, opts), head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
