"""Command-line front end.

Seven subcommands over the library: simulate, adjoint, gradient,
check-gradient, optimize, verify-orders, tableau-check.  All numerical
output goes through one canonical serializer (sorted keys, floats at
full precision), so identical configs give byte-identical files.  Domain
failures exit 1 with a one-line JSON error on stderr; bad usage exits 2.

CSV files carry plus-side values at every mesh node: at a transition
node the row shows the state after the jump, z after leaving the
surface is 0, and alpha is empty off the sliding mode.  Sidecar JSON
files live next to each CSV, same name with the suffix swapped.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .adjoint import run_adjoint
from .config import RunConfig, canonical_json, format_float, parse_config
from .errors import SlidocError, ValidationError
from .gradient import reduced_gradient
from .integrator import integrate
from .model import Mode, alpha
from .optimizer import optimize
from .problems import get_problem
from .tableau import RADAU_IIA, adjoint_tableau, check_conditions
from .verify import gradient_check, order_study


# ---------------------------------------------------------------------------
# output plumbing


def _write(path: Optional[str], text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sidecar(out: str) -> str:
    return str(Path(out).with_suffix(".json"))


def _json_text(obj) -> str:
    return canonical_json(obj) + "\n"


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_float(float(v))


# ---------------------------------------------------------------------------
# shared setup


def _load(args, **flag_overrides) -> RunConfig:
    cfg = parse_config(getattr(args, "config", None), flag_overrides)
    return cfg


def _problem(cfg: RunConfig):
    if cfg.problem is None:
        raise ValidationError("problem: required (set --problem or the config key)",
                              field="problem")
    return get_problem(cfg.problem, cfg.overrides())


def _functional(ocp, selector: str):
    if selector == "phi":
        return ocp.phi
    kind, _, idx = selector.partition(":")
    pool = ocp.g1 if kind == "g1" else ocp.g2
    i = int(idx)
    if i >= len(pool):
        raise ValidationError(
            f"functional: {selector!r} out of range; problem has {len(pool)} {kind} entries",
            field="functional")
    return pool[i]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    cfg = _load(args, problem=args.problem,
                steps_per_interval=args.steps_per_interval)
    ocp, grid = _problem(cfg)
    traj = integrate(ocp, grid, cfg.steps_per_interval,
                     opts=cfg.integrator_options())

    header = ["k", "t", "mode"] + [f"x{i}" for i in range(ocp.n)] + ["z", "g(x)", "alpha"]
    rows = []
    K = traj.K
    for k in range(K + 1):
        mode = traj.mode[k] if k < K else traj.terminal_mode
        u = grid.values[traj.ctrl[min(k, K - 1)]]
        if mode is Mode.SLIDING:
            a = alpha(ocp, traj.x[k], u, eps_den=traj.opts.eps_den)
        else:
            a = None
        rows.append([_cell(k), _cell(traj.times[k]), mode.value]
                    + [_cell(v) for v in traj.x[k]]
                    + [_cell(traj.z_node[k]), _cell(ocp.g(traj.x[k])), _cell(a)])
    _write(args.out, _csv_text(header, rows))
    _write(_sidecar(args.out), _json_text({
        "meta": cfg.meta(),
        "transitions": [rec.to_dict() for rec in traj.transitions]}))
    return 0


def _cmd_adjoint(args) -> int:
    cfg = _load(args, problem=args.problem, functional=args.functional,
                steps_per_interval=args.steps_per_interval)
    ocp, grid = _problem(cfg)
    traj = integrate(ocp, grid, cfg.steps_per_interval,
                     opts=cfg.integrator_options())
    adj = run_adjoint(ocp, traj, grid, _functional(ocp, cfg.functional))

    header = ["k", "t"] + [f"lambda{i}" for i in range(ocp.n)] + ["lambda_g"]
    rows = [[_cell(k), _cell(traj.times[k])]
            + [_cell(v) for v in adj.lam[k]] + [_cell(adj.lam_g[k])]
            for k in range(traj.K + 1)]
    _write(args.out, _csv_text(header, rows))
    _write(_sidecar(args.out), _json_text({
        "meta": cfg.meta(),
        "nu1": adj.nu1,
        "jumps": [{"t_t": j["t_t"], "pi": j["pi"]} for j in adj.jumps]}))
    return 0


def _cmd_gradient(args) -> int:
    cfg = _load(args, problem=args.problem, functional=args.functional,
                steps_per_interval=args.steps_per_interval)
    ocp, grid = _problem(cfg)
    traj = integrate(ocp, grid, cfg.steps_per_interval,
                     opts=cfg.integrator_options())
    adj = run_adjoint(ocp, traj, grid, _functional(ocp, cfg.functional))
    grad = reduced_gradient(ocp, traj, grid, adj)
    _write(args.out, _json_text({
        "meta": cfg.meta(),
        "functional": cfg.functional,
        "grad": [[float(v) for v in row] for row in grad]}))
    return 0


def _cmd_check_gradient(args) -> int:
    cfg = _load(args, problem=args.problem, functional=args.functional,
                eps=args.eps, steps_per_interval=args.steps_per_interval)
    ocp, grid = _problem(cfg)
    chk = gradient_check(ocp, grid, cfg.steps_per_interval,
                         _functional(ocp, cfg.functional), eps=cfg.eps,
                         opts=cfg.integrator_options())
    out = chk.to_dict()
    out["meta"] = cfg.meta()
    out["functional"] = cfg.functional
    _write(args.out, _json_text(out))
    return 0


def _cmd_optimize(args) -> int:
    cfg = _load(args, problem=args.problem)
    ocp, grid = _problem(cfg)
    res = optimize(ocp, grid, cfg.steps_per_interval,
                   cfg=cfg.optimizer_config(),
                   integ_opts=cfg.integrator_options())
    _write(args.out, _json_text({
        "meta": cfg.meta(),
        "status": res.status,
        "converged": res.converged,
        "u": [[float(v) for v in row] for row in res.grid.values],
        "history": [rec.to_dict() for rec in res.history]}))
    if args.history_csv:
        header = ["k", "F0", "M", "c", "sigma", "alpha"]
        rows = [[_cell(r.k), _cell(r.F0), _cell(r.M), _cell(r.c),
                 _cell(r.sigma), _cell(r.alpha)] for r in res.history]
        _write(args.history_csv, _csv_text(header, rows))
    return 0


def _cmd_verify_orders(args) -> int:
    cfg = _load(args, problem=args.problem, functional=args.functional)
    ocp, grid = _problem(cfg)
    rep = order_study(ocp, grid, args.quantity, args.h,
                      functional=_functional(ocp, cfg.functional),
                      opts=cfg.integrator_options())
    out = rep.to_dict()
    out["meta"] = cfg.meta()
    _write(args.out, _json_text(out))
    return 0


def _cmd_tableau_check(args) -> int:
    cfg = _load(args, problem=args.problem)

    def block(tab):
        rep = check_conditions(tab)
        return {"name": tab.name,
                "A": [[float(v) for v in row] for row in tab.A],
                "b": [float(v) for v in tab.b],
                "c": [float(v) for v in tab.c],
                "p": rep.p, "q": rep.q, "r": rep.r,
                "residuals": rep.residuals}

    _write(args.out, _json_text({
        "meta": cfg.meta(),
        "radau_iia": block(RADAU_IIA),
        "adjoint": block(adjoint_tableau(RADAU_IIA))}))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _h_list(text: str) -> list:
    try:
        hs = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad step list {text!r}")
    if not hs:
        raise argparse.ArgumentTypeError("empty step list")
    return hs


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="slidoc",
                                description="Sliding-mode optimal control toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True, functional=False, spi=False):
        sp.add_argument("--problem", default=None)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", required=out_required, default=None)
        if functional:
            sp.add_argument("--functional", default=None)
        if spi:
            sp.add_argument("--steps-per-interval", dest="steps_per_interval",
                            type=int, default=None)

    sp = sub.add_parser("simulate", help="integrate and write the trajectory CSV")
    common(sp, spi=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("adjoint", help="backward sweep for one functional")
    common(sp, functional=True, spi=True)
    sp.set_defaults(func=_cmd_adjoint)

    sp = sub.add_parser("gradient", help="reduced gradient as JSON")
    common(sp, functional=True, spi=True)
    sp.set_defaults(func=_cmd_gradient)

    sp = sub.add_parser("check-gradient", help="adjoint gradient vs FD oracle")
    common(sp, functional=True, spi=True)
    sp.add_argument("--eps", type=float, default=None)
    sp.set_defaults(func=_cmd_check_gradient)

    sp = sub.add_parser("optimize", help="exact-penalty descent run")
    common(sp)
    sp.add_argument("--history-csv", dest="history_csv", default=None)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("verify-orders", help="convergence-order study")
    common(sp, functional=True)
    sp.add_argument("--quantity", required=True)
    sp.add_argument("--h", type=_h_list, required=True)
    sp.set_defaults(func=_cmd_verify_orders)

    sp = sub.add_parser("tableau-check", help="order conditions of the scheme "
                        "and its adjoint")
    common(sp, out_required=False)
    sp.set_defaults(func=_cmd_tableau_check)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SlidocError as exc:
        sys.stderr.write(canonical_json(exc.to_dict()) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
