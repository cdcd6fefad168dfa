"""Command-line front end.

Seven subcommands over the library: simulate, adjoint, gradient,
check-gradient, optimize, verify-orders, tableau-check.  All numerical
output goes through one canonical serializer (sorted keys, floats at
full precision), so identical configs give byte-identical files.  Domain
failures exit 1 with a one-line JSON error on stderr, and so does an
output that cannot be written (OutputError, naming the path) or an
--out that leaves its sidecar no other name (ValidationError on out,
raised before anything runs); bad usage exits 2.  The error line writes
a non-finite payload value as its text ("nan", "inf", "-inf"); the
canonical outputs refuse such values.  main runs with numpy's
floating-point warnings off, so a run that overflows on its way to a
domain error leaves that one line on stderr.

There is one output path.  main parses the arguments, loads the config
with the subcommand's flags as overrides, builds the problem (every
subcommand but tableau-check needs one) and calls the subcommand, which
returns its document and, where it has one, its CSV text.  main adds
the meta block and writes: simulate and adjoint put the CSV at --out
and the document in the sidecar; the others put the document at --out
(stdout when --out is absent), then optimize's history CSV at
--history-csv.

CSV files carry one row per mesh node: no transition moves the state,
so a transition node has one state, its z is 0, and alpha is empty off
the sliding mode.  Sidecar JSON files live next to each CSV, same name
with the suffix swapped.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .adjoint import run_adjoint
from .config import RunConfig, canonical_json, format_float, parse_config
from .errors import OutputError, SlidocError, ValidationError
from .integrator import integrate
from .model import Mode, alpha
from .optimizer import optimize
from .problems import get_problem
from .tableau import RADAU_IIA, adjoint_tableau, check_conditions
from .verify import gradient_check, order_study


# ---------------------------------------------------------------------------
# output plumbing


def _write(path: Optional[str], text: str):
    """Write text to path (stdout when None); an OSError becomes an
    OutputError naming the path."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"{path}: cannot write: {exc.strerror or exc}", path=path) from exc


def _error_line(exc: SlidocError) -> str:
    """The stderr line of a domain error: its dict as canonical JSON, a
    non-finite float in the payload (a NewtonDivergence residual of nan)
    written as its text."""
    d = {key: str(float(v)) if isinstance(v, (float, np.floating)) and not math.isfinite(v)
         else v for key, v in exc.to_dict().items()}
    return canonical_json(d) + "\n"


def _csv_text(header: list, rows: list) -> str:
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_float(float(v))


# ---------------------------------------------------------------------------
# subcommands: each takes (cfg, problem, args), problem being the
# (ocp, grid) pair (None for tableau-check), and returns (document, CSV
# text or None)


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


def _sweep(cfg: RunConfig, problem):
    """Integrate, then sweep back for the configured functional."""
    ocp, grid = problem
    traj = integrate(ocp, grid, cfg.steps_per_interval, opts=cfg.integrator)
    return traj, run_adjoint(ocp, traj, grid, _functional(ocp, cfg.functional))


def _cmd_simulate(cfg, problem, args):
    ocp, grid = problem
    traj = integrate(ocp, grid, cfg.steps_per_interval, opts=cfg.integrator)

    header = ["k", "t", "mode"] + [f"x{i}" for i in range(ocp.n)] + ["z", "g(x)", "alpha"]
    rows = []
    K = traj.K
    for k in range(K + 1):
        mode = traj.mode[k] if k < K else traj.terminal_mode
        u = grid.values[traj.ctrl[min(k, K - 1)]]
        a = (alpha(ocp, traj.x[k], u, eps_den=traj.opts.eps_den)
             if mode is Mode.SLIDING else None)
        rows.append([_cell(k), _cell(traj.times[k]), mode.value]
                    + [_cell(v) for v in traj.x[k]]
                    + [_cell(traj.z_node[k]), _cell(ocp.g(traj.x[k])), _cell(a)])
    doc = {"transitions": [rec.to_dict() for rec in traj.transitions]}
    return doc, _csv_text(header, rows)


def _cmd_adjoint(cfg, problem, args):
    traj, adj = _sweep(cfg, problem)
    header = ["k", "t"] + [f"lambda{i}" for i in range(adj.lam.shape[1])] + ["lambda_g"]
    rows = [[_cell(k), _cell(traj.times[k])]
            + [_cell(v) for v in adj.lam[k]] + [_cell(adj.lam_g[k])]
            for k in range(traj.K + 1)]
    doc = {"nu1": adj.nu1,
           "jumps": [{"t_t": j["t_t"], "pi": j["pi"]} for j in adj.jumps]}
    return doc, _csv_text(header, rows)


def _cmd_gradient(cfg, problem, args):
    _, adj = _sweep(cfg, problem)
    return {"functional": cfg.functional, "grad": adj.grad}, None


def _cmd_check_gradient(cfg, problem, args):
    ocp, grid = problem
    chk = gradient_check(ocp, grid, cfg.steps_per_interval,
                         _functional(ocp, cfg.functional), eps=cfg.eps,
                         opts=cfg.integrator)
    return {**chk.to_dict(), "functional": cfg.functional}, None


def _cmd_optimize(cfg, problem, args):
    ocp, grid = problem
    res = optimize(ocp, grid, cfg.steps_per_interval,
                   cfg=cfg.optimizer, integ_opts=cfg.integrator)
    doc = {"status": res.status,
           "converged": res.converged,
           "u": res.grid.values,
           "history": [rec.to_dict() for rec in res.history]}
    csv = None
    if args.history_csv:
        rows = [[_cell(v) for v in (r.k, r.F0, r.M, r.c, r.sigma, r.alpha)]
                for r in res.history]
        csv = _csv_text(["k", "F0", "M", "c", "sigma", "alpha"], rows)
    return doc, csv


def _cmd_verify_orders(cfg, problem, args):
    ocp, grid = problem
    rep = order_study(ocp, grid, args.quantity, args.h,
                      functional=_functional(ocp, cfg.functional),
                      opts=cfg.integrator)
    return rep.to_dict(), None


def _cmd_tableau_check(cfg, problem, args):
    def block(tab):
        rep = check_conditions(tab)
        return {"name": tab.name, "A": tab.A, "b": tab.b, "c": tab.c,
                "p": rep.p, "q": rep.q, "r": rep.r,
                "residuals": rep.residuals}

    return {"radau_iia": block(RADAU_IIA),
            "adjoint": block(adjoint_tableau(RADAU_IIA))}, None


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


@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sidecar = None
        if args.command in ("simulate", "adjoint"):     # the sidecar: --out's name, .json
            out = Path(args.out)
            sidecar = out.with_suffix(".json") if out.name else out
            if sidecar == out:
                raise ValidationError(f"out: {args.out!r} leaves no other name for the .json "
                                      f"sidecar; name the CSV with another suffix", field="out")
        flags = {k: getattr(args, k, None)
                 for k in ("problem", "functional", "eps", "steps_per_interval")}
        cfg = parse_config(args.config, flags)
        problem = None
        if args.command != "tableau-check":
            if cfg.problem is None:
                raise ValidationError("problem: required (set --problem or the config key)",
                                      field="problem")
            problem = get_problem(cfg.problem, cfg.overrides())
        doc, csv = args.func(cfg, problem, args)
        doc["meta"] = cfg.meta()
        if sidecar is not None:
            _write(args.out, csv)
            _write(str(sidecar), canonical_json(doc) + "\n")
        else:
            _write(args.out, canonical_json(doc) + "\n")
            if csv is not None:
                _write(args.history_csv, csv)
    except SlidocError as exc:
        sys.stderr.write(_error_line(exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
