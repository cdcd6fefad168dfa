"""Hash every array the pipeline produces over a fixed grid of cases.

Prints canonical JSON mapping each case to the sha256 of ndarray.tobytes()
of the trajectory (x, stages_x, stages_z, z_node) and, for both adjoint
backends and every functional of the problem, of lam, lam_g, grad, the
jump scalars pi, nu1 and stage_lams.  Cases with N = 10 and 8 steps per
interval also hash the FD oracle's report for phi (fd_gradient resuming
the case's trajectory): its entries, its flags and the error class of
every probe that raised.  A case that raises records the error class and
message instead.  Two trees give bit-identical results when their
outputs compare equal:

    python3 tools/identity_grid.py > a.json     # in each checkout
    cmp a.json b.json

The grid: the five built-in problems x N in {10, 20} x steps per
interval in {2, 8, 16} x (default control + 2 seeded uniform controls
in the control box), plus chain-n (benchmarks/chain.py, imported
read-only) with n in {4, 16, 64} x seeds 1-3 at 8 steps per interval,
plus circle-slide (tests/test_adjoint.py, imported read-only) x N in
{4, 10} x steps per interval in {2, 8, 16} x (constant u = 0.4 + 2
seeded uniform controls); 117 cases.  Every surface of the built-ins
and of chain-n is affine; circle-slide's is the unit circle (g_xx =
2 I), and every one of its cases enters sliding, so the g_xx terms of
the sliding Newton matrix and of the sweep are hashed too.  slidoc is
imported from this checkout's src/; to compare two trees, run this
script from each.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

from chain import chain_problem  # noqa: E402
from test_adjoint import _circle_slide  # noqa: E402

from slidoc import (ControlGrid, SlidocError, fd_gradient, get_problem,  # noqa: E402
                    integrate, problem_names, run_adjoints)

BACKENDS = ("transformed", "matrix")


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(b"-" if part is None else np.asarray(part, dtype=float).tobytes())
    return digest.hexdigest()


def _case(ocp, grid, spi: int) -> dict:
    try:
        traj = integrate(ocp, grid, spi)
        out = {"x": _sha([traj.x]), "stages_x": _sha(traj.stages_x),
               "stages_z": _sha(traj.stages_z), "z_node": _sha([traj.z_node])}
        functionals = [ocp.phi, *ocp.g1, *ocp.g2]
        for backend in BACKENDS:
            for w, adj in zip(functionals, run_adjoints(ocp, traj, grid, functionals,
                                                        backend=backend)):
                key = f"{backend}/{w.name}/"
                out[key + "lam"] = _sha([adj.lam])
                out[key + "lam_g"] = _sha([adj.lam_g])
                out[key + "grad"] = _sha([adj.grad])
                out[key + "pi"] = _sha([[j["pi"] for j in adj.jumps]])
                out[key + "nu1"] = _sha([adj.nu1])
                out[key + "stage_lams"] = _sha(adj.stage_lams)
        if grid.N == 10 and spi == 8:
            fd = fd_gradient(ocp, grid, spi, base=traj)
            out["fd/entries"] = _sha([fd.entries])
            out["fd/flags"] = _sha([fd.flags])
            errors = json.dumps(sorted([n, j, name] for (n, j), name in fd.errors.items()))
            out["fd/errors"] = hashlib.sha256(errors.encode()).hexdigest()
        return out
    except SlidocError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def cases():
    for p, name in enumerate(problem_names()):
        for N in (10, 20):
            ocp, grid = get_problem(name, {"N": N})
            rng = np.random.default_rng([p, N])
            controls = [("default", grid)] + [
                (f"seed{i}", grid.with_values(rng.uniform(ocp.u_lo, ocp.u_hi, (N, ocp.m))))
                for i in (1, 2)]
            for spi in (2, 8, 16):
                for label, g in controls:
                    yield f"{name}/N{N}/spi{spi}/{label}", ocp, g, spi
    for n in (4, 16, 64):
        for seed in (1, 2, 3):
            ocp, grid = chain_problem(n, np.random.default_rng(seed))
            yield f"chain-{n}/seed{seed}", ocp, grid, 8
    ocp, grid = _circle_slide()
    for N in (4, 10):
        rng = np.random.default_rng([len(problem_names()), N])
        controls = [("default", ControlGrid(grid.t0, grid.tf, np.full((N, 1), 0.4)))] + [
            (f"seed{i}", ControlGrid(grid.t0, grid.tf, rng.uniform(ocp.u_lo, ocp.u_hi, (N, 1))))
            for i in (1, 2)]
        for spi in (2, 8, 16):
            for label, g in controls:
                yield f"circle-slide/N{N}/spi{spi}/{label}", ocp, g, spi


def main() -> int:
    report = {key: _case(ocp, grid, spi) for key, ocp, grid, spi in cases()}
    json.dump(report, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    print(f"{len(report)} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
