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
seeded uniform controls), plus the 28 transition cases of
_transition_cases, plus the drawn problems of DRAWN_SEEDS
(tools/drawn_survey.py, N = 6) at 8 steps per interval; 152 cases, all
at the default integrator options.  Every surface of the built-ins and
of chain-n is affine; circle-slide's is the unit circle (g_xx = 2 I),
and every one of its cases enters sliding, so the g_xx terms of the
sliding Newton matrix and of the sweep are hashed too.  The built-ins
reach only EnterSliding and ExitToF1; the transition cases reach
Cross12, Cross21 and ExitToF2 and a ChatteringLimit.  Their problems
are defined here; the ChatteringLimit case patches
integrator.MAX_TRANSITIONS_PER_INTERVAL, so a checkout without that
constant needs its own copy of the script.  The drawn cases slide on
curved surfaces and leave them at an exit located inside a step
(ExitToF1 and ExitToF2); their multiplier z reaches |z| = 0.50, on the
last sliding step of seed 953.
slidoc is imported from this checkout's src/; to compare two trees, run
this script from each.

A change that is meant to round differently cannot be bit-identical.
For it, --npz PATH also writes the hashed arrays (plus each case's
transition sequence and error) to an .npz, and --compare reports the
largest relative difference max|a - b| / max(|b|_inf, 1e-300) of every
(problem, backend, array) between two such files, next to the largest
absolute difference max|a - b|:

    python3 tools/identity_grid.py --npz new.npz > new.json
    python3 tools/identity_grid.py --compare new.npz old.npz

NaN entries (flagged FD entries) must sit at the same positions; the
difference is taken over the finite ones.  An array whose bytes differ
although its values compare equal (a -0.0 for a 0.0, which the CLI
would print as -0) is reported too.  It exits nonzero when a difference
exceeds 1e-12, when such an array, a transition sequence or an error
differs, or when the files hold different arrays.

--cli hashes the command line instead: it runs the cases of
_cli_cases through slidoc.cli.main in process, each in its own
temporary directory, and prints the sha256 of every file a case writes
(and of its stdout, when it writes any), its exit code, and its stderr
when that is not empty.  The cases: simulate, adjoint, gradient and
check-gradient on the five built-ins, gradient of g2:0 on
constrained-toy, optimize on constrained-toy (with --history-csv) and
on slide-exit, verify-orders on smooth-linear for all five quantities,
and tableau-check to stdout and to --out (41 outputs); plus eight error
paths: two domain errors, two output errors (an --out that is its own
sidecar, an --out in a directory that does not exist) and three
non-finite inputs (a config file with a NaN, --eps inf, an h of inf),
each exit 1, and one usage error (exit 2).  A case's directory reads {d}
in its stderr and the config file's directory {t}; an exception that
main lets through is recorded as the exit "raised <class>".  To compare two trees, run the script of this tree
from each checkout's tools/ directory:

    python3 tools/identity_grid.py --cli > a.json
    cmp a.json b.json
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "src"))

from chain import chain_problem  # noqa: E402
from drawn_survey import drawn_problem  # noqa: E402
from test_adjoint import _circle_slide  # noqa: E402

import slidoc.integrator as integrator_mod  # noqa: E402
from slidoc import (ControlGrid, SlidocError, fd_gradient,  # noqa: E402
                    get_problem, integrate, problem_names, run_adjoints)

BACKENDS = ("transformed", "matrix")
REL_TOL = 1e-12
# every seed in 0-199 whose run at 8 steps per interval locates an exit
# inside a step, and seed 953, whose z is largest
DRAWN_SEEDS = (82, 90, 161, 172, 183, 185, 953)


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(b"-" if part is None else np.asarray(part, dtype=float).tobytes())
    return digest.hexdigest()


def _flat(parts) -> np.ndarray:
    """The floats _sha hashes, as one array; None parts are skipped."""
    return np.concatenate([np.ravel(np.asarray(p, dtype=float)) for p in parts
                           if p is not None] or [np.empty(0)])


def _case(ocp, grid, spi: int, arrays: dict) -> dict:
    """Hashes of one case, integrated with the default options; the
    hashed arrays go into arrays as well."""
    def put(key, parts):
        arrays[key] = _flat(parts)
        return _sha(parts)

    try:
        traj = integrate(ocp, grid, spi)
        arrays["transitions"] = np.array(traj.transition_kinds(), dtype=str)
        out = {"x": put("x", [traj.x]), "stages_x": put("stages_x", traj.stages_x),
               "stages_z": put("stages_z", traj.stages_z),
               "z_node": put("z_node", [traj.z_node])}
        functionals = [ocp.phi, *ocp.g1, *ocp.g2]
        for backend in BACKENDS:
            for w, adj in zip(functionals, run_adjoints(ocp, traj, grid, functionals,
                                                        backend=backend)):
                key = f"{backend}/{w.name}/"
                out[key + "lam"] = put(key + "lam", [adj.lam])
                out[key + "lam_g"] = put(key + "lam_g", [adj.lam_g])
                out[key + "grad"] = put(key + "grad", [adj.grad])
                out[key + "pi"] = put(key + "pi", [[j["pi"] for j in adj.jumps]])
                out[key + "nu1"] = put(key + "nu1", [adj.nu1])
                out[key + "stage_lams"] = put(key + "stage_lams", adj.stage_lams)
        if grid.N == 10 and spi == 8:
            fd = fd_gradient(ocp, grid, traj)
            out["fd/entries"] = put("fd/entries", [fd.entries])
            out["fd/flags"] = put("fd/flags", [fd.flags])
            errors = json.dumps(sorted([n, j, name] for (n, j), name in fd.errors.items()))
            arrays["fd/errors"] = np.array(errors, dtype=str)
            out["fd/errors"] = hashlib.sha256(errors.encode()).hexdigest()
        return out
    except SlidocError as exc:
        arrays.clear()
        arrays["error"] = np.array(f"{type(exc).__name__}: {exc}", dtype=str)
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
    yield from _transition_cases()
    for seed in DRAWN_SEEDS:
        ocp, grid = drawn_problem(seed)
        yield f"drawn-{seed}/N6/spi8", ocp, grid, 8


def _const(mat):
    arr = np.array(mat, dtype=float)
    return lambda x, u: arr


def _transition_problems():
    """Problems whose runs reach the transitions no built-in reaches at
    its defaults: p2-sliding with both fields pushing up (Cross12), a
    variant started above the surface with both pushing down (Cross21),
    and slide-exit mirrored in x1 = 0, whose blend weight drifts to 1
    (ExitToF2)."""
    p2, _ = get_problem("p2-sliding")
    exit_f1, _ = get_problem("slide-exit")
    zero = _const(np.zeros((2, 2)))
    return {
        "cross12": dataclasses.replace(
            p2, f2=lambda x, u: np.array([1.0, 0.5 + u[0]]), f2_x=zero),
        "cross21": dataclasses.replace(
            p2, x0=np.array([0.0, 0.5]),
            f1=lambda x, u: np.array([1.0, -0.5 + u[0]]), f1_x=zero,
            f2=lambda x, u: np.array([1.0, -1.0 + u[0]]), f2_x=zero),
        "exit-to-f2": dataclasses.replace(
            exit_f1, name="exit-to-f2", x0=np.array([0.0, 0.25]),
            f1=lambda x, u: np.array([1.0, 1.0 - u[0]]), f1_x=zero,
            f1_u=_const([[0.0], [-1.0]]),
            f2=lambda x, u: np.array([1.0, x[0] - 0.9 - u[0]]),
            f2_x=_const([[0.0, 0.0], [1.0, 0.0]]), f2_u=_const([[0.0], [-1.0]])),
    }


def _transition_cases():
    """The transition problems x steps per interval in {2, 8, 16} x
    (u = 0 + 2 seeded uniform controls) at N = 10, and a ChatteringLimit
    raised by the second transition of one control interval at a cap of
    1, yielded while the generator holds MAX_TRANSITIONS_PER_INTERVAL
    patched to 1 (a case taken out of the generator runs at the real
    cap)."""
    problems = _transition_problems()
    for p, (name, ocp) in enumerate(problems.items()):
        rng = np.random.default_rng([len(problem_names()) + 1 + p])
        controls = [("default", np.zeros((10, 1)))] + [
            (f"seed{i}", rng.uniform(ocp.u_lo, ocp.u_hi, (10, 1))) for i in (1, 2)]
        for spi in (2, 8, 16):
            for label, values in controls:
                grid = ControlGrid(ocp.t0, ocp.tf, values)
                yield f"{name}/N10/spi{spi}/{label}", ocp, grid, spi
    ocp = problems["exit-to-f2"]
    grid = ControlGrid(ocp.t0, ocp.tf, np.random.default_rng(1).uniform(-0.5, 0.5, (10, 1)))
    # the generator stays suspended inside the patch while the case runs
    with mock.patch.object(integrator_mod, "MAX_TRANSITIONS_PER_INTERVAL", 1):
        yield "chattering/cap1", ocp, grid, 8


def _diff(a: np.ndarray, b: np.ndarray):
    """(max|a - b| / max(|b|_inf, 1e-300), max|a - b|) over the finite
    entries of b; both inf when the shapes differ or a non-finite entry
    (a flagged FD entry is NaN) is not matched exactly, at the same
    position, in a."""
    if a.shape != b.shape:
        return float("inf"), float("inf")
    fin = np.isfinite(b)
    if not (np.array_equal(fin, np.isfinite(a))
            and np.array_equal(a[~fin], b[~fin], equal_nan=True)):
        return float("inf"), float("inf")
    a, b = a[fin], b[fin]
    if a.size == 0:
        return 0.0, 0.0
    err = float(np.max(np.abs(a - b)))
    return err / max(float(np.max(np.abs(b))), 1e-300), err


def compare(new_path: str, old_path: str) -> int:
    """Print the worst relative difference per (problem, backend, array)
    of new against old, with the case it occurs in, next to the largest
    absolute difference max|a - b| over the same cases (it judges arrays
    that are zero in exact arithmetic, such as stages_z, whose relative
    difference compares rounding noise with rounding noise); print every
    array whose bytes differ although its values compare equal (a -0.0
    for a 0.0).  Nonzero exit on any relative difference above REL_TOL,
    any such array or any mismatch of keys, transition sequences or
    errors."""
    with np.load(new_path) as new, np.load(old_path) as old:
        bad = sorted(set(new.files) ^ set(old.files))
        for key in bad:
            print(f"only in {'new' if key in new.files else 'old'}: {key}")
        worst: dict = {}
        worst_abs: dict = {}
        differing = set()
        for key in sorted(set(new.files) & set(old.files)):
            case, field = key.split("|")
            a, b = new[key], old[key]
            if a.dtype.kind == "U":
                if not np.array_equal(a, b):
                    print(f"{key} differs: {a} vs {b}")
                    bad.append(key)
                continue
            parts = field.split("/")
            group = (case.split("/")[0], parts[0] if len(parts) > 1 else "traj", parts[-1])
            rel, err = _diff(a, b)
            worst_abs[group] = max(err, worst_abs.get(group, 0.0))
            if rel == 0.0 and a.tobytes() != b.tobytes():
                print(f"{key}: values equal, bytes differ (signed zeros)")
                bad.append(key)
            if rel != 0.0 or a.tobytes() != b.tobytes():
                differing.add(case)
            if rel > worst.get(group, (-1.0,))[0]:
                worst[group] = (rel, case)
    print(f"{'problem':16s} {'backend':12s} {'array':11s} {'rel':8s}  {'abs':8s}  worst-rel case")
    for group, (rel, case) in sorted(worst.items()):
        print(f"{group[0]:16s} {group[1]:12s} {group[2]:11s} {rel:.2e}  "
              f"{worst_abs[group]:.2e}  {case}")
    top = max(worst.values(), default=(0.0, "-"))
    print(f"worst {top[0]:.2e} ({top[1]}); {len(differing)} cases differ; "
          f"{len(bad)} mismatches")
    return 1 if bad or top[0] > REL_TOL else 0


# the config file of error/nan-config: Python's json reads NaN as a float
NAN_CONFIG = '{"problem": "p2-sliding", "x0": [NaN, -0.5]}'


def _cli_cases():
    """(name, argv) of every CLI case; {d} stands for the case's own
    directory and {t} for the directory that holds NAN_CONFIG as
    nan.json."""
    for name in problem_names():
        yield f"simulate/{name}", ["simulate", "--problem", name, "--out", "{d}/traj.csv"]
        yield f"adjoint/{name}", ["adjoint", "--problem", name, "--out", "{d}/adj.csv"]
        yield f"gradient/{name}", ["gradient", "--problem", name, "--out", "{d}/grad.json"]
        yield f"check-gradient/{name}", ["check-gradient", "--problem", name,
                                         "--out", "{d}/check.json"]
    yield "gradient/constrained-toy/g2:0", ["gradient", "--problem", "constrained-toy",
                                            "--functional", "g2:0", "--out", "{d}/grad.json"]
    yield "optimize/constrained-toy", ["optimize", "--problem", "constrained-toy",
                                       "--out", "{d}/run.json", "--history-csv", "{d}/hist.csv"]
    yield "optimize/slide-exit", ["optimize", "--problem", "slide-exit", "--out", "{d}/run.json"]
    for quantity in ("state_endpoint", "state_stage", "adjoint_endpoint", "adjoint_stage",
                     "gradient"):
        yield f"verify-orders/{quantity}", ["verify-orders", "--problem", "smooth-linear",
                                            "--quantity", quantity, "--h", "0.05,0.025",
                                            "--out", "{d}/orders.json"]
    yield "tableau-check/stdout", ["tableau-check"]
    yield "tableau-check/out", ["tableau-check", "--out", "{d}/tableau.json"]
    yield "error/no-problem", ["simulate", "--out", "{d}/x.csv"]
    yield "error/functional-range", ["gradient", "--problem", "constrained-toy",
                                     "--functional", "g1:5", "--out", "{d}/grad.json"]
    yield "error/no-out", ["simulate", "--problem", "p2-sliding"]
    yield "error/out-is-sidecar", ["simulate", "--problem", "p2-sliding", "--out", "{d}/traj.json"]
    yield "error/out-dir-missing", ["simulate", "--problem", "p2-sliding",
                                    "--out", "{d}/nodir/traj.csv"]
    yield "error/nan-config", ["simulate", "--config", "{t}/nan.json", "--out", "{d}/traj.csv"]
    yield "error/eps-inf", ["check-gradient", "--problem", "p2-sliding", "--eps", "inf",
                            "--out", "{d}/check.json"]
    yield "error/h-inf", ["verify-orders", "--problem", "smooth-linear", "--quantity",
                          "gradient", "--h", "inf,0.1", "--out", "{d}/orders.json"]


def cli_report() -> dict:
    """Exit code, output hashes and stderr of every case of _cli_cases."""
    from slidoc.cli import main as cli_main
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "nan.json").write_text(NAN_CONFIG)
        for i, (key, argv) in enumerate(_cli_cases()):
            d = Path(tmp) / str(i)
            d.mkdir()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main([a.replace("{d}", str(d)).replace("{t}", tmp)
                                     for a in argv])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:    # an error main let through
                    code = f"raised {type(exc).__name__}"
            entry = {"exit": code}
            for f in sorted(d.iterdir()):
                entry[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
            if out.getvalue():
                entry["stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
            if err.getvalue():
                entry["stderr"] = err.getvalue().replace(str(d), "{d}").replace(tmp, "{t}")
            report[key] = entry
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--npz", help="also write the hashed arrays to this .npz")
    ap.add_argument("--compare", nargs=2, metavar=("NEW", "OLD"),
                    help="compare two .npz files written by --npz and exit")
    ap.add_argument("--cli", action="store_true",
                    help="hash the outputs of the CLI cases instead of the grid")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.cli:
        report = cli_report()
        json.dump(report, sys.stdout, sort_keys=True, indent=1)
        sys.stdout.write("\n")
        outputs = sum(len(e) - 1 - ("stderr" in e) for e in report.values())
        print(f"{outputs} outputs, {sum(e['exit'] != 0 for e in report.values())} "
              f"error paths", file=sys.stderr)
        return 0
    report, arrays = {}, {}
    for key, ocp, grid, spi in cases():
        case_arrays: dict = {}
        report[key] = _case(ocp, grid, spi, case_arrays)
        arrays.update({f"{key}|{field}": a for field, a in case_arrays.items()})
    json.dump(report, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    if args.npz:
        np.savez_compressed(args.npz, **arrays)
    print(f"{len(report)} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
