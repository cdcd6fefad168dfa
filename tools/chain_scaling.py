"""Time integrate + run_adjoints on chain-n as the state dimension grows.

For each n (default 4, 16, 64, 256) the script builds chain-n
(benchmarks/chain.py, imported read-only) from seed 1 with N = 10
control intervals and integrates it at 8 steps per interval, as the
benchmark's chain-64 workload does, then sweeps back for phi.  It
prints one markdown table row per n:

- ms: the minimum over k calls of the wall time of integrate +
  run_adjoints (after one warm-up call);
- faults: minor page faults (getrusage ru_minflt) per call, the median
  over the k timed calls, which a call that grows the heap moves less
  than a mean; a line under the table gives their min-max for each n;
- the stage solves of one call, per pass: how many took the eigenbasis
  branch of the pass's solver (integrator.StageStore.eigen_solve) and
  how many factored the dense stage matrix (StageStore.dense_solve),
  forward (integrate) and backward (run_adjoints), counted in a
  separate untimed call;
- the factorizations of that call, per pass, as LU + inversions: the
  np.linalg.solve calls (one per eigenbasis batch or dense matrix that
  is factored) and the np.linalg.inv calls (the eigenbasis blocks a
  pass's solver keeps in its slot and inverts for reuse);
- how many of the forward LU fall inside integrator.locate_event, the
  trial steps of event location (each trial's h is new, so its blocks
  match nothing the slot holds).

slidoc is imported from this checkout's src/.  To compare two trees, run
the script of this tree from each checkout's tools/ directory:

    python3 tools/chain_scaling.py
    python3 tools/chain_scaling.py --n 64 256 --k 5
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

from chain import chain_problem  # noqa: E402

import slidoc.integrator as integrator_mod  # noqa: E402
from slidoc import integrate, run_adjoints  # noqa: E402

SEED, N, SPI = 1, 10, 8


def call(ocp, grid):
    """One integrate + run_adjoints; returns the trajectory."""
    traj = integrate(ocp, grid, SPI)
    run_adjoints(ocp, traj, grid, [ocp.phi])
    return traj


def solve_counts(ocp, grid) -> dict:
    """Eigenbasis and dense stage solves, LU solves and inversions of
    one call, per pass, and under the key ("forward", "event lu") the
    forward LU solves made inside locate_event."""
    counts = {}
    phase = ["forward"]
    spied = {(integrator_mod.StageStore, "eigen_solve"): "eigen",
             (integrator_mod.StageStore, "dense_solve"): "dense",
             (integrator_mod, "locate_event"): "event",
             (np.linalg, "solve"): "lu", (np.linalg, "inv"): "inv"}
    saved = {place: getattr(*place) for place in spied}
    in_event = [False]

    def count(key):
        counts[key] = counts.get(key, 0) + 1

    def counted(kind, fn):
        def wrapper(*args, **kw):
            count((phase[0], kind))
            if kind == "lu" and in_event[0]:
                count((phase[0], "event lu"))
            if kind != "event":
                return fn(*args, **kw)
            in_event[0] = True
            try:
                return fn(*args, **kw)
            finally:
                in_event[0] = False
        return wrapper

    for place, kind in spied.items():
        setattr(*place, counted(kind, saved[place]))
    try:
        traj = integrate(ocp, grid, SPI)
        phase[0] = "backward"
        run_adjoints(ocp, traj, grid, [ocp.phi])
    finally:
        for place, fn in saved.items():
            setattr(*place, fn)
    return counts


def row(n: int, k: int) -> tuple:
    """The table row of chain-n and the min-max of its per-call faults."""
    ocp, grid = chain_problem(n, np.random.default_rng(SEED), N)
    traj = call(ocp, grid)
    times, faults = [], []
    for _ in range(k):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        call(ocp, grid)
        times.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    counts = solve_counts(ocp, grid)
    sliding = sum(mode.value == "sliding" for mode in traj.mode)
    cells = [n, f"{traj.K} ({sliding})", f"{1e3 * min(times):.1f}",
             f"{np.median(faults):.0f}"]
    for p in ("forward", "backward"):
        cells += [counts.get((p, "eigen"), 0), counts.get((p, "dense"), 0),
                  f"{counts.get((p, 'lu'), 0)} + {counts.get((p, 'inv'), 0)}"]
        if p == "forward":
            cells.append(counts.get((p, "event lu"), 0))
    return "| " + " | ".join(map(str, cells)) + " |", f"{min(faults)}-{max(faults)}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[4, 16, 64, 256],
                    help="state dimensions (>= 3)")
    ap.add_argument("--k", type=int, default=15, help="timed calls per n")
    args = ap.parse_args()
    print(f"chain-n, seed {SEED}, N = {N}, {SPI} steps per interval, "
          f"min of {args.k} calls of integrate + run_adjoints")
    print("| n | steps (sliding) | ms | faults/call | fwd eigen | fwd dense "
          "| fwd LU + inv | fwd LU in event | bwd eigen | bwd dense | bwd LU + inv |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    spans = []
    for n in args.n:
        line, span = row(n, args.k)
        print(line, flush=True)
        spans.append(f"n = {n}: {span}")
    print(f"faults/call is the median of the {args.k} timed calls; min-max "
          + ", ".join(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
