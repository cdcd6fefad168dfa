#!/usr/bin/env python3
"""slidoc benchmark: one workload, one seed, closed loop with one client.

    python3 benchmarks/run.py --workload grad-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; slidoc is imported from ./src.
Each op starts when the previous one ends.  Ops run in whole passes over
the workload's op list, as many as end closest to --seconds, so every
run sees the same mix of inputs.  Every op's output goes through the workload's
correctness gate after the timed window.

--trace 0 prints the end-to-end metrics: setup_s, op_s_p50, ops_per_s,
ok_ratio and peak_rss_mb, all as measured (wall times).  --trace 1 runs
one pass in which every op runs twice, untraced and traced, and prints
the per-layer metrics of the traced runs and the tracing overhead.
The last line of stdout is the JSON result; a fuller record with the
environment and every op's time goes to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from spans import Recorder, instrument, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5


def load_slidoc():
    """Import slidoc afresh from ./src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "slidoc" or n.startswith("slidoc.")]:
        del sys.modules[name]
    sd = importlib.import_module("slidoc")
    importlib.import_module("slidoc.cli")
    if Path(sd.__file__).resolve().parent != (SRC / "slidoc").resolve():
        raise RuntimeError(f"slidoc imported from {sd.__file__}, not from {SRC}")
    return sd


def set_up(workload: str, seed: int):
    """SETUP_REPS times: import, build the inputs, run the warm-up op.
    Returns the last (slidoc module, workload) and every set-up time."""
    OUT.mkdir(exist_ok=True)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        sd = load_slidoc()
        wl = WORKLOADS[workload](sd, seed, OUT)
        wl.run(wl.warmup)
        times.append(time.perf_counter() - t0)
    return sd, wl, times


def run_op(sd, wl, i, rec=None):
    """Op i once, timed.  Returns (op index, s, output, error)."""
    with rec.span("op") if rec is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            out, err = wl.run(wl.ops[i]), None
        except sd.SlidocError as exc:
            out, err = None, exc
        dt = time.perf_counter() - t0
    return i, dt, out, err


def run_passes(sd, wl, seconds: float):
    """Whole passes over wl.ops, as many as end closest to `seconds` (at
    least one).  Returns ([(op index, s, output, error)], wall s)."""
    records = []
    start = time.perf_counter()
    for passes in itertools.count(1):
        records.extend(run_op(sd, wl, i) for i in range(len(wl.ops)))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return records, elapsed


def grade(wl, records):
    """Run every op's gate.  Returns (times of passing ops, failed count,
    typed errors by class, reasons outputs were wrong)."""
    times, failed, errors, wrong = [], 0, {}, []
    for i, dt, out, err in records:
        if err is not None:
            failed += 1
            errors[type(err).__name__] = errors.get(type(err).__name__, 0) + 1
            continue
        why = wl.check(i, out)
        if why is not None:
            failed += 1
            wrong.append(f"op {i}: {why}")
            continue
        times.append(dt)
    return times, failed, errors, wrong


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "SLIDOC_THREADS": os.environ.get("SLIDOC_THREADS", "unset"),
            "commit": _git_commit(), "machine": platform.machine()}


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(workload: str, seed: int, seconds: float) -> dict:
    sd, wl, setup = set_up(workload, seed)
    records, wall = run_passes(sd, wl, seconds)
    times, failed, errors, wrong = grade(wl, records)
    wrong += wl.check_run()
    if not times:
        raise RuntimeError(f"no op of {workload} completed; errors {errors}, wrong {wrong}")
    attempted = len(records)
    busy = sum(dt for _, dt, _, _ in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / busy, "1/s"),
        "ok_ratio": (len(times) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics, "errors": errors,
            "wrong": wrong, "setup_times_s": setup, "wall_s": wall,
            "passes": attempted // len(wl.ops),
            "samples": [[i, dt, "ok" if err is None else type(err).__name__]
                        for i, dt, _, err in records]}


def paired_pass(sd, wl):
    """One pass in which every op runs untraced and traced back to back,
    the untraced run first on even ops and second on odd ones, so that
    the machine's drift and the order within a pair cancel out of the
    overhead.  Returns (untraced records, traced records, recorder)."""
    rec = Recorder()
    plain, traced = [], []
    for i in range(len(wl.ops)):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                rec.op = i
                with instrument(rec):
                    traced.append(run_op(sd, wl, i, rec))
            else:
                plain.append(run_op(sd, wl, i))
    return plain, traced, rec


def overhead_metrics(plain, traced) -> dict:
    """Tracing overhead from the paired runs: the total, and the median
    and quartiles of the per-op share (traced / untraced - 1).  The
    overhead is resolved only when the quartiles do not straddle 0."""
    shares = [t[1] / p[1] - 1.0 for p, t in zip(plain, traced)]
    q1, med, q3 = statistics.quantiles(shares, n=4)
    wall0 = sum(r[1] for r in plain)
    wall1 = sum(r[1] for r in traced)
    return {"trace.ops": (len(traced), "count"),
            "trace.untraced_wall_s": (wall0, "s"),
            "trace.traced_wall_s": (wall1, "s"),
            "trace.overhead_s": (wall1 - wall0, "s"),
            "trace.overhead_share_p50": (med, "ratio"),
            "trace.overhead_share_q1": (q1, "ratio"),
            "trace.overhead_share_q3": (q3, "ratio")}


def measure_traced(workload: str, seed: int):
    sd, wl, setup = set_up(workload, seed)
    plain, traced, rec = paired_pass(sd, wl)
    _, failed0, errors, wrong = grade(wl, plain)
    _, failed1, _, wrong1 = grade(wl, traced)
    wrong += wrong1 + wl.check_run()
    metrics = layer_metrics(rec.spans)
    metrics.update(overhead_metrics(plain, traced))
    return {"correct": not wrong, "attempted": len(plain) + len(traced),
            "failed": failed0 + failed1, "metrics": metrics, "errors": errors,
            "wrong": wrong, "setup_times_s": setup}, rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "slidoc" / "__init__.py").is_file():
        print(f"benchmark: no slidoc sources at {SRC / 'slidoc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args)
    if args.trace:
        res, rec = measure_traced(args.workload, args.seed)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        rec.write(spans_path)
    else:
        res = measure(args.workload, args.seed, args.seconds)

    print(f"slidoc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()
                             if k not in ("workload", "seed", "seconds", "trace")))
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if args.trace:
        q1, q3 = (res["metrics"][f"trace.overhead_share_{q}"][0] for q in ("q1", "q3"))
        print(f"  tracing overhead per op: quartiles {q1:+.3f} .. {q3:+.3f} of the untraced "
              "time, " + ("resolved" if q1 > 0 or q3 < 0 else "unresolved (straddles 0)"))
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    else:
        n_ok = round(res["metrics"]["ok_ratio"][0] * res["attempted"])
        print(f"  op_s_p50 over {n_ok} passing ops; {res['passes']} passes in "
              f"{res['wall_s']:.2f} s; setup_s is the median of {SETUP_REPS} set-ups")
        print(f"  fail_ratio = {res['failed']}/{res['attempted']} = "
              f"{res['failed'] / res['attempted']:.4f}  errors {res['errors']}")
    for why in res["wrong"]:
        print(f"  WRONG: {why}")

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in res["metrics"].items()}
    record = dict(res, env=env, metrics=metrics)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
