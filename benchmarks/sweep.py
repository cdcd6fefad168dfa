#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 benchmarks/sweep.py --workloads fd-check,grad-sweep --seeds 1-10
    python3 benchmarks/sweep.py --workloads all --seeds 1-10 --sets 2 --out summary.json

Each run is `benchmarks/run.py --trace 0` in a child process, one at a
time, for BENCHMARK.json's run_seconds.  For every end-to-end metric of
BENCHMARK.json the sweep prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median
next to the metric's bound.  With --sets 2 or more the sets run one after
another, each over every workload and seed, and every set's median is
compared with every other's in both directions: `drift` is the largest
share by which one set's median is worse than another's.
Runs whose environment records differ (interpreter, numpy, BLAS threads,
SLIDOC_THREADS, commit, ...) are refused rather than mixed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_FIELDS = ("workload", "seed")


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return {"seed": seed, "wall_s": wall, "result": result, "env": record["env"]}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def _worse_by(first: float, second: float, better: str) -> float:
    """Share by which `second` is worse than `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="all", help="comma list or 'all'")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seeds = _seeds(args.seeds)
    seconds = bench["run_seconds"]

    env0 = None
    summary = {"seconds": seconds, "seeds": seeds, "set_started": [], "workloads": {}}
    ok = True
    # a set covers every workload, so a workload's sets lie a set's time apart
    sets_of = {wl: [] for wl in workloads}
    for _ in range(args.sets):
        summary["set_started"].append(time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        for wl in workloads:
            runs = []
            for seed in seeds:
                run = run_once(wl, seed, seconds)
                env = {k: v for k, v in run["env"].items() if k not in RUN_FIELDS}
                if env0 is None:
                    env0 = env
                elif env != env0:
                    raise RuntimeError(f"environment changed between runs: {env0} vs {env}")
                if not run["result"]["correct"]:
                    ok = False
                runs.append(run)
                print(f"{wl} seed {seed}: {run['wall_s']:.1f} s  " + "  ".join(
                    f"{k}={v['value']:.5g}" for k, v in run["result"]["metrics"].items()),
                    flush=True)
            sets_of[wl].append(runs)
    for wl, sets in sets_of.items():
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["result"]["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            row = {"bound": bound, "sets": stats}
            widest = max(s["spread"] for s in stats)
            verdict = "ok" if widest < bound / 3 else "WIDE" if widest <= bound else "OVER"
            if len(stats) > 1:
                row["drift"] = max(_worse_by(a["median"], b["median"], metric["better"])
                                   for a, b in itertools.permutations(stats, 2))
                if row["drift"] > bound:
                    verdict = "DRIFT"
            row["verdict"] = verdict
            rows[name] = row
            print(f"  {wl:10s} {name:12s} " + "  ".join(
                f"median {s['median']:.5g} spread {s['spread']:.3f}" for s in stats)
                + (f"  drift {row['drift']:.3f}" if "drift" in row else "")
                + f"  bound {bound} -> {verdict}", flush=True)
        summary["workloads"][wl] = {
            "metrics": rows,
            "runs": [[{"seed": r["seed"], "wall_s": r["wall_s"],
                       "attempted": r["result"]["attempted"],
                       "failed": r["result"]["failed"],
                       **{k: v["value"] for k, v in r["result"]["metrics"].items()}}
                      for r in runs] for runs in sets]}
    summary["env"] = env0
    out = Path(args.out) if args.out else HERE / "out" / "sweep.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"summary written to {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
