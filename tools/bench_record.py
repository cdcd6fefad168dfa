"""Write a root BENCH_<n>.json: parent vs change, counts and paired times.

    python3 tools/bench_record.py --parent PARENT_CHECKOUT --out BENCH_8.json

PARENT_CHECKOUT is a copy of the parent commit (`git clone` or
`git archive`); the change is the checkout holding this script.  For
every workload of BENCHMARK.json the record holds the result of
`benchmarks/run.py --seed 1 --seconds 0 --trace 1` in both trees (the
per-layer counts are deterministic; the times in it are one noisy
sample) and PAIRS interleaved `--trace 0` runs of the benchmark's
run_seconds each, parent and change back to back with the order swapped
every pair and seeds 1, 2, ... in turn.  The summary gives, per workload
and end-to-end metric, the median of each side, the parent's quartiles
and how many pairs the change won.  Both trees run with the same Python.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmarks/run.py run in tree; returns its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(pairs: list, spec: list) -> dict:
    out = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        q1, _, q3 = statistics.quantiles(old, n=4)
        out[name] = {"parent_median": statistics.median(old),
                     "change_median": statistics.median(new),
                     "parent_q1": q1, "parent_q3": q3,
                     "change_wins": wins, "pairs": len(pairs), "better": m["better"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    traced, paired = {}, {}
    for wl in spec["workloads"]:
        name = wl["name"]
        traced[name] = {side: bench(tree, name, 1, 0, 1) for side, tree in trees.items()}
        print(f"traced {name}", file=sys.stderr)
        runs = []
        for i in range(PAIRS):
            seed = i + 1
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench(trees[side], name, seed, seconds, 0)
            runs.append(pair)
            print(f"{name} pair {i + 1}/{PAIRS} (seed {seed})", file=sys.stderr)
        paired[name] = {"runs": runs, "summary": summary(runs, spec["end_to_end"])}
    record = {"python": sys.version.split()[0], "seconds": seconds,
              "traced_seed1": traced, "pairs": paired}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
