"""Write a root BENCH_<n>.json: parent vs change, counts and paired times.

    mkdir -p /tmp/bench/p /tmp/bench/c
    git archive PARENT_COMMIT | tar -x -C /tmp/bench/p
    git archive CHANGE_COMMIT | tar -x -C /tmp/bench/c
    python3 tools/bench_record.py --parent /tmp/bench/p --change /tmp/bench/c \
        --out BENCH_<n>.json

Both sides run from `git archive` exports of their commits, never from a
working checkout, and from root paths of equal length; the script
refuses trees whose root paths differ in length or that hold a
`__pycache__` directory.  A working checkout carries bytecode from
earlier runs, which imports faster than a fresh export compiles (8-10
ms of `setup_s`), and a longer root path alone moves `peak_rss_mb` by
0.2-0.3 MB; either would show as a difference the change did not make.
For every workload of BENCHMARK.json the record holds the result of
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

PAIRS = 10


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmarks/run.py run in tree; returns its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_trees(trees: dict) -> str:
    """Why the two trees cannot be compared, or '' when they can."""
    if len(str(trees["parent"])) != len(str(trees["change"])):
        return (f"root paths differ in length ({trees['parent']}, {trees['change']}); "
                "export both sides to paths of equal length")
    for side, tree in trees.items():
        if not (tree / "benchmarks" / "run.py").is_file():
            return f"{side} tree {tree} has no benchmarks/run.py"
        cached = next(tree.rglob("__pycache__"), None)
        if cached is not None:
            return f"{side} tree holds {cached}; run from a fresh git archive export"
    return ""


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
    p.add_argument("--parent", required=True, type=Path, help="export of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="export of the change")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    problem = check_trees(trees)
    if problem:
        p.error(problem)
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
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
