"""Smoke tests of the scripts in tools/: each runs as a user would run
it, so a spy that no longer matches the code it counts shows here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_chain_scaling_counts_solves_and_factorizations():
    """tools/chain_scaling.py at n = 4, one timed call: chain-4 (seed 1,
    8 steps per interval) takes 81 steps, 57 of them sliding.  Forward,
    96 Newton solves, all eigenbasis, each one LU; backward, 81
    eigenbasis solves that factor 4 block pairs and invert 2."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "chain_scaling.py"),
                           "--n", "4", "--k", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| 4 |")]
    assert len(rows) == 1
    cells = [cell.strip() for cell in rows[0].strip("|").split("|")]
    n, steps, ms, faults, *counts = cells
    assert steps == "81 (57)" and float(ms) > 0.0 and float(faults) >= 0.0
    assert counts == ["96", "0", "96 + 0", "81", "0", "4 + 2"]
