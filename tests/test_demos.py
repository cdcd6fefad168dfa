"""The scripts in demos/, run as the README runs them: each exits 0 and
prints something, so a change that breaks one (demos 01 and 02 print the
transition records and the jump records) shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script):
    assert len(DEMOS) == 5
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
