"""Checks of the benchmark itself (not part of the package's test suite).

    python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import run
from chain import chain_problem
from spans import Recorder, instrument, layer_metrics, self_times
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sd():
    return run.load_slidoc()


def test_self_time_subtracts_the_union_of_children_and_pool_spans_adopt_the_caller():
    rec = Recorder()
    with rec.span("adjoint.run_adjoints") as outer:
        with rec.adopting(outer):
            def worker():
                with rec.span("adjoint.run_adjoint"):
                    time.sleep(0.05)

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        time.sleep(0.02)
    inner = [s for s in rec.spans if s.name == "adjoint.run_adjoint"]
    assert len(inner) == 2 and all(s.parent is outer for s in inner)
    assert len({s.thread for s in inner}) == 2
    own = self_times(rec.spans)
    lo = min(s.start for s in inner)
    hi = max(s.end for s in inner)
    assert own[outer.index] == pytest.approx((outer.end - outer.start) - (hi - lo), abs=1e-9)
    assert own[outer.index] >= 0.015


def test_instrument_restores_every_binding(sd):
    before = (sd.integrate, sd.integrator.step_ode, sd.verify.integrate,
              sd.gradient.assemble_sliding_step_matrices, np.linalg.solve)
    with instrument(Recorder()):
        assert sd.verify.integrate is not before[2]
        assert sd.verify.integrate is sd.integrate
    after = (sd.integrate, sd.integrator.step_ode, sd.verify.integrate,
             sd.gradient.assemble_sliding_step_matrices, np.linalg.solve)
    assert after == before


@pytest.mark.parametrize("seed", range(1, 21))
def test_chain_enters_sliding_and_stays(sd, seed):
    for i in range(WORKLOADS["chain-64"].INPUTS):
        ocp, grid = chain_problem(64, np.random.default_rng([seed, 3, i]))
        traj = sd.integrate(ocp, grid, 8)
        assert traj.transition_kinds() == ["EnterSliding"]
        assert traj.terminal_mode is sd.Mode.SLIDING


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_small_n_adjoint_gradient_matches_fd(sd, seed):
    ocp, grid = chain_problem(4, np.random.default_rng([seed, 3, 0]))
    chk = sd.gradient_check(ocp, grid, 8)
    assert chk.fd.flagged == []
    assert chk.rel <= 1e-6


def _counts(sd, workload, seed):
    wl = WORKLOADS[workload](sd, seed, run.OUT)
    _, _, rec = run.paired_pass(sd, wl)
    return {k: v for k, (v, unit) in layer_metrics(rec.spans).items()
            if unit in ("count", "ratio")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(sd, workload):
    run.OUT.mkdir(exist_ok=True)
    first = _counts(sd, workload, 7)
    second = _counts(sd, workload, 7)
    assert first == second
    assert first["integrator.integrate.calls"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_benchmark_json(capsys, trace):
    assert run.main(["--workload", "grad-sweep", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "grad-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
