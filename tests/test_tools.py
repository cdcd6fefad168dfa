"""Smoke tests of the scripts in tools/: each runs as a user would run
it or is loaded from its file, so a spy that no longer matches the code
it counts, or a grid that lost a case, shows here."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, name: str):
    """The module of a Python file, loaded from the file as is."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def identity_grid():
    """tools/identity_grid.py, loaded from its file as is."""
    return load(ROOT / "tools" / "identity_grid.py", "_identity_grid")


def drawn_survey():
    """tools/drawn_survey.py, loaded from its file as is."""
    return load(ROOT / "tools" / "drawn_survey.py", "_drawn_survey")


def test_chain_scaling_counts_solves_and_factorizations():
    """tools/chain_scaling.py at n = 4, one timed call: chain-4 (seed 1,
    8 steps per interval) takes 81 steps, 57 of them sliding.  Forward,
    95 Newton solves, all eigenbasis, that factor 17 block pairs (14 of
    them inside locate_event) and invert 2; backward, 81 eigenbasis
    solves that factor 4 block pairs and invert 2."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "chain_scaling.py"),
                           "--n", "4", "--k", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| 4 |")]
    assert len(rows) == 1
    cells = [cell.strip() for cell in rows[0].strip("|").split("|")]
    n, steps, ms, faults, *counts = cells
    assert steps == "81 (57)" and float(ms) > 0.0 and float(faults) >= 0.0
    assert counts == ["95", "0", "17 + 2", "14", "81", "0", "4 + 2"]


def test_identity_grid_names_and_hashes_its_cases():
    """tools/identity_grid.py, on which every bit-identity claim rests:
    cases() yields 152 uniquely named cases.  Hashing chattering/cap1
    while cases() holds it (the generator patches the transition cap
    around that yield) records its ChatteringLimit at a cap of 1, and the
    patch is gone once the generator moves on.  Hashing chain-4/seed1
    (N = 10, 8 steps per interval) gives a sha256 of the trajectory's
    four arrays, of the six arrays of phi on both backends and of the FD
    report, and the same digests on a second run."""
    tool = identity_grid()
    cases = {}
    for key, *case in tool.cases():
        assert key not in cases
        cases[key] = case
        if key == "chattering/cap1":
            out = tool._case(*case, {})
            assert out == {"error": "ChatteringLimit: more than 1 transitions in "
                                    "control interval 5"}
    assert len(cases) == 152
    assert tool.integrator_mod.MAX_TRANSITIONS_PER_INTERVAL == 100
    arrays = {}
    out = tool._case(*cases["chain-4/seed1"], arrays)
    assert sorted(out) == sorted(["x", "stages_x", "stages_z", "z_node"] + [
        f"{backend}/phi/{name}" for backend in tool.BACKENDS
        for name in ("lam", "lam_g", "grad", "pi", "nu1", "stage_lams")]
        + ["fd/entries", "fd/flags", "fd/errors"])
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in out.values())
    assert sorted(arrays) == sorted([*out, "transitions"])
    assert tool._case(*cases["chain-4/seed1"], {}) == out


def test_identity_grid_cli_cases_count_41_outputs_and_8_error_paths():
    """tools/identity_grid.py --cli: its cases write 41 outputs, and eight
    error paths exit nonzero.  The three non-finite inputs (a config
    file with a NaN, --eps inf, an h of inf) each exit 1 with one JSON
    line, like the other domain errors, and no case lets an exception
    through main."""
    report = identity_grid().cli_report()
    errors = {key: entry for key, entry in report.items() if entry["exit"] != 0}
    assert sum(len(e) - 1 - ("stderr" in e) for e in report.values()) == 41
    assert sorted(errors) == sorted(
        ["error/no-problem", "error/functional-range", "error/no-out", "error/out-is-sidecar",
         "error/out-dir-missing", "error/nan-config", "error/eps-inf", "error/h-inf"])
    assert errors.pop("error/no-out")["exit"] == 2
    for key, entry in errors.items():
        assert entry["exit"] == 1, key
        assert entry["stderr"].count("\n") == 1 and "error" in json.loads(entry["stderr"])
    assert json.loads(errors["error/nan-config"]["stderr"])["error"] == "ParseError"
    assert json.loads(errors["error/eps-inf"]["stderr"])["field"] == "eps"
    assert json.loads(errors["error/h-inf"]["stderr"])["field"] == "h"


def test_drawn_survey_counts_outcomes_and_tables_the_gradient_checks():
    """tools/drawn_survey.py on seeds 222 (NoBracket at 8 steps per
    interval) and 183 (entry and exit at located nodes): one run
    integrates, one raises, and the one with transitions has its
    gradient_check rel in the lowest decade, counted as an exit run; it
    breaks no invariant.  A run that broke some is listed with the first
    it broke.  Run as a script on seed 183 alone, it prints the same
    table under a header that names its options."""
    tool = drawn_survey()
    opts = tool.IntegratorOptions()
    result = tool.survey([222, 183], 8, 1e-6, opts)
    assert result["outcomes"] == {"integrate": 1, "NoBracket": 1}
    assert result["violations"] == []
    ((seed, kinds, rel, flagged),) = result["checked"]
    assert (seed, kinds, flagged) == (183, ["EnterSliding", "ExitToF1"], False)
    assert rel < 1e-8
    text = tool.report(result, "head")
    assert text.splitlines()[:3] == [
        "head", "outcomes: integrate 1, NoBracket 1",
        "runs with a transition: 1; with an FD entry flagged: 0; every entry flagged: 0"]
    assert "| < 1e-8 | 1 | 1 |" in text and "runs at or above 1e-6: 0" in text
    assert text.endswith(f"worst seeds:\n  183: rel {rel:.2e} EnterSliding, ExitToF1\n\n"
                         "runs breaking an invariant: 0\n")
    broken = dict(result, violations=[(183, ["step 4: sliding node with g = 1.000e-08",
                                             "node 5: sliding is followed by below"])])
    assert tool.report(broken, "head").endswith(
        "runs breaking an invariant: 1\n"
        "  183: step 4: sliding node with g = 1.000e-08 (and 1 more)\n")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "drawn_survey.py"),
                           "--seeds", "183-183", "--spi", "8", "--eps", "1e-6",
                           "--event-tol", "1e-10"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "drawn problems, seeds 183-183, spi 8, eps 1e-06, event_tol 1e-10"
    assert lines[1] == "outcomes: integrate 1" and "| < 1e-8 | 1 | 1 |" in lines


UNTESTED_SAMPLE = '''"""A module docstring."""
import math


def sign(x):
    """A docstring."""
    if x > 0:
        return 1
    elif x < 0:
        return -1
    total = (x +
             0)
    return total


def safe(x):
    try:
        return 1 / x
    except ZeroDivisionError:
        return None


class Box:
    size = math.pi
'''


def test_untested_lists_the_statements_a_run_never_reached(tmp_path):
    """tools/untested.py on a throwaway package: after loading the module
    and calling sign(0) and safe(1), the statements left are the two
    returns of sign's first branches and safe's handler.  The docstrings,
    the import, the defs, a try whose body ran, and a statement that
    spans two lines all count as run or are not listed."""
    tool = load(ROOT / "tools" / "untested.py", "_untested")
    pkg = (tmp_path / "pkg").resolve()
    pkg.mkdir()
    (pkg / "sample.py").write_text(UNTESTED_SAMPLE)

    def run():
        module = load(pkg / "sample.py", "_untested_sample")
        return module.sign(0), module.safe(1)

    result, hits = tool.trace(pkg, run)
    assert result == (0, 1.0)
    missed = tool.unrun(pkg, hits)
    assert [(path.name, line, text) for path, line, text in missed] == [
        ("sample.py", 8, "return 1"), ("sample.py", 10, "return -1"),
        ("sample.py", 20, "return None")]
    listed = [line for line, _, _ in tool.statements(pkg / "sample.py")]
    assert listed == [7, 8, 9, 10, 11, 13, 17, 18, 20, 24]
