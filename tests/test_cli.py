"""Command-line surface: every subcommand in process, output layout,
config handling, exit codes, and rerun determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slidoc
from slidoc.cli import _write, main
from slidoc.config import RunConfig, canonical_json, parse_config
from slidoc.errors import ParseError, ValidationError
from slidoc.integrator import IntegratorOptions
from slidoc.optimizer import OptimizerConfig


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_text()


# ---------------------------------------------------------------------------
# subcommands


def test_simulate_csv_and_sidecar(tmp_path):
    out = tmp_path / "traj.csv"
    assert run("simulate", "--problem", "p2-sliding", "--out", str(out)) == 0
    lines = read(out).splitlines()
    assert lines[0] == "k,t,mode,x0,x1,z,g(x),alpha"
    assert lines[1].startswith("0,0,below,")
    assert lines[1].endswith(",")          # alpha column empty off the surface
    side = json.loads(read(tmp_path / "traj.json"))
    assert side["meta"]["tool"] == "slidoc"
    kinds = [t["kind"] for t in side["transitions"]]
    assert kinds == ["EnterSliding"]
    assert side["transitions"][0]["t_t"] == pytest.approx(0.5 / 1.2, abs=1e-8)
    # sliding rows report the blend weight
    assert lines[-1].split(",")[2] == "sliding"
    assert lines[-1].split(",")[-1] != ""


def test_adjoint_csv_and_sidecar(tmp_path):
    out = tmp_path / "adj.csv"
    assert run("adjoint", "--problem", "slide-exit", "--out", str(out)) == 0
    lines = read(out).splitlines()
    assert lines[0] == "k,t,lambda0,lambda1,lambda_g"
    side = json.loads(read(tmp_path / "adj.json"))
    assert side["nu1"] is None            # endpoint is off the surface
    # the exit sits on the breakpoint t = 0.9, a fixed time: no jump
    assert [j["pi"] for j in side["jumps"]] == [pytest.approx(0.0, abs=1e-10), 0.0]


def test_gradient_json(tmp_path):
    out = tmp_path / "grad.json"
    assert run("gradient", "--problem", "smooth-linear", "--out", str(out)) == 0
    doc = json.loads(read(out))
    assert doc["functional"] == "phi"
    assert len(doc["grad"]) == 10          # default N
    assert "config_hash" in doc["meta"]


def test_gradient_constraint_functional(tmp_path):
    out = tmp_path / "g.json"
    assert run("gradient", "--problem", "constrained-toy",
               "--functional", "g1:0", "--out", str(out)) == 0
    assert json.loads(read(out))["functional"] == "g1:0"


def test_check_gradient(tmp_path):
    out = tmp_path / "chk.json"
    assert run("check-gradient", "--problem", "smooth-linear",
               "--steps-per-interval", "4", "--out", str(out)) == 0
    doc = json.loads(read(out))
    assert doc["rel"] <= 1e-5
    assert doc["flagged"] == []


@pytest.mark.parametrize("problem", slidoc.problem_names())
def test_check_gradient_returns_json_on_every_problem(tmp_path, problem):
    out = tmp_path / "chk.json"
    assert run("check-gradient", "--problem", problem, "--out", str(out)) == 0
    doc = json.loads(read(out))
    assert doc["rel"] <= 1e-6
    assert doc["probe_errors"] == []
    # slide-exit's u_5 - 1e-6 probe moves its exit across the breakpoint
    # t = 0.9, so that entry is flagged; no probe raises
    assert doc["flagged"] == ([[5, 0]] if problem == "slide-exit" else [])


def test_optimize_outputs(tmp_path):
    out = tmp_path / "run.json"
    hist = tmp_path / "hist.csv"
    assert run("optimize", "--problem", "constrained-toy",
               "--out", str(out), "--history-csv", str(hist)) == 0
    doc = json.loads(read(out))
    assert doc["status"] == "stationary"
    assert doc["converged"] is True
    assert len(doc["u"]) == 10
    assert read(hist).splitlines()[0] == "k,F0,M,c,sigma,alpha"


def test_verify_orders(tmp_path):
    out = tmp_path / "ord.json"
    assert run("verify-orders", "--problem", "smooth-linear",
               "--quantity", "state_endpoint", "--h", "0.1,0.05",
               "--out", str(out)) == 0
    doc = json.loads(read(out))
    assert doc["quantity"] == "state_endpoint"
    assert 4.0 <= doc["slope"] <= 6.0


@pytest.mark.parametrize("quantity", ["state_stage", "adjoint_stage"])
def test_verify_orders_stage_quantities_on_a_coarse_ladder(tmp_path, quantity):
    """h = 0.1, 0.05 is a valid ladder for the stage quantities; a
    reference 8 times finer than 0.05 is too coarse for them (16/32 and
    128/256 steps per interval once refused), so the study deepens its
    reference until it agrees to 1e-12 instead of exiting 1."""
    out = tmp_path / "ord.json"
    assert run("verify-orders", "--problem", "smooth-linear", "--quantity", quantity,
               "--h", "0.1,0.05", "--out", str(out)) == 0
    doc = json.loads(read(out))
    assert doc["reference_gap"] <= 1e-12 and len(doc["errors"]) == 2


def test_tableau_check_stdout(capsys):
    assert run("tableau-check") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["radau_iia"]["p"], doc["radau_iia"]["q"],
            doc["radau_iia"]["r"]) == (5, 3, 2)
    assert (doc["adjoint"]["p"], doc["adjoint"]["q"],
            doc["adjoint"]["r"]) == (5, 2, 3)
    # conditions inside the claimed orders hold tightly; the report also
    # carries the first violated ones, which are what pin p/q/r down
    res = doc["radau_iia"]["residuals"]
    assert all(res[f"B{k}"] <= 1e-12 for k in range(1, 6))
    assert all(res[f"C{k}"] <= 1e-12 for k in range(1, 4))
    assert all(res[f"D{k}"] <= 1e-12 for k in range(1, 3))
    assert res["C4"] > 1e-6


@pytest.mark.parametrize("module", ["slidoc", "slidoc.cli"])
def test_module_entry_points_run_the_cli(tmp_path, module):
    """`python -m slidoc` and `python -m slidoc.cli` both run main and
    pass its exit code on."""
    env = dict(os.environ)
    src = str(Path(slidoc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "g.json"
    done = subprocess.run(
        [sys.executable, "-m", module, "check-gradient", "--problem",
         "smooth-linear", "--steps-per-interval", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(read(out))["rel"] <= 1e-6
    bad = subprocess.run([sys.executable, "-m", module, "simulate", "--problem",
                          "no-such-problem", "--out", str(tmp_path / "x.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == 1
    assert json.loads(bad.stderr.splitlines()[-1])["error"] == "ValidationError"


# ---------------------------------------------------------------------------
# output files


def test_rewrite_leaves_exactly_the_shorter_text(tmp_path):
    """A shorter text written over a longer one leaves no tail of the
    old one."""
    out = tmp_path / "o.json"
    _write(str(out), "x" * 5000 + "\n")
    _write(str(out), "é short\n")
    assert out.read_bytes() == "é short\n".encode("utf-8")
    _write(str(out), "longer again\n")
    assert out.read_bytes() == b"longer again\n"


def test_out_to_dev_stdout_through_a_pipe(tmp_path):
    """--out /dev/stdout writes to a pipe and gives the same bytes as
    a file."""
    env = dict(os.environ)
    src = str(Path(slidoc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "t.json"
    done = subprocess.run([sys.executable, "-m", "slidoc", "tableau-check", "--out",
                           "/dev/stdout"], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert run("tableau-check", "--out", str(out)) == 0
    assert done.stdout == out.read_bytes()


# ---------------------------------------------------------------------------
# exit codes


def test_domain_error_is_exit_1(tmp_path, capsys):
    rc = run("simulate", "--problem", "no-such-problem",
             "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValidationError"


@pytest.mark.parametrize("command", ["simulate", "adjoint"])
@pytest.mark.parametrize("out", ["{d}/traj.json", "/"])
def test_out_that_is_its_own_sidecar_is_refused(tmp_path, capsys, command, out):
    """An --out ending in .json would be overwritten by its sidecar, and
    one with no file name has no sidecar name: the run is refused with a
    ValidationError naming out, and nothing is written."""
    rc = run(command, "--problem", "p2-sliding", "--out", out.replace("{d}", str(tmp_path)))
    assert rc == 1 and list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValidationError" and doc["field"] == "out"


@pytest.mark.parametrize("argv, failing", [
    (["simulate", "--problem", "p2-sliding", "--out", "{d}/nodir/traj.csv"],
     "{d}/nodir/traj.csv"),
    (["adjoint", "--problem", "p2-sliding", "--out", "{d}/adj.csv"], "{d}/adj.json"),
    (["tableau-check", "--out", "{d}/nodir/t.json"], "{d}/nodir/t.json"),
    (["optimize", "--problem", "constrained-toy", "--out", "{d}/run.json",
      "--history-csv", "{d}/nodir/hist.csv"], "{d}/nodir/hist.csv"),
])
def test_unwritable_output_is_a_one_line_error(tmp_path, capsys, argv, failing):
    """An output that cannot be written (--out or --history-csv in a
    directory that does not exist, a sidecar whose path is a directory)
    ends the run with exit 1 and an OutputError that carries the path,
    not a traceback."""
    (tmp_path / "adj.json").mkdir()
    rc = run(*[a.replace("{d}", str(tmp_path)) for a in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "OutputError" and doc["path"] == failing.replace("{d}", str(tmp_path))


def test_usage_errors_are_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("no-such-command")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--problem", "p2-sliding")    # --out missing
    assert exc.value.code == 2
    for steps in ("0.1,x", ","):    # a bad and an empty step list
        with pytest.raises(SystemExit) as exc:
            run("verify-orders", "--problem", "smooth-linear", "--quantity", "gradient",
                "--h", steps, "--out", str(tmp_path / "o.json"))
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_problem(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"problem": "p2-sliding", "N": 4}')
    out = tmp_path / "t.csv"
    assert run("simulate", "--config", str(cfgp), "--out", str(out)) == 0
    # N=4 intervals at the default 8 steps each, plus one split node
    # where the entry event lands inside a step
    side = json.loads(read(tmp_path / "t.json"))
    assert len(read(out).splitlines()) == 1 + 4 * 8 + 1 + len(side["transitions"])


def test_flags_override_config(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"problem": "smooth-linear", "steps_per_interval": 8}')
    out = tmp_path / "t.csv"
    assert run("simulate", "--config", str(cfgp), "--problem", "p2-sliding",
               "--steps-per-interval", "2", "--out", str(out)) == 0
    side = json.loads(read(tmp_path / "t.json"))
    assert side["transitions"]    # the flag-selected problem slides
    assert len(read(out).splitlines()) == 1 + 10 * 2 + 1 + len(side["transitions"])


def test_config_overrides_the_problem(tmp_path):
    """x0, t0 and tf in a config file replace the problem's own."""
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"problem": "smooth-linear", "x0": [0.25, -0.5], "t0": 1, "tf": 2}')
    out = tmp_path / "t.csv"
    assert run("simulate", "--config", str(cfgp), "--out", str(out)) == 0
    rows = read(out).splitlines()
    assert rows[1].startswith("0,1,") and rows[1].split(",")[3:5] == ["0.25", "-0.5"]
    assert rows[-1].split(",")[1] == "2"


def test_config_validation_failures(tmp_path, capsys):
    for body, field in [('{"problem": "p2-sliding", "N": 0}', "N"),
                        ('{"problem": "constrained-toy", "eta": 1.5}', "eta"),
                        ('{"problem": "p2-sliding", "bogus": 1}', "bogus"),
                        ('{"problem": "p2-sliding", "functional": "psi"}', "functional"),
                        ('{"problem": "p2-sliding", "event_tol": 1e-6}', "event_tol")]:
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(body)
        rc = run("simulate", "--config", str(cfgp),
                 "--out", str(tmp_path / "x.csv"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert doc["field"] == field


@pytest.mark.parametrize("key, value", [("newton_tol", 0), ("surface_tol", -1),
                                        ("eps_den", -1), ("eps_tan", "1e-10"),
                                        ("eps", 0), ("steps_per_interval", 1.5)])
def test_config_tolerance_failures_name_the_field(tmp_path, key, value):
    """The config refuses a bad tolerance with the integrator's own check,
    and the error names the config key."""
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(json.dumps({"problem": "p2-sliding", key: value}))
    with pytest.raises(ValidationError) as exc:
        parse_config(str(cfgp))
    assert exc.value.to_dict()["field"] == key


@pytest.mark.parametrize("key, value", [
    ("t0", float("nan")), ("tf", [1.0]), ("x0", "abc"), ("x0", [True, 0.0]),
    ("u", object()), ("u", [[0.1], [float("inf")]]), ("u_lo", [[0.0], [1.0, 2.0]]),
    ("u_hi", np.bool_(True))])
def test_run_config_checks_its_problem_overrides(key, value):
    """A set override must be a finite real number (t0, tf) or a nested
    list of them with one length per level (x0, u, u_lo, u_hi); a bool
    or a str is none.  meta() of such a config used to raise an untyped
    ValueError from the serializer."""
    with pytest.raises(ValidationError) as exc:
        RunConfig(**{key: value})
    assert exc.value.payload == {"field": key}
    assert str(exc.value).startswith(f"{key}: must be a finite number")


def test_run_config_needs_tf_above_t0():
    """tf must lie above t0 when both are set; shapes and the control box
    are left to get_problem, which knows n, m and N."""
    with pytest.raises(ValidationError) as exc:
        RunConfig(t0=1, tf=1.0)
    assert exc.value.payload == {"field": "tf"}
    cfg = RunConfig(x0=[0.25, -0.5, 1.0], t0=np.float64(0.5), tf=2, u=[0.1], u_lo=-1)
    with pytest.raises(ValidationError) as exc:
        slidoc.get_problem("smooth-linear", cfg.overrides())
    assert exc.value.payload == {"field": "overrides.x0"}


def test_tableau_check_refuses_a_bad_override(tmp_path, capsys):
    """tableau-check builds no problem, yet its config still checks x0:
    it exits 1 with one JSON line naming the key."""
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"x0": "abc"}')
    assert run("tableau-check", "--config", str(cfgp)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ValidationError"
    assert json.loads(err)["field"] == "x0"


def test_params_is_an_unknown_key(tmp_path):
    """Keys sit at the top level; a nested "params" object is refused
    like any other unknown key."""
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"problem": "p2-sliding", "params": {"N": 4}}')
    with pytest.raises(ValidationError) as exc:
        parse_config(str(cfgp))
    assert exc.value.to_dict()["field"] == "params"


@pytest.mark.parametrize("body, message", [(None, "No such file"),
                                           ('["p2-sliding"]', "top level must be a JSON object")])
def test_unreadable_config_is_a_parse_error(tmp_path, capsys, body, message):
    """A missing file and a top level that is not an object are refused
    as a ParseError naming the file, exit 1 with one JSON line."""
    cfgp = tmp_path / "c.json"
    if body is not None:
        cfgp.write_text(body)
    assert run("simulate", "--config", str(cfgp), "--out", str(tmp_path / "t.csv")) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and doc["path"] == str(cfgp)
    assert message in doc["message"]


def test_malformed_config_reports_position(tmp_path):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text('{"problem": "p2-sliding",\n  "N": }')
    with pytest.raises(ParseError) as exc:
        parse_config(str(cfgp))
    d = exc.value.to_dict()
    assert d["line"] == 2 and d["column"] >= 1


@pytest.mark.parametrize("body", [
    '{"problem": "p2-sliding", "x0": [NaN, -0.5]}', '{"problem": "p2-sliding", "u": NaN}',
    '{"problem": "p2-sliding", "tf": Infinity}', '{"problem": "p2-sliding", "newton_tol": Infinity}',
    '{"problem": "p2-sliding", "u_hi": Infinity}', '{"problem": "p2-sliding", "u_lo": -Infinity}',
    '{"problem": "p2-sliding", "x0": [1e400, -0.5]}',
    '{"problem": "p2-sliding", "tf": 1' + '0' * 400 + '}'],
    ids=["x0-nan", "u-nan", "tf-inf", "newton_tol-inf", "u_hi-inf", "u_lo-minus-inf",
         "x0-1e400", "tf-1e400-int"])
def test_non_finite_config_literal_is_a_parse_error(tmp_path, capsys, body):
    """Python's json reads NaN and Infinity, which are not JSON numbers,
    a float beyond the double range as inf and an integer of any size,
    which no float holds; a config holding one is refused as a ParseError
    naming the file, exit 1 with one JSON line, before anything runs or
    is written."""
    cfgp = tmp_path / "c.json"
    cfgp.write_text(body)
    out = tmp_path / "t.csv"
    assert run("simulate", "--config", str(cfgp), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and doc["path"] == str(cfgp)
    assert "non-finite number" in doc["message"]
    assert sorted(tmp_path.iterdir()) == [cfgp]


@pytest.mark.parametrize("problem", ["smooth-linear", "constrained-toy"])
def test_domain_error_with_a_nan_payload_is_one_json_line(tmp_path, problem):
    """x0 = (1e308, 1e308) is finite, but the first step overflows and
    its Newton iteration stalls with residual nan.  The NewtonDivergence
    exits 1 with one JSON line on stderr (numpy's overflow warnings
    included), its residual written as the text "nan" that canonical
    JSON has no number for, and writes nothing."""
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"problem": problem, "x0": [1e308, 1e308]}))
    out = tmp_path / "t.csv"
    done = subprocess.run([sys.executable, "-m", "slidoc", "simulate", "--config", str(cfgp),
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(slidoc.__file__).resolve().parents[1])})
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    doc = json.loads(done.stderr)
    assert doc["error"] == "NewtonDivergence" and doc["residual"] == "nan"
    assert sorted(tmp_path.iterdir()) == [cfgp]


@pytest.mark.parametrize("argv, field", [
    (["check-gradient", "--problem", "p2-sliding", "--eps", "inf"], "eps"),
    (["check-gradient", "--problem", "p2-sliding", "--eps", "nan"], "eps"),
    (["verify-orders", "--problem", "smooth-linear", "--quantity", "gradient",
      "--h", "inf,0.1"], "h"),
])
def test_non_finite_flag_is_a_validation_error(tmp_path, capsys, argv, field):
    """argparse reads inf and nan as floats; an --eps or an h that is not
    a finite number is refused with exit 1 and one JSON line naming the
    field, not a traceback."""
    out = tmp_path / "t.json"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValidationError" and doc["field"] == field
    assert "finite number" in doc["message"]
    assert not out.exists()


def test_run_config_checks_itself_when_built(tmp_path):
    """A RunConfig that exists is valid: a bad value raises when it is
    built.  parse_config builds one config of the file's keys with the
    flags on top, so a flag overrides a bad file value."""
    with pytest.raises(ValidationError) as exc:
        RunConfig(eps=0)
    assert exc.value.payload["field"] == "eps"
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"kappa": 1.0}')
    with pytest.raises(ValidationError) as exc:
        parse_config(str(cfgp))
    assert exc.value.payload["field"] == "kappa"
    with pytest.raises(ValidationError) as exc:
        RunConfig(eps=float("inf"))
    assert exc.value.payload["field"] == "eps"
    cfgp.write_text('{"problem": "p2-sliding", "eps": 0, "steps_per_interval": 1.5}')
    with pytest.raises(ValidationError):
        parse_config(str(cfgp))
    cfg = parse_config(str(cfgp), {"eps": 1e-5, "steps_per_interval": 2, "problem": None})
    assert (cfg.problem, cfg.eps, cfg.steps_per_interval) == ("p2-sliding", 1e-5, 2)


# the flags each subcommand needs besides --out
NEEDS = {"simulate": [], "adjoint": [], "gradient": [], "check-gradient": [],
         "optimize": [], "verify-orders": ["--quantity", "state_endpoint", "--h", "0.1,0.05"]}


def test_missing_problem_everywhere(tmp_path, capsys):
    """Every subcommand but tableau-check refuses to run without a
    problem, and writes nothing."""
    for command, flags in NEEDS.items():
        out = tmp_path / "x.csv"
        assert run(command, *flags, "--out", str(out)) == 1, command
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValidationError" and doc["field"] == "problem"
        assert not out.exists()


# per subcommand: its own flags, the overrides they stand for, and where
# the document lands (a sidecar for the CSV writers); the config's N = 4
# makes each control interval 0.25 long
OVERRIDDEN = {
    "simulate": (["--steps-per-interval", "2"], {"steps_per_interval": 2}, "t.json"),
    "adjoint": (["--functional", "g2:0", "--steps-per-interval", "2"],
                {"functional": "g2:0", "steps_per_interval": 2}, "t.json"),
    "gradient": (["--functional", "g1:0"], {"functional": "g1:0"}, "t.csv"),
    "check-gradient": (["--eps", "1e-5", "--steps-per-interval", "2"],
                       {"eps": 1e-5, "steps_per_interval": 2}, "t.csv"),
    "optimize": ([], {}, "t.csv"),
    "verify-orders": (["--functional", "g1:0", "--quantity", "state_endpoint",
                       "--h", "0.125,0.0625"], {"functional": "g1:0"}, "t.csv"),
    "tableau-check": ([], {}, "t.csv"),
}


@pytest.mark.parametrize("command", sorted(OVERRIDDEN))
def test_every_document_hashes_the_effective_config(tmp_path, command):
    """Each subcommand's document carries the hash of the config file
    with its flags applied, --problem among them."""
    flags, overrides, doc_name = OVERRIDDEN[command]
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"problem": "smooth-linear", "N": 4}')
    assert run(command, "--config", str(cfgp), "--problem", "constrained-toy", *flags,
               "--out", str(tmp_path / "t.csv")) == 0
    meta = json.loads(read(tmp_path / doc_name))["meta"]
    effective = parse_config(str(cfgp), {"problem": "constrained-toy", **overrides})
    assert meta["config_hash"] == effective.config_hash()
    assert meta["config_hash"] != parse_config(str(cfgp)).config_hash()


def test_config_hash_is_stable(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"problem": "p2-sliding"}')
    a = parse_config(str(cfgp)).config_hash()
    b = parse_config(str(cfgp)).config_hash()
    assert a == b and len(a) == 64
    # a changed setting must change the hash
    cfgp.write_text('{"problem": "p2-sliding", "N": 4}')
    assert parse_config(str(cfgp)).config_hash() != a


def test_config_defaults_are_the_integrator_defaults():
    """RunConfig takes its tolerance and optimizer defaults from
    IntegratorOptions and OptimizerConfig, so the CLI and the library
    integrate and optimize alike unless a config says otherwise."""
    assert RunConfig().integrator == IntegratorOptions()
    assert RunConfig().optimizer == OptimizerConfig()


def test_every_integrator_option_is_a_config_key(tmp_path):
    """Each IntegratorOptions and OptimizerConfig field is a flat config
    key that lands in its object; the three classes share no field name;
    the option objects themselves are not keys.  The meta block of every
    output carries exactly the five tolerances, so its bytes stay fixed."""
    names = {kind: [f.name for f in dataclasses.fields(kind)]
             for kind in (RunConfig, IntegratorOptions, OptimizerConfig)}
    assert len(set().union(*names.values())) == sum(map(len, names.values()))
    cfgp = tmp_path / "c.json"
    for kind, attr in ((IntegratorOptions, "integrator"), (OptimizerConfig, "optimizer")):
        for f in dataclasses.fields(kind):
            value = f.default + 1 if f.name == "max_iters" else f.default * 1.5
            cfgp.write_text(json.dumps({f.name: value}))
            cfg = parse_config(str(cfgp))
            assert getattr(cfg, attr) == kind(**{f.name: value}), f.name
        cfgp.write_text(json.dumps({attr: {}}))
        with pytest.raises(ValidationError) as exc:
            parse_config(str(cfgp))
        assert str(exc.value) == f"{attr}: unknown config key"
    assert sorted(RunConfig().meta()["tolerances"]) == sorted(
        ["newton_tol", "event_tol", "surface_tol", "eps_tan", "eps_den"])


def test_run_config_refuses_an_option_object_of_the_wrong_type():
    """A RunConfig holds an IntegratorOptions and an OptimizerConfig; any
    other value in either field is refused naming the field."""
    for attr, value in (("integrator", {"newton_tol": 1e-12}), ("optimizer", IntegratorOptions()),
                        ("integrator", None)):
        with pytest.raises(ValidationError) as exc:
            RunConfig(**{attr: value})
        assert exc.value.payload["field"] == attr


# every key a config file takes, each away from its default
EVERY_KEY = {"problem": "constrained-toy", "x0": [0.5, -0.25], "t0": 0.0, "tf": 2.0, "N": 4,
             "u": [0.1, 0.2, 0.3, 0.4], "u_lo": -1.5, "u_hi": 1.5, "steps_per_interval": 3,
             "newton_tol": 1e-11, "event_tol": 2e-10, "surface_tol": 3e-9, "eps_tan": 4e-10,
             "eps_den": 5e-12, "c0": 2.5, "kappa": 3.0, "gamma": 0.2, "eta": 0.25,
             "epsilon": 1e-7, "max_iters": 7, "h_scale": 0.5, "functional": "g1:0",
             "eps": 1e-5}


def test_config_hash_literals(tmp_path):
    """The hash covers the same flat key set whichever object holds a
    key, so the default config and one that sets every key hash as they
    always have."""
    assert RunConfig().config_hash() == (
        "19f8590739b4ed4e54d4ead3de06695476818e09f0ae5302fb04c82d403a3baf")
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(EVERY_KEY))
    assert parse_config(str(cfgp)).config_hash() == (
        "f513cc9cceae67861cfe30c222369e8744c0bccb0556df6e854f9b1adc991e74")


def test_config_max_iters_reaches_the_optimizer(tmp_path):
    """A config file's max_iters stops slidoc optimize after that many
    iterations (constrained-toy needs 6 to become stationary)."""
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"problem": "constrained-toy", "max_iters": 2}')
    out = tmp_path / "o.json"
    assert run("optimize", "--config", str(cfgp), "--out", str(out)) == 0
    doc = json.loads(read(out))
    assert doc["status"] == "max_iters" and len(doc["history"]) == 2


@pytest.mark.parametrize("body, field", [
    ({"newton_tol": 0, "kappa": 1, "eps": 0}, "newton_tol"),
    ({"eps": 0, "kappa": 1}, "kappa"),
    ({"N": 0, "max_iters": 0}, "max_iters"),
    ({"steps_per_interval": 0, "functional": "psi"}, "steps_per_interval"),
    ({"functional": "psi", "problem": "nope"}, "functional")])
def test_several_bad_keys_name_the_first_owner(tmp_path, body, field):
    """A config with several bad keys names a tolerance first, then an
    optimizer key, then eps, N or steps_per_interval, then functional,
    then problem: each option object checks itself before RunConfig."""
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(body))
    with pytest.raises(ValidationError) as exc:
        parse_config(str(cfgp))
    assert exc.value.payload["field"] == field


def test_numpy_integers_are_counts():
    """N, steps_per_interval and max_iters take numpy integers as the
    integrator and the problem overrides do, and a numpy N hashes like
    the same int; bools and numbers below 1 are still refused."""
    cfg = RunConfig(problem="p2-sliding", N=np.int64(4), steps_per_interval=np.int64(2))
    assert cfg.config_hash() == RunConfig(problem="p2-sliding", N=4,
                                          steps_per_interval=2).config_hash()
    assert OptimizerConfig(max_iters=np.int64(5)).max_iters == 5
    _, grid = slidoc.get_problem(cfg.problem, cfg.overrides())
    assert grid.N == 4
    for key, value in (("N", True), ("N", np.int64(0)), ("steps_per_interval", np.int32(-1))):
        with pytest.raises(ValidationError) as exc:
            RunConfig(**{key: value})
        assert str(exc.value) == f"{key}: must be an integer >= 1, got {value!r}"
    with pytest.raises(ValidationError) as exc:
        OptimizerConfig(max_iters=False)
    assert exc.value.payload["field"] == "max_iters"


# ---------------------------------------------------------------------------
# determinism


def test_reruns_are_byte_identical(tmp_path):
    a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    for out in (a1, a2):
        assert run("simulate", "--problem", "p2-sliding", "--out", str(out)) == 0
    assert a1.read_bytes() == a2.read_bytes()
    assert (tmp_path / "a1.json").read_bytes() == (tmp_path / "a2.json").read_bytes()

    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for out in (g1, g2):
        assert run("optimize", "--problem", "constrained-toy",
                   "--out", str(out)) == 0
    assert g1.read_bytes() == g2.read_bytes()


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'


def test_canonical_json_rejects_non_string_keys_and_unserializable_values():
    with pytest.raises(ValueError, match="non-string key 1 in output"):
        canonical_json({"a": {1: 2.0}})
    with pytest.raises(ValueError, match="cannot serialize set to JSON"):
        canonical_json({"a": [{1.0}]})
