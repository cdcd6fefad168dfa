"""The benchmark's workloads: inputs built from the seed, the op, its gate.

See `Workload` for the interface run.py relies on.
"""

from __future__ import annotations

import json

import numpy as np

from chain import chain_problem


def _rel_gap(got: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm difference relative to max(|ref|_inf, 1e-3), the floor
    gradient_check uses for near-zero gradients."""
    return float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), 1e-3)


class Workload:
    """`ops` are the inputs of one pass, in the order they run; `warmup` is
    the untimed op of the set-up, chosen independent of the seed so that
    set-up time is too.  `run(op)` is the timed operation and raises
    SlidocError on a typed failure.  `check(i, output)` is op i's gate, run
    outside the timed window; it returns None or why the output is wrong.
    `check_run()` holds gates that belong to the workload, not to one op.
    """

    def check_run(self) -> list:
        return []


class Optimize(Workload):
    """`slidoc optimize` in-process on constrained-toy from seeded u0."""

    # iteration counts vary with u0, so one pass holds enough starting
    # points for its median to be much the same for every seed
    N, SPI, INPUTS = 10, 8, 12
    F0_EXPECTED, F0_TOL = 0.36, 1e-6

    def __init__(self, sd, seed: int, workdir):
        self.sd = sd
        rng = np.random.default_rng([seed, 0])
        self.ops = [self._files(workdir, f"s{seed}-u{i}", rng.uniform(-1.0, 1.0, self.N))
                    for i in range(self.INPUTS)]
        self.warmup = self._files(workdir, f"s{seed}-default", None)

    def _files(self, workdir, tag, u0):
        """Write the config for one op; returns (config path, output path)."""
        cfg = {"problem": "constrained-toy", "N": self.N, "steps_per_interval": self.SPI}
        if u0 is not None:
            cfg["u"] = [float(v) for v in u0]
        path = workdir / f"optimize-{tag}.json"
        path.write_text(json.dumps(cfg))
        return str(path), str(workdir / f"optimize-{tag}-out.json")

    def run(self, op):
        cfg, out = op
        rc = self.sd.cli.main(["optimize", "--config", cfg, "--out", out])
        if rc != 0:
            # the CLI turns a SlidocError into exit code 1
            raise self.sd.SlidocError(f"slidoc optimize exited with code {rc}")
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        return res["status"], res["history"][-1]["F0"]

    def check(self, i, output):
        status, F0 = output
        if status != "stationary":
            return f"status {status!r}"
        if abs(F0 - self.F0_EXPECTED) > self.F0_TOL:
            return f"F0 = {F0!r}, expected {self.F0_EXPECTED}"
        return None


class FdCheck(Workload):
    """gradient_check on the sliding problems, default and perturbed u.

    The default slide-exit op aborts with TangentialAmbiguity (a probe
    lands on a tangential exit); it stays in the list and counts as failed.
    """

    PROBLEMS = ("p2-sliding", "p2-steered", "slide-exit")
    N, SPI, REL_TOL = 10, 8, 1e-6

    def __init__(self, sd, seed: int, workdir):
        self.sd = sd
        rng = np.random.default_rng([seed, 1])
        defaults, perturbed = [], []
        for name in self.PROBLEMS:
            ocp, grid = sd.get_problem(name, {"N": self.N})
            defaults.append((ocp, grid))
            u = grid.values + rng.uniform(-0.1, 0.1, grid.values.shape)
            perturbed.append((ocp, grid.with_values(np.clip(u, ocp.u_lo, ocp.u_hi))))
        self.ops = defaults + perturbed
        self.warmup = self.ops[0]

    def run(self, op):
        ocp, grid = op
        return self.sd.gradient_check(ocp, grid, self.SPI)

    def check(self, i, chk):
        if chk.rel is None:
            return "every entry flagged"
        if not chk.rel <= self.REL_TOL:
            return f"rel = {chk.rel:.3e} above {self.REL_TOL:.0e}"
        return None


class GradSweep(Workload):
    """integrate + run_adjoints over every functional + reduced_gradient
    for each, on all five built-ins with seeded controls in the box."""

    N, SPI, INPUTS, REL_TOL = 20, 16, 4, 1e-9

    def __init__(self, sd, seed: int, workdir):
        self.sd = sd
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        for _ in range(self.INPUTS):
            for name in sd.problem_names():
                ocp, grid = sd.get_problem(name, {"N": self.N})
                u = rng.uniform(ocp.u_lo, ocp.u_hi, (self.N, ocp.m))
                self.ops.append((ocp, grid.with_values(u), [ocp.phi, *ocp.g1, *ocp.g2]))
        ocp, grid = sd.get_problem("constrained-toy", {"N": self.N})
        self.warmup = (ocp, grid, [ocp.phi, *ocp.g1, *ocp.g2])
        self._oracle = {}

    def run(self, op):
        sd = self.sd
        ocp, grid, functionals = op
        traj = sd.integrate(ocp, grid, self.SPI)
        adjs = sd.run_adjoints(ocp, traj, grid, functionals)
        return [sd.reduced_gradient(ocp, traj, grid, adj) for adj in adjs]

    def check(self, i, grads):
        if i not in self._oracle:
            sd = self.sd
            ocp, grid, functionals = self.ops[i]
            traj = sd.integrate(ocp, grid, self.SPI)
            self._oracle[i] = [sd.reduced_gradient_matrix(ocp, traj, grid, w)
                               for w in functionals]
        ocp, _, functionals = self.ops[i]
        for w, got, ref in zip(functionals, grads, self._oracle[i]):
            gap = _rel_gap(got, ref)
            if not gap <= self.REL_TOL:
                return f"{ocp.name} {w.name}: matrix route differs by {gap:.3e}"
        return None


class Chain64(Workload):
    """integrate + run_adjoint + reduced_gradient on chain-n at n = 64,
    where the dense stage solves dominate."""

    n, N, SPI, INPUTS, REL_TOL = 64, 10, 8, 4, 1e-9
    SMALL_N, FD_TOL = 4, 1e-6

    def __init__(self, sd, seed: int, workdir):
        self.sd = sd
        self.ops = [chain_problem(self.n, np.random.default_rng([seed, 3, i]), self.N)
                    for i in range(self.INPUTS)]
        self.small = chain_problem(self.SMALL_N, np.random.default_rng([seed, 3, 0]), self.N)
        self.warmup = chain_problem(self.n, np.random.default_rng([0, 3]), self.N)
        self._oracle = {}

    def run(self, op):
        sd = self.sd
        ocp, grid = op
        traj = sd.integrate(ocp, grid, self.SPI)
        adj = sd.run_adjoint(ocp, traj, grid, ocp.phi)
        grad = sd.reduced_gradient(ocp, traj, grid, adj)
        return traj.transition_kinds(), traj.terminal_mode, grad

    def check(self, i, output):
        sd = self.sd
        kinds, mode, grad = output
        if kinds != ["EnterSliding"] or mode is not sd.Mode.SLIDING:
            return f"expected to enter sliding and stay, got {kinds} ending {mode.value}"
        if i not in self._oracle:
            ocp, grid = self.ops[i]
            traj = sd.integrate(ocp, grid, self.SPI)
            self._oracle[i] = sd.reduced_gradient_matrix(ocp, traj, grid, ocp.phi)
        gap = _rel_gap(grad, self._oracle[i])
        if not gap <= self.REL_TOL:
            return f"matrix route differs by {gap:.3e}"
        return None

    def check_run(self):
        ocp, grid = self.small
        try:
            chk = self.sd.gradient_check(ocp, grid, self.SPI)
        except self.sd.SlidocError as exc:
            return [f"chain-{self.SMALL_N} gradient_check raised {type(exc).__name__}: {exc}"]
        if chk.rel is None or not chk.rel <= self.FD_TOL:
            return [f"chain-{self.SMALL_N} adjoint vs FD: rel = {chk.rel}"]
        return []


WORKLOADS = {
    "optimize": Optimize,
    "fd-check": FdCheck,
    "grad-sweep": GradSweep,
    "chain-64": Chain64,
}
