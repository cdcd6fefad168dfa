"""In-memory span recorder and the layer wrappers of the traced run.

The benchmark never edits the package: `instrument` swaps module
attributes (every binding of a layer function in the slidoc modules, so
`from .integrator import integrate` in verify.py is caught as well as
`slidoc.integrate`) for thin wrappers, and puts the originals back on
exit.  A span wrapper records name, start, end, parent and op id; a count
wrapper only bumps a counter on the innermost open span.  np.linalg.solve
is counted the same way, so each solve is attributed to the layer that
issued it.

Every thread keeps its own span stack.  The wrapper of run_adjoints makes
its span the parent of spans that pool worker threads open on an empty
stack, so concurrent sweeps nest under the call that started them
without mixing their stacks.
"""

from __future__ import annotations

import csv
import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

SOLVES = "linalg_solves"


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "thread", "counts")

    def __init__(self, index, name, parent, op, thread):
        self.index = index
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.counts = {}
        self.start = time.perf_counter()
        self.end = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Spans of one traced pass, kept in memory until `write`."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._adopter = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._adopter
        span = Span(next(self._ids), name, parent, self.op, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def adopting(self, span: Span):
        """Make `span` the parent of spans opened on empty stacks."""
        previous, self._adopter = self._adopter, span
        try:
            yield
        finally:
            self._adopter = previous

    def count(self, key: str, k: int = 1):
        """Add to a counter of the innermost span open on this thread; only
        that thread writes to it, so no lock is needed."""
        stack = self._stack()
        if not stack:
            raise RuntimeError(f"count {key!r} outside any span")
        counts = stack[-1].counts
        counts[key] = counts.get(key, 0) + k

    def write(self, path):
        """One CSV row per span; parent is the parent's index or -1."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "op", "name", "thread", "start_s", "end_s", "parent"])
            t0 = min((s.start for s in self.spans), default=0.0)
            for s in sorted(self.spans, key=lambda s: s.index):
                out.writerow([s.index, s.op, s.name, s.thread,
                              f"{s.start - t0:.9f}", f"{s.end - t0:.9f}",
                              -1 if s.parent is None else s.parent.index])


# ---------------------------------------------------------------------------
# result hooks: counts read from what a layer function returns


def _committed_steps(span, traj):
    span.counts["integrator.committed_steps"] = traj.K


def _flagged(span, report):
    span.counts["verify.flagged_entries"] = len(report.flagged)


def _iterations(span, result):
    span.counts["optimizer.iterations"] = len(result.history)


def _trials(span, result):
    span.counts["optimizer.line_search.trials"] = result[3]


def _qp_iterations(span, result):
    span.counts["optimizer.qp_iterations"] = result[2].iterations


def _penalty_raises(span, result):
    span.counts["optimizer.penalty_raises"] = result[6]


# (metric name, defining module, attribute, hook).  A span wrapper goes on
# every binding of the function in the slidoc modules.
SPANS = [
    ("integrator.integrate", "slidoc.integrator", "integrate", _committed_steps),
    ("integrator.step_ode", "slidoc.integrator", "step_ode", None),
    ("integrator.step_sliding", "slidoc.integrator", "step_sliding", None),
    ("integrator.locate_event", "slidoc.integrator", "locate_event", None),
    ("model.filippov_jacobians", "slidoc.model", "filippov_jacobians", None),
    ("adjoint.run_adjoints", "slidoc.adjoint", "run_adjoints", None),
    ("adjoint.run_adjoint", "slidoc.adjoint", "run_adjoint", None),
    ("adjoint.step_transformed", "slidoc.adjoint", "adjoint_step_transformed", None),
    ("adjoint.step_sliding", "slidoc.adjoint", "adjoint_step_sliding", None),
    ("gradient.reduced_gradient", "slidoc.gradient", "reduced_gradient", None),
    ("verify.fd_gradient", "slidoc.verify", "fd_gradient", _flagged),
    ("optimizer.optimize", "slidoc.optimizer", "optimize", _iterations),
    ("optimizer.line_search", "slidoc.optimizer", "line_search", _trials),
    ("optimizer.solve_direction", "slidoc.optimizer", "solve_direction", _qp_iterations),
    ("optimizer.adjust_penalty", "slidoc.optimizer", "adjust_penalty", _penalty_raises),
    ("cli.main", "slidoc.cli", "main", None),
    ("config.canonical_json", "slidoc.config", "canonical_json", None),
]

# (metric name, defining module, attribute, calling modules or None for all).
# The step assemblies are counted per caller: the adjoint sweep builds each
# sliding step once and gradient.py builds it again.
COUNTS = [
    ("model.alpha.calls", "slidoc.model", "alpha", None),
    ("tableau.adjoint_tableau.calls", "slidoc.tableau", "adjoint_tableau", None),
    ("adjoint.assemble.calls", "slidoc.adjoint", "assemble_ode_step_matrices", ["slidoc.adjoint"]),
    ("adjoint.assemble.calls", "slidoc.adjoint", "assemble_sliding_step_matrices", ["slidoc.adjoint"]),
    ("gradient.assemble.calls", "slidoc.adjoint", "assemble_ode_step_matrices", ["slidoc.gradient"]),
    ("gradient.assemble.calls", "slidoc.adjoint", "assemble_sliding_step_matrices", ["slidoc.gradient"]),
]


def _span_wrapper(rec: Recorder, name: str, fn, hook):
    adopt = name == "adjoint.run_adjoints"

    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            if adopt:
                with rec.adopting(span):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, result)
            return result
        finally:
            rec.close(span)

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(rec: Recorder, key: str, fn):
    def wrapper(*args, **kwargs):
        rec.count(key)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _slidoc_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "slidoc" or name.startswith("slidoc.")) and mod is not None]


@contextmanager
def instrument(rec: Recorder):
    """Wrap the layer functions for the duration of the block."""
    modules = _slidoc_modules()
    by_name = {mod.__name__: mod for mod in modules}
    saved = []

    def patch(mod, attr, wrapper):
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def bindings(original, callers):
        pool = modules if callers is None else [by_name[c] for c in callers]
        for mod in pool:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    yield mod, attr

    try:
        for key, modname, attr, callers in COUNTS:
            # an assembly counted for two callers is wrapped once per caller
            original = getattr(by_name[modname], attr)
            original = getattr(original, "__wrapped__", original)
            wrapper = _count_wrapper(rec, key, original)
            for mod, name in bindings(original, callers):
                patch(mod, name, wrapper)
        for name, modname, attr, hook in SPANS:
            original = getattr(by_name[modname], attr)
            wrapper = _span_wrapper(rec, name, original, hook)
            for mod, bound in bindings(original, None):
                patch(mod, bound, wrapper)
        solve = np.linalg.solve

        def counted_solve(*args, **kwargs):
            rec.count(SOLVES)
            return solve(*args, **kwargs)

        patch(np.linalg, "solve", counted_solve)
        yield rec
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans) -> dict:
    """Self time per span index: duration minus the union of the
    intervals its children cover (children on pool threads overlap)."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent.index, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.index, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.index] = (s.end - s.start) - covered
    return out


def _has_ancestor(span, name) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from one traced pass.

    Keys are the BENCHMARK.json per_layer names; values are (value, unit).
    """
    own = self_times(spans)
    m = {}
    for name, *_ in SPANS:
        m[f"{name}.calls"] = (0, "count")
        m[f"{name}.self_s"] = (0.0, "s")
    for key in dict.fromkeys(key for key, *_ in COUNTS):
        m[key] = (0, "count")
    for key in ("integrator.committed_steps", "verify.flagged_entries",
                "optimizer.iterations", "optimizer.line_search.trials",
                "optimizer.qp_iterations", "optimizer.penalty_raises",
                "integrator.linalg_solves", "adjoint.linalg_solves",
                "verify.probe_integrations"):
        m[key] = (0, "count")

    def add(key, v):
        m[key] = (m[key][0] + v, m[key][1])

    opt_integrations = 0
    for s in spans:
        if f"{s.name}.calls" in m:
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.self_s", own[s.index])
        for key, v in s.counts.items():
            if key == SOLVES:
                key = f"{s.layer}.{SOLVES}"
                if key not in m:
                    continue
            add(key, v)
        if s.name == "integrator.integrate":
            if _has_ancestor(s, "verify.fd_gradient"):
                add("verify.probe_integrations", 1)
            if _has_ancestor(s, "optimizer.optimize"):
                opt_integrations += 1

    steps = m["integrator.step_ode.calls"][0] + m["integrator.step_sliding.calls"][0]
    m["integrator.step_yield"] = (
        m["integrator.committed_steps"][0] / steps if steps else 0.0, "ratio")
    iters = m["optimizer.iterations"][0]
    m["optimizer.integrations_per_iter"] = (opt_integrations / iters if iters else 0.0, "ratio")
    m["adjoint.run_adjoints.wall_s"] = (
        sum(s.end - s.start for s in spans if s.name == "adjoint.run_adjoints"), "s")
    m["adjoint.run_adjoint.busy_s"] = (
        sum(s.end - s.start for s in spans if s.name == "adjoint.run_adjoint"), "s")
    return m
