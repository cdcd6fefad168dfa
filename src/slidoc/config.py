"""Run configuration: flat JSON file, defaults, validation, hashing.

A config file is a single flat JSON object: RunConfig's own keys and the
fields of the IntegratorOptions and OptimizerConfig it holds.  Every key
is optional except that most subcommands need a problem name from
somewhere (file or flag).  Unknown keys and numbers beyond a float (NaN,
Infinity, 1e400) are refused so typos fail loudly, and a RunConfig that
exists is valid: it checks itself when built.  The effective config
(defaults filled, flag overrides applied) is what gets hashed into the
meta block of every output, so identical runs are provably identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import __version__
from .errors import COUNT, POSITIVE, ParseError, ValidationError, check_fields
from .integrator import IntegratorOptions
from .optimizer import OptimizerConfig


# (field, rule, check) for the keys RunConfig checks itself; the
# integrator and optimizer options check their own
_RULES = [("eps", *POSITIVE), ("N", *COUNT), ("steps_per_interval", *COUNT)]
_OPTIONS = {"integrator": IntegratorOptions, "optimizer": OptimizerConfig}
# the problem overrides RunConfig checks when set, each with whether it
# may be a nested list; get_problem checks shapes and the control box
_OVERRIDES = {"t0": False, "tf": False, "x0": True, "u": True, "u_lo": True, "u_hi": True}


def _numbers(v, nested: bool) -> bool:
    """Whether v is a finite real number (a bool is none) or, if nested,
    a list of such values with one length per level."""
    if isinstance(v, list):
        return nested and all(_numbers(item, True) for item in v) \
            and len({np.shape(item) for item in v}) <= 1
    return (isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and math.isfinite(v))


@dataclass(frozen=True)
class RunConfig:
    problem: Optional[str] = None
    # problem overrides
    x0: Optional[list] = None
    t0: Optional[float] = None
    tf: Optional[float] = None
    N: int = 10
    u: Optional[object] = None           # number, [N] or [N][m]
    u_lo: Optional[object] = None        # number or [m]
    u_hi: Optional[object] = None
    steps_per_interval: int = 8
    integrator: IntegratorOptions = IntegratorOptions()
    optimizer: OptimizerConfig = OptimizerConfig()
    # oracle / functional selection
    functional: str = "phi"
    eps: float = 1e-6

    def __post_init__(self):
        for key, kind in _OPTIONS.items():
            if not isinstance(getattr(self, key), kind):
                raise ValidationError(f"{key}: must be an {kind.__name__}", field=key)
        check_fields(self, _RULES)
        for key, nested in _OVERRIDES.items():
            v = getattr(self, key)
            if v is not None and not _numbers(v, nested):
                rule = "a finite number" + (" or a nested list of them" if nested else "")
                raise ValidationError(f"{key}: must be {rule}, got {v!r}", field=key)
        if self.t0 is not None and self.tf is not None and not self.tf > self.t0:
            raise ValidationError(f"tf: must be > t0 = {self.t0!r}, got {self.tf!r}", field="tf")
        if not re.fullmatch(r"phi|g1:\d+|g2:\d+", self.functional):
            raise ValidationError(
                f"functional: expected phi, g1:i or g2:j, got {self.functional!r}",
                field="functional")
        if self.problem is not None:
            from .problems import problem_names
            if self.problem not in problem_names():
                raise ValidationError(
                    f"problem: unknown name {self.problem!r}; known: "
                    f"{', '.join(problem_names())}", field="problem")

    def overrides(self) -> dict:
        out = {"N": self.N}
        for key in _OVERRIDES:
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        return out

    def config_hash(self) -> str:
        flat = asdict(self)     # hashed as the flat keys of a config file
        for key in _OPTIONS:
            flat.update(flat.pop(key))
        return hashlib.sha256(canonical_json(flat).encode("utf-8")).hexdigest()

    def meta(self) -> dict:
        return {"tool": "slidoc", "version": __version__,
                "config_hash": self.config_hash(),
                "tolerances": asdict(self.integrator)}


# the keys of a config file besides the option objects' fields
_FIELDS = set(RunConfig.__dataclass_fields__) - set(_OPTIONS)


def _finite(literal: str, kind=float):
    """json.load's hook for every number literal: NaN, Infinity, 1e400 and
    an integer beyond the range of a float are refused."""
    if not math.isfinite(float(literal)):
        raise ValueError(f"non-finite number {literal} is not allowed")
    return kind(literal)


def parse_config(path: Optional[str], flag_overrides: Optional[dict] = None) -> RunConfig:
    """One RunConfig of a config file's keys (none without a file) with
    the flags that are not None on top, each key going to the object that
    has it as a field.  Malformed JSON is a ParseError carrying line and
    column, a non-finite number one naming the file; unknown or ill-typed
    keys are ValidationErrors naming the key."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh, parse_float=_finite, parse_constant=_finite,
                                parse_int=lambda literal: _finite(literal, int))
        except OSError as exc:
            raise ParseError(f"{path}: {exc.strerror or exc}", path=str(path))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}",
                             path=str(path), line=exc.lineno, column=exc.colno)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", path=str(path))
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: top level must be a JSON object", path=str(path))
    own = {**raw, **{k: v for k, v in (flag_overrides or {}).items() if v is not None}}
    parts = {key: {f.name: own.pop(f.name) for f in fields(kind) if f.name in own}
             for key, kind in _OPTIONS.items()}
    for key in own:
        if key not in _FIELDS:
            raise ValidationError(f"{key}: unknown config key", field=key)
    return RunConfig(integrator=IntegratorOptions(**parts["integrator"]),
                     optimizer=OptimizerConfig(**parts["optimizer"]), **own)


# ---------------------------------------------------------------------------
# canonical serialization: sorted keys, floats at full precision, no
# whitespace, so equal values give equal bytes (and equal hashes)


def format_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {v!r} in output")
    return "%.17g" % v


def canonical_json(value) -> str:
    parts: list[str] = []
    _emit(value, parts)
    return "".join(parts)


def _emit(v, parts: list):
    if v is None:
        parts.append("null")
    elif isinstance(v, bool) or isinstance(v, np.bool_):
        parts.append("true" if v else "false")
    elif isinstance(v, (int, np.integer)):
        parts.append(str(int(v)))
    elif isinstance(v, (float, np.floating)):
        parts.append(format_float(float(v)))
    elif isinstance(v, str):
        parts.append(json.dumps(v, ensure_ascii=True))
    elif isinstance(v, dict):
        parts.append("{")
        for i, key in enumerate(sorted(v)):
            if not isinstance(key, str):
                raise ValueError(f"non-string key {key!r} in output")
            if i:
                parts.append(",")
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(":")
            _emit(v[key], parts)
        parts.append("}")
    elif isinstance(v, (list, tuple)) or isinstance(v, np.ndarray):
        parts.append("[")
        for i, item in enumerate(v):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise ValueError(f"cannot serialize {type(v).__name__} to JSON")
