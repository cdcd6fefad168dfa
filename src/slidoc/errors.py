"""Error taxonomy.

Every failure mode that callers are expected to distinguish gets its own
class.  All of them derive from SlidocError, which carries an optional
payload dict so the CLI can serialize diagnostics without string parsing.
"""

from __future__ import annotations

import math
import sys

import numpy as np


class SlidocError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.message = message
        self.payload = dict(payload)

    def to_dict(self) -> dict:
        d = {"error": type(self).__name__, "message": self.message}
        d.update(self.payload)
        return d


# ---- tableau / linear algebra ----

class ZeroWeight(SlidocError):
    """A quadrature weight b_i is zero; the adjoint transform is undefined."""


class SingularSystem(SlidocError):
    """A linear system that must be nonsingular failed to factor."""


class SingularTerminalSystem(SlidocError):
    """g_x vanishes where the sweep projects its start values at tf onto
    the surface or recovers the algebraic multiplier lam_g."""


class SingularJumpSystem(SlidocError):
    """The adjoint jump at an event node is degenerate: E_x Phi_h, the
    event function's rate along the step, is within eps_tan of zero."""


# ---- model evaluation ----

class DegenerateDenominator(SlidocError):
    """g_x (f1 - f2) is too small to form the sliding convex weight."""


class TangentialAmbiguity(SlidocError):
    """Vector-field signs at the surface are too close to zero to classify
    the transition.  Reported, never guessed over."""


class DimensionMismatch(SlidocError):
    """Array shapes are inconsistent with the declared problem dimensions."""


# ---- integration ----

class NewtonDivergence(SlidocError):
    """Stage Newton iteration did not meet tolerance within the cap."""


class SingularIteration(SlidocError):
    """Newton matrix in the stage solve failed to factor."""


class NoBracket(SlidocError):
    """Event localization could not bracket a sign change."""


class ChatteringLimit(SlidocError):
    """Transition count within one control interval exceeded the cap."""


class MeshMismatch(SlidocError):
    """Forward and adjoint data refer to different meshes."""


# ---- optimizer ----

class QPFailure(SlidocError):
    """Direction-finding QP did not reach the required KKT residual."""


class CFailure(SlidocError):
    """Penalty growth cap hit without achieving a descent certificate."""


class LineSearchFailure(SlidocError):
    """Armijo backtracking cap hit without sufficient decrease."""


# ---- verification ----

class ReferenceUnconverged(SlidocError):
    """Self-convergence reference solutions disagree above tolerance."""


# ---- configuration / CLI ----

class ParseError(SlidocError):
    """Input file is not syntactically valid."""


class ValidationError(SlidocError):
    """Input parsed but violates a constraint; message carries the field path."""


class OutputError(SlidocError):
    """An output file could not be written; the payload's path names it."""


def is_count(v) -> bool:
    """An int or numpy integer >= 1; a bool is not a count."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def is_number(v, nested: bool = False) -> bool:
    """Whether v is a finite real number that a float holds (a bool is
    none) or, if nested, a list, tuple or real array of such values with
    one length per level."""
    if isinstance(v, np.ndarray):
        return nested and v.dtype.kind in "iuf" and bool(np.isfinite(v).all())
    if isinstance(v, (list, tuple)):
        return nested and all(is_number(item, True) for item in v) \
            and len({np.shape(item) for item in v}) <= 1
    return (isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


# (rule text, check) pairs that check_fields rules share
POSITIVE = ("> 0", lambda v: v > 0)
COUNT = ("an integer >= 1", is_count)


def check_fields(obj, rules) -> None:
    """Raise ValidationError naming the first field of obj that is not a
    finite real number (bools are not) or breaks its rule; rules holds
    (field, rule text, check) triples."""
    for key, rule, ok in rules:
        v = getattr(obj, key)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValidationError(f"{key}: must be a finite number, got {v!r}", field=key)
        if not (is_number(v) and ok(v)):
            raise ValidationError(f"{key}: must be {rule}, got {v!r}", field=key)
