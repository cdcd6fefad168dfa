"""Tableau closed forms, order conditions, and the adjoint transform.

The expected entries are carried as (p, q) pairs meaning p + q*sqrt(6)
and combined in exact rational arithmetic, so the oracle is independent
of the float expressions inside the package.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidoc.errors import ZeroWeight
from slidoc.tableau import (RADAU_IIA, RADAU_IIA_EIGVALS, RADAU_IIA_T, RADAU_IIA_TINV,
                            ButcherTableau, adjoint_tableau, check_conditions, radau_iia_3)

SQRT6 = math.sqrt(6.0)


def _val(pair):
    return float(pair[0]) + float(pair[1]) * SQRT6

def _mul(a, b):
    return (a[0] * b[0] + 6 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

def _div(a, b):
    den = b[0] * b[0] - 6 * b[1] * b[1]
    num = _mul(a, (b[0], -b[1]))
    return (num[0] / den, num[1] / den)


# closed forms of the 3-stage scheme, as (rational, coefficient of sqrt(6))
A_PAIRS = [
    [(F(11, 45), F(-7, 360)), (F(37, 225), F(-169, 1800)), (F(-2, 225), F(1, 75))],
    [(F(37, 225), F(169, 1800)), (F(11, 45), F(7, 360)), (F(-2, 225), F(-1, 75))],
    [(F(4, 9), F(-1, 36)), (F(4, 9), F(1, 36)), (F(1, 9), F(0))],
]
B_PAIRS = [(F(4, 9), F(-1, 36)), (F(4, 9), F(1, 36)), (F(1, 9), F(0))]
C_PAIRS = [(F(2, 5), F(-1, 10)), (F(2, 5), F(1, 10)), (F(1), F(0))]


def test_radau_iia_3_closed_forms():
    tab = radau_iia_3()
    for i in range(3):
        for j in range(3):
            assert tab.A[i, j] == pytest.approx(_val(A_PAIRS[i][j]), abs=1e-15)
        assert tab.b[i] == pytest.approx(_val(B_PAIRS[i]), abs=1e-15)
        assert tab.c[i] == pytest.approx(_val(C_PAIRS[i]), abs=1e-15)
    assert tab.s == 3
    assert tab.stiffly_accurate


def test_radau_iia_3_orders():
    rep = check_conditions(radau_iia_3())
    assert (rep.p, rep.q, rep.r) == (5, 3, 2)
    # every residual of a satisfied condition is tight, not borderline
    for label in ("B1", "B2", "B3", "B4", "B5", "C1", "C2", "C3", "D1", "D2"):
        assert rep.residuals[label] <= 1e-12, label


def test_adjoint_tableau_orders():
    rep = check_conditions(adjoint_tableau(radau_iia_3()))
    assert (rep.p, rep.q, rep.r) == (5, 2, 3)


def test_adjoint_tableau_closed_forms():
    """The transform of the closed forms, done in exact arithmetic, must
    match the float tableau to near machine precision."""
    adj = adjoint_tableau(radau_iia_3())
    for i in range(3):
        for j in range(3):
            pair = _div(_mul(A_PAIRS[j][i], B_PAIRS[j]), B_PAIRS[i])
            assert adj.A[i, j] == pytest.approx(_val(pair), abs=1e-13)
        assert adj.b[i] == pytest.approx(_val(B_PAIRS[i]), abs=1e-13)
        assert adj.c[i] == pytest.approx(1.0 - _val(C_PAIRS[i]), abs=1e-13)


def test_adjoint_tableau_spot_values():
    # a couple of entries frozen as literals, independent of the pair
    # arithmetic above
    adj = adjoint_tableau(radau_iia_3())
    assert adj.A[1, 1] == pytest.approx(11 / 45 + 7 * SQRT6 / 360, abs=1e-15)
    assert adj.A[1, 1] == pytest.approx(0.29207341166522843, abs=1e-16)
    assert adj.A[2, 0] == pytest.approx(-1 / 18 + SQRT6 / 18, abs=1e-15)
    assert adj.A[0, 1] == pytest.approx(11 / 45 + 43 * SQRT6 / 360, abs=1e-15)
    assert adj.A[:, 2] == pytest.approx([1 / 9, 1 / 9, 1 / 9], abs=1e-15)


def test_backward_euler_conditions():
    tab = ButcherTableau(A=np.array([[1.0]]), b=np.array([1.0]),
                         c=np.array([1.0]), name="backward-euler")
    rep = check_conditions(tab)
    # D(1) reads sum_i b_i a_ij = b_j (1 - c_j); with c = 1 the right side
    # vanishes while the left is 1, so r stays at 0
    assert (rep.p, rep.q, rep.r) == (1, 1, 0)
    assert rep.residuals["D1"] == pytest.approx(1.0)


def test_zero_weight_rejected():
    tab = ButcherTableau(A=np.array([[0.5, 0.0], [0.5, 0.0]]),
                         b=np.array([1.0, 0.0]),
                         c=np.array([0.5, 0.5]), name="degenerate")
    with pytest.raises(ZeroWeight):
        adjoint_tableau(tab)


def test_inconsistent_tableau_shapes_rejected():
    """A needs shape (s, s) and c shape (s,) for the s weights of b."""
    for A, c in ((np.eye(2), np.ones(3)), (np.eye(3), np.ones(2))):
        with pytest.raises(ValueError, match="inconsistent tableau shapes"):
            ButcherTableau(A=A, b=np.full(3, 1.0 / 3.0), c=c)


@st.composite
def tableaus(draw):
    s = draw(st.integers(min_value=1, max_value=4))
    elems = st.floats(min_value=-2.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False)
    A = np.array(draw(st.lists(st.lists(elems, min_size=s, max_size=s),
                               min_size=s, max_size=s)))
    b = np.array(draw(st.lists(elems.filter(lambda v: abs(v) > 1e-3),
                               min_size=s, max_size=s)))
    c = A.sum(axis=1)
    return ButcherTableau(A=A, b=b, c=c, name="random")


@given(tableaus())
@settings(max_examples=60, deadline=None)
def test_adjoint_transform_is_an_involution(tab):
    twice = adjoint_tableau(adjoint_tableau(tab))
    assert np.allclose(twice.A, tab.A, atol=1e-12)
    assert np.allclose(twice.b, tab.b, atol=1e-12)
    assert np.allclose(twice.c, tab.c, atol=1e-12)


@given(tableaus())
@settings(max_examples=60, deadline=None)
def test_adjoint_transform_keeps_weights_and_reflects_nodes(tab):
    adj = adjoint_tableau(tab)
    assert np.allclose(adj.b, tab.b, atol=0)
    assert np.allclose(adj.c, 1.0 - tab.c, atol=0)


def test_tableau_arrays_are_frozen():
    tab = radau_iia_3()
    with pytest.raises(ValueError):
        tab.A[0, 0] = 0.0


def test_eigenbasis_literals_rebuild_from_a():
    """The stored A = T diag(lambda) T^-1 agrees with np.linalg.eig of
    A: the same eigenvalues in the same order (the real one, then the
    pair with positive imaginary part first), eigenvectors scaled to end
    in 1, and T^-1 the inverse of T, all to a few ulps."""
    A = RADAU_IIA.A
    lam, V = np.linalg.eig(A)
    order = sorted(range(3), key=lambda i: (abs(lam[i].imag) > 0, -lam[i].imag))
    lam, V = lam[order], V[:, order]
    assert np.abs(RADAU_IIA_EIGVALS - lam).max() <= 1e-15
    assert np.abs(RADAU_IIA_T - V / V[-1]).max() <= 1e-14
    assert np.abs(RADAU_IIA_TINV - np.linalg.inv(V / V[-1])).max() <= 1e-13
    assert np.abs(RADAU_IIA_T @ np.diag(RADAU_IIA_EIGVALS) @ RADAU_IIA_TINV - A).max() <= 1e-15
    assert np.abs(RADAU_IIA_T @ RADAU_IIA_TINV - np.eye(3)).max() <= 1e-15
    # the real eigenvalue's column and row are real, the pair's conjugate
    assert RADAU_IIA_EIGVALS[0].imag == 0 and not RADAU_IIA_T[:, 0].imag.any()
    assert not RADAU_IIA_TINV[0].imag.any()
    assert np.array_equal(RADAU_IIA_T[:, 2], RADAU_IIA_T[:, 1].conj())
    assert np.array_equal(RADAU_IIA_TINV[2], RADAU_IIA_TINV[1].conj())
    assert RADAU_IIA_EIGVALS[2] == RADAU_IIA_EIGVALS[1].conjugate()
