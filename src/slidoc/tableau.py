"""Runge-Kutta coefficient tables and order-condition checks.

The integrator is built around the 3-stage Radau IIA collocation scheme,
built once at import as RADAU_IIA, and its stage solve around the
eigendecomposition A = T diag(gamma, alpha + i beta, alpha - i beta) T^-1
(RADAU_IIA_EIGVALS, RADAU_IIA_T, RADAU_IIA_TINV), stored as literals.
The discrete adjoint of a Runge-Kutta step is a step of the adjoint
equation in the reversed-time table

    a~_ij = a_ji * b_j / b_i,   b~_i = b_i,   c~_i = 1 - c_i,

which requires every weight b_i to be nonzero.  The backward sweep never
builds it (it solves with the transposed forward stage matrix, see
adjoint.py); adjoint_tableau serves the tests and `slidoc tableau-check`.
check_conditions measures the classical simplifying conditions B(p),
C(q), D(r) numerically so that both tables can be certified at runtime
instead of trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroWeight


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients (A, b, c) of an s-stage Runge-Kutta method.

    Arrays are frozen after construction; callers may share instances
    freely between threads.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str = "unnamed"

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float)
        c = np.array(self.c, dtype=float)
        s = b.shape[0]
        if A.shape != (s, s) or c.shape != (s,):
            raise ValueError(f"inconsistent tableau shapes: A {A.shape}, b {b.shape}, c {c.shape}")
        for arr in (A, b, c):
            arr.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def s(self) -> int:
        return self.b.shape[0]

    @property
    def stiffly_accurate(self) -> bool:
        return bool(np.all(self.A[-1] == self.b) and self.c[-1] == 1.0)


def radau_iia_3() -> ButcherTableau:
    """The 3-stage Radau IIA table (collocation at right-biased Radau points).

    Entries are exact closed forms in sqrt(6); the last row of A equals b
    and c_3 = 1, so the scheme is stiffly accurate.
    """
    r6 = np.sqrt(6.0)
    A = np.array([
        [11 / 45 - 7 * r6 / 360, 37 / 225 - 169 * r6 / 1800, -2 / 225 + r6 / 75],
        [37 / 225 + 169 * r6 / 1800, 11 / 45 + 7 * r6 / 360, -2 / 225 - r6 / 75],
        [4 / 9 - r6 / 36, 4 / 9 + r6 / 36, 1 / 9],
    ])
    b = np.array([4 / 9 - r6 / 36, 4 / 9 + r6 / 36, 1 / 9])
    c = np.array([2 / 5 - r6 / 10, 2 / 5 + r6 / 10, 1.0])
    return ButcherTableau(A, b, c, name="radau-iia-3")


def adjoint_tableau(tab: ButcherTableau) -> ButcherTableau:
    """Reversed-time table for the discrete adjoint recursion.

    Applying the transform twice returns the original table.  Raises
    ZeroWeight when any b_i vanishes, since a_ji b_j / b_i is then
    undefined.
    """
    b = tab.b
    small = np.abs(b) < 1e-14
    if np.any(small):
        idx = int(np.argmax(small))
        raise ZeroWeight(f"weight b[{idx}] = {b[idx]:.3e} is zero; adjoint table undefined",
                         index=idx)
    A_adj = tab.A.T * b[None, :] / b[:, None]
    return ButcherTableau(A_adj, b.copy(), 1.0 - tab.c, name=tab.name + "-adjoint")


RADAU_IIA = radau_iia_3()

# A = T diag(RADAU_IIA_EIGVALS) T^-1 for RADAU_IIA.A: one real eigenvalue
# gamma and the pair alpha +- i beta (Hairer & Wanner, Solving ODEs II,
# IV.8).  Column 0 of T (row 0 of T^-1) is real and the other two are
# conjugate, each column scaled to end in 1.  Literals, rounded from a
# 50-digit decomposition of the closed-form A: calling np.linalg.eig and
# inv at import adds about 1.6 MB to the peak RSS of a bare numpy process.
RADAU_IIA_EIGVALS = np.array([0.27488882959567734, 0.16255558520216132 + 0.1849493244071408j,
                              0.16255558520216132 - 0.1849493244071408j])
RADAU_IIA_T = np.array([
    [0.09443876248897524, -0.1412552950209542 - 0.030029194105147424j,
     -0.1412552950209542 + 0.030029194105147424j],
    [0.2502131229653333, 0.20412935229379994 + 0.3829421127572619j,
     0.20412935229379994 - 0.3829421127572619j],
    [1.0, 1.0, 1.0]], dtype=complex)
RADAU_IIA_TINV = np.array([
    [4.178718591551905, 0.32768282076106237, 0.5233764454994495],
    [-2.0893592957759526 + 0.2514363174728934j, -0.16384141038053118 - 1.2859634749278026j,
     0.23831177725027522 + 0.29801960241411246j],
    [-2.0893592957759526 - 0.2514363174728934j, -0.16384141038053118 + 1.2859634749278026j,
     0.23831177725027522 - 0.29801960241411246j]], dtype=complex)
for _arr in (RADAU_IIA_EIGVALS, RADAU_IIA_T, RADAU_IIA_TINV):
    _arr.flags.writeable = False

CONDITION_ORDERS = 8       # check_conditions measures orders 1..8
CONDITION_TOL = 1e-12      # and counts a defect up to this as satisfied


@dataclass(frozen=True)
class ConditionReport:
    """Largest orders satisfied by the simplifying conditions, with residuals.

    residuals maps labels "B1", "C2", ... to the max-norm defect of that
    condition; p, q, r are the longest runs from order 1 whose defects stay
    at or below tol.
    """

    p: int
    q: int
    r: int
    tol: float
    residuals: dict = field(default_factory=dict)


def check_conditions(tab: ButcherTableau) -> ConditionReport:
    """Measure B, C and D condition residuals up to CONDITION_ORDERS.

    B(l):  sum_i b_i c_i^(l-1)        = 1/l
    C(l):  sum_j a_ij c_j^(l-1)       = c_i^l / l     for every i
    D(l):  sum_i b_i c_i^(l-1) a_ij   = b_j (1 - c_j^l) / l   for every j
    """
    A, b, c = tab.A, tab.b, tab.c
    residuals: dict[str, float] = {}
    for l in range(1, CONDITION_ORDERS + 1):
        cl = c ** (l - 1)
        residuals[f"B{l}"] = abs(float(b @ cl) - 1.0 / l)
        residuals[f"C{l}"] = float(np.max(np.abs(A @ cl - c ** l / l)))
        residuals[f"D{l}"] = float(np.max(np.abs((b * cl) @ A - b * (1.0 - c ** l) / l)))

    def run_length(prefix: str) -> int:
        n = 0
        for l in range(1, CONDITION_ORDERS + 1):
            if residuals[f"{prefix}{l}"] <= CONDITION_TOL:
                n = l
            else:
                break
        return n

    return ConditionReport(p=run_length("B"), q=run_length("C"), r=run_length("D"),
                           tol=CONDITION_TOL, residuals=residuals)
