"""chain-n: a sliding problem whose state dimension n can be turned up.

The state is x = (y, s): y holds n - 1 damped oscillators coupled to
their neighbours along a chain, and s is a surface coordinate with
switching surface g(x) = s = 0.  The two fields differ only by a relay
shift of +-(r, 1):

    f1 = M y + b u + r,   s' = a.y + c u + 1      (below, s < 0)
    f2 = M y + b u - r,   s' = a.y + c u - 1      (above, s > 0)

M = S - D with S skew (the chain coupling) and D a positive damping
diagonal, so |y| stays below the bound Y used to scale a; with
c = 0.2 and |u| <= 1 that keeps |a.y + c u| <= 0.5.  Both fields then
point at the surface everywhere (w1 >= 0.5, w2 <= -0.5), s starts in
[-0.4, -0.2] and reaches 0 before t = 0.8, and the blend weight stays
inside [0.25, 0.75]: every seed enters sliding and stays there.  On the
sliding stretch y feels the blend through -(a.y + c u) r, so the
Filippov Jacobians and the sliding adjoint are exercised with nonzero
terms.
"""

from __future__ import annotations

import numpy as np

TF = 1.0
C_SURFACE = 0.2


def _const(mat):
    arr = np.array(mat, dtype=float)
    arr.flags.writeable = False
    return lambda x, u: arr


def chain_problem(n: int, rng: np.random.Generator, N: int = 10):
    """Build (ocp, grid) for chain-n with coupling, x0 and u drawn from rng."""
    # imported on call: the benchmark's set-up re-imports slidoc, and the
    # problem must be built from the import the timed ops use
    from slidoc import ControlGrid, EndpointFunctional, HybridOCP

    if n < 3:
        raise ValueError(f"chain-n needs n >= 3, got {n}")
    ny = n - 1
    omega = rng.uniform(0.5, 2.0, ny - 1)
    damp = rng.uniform(0.1, 0.5, ny)
    y0 = rng.uniform(-1.0, 1.0, ny)
    b = rng.uniform(-1.0, 1.0, ny)
    b /= np.linalg.norm(b)
    r = rng.uniform(-1.0, 1.0, ny)
    r *= 0.3 / np.linalg.norm(r)
    v = rng.uniform(-1.0, 1.0, ny)
    s0 = -rng.uniform(0.2, 0.4)
    u = rng.uniform(-1.0, 1.0, (N, 1))

    # |y(t)| <= Y: off the surface d|y|^2/2 <= -d_min |y|^2 + |y| (|b| + |r|),
    # and on it the extra -r a^T y term costs at most |r| |a| <= 0.15 d_min
    Y = max(float(np.linalg.norm(y0)), 2.0 * (1.0 + 0.3) / float(damp.min()))
    a = 0.3 * v / (np.linalg.norm(v) * Y)

    A = np.zeros((n, n))
    A[:ny, :ny] = np.diag(omega, 1) - np.diag(omega, -1) - np.diag(damp)
    A[ny, :ny] = a
    B = np.zeros((n, 1))
    B[:ny, 0] = b
    B[ny, 0] = C_SURFACE
    shift = np.append(r, 1.0)

    def f1(x, u):
        return A @ x + B @ u + shift

    def f2(x, u):
        return A @ x + B @ u - shift

    gx = np.zeros(n)
    gx[ny] = 1.0
    gx.flags.writeable = False
    gxx = np.zeros((n, n))
    gxx.flags.writeable = False

    def phi_grad(x):
        out = x.copy()
        out[ny] = 0.0
        return out

    phi = EndpointFunctional(value=lambda x: 0.5 * float(x[:ny] @ x[:ny]),
                             grad=phi_grad, name="phi")
    ocp = HybridOCP(
        name=f"chain-{n}", n=n, m=1,
        f1=f1, f1_x=_const(A), f1_u=_const(B),
        f2=f2, f2_x=_const(A), f2_u=_const(B),
        g=lambda x: float(x[ny]), g_x=lambda x: gx, g_xx=lambda x: gxx,
        phi=phi, x0=np.append(y0, s0), t0=0.0, tf=TF,
        u_lo=np.array([-1.0]), u_hi=np.array([1.0]))
    return ocp, ControlGrid(0.0, TF, u)
