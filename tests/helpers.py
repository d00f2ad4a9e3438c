"""Independent oracles shared by the test modules.

These deliberately avoid the package's own numerics: numpy polynomial
utilities, a tiny-step RK4 marcher, a plain fixed-point implicit
Runge-Kutta step, a column-by-column forward difference, Legendre
rules refined in long double and the Lotka-Volterra kernels written as
plain row expressions. Keep them
independent so the cross-checks stay honest. The one exception is
step_tangent, which differentiates the package's own element step, so
that a test can ask whether the map that step computes is symplectic.
"""

import numpy as np

from geodesy.integrators import _element_callables, _pairing
from geodesy.mimetic import incidence_matrix
from geodesy.newton import NewtonConfig


def rk4_reference(field, y0, t, n_steps=20000):
    """March y' = field(y) with classical RK4 at a tiny fixed step."""
    h = t / n_steps
    y = np.array(y0, dtype=float)
    for _ in range(n_steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def gauss_irk_step(field, y0, dt, a, b, tol=1e-14, max_iter=500):
    """One implicit RK step solved by plain fixed-point iteration.

    Converges only when dt times the field's Lipschitz constant is small;
    callers pick dt accordingly.
    """
    y0 = np.asarray(y0, dtype=float)
    s = len(b)
    k = np.tile(field(y0), (s, 1))
    for _ in range(max_iter):
        k_new = np.array([field(y0 + dt * (a[i] @ k)) for i in range(s)])
        delta = float(np.max(np.abs(k_new - k)))
        k = k_new
        if delta <= tol:
            return y0 + dt * (b @ k)
    raise AssertionError(f"fixed-point IRK stalled at delta={delta:.3e}")


def column_forward_difference(residual, x, r0=None, fd_step=1e-7):
    """Forward-difference Jacobian built one column per loop pass.

    Column j is (residual(x + h_j e_j) - residual(x)) / h_j with
    h_j = fd_step * (1 + |x_j|), each shifted point a fresh copy of x.
    """
    if r0 is None:
        r0 = np.asarray(residual(x), dtype=float)
    n = len(x)
    J = np.empty((len(r0), n))
    for j in range(n):
        h = fd_step * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.asarray(residual(xp), dtype=float) - r0) / h
    return J


def einsum_field_block(Jh, pairing, Lq):
    """Field term of the stage Jacobian as one three-operand einsum, (M p, M p).

    Entry [(i, m), (k, b)] = sum_n Jh[n, i, k] pairing[m, n] Lq[1 + b, n] for
    the field Jacobians Jh (q, M, M) at the quadrature nodes, the row-scaled
    pairing matrix (p, q) and the nodal basis at those nodes (p+1, q).
    """
    M, p = Jh.shape[1], pairing.shape[0]
    return np.einsum("nik,mn,bn->imkb", Jh, pairing, Lq[1:]).reshape(M * p, M * p)


def step_tangent(sys, method, y0, dt, p, q_rhs=None):
    """Endpoint y1 and tangent map Phi = dy1/dy0 of one element step from t = 0.

    The step's stages Z solve R(Z, y0) = 0, so at the converged stages
    dZ/dy0 = -J^-1 dR/dy0, with J the element factory's own stage Jacobian,
    and Phi is the last stage's block. y0 is column 0 of the element:

        dR[i, m]/dy0[j] = delta_ij (E D)[0, m] / sqrt(g)
                          - sum_nu Jh[nu, i, j] Lq[0, nu] P[nu, m],

    with the pairing record's D and P (P = I for mci), Lq the nodal basis at
    its quadrature nodes and Jh the field Jacobians there. Needs sys.jacobian.
    """
    pairing = _pairing(method, p, q_rhs)
    q = len(pairing.nodes)
    coeffs = np.empty((sys.dim, p + 1))
    _, _, jacobian, solve = _element_callables(sys, coeffs, pairing)
    solve(np.asarray(y0, dtype=float), 0.0, dt, NewtonConfig())
    J = jacobian(coeffs[:, 1:].reshape(-1))
    Lq = pairing.LE[:, :q]
    Jh = sys.jacobian(coeffs @ Lq)
    P = np.eye(p) if pairing.P is None else pairing.P
    rate0 = (incidence_matrix(p) @ pairing.D)[0] / (0.5 * dt)
    dR = np.einsum("ij,m->imj", np.eye(sys.dim), rate0)
    dR -= np.einsum("nij,n,nm->imj", Jh, Lq[0], P)
    dZ = -np.linalg.solve(J, dR.reshape(sys.dim * p, sys.dim)).reshape(sys.dim, p, sys.dim)
    return coeffs[:, -1].copy(), dZ[:, -1, :]


def canonical_form(partition, dim):
    """The symplectic form Omega of a state with the partition's momenta.

    The i-th momentum is paired with the i-th position, the positions being the state's other
    indices in ascending order.
    """
    p_idx = list(partition.p_indices)
    q_idx = [i for i in range(dim) if i not in p_idx]
    omega = np.zeros((dim, dim))
    omega[q_idx, p_idx] = 1.0
    omega[p_idx, q_idx] = -1.0
    return omega


def legendre_longdouble(n, x):
    """P_n(x) and P_n'(x) in np.longdouble by the three-term recurrence."""
    x = np.asarray(x, dtype=np.longdouble)
    p_prev, p_cur = np.ones_like(x), x.copy()
    d_prev, d_cur = np.zeros_like(x), np.ones_like(x)
    if n == 0:
        return p_prev, d_prev
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
        d_next = ((2 * k + 1) * (p_cur + x * d_cur) - k * d_prev) / (k + 1)
        p_prev, p_cur, d_prev, d_cur = p_cur, p_next, d_cur, d_next
    return p_cur, d_cur


def longdouble_rule(nodes, n, lobatto=False, updates=3):
    """Reference nodes and weights of a Legendre rule in np.longdouble.

    Gauss (lobatto=False): the roots of P_n, weights 2 / ((1 - x^2) P_n'(x)^2).
    Gauss-Lobatto: -1, 1 and the roots of P_n', weights 2 / (n (n+1) P_n(x)^2).
    Starts from the given double nodes and takes a few Newton updates on the
    long-double recurrence, which the double nodes are close enough to converge.
    """
    x = np.asarray(nodes, dtype=np.longdouble).copy()
    inner = slice(1, -1) if lobatto else slice(None)
    for _ in range(updates):
        xi = x[inner]
        P, dP = legendre_longdouble(n, xi)
        if lobatto:  # Newton on P_n', with (1 - x^2) P_n'' = 2 x P_n' - n (n+1) P_n
            x[inner] = xi - dP * (1 - xi * xi) / (2 * xi * dP - n * (n + 1) * P)
        else:
            x[inner] = xi - P / dP
    P, dP = legendre_longdouble(n, x)
    weights = 2 / (n * (n + 1) * P**2) if lobatto else 2 / ((1 - x * x) * dP**2)
    return x, weights


def lotka_volterra_field_stacked(y):
    """The Lotka-Volterra field as the stack of its two rows, y1 (y2 - 2) and y2 (1 - y1)."""
    return np.array([y[0] * (y[1] - 2.0), y[1] * (1.0 - y[0])])


def lotka_volterra_domain_any(y):
    """The Lotka-Volterra domain check as one test of y <= 0 over the whole block.

    Returns None when no entry is zero or negative, else the reason naming the
    first column that has one.
    """
    if not np.any(y <= 0.0):
        return None
    cols = y.reshape(2, -1)
    y1, y2 = cols[:, (cols <= 0.0).any(axis=0).argmax()]
    return f"populations must stay positive, got ({y1:.6g}, {y2:.6g})"


def fit_slope(dts, errs):
    """Least-squares slope of log(err) against log(dt)."""
    return float(np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(errs)), 1)[0])


def random_poly(rng, degree):
    """Random polynomial with coefficients in [-1, 1]; returns (poly, derivative)."""
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    dcoeffs = np.polynomial.polynomial.polyder(coeffs) if degree > 0 else np.zeros(1)

    def poly(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    def dpoly(x):
        return np.polynomial.polynomial.polyval(x, dcoeffs)

    return poly, dpoly
