"""Independent oracles shared by the test modules.

These deliberately avoid the package's own numerics: numpy polynomial
utilities, a tiny-step RK4 marcher, a plain fixed-point implicit
Runge-Kutta step, a column-by-column forward difference and Legendre
rules refined in long double. Keep them
independent so the cross-checks stay honest.
"""

import numpy as np


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
