"""Runge-Kutta tableau extraction from the collocation-pairing integrator.

The stage unknowns of the collocation integrator are the solution values at
the interior and final Gauss-Lobatto nodes; a Runge-Kutta method wants stage
derivative values at the Gauss nodes instead. The change of variables runs
through two small matrices: A with entries e_l(tau_j) (edge functions at the
dual nodes) and the inverse incidence difference, a lower-triangular matrix
of ones. Composing with the nodal basis evaluated at the dual nodes yields
the classical (A, b, c) arrays, which coincide with Gauss collocation.
"""

from dataclasses import dataclass

import numpy as np

from .basis import edge_eval_all, nodal_eval_all
from .mimetic import _reference_element

_SUM_B_TOL = 1e-13
_ROW_SUM_TOL = 1e-12
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ButcherTableau:
    """Stage matrix A (s x s), weights b, abscissae c, validated on build."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        s = len(b)
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("tableau arrays have inconsistent shapes")
        if abs(np.sum(b) - 1.0) > _SUM_B_TOL:
            raise ValueError(f"stage weights must sum to 1, got {np.sum(b)!r}")
        if not (np.all(c > 0.0) and np.all(c < 1.0) and np.all(np.diff(c) > 0.0)):
            raise ValueError("abscissae must be strictly increasing inside (0, 1)")
        if np.max(np.abs(a.sum(axis=1) - c)) > _ROW_SUM_TOL:
            raise ValueError("row sums of A must equal c")
        for arr in (a, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return len(self.b)


def butcher_tableau_mci(p: int) -> ButcherTableau:
    """Extract the s = p tableau of the collocation-pairing integrator.

    Builds A[i, l] = e_l at the i-th dual node, inverts it (condition
    estimate guarded), forms G = (1/2) Ehat^{-1} A^{-1} mapping stage
    derivatives to increments at the Gauss-Lobatto nodes, and reads off
    a = Lhat G with Lhat the nodal basis at the dual nodes, b = last row
    of G, c = dual nodes mapped to (0, 1).
    """
    ref = _reference_element(p)
    tau = ref.dual.nodes
    A = edge_eval_all(ref.edge_basis, tau)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ValueError(f"edge evaluation matrix is ill-conditioned (cond ~ {cond:.3e})")
    ehat_inv = np.tril(np.ones((p, p)))
    G = 0.5 * ehat_inv @ np.linalg.inv(A)
    # nodal basis functions 1..p (the unknown columns) at the dual nodes
    lhat = nodal_eval_all(ref.primal_basis, tau)[:, 1:]
    a_rk = lhat @ G
    b = G[-1, :].copy()
    c = 0.5 * (tau + 1.0)
    return ButcherTableau(a_rk, b, c)


def gauss_collocation_tableau(p: int) -> ButcherTableau:
    """Classical s = p Gauss collocation tableau built from first principles.

    Uses a_ij = integral of the j-th Lagrange cardinal polynomial on the
    abscissae from 0 to c_i, with the polynomials integrated exactly via
    their monomial coefficients. Serves as the independent cross-check for
    butcher_tableau_mci; do not merge the two routes.
    """
    from numpy.polynomial import polynomial as P

    c = 0.5 * (_reference_element(p).dual.nodes + 1.0)
    a = np.empty((p, p))
    b = np.empty(p)
    for j in range(p):
        roots = np.delete(c, j)
        coeffs = P.polyfromroots(roots)
        coeffs = coeffs / P.polyval(c[j], coeffs)
        anti = P.polyint(coeffs)
        b[j] = P.polyval(1.0, anti)
        a[:, j] = P.polyval(c, anti)
    return ButcherTableau(a, b, c)
