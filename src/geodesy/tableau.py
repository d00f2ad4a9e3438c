"""Runge-Kutta tableau extraction from the collocation-pairing integrator.

The stage unknowns of the collocation integrator are the solution values at
the interior and final Gauss-Lobatto nodes; a Runge-Kutta method wants stage
derivative values at the Gauss nodes instead. The step's own pairing record
holds the change of variables: half the inverse of its rate block maps stage
derivatives to increments at the Gauss-Lobatto nodes, and the nodal basis at
the dual nodes then yields the classical (A, b, c) arrays, which coincide
with Gauss collocation.
"""

from dataclasses import dataclass

import numpy as np

from .basis import _read_only
from .integrators import Method, _pairing

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
        a, b, c = _read_only(self.a), _read_only(self.b), _read_only(self.c)
        s = len(b)
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("tableau arrays have inconsistent shapes")
        if abs(np.sum(b) - 1.0) > _SUM_B_TOL:
            raise ValueError(f"stage weights must sum to 1, got {np.sum(b)!r}")
        if not (np.all(c > 0.0) and np.all(c < 1.0) and np.all(np.diff(c) > 0.0)):
            raise ValueError("abscissae must be strictly increasing inside (0, 1)")
        if np.max(np.abs(a.sum(axis=1) - c)) > _ROW_SUM_TOL:
            raise ValueError("row sums of A must equal c")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return len(self.b)


def butcher_tableau_mci(p: int) -> ButcherTableau:
    """Extract the s = p tableau of the collocation-pairing integrator.

    Reads the step's cached MCI pairing record: rate[m, b] is sqrt(g) times
    the rate at dual node m per unit increment y(x_b) - y0, so collocation
    reads rate @ increments = (dt/2) k for stage derivatives k, and
    G = (1/2) rate^{-1} (condition estimate guarded) maps k to increments
    per unit dt. a = Lhat G with Lhat[i, b] = l_b(tau_i), b = last row of G,
    c = dual nodes mapped to (0, 1).
    """
    pairing = _pairing(Method.MCI, p, None, 1)
    cond = np.linalg.cond(pairing.rate)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ValueError(f"collocation rate block is ill-conditioned (cond ~ {cond:.3e})")
    G = 0.5 * np.linalg.inv(pairing.rate)
    return ButcherTableau(pairing.Lq[1:].T @ G, G[-1], 0.5 * (pairing.nodes + 1.0))


def gauss_collocation_tableau(p: int) -> ButcherTableau:
    """Classical s = p Gauss collocation tableau built from first principles.

    a_ij is the integral of the j-th Lagrange cardinal on the abscissae from
    0 to c_i and b_j its integral from 0 to 1, each taken by numpy's p-point
    Gauss rule (x_k, w_k), exact for the degree p-1 cardinals; the same rule
    gives the abscissae c_i = (1 + x_i)/2:
    a_ij = (c_i/2) sum_k w_k l_j(c_i (1+x_k)/2), b_j = (1/2) sum_k w_k l_j((1+x_k)/2).
    Serves as the independent cross-check for butcher_tableau_mci; do not
    merge the two routes.
    """
    x, w = np.polynomial.legendre.leggauss(p)
    c = 0.5 * (x + 1.0)
    ends = np.append(c, 1.0)  # rows 0..p-1 integrate up to c_i, row p up to 1
    t = ends[:, None] * (0.5 * (1.0 + x))
    # l_j(t) = prod_{m != j} (t - c_m) / (c_j - c_m), factor [..., j, m]
    span = c[:, None] - c
    np.fill_diagonal(span, 1.0)
    factors = (t[..., None, None] - c) / span
    factors[..., range(p), range(p)] = 1.0
    integrals = 0.5 * ends[:, None] * (w @ factors.prod(axis=-1))
    return ButcherTableau(integrals[:-1], integrals[-1], c)
