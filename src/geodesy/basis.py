"""Legendre quadrature rules and polynomial bases on the reference interval [-1, 1].

Two node families are used throughout: Gauss-Lobatto-Legendre (GLL) nodes,
which include both endpoints and carry the degree-p nodal (Lagrange) and
degree-(p-1) edge (histopolation) bases, and Gauss-Legendre nodes, which are
interior and serve both as collocation points and as quadrature abscissae.

Both node families come from one route (Golub and Welsch, 1969): the
eigenvalues of a symmetric tridiagonal Jacobi matrix, of the Legendre weight
for the Gauss nodes and of the weight 1 - x^2 for the interior Gauss-Lobatto
nodes, each followed by one Newton update on the Legendre recurrence, so no
node search iterates or can fail, and no rule imports numpy.polynomial.
Lagrange evaluation uses the second barycentric formula, which returns an
exact Kronecker delta when the evaluation point coincides with a node.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError

MAX_ORDER = 64


def legendre_eval(n: int, x):
    """Evaluate the Legendre polynomial P_n and its derivative at x.

    Uses the three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
    with the derivative carried alongside. Works elementwise on arrays.

    Parameters
    ----------
    n : int
        Polynomial degree, n >= 0.
    x : float or ndarray
        Evaluation point(s) in [-1, 1].

    Returns
    -------
    (value, derivative)
        P_n(x) and P_n'(x), scalars or arrays matching x.
    """
    if n < 0:
        raise ValueError(f"Legendre degree must be nonnegative, got {n}")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    d_prev = np.zeros_like(x)
    if n == 0:
        return p_prev[()], d_prev[()]
    p_cur = x.copy()
    d_cur = np.ones_like(x)
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
        d_next = ((2 * k + 1) * (p_cur + x * d_cur) - k * d_prev) / (k + 1)
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next
    return p_cur[()], d_cur[()]


def _read_only(values) -> np.ndarray:
    # a record's own read-only float copy; the caller's array keeps its flags
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [-1, 1]; exactness degree 2n-3 (GLL) or 2n-1 (Gauss)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _read_only(self.nodes))
        object.__setattr__(self, "weights", _read_only(self.weights))

    def __len__(self):
        return len(self.nodes)


def _check_order(n: int, smallest: int, what: str):
    # a bool is no order, though it is an int and hashes like 0 or 1 in a cache
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {type(n).__name__}")
    if n < smallest or n > MAX_ORDER:
        raise ValueError(f"{what} must lie in [{smallest}, {MAX_ORDER}], got {n}")


def _symmetrize(nodes: np.ndarray) -> np.ndarray:
    # enforce exact +/- pairing (and an exact middle zero for odd counts)
    return 0.5 * (nodes - nodes[::-1])


def _golub_welsch(n: int, off: np.ndarray, newton_step) -> np.ndarray:
    # the n eigenvalues of the symmetric tridiagonal Jacobi matrix with zero
    # diagonal and off-diagonal off, each refined by one update x - newton_step(x)
    if n == 0:
        return np.empty(0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    return x - newton_step(x)


@lru_cache(maxsize=None)
def gauss_rule(q: int) -> QuadratureRule:
    """Gauss-Legendre rule with q nodes, exact through degree 2q-1.

    Nodes are the roots of P_q, the eigenvalues of the q-point Jacobi matrix
    of the Legendre weight (zero diagonal, off-diagonal k / sqrt(4 k^2 - 1),
    k = 1..q-1), refined by one Newton update on P_q. Weights are
    2 / ((1 - x^2) P_q'(x)^2).
    """
    _check_order(q, 1, "Gauss order")
    k = np.arange(1.0, q)

    def newton_step(x):
        P, dP = legendre_eval(q, x)
        return P / dP

    nodes = _symmetrize(_golub_welsch(q, k / np.sqrt(4.0 * k * k - 1.0), newton_step))
    _, dP = legendre_eval(q, nodes)
    weights = 2.0 / ((1.0 - nodes**2) * dP**2)
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=None)
def gll_rule(p: int) -> QuadratureRule:
    """Gauss-Lobatto-Legendre rule with p+1 nodes, exact through degree 2p-1.

    Interior nodes are the roots of P_p', the eigenvalues of the (p-1)-point
    Jacobi matrix of the weight 1 - x^2 (zero diagonal, off-diagonal
    sqrt(k (k+2) / ((2k+1) (2k+3))), k = 1..p-2), refined by one Newton
    update on P_p'. Weights are 2 / (p (p+1) P_p(x)^2), endpoints included.
    """
    _check_order(p, 1, "GLL order")
    k = np.arange(1.0, p - 1)

    def newton_step(x):
        # Newton on P_p' with (1 - x^2) P_p'' = 2 x P_p' - p (p+1) P_p
        P, dP = legendre_eval(p, x)
        return dP * (1.0 - x * x) / (2 * x * dP - p * (p + 1) * P)

    off = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    nodes = _symmetrize(np.concatenate(([-1.0], _golub_welsch(p - 1, off, newton_step), [1.0])))
    P, _ = legendre_eval(p, nodes)
    weights = 2.0 / (p * (p + 1) * P**2)
    return QuadratureRule(nodes, weights)


@dataclass(frozen=True)
class NodalBasis:
    """Lagrange basis on distinct nodes, stored with barycentric weights."""

    nodes: np.ndarray
    bary_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _read_only(self.nodes))
        object.__setattr__(self, "bary_weights", _read_only(self.bary_weights))

    @classmethod
    def from_nodes(cls, nodes) -> "NodalBasis":
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) == 0:
            raise ValueError("nodes must be a nonempty 1-d array")
        diff = np.subtract.outer(nodes, nodes)
        np.fill_diagonal(diff, 1.0)
        if np.min(np.abs(diff)) == 0.0:
            raise ValueError("nodes must be distinct")
        w = 1.0 / np.prod(diff, axis=1)
        w = w / np.max(np.abs(w))  # common scaling cancels in the barycentric form
        return cls(nodes, w)


@dataclass(frozen=True)
class EdgeBasis:
    """Edge (histopolation) functions e_1..e_p attached to a degree-p nodal basis.

    e_i(x) = -sum_{k<i} l_k'(x); its integral over the j-th inter-node
    interval is the Kronecker delta, so edge coefficients carry integrals
    rather than point values.
    """

    nodal: NodalBasis


def nodal_eval_all(basis: NodalBasis, x) -> np.ndarray:
    """All Lagrange basis values l_i(x) for a point or an array x, shape x.shape + (p+1,).

    A point equal to a node gets the exact Kronecker row; each row equals a scalar call's.
    """
    d = np.asarray(x, dtype=float)[..., None] - basis.nodes
    hit = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = basis.bary_weights / d
        out = phi / np.sum(phi, axis=-1, keepdims=True)
    return np.where(np.any(hit, axis=-1, keepdims=True), hit, out)


def nodal_deriv_all(basis: NodalBasis, x) -> np.ndarray:
    """All Lagrange derivative values l_i'(x) for a point or an array x, shape x.shape + (p+1,).

    Off-node points use the differentiated barycentric form
    l_i'(x) = l_i(x) (sum_j l_j(x)/(x-x_j) - 1/(x-x_i)); at a node the
    classical differentiation-matrix row is used so row sums vanish exactly.
    Each row equals a scalar call's.
    """
    nodes, w = basis.nodes, basis.bary_weights
    d = np.asarray(x, dtype=float)[..., None] - nodes
    hit = d == 0.0
    k = np.argmax(hit, axis=-1, keepdims=True)  # the node a row hits, 0 for none
    l = nodal_eval_all(basis, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        off = l * ((l / d).sum(axis=-1, keepdims=True) - 1.0 / d)
        row = np.where(hit, 0.0, (w / w[k]) / (nodes[k] - nodes))
    on = np.where(hit, -row.sum(axis=-1, keepdims=True), row)
    return np.where(hit.any(axis=-1, keepdims=True), on, off)


def edge_eval_all(basis: EdgeBasis, x) -> np.ndarray:
    """All edge function values e_1..e_p for a point or an array x, shape x.shape + (p,)."""
    return -np.cumsum(nodal_deriv_all(basis.nodal, x), axis=-1)[..., :-1]


def _samples(f, nodes, what: str) -> np.ndarray:
    # f called at each node in turn; a non-finite value names the first node that gave one
    values = np.array([f(x) for x in nodes], dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        raise EvaluationError(f"{what} is non-finite at node {float(nodes[~finite][0])!r}")
    return values


def integrate_quad(rule: QuadratureRule, f) -> float:
    """Apply the quadrature rule to a scalar callable on [-1, 1]."""
    return float(np.dot(rule.weights, _samples(f, rule.nodes, "integrand")))
