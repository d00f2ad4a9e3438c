"""Legendre quadrature rules and polynomial bases on the reference interval [-1, 1].

Two node families are used throughout: Gauss-Lobatto-Legendre (GLL) nodes,
which include both endpoints and carry the degree-p nodal (Lagrange) and
degree-(p-1) edge (histopolation) bases, and Gauss-Legendre nodes, which are
interior and serve both as collocation points and as quadrature abscissae.

Both node families come from one route (Golub and Welsch, 1969): the
eigenvalues of a symmetric tridiagonal Jacobi matrix, of the Legendre weight
for the Gauss nodes and of the weight 1 - x^2 for the interior Gauss-Lobatto
nodes, refined in decimal by a fixed count of Newton updates on the Legendre
recurrence, so no node search iterates or can fail. Nodes and weights are
formed in decimal and rounded once, so both are correctly rounded, and the
canonical Hodge's table of geodesy.mimetic reads the same decimal nodes.
Lagrange evaluation takes one of two routes, each returning an exact
Kronecker row at a node. nodal_eval_all, the public one, uses the second
barycentric formula, for points within the nodes' span [-1, 1]: sampling,
reconstruction and the step's tables at interior nodes. _lagrange_product
takes the product form prod_{m != j} (t - x_m) / (x_j - x_m), for points
outside or across that span, where the barycentric quotient loses digits to
cancellation (3.3e-11 of max|l| at p = 8, one element ahead, against a few
eps): the driver's guess table, which reads an element at the next one's
nodes, and the Gauss collocation oracle of geodesy.tableau.

This module also owns every test of a user's number, one rule for each kind:

- arrays (points, nodes, an initial state, Newton's x0): _real turns one into
  float64, and _read_only gives a record (a tableau, a quadrature rule, a
  cochain, a problem's y0) its own read-only copy by it. A value is real when
  numpy reads it with a dtype of kind bool, integer or float (_REAL_KINDS), so
  complex values are refused, where a float conversion would keep their real
  parts alone, and so are numeric strings, which it would parse, and object
  values (Fraction, Decimal, None; an object value is told the kinds taken: a
  Fraction is a real number, but not one of them). Values are called ragged
  only when numpy reports an inhomogeneous shape; any other failure to form
  an array is refused quoting numpy's message. _float_output applies the same
  rule to what a user's callable returns, and refuses values of another shape
  too, each with an EvaluationError naming the callable;
- scalar settings (a time, a tolerance): _real_scalar, the array rule for one
  0-d value, never a bool, converted once to a Python float;
- counts (a dimension, an iteration budget, a polynomial degree, an index):
  _check_count, an integer, never a bool, of at least a given size, returned
  as a Python int;
- orders (p, a quadrature size): _check_order, an integer, never a bool, in
  [smallest, MAX_ORDER], refused with a TypeError when not an integer,
  checked before any cache keyed by the order, which would take 3.0 for an
  np.int64(3) already in it, and returned as a Python int;
- functions (a field, a residual, a gradient, a function to reduce):
  _check_callable, callable, or None where the function is optional.

Each refusal but the order's TypeError is a ValueError naming the value.
"""

from dataclasses import dataclass, field
from decimal import (
    ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow, localcontext,
)
from functools import lru_cache

import numpy as np

from .errors import EvaluationError

MAX_ORDER = 64
# legendre_eval's highest degree: 64 times MAX_ORDER, past every rule's need (a rule of order
# n reads P_n), and a bound on its n-step recurrence, which 2**70 would run for ever
_MAX_DEGREE = 4096
# the digits the rules and the canonical Hodge's table are computed to before they are rounded
_DIGITS = 40
# Newton updates on each node of a decimal rule; each about doubles the float start's 16 digits
_NEWTON_STEPS = 3


def legendre_eval(n: int, x):
    """Evaluate the Legendre polynomial P_n and its derivative at x.

    Uses the three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
    with the derivative carried alongside. Works elementwise on arrays.

    Parameters
    ----------
    n : int
        Polynomial degree, 0 <= n <= 4096, far past MAX_ORDER; anything else,
        a bool or a float included, raises ValueError naming the degree.
    x : float or ndarray
        Evaluation point(s) in [-1, 1].

    Returns
    -------
    (value, derivative)
        P_n(x) and P_n'(x), scalars or arrays matching x.
    """
    n = _check_count(n, 0, "Legendre degree")
    if n > _MAX_DEGREE:
        raise ValueError(f"Legendre degree must lie in [0, {_MAX_DEGREE}], got {n}")
    x = _real(x, "x")
    one, zero = np.ones_like(x), np.zeros_like(x)
    P, dP = _legendre(n, x.copy(), one, zero) if n else (one, zero)  # a copy: P_1 is x itself
    return P[()], dP[()]


def _legendre(n: int, x, one=1, zero=0):
    # P_n(x) and P_n'(x), n >= 1, by legendre_eval's recurrence in x's own arithmetic: float
    # arrays, or a Decimal in the context's precision; one and zero are P_0 and P_0'
    p_prev, p_cur, d_prev, d_cur = one, x, zero, one
    for k in range(1, n):
        p_prev, p_cur = p_cur, ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
        d_prev, d_cur = d_cur, ((2 * k + 1) * (p_prev + x * d_cur) - k * d_prev) / (k + 1)
    return p_cur, d_cur


_FLOAT = np.dtype(float)
_TINY = np.finfo(float).tiny  # the smallest normal float
_REAL_KINDS = "biuf"  # the dtype kinds of a real value: bool, int, uint and float
# numpy's word for ragged values in the ValueError its constructor raises; any other ValueError
# from a conversion (an __array__ that fails, say) is quoted instead, the original kept as cause
_RAGGED = "inhomogeneous"


def _array(values, what) -> np.ndarray:
    # numpy's reading of a caller's values, refused with a ValueError naming them when it forms
    # no array
    try:
        return np.asarray(values)
    except ValueError as err:
        if _RAGGED in str(err):
            raise ValueError(f"{what} is ragged, which forms no array") from err
        raise ValueError(f"{what} forms no array: {err}") from err


def _real(values, what="values") -> np.ndarray:
    # the one conversion of a caller's array to float64, refused unless real: a float
    # conversion would keep each real part alone, with a ComplexWarning, and parse numeric
    # strings
    arr = _array(values, what)
    if arr.dtype.kind not in _REAL_KINDS:
        # a Fraction, a Decimal or an int past 2**64 is a real number, but numpy reads it as
        # an object, so the refusal names the kinds that are taken
        need = "a bool, integer or float" if arr.dtype.kind == "O" else "real"
        raise ValueError(f"{what} must be {need}, got {arr.dtype} values")
    return np.asarray(arr, dtype=float)


def _real_scalar(value, what) -> float:
    # the one conversion of a caller's scalar setting, such as a time or a tolerance, to a
    # Python float: real and 0-d as in _real, and never a bool, which is no setting
    arr = _array(value, what)
    if arr.dtype.kind == "b":
        raise ValueError(f"{what} must be a real number, got bool")
    if arr.dtype.kind == "O":
        raise ValueError(f"{what} must be an integer or float, got object values")
    arr = _real(arr, what)
    if arr.ndim != 0:
        raise ValueError(f"{what} must be a real number, got shape {arr.shape}")
    return float(arr)


def _check_count(n, smallest: int, what: str) -> int:
    # the one rule for a count (a dimension, an iteration budget, a degree, an index): an
    # integer, as in _check_order, never a bool, at least smallest; returned as a Python int
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < smallest:
        raise ValueError(f"{what} must be an integer >= {smallest}, got {n!r}")
    return int(n)


def _check_callable(f, what: str, optional: bool = False):
    # the one rule for a caller's function, checked where it enters: one that is not callable
    # would fail only at its first call, as a raw TypeError naming no argument
    if not (callable(f) or (optional and f is None)):
        raise ValueError(f"{what} must be {'None or ' * optional}callable, got {f!r}")


def _float_output(values, who, shape, hint="") -> np.ndarray:
    # the one conversion, and refusal, of what the callable named by who returned: a float
    # array of the given shape (None where the caller cannot know it). Values that are not
    # real (complex, object, str) are refused as in _real, and so are ragged values, which
    # numpy's constructor refuses naming no callable, and another shape, which numpy would
    # broadcast or LAPACK misread. A float64 ndarray of the shape, what the
    # library's own callables return, passes one combined test, cheaper than np.asarray
    if type(values) is np.ndarray and values.dtype is _FLOAT and values.shape == shape:
        return values
    try:
        arr = np.asarray(values)
    except ValueError as err:
        if _RAGGED in str(err):
            raise EvaluationError(f"{who} returned ragged values, which form no array") from err
        raise EvaluationError(f"{who} returned values that form no array: {err}") from err
    if arr.dtype.kind not in _REAL_KINDS:
        raise EvaluationError(f"{who} returned {arr.dtype} values, expected real values")
    if shape is not None and arr.shape != shape:
        raise EvaluationError(f"{who} returned shape {arr.shape}, expected {shape}{hint}")
    return np.asarray(arr, dtype=float)


def _read_only(values, what="values") -> np.ndarray:
    # a record's own read-only float copy, refused as in _real naming the field; the
    # caller's array keeps its flags
    arr = np.array(_real(values, what))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [-1, 1]; exactness degree 2n-3 (GLL) or 2n-1 (Gauss).

    Both are nonempty 1-d arrays of one length, else ValueError naming both shapes.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes, weights = _read_only(self.nodes, "nodes"), _read_only(self.weights, "weights")
        # numpy would broadcast one weight over every node
        if nodes.ndim != 1 or len(nodes) == 0 or weights.shape != nodes.shape:
            raise ValueError(
                f"quadrature nodes and weights must be nonempty 1-d arrays of one length, got"
                f" shapes {nodes.shape} and {weights.shape}"
            )
        _check_finite(nodes, "quadrature nodes")
        _check_finite(weights, "quadrature weights")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _check_finite(values: np.ndarray, what: str) -> None:
    # the one refusal of a record's float array that holds NaN or inf, naming its first such value
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{what} must be finite, got {float(bad[0])!r}")


def _check_order(n: int, smallest: int, what: str) -> int:
    # a bool is no order, though it is an int and hashes like 0 or 1 in a cache; returned as a
    # Python int, as _check_count's count is, so no numpy integer reaches a cache or a product
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {type(n).__name__}")
    if n < smallest or n > MAX_ORDER:
        raise ValueError(f"{what} must lie in [{smallest}, {MAX_ORDER}], got {n}")
    return int(n)


def _golub_welsch(n: int, off: np.ndarray) -> np.ndarray:
    # the n eigenvalues of the symmetric tridiagonal Jacobi matrix with zero diagonal and
    # off-diagonal off, made symmetric: exact +/- pairs, and an exact middle zero for odd n
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)) if n else np.empty(0)
    return 0.5 * (x - x[::-1])


def _context(digits: int) -> Context:
    # the one decimal context of geodesy's tables, with every field given, so neither the
    # caller's context nor decimal.DefaultContext, from which Context copies any field left
    # out, takes part
    return Context(
        prec=digits, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1, clamp=0,
        flags=[], traps=[InvalidOperation, DivisionByZero, Overflow],
    )


@lru_cache(maxsize=None)
def _decimal_rule(n: int, lobatto: bool, digits: int = _DIGITS) -> tuple:
    # (nodes, weights) of gll_rule(n) if lobatto, else of gauss_rule(n), as tuples of Decimals
    # to the given digits. The lower half of the float Golub-Welsch start is refined by
    # _NEWTON_STEPS updates, on P_n for Gauss, on P_n' for GLL, with
    # (1 - x^2) P_n'' = 2 x P_n' - n (n+1) P_n; its weights are formed, and both are mirrored
    k = np.arange(1.0, n - lobatto)
    if lobatto:
        x = _golub_welsch(n - 1, np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3))))
    else:
        x = _golub_welsch(n, k / np.sqrt(4.0 * k * k - 1.0))
    with localcontext(_context(digits)):
        nodes, weights = ([Decimal(-1)] if lobatto else []), []
        for t in map(Decimal, x[: len(x) - len(x) // 2].tolist()):
            for _ in range(_NEWTON_STEPS):
                P, dP = _legendre(n, t)
                t -= dP * (1 - t * t) / (2 * t * dP - n * (n + 1) * P) if lobatto else P / dP
            nodes.append(t)
        for t in nodes:
            P, dP = _legendre(n, t)
            weights.append(2 / (n * (n + 1) * P * P) if lobatto else 2 / ((1 - t * t) * dP * dP))
    m = (n + lobatto) // 2  # the nodes in the upper half, mirrored exactly by copy_negate
    return (*nodes, *(t.copy_negate() for t in nodes[:m][::-1])), (*weights, *weights[:m][::-1])


@lru_cache(maxsize=None)
def _rule(n: int, lobatto: bool) -> QuadratureRule:
    # _decimal_rule's nodes and weights, each rounded once to a float
    return QuadratureRule(*([float(v) for v in values] for values in _decimal_rule(n, lobatto)))


def gauss_rule(q: int) -> QuadratureRule:
    """Gauss-Legendre rule with q nodes, exact through degree 2q-1.

    Nodes are the roots of P_q: the eigenvalues of the q-point Jacobi matrix of the Legendre
    weight (zero diagonal, off-diagonal k / sqrt(4 k^2 - 1), k = 1..q-1), refined in decimal
    and rounded once. Weights are 2 / ((1 - x^2) P_q'(x)^2), formed in decimal at those nodes
    and rounded once, so nodes and weights are correctly rounded and symmetric about 0.
    """
    # checked, and made a Python int, before the cache, which takes 3.0 for 3 once an
    # np.int64(3) is in it
    return _rule(_check_order(q, 1, "Gauss order"), False)


def gll_rule(p: int) -> QuadratureRule:
    """Gauss-Lobatto-Legendre rule with p+1 nodes, exact through degree 2p-1.

    Interior nodes are the roots of P_p': the eigenvalues of the (p-1)-point Jacobi matrix of
    the weight 1 - x^2 (zero diagonal, off-diagonal sqrt(k (k+2) / ((2k+1) (2k+3))),
    k = 1..p-2), refined in decimal and rounded once. Weights are 2 / (p (p+1) P_p(x)^2),
    endpoints included, formed in decimal and rounded once, as gauss_rule's are.
    """
    return _rule(_check_order(p, 1, "GLL order"), True)  # before the cache, as in gauss_rule


@dataclass(frozen=True)
class NodalBasis:
    """Lagrange basis on a nonempty 1-d array of distinct nodes, weights computed from them."""

    nodes: np.ndarray
    bary_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = _read_only(self.nodes, "nodes")
        if nodes.ndim != 1 or len(nodes) == 0:
            raise ValueError("nodes must be a nonempty 1-d array")
        _check_finite(nodes, "nodes")
        # silent: a difference or a product of them past the float range, or a product below
        # it, leaves weights that are not finite or are zero, refused below
        with np.errstate(all="ignore"):
            diff = np.subtract.outer(nodes, nodes)
            np.fill_diagonal(diff, 1.0)
            w = 1.0 / np.prod(diff, axis=1)
            w = w / np.max(np.abs(w))  # common scaling cancels in the barycentric form
        # nodal_eval_all takes a point within _TINY of a node as at it, so no point may be
        # that close to two nodes
        gap = np.min(np.abs(diff))
        if gap < 2 * _TINY:
            apart = f", at least {float(2 * _TINY)!r} apart, got {float(gap)!r}" if gap else ""
            raise ValueError(f"nodes must be distinct{apart}")
        if not (np.isfinite(w).all() and w.all()):
            raise ValueError("nodes give barycentric weights outside the float range")
        w.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "bary_weights", w)


def nodal_eval_all(basis: NodalBasis, x) -> np.ndarray:
    """All Lagrange basis values l_i(x) for a point or an array x, shape x.shape + (p+1,).

    A point equal to a node, or a subnormal distance from one, gets the exact Kronecker row;
    each row equals a scalar call's.
    """
    d = _real(x, "x")[..., None] - basis.nodes
    # below _TINY, w / d would overflow; the quotient of a row that hits a node is discarded,
    # so its divisor there is any nonzero number
    hit = np.abs(d) < _TINY
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = basis.bary_weights / np.where(hit, 1.0, d)
        out = phi / np.sum(phi, axis=-1, keepdims=True)
    return np.where(np.any(hit, axis=-1, keepdims=True), hit, out)


def _lagrange_product(nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
    # l_j(t) = prod_{m != j} (t - x_m) / (x_j - x_m) over the n nodes x, for an array t of
    # points, shape t.shape + (n,); factor [..., j, m]. A point at a node gets the exact
    # Kronecker row, and a point outside the nodes' span loses no digits to cancellation,
    # as the barycentric quotient of nodal_eval_all does there. Unchecked: the nodes are
    # distinct floats and t a float array, both from geodesy's own tables
    n = len(nodes)
    span = nodes[:, None] - nodes
    np.fill_diagonal(span, 1.0)
    factors = (t[..., None, None] - nodes) / span
    factors[..., range(n), range(n)] = 1.0
    return factors.prod(axis=-1)


def nodal_deriv_all(basis: NodalBasis, x) -> np.ndarray:
    """All Lagrange derivative values l_i'(x) for a point or an array x, shape x.shape + (p+1,).

    Each l_i' has degree p - 1, so it is the interpolant of its values at the nodes: the row
    nodal_eval_all(basis, x) times the differentiation matrix D[k, i] = l_i'(x_k), whose
    off-diagonal entries are (w_i / w_k) / (x_k - x_i) and whose diagonal is minus the rest of
    its row (Berrut and Trefethen, SIAM Rev. 46, 2004). At a node this is D's row, whose sum
    is zero; next to one nothing is divided by the distance, so no digits are lost there. Each
    row equals a scalar call's.
    """
    nodes, w = basis.nodes, basis.bary_weights
    span = nodes[:, None] - nodes
    np.fill_diagonal(span, 1.0)
    D = (w / w[:, None]) / span
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return (nodal_eval_all(basis, x)[..., None, :] @ D)[..., 0, :]


def edge_eval_all(basis: NodalBasis, x) -> np.ndarray:
    """All edge values e_i(x) = -sum_{k<i} l_k'(x), i = 1..p, of a degree-p nodal basis.

    x is a point or an array, the result of shape x.shape + (p,). The integral of e_i over the
    j-th inter-node interval is the Kronecker delta: edge coefficients carry integrals.
    """
    return -np.cumsum(nodal_deriv_all(basis, x), axis=-1)[..., :-1]


def _samples(f, nodes, what: str) -> np.ndarray:
    # f called at each node in turn; a non-finite value names the first node that gave one
    values = _float_output([f(x) for x in nodes], what, nodes.shape)
    finite = np.isfinite(values)
    if not finite.all():
        raise EvaluationError(f"{what} is non-finite at node {float(nodes[~finite][0])!r}")
    return values

