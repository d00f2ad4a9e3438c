"""Discrete calculus on a single spectral element in time.

A time slab [t_start, t_end] is pulled back to the reference interval
[-1, 1]. The primal grid is the p+1 Gauss-Lobatto nodes, the dual grid the p
Gauss nodes, which interleave the primal ones. Degrees of freedom live in
cochains: point values on a grid (0-cochains) or integrals over the primal
sub-intervals (1-cochains). The coboundary takes successive differences via
the incidence matrix; reduction samples or integrates a function into a
cochain; reconstruction interpolates a cochain back to a function.

These operators are metric-free: they work on the reference element and
depend on the order p alone, so the reductions take p, and the coboundary
and the reconstructions read it from their cochain. Only the metric
operators, which carry sqrt(g), take the element, an ElementGrid:
canonical_hodge_1to0, galerkin_mass_dual, galerkin_pairing and
dual_mass_matrix.

Two pairings move a primal 1-cochain to the dual grid. The canonical pairing
resamples the reconstructed density at the dual nodes and divides by the
metric root sqrt(g) = (t_end - t_start)/2. It applies one table per order,
the edge basis at the dual nodes, e_l(tau_m), computed in decimal and
rounded once to doubles, then cached read-only (_dual_edges); the element
steps' pairing record holds its transpose, so the toolkit and the steps
share it. reconstruct1 takes the float route, geodesy.basis.edge_eval_all,
which at the dual nodes stays within (p^2/8 + 4) eps max|e| of the table,
so the two agree there to a few ulps, not bit for bit. The Galerkin pairing
integrates against the dual basis, whose mass matrix is exactly diagonal
because the dual Lagrange basis sits on Gauss points: entries sqrt(g) * w_j.
On a quadrature rule with nodes sigma_nu and weights omega_nu, the Galerkin
pairing of a function sampled at the nodes is the matrix sqrt(g) omega_nu
ltilde_m(sigma_nu) (galerkin_pairing), which dual_mass_matrix applies to the
dual basis itself. These operators on the reference element are the tables
of the element integrators' steps (geodesy.integrators): the canonical Hodge
for mci, the dual mass and the Galerkin pairing for mgi.

An ElementGrid is its order and bounds, ElementGrid(p, t_start, t_end), and
ElementGrid(p), on [-1, 1], is the reference element. Its rules and bases are
fixed by p: they are derived once per order and cached, so every grid of
that order shares the same read-only objects and none can be given others.
Grids with t_end < t_start are permitted and represent a reversed time map
(sqrt(g) < 0), as a backward integrator step does. Bounds whose half-length
is zero, infinite or NaN, or has an infinite reciprocal, give no element:
_half_length, the one rule for the grid and every element path of
geodesy.integrators, whose ValueError names the bounds.
"""

import enum
import math
from dataclasses import dataclass, field
from decimal import (
    ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow, localcontext,
)
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import (
    MAX_ORDER,
    NodalBasis,
    QuadratureRule,
    _check_callable,
    _check_order,
    _gauss_step,
    _gll_step,
    _read_only,
    _real_scalar,
    _samples,
    edge_eval_all,
    gauss_rule,
    gll_rule,
    nodal_eval_all,
)

# quadrature points per sub-interval when reducing a density to a 1-cochain
_REDUCE1_EXTRA = 4
# the digits _dual_edges computes the canonical Hodge's table to, before it rounds it once
_TABLE_DIGITS = 40
# Newton updates that refine a float rule's nodes in decimal; each about doubles the digits
_NODE_NEWTON_STEPS = 4


class CochainKind(enum.Enum):
    PRIMAL0 = "primal0"
    PRIMAL1 = "primal1"
    DUAL0 = "dual0"


@dataclass(frozen=True)
class Cochain:
    """Degrees of freedom of a discrete form: kind plus a value vector.

    Its order, read from the count of values, must lie in [1, MAX_ORDER], else ValueError.
    """

    kind: CochainKind
    values: np.ndarray

    def __post_init__(self):
        v = _read_only(self.values, "cochain values")
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("cochain values must be a nonempty 1-d array")
        if self.kind is CochainKind.PRIMAL0 and len(v) < 2:
            raise ValueError("a primal 0-cochain needs at least two values")
        object.__setattr__(self, "values", v)
        # here, so a cochain no reconstruction can read is refused naming the cochain, not a rule
        _check_order(self.order, 1, "cochain order")

    @property
    def order(self) -> int:
        """Polynomial order p of the element the cochain belongs to."""
        if self.kind is CochainKind.PRIMAL0:
            return len(self.values) - 1
        return len(self.values)


def incidence_matrix(p: int) -> np.ndarray:
    """Read-only incidence matrix (p+1, p): column j carries -1 at node j and +1 at node j+1."""
    _check_order(p, 1, "order")
    E = np.eye(p + 1, p, -1) - np.eye(p + 1, p)
    E.setflags(write=False)
    return E


def coboundary(c: Cochain) -> Cochain:
    """Exterior derivative of a primal 0-cochain: successive differences by incidence_matrix(p)."""
    if c.kind is not CochainKind.PRIMAL0:
        raise TypeError(f"coboundary expects a primal 0-cochain, got {c.kind}")
    return Cochain(CochainKind.PRIMAL1, incidence_matrix(c.order).T @ c.values)


@dataclass(frozen=True)
class ElementGrid:
    """Primal/dual grids and bases of one time element of order p over [t_start, t_end].

    The rules and bases are the order's (_reference), shared by every grid of that order.
    The bounds are converted by geodesy.basis._real_scalar, which refuses complex and other
    values that are not real with a ValueError naming them, and stored as Python floats. They
    must give a nonzero, finite half-length sqrt_g with a finite reciprocal, the rule of every
    element path, so NaN and infinite bounds fail too: ValueError. Then p must be an integer
    in [1, MAX_ORDER], by the order rule of geodesy.basis.gll_rule. t_end < t_start encodes a
    reversed time map.
    """

    p: int
    t_start: float = -1.0
    t_end: float = 1.0
    primal: QuadratureRule = field(init=False)
    dual: QuadratureRule = field(init=False)
    primal_basis: NodalBasis = field(init=False)  # also gives the edge functions, edge_eval_all
    dual_basis: NodalBasis = field(init=False)

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            object.__setattr__(self, name, _real_scalar(getattr(self, name), name))
        _half_length(self.t_start, self.t_end)
        # checked before the cache, which takes 2.0 for 2 once an np.int64(2) is in it
        object.__setattr__(self, "p", _check_order(self.p, 1, "GLL order"))
        for name, value in _reference(self.p)._asdict().items():
            object.__setattr__(self, name, value)

    @classmethod
    def build(cls, p: int, t_start: float, t_end: float) -> "ElementGrid":
        """ElementGrid(p, t_start, t_end)."""
        return cls(p, t_start, t_end)

    @property
    def sqrt_g(self) -> float:
        """Jacobian of the reference-to-time map; negative for reversed elements."""
        return 0.5 * (self.t_end - self.t_start)

    def to_time(self, tau):
        return self.t_start + (np.asarray(tau) + 1.0) * self.sqrt_g

    def to_ref(self, t):
        return (np.asarray(t) - self.t_start) / self.sqrt_g - 1.0


def _half_length(t_start: float, t_end: float) -> float:
    # sqrt(g) = (t_end - t_start) / 2 of bounds that are Python floats already, converted where
    # they entered (geodesy.basis._real_scalar); they stay silent where numpy's warn (inf - inf,
    # an overflowing reciprocal). The one rule for whether bounds give an element: none where
    # sqrt(g) is zero, infinite or NaN, or its reciprocal overflows
    sqrt_g = 0.5 * (t_end - t_start)
    if sqrt_g == 0.0 or not (math.isfinite(sqrt_g) and math.isfinite(1.0 / sqrt_g)):
        raise ValueError(
            f"element must have nonzero extent with a finite half-length whose reciprocal is"
            f" finite: t_start={t_start!r}, t_end={t_end!r} give half-length {sqrt_g!r}"
        )
    return sqrt_g


class _Reference(NamedTuple):
    # the rules and bases of order p, shared by every ElementGrid of that order
    primal: QuadratureRule
    dual: QuadratureRule
    primal_basis: NodalBasis
    dual_basis: NodalBasis


@lru_cache(maxsize=None)
def _reference(p: int) -> _Reference:
    # for an order already checked (by ElementGrid or a reduction) or read from a cochain's
    # length; the rules and bases hold read-only arrays
    primal, dual = gll_rule(p), gauss_rule(p)
    return _Reference(primal, dual, NodalBasis(primal.nodes), NodalBasis(dual.nodes))


@lru_cache(maxsize=None)
def _dual_edges(p: int) -> np.ndarray:
    # the canonical Hodge's table, for an order already checked: the edge basis at the dual
    # nodes, (p, p) and read-only, T[m, l] = e_l(tau_m) with rows tau_m, correctly rounded.
    # The one owner of it: canonical_hodge_1to0 applies it, and the step's pairing record
    # takes its transpose. The float route, edge_eval_all, cancels in its cumulative sum, and
    # its errors, though within a few eps at low orders, move the invariants of both methods
    # one way on every step; the correctly rounded table leaves them rounding that averages out
    table = _edge_table(p, _TABLE_DIGITS)
    table.setflags(write=False)
    return table


def _edge_table(p: int, digits: int) -> np.ndarray:
    # e_l(tau_m) computed in decimal to the given digits and rounded once to floats. The nodes
    # are the float rules' refined by those rules' Newton updates: the Gauss nodes tau_m
    # as roots of P_p, the interior GLL nodes x_j as roots of P_p'. Then, with the barycentric
    # weights w_k = 1 / prod_{j != k} (x_k - x_j), l_k(tau) = w_k prod_j (tau - x_j) / (tau - x_k),
    # l_k'(tau) = l_k(tau) (sum_j 1 / (tau - x_j) - 1 / (tau - x_k)) and e_l = -sum_{k<l} l_k'
    ref = _reference(p)
    # every field given, so neither the caller's context nor decimal.DefaultContext, from which
    # Context copies any field left out, takes part
    context = Context(
        prec=digits, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1, clamp=0,
        flags=[], traps=[InvalidOperation, DivisionByZero, Overflow],
    )
    with localcontext(context):
        x = [Decimal(-1), *_refined(ref.primal.nodes[1:-1], _gll_step(p)), Decimal(1)]
        w = [1 / math.prod(x[k] - xj for j, xj in enumerate(x) if j != k) for k in range(p + 1)]
        rows = []
        for tau in _refined(ref.dual.nodes, _gauss_step(p)):
            d = [tau - xj for xj in x]
            omega, s = math.prod(d), sum(1 / dj for dj in d)
            edge, row = Decimal(0), []
            for k in range(p):
                edge -= w[k] * omega / d[k] * (s - 1 / d[k])
                row.append(float(edge))
            rows.append(row)
    table = np.array(rows)
    if p % 2:
        # tau = 0 is the middle Gauss node, where e_1 = e_p = P_{p-1}(0) / (p + 1), which is
        # (-1)^n C_n / 2^p for the Catalan number C_n, n = (p - 1) / 2: dyadic, and at p = 63
        # halfway between two doubles, a tie no finite precision decides. Both entries are set
        # from the closed form: an int's float rounds a tie to even, and the scaling is exact
        n = (p - 1) // 2
        table[n, [0, -1]] = math.ldexp((-1) ** n * math.comb(2 * n, n) // (n + 1), -p)
    return table


def _refined(nodes, newton_step):
    # each float node as a Decimal, refined by _NODE_NEWTON_STEPS updates t - newton_step(t)
    out = []
    for t in map(Decimal, nodes.tolist()):
        for _ in range(_NODE_NEWTON_STEPS):
            t -= newton_step(t)
        out.append(t)
    return out


def reduce0(f, p: int, target: CochainKind) -> Cochain:
    """Sample a function at the nodes of order p on the reference element into a 0-cochain.

    A PRIMAL0 target samples at the p + 1 Gauss-Lobatto nodes, a DUAL0 one at the p Gauss nodes.
    """
    # checked before the cache, which takes 2.0 for 2 once an np.int64(2) is in it
    p = _check_order(p, 1, "order p")
    if target not in (CochainKind.PRIMAL0, CochainKind.DUAL0):
        raise TypeError(f"reduce0 target must be a 0-cochain kind, got {target}")
    _check_callable(f, "f")
    ref = _reference(p)
    nodes = (ref.primal if target is CochainKind.PRIMAL0 else ref.dual).nodes
    return Cochain(target, _samples(f, nodes, "sample"))


def reduce1(density, p: int) -> Cochain:
    """Integrate a density over each primal sub-interval of order p on the reference element.

    Each interval uses a mapped Gauss rule with p + 4 points, at most MAX_ORDER, exact well
    beyond the degrees that appear in the commuting-diagram identities.
    """
    p = _check_order(p, 1, "order p")  # before the cache, as in reduce0
    _check_callable(density, "density")
    rule = gauss_rule(min(p + _REDUCE1_EXTRA, MAX_ORDER))
    xi = _reference(p).primal.nodes
    values = np.empty(p)
    for j in range(p):
        a, b = xi[j], xi[j + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        samples = _samples(density, mid + half * rule.nodes, "density")
        values[j] = half * np.dot(rule.weights, samples)
    return Cochain(CochainKind.PRIMAL1, values)


def reconstruct0(c: Cochain, x):
    """Interpolate a 0-cochain of order p on the reference element at x: shape of x.

    The order is the cochain's, and x is a point or an array of reference coordinates.
    """
    if c.kind not in (CochainKind.PRIMAL0, CochainKind.DUAL0):
        raise TypeError(f"reconstruct0 expects a 0-cochain, got {c.kind}")
    ref = _reference(c.order)
    basis = ref.primal_basis if c.kind is CochainKind.PRIMAL0 else ref.dual_basis
    # one dot product per point, so each entry is a scalar call's, which a matrix product's are not
    return (nodal_eval_all(basis, x)[..., None, :] @ c.values)[..., 0][()]


def reconstruct1(c: Cochain, x):
    """Evaluate the edge expansion of a primal 1-cochain of order p on the reference element.

    The expansion is the dtau coefficient, and the order is the cochain's. x is a point or an
    array of reference coordinates; the result has the shape of x.
    """
    if c.kind is not CochainKind.PRIMAL1:
        raise TypeError(f"reconstruct1 expects a primal 1-cochain, got {c.kind}")
    basis = _reference(c.order).primal_basis
    # one dot product per point, as in reconstruct0
    return (edge_eval_all(basis, x)[..., None, :] @ c.values)[..., 0][()]


def canonical_hodge_1to0(c: Cochain, grid: ElementGrid) -> Cochain:
    """Canonical pairing: resample the 1-cochain density at the dual nodes.

    The edge expansion's dtau coefficient, read from the order's correctly rounded table of the
    edge basis at the dual nodes, one dot product per node, is divided by sqrt(g) so the result
    carries time-rate units on the dual grid. The cochain's order must be the grid's, else
    ValueError, and its kind PRIMAL1, else TypeError.
    """
    if c.order != grid.p:
        raise ValueError(f"cochain order {c.order} does not match grid order {grid.p}")
    if c.kind is not CochainKind.PRIMAL1:
        raise TypeError(f"canonical_hodge_1to0 expects a primal 1-cochain, got {c.kind}")
    # one dot product per point, as in reconstruct1
    values = (_dual_edges(grid.p)[:, None, :] @ c.values)[:, 0] / grid.sqrt_g
    return Cochain(CochainKind.DUAL0, values)


def galerkin_mass_dual(grid: ElementGrid) -> np.ndarray:
    """Diagonal of the dual-basis mass matrix: sqrt(g) * w_j."""
    return grid.sqrt_g * grid.dual.weights


def galerkin_pairing(grid: ElementGrid, rule: QuadratureRule) -> np.ndarray:
    """Galerkin pairing on a quadrature rule: G[m, nu] = sqrt(g) omega_nu ltilde_m(sigma_nu).

    Shape (p, len(rule.nodes)), for the rule's nodes sigma_nu and weights omega_nu. G @ f, for
    the values f of a function at the nodes, integrates it against each dual basis function
    ltilde_m over the element; the result is exact when the rule integrates f ltilde_m exactly.
    """
    return grid.sqrt_g * (nodal_eval_all(grid.dual_basis, rule.nodes).T * rule.weights)


def dual_mass_matrix(grid: ElementGrid) -> np.ndarray:
    """Dual-basis mass matrix: the Galerkin pairing of the dual basis on 2p Gauss points.

    Past 2p = MAX_ORDER, the grid's p + 1 GLL points, exact through degree 2p - 1 >= 2p - 2.
    Kept separate from galerkin_mass_dual on purpose: this is the slow route
    used to check that the off-diagonal entries really vanish.
    """
    rule = gauss_rule(2 * grid.p) if 2 * grid.p <= MAX_ORDER else grid.primal
    return galerkin_pairing(grid, rule) @ nodal_eval_all(grid.dual_basis, rule.nodes)
