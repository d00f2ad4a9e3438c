"""Discrete calculus on a single spectral element in time.

A time slab [t_start, t_end] is pulled back to the reference interval
[-1, 1]. The primal grid is the p+1 Gauss-Lobatto nodes, the dual grid the p
Gauss nodes, which interleave the primal ones. Degrees of freedom live in
cochains: point values on a grid (0-cochains) or integrals over the primal
sub-intervals (1-cochains). The coboundary takes successive differences via
the incidence matrix; reduction samples or integrates a function into a
cochain; reconstruction interpolates a cochain back to a function.

Two pairings move a primal 1-cochain to the dual grid. The canonical pairing
resamples the reconstructed density at the dual nodes and divides by the
metric root sqrt(g) = (t_end - t_start)/2. The Galerkin pairing integrates
against the dual basis, whose mass matrix is exactly diagonal because the
dual Lagrange basis sits on Gauss points: entries sqrt(g) * w_j. On a
quadrature rule with nodes sigma_nu and weights omega_nu, the Galerkin pairing
of a function sampled at the nodes is the matrix sqrt(g) omega_nu
ltilde_m(sigma_nu) (galerkin_pairing), which dual_mass_matrix applies to the
dual basis itself. These operators on the reference element are the tables
of the element integrators' steps (geodesy.integrators): the canonical Hodge
for mci, the dual mass and the Galerkin pairing for mgi.

The reference element of order p is the ElementGrid on [-1, 1], built once
and cached; any other element is that grid with its own bounds and shares its
rules and bases. Grids with t_end < t_start are permitted and represent a
reversed time map (sqrt(g) < 0), as a backward integrator step does. Bounds
whose half-length is zero, infinite or NaN, or has an infinite reciprocal,
give no element: _half_length, the one rule for the grid and every element
path of geodesy.integrators, whose ValueError names the bounds.
"""

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .basis import (
    EdgeBasis,
    NodalBasis,
    QuadratureRule,
    _read_only,
    _samples,
    edge_eval_all,
    gauss_rule,
    gll_rule,
    nodal_eval_all,
)

# quadrature points per sub-interval when reducing a density to a 1-cochain
_REDUCE1_EXTRA = 4


class CochainKind(enum.Enum):
    PRIMAL0 = "primal0"
    PRIMAL1 = "primal1"
    DUAL0 = "dual0"


@dataclass(frozen=True)
class Cochain:
    """Degrees of freedom of a discrete form: kind plus a value vector."""

    kind: CochainKind
    values: np.ndarray

    def __post_init__(self):
        v = _read_only(self.values)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("cochain values must be a nonempty 1-d array")
        if self.kind is CochainKind.PRIMAL0 and len(v) < 2:
            raise ValueError("a primal 0-cochain needs at least two values")
        object.__setattr__(self, "values", v)

    @property
    def order(self) -> int:
        """Polynomial order p of the element the cochain belongs to."""
        if self.kind is CochainKind.PRIMAL0:
            return len(self.values) - 1
        return len(self.values)


def incidence_matrix(p: int) -> np.ndarray:
    """Read-only incidence matrix (p+1, p): column j carries -1 at node j and +1 at node j+1."""
    if p < 1:
        raise ValueError(f"order must be at least 1, got {p}")
    E = np.eye(p + 1, p, -1) - np.eye(p + 1, p)
    E.setflags(write=False)
    return E


def coboundary(c: Cochain, E: np.ndarray) -> Cochain:
    """Exterior derivative of a primal 0-cochain: successive differences."""
    if c.kind is not CochainKind.PRIMAL0:
        raise TypeError(f"coboundary expects a primal 0-cochain, got {c.kind}")
    if c.order != E.shape[1]:
        raise ValueError(f"cochain order {c.order} does not match incidence order {E.shape[1]}")
    return Cochain(CochainKind.PRIMAL1, E.T @ c.values)


@dataclass(frozen=True)
class ElementGrid:
    """Primal/dual grids and bases of one time element.

    t_end < t_start encodes a reversed time map; t_end == t_start is invalid.
    """

    p: int
    t_start: float
    t_end: float
    primal: QuadratureRule
    dual: QuadratureRule
    primal_basis: NodalBasis
    edge_basis: EdgeBasis
    dual_basis: NodalBasis

    @classmethod
    def build(cls, p: int, t_start: float, t_end: float) -> "ElementGrid":
        """Element over [t_start, t_end]; rules and bases are those of the reference element.

        The bounds must give a nonzero, finite half-length sqrt_g with a finite reciprocal,
        the rule of every element path, so NaN and infinite bounds fail too: ValueError.
        """
        _half_length(t_start, t_end)
        return replace(_reference_element(p), t_start=float(t_start), t_end=float(t_end))

    @property
    def sqrt_g(self) -> float:
        """Jacobian of the reference-to-time map; negative for reversed elements."""
        return 0.5 * (self.t_end - self.t_start)

    def to_time(self, tau):
        return self.t_start + (np.asarray(tau) + 1.0) * self.sqrt_g

    def to_ref(self, t):
        return (np.asarray(t) - self.t_start) / self.sqrt_g - 1.0


def _half_length(t_start, t_end) -> float:
    # sqrt(g) = (t_end - t_start) / 2, in Python floats, which stay silent where numpy's warn
    # (inf - inf, an overflowing reciprocal). The one rule for whether bounds give an element:
    # none where sqrt(g) is zero, infinite or NaN, or its reciprocal overflows
    t_start, t_end = float(t_start), float(t_end)
    sqrt_g = 0.5 * (t_end - t_start)
    if sqrt_g == 0.0 or not (math.isfinite(sqrt_g) and math.isfinite(1.0 / sqrt_g)):
        raise ValueError(
            f"element must have nonzero extent with a finite half-length whose reciprocal is"
            f" finite: t_start={t_start!r}, t_end={t_end!r} give half-length {sqrt_g!r}"
        )
    return sqrt_g


@lru_cache(maxsize=None)
def _reference_element(p: int) -> ElementGrid:
    # the element of order p on [-1, 1]; its rules and bases hold read-only
    # arrays, so every ElementGrid of that order shares them
    primal, dual = gll_rule(p), gauss_rule(p)
    primal_basis = NodalBasis.from_nodes(primal.nodes)
    dual_basis = NodalBasis.from_nodes(dual.nodes)
    return ElementGrid(
        p, -1.0, 1.0, primal, dual, primal_basis, EdgeBasis(primal_basis), dual_basis
    )


def reduce0(f, grid: ElementGrid, target: CochainKind) -> Cochain:
    """Sample a function of the reference coordinate into a 0-cochain."""
    if target is CochainKind.PRIMAL0:
        nodes = grid.primal.nodes
    elif target is CochainKind.DUAL0:
        nodes = grid.dual.nodes
    else:
        raise TypeError(f"reduce0 target must be a 0-cochain kind, got {target}")
    return Cochain(target, _samples(f, nodes, "sample"))


def reduce1(density, grid: ElementGrid) -> Cochain:
    """Integrate a reference-coordinate density over each primal sub-interval.

    Each interval uses a mapped Gauss rule with p + 4 points, exact well
    beyond the degrees that appear in the commuting-diagram identities.
    """
    rule = gauss_rule(grid.p + _REDUCE1_EXTRA)
    xi = grid.primal.nodes
    values = np.empty(grid.p)
    for j in range(grid.p):
        a, b = xi[j], xi[j + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        samples = _samples(density, mid + half * rule.nodes, "density")
        values[j] = half * np.dot(rule.weights, samples)
    return Cochain(CochainKind.PRIMAL1, values)


def reconstruct0(c: Cochain, grid: ElementGrid, x: float) -> float:
    """Interpolate a 0-cochain at reference coordinate x."""
    if c.kind is CochainKind.PRIMAL0:
        basis = grid.primal_basis
    elif c.kind is CochainKind.DUAL0:
        basis = grid.dual_basis
    else:
        raise TypeError(f"reconstruct0 expects a 0-cochain, got {c.kind}")
    if len(c.values) != len(basis.nodes):
        raise ValueError(f"cochain order {c.order} does not match grid order {grid.p}")
    return float(np.dot(c.values, nodal_eval_all(basis, x)))


def reconstruct1(c: Cochain, grid: ElementGrid, x):
    """Evaluate the edge expansion of a primal 1-cochain (dtau coefficient).

    x is a point or an array; the result has the shape of x.
    """
    if c.kind is not CochainKind.PRIMAL1:
        raise TypeError(f"reconstruct1 expects a primal 1-cochain, got {c.kind}")
    if c.order != grid.p:
        raise ValueError(f"cochain order {c.order} does not match grid order {grid.p}")
    return edge_eval_all(grid.edge_basis, x) @ c.values


def canonical_hodge_1to0(c: Cochain, grid: ElementGrid) -> Cochain:
    """Canonical pairing: resample the 1-cochain density at the dual nodes.

    The reconstructed dtau coefficient is divided by sqrt(g) so the result
    carries time-rate units on the dual grid.
    """
    return Cochain(CochainKind.DUAL0, reconstruct1(c, grid, grid.dual.nodes) / grid.sqrt_g)


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
    """Dual-basis mass matrix: the Galerkin pairing on 2p Gauss points of the dual basis.

    Kept separate from galerkin_mass_dual on purpose: this is the slow route
    used to check that the off-diagonal entries really vanish.
    """
    rule = gauss_rule(2 * grid.p)
    return galerkin_pairing(grid, rule) @ nodal_eval_all(grid.dual_basis, rule.nodes)
