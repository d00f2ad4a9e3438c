"""Autonomous first-order ODE systems and their structure metadata."""

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class SeparablePartition:
    """Split of the state into momentum and position blocks for partitioned steps.

    p_indices/q_indices say where the blocks live inside the state vector.
    The momentum rate field(y)[p_indices] may depend on the position block
    only, and the position rate field(y)[q_indices] on the momentum block only.
    """

    p_indices: tuple
    q_indices: tuple


@dataclass(frozen=True)
class OdeSystem:
    """A first-order autonomous system dy/dt = field(y) on R^dim.

    field, jacobian and domain_check take one state of shape (dim,) or a
    block of n states, shape (dim, n), one state per column. field returns
    the shape it was given; jacobian returns (dim, dim) for a state and
    (n, dim, dim) for a block; domain_check returns None when every state is
    admissible, or a short reason string for the first column that is not.
    The element integrators sample all quadrature nodes of a step as one
    block; wrap callables written for one state with pointwise().

    invariants holds (label, callable) pairs of conserved quantities used for
    drift reporting; they take one state. exact_solution, when present, maps
    (elapsed time, y0) to the exact state.
    """

    dim: int
    field: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    invariants: tuple = ()
    partition: Optional[SeparablePartition] = None
    exact_solution: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    domain_check: Optional[Callable[[np.ndarray], Optional[str]]] = None

    def __post_init__(self):
        # a system with no unknowns has no stage equations to solve; a bool is no dimension
        n = self.dim
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"OdeSystem.dim must be an integer >= 1, got {n!r}")

    def check_domain(self, y) -> Optional[str]:
        if self.domain_check is None:
            return None
        return self.domain_check(y)


def pointwise(system: OdeSystem) -> OdeSystem:
    """Copy of system whose one-state callables also take a (dim, n) block.

    A block is evaluated column by column: field stacks the columns' rates
    into (dim, n), jacobian stacks their matrices into (n, dim, dim), and
    domain_check returns the reason of the first failing column. A single
    state is passed through unchanged, and stacked values keep their dtype,
    so the integrators' own conversion refuses complex ones.
    """

    def lift(fn, combine):
        if fn is None:
            return None

        def lifted(y):
            y = np.asarray(y)
            if y.ndim == 1:
                return fn(y)
            return combine(fn(y[:, j]) for j in range(y.shape[1]))

        return lifted

    dim = system.dim
    return dataclasses.replace(
        system,
        field=lift(system.field, lambda cols: np.array(list(cols)).reshape(-1, dim).T),
        jacobian=lift(system.jacobian, lambda mats: np.array(list(mats)).reshape(-1, dim, dim)),
        domain_check=lift(
            system.domain_check, lambda reasons: next((r for r in reasons if r is not None), None)
        ),
    )


def hamiltonian_vector_field(grad_h: Callable[[np.ndarray], np.ndarray], m: int):
    """Canonical vector field of a Hamiltonian with state ordered (p, q).

    For y = (p_1..p_m, q_1..q_m) returns h(y) = (-dH/dq, +dH/dp), i.e. the
    inverse symplectic matrix applied to the gradient. A (dim, n) block maps
    to a block when grad_h does.
    """

    def h(y):
        g = np.asarray(grad_h(y))
        return np.concatenate([-g[m:], g[:m]])

    return h
