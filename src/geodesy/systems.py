"""Autonomous first-order ODE systems and their structure metadata.

The numbers a system is built from are counts, checked when it is built by
geodesy.basis._check_count (an integer, never a bool, returned as a Python
int): OdeSystem.dim >= 1, each partition index in [0, dim) and
hamiltonian_vector_field's m >= 1. A bad one raises ValueError naming it. A
partition's two blocks, each a sequence of indices (a tuple, list, range or
1-d array), must split range(dim): every state entry in exactly one block,
else ValueError naming dim and both blocks.
"""

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import _check_count, _float_output


@dataclass(frozen=True)
class SeparablePartition:
    """Split of the state into momentum and position blocks for partitioned steps.

    p_indices/q_indices say where the blocks live inside the state vector;
    together they split range(dim), each entry in exactly one block.
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

    dim is stored as a Python int; it and the partition's indices are refused
    when the system is built unless they are counts, and the partition unless
    its blocks split range(dim) (see the module docstring).
    """

    dim: int
    field: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    invariants: tuple = ()
    partition: Optional[SeparablePartition] = None
    exact_solution: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    domain_check: Optional[Callable[[np.ndarray], Optional[str]]] = None

    def __post_init__(self):
        # a system with no unknowns has no stage equations to solve; a partition is checked
        # here so a bad one fails when built: a bad index raised numpy's IndexError inside
        # symplectic Euler, and blocks that do not split the state stepped it wrongly
        dim = _check_count(self.dim, 1, "OdeSystem.dim")
        object.__setattr__(self, "dim", dim)
        if self.partition is not None:
            p, q = self.partition.p_indices, self.partition.q_indices
            indices = []
            for name, block in (("p_indices", p), ("q_indices", q)):
                what = f"OdeSystem.partition.{name}"
                # symplectic Euler reads a block again on every step, so a one-shot iterator,
                # empty by then, is no block
                if not (isinstance(block, Sequence) or getattr(block, "ndim", 0) == 1):
                    raise ValueError(f"{what} must be a sequence of indices, got {block!r}")
                for i in block:
                    if _check_count(i, 0, f"{what} entry") >= dim:
                        raise ValueError(
                            f"{what} entry must be below OdeSystem.dim = {dim}, got {i!r}"
                        )
                indices.extend(block)
            if sorted(indices) != list(range(dim)):
                raise ValueError(
                    f"OdeSystem.partition's blocks must split range(OdeSystem.dim = {dim}), each "
                    f"index in exactly one, got p_indices {p!r} and q_indices {q!r}"
                )

    def check_domain(self, y) -> Optional[str]:
        if self.domain_check is None:
            return None
        return self.domain_check(y)


def pointwise(system: OdeSystem) -> OdeSystem:
    """Copy of system whose one-state callables also take a (dim, n) block.

    A block is evaluated column by column: field stacks the columns' rates
    into (dim, n), jacobian stacks their matrices into (n, dim, dim), and
    domain_check returns the reason of the first failing column. A single
    state is passed through unchanged. The columns' values are stacked by
    geodesy.basis._float_output, the one conversion of a callable's values,
    so values that are not real (complex ones say) or ragged are refused
    with an EvaluationError naming the callable.
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

    def stack(values, who):
        # no shape to expect: an empty block's (0,) becomes (dim, 0) through the reshape
        return _float_output(list(values), who, None)

    dim = system.dim
    return dataclasses.replace(
        system,
        field=lift(system.field, lambda cols: stack(cols, "vector field").reshape(-1, dim).T),
        jacobian=lift(system.jacobian, lambda mats: stack(mats, "jacobian").reshape(-1, dim, dim)),
        domain_check=lift(
            system.domain_check, lambda reasons: next((r for r in reasons if r is not None), None)
        ),
    )


def hamiltonian_vector_field(grad_h: Callable[[np.ndarray], np.ndarray], m: int):
    """Canonical vector field of a Hamiltonian with state ordered (p, q).

    For y = (p_1..p_m, q_1..q_m) returns h(y) = (-dH/dq, +dH/dp), i.e. the
    inverse symplectic matrix applied to the gradient. A (dim, n) block maps
    to a block when grad_h does. The gradient goes through
    geodesy.basis._float_output, refused as the vector field's values are.
    m, the number of momenta, must be an integer >= 1, else ValueError.
    """
    m = _check_count(m, 1, "hamiltonian_vector_field m")

    def h(y):
        g = _float_output(grad_h(y), "vector field", None)
        return np.concatenate([-g[m:], g[:m]])

    return h
