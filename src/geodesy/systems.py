"""Autonomous first-order ODE systems and their structure metadata.

Every field of an OdeSystem is checked when it is built, and a bad one raises
ValueError naming it. field must be callable, and jacobian, domain_check and
exact_solution None or callable; partition None or a SeparablePartition. The
numbers a system is built from are counts, checked by
geodesy.basis._check_count (an integer, never a bool, returned as a Python
int): OdeSystem.dim >= 1 and each partition index in [0, dim). A partition
names its momenta, a sequence of distinct indices (a tuple, list, range or
1-d array), else ValueError naming p_indices; every other state entry is a
position, so the two blocks split range(dim) by construction. The invariants
must be an iterable of (label, callable) pairs with distinct string labels,
else ValueError naming the invariants or the entry.
"""

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import _check_callable, _check_count, _float_output
from .errors import EvaluationError


@dataclass(frozen=True)
class SeparablePartition:
    """Split of the state into momentum and position blocks for partitioned steps.

    p_indices are the momenta's places in the state vector; every other entry is a
    position. The momentum rate field(y)[p_indices] may depend on the positions only,
    and the rate of each position on the momenta only.
    """

    p_indices: tuple


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
    (elapsed time, y0) to the exact state. partition, when present, names the
    momenta for symplectic Euler; every other entry of the state is a position.

    dim is stored as a Python int and invariants as a tuple; every field is checked when the
    system is built, by the rules of the module docstring.
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
        # symplectic Euler, and blocks that did not split the state stepped it wrongly
        dim = _check_count(self.dim, 1, "OdeSystem.dim")
        object.__setattr__(self, "dim", dim)
        # a callable that is none would fail only at its first call inside a step, as a raw
        # TypeError naming neither the field nor the step
        _check_callable(self.field, "OdeSystem.field")
        for name in ("jacobian", "domain_check", "exact_solution"):
            _check_callable(getattr(self, name), f"OdeSystem.{name}", optional=True)
        if not (self.partition is None or isinstance(self.partition, SeparablePartition)):
            raise ValueError(
                f"OdeSystem.partition must be None or a geodesy.SeparablePartition, got"
                f" {self.partition!r}"
            )
        if self.partition is not None:
            p = self.partition.p_indices
            what = "OdeSystem.partition.p_indices"
            # symplectic Euler reads the momenta again on every step, so a one-shot iterator,
            # empty by then, is no block
            if not (isinstance(p, Sequence) or getattr(p, "ndim", 0) == 1):
                raise ValueError(f"{what} must be a sequence of indices, got {p!r}")
            for i in p:
                if _check_count(i, 0, f"{what} entry") >= dim:
                    raise ValueError(f"{what} entry must be below OdeSystem.dim = {dim}, got {i!r}")
            if len(set(p)) != len(p):
                raise ValueError(f"{what} entries must be distinct, got {p!r}")
        # a repeated label kept only the last one's series in a Trajectory, and an entry that
        # is no pair failed only after the run, unpacking it
        if not isinstance(self.invariants, Iterable):
            raise ValueError(
                f"OdeSystem.invariants must be an iterable of (label, callable) pairs, got"
                f" {self.invariants!r}"
            )
        invariants = tuple(self.invariants)
        for k, entry in enumerate(invariants):
            pair = isinstance(entry, (tuple, list)) and len(entry) == 2
            if not (pair and isinstance(entry[0], str) and callable(entry[1])):
                raise ValueError(
                    f"OdeSystem.invariants entry must be a (label, callable) pair with a string"
                    f" label, got {entry!r}"
                )
            if any(entry[0] == other[0] for other in invariants[:k]):
                raise ValueError(f"OdeSystem.invariants labels must be distinct, got {entry!r}")
        object.__setattr__(self, "invariants", invariants)

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


def hamiltonian_vector_field(grad_h: Callable[[np.ndarray], np.ndarray]):
    """Canonical vector field of a Hamiltonian with state ordered (p, q).

    For y = (p_1..p_m, q_1..q_m), m = len(y) // 2, returns h(y) = (-dH/dq, +dH/dp),
    the inverse symplectic matrix applied to the gradient; an odd len(y) raises
    EvaluationError. A (dim, n) block maps to a block when grad_h does. The gradient goes
    through geodesy.basis._float_output, refused as the vector field's values are. A grad_h
    that is not callable raises ValueError naming it, when the field is built.
    """
    _check_callable(grad_h, "grad_h")

    def h(y):
        m, odd = divmod(len(y), 2)
        if odd:
            raise EvaluationError(f"hamiltonian_vector_field got a state of odd length {len(y)}")
        g = _float_output(grad_h(y), "vector field", None)
        return np.concatenate([-g[m:], g[:m]])

    return h
