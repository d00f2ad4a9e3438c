"""Benchmark problems: small autonomous systems with known invariants.

Every field, Jacobian and domain check takes one state (dim,) or a block of
states (dim, n), as OdeSystem requires.

The Lotka-Volterra kernels run in every residual under forward differences,
so they keep numpy calls few. field writes both rows into one output array
and multiplies by the state in place, with no np.array stack of rows; each
entry is y1 (y2 - 2) or y2 (1 - y1), bit for bit. domain admits a block with
one reduction, min(y) > 0 taken in floats, so that initial=inf admits an
empty block of any real dtype; only when that fails does it run the y <= 0
test, which a NaN passes, as the field's finiteness test reports it, and a
zero or negative entry fails with the reason, naming the first such column.
"""

from dataclasses import dataclass

import numpy as np

from .basis import _read_only
from .errors import DomainError
from .systems import OdeSystem, SeparablePartition


# called with axis=None, as ndarray.any() adds a Python frame per call on tiny arrays
_any = np.logical_or.reduce
_min = np.minimum.reduce


def _zero_jacobian(y, dim):
    # (dim, dim) zeros for a state, (n, dim, dim) for a (dim, n) block; the
    # problems assign their nonzero entries dh_i/dy_k into J[..., i, k]
    return np.zeros(np.shape(y)[1:] + (dim, dim))


# uniform rotation y_1' = y_2, y_2' = -y_1 of the circle and the harmonic oscillator
def _rotation_field(y):
    return np.array([y[1], -y[0]])


def _rotation_jacobian(y):
    J = _zero_jacobian(y, 2)
    J[..., 0, 1] = 1.0
    J[..., 1, 0] = -1.0
    return J


def _rotation_exact(t, y0):
    ct, st = np.cos(t), np.sin(t)
    return np.array([ct * y0[0] + st * y0[1], -st * y0[0] + ct * y0[1]])


@dataclass(frozen=True)
class ProblemSpec:
    """A named system with its reference initial condition and step size."""

    name: str
    system: OdeSystem
    y0: np.ndarray
    dt_ref: float

    def __post_init__(self):
        object.__setattr__(self, "y0", _read_only(self.y0))

    @property
    def invariant_labels(self) -> tuple:
        return tuple(label for label, _ in self.system.invariants)


def make_circle() -> ProblemSpec:
    """Uniform rotation: dp/dt = q, dq/dt = -p, state (p, q).

    Conserves the energy (p^2 + q^2)/2 and the radius. The flow is the
    time-reverse of the canonical flow of that energy, so the closed-form
    solution rotates clockwise.
    """

    def energy(y):
        return 0.5 * (y[0] ** 2 + y[1] ** 2)

    def radius(y):
        return float(np.hypot(y[0], y[1]))

    part = SeparablePartition(p_indices=(0,), q_indices=(1,))
    sys = OdeSystem(
        dim=2,
        field=_rotation_field,
        jacobian=_rotation_jacobian,
        invariants=(("H", energy), ("R", radius)),
        partition=part,
        exact_solution=_rotation_exact,
    )
    return ProblemSpec("circle", sys, np.array([2.0, 0.0]), 1.0)


def make_lotka_volterra() -> ProblemSpec:
    """Planar predator-prey system on the positive quadrant, state (y1, y2).

    dy1/dt = y1 (y2 - 2), dy2/dt = y2 (1 - y1); conserves
    V = -y1 + ln y1 - y2 + 2 ln y2. Not separable, so no partition.
    """

    def field(y):
        h = np.empty(np.shape(y))
        np.subtract(y[1:], 2.0, out=h[:1])
        np.subtract(1.0, y[:1], out=h[1:])
        h *= y
        return h

    def jac(y):
        J = _zero_jacobian(y, 2)
        J[..., 0, 0] = y[1] - 2.0
        J[..., 0, 1] = y[0]
        J[..., 1, 0] = -y[1]
        J[..., 1, 1] = 1.0 - y[0]
        return J

    def v(y):
        if y[0] <= 0.0 or y[1] <= 0.0:
            raise DomainError(f"V is undefined outside the positive quadrant, got {tuple(y)}")
        return -y[0] + np.log(y[0]) - y[1] + 2.0 * np.log(y[1])

    def domain(y):
        # one reduction admits a block, in floats so that initial=inf fits an int
        # block; a NaN fails it and passes the y <= 0 test
        if _min(y, axis=None, initial=np.inf, dtype=float) > 0.0 or not _any(y <= 0.0, axis=None):
            return None
        cols = y.reshape(2, -1)
        y1, y2 = cols[:, (cols <= 0.0).any(axis=0).argmax()]
        return f"populations must stay positive, got ({y1:.6g}, {y2:.6g})"

    sys = OdeSystem(
        dim=2,
        field=field,
        jacobian=jac,
        invariants=(("V", v),),
        domain_check=domain,
    )
    return ProblemSpec("lotka-volterra", sys, np.array([3.0, 3.0]), 0.3)


def make_pendulum() -> ProblemSpec:
    """Nonlinear pendulum with gravity constant 10, state (p, q).

    dp/dt = -10 sin q, dq/dt = p; conserves H = p^2/2 - 10 cos q.
    """

    def field(y):
        return np.array([-10.0 * np.sin(y[1]), y[0]])

    def jac(y):
        J = _zero_jacobian(y, 2)
        J[..., 0, 1] = -10.0 * np.cos(y[1])
        J[..., 1, 0] = 1.0
        return J

    def energy(y):
        return 0.5 * y[0] ** 2 - 10.0 * np.cos(y[1])

    part = SeparablePartition(p_indices=(0,), q_indices=(1,))
    sys = OdeSystem(
        dim=2,
        field=field,
        jacobian=jac,
        invariants=(("H", energy),),
        partition=part,
    )
    return ProblemSpec("pendulum", sys, np.array([0.0, np.pi / 2.0]), 0.4)


def make_kepler() -> ProblemSpec:
    """Planar two-body problem, state (p1, p2, q1, q2).

    Conserves the energy H = |p|^2/2 - 1/|q| and the angular momentum
    L = q1 p2 - q2 p1. The collision guard keeps |q|^2 away from zero.
    """

    def field(y):
        p1, p2, q1, q2 = y
        r3 = (q1 * q1 + q2 * q2) ** 1.5
        return np.array([-q1 / r3, -q2 / r3, p1, p2])

    def jac(y):
        _, _, q1, q2 = y
        r2 = q1 * q1 + q2 * q2
        r3 = r2**1.5
        r5 = r2**2.5
        cross = 3.0 * q1 * q2 / r5
        J = _zero_jacobian(y, 4)
        J[..., 0, 2] = -1.0 / r3 + 3.0 * q1 * q1 / r5
        J[..., 0, 3] = cross
        J[..., 1, 2] = cross
        J[..., 1, 3] = -1.0 / r3 + 3.0 * q2 * q2 / r5
        J[..., 2, 0] = 1.0
        J[..., 3, 1] = 1.0
        return J

    def energy(y):
        p1, p2, q1, q2 = y
        return 0.5 * (p1 * p1 + p2 * p2) - 1.0 / np.hypot(q1, q2)

    def angular_momentum(y):
        p1, p2, q1, q2 = y
        return q1 * p2 - q2 * p1

    def domain(y):
        r2 = y[2] ** 2 + y[3] ** 2
        if not _any(r2 < 1e-12, axis=None):
            return None
        r2 = np.atleast_1d(r2)
        return f"bodies collide: |q|^2 = {r2[(r2 < 1e-12).argmax()]:.3e}"

    part = SeparablePartition(p_indices=(0, 1), q_indices=(2, 3))
    sys = OdeSystem(
        dim=4,
        field=field,
        jacobian=jac,
        invariants=(("H", energy), ("L", angular_momentum)),
        partition=part,
        domain_check=domain,
    )
    return ProblemSpec("kepler", sys, np.array([0.0, 2.0, 0.4, 0.0]), 0.1)


def make_harmonic_oscillator() -> ProblemSpec:
    """Unit harmonic oscillator, state (q, p): dq/dt = p, dp/dt = -q.

    Conserves I = q^2 + p^2. Note the state ordering differs from the other
    Hamiltonian problems; the partition records where each block lives.
    """

    def amplitude(y):
        return y[0] ** 2 + y[1] ** 2

    part = SeparablePartition(p_indices=(1,), q_indices=(0,))
    sys = OdeSystem(
        dim=2,
        field=_rotation_field,
        jacobian=_rotation_jacobian,
        invariants=(("I", amplitude),),
        partition=part,
        exact_solution=_rotation_exact,
    )
    return ProblemSpec("harmonic", sys, np.array([1.0, 0.0]), 0.1)


_FACTORIES = {
    "circle": make_circle,
    "lotka-volterra": make_lotka_volterra,
    "pendulum": make_pendulum,
    "kepler": make_kepler,
    "harmonic": make_harmonic_oscillator,
}


def problem_names() -> tuple:
    return tuple(sorted(_FACTORIES))


def get_problem(name: str) -> ProblemSpec:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(problem_names())
        raise KeyError(f"unknown problem {name!r}; known problems: {known}") from None
    return factory()
