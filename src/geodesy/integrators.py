"""Time integrators: one mimetic element kernel plus classical one-step methods.

The element methods expand the solution inside a step as a degree-p
polynomial through the Gauss-Lobatto nodes and difference it exactly with the
incidence matrix, which gives the rate 1-cochain; the edge expansion of that
cochain is then read at the p dual Gauss nodes. What remains is the pairing
of the rate with the vector field, and one kernel covers both methods: the
field is sampled at the nodes of a q-point Gauss rule, as one (dim, q) block
per residual (one field, domain-check and Jacobian call), and paired against
the dual basis through B[m, nu] = omega_nu ltilde_m(sigma_nu) / w_m, with each
row m scaled by s_m,

    R[i, m] = s_m (rate of y_i at dual node m / sqrt(g) - sum_nu B[m, nu] h_i(y(sigma_nu))).

mgi is the Galerkin pairing on a q_rhs-point rule with row scale s = w, the
dual weights; with enough quadrature points it conserves polynomial
Hamiltonians exactly. mci is the same pairing on the p dual nodes themselves
with unit row scale; there B is the identity, the residual is collocation at
the dual nodes, and the method is Gauss collocation, which is symplectic.

Residuals carry a 1/sqrt(g) factor so Newton tolerances are expressed in
vector-field units regardless of the step size. Stage unknowns are flattened
variable-major (all stages of y_1, then y_2, ...). Steps accept negative dt,
which builds a reversed element; the integrate driver itself always walks
forward.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .basis import MAX_ORDER, edge_eval_all, gauss_rule, nodal_eval_all
from .errors import DomainError, EvaluationError, GeodesyError, IntegrationError
from .mimetic import ElementGrid, _reference_element, incidence_matrix
from .newton import NewtonConfig, newton_solve
from .systems import OdeSystem

_DEFAULT_QRHS_OFFSET = 10


class Method(enum.Enum):
    MCI = "mci"
    MGI = "mgi"
    EXPLICIT_EULER = "euler"
    SYMPLECTIC_EULER = "seuler"
    RK4 = "rk4"

    @property
    def is_element_method(self) -> bool:
        return self in (Method.MCI, Method.MGI)


def default_qrhs(p: int) -> int:
    """Default quadrature size for the Galerkin pairing: 2p + 10."""
    return 2 * p + _DEFAULT_QRHS_OFFSET


def _check_qrhs(q_rhs: int) -> None:
    if not 1 <= q_rhs <= MAX_ORDER:
        raise ValueError(f"q_rhs must lie in [1, {MAX_ORDER}], got {q_rhs}")


@lru_cache(maxsize=None)
def _pairing_tables(p: int, q_rhs: int):
    # reference-element matrices shared by every step of order p:
    #   E      incidence, (p+1, p)
    #   Et     edge functions at the dual nodes, Et[l, j] = e_l(tau_j)
    #   D      E @ Et, the linearization of the rate at the dual nodes
    #   Lq     nodal basis at the quadrature nodes, (p+1, q)
    #   B      pairing matrix omega_nu ltilde_m(sigma_nu) / w_m, (p, q);
    #          exactly the identity when q_rhs == p
    #   nodes  the quadrature nodes sigma_nu
    grid = ElementGrid.build(p, 0.0, 1.0)
    quad = gauss_rule(q_rhs)
    E = np.asarray(incidence_matrix(p).matrix)
    Et = edge_eval_all(grid.edge_basis, grid.dual.nodes).T
    Lq = nodal_eval_all(grid.primal_basis, quad.nodes).T
    Ltilde = nodal_eval_all(grid.dual_basis, quad.nodes).T
    B = quad.weights * Ltilde / grid.dual.weights[:, None]
    D = E @ Et
    for arr in (Et, D, Lq, B):
        arr.setflags(write=False)
    return E, Et, D, Lq, B, quad.nodes


@lru_cache(maxsize=None)
def _rate_block(p: int, q_rhs: int, M: int, galerkin: bool) -> np.ndarray:
    # the stage Jacobian's rate term times sqrt(g): linear, and the same for
    # every variable
    D = _pairing_tables(p, q_rhs)[2]
    block = np.kron(np.eye(M), _row_scale(p, galerkin)[:, None] * D[1:].T)
    block.setflags(write=False)
    return block


@dataclass(frozen=True)
class ElementSolution:
    """Polynomial solution on one element: values at the p+1 primal nodes.

    Column 0 of coefficients is the element's initial condition, bitwise.
    """

    grid: ElementGrid
    coefficients: np.ndarray  # (dim, p+1)
    newton_iterations: int = 0

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    def endpoint(self) -> np.ndarray:
        return self.coefficients[:, -1].copy()

    def evaluate(self, tau) -> np.ndarray:
        """State at a reference coordinate or an array tau, shape (dim,) + tau.shape."""
        L = nodal_eval_all(self.grid.primal_basis, tau)
        return np.moveaxis(np.matmul(self.coefficients, L[..., None])[..., 0], -1, 0)

    def evaluate_time(self, t) -> np.ndarray:
        """State at time(s) t, shape (dim,) + t.shape."""
        return self.evaluate(self.grid.to_ref(t))


def _field_at(sys: OdeSystem, y, where) -> np.ndarray:
    # y is one state (dim,) or a block (dim, n): one domain check, one field
    # call and one finiteness test cover every column. where(j) names column
    # j; it is only called to report a failure, for the first failing column.
    reason = sys.check_domain(y)
    if reason is not None:
        j, reason = _first_domain_failure(sys, y, reason)
        raise DomainError(f"state leaves the domain at {where(j)}: {reason}")
    h = np.asarray(sys.field(y), dtype=float)
    if h.shape != y.shape:
        raise ValueError(
            f"vector field returned shape {h.shape} for states of shape {y.shape}, expected"
            f" {y.shape}; wrap a field written for one state with geodesy.systems.pointwise"
        )
    finite = np.isfinite(h)
    if not finite.all():
        j = int(np.argmin(finite.reshape(len(h), -1).all(axis=0)))
        raise EvaluationError(f"vector field is non-finite at {where(j)}")
    return h


def _first_domain_failure(sys: OdeSystem, y, block_reason):
    cols = y.reshape(len(y), -1)
    for j in range(cols.shape[1]):
        reason = sys.check_domain(cols[:, j])
        if reason is not None:
            return j, reason
    return 0, block_reason


def _row_scale(p: int, galerkin: bool) -> np.ndarray:
    return gauss_rule(p).weights if galerkin else np.ones(p)


def _residual(sys, grid, coeffs, q_rhs, scale) -> np.ndarray:
    E, Et, _, Lq, B, nodes = _pairing_tables(grid.p, q_rhs)
    rate = (coeffs @ E) @ Et  # coboundary per variable, then edge expansion
    Hq = _field_at(
        sys, coeffs @ Lq, lambda n: f"quadrature node {n} (t={grid.to_time(nodes[n]):g})"
    )
    return (scale * (rate / grid.sqrt_g - Hq @ B.T)).reshape(-1)


def mci_residual(sys: OdeSystem, sol: ElementSolution) -> np.ndarray:
    """Collocation residual at the dual nodes, flattened variable-major.

    R[i, j] = (rate of y_i at dual node j) / sqrt(g) - h_i(y at dual node j).
    """
    grid = sol.grid
    return _residual(sys, grid, sol.coefficients, grid.p, _row_scale(grid.p, galerkin=False))


def mgi_residual(sys: OdeSystem, sol: ElementSolution, q_rhs: int) -> np.ndarray:
    """Galerkin residual against the dual basis, flattened variable-major.

    R[i, m] = w_m (rate of y_i at dual node m) / sqrt(g)
              - sum_nu omega_nu h_i(y(sigma_nu)) ltilde_m(sigma_nu).
    """
    _check_qrhs(q_rhs)
    grid = sol.grid
    return _residual(sys, grid, sol.coefficients, q_rhs, _row_scale(grid.p, galerkin=True))


def _element_step(sys, y0, t0, dt, p, q_rhs, config, galerkin):
    grid = ElementGrid.build(p, t0, t0 + dt)
    y0 = np.asarray(y0, dtype=float)
    if len(y0) != sys.dim:
        raise ValueError(f"state has length {len(y0)}, system dimension is {sys.dim}")
    _, _, _, Lq, B, _ = _pairing_tables(p, q_rhs)
    scale = _row_scale(p, galerkin)
    M = sys.dim
    rate_block = _rate_block(p, q_rhs, M, galerkin) / grid.sqrt_g
    pairing = scale[:, None] * B
    # one (M, p+1) buffer per step: column 0 holds y0, the callables write
    # the stage values z into columns 1..p
    coeffs = np.empty((M, p + 1))
    coeffs[:, 0] = y0
    stages = coeffs[:, 1:]

    def residual(z):
        stages[...] = z.reshape(M, p)
        return _residual(sys, grid, coeffs, q_rhs, scale)

    def jacobian(z):
        stages[...] = z.reshape(M, p)
        Yq = coeffs @ Lq
        Jh = np.asarray(sys.jacobian(Yq), dtype=float)
        if Jh.shape != (Yq.shape[1], M, M):
            raise ValueError(
                f"jacobian returned shape {Jh.shape} for states of shape {Yq.shape}, expected"
                f" {(Yq.shape[1], M, M)}; wrap a jacobian written for one state with"
                " geodesy.systems.pointwise"
            )
        field_block = np.einsum("nik,mn,bn->imkb", Jh, pairing, Lq[1:])
        return rate_block - field_block.reshape(M * p, M * p)

    jac = jacobian if sys.jacobian is not None else None
    result = newton_solve(residual, np.repeat(y0, p), config, jacobian=jac)
    stages[...] = result.x.reshape(M, p)
    # a copy: the callables keep writing into coeffs after the step returns
    return ElementSolution(grid, coeffs.copy(), newton_iterations=result.iterations)


def mci_step(
    sys: OdeSystem,
    y0,
    t0: float,
    dt: float,
    p: int,
    config: NewtonConfig = NewtonConfig(),
) -> ElementSolution:
    """One collocation-pairing step of order p over [t0, t0 + dt]; dt may be negative."""
    return _element_step(sys, y0, t0, dt, p, p, config, galerkin=False)


def mgi_step(
    sys: OdeSystem,
    y0,
    t0: float,
    dt: float,
    p: int,
    q_rhs: Optional[int] = None,
    config: NewtonConfig = NewtonConfig(),
) -> ElementSolution:
    """One Galerkin-pairing step of order p over [t0, t0 + dt]; dt may be negative."""
    if q_rhs is None:
        q_rhs = default_qrhs(p)
    _check_qrhs(q_rhs)
    return _element_step(sys, y0, t0, dt, p, q_rhs, config, galerkin=True)


def explicit_euler_step(sys: OdeSystem, y0, t0: float, dt: float) -> np.ndarray:
    """Forward Euler update y + dt h(y)."""
    y0 = np.asarray(y0, dtype=float)
    return y0 + dt * _field_at(sys, y0, lambda j: f"t={t0:g}")


def symplectic_euler_step(sys: OdeSystem, y0, t0: float, dt: float) -> np.ndarray:
    """Momentum-first symplectic Euler update for separable systems.

    p_new = p + dt h_p(p, q); q_new = q + dt h_q(p_new, q), where h_p and h_q
    are the rows of field at the partition's momentum and position indices.
    Requires sys.partition.
    """
    part = sys.partition
    if part is None:
        raise ValueError("symplectic Euler needs a separable partition on the system")
    y0 = np.asarray(y0, dtype=float)
    p_idx = list(part.p_indices)
    q_idx = list(part.q_indices)
    y = y0.copy()
    y[p_idx] += dt * _field_at(sys, y0, lambda j: f"t={t0:g}")[p_idx]
    y[q_idx] += dt * _field_at(sys, y, lambda j: f"t={t0:g} (after the momentum update)")[q_idx]
    return y


def rk4_step(sys: OdeSystem, y0, t0: float, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update."""
    y0 = np.asarray(y0, dtype=float)
    k1 = _field_at(sys, y0, lambda j: f"t={t0:g}")
    k2 = _field_at(sys, y0 + 0.5 * dt * k1, lambda j: f"t={t0:g} (stage 2)")
    k3 = _field_at(sys, y0 + 0.5 * dt * k2, lambda j: f"t={t0:g} (stage 3)")
    k4 = _field_at(sys, y0 + dt * k3, lambda j: f"t={t0:g} (stage 4)")
    return y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class Trajectory:
    """Recorded time grid, endpoint states, invariant series and element polynomials of one run."""

    method: Method
    times: np.ndarray  # (n+1,)
    states: np.ndarray  # (dim, n+1)
    invariants: dict  # label -> (n+1,) raw values
    order: Optional[int] = None  # polynomial order for element methods
    # element methods only, read-only; element k spans times[k]..times[k+1]
    coefficients: Optional[np.ndarray] = None  # (n, dim, p+1) values at the primal nodes
    newton_iterations: Optional[np.ndarray] = None  # (n,) Newton iterations per step

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def _invariant_series(sys: OdeSystem, times: np.ndarray, states: np.ndarray) -> dict:
    series = {}
    for label, fn in sys.invariants:
        values = []
        for k in range(len(times)):
            try:
                values.append(fn(states[:, k]))
            except GeodesyError as err:
                raise IntegrationError(
                    f"invariant {label!r} failed on the state at t={times[k]:g} (step {k}): {err}",
                    step=k,
                    time=times[k],
                ) from err
        series[label] = np.array(values)
    return series


def integrate(
    sys: OdeSystem,
    method: Method,
    y0,
    t0: float,
    tf: float,
    dt: float,
    p: int = 2,
    newton: NewtonConfig = NewtonConfig(),
    q_rhs: Optional[int] = None,
) -> Trajectory:
    """March from t0 to tf with fixed steps of dt, shortening the last one.

    Step times are computed as t0 + k dt (no accumulation drift) and the
    final step lands on tf exactly. Every step has positive length: a
    remainder within rounding of the step times is absorbed by the last step.
    Step failures are re-raised as IntegrationError annotated with the step
    index and start time; so is an invariant that fails on a recorded state,
    with the index k of that state in times (the state step k starts from)
    and its time.
    """
    if not isinstance(method, Method):
        raise TypeError(f"method must be a geodesy.Method, got {method!r}")
    if not tf > t0:
        raise ValueError(f"tf must exceed t0, got t0={t0!r}, tf={tf!r}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (sys.dim,):
        raise ValueError(f"initial state must have shape ({sys.dim},), got {y0.shape}")

    # t0 + k dt rounds at the magnitude of t0 and tf, so (tf - t0) / dt can
    # exceed a whole count by far more than 1e-12 when tf = t0 + n dt
    slack = 1e-12 * dt + 8 * np.finfo(float).eps * max(abs(t0), abs(tf))
    n = max(1, math.ceil((tf - t0 - slack) / dt))
    times = np.empty(n + 1)
    states = np.empty((sys.dim, n + 1))
    times[0] = t0
    states[:, 0] = y0
    coefficients = newton_iterations = None
    if method.is_element_method:
        coefficients = np.empty((n, sys.dim, p + 1))
        newton_iterations = np.empty(n, dtype=int)

    y = y0
    for k in range(n):
        t_a = t0 + k * dt
        t_b = tf if k == n - 1 else t0 + (k + 1) * dt
        h = t_b - t_a
        try:
            if method is Method.MCI:
                sol = mci_step(sys, y, t_a, h, p, newton)
            elif method is Method.MGI:
                sol = mgi_step(sys, y, t_a, h, p, q_rhs, newton)
            elif method is Method.EXPLICIT_EULER:
                y = explicit_euler_step(sys, y, t_a, h)
            elif method is Method.SYMPLECTIC_EULER:
                y = symplectic_euler_step(sys, y, t_a, h)
            elif method is Method.RK4:
                y = rk4_step(sys, y, t_a, h)
            if method.is_element_method:
                coefficients[k] = sol.coefficients
                newton_iterations[k] = sol.newton_iterations
                y = sol.endpoint()
            reason = sys.check_domain(y)
            if reason is not None:
                raise DomainError(f"accepted state leaves the domain: {reason}")
        except GeodesyError as err:
            raise IntegrationError(
                f"step {k} starting at t={t_a:g} failed: {err}", step=k, time=t_a
            ) from err
        times[k + 1] = t_b
        states[:, k + 1] = y

    for arr in (coefficients, newton_iterations):
        if arr is not None:
            arr.setflags(write=False)
    return Trajectory(
        method=method,
        times=times,
        states=states,
        invariants=_invariant_series(sys, times, states),
        order=p if method.is_element_method else None,
        coefficients=coefficients,
        newton_iterations=newton_iterations,
    )


def sample_trajectory(traj: Trajectory, sample_times) -> np.ndarray:
    """Evaluate an element-method trajectory densely at the given times.

    Returns an array of shape (dim, len(sample_times)). Only methods that
    retain element polynomials support this; times must lie inside the
    integration window (up to a rounding slack, clamped onto it). One
    searchsorted and one basis evaluation cover all times; column k equals
    evaluate_time(sample_times[k]) on the element over times[j]..times[j+1]
    that holds it, bitwise.
    """
    if traj.coefficients is None:
        raise ValueError(f"method {traj.method.value!r} does not retain element polynomials")
    sample_times = np.asarray(sample_times, dtype=float)
    t0, tf = traj.times[0], traj.times[-1]
    slack = 1e-12 * (1.0 + abs(t0) + abs(tf))
    if np.any(sample_times < t0 - slack) or np.any(sample_times > tf + slack):
        raise ValueError(f"sample times must lie within [{t0!r}, {tf!r}]")
    starts = traj.times[:-1]
    sqrt_g = 0.5 * np.diff(traj.times)  # as in ElementGrid.sqrt_g
    idx = np.clip(np.searchsorted(starts, sample_times, side="right") - 1, 0, len(starts) - 1)
    tau = (np.clip(sample_times, t0, tf) - starts[idx]) / sqrt_g[idx] - 1.0  # as in to_ref
    L = nodal_eval_all(_reference_element(traj.order)[2], tau)  # the primal basis
    return np.matmul(traj.coefficients[idx], L[:, :, None])[:, :, 0].T
