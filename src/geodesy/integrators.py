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

Everything a step needs of its pairing, the driver's guess table included,
sits in one read-only record, built once per (p, q, pairing) from the
unit ElementGrid of order p and cached; one resolver picks it from the
method, and q_rhs (default 2p + 10) is an mgi setting only. Its tables carry
the row scale, D[l, m] = s_m e_l(tau_m) and P[nu, m] = s_m B[m, nu], so one
residual, (c E) D / sqrt(g) - h P for nodal values c and field values h,
serves both pairings; mci has no P and skips that product. One product
c [Lq | E] gives both the quadrature states c Lq and the coboundary c E, whose
entries are each one exactly rounded difference of nodal values.

One factory builds, binds and solves an element over its stage buffer, once
per buffer: its residual, stage Jacobian, bind and solve. integrate builds it
once per run and solves every element in one buffer, and each public step
builds its own; a public residual (mci_residual/mgi_residual) binds one at a
solved element's stages. solve writes y0, the guess and Newton's stages: the
stage layout is written there and read once more in the public residual.
Stage unknowns are variable-major, so only the factory meets the dimension:
its rate term is the record's p x p rate block once per variable on the
diagonal. A bind call sets each element's bounds, which the error messages
name, and that term over sqrt(g); the stage Jacobian is it minus one GEMM of
the pairing weights with the field Jacobians at the q nodes. That product is
(p p, M M), indexed by (stage pair, variable pair); one take with an index
array the factory caches beside the rate term reads it into the
variable-major (M p, M p) layout. The take only moves entries, so its bits
are those of a reshape, transpose and reshape, in one call: 1.7 against 3.6
us at pendulum's shape (M = 2, p = 2). Residuals carry a 1/sqrt(g) factor so
Newton tolerances are in vector-field units whatever the step size. Steps
accept negative dt (a reversed element); the integrate driver walks forward.
No step builds a grid: an element is its bounds and its values at the primal
nodes (ElementSolution), and sample_trajectory is the one way to read it.

The kernel's products (c [Lq | E], the coboundary times D, h P, the pairing
weights times the field Jacobians, and the driver's guess) are 2-D and, at
low orders, a few dozen entries a side at most, so they call ndarray.dot
rather than the @ operator. Both reach the same BLAS gemm, and on these shapes they give the
same bits, but @ dispatches through the matmul ufunc, which makes a call
take about twice as long: 1.1 against 0.45 us for a (2, 4) by (4, 6)
product (numpy 2.4, one x86-64 core). sample_trajectory's batched 3-D
product stays np.matmul, which gives every sampled point the bits it gets
alone.

Newton starts cold, from y0 at every stage, on the first step of the
driver and in the public steps mci_step/mgi_step; every later step of the
driver starts from the previous element read at this element's nodes
(tau + 2 in the previous element's reference coordinate), one product with
the pairing record's (p+1, p) guess table, except a shortened last step,
which starts cold. Up to p = 8 the table reads the element's own polynomial;
above, it extrapolates the degree-8 interpolant of 9 nodes spread over the
element, as extrapolating through every node would amplify the rounding and
Newton errors in the nodal values by up to 5e48 (at p = 64). The guess is
safe for the conserved quantities because Newton polishes its abs_tol stop
(see geodesy.newton): the accepted stages do not depend on where the solve
started by more than rounding. A dt whose element half-length has no finite
reciprocal is rejected with a ValueError naming dt.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .basis import MAX_ORDER, _check_order, _read_only, edge_eval_all, gauss_rule, nodal_eval_all
from .errors import DomainError, EvaluationError, GeodesyError, IntegrationError
from .mimetic import _reference_element, incidence_matrix
from .newton import NewtonConfig, _all, newton_solve
from .systems import OdeSystem

class Method(enum.Enum):
    MCI = "mci"
    MGI = "mgi"
    EXPLICIT_EULER = "euler"
    SYMPLECTIC_EULER = "seuler"
    RK4 = "rk4"

    @property
    def is_element_method(self) -> bool:
        return self in (Method.MCI, Method.MGI)


# the driver's guess extrapolates through at most this degree. A guessed stage is a sum of
# nodal values weighted by one column of ahead, so the column's sum of |entries| bounds how
# much it amplifies their errors: below 1e6 at every order this way, where through all p + 1
# nodes it reaches 9.4e11 at p = 16 and 5.3e48 at p = 64
_GUESS_DEGREE = 8

_MAX_BYTES = np.iinfo(np.intp).max  # the largest byte size numpy can give an array


def default_qrhs(p: int) -> int:
    """Default quadrature size for the Galerkin pairing: 2p + 10."""
    return 2 * p + 10


class _Pairing(NamedTuple):
    # one pairing of order p on a q-point rule, q = len(nodes), for every dimension; read-only
    # [Lq | E], (p+1, q+p): the nodal basis Lq at the quadrature nodes and the incidence E;
    # one product coeffs @ LE gives the quadrature states and the coboundary
    LE: np.ndarray
    D: np.ndarray  # edge functions at the dual nodes, row-scaled: D[l, m] = s_m e_l(tau_m)
    P: Optional[np.ndarray]  # P[nu, m] = s_m B[m, nu], (q, p); None for collocation, where s B = I
    nodes: np.ndarray  # the quadrature nodes sigma_nu
    rate: np.ndarray  # (E @ D)[1:]^T, (p, p): one variable's stage Jacobian rate term times sqrt(g)
    weights: np.ndarray  # W[(m, b), nu] = s_m B[m, nu] Lq[1+b, nu]; its field term is W @ Jh
    # (p+1, p): coeffs @ ahead reads an element at the next one's stages, tau + 2, through the
    # interpolant of at most _GUESS_DEGREE + 1 of its nodes (the rows of the others are zero);
    # built in Lagrange product form, as the barycentric form loses digits outside [-1, 1]
    ahead: np.ndarray


@lru_cache(maxsize=None)
def _pairing_record(p: int, q: int, galerkin: bool) -> _Pairing:
    ref = _reference_element(p)
    quad = gauss_rule(q)
    E = incidence_matrix(p)
    Lq = nodal_eval_all(ref.primal_basis, quad.nodes).T
    B = quad.weights * nodal_eval_all(ref.dual_basis, quad.nodes).T / ref.dual.weights[:, None]
    scale = ref.dual.weights if galerkin else np.ones(p)  # the row scale s
    D = edge_eval_all(ref.edge_basis, ref.dual.nodes).T * scale
    Pfull = (scale[:, None] * B).T
    P = Pfull if galerkin else None
    rate = (E @ D)[1:].T
    weights = (Pfull.T[:, None] * Lq[1:]).reshape(p * p, q)
    # ahead[j, m] = l_j(t_m) = prod_{k != j} (t_m - x_k) / (x_j - x_k) at t = x[1:] + 2, over
    # the d + 1 nodes x = nodes[subset] spread over the element, d = min(p, _GUESS_DEGREE)
    d = min(p, _GUESS_DEGREE)
    subset = np.round(np.linspace(0, p, d + 1)).astype(int)  # every node while p <= 8
    x = ref.primal.nodes[subset]
    span = x[:, None] - x
    np.fill_diagonal(span, 1.0)
    factors = (ref.primal.nodes[1:, None, None] + 2.0 - x) / span
    factors[:, range(d + 1), range(d + 1)] = 1.0
    ahead = np.zeros((p + 1, p))
    ahead[subset] = factors.prod(axis=-1).T
    LE = np.concatenate((Lq, E), axis=1)
    for arr in (LE, D, Pfull, rate, weights, ahead):
        arr.setflags(write=False)
    return _Pairing(LE, D, P, quad.nodes, rate, weights, ahead)


def _pairing(method: Method, p: int, q_rhs: Optional[int]) -> _Pairing:
    # the one place that knows the two pairings: mgi is the Galerkin pairing on
    # q_rhs points (default 2p + 10), mci collocation at the p dual nodes; p and
    # q_rhs are checked here, before a cache that takes True for 1 and 2.0 for 2
    _check_order(p, 1, "order p")
    if method is Method.MGI:
        q = default_qrhs(p) if q_rhs is None else q_rhs
        if q_rhs is None and q > MAX_ORDER:
            raise ValueError(
                f"order p={p} needs q_rhs: the default 2p + 10 = {q} exceeds {MAX_ORDER};"
                f" pass q_rhs <= {MAX_ORDER}"
            )
        _check_order(q, 1, "q_rhs")
        return _pairing_record(p, q, True)
    return _pairing_record(p, p, False)


@dataclass(frozen=True)
class ElementSolution:
    """One solved element: its bounds, values at the p+1 primal nodes and Newton iterations.

    t_end < t_start for a reversed step; coefficients[:, 0] is the initial condition, bitwise.
    """

    t_start: float
    t_end: float
    coefficients: np.ndarray  # (dim, p+1)
    newton_iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _read_only(self.coefficients))

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    def endpoint(self) -> np.ndarray:
        return self.coefficients[:, -1].copy()


def _field_at(sys: OdeSystem, y, where) -> np.ndarray:
    # y is one state (dim,) or a block (dim, n): one domain check, one field
    # call and one finiteness test cover every column. where(j) names column
    # j; it is only called to report a failure, for the first failing column.
    # the field read, not OdeSystem.check_domain: one Python frame fewer per residual
    check = sys.domain_check
    if check is not None:
        reason = check(y)
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
    if not _all(finite, axis=None):
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


def _element_callables(sys, coeffs, pairing):
    # bind(t0, sqrt_g), residual(z), jacobian(z) (None without sys.jacobian) and
    # solve(y0, t0, dt, config, previous) of the element in coeffs (M, p+1), y0
    # in column 0; residual and jacobian write the stages z into columns 1..p.
    # Built once per buffer, bound per element: bind sets the bounds the error
    # messages name and the rate term, and solve binds, guesses and solves
    M, p, q = sys.dim, coeffs.shape[1] - 1, len(pairing.nodes)
    LE, D, P, nodes, ahead = pairing.LE, pairing.D, pairing.P, pairing.nodes, pairing.ahead
    stages = coeffs[:, 1:]
    # the iterate whose values the stage buffer holds and its quadrature
    # states; the reference keeps that array alive, so identity means that iterate
    held_z = held_Yq = None
    t0 = sqrt_g = rate_block = None

    def bind(t_start, half_length):
        nonlocal t0, sqrt_g, rate_block, held_z, held_Yq
        t0, sqrt_g = t_start, half_length
        if sys.jacobian is not None:
            rate_block = rate / sqrt_g
        held_z = held_Yq = None

    def where(n):
        return f"quadrature node {n} (t={t0 + (nodes[n] + 1.0) * sqrt_g:g})"

    def residual(z):
        nonlocal held_z, held_Yq
        stages[...] = z.reshape(M, p)
        # the coboundary comes from the same product as the states: each entry
        # of coeffs @ E is one exactly rounded difference of nodal values,
        # where a folded E @ D would round the differences into the table
        both = coeffs.dot(LE)
        held_z, held_Yq = z, both[:, :q]
        h = _field_at(sys, held_Yq, where)
        if P is not None:  # collocation skips the product: its s B is exactly I
            h = h.dot(P)
        return (both[:, q:].dot(D) / sqrt_g - h).reshape(-1)

    jacobian = None
    if sys.jacobian is not None:
        weights = pairing.weights
        # the one place the dimension meets the record: np.kron(np.eye(M), rate)'s products,
        # and the flat positions in W @ Jh, (p p, M M), of the stage Jacobian's entries
        rate = (np.eye(M)[:, None, :, None] * pairing.rate[:, None, :]).reshape(M * p, M * p)
        gather = np.arange(p * p * M * M).reshape(p, p, M, M).transpose(2, 0, 3, 1)
        gather = gather.reshape(M * p, -1)

        def jacobian(z):
            nonlocal held_z, held_Yq
            # Newton takes the Jacobian at the iterate whose residual it has
            # just evaluated, so the residual's states serve; any other z
            # writes its own stages
            if z is not held_z:
                stages[...] = z.reshape(M, p)
                held_z, held_Yq = z, coeffs.dot(LE)[:, :q]
            Yq = held_Yq
            Jh = np.asarray(sys.jacobian(Yq), dtype=float)
            if Jh.shape != (q, M, M):
                raise ValueError(
                    f"jacobian returned shape {Jh.shape} for states of shape {Yq.shape}, expected"
                    f" {(q, M, M)}; wrap a jacobian written for one state with"
                    " geodesy.systems.pointwise"
                )
            return rate_block - weights.dot(Jh.reshape(q, M * M)).take(gather)

    def solve(y0, t_start, dt, config, previous=None):
        # solves [t_start, t_start + dt] into coeffs and returns Newton's iterations. previous,
        # the preceding element of equal length, seeds the guess; without it, a cold guess
        # holds y0 at every stage, np.repeat(y0, p), from the float copy in column 0
        bind(t_start, _half_length(t_start, t_start + dt, dt))
        coeffs[:, 0] = y0
        guess = coeffs[:, 0].repeat(p) if previous is None else previous.dot(ahead).reshape(-1)
        # through the module's name, which tracers and tests patch
        result = newton_solve(residual, guess, config, jacobian=jacobian)
        stages[...] = result.x.reshape(M, p)
        return result.iterations

    return bind, residual, jacobian, solve


def _public_residual(sys, sol, method, q_rhs):
    # the step's own residual, on a writable copy of the record, at its stages
    coeffs = sol.coefficients.copy()
    if coeffs.ndim != 2 or coeffs.shape[0] != sys.dim or coeffs.shape[1] < 2:
        raise ValueError(
            f"element coefficients must have shape ({sys.dim}, p+1) with p >= 1 for this"
            f" system, got {coeffs.shape}"
        )
    pairing = _pairing(method, coeffs.shape[1] - 1, q_rhs)
    bind, residual, _, _ = _element_callables(sys, coeffs, pairing)
    bind(sol.t_start, _half_length(sol.t_start, sol.t_end, sol.t_end - sol.t_start))
    return residual(coeffs[:, 1:].reshape(-1))


def mci_residual(sys: OdeSystem, sol: ElementSolution) -> np.ndarray:
    """Collocation residual at the dual nodes, flattened variable-major.

    R[i, j] = (rate of y_i at dual node j) / sqrt(g) - h_i(y at dual node j).
    """
    return _public_residual(sys, sol, Method.MCI, None)


def mgi_residual(sys: OdeSystem, sol: ElementSolution, q_rhs: int) -> np.ndarray:
    """Galerkin residual against the dual basis, flattened variable-major.

    R[i, m] = w_m (rate of y_i at dual node m) / sqrt(g)
              - sum_nu omega_nu h_i(y(sigma_nu)) ltilde_m(sigma_nu).
    """
    return _public_residual(sys, sol, Method.MGI, q_rhs)


def _half_length(t_start, t_end, dt) -> float:
    # sqrt(g) of the element t_start..t_end; dt, the step that gave t_end, names it in errors
    sqrt_g = 0.5 * (t_end - t_start)
    if sqrt_g == 0.0 or not math.isfinite(1.0 / float(sqrt_g)):
        raise ValueError(
            f"dt is too small for an element step: dt={dt!r} at t0={t_start!r} gives half-length"
            f" {float(sqrt_g)!r}, whose reciprocal is not finite"
        )
    return sqrt_g


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _initial_state(sys, y0) -> np.ndarray:
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (sys.dim,):
        raise ValueError(f"initial state must have shape ({sys.dim},), got {y0.shape}")
    if not np.isfinite(y0).all():
        raise ValueError(f"initial state must be finite, got {y0.tolist()}")
    return y0


def _element_step(sys, y0, t0, dt, p, pairing, config):
    _require_finite(t0=t0, dt=dt)
    y0 = _initial_state(sys, y0)
    coeffs = np.empty((sys.dim, p + 1))
    *_, solve = _element_callables(sys, coeffs, pairing)
    iterations = solve(y0, t0, dt, config)
    # the record copies coeffs, which the callables keep writing into after the step returns
    return ElementSolution(t0, t0 + dt, coeffs, iterations)


def mci_step(
    sys: OdeSystem,
    y0,
    t0: float,
    dt: float,
    p: int,
    config: NewtonConfig = NewtonConfig(),
) -> ElementSolution:
    """One collocation-pairing step of order p over [t0, t0 + dt]; dt may be negative."""
    return _element_step(sys, y0, t0, dt, p, _pairing(Method.MCI, p, None), config)


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
    return _element_step(sys, y0, t0, dt, p, _pairing(Method.MGI, p, q_rhs), config)


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
    and its time. q_rhs is for Method.MGI only; other methods reject it. A
    step count that is not finite, or whose records would exceed the bytes
    numpy can address, is rejected up front with a ValueError naming t0, tf
    and dt; one within that but past the memory at hand raises MemoryError.
    Element steps after the first start Newton from the previous element
    extrapolated (a shortened last step starts cold from its y0).
    """
    if not isinstance(method, Method):
        raise TypeError(f"method must be a geodesy.Method, got {method!r}")
    if q_rhs is not None and method is not Method.MGI:
        raise ValueError(f"q_rhs applies to Method.MGI only, got q_rhs={q_rhs!r} for {method}")
    _require_finite(t0=t0, tf=tf, dt=dt)
    if not tf > t0:
        raise ValueError(f"tf must exceed t0, got t0={t0!r}, tf={tf!r}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if method.is_element_method:
        _half_length(t0, t0 + dt, dt)
        pairing = _pairing(method, p, q_rhs)
    y0 = _initial_state(sys, y0)

    # t0 + k dt rounds at the magnitude of t0 and tf, so (tf - t0) / dt can
    # exceed a whole count by far more than 1e-12 when tf = t0 + n dt; Python
    # floats take the count to inf without a warning, where numpy's would warn
    t0, tf, dt = float(t0), float(tf), float(dt)
    slack = 1e-12 * dt + 8 * math.ulp(1.0) * max(abs(t0), abs(tf))
    count = (tf - t0 - slack) / dt
    if not math.isfinite(count):
        raise ValueError(
            f"too many steps: (tf - t0) / dt is not finite for t0={t0!r}, tf={tf!r}, dt={dt!r}"
        )
    n = max(1, math.ceil(count))
    # the records' bytes, in Python ints: past what numpy can address, its own error would
    # name no argument; a count within that but past memory raises MemoryError
    per_step = 8 * (1 + sys.dim)  # times and states
    if method.is_element_method:  # coefficients and Newton iterations
        per_step += 8 * (sys.dim * (p + 1) + 1)
    if per_step * (n + 1) > _MAX_BYTES:
        raise ValueError(
            f"too many steps: t0={t0!r}, tf={tf!r}, dt={dt!r} give {count:.3g} steps; at"
            f" {per_step} bytes per step the records exceed the {_MAX_BYTES} bytes numpy can"
            " address"
        )
    times = np.empty(n + 1)
    states = np.empty((sys.dim, n + 1))
    times[0] = t0
    states[:, 0] = y0
    coefficients = newton_iterations = None
    if method.is_element_method:
        coefficients = np.empty((n, sys.dim, p + 1))
        newton_iterations = np.empty(n, dtype=int)
        work = np.empty((sys.dim, p + 1))  # the element being solved
        *_, solve = _element_callables(sys, work, pairing)

    y, previous = y0, None
    for k in range(n):
        t_a = t0 + k * dt
        t_b = tf if k == n - 1 else t0 + (k + 1) * dt
        h = t_b - t_a
        try:
            if method.is_element_method:
                # every step after the first extrapolates the previous element,
                # except a shortened last step, which starts cold
                if k == n - 1 and h < dt - slack:
                    previous = None
                newton_iterations[k] = solve(y, t_a, h, newton, previous)
                coefficients[k] = work
                y, previous = coefficients[k, :, -1], coefficients[k]
            elif method is Method.EXPLICIT_EULER:
                y = explicit_euler_step(sys, y, t_a, h)
            elif method is Method.SYMPLECTIC_EULER:
                y = symplectic_euler_step(sys, y, t_a, h)
            elif method is Method.RK4:
                y = rk4_step(sys, y, t_a, h)
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

    sample_times may be a scalar or an array of any shape; the result has
    shape (dim,) + np.shape(sample_times). Only methods that retain element
    polynomials support this; times must be finite and lie inside the
    integration window (up to a rounding slack, clamped onto it). The times
    are evaluated flattened, by one searchsorted and one basis evaluation;
    each state equals the one the same time gives alone, bitwise.
    """
    if traj.coefficients is None:
        raise ValueError(f"method {traj.method.value!r} does not retain element polynomials")
    sample_times = np.asarray(sample_times, dtype=float)
    flat = sample_times.reshape(-1)
    t0, tf = float(traj.times[0]), float(traj.times[-1])
    slack = 1e-12 * (1.0 + abs(t0) + abs(tf))
    if not np.all((flat >= t0 - slack) & (flat <= tf + slack)):  # NaN fails both tests
        raise ValueError(f"sample times must be finite and lie within [{t0!r}, {tf!r}]")
    starts = traj.times[:-1]
    sqrt_g = 0.5 * np.diff(traj.times)  # half of each element's length, as in _half_length
    idx = np.clip(np.searchsorted(starts, flat, side="right") - 1, 0, len(starts) - 1)
    tau = (np.clip(flat, t0, tf) - starts[idx]) / sqrt_g[idx] - 1.0  # as in to_ref
    L = nodal_eval_all(_reference_element(traj.order).primal_basis, tau)
    states = np.matmul(traj.coefficients[idx], L[:, :, None])[:, :, 0].T
    return states.reshape((traj.dim,) + sample_times.shape)
