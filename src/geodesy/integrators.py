"""Time integrators: one mimetic element kernel plus classical one-step methods.

The element methods expand the solution inside a step as a degree-p
polynomial through the Gauss-Lobatto nodes and difference it exactly with the
incidence matrix, which gives the rate 1-cochain. The two methods differ only
in the discrete Hodge-star that pairs the rate with the vector field h, and
one kernel covers both: the field is sampled at the nodes sigma_nu of a
q-point Gauss rule, as one (dim, q) block per residual (one field,
domain-check and Jacobian call). mci takes the canonical Hodge
(geodesy.mimetic.canonical_hodge_1to0), the rate's edge expansion read at the
p dual Gauss nodes tau_m, and collocates the field there (q = p):

    R[i, m] = (rate of y_i at tau_m) / sqrt(g) - h_i(y(tau_m)),

which is Gauss collocation, a symplectic method. mgi takes the Galerkin
Hodge, which weights the rate by the dual mass sqrt(g) w_m
(galerkin_mass_dual) and integrates the field against each dual basis
function ltilde_m on a q_rhs-point rule (galerkin_pairing); divided by sqrt(g),
with y_nu the state at sigma_nu,

    R[i, m] = w_m (rate of y_i at tau_m) / sqrt(g) - sum_nu omega_nu ltilde_m(sigma_nu) h_i(y_nu).

With enough quadrature points it conserves polynomial Hamiltonians exactly.

Everything a step needs of its pairing, the driver's guess table included,
sits in one read-only record, built once per (p, q, pairing) from those
toolkit operators on the reference element of order p, where sqrt(g) = 1, and
cached; one resolver picks it from the method, and q_rhs (by default
default_qrhs(p) = min(2p + 10, MAX_ORDER)) is an mgi setting only. D is the
transpose of geodesy.mimetic._dual_edges(p), the correctly rounded table that
canonical_hodge_1to0 applies, so row l is the canonical Hodge of the unit
primal 1-cochain l, D[l, m] = e_l(tau_m), and the steps follow the toolkit bit
for bit. mgi scales it by the dual mass w_m, and its P is the Galerkin pairing
on its rule, transposed, P[nu, m] = omega_nu ltilde_m(sigma_nu). So one
residual, (c E) D / sqrt(g) - h P for nodal values c and field values h,
serves both pairings; mci's pairing is the identity, so it has no P and skips
that product. One product c [Lq | E] gives both the quadrature states c Lq and
the coboundary c E, whose entries are each one exactly rounded difference of
nodal values.

One factory builds an element's residual, stage Jacobian, bind and solve over
a (dim, p+1) stage buffer that it allocates and that nothing else reads: bind
writes y0 into column 0, the residual and Jacobian write the stages they are
given into the rest, and solve binds, guesses and returns Newton's result,
whose x holds the stages, writing nothing back. integrate builds it once per
run and each public step once per call; a public residual
(mci_residual/mgi_residual) binds one at a solved element's column 0 and
evaluates it at the element's stages. Stage unknowns are variable-major, so
only the factory meets the dimension, in one layout: the stage Jacobian is a
rate term, the record's p x p rate block times the M x M identity in one outer
product, minus one GEMM of the pairing weights with the field Jacobians at the
q nodes, both (p p, M M), indexed by (stage pair, variable pair). A bind call
sets each element's bounds, which the error messages name, and the rate term
over sqrt(g); one take with an index array the factory caches beside it reads
the difference into the variable-major (M p, M p) layout. The take only moves
entries, so its bits are those of a reshape, transpose and reshape, in one
call instead of three. Residuals carry a 1/sqrt(g) factor so Newton tolerances
are in vector-field units whatever the step size. Steps accept negative dt (a
reversed element); the integrate driver walks forward. No step builds a grid:
an element is its bounds and its values at the primal nodes (ElementSolution),
and sample_trajectory is the one way to read it.

integrate keeps a run as one primal 0-cochain on the time mesh: one (dim, n s + 1)
nodal record, with s = p columns per step for the element methods and s = 1 for
the classical ones, and no other copy of the state. One rule places every step
of every method: step k reads its start state from column k s, writes columns
k s + 1 .. (k + 1) s, and the accepted state it checks against the domain is
column (k + 1) s. So element k is columns k p .. k p + p, and neighbouring
elements share their boundary column, which reaches the next step as its y0
bitwise; after each solve the driver writes Newton's stages, reshaped to
(dim, p), into the element's p columns, the record's one copy of them.
A Trajectory holds that record and derives the rest from it, reading s back
from its n s + 1 columns: Trajectory.coefficients is a read-only (n, dim,
p+1) view of the record with a stride of p columns between elements,
Trajectory.states the view of every s-th column and Trajectory.order s for
an element method. So each nodal value is stored once: 8 (dim s + 1 + L)
bytes per step with times and L invariant series, plus 8 for Newton
iterations on the element methods.

The kernel's products (c [Lq | E], the coboundary times D, h P, the pairing
weights times the field Jacobians, and the driver's guess) are 2-D and, at
low orders, a few dozen entries a side at most, so they call ndarray.dot
rather than the @ operator: both reach the same BLAS gemm and give the same
bits on these shapes, but @ dispatches through the matmul ufunc, which costs
more per call than such a product. sample_trajectory's batched 3-D product
stays np.matmul, which gives every sampled point the bits it gets alone.

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
started by more than rounding. Every element path (ElementSolution, the
steps, their public residuals, integrate's first and last steps) asks
geodesy.mimetic._half_length about its own bounds, which the one ValueError
for bounds that give no element names. Each time is converted once, where
it enters, to a Python float by geodesy.basis._real_scalar, which refuses
one that is not a real number, so _half_length converts nothing. The
classical steps refuse a t0 or dt that is not a real number or not finite,
or an initial state that is not real, of the wrong shape or not finite, as
the element steps do; integrate checks its start once and then calls their
unchecked updates. No run returns data that is
not finite: integrate, the steps and the residuals evaluate with
floating-point exceptions ignored, so an overflow warns nowhere, and what
it leaves fails as a named error, a field value or a classical step's new
state as EvaluationError, and in integrate, with an invariant value, as
IntegrationError naming the step.

Each residual makes one finiteness test, on its r, as Python floats
(all(map(math.isfinite, r.tolist()))), cheaper at these sizes than np.isfinite
and a reduce over the field block. The field values need no test of their own:
under IEEE arithmetic a value that is not finite leaves r not finite. mci
subtracts h itself; in mgi's h P, NaN times 0 is NaN, so P's exact zeros (at
q_rhs = p P is diagonal) do not stop it, and every row of P has a nonzero
entry, as the dual basis sums to one. Only when r fails is the block read
again, to name its first node whose value is not finite; an r that fails with
finite field values goes back to the caller, which names the residual (Newton)
or, through a forward difference, the Jacobian. The classical steps test their
field values themselves, with the same message.

The field's block, the stage Jacobian's and each invariant series go
through geodesy.basis._float_output, the one conversion of a callable's
values: values that are not real, which a float conversion would cut to
their real parts, ragged or not of the expected shape are refused with an
EvaluationError naming the callable and, for a shape, both shapes and the
hint to wrap a one-state callable with geodesy.systems.pointwise. A
domain_check result that is neither None nor a reason string is refused the
same way, on the failure path only. integrate annotates each refusal with
its step.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .basis import (
    MAX_ORDER, _array, _check_count, _check_order, _float_output, _lagrange_product, _read_only,
    _real, _real_scalar, gauss_rule, nodal_eval_all,
)
from .errors import DomainError, EvaluationError, GeodesyError, IntegrationError
from .mimetic import (
    ElementGrid,
    _dual_edges,
    _half_length,
    _reference,
    galerkin_mass_dual,
    galerkin_pairing,
    incidence_matrix,
)
# the step's Newton entry is the core loop, which trusts the kernel's own callables, under the
# module name newton_solve that bench/tracing.py and the tests' _replace_newton patch
from .newton import NewtonConfig, _all, _check_config, _newton as newton_solve
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

# the refusal of a field or stage Jacobian of another shape, which usually takes one state only
_POINTWISE = "; wrap a callable written for one state with geodesy.systems.pointwise"


def default_qrhs(p: int) -> int:
    """Default quadrature size for the Galerkin pairing, for p in [1, MAX_ORDER].

    It is min(2p + 10, MAX_ORDER): 2p + 10 up to p = 27, then the largest rule.
    """
    return min(2 * _check_order(p, 1, "order p") + 10, MAX_ORDER)


class _Pairing(NamedTuple):
    # one pairing of order p on a q-point rule, q = len(nodes), for every dimension; read-only
    # [Lq | E], (p+1, q+p): the nodal basis Lq at the quadrature nodes and the incidence E;
    # one product coeffs @ LE gives the quadrature states and the coboundary
    LE: np.ndarray
    # (p, p): the canonical Hodge's table, transposed, D[l, m] = e_l(tau_m): row l is the
    # canonical Hodge of the unit primal 1-cochain l; times the dual mass w_m for mgi
    D: np.ndarray
    # (q, p): mgi's Galerkin pairing on its rule, transposed,
    # P[nu, m] = omega_nu ltilde_m(sigma_nu); None for mci, whose pairing is the identity
    P: Optional[np.ndarray]
    nodes: np.ndarray  # the quadrature nodes sigma_nu
    rate: np.ndarray  # (E @ D)[1:]^T, (p, p): one variable's stage Jacobian rate term times sqrt(g)
    weights: np.ndarray  # W[(m, b), nu] = P[nu, m] Lq[1+b, nu], P = I for mci; field term W @ Jh
    # (p+1, p): coeffs @ ahead reads an element at the next one's stages, tau + 2, through the
    # interpolant of at most _GUESS_DEGREE + 1 of its nodes (the rows of the others are zero);
    # read by geodesy.basis._lagrange_product, as the barycentric form loses digits outside
    # [-1, 1]
    ahead: np.ndarray


@lru_cache(maxsize=None)
def _pairing_record(p: int, q: int, galerkin: bool) -> _Pairing:
    ref = ElementGrid(p)  # the reference element, sqrt(g) = 1
    quad = gauss_rule(q)
    E = incidence_matrix(p)
    Lq = nodal_eval_all(ref.primal_basis, quad.nodes).T
    # the table canonical_hodge_1to0 applies, transposed: row l is the Hodge of the unit primal
    # 1-cochain l. The transpose of the C-ordered table is in Fortran order: the layout the
    # kernel's dot products are checked bitwise with, as BLAS may round another layout differently
    D = _dual_edges(p).T
    if galerkin:  # rows scaled by the dual mass, the field paired on the q-point rule
        D = D * galerkin_mass_dual(ref)
        P = Pfull = galerkin_pairing(ref, quad).T
    else:  # collocation at the dual nodes: the pairing is the identity, which the kernel skips
        P, Pfull = None, np.eye(p)
    rate = (E @ D)[1:].T
    weights = (Pfull.T[:, None] * Lq[1:]).reshape(p * p, q)
    # ahead[j, m] = l_j(t_m) at the next element's nodes, t = nodes[1:] + 2 in this element's
    # coordinate, over the d + 1 nodes nodes[subset] spread over it, d = min(p, _GUESS_DEGREE)
    d = min(p, _GUESS_DEGREE)
    subset = np.round(np.linspace(0, p, d + 1)).astype(int)  # every node while p <= 8
    ahead = np.zeros((p + 1, p))
    ahead[subset] = _lagrange_product(ref.primal.nodes[subset], ref.primal.nodes[1:] + 2.0).T
    LE = np.concatenate((Lq, E), axis=1)
    for arr in (LE, D, Pfull, rate, weights, ahead):
        arr.setflags(write=False)
    return _Pairing(LE, D, P, quad.nodes, rate, weights, ahead)


def _pairing(method: Method, p: int, q_rhs: Optional[int]) -> _Pairing:
    # the one place that knows the two pairings: mgi is the Galerkin pairing on
    # q_rhs points (by default default_qrhs(p)), mci collocation at the p dual nodes; p and
    # q_rhs are checked here, before a cache that takes True for 1 and 2.0 for 2
    p = _check_order(p, 1, "order p")
    if method is Method.MGI:
        q = default_qrhs(p) if q_rhs is None else _check_order(q_rhs, 1, "q_rhs")
        return _pairing_record(p, q, True)
    return _pairing_record(p, p, False)


@dataclass(frozen=True)
class ElementSolution:
    """One solved element: its bounds, values at the p+1 primal nodes and Newton iterations.

    t_end < t_start for a reversed step; coefficients[:, 0] is the initial condition, bitwise.
    The bounds are stored as Python floats. Bounds that are not real numbers, or give no element
    (geodesy.mimetic), raise ValueError naming them; then values that are not real, and values
    that give none, anything but 2-d with p + 1 >= 2 columns, raise ValueError, the latter
    naming their shape; newton_iterations is a count, stored as a Python int, else ValueError
    (geodesy.basis._check_count).
    """

    t_start: float
    t_end: float
    coefficients: np.ndarray  # (dim, p+1)
    newton_iterations: int = 0

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            object.__setattr__(self, name, _real_scalar(getattr(self, name), name))
        _half_length(self.t_start, self.t_end)
        coefficients = _read_only(self.coefficients)
        if coefficients.ndim != 2 or coefficients.shape[1] < 2:
            raise ValueError(
                f"element coefficients must have shape (dim, p+1) with p >= 1, got"
                f" {coefficients.shape}"
            )
        object.__setattr__(self, "coefficients", coefficients)
        iterations = _check_count(self.newton_iterations, 0, "newton_iterations")
        object.__setattr__(self, "newton_iterations", iterations)

    def endpoint(self) -> np.ndarray:
        return self.coefficients[:, -1].copy()


def _field_values(sys: OdeSystem, y, where) -> np.ndarray:
    # y is one state (dim,) or a block (dim, n): one domain check and one field call cover
    # every column, and the values are floats of y's shape; whether they are finite is the
    # caller's test (_field_at's, or the element residual's on its r). where(j) names
    # column j; it is only called to report a failure, for the first failing column.
    # the field read, not OdeSystem.check_domain: one Python frame fewer per residual
    check = sys.domain_check
    if check is not None:
        reason = check(y)
        if reason is not None:
            j, reason = _first_domain_failure(sys, y, reason)
            raise DomainError(f"state leaves the domain at {where(j)}: {reason}")
    return _float_output(sys.field(y), "vector field", y.shape, _POINTWISE)


def _refuse_nonfinite(h, where):
    # the one message for field values that are not finite, naming the first column of h
    # that holds one; returns None when every value is finite
    finite = np.isfinite(h)
    if not _all(finite, axis=None):
        j = int(np.argmin(finite.reshape(len(h), -1).all(axis=0)))
        raise EvaluationError(f"vector field is non-finite at {where(j)}")


def _field_at(sys: OdeSystem, y, where) -> np.ndarray:
    # the classical steps' field values, refused unless finite
    h = _field_values(sys, y, where)
    _refuse_nonfinite(h, where)
    return h


def _domain_reason(reason) -> str:
    # what a domain_check returned for a state it does not admit: a reason string, else
    # refused, as a bool False would read as a reason. Only the failure path asks
    if not isinstance(reason, str):
        raise EvaluationError(f"domain_check returned {reason!r}, expected None or a reason string")
    return reason


def _first_domain_failure(sys: OdeSystem, y, block_reason):
    cols = y.reshape(len(y), -1)
    for j in range(cols.shape[1]):
        reason = sys.check_domain(cols[:, j])
        if reason is not None:
            return j, _domain_reason(reason)
    return 0, _domain_reason(block_reason)


def _element_callables(sys, pairing):
    # bind(t0, sqrt_g, y0), residual(z), jacobian(z) (None without sys.jacobian) and
    # solve(y0, t0, dt, config, previous) of one element over the factory's own buffer
    # coeffs (M, p+1): bind writes y0 into column 0, and residual and jacobian the stages z
    # into columns 1..p. Built once per run or public call, bound per element: bind sets the
    # bounds the error messages name and the rate term, and solve binds, guesses and returns
    # Newton's result, whose x holds the stages; the buffer is scratch, read by nobody else
    M, p, q = sys.dim, pairing.rate.shape[0], len(pairing.nodes)
    LE, D, P, nodes, ahead = pairing.LE, pairing.D, pairing.P, pairing.nodes, pairing.ahead
    coeffs = np.empty((M, p + 1))
    stages = coeffs[:, 1:]
    # the iterate whose values the stage buffer holds and its quadrature
    # states; the reference keeps that array alive, so identity means that iterate
    held_z = held_Yq = None
    t0 = sqrt_g = rate_block = None

    def bind(t_start, half_length, y0):
        nonlocal t0, sqrt_g, rate_block, held_z, held_Yq
        t0, sqrt_g = t_start, half_length
        coeffs[:, 0] = y0
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
        h = _field_values(sys, held_Yq, where)
        # collocation skips the product: its pairing is the identity
        r = (both[:, q:].dot(D) / sqrt_g - (h if P is None else h.dot(P))).reshape(-1)
        # one finiteness test, on Python floats, covers h too: a value of h that is not
        # finite leaves r not finite (see the module docstring), so h is read only to name
        # its node; r that is not finite from a finite h goes to the caller, as Newton's
        if not all(map(math.isfinite, r.tolist())):
            _refuse_nonfinite(h, where)
        return r

    jacobian = None
    if sys.jacobian is not None:
        weights = pairing.weights
        # the one place the dimension meets the record: the rate term in the layout of W @ Jh,
        # (p p, M M), and the flat positions in that layout of the stage Jacobian's entries
        rate = np.multiply.outer(pairing.rate.ravel(), np.eye(M).ravel())
        gather = np.arange(p * p * M * M).reshape(p, p, M, M).transpose(2, 0, 3, 1)
        gather = gather.reshape(M * p, -1)
        block = (q, M, M)  # the field Jacobians' shape

        def jacobian(z):
            nonlocal held_z, held_Yq
            # Newton takes the Jacobian at the iterate whose residual it has
            # just evaluated, so the residual's states serve; any other z
            # writes its own stages
            if z is not held_z:
                stages[...] = z.reshape(M, p)
                held_z, held_Yq = z, coeffs.dot(LE)[:, :q]
            Jh = _float_output(sys.jacobian(held_Yq), "jacobian", block, _POINTWISE)
            return (rate_block - weights.dot(Jh.reshape(q, M * M))).take(gather)

    def solve(y0, t_start, dt, config, previous=None):
        # solves [t_start, t_start + dt] and returns Newton's result. previous, the preceding
        # element of equal length, seeds the guess; without it, a cold guess holds y0 at every
        # stage, np.repeat(y0, p), from the float copy in column 0
        bind(t_start, _half_length(t_start, t_start + dt), y0)
        guess = coeffs[:, 0].repeat(p) if previous is None else previous.dot(ahead).reshape(-1)
        # the Newton core, without the public newton_solve's checks, through the module's
        # name, which tracers and tests patch
        return newton_solve(residual, guess, config, jacobian=jacobian)

    return bind, residual, jacobian, solve


def _public_residual(sys, sol, method, q_rhs):
    # the step's own residual, bound at the record's column 0 and evaluated at its stages
    coeffs = sol.coefficients
    if coeffs.shape[0] != sys.dim:  # the record has checked the rest of its shape
        raise ValueError(
            f"element coefficients must have shape ({sys.dim}, p+1) with p >= 1 for this"
            f" system, got {coeffs.shape}"
        )
    bind, residual, _, _ = _element_callables(sys, _pairing(method, coeffs.shape[1] - 1, q_rhs))
    bind(sol.t_start, _half_length(sol.t_start, sol.t_end), coeffs[:, 0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return residual(coeffs[:, 1:].reshape(-1))


def mci_residual(sys: OdeSystem, sol: ElementSolution) -> np.ndarray:
    """Collocation residual at the dual nodes, flattened variable-major.

    R[i, j] = (rate of y_i at dual node j) / sqrt(g) - h_i(y at dual node j).
    """
    return _public_residual(sys, sol, Method.MCI, None)


def mgi_residual(sys: OdeSystem, sol: ElementSolution, q_rhs: Optional[int] = None) -> np.ndarray:
    """Galerkin residual against the dual basis, flattened variable-major.

    R[i, m] = w_m (rate of y_i at dual node m) / sqrt(g)
              - sum_nu omega_nu h_i(y(sigma_nu)) ltilde_m(sigma_nu),
    on the q_rhs-point rule, by default default_qrhs(p) = min(2p + 10, MAX_ORDER) as in
    mgi_step; a q_rhs given outside [1, MAX_ORDER] raises ValueError.
    """
    return _public_residual(sys, sol, Method.MGI, q_rhs)


def _finite_times(**times) -> list:
    # each time converted once, by geodesy.basis._real_scalar, then refused unless finite
    converted = []
    for name, value in times.items():
        value = _real_scalar(value, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        converted.append(value)
    return converted


def _initial_state(sys, y0) -> np.ndarray:
    y0 = _real(y0, "initial state")
    if y0.shape != (sys.dim,):
        raise ValueError(f"initial state must have shape ({sys.dim},), got {y0.shape}")
    if not np.isfinite(y0).all():
        raise ValueError(f"initial state must be finite, got {y0.tolist()}")
    return y0


def _start(sys, y0, t0, dt):
    # every public step's argument check: finite t0 and dt, then the initial state; returns
    # the three converted, which the step then uses
    t0, dt = _finite_times(t0=t0, dt=dt)
    return _initial_state(sys, y0), t0, dt


def _require_partition(sys):
    if sys.partition is None:
        raise ValueError("symplectic Euler needs a separable partition on the system")


def _element_step(sys, y0, t0, dt, p, pairing, config):
    y0, t0, dt = _start(sys, y0, t0, dt)
    # the step's Newton entry is the unchecked core, so the config is checked here, once
    _check_config(config, "config")
    *_, solve = _element_callables(sys, pairing)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = solve(y0, t0, dt, config)
    coeffs = np.concatenate((y0[:, None], result.x.reshape(sys.dim, p)), axis=1)
    return ElementSolution(t0, t0 + dt, coeffs, result.iterations)


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


def _explicit_euler(sys, y0, t0, dt):
    return y0 + dt * _field_at(sys, y0, lambda j: f"t={t0:g}")


def _symplectic_euler(sys, y0, t0, dt):
    p_idx = list(sys.partition.p_indices)
    q_idx = [i for i in range(sys.dim) if i not in p_idx]
    y = y0.copy()
    y[p_idx] += dt * _field_at(sys, y0, lambda j: f"t={t0:g}")[p_idx]
    y[q_idx] += dt * _field_at(sys, y, lambda j: f"t={t0:g} (after the momentum update)")[q_idx]
    return y


def _rk4(sys, y0, t0, dt):
    k1 = _field_at(sys, y0, lambda j: f"t={t0:g}")
    k2 = _field_at(sys, y0 + 0.5 * dt * k1, lambda j: f"t={t0:g} (stage 2)")
    k3 = _field_at(sys, y0 + 0.5 * dt * k2, lambda j: f"t={t0:g} (stage 3)")
    k4 = _field_at(sys, y0 + dt * k3, lambda j: f"t={t0:g} (stage 4)")
    return y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# the classical updates, unchecked: the public steps check their arguments first, and
# integrate once before its loop
_UPDATES = {
    Method.EXPLICIT_EULER: _explicit_euler,
    Method.SYMPLECTIC_EULER: _symplectic_euler,
    Method.RK4: _rk4,
}


def _finite_state(y):
    # a classical update's new state, refused unless finite: an element step needs no such
    # test, as Newton accepts only finite residuals. Tested on Python floats, cheaper at these
    # sizes than np.isfinite
    if not all(map(math.isfinite, y.tolist())):
        raise EvaluationError(f"new state is not finite: {y.tolist()}")
    return y


def _classical_step(update, sys, y0, t0, dt):
    y0, t0, dt = _start(sys, y0, t0, dt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _finite_state(update(sys, y0, t0, dt))


def explicit_euler_step(sys: OdeSystem, y0, t0: float, dt: float) -> np.ndarray:
    """Forward Euler update y + dt h(y)."""
    return _classical_step(_explicit_euler, sys, y0, t0, dt)


def symplectic_euler_step(sys: OdeSystem, y0, t0: float, dt: float) -> np.ndarray:
    """Momentum-first symplectic Euler update for separable systems.

    p_new = p + dt h_p(p, q); q_new = q + dt h_q(p_new, q), where h_p is the rows of
    field at the partition's p_indices and h_q the rows at every index not in p_indices.
    Requires sys.partition.
    """
    _require_partition(sys)
    return _classical_step(_symplectic_euler, sys, y0, t0, dt)


def rk4_step(sys: OdeSystem, y0, t0: float, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update."""
    return _classical_step(_rk4, sys, y0, t0, dt)


@dataclass(frozen=True)
class Trajectory:
    """Recorded time grid, nodal record, invariant series and Newton iterations of one run.

    A run keeps one read-only nodal record, (dim, n s + 1) with s = p for an element method
    and 1 for a classical one: the primal 0-cochain on the time mesh, in which neighbouring
    elements share their boundary node. states, coefficients and order are derived from it,
    states and coefficients as read-only views, so each nodal value is held once.
    """

    method: Method
    times: np.ndarray  # (n+1,)
    record: np.ndarray  # (dim, n s + 1), read-only
    invariants: dict  # label -> (n+1,) raw values
    newton_iterations: Optional[np.ndarray] = None  # (n,) Newton iterations per step

    @property
    def order(self) -> Optional[int]:
        """Polynomial order p of an element method, None for a classical one.

        p is the record's columns per step: n p + 1 columns for n steps.
        """
        if not self.method.is_element_method:
            return None
        return (self.record.shape[1] - 1) // self.steps

    @property
    def states(self) -> np.ndarray:
        """(dim, n+1), read-only: every s-th column of the record, the state at each time."""
        return self.record[:, :: self.order or 1]

    @property
    def coefficients(self) -> Optional[np.ndarray]:
        """Element methods' (n, dim, p+1) values at the primal nodes, read-only; else None.

        Element k spans times[k]..times[k+1] and is the record's columns k p .. k p + p, so
        coefficients[k, :, -1] and coefficients[k + 1, :, 0] are one value.
        """
        p = self.order
        if p is None:
            return None
        # p columns' stride between elements, built directly, since as_strided wraps its view
        # in one more object
        row, col = self.record.strides
        shape = (self.steps, self.dim, p + 1)
        return np.ndarray(shape, float, buffer=self.record, strides=(p * col, row, col))

    @property
    def dim(self) -> int:
        return self.record.shape[0]

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def _invariant_series(sys: OdeSystem, times: np.ndarray, states: np.ndarray) -> dict:
    # one conversion per series, as this runs on every run: values that are not real or not
    # one per state are refused naming the invariant, and a value that is not finite fails
    # as an invariant that raises does, naming the state
    series = {}
    for label, fn in sys.invariants:

        def failed(k, why):
            return IntegrationError(
                f"invariant {label!r} failed on the state at t={times[k]:g} (step {k}): {why}",
                step=k,
                time=times[k],
            )

        values = []
        for k in range(len(times)):
            try:
                values.append(fn(states[:, k]))
            except GeodesyError as err:
                raise failed(k, err) from err
        who = f"invariant {label!r} on the {len(times)} recorded states"
        try:
            values = _float_output(values, who, times.shape)
        except EvaluationError as err:
            raise IntegrationError(str(err)) from err
        finite = np.isfinite(values)
        if not _all(finite):
            k = int(np.argmin(finite))
            raise failed(k, f"value {values[k]} is not finite")
        values.setflags(write=False)
        series[label] = values
    return series


def _slack(t0, tf, dt):
    # the rounding of a run's step times, Python floats in and out: t0 + k dt rounds at the
    # magnitude of t0 and tf, so (tf - t0) / dt can exceed a whole count by far more than
    # 1e-12 when tf = t0 + n dt. Within it the last step absorbs a remainder, and
    # sample_trajectory takes a time outside the run for its end
    return 1e-12 * dt + 8 * math.ulp(1.0) * max(abs(t0), abs(tf))


def _run_plan(sys, method, y0, t0, tf, dt, p, newton, q_rhs):
    # the one owner of integrate's up-front refusals, which integrate and geodesy's CLI both
    # make before any field call. In this order: method not a Method (TypeError); q_rhs with
    # a method other than Method.MGI; p not an integer (TypeError) or outside [1, MAX_ORDER];
    # newton not a NewtonConfig (TypeError); t0, tf or dt not a real number (see
    # geodesy.basis._real_scalar) or not finite; tf <= t0; dt <= 0; an element method's
    # first step that gives no element; a count that is not finite or whose records numpy
    # cannot address; a dt within the slack (steps that round to zero length); an element
    # method's last step that gives no element; an MGI q_rhs given that is not an integer
    # (TypeError) or lies outside [1, MAX_ORDER], where the default always lies; symplectic
    # Euler on a system without a partition; a y0 that is not real, ragged, misshapen or not finite.
    # Every other refusal is a ValueError. It returns what the loop reads: y0 as float64,
    # t0, tf and dt as Python floats, the count n >= 1 of steps, the slack within which the
    # last step absorbs a remainder and the element methods' pairing (None for the others)
    if not isinstance(method, Method):
        raise TypeError(f"method must be a geodesy.Method, got {method!r}")
    if q_rhs is not None and method is not Method.MGI:
        raise ValueError(f"q_rhs applies to Method.MGI only, got q_rhs={q_rhs!r} for {method}")
    # p and newton for every method, though only the element methods read them
    p = _check_order(p, 1, "order p")
    _check_config(newton, "newton")
    t0, tf, dt = _finite_times(t0=t0, tf=tf, dt=dt)
    if not tf > t0:
        raise ValueError(f"tf must exceed t0, got t0={t0!r}, tf={tf!r}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    element = method.is_element_method
    if element:  # the first step, which ends by tf
        _half_length(t0, min(t0 + dt, tf))
    # Python floats take the count to inf without a warning, where numpy's would warn
    slack = _slack(t0, tf, dt)
    count = (tf - t0 - slack) / dt
    if not math.isfinite(count):
        raise ValueError(
            f"too many steps: (tf - t0) / dt is not finite for t0={t0!r}, tf={tf!r}, dt={dt!r}"
        )
    n = max(1, math.ceil(count))
    # the records' bytes, in Python ints: past what numpy can address, its own error would
    # name no argument; a count within that but past memory raises MemoryError. Per step:
    # the record's s columns (s = p for the element methods, 1 for the classical ones), a
    # time, the L invariant values and, for the element methods, Newton's iterations
    per_step = 8 * (sys.dim * (p if element else 1) + 1 + len(sys.invariants) + element)
    if per_step * (n + 1) > _MAX_BYTES:
        raise ValueError(
            f"too many steps: t0={t0!r}, tf={tf!r}, dt={dt!r} give {count:.3g} steps; at"
            f" {per_step} bytes per step the records exceed the {_MAX_BYTES} bytes numpy can"
            " address"
        )
    # at or below the slack the last step may absorb a whole step, and t0 + k dt may
    # round to its neighbour's time: steps of zero length
    if dt <= slack:
        raise ValueError(
            f"dt={dt!r} is within the rounding of the step times from t0={t0!r} to tf={tf!r},"
            f" so steps would round to zero length"
        )
    if element:  # the last step, whose length the others share within rounding
        _half_length(t0 + (n - 1) * dt, tf)
    pairing = _pairing(method, p, q_rhs) if element else None
    if method is Method.SYMPLECTIC_EULER:
        _require_partition(sys)
    return _initial_state(sys, y0), t0, tf, dt, n, slack, pairing


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
    Step failures, the refusal of what a field, Jacobian or domain_check
    returned among them, are re-raised as IntegrationError annotated with the
    step index and start time, the failure as its __cause__; so is an
    invariant that fails on a recorded state, with the index k of that state
    in times (the state step k starts from) and its time. An invariant series
    that is not real, or not one value per state, raises IntegrationError
    naming the invariant. q_rhs is for Method.MGI only; other methods reject
    it. p and newton, a NewtonConfig, are checked for every method. Refused up
    front, before any field call, with a ValueError naming the values: t0, tf
    or dt not a real number (complex, a string, None, an array) or not finite,
    tf <= t0, dt <= 0; for the element methods, a first or last step whose
    half-length sqrt(g) is zero or has no finite reciprocal; a step count that
    is not finite, or whose records would exceed the bytes numpy can address
    (one within that but past the memory at hand raises MemoryError); a dt
    within the rounding of the step times, whose steps would round to zero
    length; and a y0 that is not real, ragged, misshapen or not finite. Every
    refusal above is made by one function, geodesy.integrators._run_plan,
    whose comment gives their order; geodesy's CLI calls it before it
    integrates anything.
    Element steps after the first start Newton from the previous element
    extrapolated (a shortened last step starts cold from its y0).
    """
    y0, t0, tf, dt, n, slack, pairing = _run_plan(sys, method, y0, t0, tf, dt, p, newton, q_rhs)
    element = method.is_element_method
    update = _UPDATES.get(method)  # None for the element methods

    stride = p if element else 1  # record columns per step
    times = np.empty(n + 1)
    record = np.empty((sys.dim, n * stride + 1))
    times[0] = t0
    record[:, 0] = y0
    newton_iterations = None
    if element:
        newton_iterations = np.empty(n, dtype=int)
        *_, solve = _element_callables(sys, pairing)

    # one layout rule for every method: step k reads its start state from column j = k stride
    # (y0, or the last column the step before wrote), writes the stride columns after it, and
    # its accepted state is column j + stride. A floating-point exception warns nowhere: what
    # it leaves that is not finite, a state or an invariant value, fails as a named error
    previous = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n):
            t_a = t0 + k * dt
            t_b = tf if k == n - 1 else t0 + (k + 1) * dt
            h = t_b - t_a
            j = k * stride
            try:
                if element:
                    # every step after the first extrapolates the previous element,
                    # except a shortened last step, which starts cold
                    if k == n - 1 and h < dt - slack:
                        previous = None
                    result = solve(record[:, j], t_a, h, newton, previous)
                    record[:, j + 1 : j + p + 1] = result.x.reshape(sys.dim, p)
                    newton_iterations[k] = result.iterations
                    previous = record[:, j : j + p + 1]
                else:
                    record[:, j + 1] = _finite_state(update(sys, record[:, j], t_a, h))
                reason = sys.check_domain(record[:, j + stride])
                if reason is not None:
                    reason = _domain_reason(reason)
                    raise DomainError(f"accepted state leaves the domain: {reason}")
            except GeodesyError as err:
                raise IntegrationError(
                    f"step {k} starting at t={t_a:g} failed: {err}", step=k, time=t_a
                ) from err
            times[k + 1] = t_b

        # views taken of the frozen record are read-only and cannot be made writeable again
        record.setflags(write=False)
        times.setflags(write=False)  # sample_trajectory locates elements by it
        invariants = _invariant_series(sys, times, record[:, ::stride])
    if element:
        newton_iterations.setflags(write=False)
    return Trajectory(method, times, record, invariants, newton_iterations)


def sample_trajectory(traj: Trajectory, sample_times) -> np.ndarray:
    """Evaluate an element-method trajectory densely at the given times.

    sample_times may be a scalar or an array of any shape; the result has
    shape (dim,) + np.shape(sample_times). Only methods that retain element
    polynomials support this; times must be real, never bool, finite and lie
    inside the integration window, up to the run rule's rounding slack of the
    step times, 1e-12 dt + 8 eps max(|t0|, |tf|) with dt the first step's
    length, and are clamped onto it. The times
    are evaluated flattened, by one searchsorted and one basis evaluation;
    each state equals the one the same time gives alone, bitwise.
    """
    if not traj.method.is_element_method:
        raise ValueError(f"method {traj.method.value!r} does not retain element polynomials")
    sample_times = _array(sample_times, "sample times")
    if sample_times.dtype.kind == "b":  # a bool is no time, as in geodesy.basis._real_scalar
        raise ValueError("sample times must be real numbers, got bool values")
    sample_times = _real(sample_times, "sample times")
    flat = sample_times.reshape(-1)
    t0, tf = float(traj.times[0]), float(traj.times[-1])
    slack = _slack(t0, tf, float(traj.times[1] - traj.times[0]))
    if not np.all((flat >= t0 - slack) & (flat <= tf + slack)):  # NaN fails both tests
        raise ValueError(f"sample times must be finite and lie within [{t0!r}, {tf!r}]")
    starts = traj.times[:-1]
    sqrt_g = 0.5 * np.diff(traj.times)  # half of each element's length, as in _half_length
    idx = np.clip(np.searchsorted(starts, flat, side="right") - 1, 0, len(starts) - 1)
    tau = (np.clip(flat, t0, tf) - starts[idx]) / sqrt_g[idx] - 1.0  # as in to_ref
    L = nodal_eval_all(_reference(traj.order).primal_basis, tau)
    # take copies the strided view whole, then gathers contiguous elements from the copy: as
    # coefficients[idx] gives, bitwise, and faster at dense sampling
    elements = traj.coefficients.take(idx, axis=0)
    states = np.matmul(elements, L[:, :, None])[:, :, 0].T
    return states.reshape((traj.dim,) + sample_times.shape)
