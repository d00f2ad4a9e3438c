"""Damped-free Newton solver for the implicit stage equations.

The linear solves call LAPACK's dense LU routines directly: getrf factors
with partial pivoting and getrs solves with the factors. They come from
scipy's compiled LAPACK module, loaded on its own without importing
scipy.linalg, which keeps a cold start short (see _lapack_getrf_getrs). A
factorization whose smallest pivot falls below 1e-14 relative to the
largest, or that has a non-finite pivot, is treated as singular rather than
silently producing garbage; an exactly zero pivot, which getrf reports with
info > 0, fails the same check. The Jacobian is the analytic callable when
one is given, otherwise forward differences with a step scaled per
component. The unknowns are converted by geodesy.basis._real, so a complex
x0 raises ValueError rather than lose its imaginary parts; every residual
and Jacobian value of a caller's callables is converted by
geodesy.basis._float_output. NewtonConfig's settings take geodesy.basis's
rules too: abs_tol a scalar setting's, max_iter a count's.

One public boundary sits around one loop. newton_solve checks its
callables, config and x0 once per solve, wraps the caller's residual and
Jacobian in their conversions and runs the core _newton, the one Newton
loop, with floating-point exceptions ignored as in integrate; without a
Jacobian the loop runs the difference core _forward_differences. The cores
trust their callables to return float64 arrays of the right shape, and the
element step (geodesy.integrators) enters _newton directly: its kernel
builds those arrays itself, and its config is checked once where the step
starts. Every test the loop's decisions need stays in the core: the
residual's finiteness, the stall and divergence tests, the budget, the
Jacobian's finiteness and the pivot test. The Jacobian's test is needed
even when every residual is finite: two finite probe residuals can give a
difference quotient that overflows.
Skipping the per-solve checks and the per-call conversions took the Newton
layer of a pendulum MCI p=2 step from 31% to 24% of its profiled time
(tools/step_profile.py), and tools/ab.py read median step-time ratios of
0.95, 0.96 and 0.97 against the checked loop on pendulum MCI, kepler MGI and
Lotka-Volterra MCI with forward differences (A/A 1.00, 1.00 and 0.99), with
every output bit unchanged (numpy 2.4, one x86-64 core).

Each iterate costs one residual evaluation, one Jacobian and one LU solve,
and the loop keeps its reductions to those its decisions need: max|r| for
the stop and finiteness tests, max|dx| and max|x| once there is an update
(the stall test, then the divergence test), the Jacobian's entrywise
finiteness test and one sort of the pivots, which gives the smallest and the
largest at once. The vectors r, dx and x have n entries, a few hundred at
most in a step, so their maxima are taken on Python floats,
max(map(abs, v.tolist())): abs and max are exact, so the values are numpy's,
and on a 4-vector this takes 0.75 us against 2.8 us for
np.maximum.reduce(np.abs(v), axis=None) (numpy 2.4, one x86-64 core).
Python's max skips a NaN that is not the first entry, so r's entries are
tested with math.isfinite before its max, the stall test checks that x is
finite and the divergence test that it holds no NaN before they end the
solve: a residual may stay finite at such an iterate, neither test may stop
there, and an infinite x would pass any stall bound. The Jacobian's n^2-entry
finiteness test stays on the ufunc's own reduce with axis=None
(np.logical_and.reduce), where Python would be slower, and ndarray.all()
would add a Python function in numpy's _methods module on every call. The
update dx = J^-1 r is solved from r itself and applied as x - dx, with no
negated copy of r.

Without an analytic Jacobian, each Jacobian costs n residual calls, one per
unknown, and they dominate the iterate. _forward_differences writes the n
probe residuals into the rows of one preallocated block and takes the
difference quotient in place, with no list of probes to convert and stack.

A solve that meets abs_tol after at least one update is polished: one more
update x <- x - J^-1 r(x) with the last LU factors, a single getrs call with
no residual or Jacobian evaluation. The abs_tol stop leaves the iterate one
update short of the rounding floor; the polish takes that update, so what
the stage equations conserve exactly (the Galerkin pairing's energy) holds
to rounding over long runs instead of drifting by the tolerance's share
every step (iterative refinement, as in Hairer, McLachlan & Razakarivony,
BIT 48, 2008). The iteration count and the reported residual norm are those
before the polish.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .basis import _check_callable, _check_count, _float_output, _real, _real_scalar
from .errors import EvaluationError, NewtonNonConvergence, SingularJacobianError


def _lapack_getrf_getrs():
    """dgetrf and dgetrs from scipy's compiled LAPACK module, loaded alone.

    Importing them through scipy.linalg runs scipy/__init__.py and
    scipy/linalg/__init__.py, whose array-API layer imports numpy.f2py,
    numpy.ma, numpy.testing and numpy.random: most of a cold start's time
    and memory. The extension is loaded under its own name, so a later
    import of scipy.linalg reuses it and its routines are the same objects.
    If loading it alone raises ImportError (an install whose extensions need
    scipy/__init__.py to run first, say to put a bundled BLAS on the DLL
    search path), the half-loaded module is dropped and the routines come
    through scipy.linalg instead.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        try:
            scipy_spec = importlib.util.find_spec("scipy")  # finds the package, does not import it
            spec = scipy_spec and importlib.machinery.PathFinder.find_spec(
                name, [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations]
            )
            if spec is None:
                raise ModuleNotFoundError(f"no {name} beside scipy", name=name)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(name, None)
            from scipy.linalg.lapack import dgetrf, dgetrs

            return dgetrf, dgetrs
    return module.dgetrf, module.dgetrs


dgetrf, dgetrs = _lapack_getrf_getrs()

# called with axis=None, as ndarray.all() adds a Python frame per call on tiny arrays
_all = np.logical_and.reduce

_PIVOT_RTOL = 1e-14
# a Newton update dx this small next to max|x| is rounding noise: the residual is at its floor
_STALL_RTOL = 4 * np.finfo(float).eps
# Newton diverges when max|dx| has not contracted over this many updates, i.e. the product of
# the last contraction rates theta_k = |dx_k| / |dx_{k-1}| is >= 1 (Hairer & Wanner II, IV.8),
# while the update is still above sqrt(eps) max|x|, well clear of the rounding floor
_DIVERGENCE_WINDOW = 3
_DIVERGENCE_RTOL = np.sqrt(np.finfo(float).eps)
# relative step of the forward-difference Jacobian used when no analytic one is given
_FD_STEP = 1e-7


@dataclass(frozen=True)
class NewtonConfig:
    """Newton's stop: max|r| <= abs_tol, within at most max_iter updates.

    abs_tol is a scalar setting (geodesy.basis._real_scalar: a real number, never a bool),
    finite and >= 0, stored as a Python float; max_iter is a count (geodesy.basis._check_count:
    an integer >= 1, never a bool), stored as a Python int. Anything else raises ValueError
    naming the field.
    """

    abs_tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        # a NaN or negative tolerance is never met, so only the rounding-floor stop would end
        # the solve; a budget below one update solves nothing. Python numbers are stored, so
        # Newton compares no numpy scalar on each iterate
        tol = _real_scalar(self.abs_tol, "NewtonConfig.abs_tol")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"NewtonConfig.abs_tol must be a finite number >= 0, got {tol!r}")
        object.__setattr__(self, "abs_tol", tol)
        max_iter = _check_count(self.max_iter, 1, "NewtonConfig.max_iter")
        object.__setattr__(self, "max_iter", max_iter)


class NewtonResult(NamedTuple):
    """The accepted iterate, the updates it took and max|r| at acceptance.

    When the solve met abs_tol after at least one update, x carries the
    polish update on top; residual_norm stays the norm before the polish,
    the last residual the solve evaluated, and the polish is not counted.
    """

    x: np.ndarray
    iterations: int
    residual_norm: float


def _forward_differences(residual, x, r0):
    # the one difference routine, which _newton runs when it has no Jacobian: residual returns
    # float64 arrays of r0's shape and x is a float64 1-d array, which newton_solve's
    # conversions or the element kernel guarantee
    n = len(x)
    h = _FD_STEP * (1.0 + np.abs(x))
    shifted = x[None, :].repeat(n, 0)
    shifted.reshape(-1)[:: n + 1] += h  # the diagonal, through a view of the contiguous copy
    probes = np.empty((n, len(r0)))
    for j, xp in enumerate(shifted):
        probes[j] = residual(xp)
    probes -= r0
    probes /= h[:, None]
    return probes.T


def _lu_factor_checked(J):
    # J is copied, never overwritten; the raw LAPACK calls skip the argument checks
    # that scipy's lu_factor/lu_solve wrappers would spend on these small stage systems
    lu, piv, _ = dgetrf(J)
    pivots = np.abs(lu.diagonal())
    pivots.sort()  # one call for both ends; a NaN pivot sorts last
    smallest, largest = pivots[0], pivots[-1]
    if not (0.0 < largest < math.inf and smallest >= _PIVOT_RTOL * largest):
        raise SingularJacobianError(
            f"stage Jacobian is numerically singular (pivot ratio {smallest:.3e} / {largest:.3e})"
        )
    return lu, piv


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    config: NewtonConfig = NewtonConfig(),
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> NewtonResult:
    """Solve residual(x) = 0 by Newton iteration from x0.

    Convergence means the max-norm of the residual drops to config.abs_tol or
    below, or an update shrinks to rounding size (max|dx| <= 4 eps max|x|),
    within config.max_iter updates. The analytic jacobian callable is used
    when given, otherwise forward differences. A solve accepted on abs_tol
    after at least one update is polished by one more update with the last
    LU factors (no further residual or Jacobian call; see NewtonResult).
    A residual that is not callable, or a jacobian that is neither None nor
    callable, raises ValueError naming it; a config that is not a NewtonConfig
    raises TypeError, naming it, and an x0 that is empty or not 1-d
    ValueError, naming its shape, before any residual call; so does a complex
    x0, which geodesy.basis._real refuses rather than cut to its real part. A
    residual whose shape differs from x0's, a Jacobian
    of another shape than (n, n) for n unknowns, and a residual or Jacobian
    whose values are not real (complex ones say) or are ragged raise
    EvaluationError, a ValueError too, naming the callable and, for a shape,
    both shapes; a residual is refused
    before the Jacobian at its iterate. Raises NewtonNonConvergence with the
    last iterate attached on failure: when the budget is spent, or earlier,
    as divergence, once max|dx| has not shrunk over three updates while
    still above sqrt(eps) max|x|.
    """
    _check_callable(residual, "residual")
    _check_callable(jacobian, "jacobian", optional=True)
    if not isinstance(config, NewtonConfig):
        raise TypeError(f"config must be a geodesy.NewtonConfig, got {config!r}")
    x = _real(x0, "x0").copy()
    if not x.size:
        raise ValueError(f"x0 must have at least one unknown, got shape {x.shape}")
    if x.ndim != 1:
        raise ValueError(f"x0 must be a 1-d array of unknowns, got shape {x.shape}")
    shape, jacobian_shape = x.shape, (x.size, x.size)

    def checked_residual(z):
        return _float_output(residual(z), "residual", shape)

    checked_jacobian = None
    if jacobian is not None:

        def checked_jacobian(z):
            return _float_output(jacobian(z), "jacobian", jacobian_shape)

    # as in integrate and the steps: a floating-point exception warns nowhere, and what it
    # leaves that is not finite (a difference quotient that overflows, say) fails as a named error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _newton(checked_residual, x, config, checked_jacobian)


def _newton(residual, x, config, jacobian=None):
    # the Newton core, newton_solve's loop without its checks: residual(x) returns a float64
    # (n,) array, jacobian(x), when given, a float64 (n, n) one, and x is a float64 1-d array
    # that the loop may keep. newton_solve's conversions guarantee this for a caller's
    # callables, and the element kernel's own callables return such arrays
    iterations = 0
    updates = []  # max|dx| per update
    while True:
        r = residual(x)
        rl = r.tolist()
        # before max, which skips a NaN that is not the first entry
        if not all(map(math.isfinite, rl)):
            where = "during Newton iteration" if iterations else "at the initial guess"
            raise EvaluationError(f"residual is non-finite {where}")
        norm = max(map(abs, rl))
        if norm <= config.abs_tol:
            if iterations:  # the polish: x - J^-1 r(x) with the last factors
                x = x - dgetrs(lu, piv, r)[0]
            return NewtonResult(x, iterations, norm)
        if iterations:
            update = max(map(abs, dx.tolist()))
            updates.append(update)
            xl = x.tolist()
            x_max = max(map(abs, xl))
            # max skipped any NaN in x, where the residual can be finite: neither test may
            # end the solve there, and an infinite x passes any stall bound. A NaN in dx leaves
            # one in x, so update is exact where they do
            if update <= _STALL_RTOL * x_max and all(map(math.isfinite, xl)):
                return NewtonResult(x, iterations, norm)
            stuck = iterations > _DIVERGENCE_WINDOW and update >= updates[-1 - _DIVERGENCE_WINDOW]
            if stuck and update > _DIVERGENCE_RTOL * x_max and not any(map(math.isnan, xl)):
                theta = update / updates[-2]
                raise NewtonNonConvergence(
                    f"Newton diverges: max|dx| = {update:.3e} did not contract over the"
                    f" last {_DIVERGENCE_WINDOW} updates (contraction rate theta = {theta:.3g},"
                    f" residual {norm:.3e}) after {iterations} iterations",
                    x=x,
                    residual_norm=norm,
                    iterations=iterations,
                )
        if iterations >= config.max_iter:
            raise NewtonNonConvergence(
                f"Newton did not reach {config.abs_tol:.1e} in {config.max_iter} iterations"
                f" (residual {norm:.3e})",
                x=x,
                residual_norm=norm,
                iterations=iterations,
            )
        if jacobian is not None:
            J = jacobian(x)
        else:
            J = _forward_differences(residual, x, r)
        if not _all(np.isfinite(J), axis=None):
            raise EvaluationError("Jacobian is non-finite during Newton iteration")
        lu, piv = _lu_factor_checked(J)
        dx = dgetrs(lu, piv, r)[0]  # J^-1 r: the update is -dx
        x = x - dx
        iterations += 1
