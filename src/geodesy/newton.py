"""Damped-free Newton solver for the implicit stage equations.

The linear solves call LAPACK's dense LU routines directly: getrf factors
with partial pivoting and getrs solves with the factors. A factorization
whose smallest pivot falls below 1e-14 relative to the largest, or that has
a non-finite pivot, is treated as singular rather than silently producing
garbage; an exactly zero pivot, which getrf reports with info > 0, fails the
same check. The Jacobian is the analytic callable when one is given,
otherwise forward differences with a step scaled per component.

Each iterate costs one residual evaluation, one Jacobian and one LU solve,
and the loop keeps its small-array reductions to those its decisions need:
max|r| for the stop and finiteness tests, max|dx| and max|x| once there is
an update (the stall test, then the divergence test), the Jacobian's
entrywise finiteness test and one sort of the pivots, which gives the
smallest and the largest at once.

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

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import EvaluationError, NewtonNonConvergence, SingularJacobianError

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
    abs_tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        # a bool is no tolerance; a NaN or negative one is never met, so only the rounding-floor
        # stop would end the solve; a budget below one update solves nothing
        tol = self.abs_tol
        real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
        if not (real and math.isfinite(tol) and tol >= 0):
            raise ValueError(f"NewtonConfig.abs_tol must be a finite number >= 0, got {tol!r}")
        n = self.max_iter
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"NewtonConfig.max_iter must be an integer >= 1, got {n!r}")


class NewtonResult(NamedTuple):
    """The accepted iterate, the updates it took and max|r| at acceptance.

    When the solve met abs_tol after at least one update, x carries the
    polish update on top; residual_norm stays the norm before the polish,
    the last residual the solve evaluated, and the polish is not counted.
    """

    x: np.ndarray
    iterations: int
    residual_norm: float


def forward_difference_jacobian(residual, x, r0=None):
    """Forward-difference Jacobian with step _FD_STEP * (1 + |x_j|) in column j.

    Row j of one (n, n) array is x shifted in entry j; the n residuals at
    those rows form one array and one quotient gives every column.
    """
    if r0 is None:
        r0 = np.asarray(residual(x), dtype=float)
    n = len(x)
    h = _FD_STEP * (1.0 + np.abs(x))
    shifted = np.tile(x, (n, 1))
    shifted.flat[:: n + 1] += h
    probes = np.array([np.asarray(residual(xp), dtype=float) for xp in shifted])
    return ((probes - r0) / h[:, None]).T


def _lu_factor_checked(J):
    # J is copied, never overwritten; stage systems are small enough that the
    # scipy lu_factor/lu_solve wrappers cost more than these calls
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
    Raises NewtonNonConvergence with the last iterate attached on failure:
    when the budget is spent, or earlier, as divergence, once max|dx| has
    not shrunk over three updates while still above sqrt(eps) max|x|.
    """
    x = np.array(x0, dtype=float)
    iterations = 0
    updates = []  # max|dx| per update
    while True:
        r = np.asarray(residual(x), dtype=float)
        norm = float(np.abs(r).max())  # NaN or inf when any entry is
        if not math.isfinite(norm):
            where = "during Newton iteration" if iterations else "at the initial guess"
            raise EvaluationError(f"residual is non-finite {where}")
        if norm <= config.abs_tol:
            if iterations:  # the polish: x - J^-1 r(x) with the last factors
                x = x - dgetrs(lu, piv, r)[0]
            return NewtonResult(x, iterations, norm)
        if iterations:
            update = float(np.abs(dx).max())
            updates.append(update)
            x_max = float(np.abs(x).max())
            if update <= _STALL_RTOL * x_max:
                return NewtonResult(x, iterations, norm)
            stuck = iterations > _DIVERGENCE_WINDOW and update >= updates[-1 - _DIVERGENCE_WINDOW]
            if stuck and update > _DIVERGENCE_RTOL * x_max:
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
            J = np.asarray(jacobian(x), dtype=float)
        else:
            J = forward_difference_jacobian(residual, x, r)
        if not np.isfinite(J).all():
            raise EvaluationError("Jacobian is non-finite during Newton iteration")
        lu, piv = _lu_factor_checked(J)
        dx = dgetrs(lu, piv, -r)[0]
        x = x + dx
        iterations += 1
