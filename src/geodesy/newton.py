"""Damped-free Newton solver for the implicit stage equations.

The linear solves call LAPACK's dense LU routines directly: getrf factors
with partial pivoting and getrs solves with the factors. A factorization
whose smallest pivot falls below 1e-14 relative to the largest is treated as
singular rather than silently producing garbage; an exactly zero pivot, which
getrf reports with info > 0, fails the same check. The Jacobian is the
analytic callable when one is given, otherwise forward differences with a
step scaled per component.
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
        # a NaN or negative tolerance is never met, so only the rounding-floor
        # stop would end the solve; a budget below one update solves nothing
        tol = self.abs_tol
        if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
            raise ValueError(f"NewtonConfig.abs_tol must be a finite number >= 0, got {tol!r}")
        n = self.max_iter
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"NewtonConfig.max_iter must be an integer >= 1, got {n!r}")


class NewtonResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual_norm: float


def forward_difference_jacobian(residual, x, r0=None, fd_step=_FD_STEP):
    """Column-wise forward-difference Jacobian with step fd_step * (1 + |x_j|)."""
    if r0 is None:
        r0 = np.asarray(residual(x), dtype=float)
    n = len(x)
    J = np.empty((len(r0), n))
    for j in range(n):
        h = fd_step * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.asarray(residual(xp), dtype=float) - r0) / h
    return J


def _lu_solve_checked(J, rhs):
    # J and rhs are copied, never overwritten; stage systems are small enough
    # that the scipy lu_factor/lu_solve wrappers cost more than these calls
    lu, piv, _ = dgetrf(J)
    diag = np.abs(lu.diagonal())
    scale = diag.max()
    if scale == 0.0 or diag.min() < _PIVOT_RTOL * scale:
        raise SingularJacobianError(
            f"stage Jacobian is numerically singular (pivot ratio {diag.min():.3e} / {scale:.3e})"
        )
    x, _ = dgetrs(lu, piv, rhs)
    return x


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
    when given, otherwise forward differences.
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
            return NewtonResult(x, iterations, norm)
        if iterations:
            updates.append(float(np.abs(dx).max()))
            x_max = np.abs(x).max()
            if updates[-1] <= _STALL_RTOL * x_max:
                return NewtonResult(x, iterations, norm)
            if (
                iterations > _DIVERGENCE_WINDOW
                and updates[-1] >= updates[-1 - _DIVERGENCE_WINDOW]
                and updates[-1] > _DIVERGENCE_RTOL * x_max
            ):
                theta = updates[-1] / updates[-2]
                raise NewtonNonConvergence(
                    f"Newton diverges: max|dx| = {updates[-1]:.3e} did not contract over the"
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
        dx = _lu_solve_checked(J, -r)
        x = x + dx
        iterations += 1
