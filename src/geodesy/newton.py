"""Damped-free Newton solver for the implicit stage equations.

The linear solves use a dense LU factorization with partial pivoting; a
factorization whose smallest pivot falls below 1e-14 relative to the largest
is treated as singular rather than silently producing garbage. The Jacobian
is either supplied analytically or assembled by forward differences with a
step scaled per component.
"""

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg

from .errors import EvaluationError, NewtonNonConvergence, SingularJacobianError

_PIVOT_RTOL = 1e-14
# a Newton update dx this small next to max|x| is rounding noise: the residual is at its floor
_STALL_RTOL = 4 * np.finfo(float).eps
# Newton diverges when max|dx| has not contracted over this many updates, i.e. the product of
# the last contraction rates theta_k = |dx_k| / |dx_{k-1}| is >= 1 (Hairer & Wanner II, IV.8),
# while the update is still above sqrt(eps) max|x|, well clear of the rounding floor
_DIVERGENCE_WINDOW = 3
_DIVERGENCE_RTOL = np.sqrt(np.finfo(float).eps)


class JacobianMode(enum.Enum):
    ANALYTIC = "analytic"
    FORWARD_DIFFERENCE = "forward-difference"


@dataclass(frozen=True)
class NewtonConfig:
    abs_tol: float = 1e-12
    max_iter: int = 50
    jacobian_mode: JacobianMode = JacobianMode.ANALYTIC
    fd_step: float = 1e-7


class NewtonResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual_norm: float


def forward_difference_jacobian(residual, x, r0=None, fd_step=1e-7):
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
    lu, piv = scipy.linalg.lu_factor(J, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = np.max(diag) if diag.size else 0.0
    if scale == 0.0 or np.min(diag) < _PIVOT_RTOL * scale:
        raise SingularJacobianError(
            f"stage Jacobian is numerically singular (pivot ratio {np.min(diag):.3e} / {scale:.3e})"
        )
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


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
    when given and the mode allows it; otherwise forward differences.
    Raises NewtonNonConvergence with the last iterate attached on failure:
    when the budget is spent, or earlier, as divergence, once max|dx| has
    not shrunk over three updates while still above sqrt(eps) max|x|.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise EvaluationError("residual is non-finite at the initial guess")
    use_analytic = jacobian is not None and config.jacobian_mode is JacobianMode.ANALYTIC
    iterations = 0
    updates = []  # max|dx| per update
    while True:
        norm = float(np.max(np.abs(r)))
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
        if use_analytic:
            J = np.asarray(jacobian(x), dtype=float)
        else:
            J = forward_difference_jacobian(residual, x, r, config.fd_step)
        if not np.all(np.isfinite(J)):
            raise EvaluationError("Jacobian is non-finite during Newton iteration")
        dx = _lu_solve_checked(J, -r)
        x = x + dx
        iterations += 1
        r = np.asarray(residual(x), dtype=float)
        if not np.all(np.isfinite(r)):
            raise EvaluationError("residual is non-finite during Newton iteration")
