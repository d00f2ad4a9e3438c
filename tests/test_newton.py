"""Newton solver: convergence behavior, failure modes, Jacobian routes."""

import numpy as np
import numpy.testing as npt
import pytest

from geodesy.errors import EvaluationError, NewtonNonConvergence, SingularJacobianError
from geodesy.newton import (
    NewtonConfig,
    forward_difference_jacobian,
    newton_solve,
)


def test_linear_system_one_iteration():
    a = np.array([2.0, -1.0, 0.5])
    result = newton_solve(
        lambda x: x - a, np.zeros(3), jacobian=lambda x: np.eye(3)
    )
    npt.assert_allclose(result.x, a, atol=1e-14)
    assert result.iterations == 1


def test_linear_system_fd_takes_two_iterations():
    # forward differences perturb the Jacobian by rounding, so one extra pass
    a = np.array([2.0, -1.0, 0.5])
    result = newton_solve(lambda x: x - a, np.zeros(3))
    npt.assert_allclose(result.x, a, atol=1e-12)
    assert result.iterations <= 2


def test_scalar_quadratic():
    result = newton_solve(lambda x: x * x - 4.0, np.array([3.0]))
    assert abs(result.x[0] - 2.0) <= 1e-12
    assert result.iterations <= 8


def test_double_root_exhausts_budget():
    # F(x) = x^2 halves the iterate each update; five updates cannot reach 1e-12
    cfg = NewtonConfig(max_iter=5)
    with pytest.raises(NewtonNonConvergence) as info:
        newton_solve(lambda x: x * x, np.array([1.0]), cfg)
    err = info.value
    assert err.iterations == 5
    assert err.residual_norm > 1e-12
    assert err.x is not None


def test_divergence_stops_early():
    # Newton on arctan from |x0| > 1.39 overshoots further on every update
    with pytest.raises(NewtonNonConvergence, match="diverges") as info:
        newton_solve(np.arctan, np.array([2.0]), jacobian=lambda x: np.diag(1.0 / (1.0 + x**2)))
    assert info.value.iterations == 4
    assert info.value.residual_norm > 1.0


def test_slow_contraction_is_not_divergence():
    # a double root contracts by only 1/2 per update; the solve runs to its budget
    cfg = NewtonConfig(max_iter=15)
    with pytest.raises(NewtonNonConvergence, match="did not reach") as info:
        newton_solve(lambda x: x**2, np.array([1.0]), cfg, jacobian=lambda x: np.diag(2.0 * x))
    assert info.value.iterations == 15


def test_noise_floor_above_tolerance_is_not_divergence():
    # residual noise of 1e-11 keeps the updates from contracting, but they are
    # far below sqrt(eps) |x|: a stall, which runs to the budget
    def residual(x):
        return x - 1.0 + 1e-11 * np.sin(1e15 * x)

    cfg = NewtonConfig(max_iter=10)
    with pytest.raises(NewtonNonConvergence, match="did not reach") as info:
        newton_solve(residual, np.array([3.0]), cfg, jacobian=lambda x: np.eye(1))
    assert info.value.iterations == 10
    assert info.value.residual_norm > 1e-12


def test_stall_at_rounding_floor_counts_as_converged():
    # near the root one ulp of x moves the residual by ~1e-9, so abs_tol is
    # out of reach; the solve stops once updates fall to rounding size
    result = newton_solve(
        lambda x: 1e6 * (x**3 - 3.0),
        np.array([1.0]),
        jacobian=lambda x: np.diag(3e6 * x**2),
    )
    assert result.iterations < NewtonConfig().max_iter
    assert result.x[0] == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-15)
    assert 1e-12 < result.residual_norm <= 1e-8


def test_already_converged_zero_iterations():
    result = newton_solve(lambda x: x - 1.0, np.array([1.0]))
    assert result.iterations == 0


@pytest.mark.filterwarnings("ignore:Diagonal number")
def test_singular_jacobian():
    def residual(x):
        return np.array([x[0] + x[1] - 1.0, 2.0 * x[0] + 2.0 * x[1] - 2.0])

    with pytest.raises(SingularJacobianError):
        newton_solve(residual, np.array([0.3, 0.3]))


def test_nonfinite_residual():
    with pytest.raises(EvaluationError):
        newton_solve(lambda x: np.array([np.nan]), np.array([1.0]))


def test_nonlinear_two_dimensional():
    # intersection of a circle and a line
    def residual(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[1] - x[0]])

    result = newton_solve(residual, np.array([1.0, 0.5]))
    root = np.sqrt(2.0)
    npt.assert_allclose(result.x, [root, root], atol=1e-10)


def test_analytic_jacobian_used():
    calls = {"jac": 0}

    def residual(x):
        return np.array([x[0] ** 3 - 8.0])

    def jac(x):
        calls["jac"] += 1
        return np.array([[3.0 * x[0] ** 2]])

    result = newton_solve(residual, np.array([3.0]), jacobian=jac)
    assert calls["jac"] > 0
    assert abs(result.x[0] - 2.0) <= 1e-12


def test_forward_difference_jacobian_accuracy():
    rng = np.random.default_rng(31)
    A = rng.uniform(-1.0, 1.0, (4, 4))

    def residual(x):
        return A @ x + 0.1 * x**2

    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, 4)
        J_exact = A + np.diag(0.2 * x)
        J_fd = forward_difference_jacobian(residual, x)
        assert np.max(np.abs(J_fd - J_exact)) / np.max(np.abs(J_exact)) <= 1e-5


def test_fd_step_scaling():
    # the probe step grows with the component magnitude
    seen = []

    def residual(x):
        seen.append(x.copy())
        return x - 1000.0

    forward_difference_jacobian(residual, np.array([1000.0]), fd_step=1e-7)
    # call 0 is the base point; call 1 probes x + h with h = 1e-7 * (1 + 1000)
    probe = seen[1][0]
    assert probe == pytest.approx(1000.0 + 1e-7 * 1001.0, rel=1e-12)
