"""Newton solver: convergence behavior, failure modes, Jacobian routes."""

import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from geodesy.errors import (
    EvaluationError,
    GeodesyError,
    NewtonNonConvergence,
    SingularJacobianError,
)
from geodesy.newton import (
    NewtonConfig,
    NewtonResult,
    _forward_differences,
    _lu_factor_checked,
    dgetrf,
    dgetrs,
    newton_solve,
)
from helpers import column_forward_difference


def _lu_solve_checked(J, rhs):
    # the solver's checked factorization and one getrs, as one solve
    return dgetrs(*_lu_factor_checked(J), rhs)[0]


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


def _signed_step(x):
    # -1e302 up to x = 1, 1e302 past it: finite everywhere, with a jump at 1
    return np.where(x > 1.0, 1e302, -1e302)


@pytest.mark.parametrize("action", ["always", "error"])
def test_an_infinite_iterate_is_not_converged(action):
    # the first update takes x to inf, and the next update, inf, passed the stall test
    # against max|x| = inf: the solve returned x = [inf] as converged
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        with pytest.raises(GeodesyError):
            newton_solve(_signed_step, [1.0], jacobian=lambda x: np.array([[1e-300]]))
    assert shown == []


@pytest.mark.parametrize("action", ["always", "error"])
def test_an_infinite_iterate_that_meets_abs_tol_is_not_converged(action):
    # the residual is 0 past x = 1, and the first update takes x to inf there: the abs_tol
    # stop, which reads the residual only, returned x = [inf] as converged
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        with pytest.raises(NewtonNonConvergence) as err:
            newton_solve(
                lambda x: np.where(x > 1.0, 0.0, -1e302), [1.0],
                jacobian=lambda x: np.array([[1e-300]]),
            )
    assert shown == []
    assert str(err.value) == (
        "Newton reached a non-finite iterate after 1 iterations (residual 0.000e+00)"
    )
    assert err.value.x.tolist() == [math.inf]
    assert err.value.iterations == 1 and err.value.residual_norm == 0.0


@pytest.mark.parametrize("action", ["always", "error"])
def test_a_difference_quotient_that_overflows_is_refused_without_a_warning(action):
    # the base and probe residuals, -1e302 and 1e302, are finite, but their quotient over
    # h = 2e-7 overflows: it warned in the quotient, and as an error escaped as a
    # RuntimeWarning. The Jacobian's finiteness test refuses it, naming it
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        with pytest.raises(EvaluationError) as err:
            newton_solve(_signed_step, [1.0])
    assert shown == []
    assert str(err.value) == "Jacobian is non-finite during Newton iteration"


def test_already_converged_zero_iterations():
    result = newton_solve(lambda x: x - 1.0, np.array([1.0]))
    assert result.iterations == 0


def test_singular_jacobian():
    def residual(x):
        return np.array([x[0] + x[1] - 1.0, 2.0 * x[0] + 2.0 * x[1] - 2.0])

    with pytest.raises(SingularJacobianError):
        newton_solve(residual, np.array([0.3, 0.3]))


def test_nonfinite_residual():
    with pytest.raises(EvaluationError, match="non-finite at the initial guess"):
        newton_solve(lambda x: np.array([np.nan]), np.array([1.0]))


@pytest.mark.parametrize("shape", [(3,), (0,), (1, 2)])
@pytest.mark.parametrize("analytic", [False, True])
def test_residual_of_another_shape_names_both_shapes(shape, analytic):
    # rejected at the first residual, before any Jacobian: not a singular pivot,
    # a LAPACK dimension error, an empty max or a broadcast
    def jacobian(x):
        raise AssertionError("the Jacobian must not be reached")

    expected = rf"^residual returned shape {re.escape(str(shape))}, expected \(2,\)$"
    with pytest.raises(EvaluationError, match=expected):
        newton_solve(lambda x: np.ones(shape), np.ones(2), jacobian=jacobian if analytic else None)


@pytest.mark.parametrize(
    "J", [np.eye(3), np.eye(2)[:, :1], np.ones((2, 2, 1))], ids=["3x3", "2x1", "2x2x1"]
)
def test_jacobian_of_another_shape_names_both_shapes(J):
    # refused before LAPACK reads it: f2py's dimension error, a _flapack.error that is no
    # ValueError, or a truth-value error named neither shape
    expected = rf"^jacobian returned shape {re.escape(str(J.shape))}, expected \(2, 2\)$"
    with pytest.raises(EvaluationError, match=expected) as err:
        newton_solve(lambda x: x - 1, [0.5, 0.25], jacobian=lambda x: J)
    assert isinstance(err.value, ValueError)


def test_residual_of_another_shape_after_an_update_is_refused():
    # the shape is checked at every iterate, not only the first
    def residual(x):
        return x - 1.0 if x[0] == 0.5 else np.ones(3)

    with pytest.raises(EvaluationError, match=r"^residual returned shape \(3,\), expected \(2,\)$"):
        newton_solve(residual, [0.5, 0.25], jacobian=lambda x: np.eye(2))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("n", [1, 3])
def test_nonfinite_residual_after_an_update(bad, n):
    # the first update lands on x[0] = 2, where the last entry blows up for good
    root = np.zeros(n)
    root[0] = 2.0

    def residual(x):
        r = x - root
        if abs(x[0] - 1.0) > 0.5:
            r[-1] = bad
        return r

    x0 = np.zeros(n)
    x0[0] = 1.0
    with pytest.raises(EvaluationError, match="non-finite during Newton iteration"):
        newton_solve(residual, x0, jacobian=lambda x: np.eye(n))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["pivot", "off-diagonal"])
def test_nonfinite_jacobian(bad, where):
    # the entry test runs before the factorization, so even a non-finite
    # pivot reads as a non-finite Jacobian, not a singular one
    def jacobian(x):
        J = np.eye(2)
        J[(0, 0) if where == "pivot" else (0, 1)] = bad
        return J

    with pytest.raises(EvaluationError, match="Jacobian is non-finite during Newton iteration"):
        newton_solve(lambda x: x - 1.0, np.zeros(2), jacobian=jacobian)


@pytest.mark.parametrize(
    "residual, jacobian, message",
    [
        (3.0, None, "residual must be callable, got 3.0"),
        (None, None, "residual must be callable, got None"),
        ("f", None, "residual must be callable, got 'f'"),
        ("g", np.eye(1), "residual must be callable, got 'g'"),
        ("callable", np.eye(1), "jacobian must be None or callable, got array([[1.]])"),
        ("callable", 1.0, "jacobian must be None or callable, got 1.0"),
    ],
    ids=[
        "residual-float", "residual-none", "residual-str", "both", "jacobian-array",
        "jacobian-float",
    ],
)
def test_a_function_that_is_not_callable_is_refused_before_any_call(residual, jacobian, message):
    # each was called on the first iterate: a raw "'float' object is not callable"
    calls = []

    def counted(x):
        calls.append(x)
        return x - 1.0

    with pytest.raises(ValueError) as err:
        newton_solve(counted if residual == "callable" else residual, [0.5], jacobian=jacobian)
    assert str(err.value) == message
    assert calls == []


def _reference_newton(residual, x0, config, jacobian=None):
    # the loop's decisions written out plainly: max|x| and max|dx| each
    # iteration, the Jacobian's entries tested one by one, and an abs_tol stop
    # after an update polished by one more solve with the last Jacobian, which
    # refuses an iterate that is not finite
    x = np.array(x0, dtype=float)
    iterations, updates = 0, []
    while True:
        r = np.asarray(residual(x), dtype=float)
        norm = float(np.abs(r).max())
        if not math.isfinite(norm):
            where = "during Newton iteration" if iterations else "at the initial guess"
            raise EvaluationError(f"residual is non-finite {where}")
        if norm <= config.abs_tol:
            if iterations:
                x = x - _lu_solve_checked(J, r)
            if not np.isfinite(x).all():
                raise NewtonNonConvergence(
                    f"Newton reached a non-finite iterate after {iterations} iterations"
                    f" (residual {norm:.3e})",
                    x=x, residual_norm=norm, iterations=iterations,
                )
            return NewtonResult(x, iterations, norm)
        if iterations:
            updates.append(float(np.abs(dx).max()))
            x_max = np.abs(x).max()
            if updates[-1] <= 4 * np.finfo(float).eps * x_max < math.inf:
                return NewtonResult(x, iterations, norm)
            if (
                iterations > 3
                and updates[-1] >= updates[-4]
                and updates[-1] > np.sqrt(np.finfo(float).eps) * x_max
            ):
                theta = updates[-1] / updates[-2]
                raise NewtonNonConvergence(
                    f"Newton diverges: max|dx| = {updates[-1]:.3e} did not contract over the"
                    f" last 3 updates (contraction rate theta = {theta:.3g},"
                    f" residual {norm:.3e}) after {iterations} iterations",
                    x=x, residual_norm=norm, iterations=iterations,
                )
        if iterations >= config.max_iter:
            raise NewtonNonConvergence(
                f"Newton did not reach {config.abs_tol:.1e} in {config.max_iter} iterations"
                f" (residual {norm:.3e})",
                x=x, residual_norm=norm, iterations=iterations,
            )
        if jacobian is not None:
            J = np.asarray(jacobian(x), dtype=float)
        else:
            J = _forward_differences(residual, x, r)
        if not np.isfinite(J).all():
            raise EvaluationError("Jacobian is non-finite during Newton iteration")
        dx = _lu_solve_checked(J, -r)
        x = x + dx
        iterations += 1


def _outcome(solve, residual, x0, config, jacobian):
    calls = []

    def counted(x):
        calls.append(1)
        return residual(x)

    try:
        res = solve(counted, x0, config, jacobian=jacobian)
    except (NewtonNonConvergence, EvaluationError, SingularJacobianError) as err:
        x = getattr(err, "x", None)
        return type(err), str(err), getattr(err, "iterations", None), None if x is None else x.tobytes(), len(calls)
    return "converged", res.iterations, res.x.tobytes(), res.residual_norm, len(calls)


def _shrinking_cubic(x):
    # from a large start Newton shrinks x by a third per update, so max|x|
    # falls by four orders between the start and the root 0.1, where the
    # stall test reads it
    return x**3 - 1e-3


def _cubic_jump(x):
    return x**3 - 2e9


def _cubic_jump_slope(x):
    # a steered Newton: a tiny first update, then a jump of 1e3 next to the
    # root 1259.9..., then the true slope down to the rounding floor; max|x|
    # grows by three orders after the first update, and the stall test at
    # the floor reads the iterate's size there
    if x[0] == 1.0:
        return np.array([[1e12]])
    if x[0] < 2.0:
        return (_cubic_jump(x) - _cubic_jump(np.array([1260.0])))[:, None] / (x[0] - 1260.0)
    return np.diag(3.0 * x**2)


def _last_nan(x):
    r = x - 1.0
    r[-1] = np.nan
    return r


def _moved(entry, bad):
    # the root is (2, 0, 0); once the first update moves x[0] off 1, entry turns bad
    def residual(x):
        r = x - np.array([2.0, 0.0, 0.0])
        if x[0] != 1.0:
            r[entry] = bad
        return r

    return residual


def _nan_iterate(x):
    # the finite entry reaches its root at once; the NaN one reads a tiny constant, so
    # every later update is far below max|x| taken over the finite entries
    return np.where(np.isnan(x), 1e-300, x - 1.0)


def _nan_iterate_arctan(x):
    # arctan's Newton iterate grows without bound from 2, past the divergence test
    return np.where(np.isnan(x), 1.0, np.arctan(x))


_DECISION_CASES = {
    "cubic-shrinking": (_shrinking_cubic, [1e3, -2e2], lambda x: np.diag(3.0 * x**2)),
    "cubic-jump": (_cubic_jump, [1.0], _cubic_jump_slope),
    "cubic-floor": (lambda x: 1e6 * (x**3 - 3.0), [1.0], lambda x: np.diag(3e6 * x**2)),
    "arctan-diverges": (np.arctan, [2.0], lambda x: np.diag(1.0 / (1.0 + x**2))),
    "double-root": (lambda x: x**2, [1.0], lambda x: np.diag(2.0 * x)),
    "noise-floor": (lambda x: x - 1.0 + 1e-11 * np.sin(1e15 * x), [3.0], lambda x: np.eye(1)),
    "circle-line": (
        lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[1] - x[0]]),
        [1.0, 0.5],
        lambda x: np.array([[2.0 * x[0], 2.0 * x[1]], [-1.0, 1.0]]),
    ),
    "exp-system": (
        lambda x: np.exp(x) - np.array([2.0, 3.0, 0.5]) + 0.1 * x[::-1],
        [5.0, -4.0, 0.0],
        lambda x: np.diag(np.exp(x)) + 0.1 * np.eye(3)[::-1],
    ),
    # a non-finite residual entry that Python's max would skip: not first
    "nan-last-at-guess": (_last_nan, [1.0, 2.0, 3.0], lambda x: np.eye(3)),
    "inf-middle-after-update": (_moved(1, np.inf), [1.0, 0.0, 0.0], lambda x: np.eye(3)),
    "nan-last-after-update": (_moved(2, np.nan), [1.0, 0.0, 0.0], lambda x: np.eye(3)),
    # a NaN iterate, not first, where the residual stays finite: neither the stall test nor
    # the divergence test may end the solve there, and an abs_tol stop there is refused
    "nan-iterate-stalls": (_nan_iterate, [3.0, np.nan], lambda x: np.eye(2)),
    "nan-iterate-diverges": (
        _nan_iterate_arctan,
        [2.0, np.nan],
        lambda x: np.diag([1.0 / (1.0 + x[0] ** 2), 1.0]),
    ),
}


@pytest.mark.parametrize("case", sorted(_DECISION_CASES))
@pytest.mark.parametrize("analytic", [True, False])
@pytest.mark.parametrize("abs_tol, max_iter", [(1e-12, 50), (0.0, 50), (0.0, 7), (1e-3, 3)])
def test_decisions_match_the_plain_loop(case, analytic, abs_tol, max_iter):
    # abs_tol = 0 leaves the rounding-floor stop, divergence and the budget as
    # the only ways out; iterates, counts and messages agree bitwise
    residual, x0, jacobian = _DECISION_CASES[case]
    config = NewtonConfig(abs_tol=abs_tol, max_iter=max_iter)
    jac = jacobian if analytic else None
    want = _outcome(_reference_newton, residual, np.array(x0), config, jac)
    assert _outcome(newton_solve, residual, np.array(x0), config, jac) == want


@pytest.mark.parametrize("analytic", [True, False])
def test_polish_makes_no_further_residual_or_jacobian_call(analytic):
    # accepted on abs_tol after three updates: one more update with the last
    # factors moves x, but residual, Jacobian and count stay those of the loop
    seen = {"x": [], "r": [], "J": []}

    def plain(x):
        return np.exp(x) - np.array([2.0, 3.0, 0.5]) + 0.1 * x[::-1]

    def residual(x):
        seen["x"].append(x.copy())
        seen["r"].append(plain(x))
        return seen["r"][-1]

    def jacobian(x):
        J = np.diag(np.exp(x)) + 0.1 * np.eye(3)[::-1]
        seen["J"].append(J)
        return J

    config = NewtonConfig(abs_tol=1e-6)
    result = newton_solve(residual, np.zeros(3), config, jacobian=jacobian if analytic else None)
    n = result.iterations
    assert n >= 1
    fd_calls = 0 if analytic else 3 * n  # forward differences: one call per column
    assert len(seen["x"]) == n + 1 + fd_calls
    if analytic:
        assert len(seen["J"]) == n
        J_last = seen["J"][-1]
    else:  # the last Jacobian's base point precedes its three probes
        J_last = _forward_differences(plain, seen["x"][-5], seen["r"][-5])
    x_acc, r_acc = seen["x"][-1], seen["r"][-1]
    assert result.residual_norm == np.abs(r_acc).max() <= 1e-6
    npt.assert_array_equal(result.x, x_acc - _lu_solve_checked(J_last, r_acc))
    # the polish lands far below the tolerance it was accepted at
    assert np.abs(plain(result.x)).max() < 1e-3 * result.residual_norm


@pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [2.0, -1.0, 0.5]])
def test_no_polish_without_an_update(x0):
    # an initial guess that already meets abs_tol comes back as it is; after
    # the one exact update of a linear residual the polish adds zero
    a = np.array([2.0, -1.0, 0.5]) + 1e-13
    calls = []

    def jacobian(x):
        calls.append(x)
        return np.eye(3)

    config = NewtonConfig(abs_tol=1e-12)
    result = newton_solve(lambda x: x - a, np.array(x0), config, jacobian=jacobian)
    if x0[0] == 2.0:
        assert result.iterations == 0 and calls == []
        npt.assert_array_equal(result.x, x0)
    else:
        assert result.iterations == 1 and len(calls) == 1
        npt.assert_array_equal(result.x, a)


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
        J_fd = _forward_differences(residual, x, residual(x))
        assert np.max(np.abs(J_fd - J_exact)) / np.max(np.abs(J_exact)) <= 1e-5


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (5, 5), (12, 12), (4, 7)])
def test_forward_difference_equals_the_column_loop_bitwise(seed, n, m):
    rng = np.random.default_rng(100 * seed + 10 * n + m)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    scale = 10.0 ** rng.uniform(-3, 3, n)
    x = rng.standard_normal(n) * scale
    x[rng.random(n) < 0.2] = -0.0  # a signed zero must reach the residual as it is
    probes = {"vectorised": [], "loop": []}

    def residual_for(name):
        def residual(y):
            probes[name].append(np.array(y))
            return np.tanh(A @ y) + b * np.sum(y**3) - np.copysign(1.0, y).sum()

        return residual

    r0 = residual_for("vectorised")(x)
    probes["vectorised"].clear()
    J = _forward_differences(residual_for("vectorised"), x, r0)
    want = column_forward_difference(residual_for("loop"), x, r0)
    npt.assert_array_equal(J, want)
    assert J.shape == (m, n)
    assert len(probes["vectorised"]) == len(probes["loop"]) == n
    for got, ref in zip(probes["vectorised"], probes["loop"]):
        assert got.tobytes() == ref.tobytes()


def test_forward_difference_rejects_a_mis_shaped_probe_residual():
    # a probe residual is not broadcast into its row of the block: newton_solve converts it
    # as it converts the base residual
    for shape in [(1,), (1, 3)]:
        calls = []

        def residual(y):
            calls.append(1)
            return np.ones(3 if len(calls) < 3 else shape)

        expected = rf"^residual returned shape {re.escape(str(shape))}, expected \(3,\)$"
        with pytest.raises(EvaluationError, match=expected):
            newton_solve(residual, np.array([0.5, 1.0, -2.0]))
        assert len(calls) == 3  # the base point, the first probe and the refused second


def test_ragged_residual_is_refused_naming_it():
    # numpy's own ValueError about an inhomogeneous shape named no callable
    with pytest.raises(EvaluationError, match="^residual returned ragged values, which form no"):
        newton_solve(lambda x: [x[0], [1.0, 2.0]], np.array([0.5, 0.25]))


class _FailingArray:
    # numpy calls __array__ when it converts the value, and the ValueError it raises is no
    # ragged shape
    def __array__(self, dtype=None, copy=None):
        raise ValueError("boom")


def test_a_value_that_fails_its_own_conversion_is_not_called_ragged():
    # both were called ragged, whatever ValueError numpy's conversion raised
    with pytest.raises(ValueError) as err:
        newton_solve(lambda x: x, _FailingArray())
    assert str(err.value) == "x0 forms no array: boom"
    assert str(err.value.__cause__) == "boom"
    with pytest.raises(EvaluationError) as err:
        newton_solve(lambda x: _FailingArray(), [0.5])
    assert str(err.value) == "residual returned values that form no array: boom"
    assert str(err.value.__cause__) == "boom"


@pytest.mark.parametrize("x0", [np.array([1, 2]), [1.0, 2.0], [1, 2], (1.0, 2.0)])
def test_a_differenced_solve_takes_any_real_sequence(x0):
    # x0 is converted to floats on entry: the solve, its differences included, has the
    # bits of the one from the float array itself
    for residual in (lambda y: y * 2.0, lambda y: y * 2.0 + y[::-1] ** 2):
        want = newton_solve(residual, np.array([1.0, 2.0]))
        got = newton_solve(residual, x0)
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.iterations, got.residual_norm) == (want.iterations, want.residual_norm)


@pytest.mark.parametrize("analytic", [False, True], ids=["fd", "jacobian"])
def test_a_solve_leaves_the_callers_x0_as_it_was(analytic):
    # the loop's iterate starts as a copy of a float x0, so the x returned is never the
    # caller's array, not even from a root that takes no update
    jacobian = (lambda y: np.diag(2.0 * y)) if analytic else None
    for start, iterations in [([2.0, 2.0, 2.0], 0), ([1.0, 3.0, 0.5], None)]:
        x0 = np.array(start)
        result = newton_solve(lambda y: y**2 - 4.0, x0, jacobian=jacobian)
        assert result.x is not x0 and iterations in (None, result.iterations)
        npt.assert_allclose(result.x, 2.0, rtol=1e-12)
        result.x[:] = -1.0
        assert x0.tolist() == start


@pytest.mark.parametrize("x0", [[], np.zeros(0), np.zeros((2, 0))])
def test_an_empty_initial_guess_is_rejected(x0):
    calls = []
    with pytest.raises(ValueError, match=r"x0 must have at least one unknown, got shape \("):
        newton_solve(lambda x: calls.append(1) or x, x0)
    assert calls == []


@pytest.mark.parametrize("x0", [np.ones((2, 2)), np.ones((1, 3)), np.float64(1.0), 2.0])
@pytest.mark.parametrize("analytic", [False, True], ids=["fd", "jacobian"])
def test_an_initial_guess_that_is_not_1d_is_rejected(x0, analytic):
    calls = []

    def residual(x):
        calls.append("residual")
        return x**2 - 2.0

    def jacobian(x):
        calls.append("jacobian")
        return np.diag(2.0 * x.ravel())

    shape = re.escape(str(np.shape(x0)))
    with pytest.raises(ValueError, match=rf"x0 must be a 1-d array of unknowns, got shape {shape}"):
        newton_solve(residual, x0, jacobian=jacobian if analytic else None)
    assert calls == []


def test_fd_step_scaling():
    # the probe step grows with the component magnitude
    seen = []

    def residual(x):
        seen.append(x.copy())
        return x - 1000.0

    x = np.array([1000.0])
    _forward_differences(residual, x, residual(x))
    # call 0 is the base point; call 1 probes x + h with h = 1e-7 * (1 + 1000)
    probe = seen[1][0]
    assert probe == pytest.approx(1000.0 + 1e-7 * 1001.0, rel=1e-12)


class TestLuSolveChecked:
    PIVOT_MESSAGE = r"numerically singular \(pivot ratio"

    def test_exactly_singular_matrix(self):
        J = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert dgetrf(J)[2] > 0  # LAPACK reports an exactly zero pivot
        with pytest.raises(SingularJacobianError, match=self.PIVOT_MESSAGE):
            _lu_solve_checked(J, np.ones(2))

    def test_pivot_ratio_below_threshold_is_singular(self):
        with pytest.raises(SingularJacobianError, match=self.PIVOT_MESSAGE):
            _lu_solve_checked(np.diag([1.0, 1e-15]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_pivot_is_singular(self, bad):
        with pytest.raises(SingularJacobianError, match=self.PIVOT_MESSAGE):
            _lu_solve_checked(np.array([[bad, 1.0], [1.0, 1.0]]), np.ones(2))

    def test_pivot_ratio_above_threshold_solves(self):
        x = _lu_solve_checked(np.diag([1.0, 1e-13]), np.ones(2))
        npt.assert_allclose(x, [1.0, 1e13], rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 16])
    def test_matches_numpy_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            J = rng.standard_normal((n, n)) + n * np.eye(n)
            rhs = rng.standard_normal(n)
            want = np.linalg.solve(J, rhs)
            got = _lu_solve_checked(J, rhs)
            assert got.shape == (n,)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_are_left_unmodified(self, order):
        rng = np.random.default_rng(7)
        J = np.asarray(rng.standard_normal((6, 6)) + 6 * np.eye(6), order=order)
        rhs = rng.standard_normal(6)
        J_before, rhs_before = J.copy(), rhs.copy()
        _lu_solve_checked(J, rhs)
        npt.assert_array_equal(J, J_before)
        npt.assert_array_equal(rhs, rhs_before)


class TestNewtonConfig:
    @pytest.mark.parametrize(
        "tol",
        [
            np.nan, np.inf, -np.inf, -1.0, -1e-300, "1e-12", None, True, False,
            Fraction(1, 10**12), Decimal("1e-12"), np.bool_(True),
        ],
    )
    def test_bad_tolerance_is_rejected(self, tol):
        # a Fraction was stored, and a failing solve then raised a TypeError from its
        # __format__ while building Newton's message, not NewtonNonConvergence
        with pytest.raises(ValueError, match="abs_tol") as err:
            NewtonConfig(abs_tol=tol)
        if isinstance(tol, Fraction):
            assert str(err.value) == (
                "NewtonConfig.abs_tol must be an integer or float, got object values"
            )

    @pytest.mark.parametrize("max_iter", [0, -1, 2.5, 3.0, True, "50", None])
    def test_bad_iteration_budget_is_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            NewtonConfig(max_iter=max_iter)

    def test_boundary_values_are_accepted(self):
        # stored as a Python float and int, so Newton compares no numpy scalars per iterate
        for config in (
            NewtonConfig(abs_tol=0.0, max_iter=1),
            NewtonConfig(abs_tol=1, max_iter=np.int64(3)),
            NewtonConfig(abs_tol=np.float32(1e-6)),
        ):
            assert type(config.abs_tol) is float and type(config.max_iter) is int
        assert NewtonConfig(abs_tol=np.float32(1e-6)).abs_tol == float(np.float32(1e-6))
        assert NewtonConfig(max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize("config", [None, {}, 0.5], ids=["none", "dict", "float"])
    def test_solve_refuses_settings_that_are_not_a_config(self, config):
        # a TypeError naming the value, before the first residual call, where a missing
        # abs_tol attribute would surface only after one
        calls = []

        def residual(x):
            calls.append(x)
            return x

        with pytest.raises(TypeError) as err:
            newton_solve(residual, [0.0], config)
        assert str(err.value) == f"config must be a geodesy.NewtonConfig, got {config!r}"
        assert calls == []
