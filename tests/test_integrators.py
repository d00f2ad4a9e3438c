"""Tests for the element integrators, baselines, and the integrate driver."""

import dataclasses
import functools
import math
import re
import sys
import types
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geodesy.integrators
from geodesy import (
    ButcherTableau,
    Cochain,
    CochainKind,
    DomainError,
    ElementGrid,
    EvaluationError,
    ElementSolution,
    GeodesyError,
    IntegrationError,
    Method,
    NewtonConfig,
    OdeSystem,
    SeparablePartition,
    Trajectory,
    canonical_hodge_1to0,
    default_qrhs,
    explicit_euler_step,
    galerkin_mass_dual,
    galerkin_pairing,
    gauss_rule,
    get_problem,
    hamiltonian_vector_field,
    integrate,
    make_circle,
    mci_residual,
    mci_step,
    mgi_residual,
    mgi_step,
    nodal_eval_all,
    pointwise,
    problem_names,
    reduce0,
    reduce1,
    rk4_step,
    sample_trajectory,
    symplectic_euler_step,
)
from geodesy.basis import NodalBasis, legendre_eval, nodal_deriv_all
from geodesy.errors import NewtonNonConvergence
from geodesy.newton import NewtonResult, _forward_differences, newton_solve
from helpers import canonical_form, column_forward_difference, einsum_field_block, step_tangent

TIGHT = NewtonConfig(abs_tol=1e-13)


def midpoint_circle_step(y, dt):
    # Closed-form implicit midpoint map for y' = (y2, -y1):
    #   p+ = (p (4 - dt^2) + 4 dt q) / (4 + dt^2)
    #   q+ = (q (4 - dt^2) - 4 dt p) / (4 + dt^2)
    p, q = y
    den = 4.0 + dt * dt
    return np.array(
        [
            (p * (4.0 - dt * dt) + 4.0 * dt * q) / den,
            (q * (4.0 - dt * dt) - 4.0 * dt * p) / den,
        ]
    )


def make_quartic_oscillator():
    # H = (p^4 + q^4) / 4 with state (p, q); field is the canonical flow.
    # The callables are written for one state, so pointwise lifts them.
    return pointwise(
        OdeSystem(
            dim=2,
            field=lambda y: np.array([-y[1] ** 3, y[0] ** 3]),
            jacobian=lambda y: np.array([[0.0, -3.0 * y[1] ** 2], [3.0 * y[0] ** 2, 0.0]]),
            invariants=(("H", lambda y: 0.25 * (y[0] ** 4 + y[1] ** 4)),),
        )
    )


def quartic_energy(y):
    return 0.25 * (y[0] ** 4 + y[1] ** 4)


def polynomial_hamiltonian(c):
    # H(p, q) = sum c[i, j] p^i q^j with state (p, q) and the canonical flow
    # (-dH/dq, dH/dp); the callables take one state or a (2, n) block
    P = np.polynomial.polynomial
    Hp, Hq = P.polyder(c, axis=0), P.polyder(c, axis=1)
    Hpp, Hpq, Hqq = P.polyder(Hp, axis=0), P.polyder(Hp, axis=1), P.polyder(Hq, axis=1)

    def field(y):
        return np.array([-P.polyval2d(y[0], y[1], Hq), P.polyval2d(y[0], y[1], Hp)])

    def jacobian(y):
        a, b, d = (P.polyval2d(y[0], y[1], x) for x in (Hpp, Hpq, Hqq))
        return np.stack([np.stack([-b, -d], -1), np.stack([a, b], -1)], -2)

    return OdeSystem(dim=2, field=field, jacobian=jacobian), lambda y: P.polyval2d(y[0], y[1], c)


class TestMciStep:
    def test_p1_equals_implicit_midpoint(self):
        circle = make_circle()
        for dt in (0.1, 0.5, 1.0):
            y = np.array([2.0, 0.0])
            t = 0.0
            for _ in range(10):
                got = mci_step(circle.system, y, t, dt, 1, config=TIGHT).endpoint()
                want = midpoint_circle_step(y, dt)
                npt.assert_allclose(got, want, rtol=0.0, atol=1e-13)
                y = got
                t += dt

    def test_circle_radius_preserved_single_step(self):
        circle = make_circle()
        sol = mci_step(circle.system, circle.y0, 0.0, 1.0, 2, config=TIGHT)
        y1 = sol.endpoint()
        assert abs(y1 @ y1 - circle.y0 @ circle.y0) <= 1e-12

    def test_linear_field_converges_in_one_iteration(self):
        circle = make_circle()
        sol = mci_step(circle.system, circle.y0, 0.0, 0.5, 3)
        assert sol.newton_iterations == 1

    def test_solution_stores_initial_condition_exactly(self):
        pend = get_problem("pendulum")
        sol = mci_step(pend.system, pend.y0, 0.0, 0.4, 3)
        # column 0 is the initial condition, bitwise, and the record spans the step
        assert np.array_equal(sol.coefficients[:, 0], pend.y0)
        npt.assert_array_equal(sol.endpoint(), sol.coefficients[:, -1])
        assert (sol.t_start, sol.t_end) == (0.0, 0.4)
        assert not sol.coefficients.flags.writeable
        assert not hasattr(sol, "grid") and not hasattr(sol, "evaluate_time")

    def test_constant_field_yields_linear_solution(self):
        const = pointwise(OdeSystem(dim=2, field=lambda y: np.array([1.5, -0.5])))
        y0 = np.array([1.0, 2.0])
        sol = mci_step(const, y0, 0.0, 0.8, 3)
        res = mci_residual(const, sol)
        assert np.max(np.abs(res)) <= 1e-13
        # y(t) = y0 + c t at every node of the element
        grid = ElementGrid(3, sol.t_start, sol.t_end)
        nodes_t = grid.to_time(grid.primal.nodes)
        want = y0[:, None] + np.array([1.5, -0.5])[:, None] * nodes_t[None, :]
        npt.assert_allclose(sol.coefficients, want, rtol=0.0, atol=1e-13)

    def test_negative_dt_reverses_the_step(self):
        pend = get_problem("pendulum")
        fwd = mci_step(pend.system, pend.y0, 0.0, 0.4, 2, config=TIGHT).endpoint()
        sol = mci_step(pend.system, fwd, 0.4, -0.4, 2, config=TIGHT)
        npt.assert_allclose(sol.endpoint(), pend.y0, rtol=0.0, atol=1e-11)
        # the reversed element's record runs backward from its initial condition
        assert sol.t_start == 0.4 and sol.t_end == 0.4 + -0.4 < sol.t_start
        assert np.array_equal(sol.coefficients[:, 0], fwd)
        npt.assert_array_equal(sol.endpoint(), sol.coefficients[:, -1])

    def test_preserves_random_quadratic_invariants(self):
        # I(y) = y^T C y is conserved whenever y^T C h(y) = 0 everywhere.
        # Such pairs come from any SPD C and skew S via h(y) = inv(C) S y.
        rng = np.random.default_rng(1234)
        for p in (1, 2, 3, 4):
            B = rng.standard_normal((4, 4))
            C = B.T @ B + 4.0 * np.eye(4)
            W = rng.standard_normal((4, 4))
            A = np.linalg.solve(C, W - W.T)
            sys = pointwise(
                OdeSystem(dim=4, field=lambda y, A=A: A @ y, jacobian=lambda y, A=A: A)
            )
            y = rng.standard_normal(4)
            i0 = y @ C @ y
            for k in range(50):
                y = mci_step(sys, y, 0.3 * k, 0.3, p, config=TIGHT).endpoint()
                assert abs(y @ C @ y - i0) <= 1e-11 * abs(i0)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(2, 4),
        p=st.integers(1, 12),
        dt=st.floats(0.02, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_preserves_random_quadratic_invariants_at_any_order(self, dim, p, dt, seed):
        # h(y) = g(y) inv(C) S y with SPD C, skew S and a scalar g > 0 still
        # has y^T C h(y) = 0: I(y) = y^T C y is an invariant of a nonlinear
        # flow, which collocation at the Gauss points keeps to rounding
        rng = np.random.default_rng(seed)
        B = rng.uniform(-0.5, 0.5, (dim, dim))
        C = B.T @ B + np.eye(dim)
        W = rng.uniform(-0.5, 0.5, (dim, dim))
        A = np.linalg.solve(C, W - W.T)

        def field(y):
            return (1.0 + 0.25 * np.sum(y * y, axis=0)) * (A @ y)

        def jacobian(y):
            g = np.asarray(1.0 + 0.25 * np.sum(y * y, axis=0))
            return g[..., None, None] * A + 0.5 * np.einsum("i...,k...->...ik", A @ y, y)

        sys = OdeSystem(dim=dim, field=field, jacobian=jacobian)
        y = rng.uniform(-0.5, 0.5, dim)
        i0 = y @ C @ y
        for k in range(3):
            y = mci_step(sys, y, k * dt, dt, p, config=TIGHT).endpoint()
            assert abs(y @ C @ y - i0) <= 1e-12 * i0


class TestResiduals:
    def test_mci_residual_vanishes_at_converged_solution(self):
        pend = get_problem("pendulum")
        sol = mci_step(pend.system, pend.y0, 0.0, 0.4, 3, config=TIGHT)
        res = mci_residual(pend.system, sol)
        assert np.max(np.abs(res)) <= 1e-12

    def test_mci_residual_detects_perturbation(self):
        pend = get_problem("pendulum")
        sol = mci_step(pend.system, pend.y0, 0.0, 0.4, 3, config=TIGHT)
        coeffs = sol.coefficients.copy()
        coeffs[0, 2] += 1e-3
        res = mci_residual(pend.system, ElementSolution(sol.t_start, sol.t_end, coeffs))
        assert np.max(np.abs(res)) > 1e-6

    def test_mgi_residual_vanishes_at_converged_solution(self):
        pend = get_problem("pendulum")
        sol = mgi_step(pend.system, pend.y0, 0.0, 0.4, 3, config=TIGHT)
        res = mgi_residual(pend.system, sol, default_qrhs(3))
        assert np.max(np.abs(res)) <= 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_mgi_residual_takes_mgi_steps_default_rule(self, p):
        # mgi_step defaults q_rhs, and mgi_residual on its result raised TypeError without one
        pend = get_problem("pendulum")
        sol = mgi_step(pend.system, pend.y0, 0.0, 0.1, p)
        npt.assert_array_equal(
            mgi_residual(pend.system, sol), mgi_residual(pend.system, sol, default_qrhs(p))
        )

    def test_mgi_residual_rejects_bad_quadrature_size(self):
        pend = get_problem("pendulum")
        sol = mgi_step(pend.system, pend.y0, 0.0, 0.4, 2)
        with pytest.raises(ValueError):
            mgi_residual(pend.system, sol, 0)

    @pytest.mark.parametrize("q_rhs", [0, -3, 65])
    def test_quadrature_size_is_checked_at_every_entry_point(self, q_rhs):
        # one message, naming q_rhs, below 1 and above the largest Gauss rule
        pend = get_problem("pendulum")
        sol = mgi_step(pend.system, pend.y0, 0.0, 0.4, 2)
        expected = rf"q_rhs must lie in \[1, 64\], got {q_rhs}"
        with pytest.raises(ValueError, match=expected):
            mgi_step(pend.system, pend.y0, 0.0, 0.4, 2, q_rhs=q_rhs)
        with pytest.raises(ValueError, match=expected):
            mgi_residual(pend.system, sol, q_rhs)
        with pytest.raises(ValueError, match=expected):
            integrate(pend.system, Method.MGI, pend.y0, 0.0, 0.8, 0.4, p=2, q_rhs=q_rhs)

    def test_quadrature_size_bounds_are_inclusive(self):
        pend = get_problem("pendulum")
        for q_rhs in (1, 64):
            sol = mgi_step(pend.system, pend.y0, 0.0, 0.1, 1, q_rhs=q_rhs)
            assert np.all(np.isfinite(mgi_residual(pend.system, sol, q_rhs)))

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_every_stored_element_is_a_record_the_residuals_accept(self, method):
        # element k of a trajectory, rebuilt from times[k], times[k+1] and
        # coefficients[k], is a solved element: its residual vanishes, the
        # short last step's included
        kep = get_problem("kepler")
        traj = integrate(kep.system, method, kep.y0, 0.3, 1.35, 0.1, p=3)
        assert traj.times[-1] - traj.times[-2] < 0.1
        for k in range(traj.steps):
            sol = ElementSolution(traj.times[k], traj.times[k + 1], traj.coefficients[k])
            if method is Method.MCI:
                res = mci_residual(kep.system, sol)
            else:
                res = mgi_residual(kep.system, sol, default_qrhs(3))
            assert np.max(np.abs(res)) <= 1e-12

    @pytest.mark.parametrize("step", [mci_step, mgi_step])
    @pytest.mark.parametrize("problem, analytic", [("kepler", True), ("lotka-volterra", False)])
    @pytest.mark.parametrize("dt", [0.1, -0.1])
    def test_public_residuals_are_the_steps_own(self, monkeypatch, step, problem, analytic, dt):
        # the residual a step hands to Newton, read at the stages it accepted,
        # is bitwise the public residual of the element it returned, with the
        # analytic Jacobian and without one
        spec = get_problem(problem)
        sys = spec.system if analytic else dataclasses.replace(spec.system, jacobian=None)
        sols = []
        ((residual, jacobian, _),) = _stage_callables(
            monkeypatch, lambda: sols.append(step(sys, spec.y0, 0.2, dt, 3))
        )
        assert (jacobian is not None) is analytic
        (sol,) = sols
        if step is mci_step:
            public = mci_residual(sys, sol)
        else:
            public = mgi_residual(sys, sol, default_qrhs(3))
        npt.assert_array_equal(residual(sol.coefficients[:, 1:].reshape(-1)), public)

    @pytest.mark.parametrize("shape", [(3, 3), (3,), (2, 1)])
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_mismatched_element_names_both_shapes(self, method, shape):
        # the record refuses values that make no element when it is built; the residual
        # checks a record's row count against the system, not reading the dimension from it
        pend = get_problem("pendulum")
        if len(shape) != 2 or shape[1] < 2:
            with pytest.raises(ValueError, match=re.escape(f"p >= 1, got {shape}")):
                ElementSolution(0.0, 0.1, np.zeros(shape))
            return
        sol = ElementSolution(0.0, 0.1, np.zeros(shape))
        expected = (
            rf"element coefficients must have shape \(2, p\+1\) with p >= 1 for this system,"
            rf" got {re.escape(str(shape))}"
        )
        with pytest.raises(ValueError, match=expected):
            if method is Method.MCI:
                mci_residual(pend.system, sol)
            else:
                mgi_residual(pend.system, sol, None)

    @pytest.mark.parametrize("shape", [(3,), (2, 1), (2, 2, 2)])
    def test_record_refuses_values_that_make_no_element(self, shape):
        # the record owns the values rule, 2-d with p + 1 >= 2 columns, and applies it after
        # its bounds, so endpoint() never meets values it cannot read
        with pytest.raises(ValueError) as err:
            ElementSolution(0.0, 1.0, np.ones(shape))
        assert str(err.value) == (
            f"element coefficients must have shape (dim, p+1) with p >= 1, got {shape}"
        )
        with pytest.raises(ValueError, match="^element must have nonzero extent"):
            ElementSolution(1.0, 1.0, np.ones(shape))

    @pytest.mark.parametrize("iterations", [None, "x", 1.5, -3, True, np.float64(2.0)])
    def test_newton_iterations_must_be_a_count(self, iterations):
        # each was stored as given
        with pytest.raises(ValueError) as err:
            ElementSolution(0.0, 1.0, np.ones((2, 3)), iterations)
        assert str(err.value) == f"newton_iterations must be an integer >= 0, got {iterations!r}"

    def test_newton_iterations_are_stored_as_an_int(self):
        sol = ElementSolution(0.0, 1.0, np.ones((2, 3)), np.int64(4))
        assert sol.newton_iterations == 4 and type(sol.newton_iterations) is int
        assert type(ElementSolution(0.0, 1.0, np.ones((2, 3))).newton_iterations) is int
        pend = get_problem("pendulum")
        assert type(mci_step(pend.system, pend.y0, 0.0, 0.1, 2).newton_iterations) is int

    def test_residual_rows_are_variable_major(self):
        # With a constant field (0, 1000) and the constant-in-time candidate,
        # the rate term vanishes, so the residual is -field per stage:
        # rows 0..p-1 belong to variable one, rows p.. to variable two.
        sys = pointwise(OdeSystem(dim=2, field=lambda y: np.array([0.0, 1000.0])))
        p = 3
        coeffs = np.tile(np.array([[1.0], [2.0]]), (1, p + 1))
        res = mci_residual(sys, ElementSolution(0.0, 0.5, coeffs))
        npt.assert_array_equal(res[:p], 0.0)
        npt.assert_array_equal(res[p:], -1000.0)


def _driver_step(sys, method, y0, t0, dt, p, previous, q_rhs=None):
    # one element solved as integrate solves it, started from previous: its (dim, p+1) nodal
    # values, y0 then Newton's stages, and Newton's iterations
    rec = geodesy.integrators._pairing(method, p, q_rhs)
    *_, solve = geodesy.integrators._element_callables(sys, rec)
    result = solve(y0, t0, dt, NewtonConfig(), previous)
    stages = result.x.reshape(sys.dim, p)
    return np.concatenate((np.asarray(y0, dtype=float)[:, None], stages), axis=1), result.iterations


def _first_bad_node(grid, Yq, nodes, failing):
    # the per-node reference: scan the quadrature nodes in order
    for n in range(Yq.shape[1]):
        if failing(Yq[:, n]):
            return n, f"quadrature node {n} (t={grid.to_time(nodes[n]):g})"
    raise AssertionError("no node fails")


class TestBlockEvaluation:
    def test_domain_error_names_first_bad_quadrature_node(self):
        # y1 dips below zero inside the element, over more than one dual node
        lv = get_problem("lotka-volterra").system
        p = 3
        grid = ElementGrid(p, 2.0, 2.6)
        coeffs = np.array([[1.0, 0.2, -0.6, -0.5], [1.0, 1.0, 1.0, 1.0]])
        nodes = grid.dual.nodes
        Yq = coeffs @ nodal_eval_all(grid.primal_basis, nodes).T
        bad = [n for n in range(p) if lv.check_domain(Yq[:, n]) is not None]
        assert len(bad) >= 2 and bad[0] > 0
        n, where = _first_bad_node(grid, Yq, nodes, lambda y: lv.check_domain(y) is not None)
        expected = f"state leaves the domain at {where}: {lv.check_domain(Yq[:, n])}"
        with pytest.raises(DomainError) as info:
            mci_residual(lv, ElementSolution(2.0, 2.6, coeffs))
        assert str(info.value) == expected
        assert expected.startswith("state leaves the domain at quadrature node 1 (t=2.")

    def test_nonfinite_field_names_its_quadrature_node(self):
        # the field is NaN wherever the first component exceeds 1.5
        sys = OdeSystem(dim=2, field=lambda y: np.where(y[0] > 1.5, np.nan, -y))
        p, q_rhs = 2, 7
        grid = ElementGrid(p, 0.0, 0.5)
        coeffs = np.array([[1.0, 1.5, 2.0], [0.0, 0.0, 0.0]])
        rec = geodesy.integrators._pairing(Method.MGI, p, q_rhs)
        Yq = (coeffs @ rec.LE)[:, :q_rhs]
        n, where = _first_bad_node(grid, Yq, rec.nodes, lambda y: y[0] > 1.5)
        assert 0 < n < q_rhs - 1
        with pytest.raises(EvaluationError) as info:
            mgi_residual(sys, ElementSolution(0.0, 0.5, coeffs), q_rhs)
        assert str(info.value) == f"vector field is non-finite at {where}"

    def test_one_state_field_fails_early(self):
        const = OdeSystem(dim=2, field=lambda y: np.array([1.5, -0.5]))
        hint = "wrap a callable written for one state with geodesy.systems.pointwise"
        with pytest.raises(ValueError) as err:
            mci_step(const, np.array([1.0, 2.0]), 0.0, 0.8, 3)
        assert str(err.value) == f"vector field returned shape (2,), expected (2, 3); {hint}"
        with pytest.raises(IntegrationError, match="^step 0 starting at t=0 failed: ") as err:
            integrate(const, Method.MGI, np.array([1.0, 2.0]), 0.0, 0.8, 0.4, p=1)
        assert isinstance(err.value.__cause__, EvaluationError)
        assert str(err.value.__cause__) == (
            f"vector field returned shape (2,), expected (2, 12); {hint}"
        )

    def test_one_state_jacobian_fails_early(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = OdeSystem(dim=2, field=lambda y: A @ y, jacobian=lambda y: A)
        with pytest.raises(ValueError) as err:
            mci_step(sys, np.array([1.0, 0.0]), 0.0, 0.5, 2)
        assert str(err.value) == (
            "jacobian returned shape (2, 2), expected (2, 2, 2); "
            "wrap a callable written for one state with geodesy.systems.pointwise"
        )
        sol = mci_step(pointwise(sys), np.array([1.0, 0.0]), 0.0, 0.5, 2)
        assert sol.newton_iterations == 1


class TestMgiStep:
    def test_p1_matches_average_vector_field_map(self):
        # For p = 1 the method reduces to y1 = y0 + dt * avg field along the
        # chord, so a fixed-point solve of that map is an independent oracle.
        pend = get_problem("pendulum")
        dt = 0.2
        xg, wg = np.polynomial.legendre.leggauss(30)
        s01 = 0.5 * (xg + 1.0)
        w01 = 0.5 * wg

        y1 = pend.y0.copy()
        for _ in range(300):
            acc = np.zeros(2)
            for s, w in zip(s01, w01):
                acc += w * pend.system.field((1.0 - s) * pend.y0 + s * y1)
            y_next = pend.y0 + dt * acc
            if np.max(np.abs(y_next - y1)) < 1e-15:
                y1 = y_next
                break
            y1 = y_next

        got = mgi_step(
            pend.system, pend.y0, 0.0, dt, 1, q_rhs=30, config=NewtonConfig(abs_tol=1e-14)
        ).endpoint()
        npt.assert_allclose(got, y1, rtol=0.0, atol=1e-11)

    def test_p1_is_the_average_vector_field_method_not_the_midpoint_rule(self):
        # at p = 1 and the default q_rhs, mgi solves the AVF equation
        # y1 - y0 = dt int_0^1 h(y0 + s (y1 - y0)) ds; with q_rhs = 1 it reads the
        # field at the chord's midpoint only, and solves the MCI equations: the
        # implicit midpoint rule
        pend = get_problem("pendulum")
        y0, dt = pend.y0, 0.4
        avf = mgi_step(pend.system, y0, 0.0, dt, 1).endpoint()
        midpoint = mci_step(pend.system, y0, 0.0, dt, 1).endpoint()
        assert np.max(np.abs(avf - midpoint)) > 1e-2
        x, w = np.polynomial.legendre.leggauss(40)
        chord = y0[:, None] + (avf - y0)[:, None] * (0.5 * (x + 1.0))
        defect = (avf - y0) / dt - pend.system.field(chord) @ (0.5 * w)
        assert np.max(np.abs(defect)) <= 1e-14
        one_point = mgi_step(pend.system, y0, 0.0, dt, 1, q_rhs=1).endpoint()
        assert np.max(np.abs(one_point - midpoint)) <= 1e-15

    def test_energy_exact_for_polynomial_hamiltonian(self):
        sys = make_quartic_oscillator()
        y = np.array([1.0, 0.5])
        h0 = quartic_energy(y)
        for k in range(10):
            y = mgi_step(sys, y, 0.2 * k, 0.2, 2, config=TIGHT).endpoint()
            assert abs(quartic_energy(y) - h0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        degree=st.integers(2, 6),
        p=st.integers(1, 4),
        dt=st.floats(0.01, 0.05),
        y0=st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2),
        data=st.data(),
    )
    def test_energy_exact_for_random_polynomial_hamiltonians(self, degree, p, dt, y0, data):
        # the Galerkin pairing of a degree-d Hamiltonian's field with the dual
        # basis has degree d p - 1, which ceil(d p / 2) Gauss points integrate
        # exactly; the states stay small enough that no flow blows up
        terms = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(terms), max_size=len(terms)))
        c = np.zeros((degree + 1, degree + 1))
        for (i, j), v in zip(terms, values):
            c[i, j] = v
        sys, energy = polynomial_hamiltonian(c)
        q_rhs = (degree * p + 1) // 2
        y = np.array(y0)
        h0 = energy(y)
        for k in range(3):
            y = mgi_step(sys, y, k * dt, dt, p, q_rhs=q_rhs).endpoint()
            assert abs(energy(y) - h0) <= 1e-12 * max(1.0, abs(h0))

    def test_underresolved_quadrature_loses_exactness(self):
        # q_rhs = 2 cannot integrate the degree-7 pairing, so the energy
        # error reappears at the truncation level.
        sys = make_quartic_oscillator()
        y = np.array([1.0, 0.5])
        h0 = quartic_energy(y)
        drift = 0.0
        for k in range(10):
            y = mgi_step(sys, y, 0.2 * k, 0.2, 2, q_rhs=2, config=TIGHT).endpoint()
            drift = max(drift, abs(quartic_energy(y) - h0))
        assert drift > 1e-7

    @pytest.mark.parametrize("q_rhs, conserved", [(14, False), (18, True), (24, True)])
    def test_kepler_energy_is_conserved_up_to_quadrature(self, q_rhs, conserved):
        # Kepler's orbit from its y0 (e = 0.6): 1/r makes the pairing no polynomial, so the
        # energy error is the quadrature's alone, 1.2e-13 over 200 steps at p = 2's default
        # q_rhs = 14, which falls to round-off at 18 and 24 points
        kep = get_problem("kepler")
        dt = 2.0 * np.pi / 16
        traj = integrate(kep.system, Method.MGI, kep.y0, 0.0, 200 * dt, dt, p=2, q_rhs=q_rhs)
        H = traj.invariants["H"]
        assert (np.max(np.abs(H - H[0])) < 1e-14) == conserved

    def test_quadrature_at_dual_nodes_collapses_to_collocation(self):
        # With q_rhs = p the pairing is sampled exactly at the dual nodes,
        # so the two methods solve the same equations.
        pend = get_problem("pendulum")
        for p in (1, 2, 3):
            a = mci_step(pend.system, pend.y0, 0.0, 0.4, p, config=TIGHT).endpoint()
            b = mgi_step(
                pend.system, pend.y0, 0.0, 0.4, p, q_rhs=p, config=TIGHT
            ).endpoint()
            npt.assert_allclose(a, b, rtol=0.0, atol=1e-11)

    def test_differs_from_collocation_on_nonlinear_problems(self):
        pend = get_problem("pendulum")
        a = mci_step(pend.system, pend.y0, 0.0, 0.4, 2, config=TIGHT).endpoint()
        b = mgi_step(pend.system, pend.y0, 0.0, 0.4, 2, config=TIGHT).endpoint()
        assert np.max(np.abs(a - b)) > 1e-6

    def test_negative_dt_reverses_the_step(self):
        pend = get_problem("pendulum")
        fwd = mgi_step(pend.system, pend.y0, 0.0, 0.4, 2, config=TIGHT).endpoint()
        back = mgi_step(pend.system, fwd, 0.4, -0.4, 2, config=TIGHT).endpoint()
        npt.assert_allclose(back, pend.y0, rtol=0.0, atol=1e-11)

    def test_default_quadrature_size(self):
        # 2p + 10 through p = 27, where it reaches 64, then the largest rule
        want = [2 * p + 10 for p in range(1, 28)] + [64] * 37
        assert [default_qrhs(p) for p in range(1, 65)] == want

    def test_default_quadrature_size_is_a_python_int(self):
        # np.int64(3) gave np.int64(16)
        assert type(default_qrhs(np.int64(3))) is int
        assert default_qrhs(np.int64(3)) == 16

    @pytest.mark.parametrize(
        "p, error", [(2.5, TypeError), (True, TypeError), (0, ValueError), (65, ValueError)]
    )
    def test_default_quadrature_size_takes_an_order(self, p, error):
        # the order rule of every entry point: 2.5 gave 15.0 and True gave 12
        with pytest.raises(error, match="^order p must"):
            default_qrhs(p)

    @pytest.mark.parametrize("p", [28, 64])
    def test_above_order_27_the_default_is_the_largest_rule(self, p):
        # the default 64 points bit for bit at every entry point, while an explicit q_rhs
        # keeps the order rule
        pend = get_problem("pendulum")
        sys, y0 = pend.system, pend.y0
        sol, sol64 = (mgi_step(sys, y0, 0.0, 0.1, p, q_rhs=q) for q in (None, 64))
        npt.assert_array_equal(sol.coefficients, sol64.coefficients)
        assert sol.newton_iterations == sol64.newton_iterations
        npt.assert_array_equal(mgi_residual(sys, sol), mgi_residual(sys, sol, 64))
        traj, traj64 = (
            integrate(sys, Method.MGI, y0, 0.0, 0.2, 0.1, p=p, q_rhs=q) for q in (None, 64)
        )
        npt.assert_array_equal(traj.coefficients, traj64.coefficients)
        npt.assert_array_equal(traj.coefficients[0], sol.coefficients)
        calls = [
            lambda: integrate(sys, Method.MGI, y0, 0.0, 0.2, 0.1, p=p, q_rhs=65),
            lambda: mgi_step(sys, y0, 0.0, 0.1, p, q_rhs=65),
            lambda: mgi_residual(sys, sol, 65),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^q_rhs must lie in \[1, 64\], got 65$"):
                call()


def circle_pade_map(p, dt):
    """(alpha, beta) of the exact step map R = alpha I + beta A of order-2p Gauss collocation.

    On the circle y' = Ay, A = [[0, 1], [-1, 0]], so A^2 = -I and the (p, p) Pade numerator
    N(hA) = sum c_k (hA)^k, c_k = (2p - k)! p! / ((2p)! k! (p - k)!), is aI + bA. Then
    R = N(hA) N(-hA)^-1 = ((a^2 - b^2) I + 2ab A) / (a^2 + b^2), in fractions over h = dt.
    """
    h, f = Fraction(dt), math.factorial
    ab = [Fraction(0), Fraction(0)]
    for k in range(p + 1):
        c = Fraction(f(2 * p - k) * f(p), f(2 * p) * f(k) * f(p - k))
        ab[k % 2] += c * h**k * (-1) ** (k // 2)  # A^k = (-1)^(k // 2) A^(k % 2)
    a, b = ab
    return (a * a - b * b) / (a * a + b * b), 2 * a * b / (a * a + b * b)


class TestExactStepMap:
    # on the linear circle MCI is Gauss collocation and MGI, whose rule integrates the field
    # exactly, equals it: one step is the diagonal Pade map, exact in fractions over the
    # doubles of y0. The error bound is fixed in units of eps max|R y0|: over 200 states the
    # worst reads are 3.1 up to p = 8, 3.5 at p = 16 and 4.1 at p = 32, all MGI, where the float
    # edge table read 4.4 (p = 8) and 12.4 (p = 32)
    @pytest.mark.parametrize("p", [*range(1, 9), 16, 32])
    @pytest.mark.parametrize("method", ["mci", "mgi"])
    def test_one_step_is_the_pade_map_to_a_few_ulps(self, method, p):
        dt = 1.0 if p <= 8 else p / 8
        bound = 6 if p <= 16 else 8
        alpha, beta = circle_pade_map(p, dt)
        rng = np.random.default_rng(29)
        radius, theta = rng.uniform(0.5, 2.0, 8), rng.uniform(0.0, 2.0 * math.pi, 8)
        circle = get_problem("circle").system
        for y0 in np.stack((radius * np.cos(theta), radius * np.sin(theta)), axis=1):
            if method == "mci":
                sol = mci_step(circle, y0, 0.0, dt, p)
            else:
                sol = mgi_step(circle, y0, 0.0, dt, p, q_rhs=default_qrhs(p))
            u, v = map(Fraction, y0.tolist())
            want = (alpha * u + beta * v, alpha * v - beta * u)
            error = max(abs(Fraction(y) - w) for y, w in zip(sol.endpoint().tolist(), want))
            ulps = error / (Fraction(np.finfo(float).eps) * max(map(abs, want)))
            assert ulps <= bound, f"y0={y0.tolist()}: {float(ulps):.2f} eps max|R y0|"


class TestNoEnergyDrift:
    # the circle conserves H exactly in exact arithmetic under both methods. With the float edge
    # table, whose errors move H one way on every step, 2000 steps at dt = 1 lost 4.7e-13 (p = 4)
    # to 1.6e-12 (p = 8); with the correctly rounded table H stays at rounding, 6.2e-15 to 2.3e-14
    @pytest.mark.parametrize("p", [4, 8])
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_circle_energy_stays_at_rounding_over_2000_steps(self, method, p):
        traj = integrate(get_problem("circle").system, method, [2.0, 0.0], 0.0, 2000.0, 1.0, p=p)
        H = traj.invariants["H"]
        assert np.max(np.abs(H - H[0])) <= 5e-14


def _replace_newton(monkeypatch, solve):
    # the element step's Newton entry, replaced by solve(residual, x0, config, jacobian=None)
    # or by None where it is never reached; returns the entry it replaced
    entry = geodesy.integrators.newton_solve
    monkeypatch.setattr(geodesy.integrators, "newton_solve", solve)
    return entry


def _stage_callables(monkeypatch, step=None, wrap=None):
    # the (residual, jacobian, x0) the element steps hand to newton_solve, one per solve, x0
    # copied as it came; the solve still runs, on wrap(residual) when wrap is given. The list
    # fills as steps run: step() first when given
    seen = []

    def spy(residual, x0, config, jacobian=None):
        seen.append((residual, jacobian, x0.copy()))
        return solve(residual if wrap is None else wrap(residual), x0, config, jacobian=jacobian)

    solve = _replace_newton(monkeypatch, spy)
    if step is not None:
        step()
    return seen


class TestStageJacobian:
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("dt", [0.05, -0.05])
    def test_matches_forward_difference_of_residual(self, monkeypatch, method, p, dt):
        kep = get_problem("kepler")
        assert kep.system.dim == 4
        if method is Method.MCI:
            step = lambda: mci_step(kep.system, kep.y0, 1.0, dt, p)
        else:
            step = lambda: mgi_step(kep.system, kep.y0, 1.0, dt, p)
        ((residual, jacobian, x0),) = _stage_callables(monkeypatch, step)
        # a generic stage vector: the initial guess moved off the constant state
        z = x0 + 0.05 * np.random.default_rng(p).standard_normal(len(x0))
        J = jacobian(z)
        assert J.shape == (4 * p, 4 * p)
        J_fd = column_forward_difference(residual, z, fd_step=1e-8)
        assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J))

    @pytest.mark.parametrize("step", [mci_step, mgi_step])
    @pytest.mark.parametrize("p", [1, 3])
    def test_jacobian_reuses_only_the_residuals_own_iterate(self, monkeypatch, step, p):
        # the Jacobian takes the quadrature states of the residual's last
        # iterate only when called on that very array; elsewhere it writes
        # its own stages, so every route gives the same bits
        kep = get_problem("kepler")
        callables = []

        def unsolved(residual, x0, config, jacobian=None):
            callables.append((residual, jacobian))
            return NewtonResult(x0, 0, 0.0)

        _replace_newton(monkeypatch, unsolved)
        for _ in range(3):
            step(kep.system, kep.y0, 1.0, 0.05, p)
        (_, fresh_jacobian), (residual, jacobian), (other_residual, other_jacobian) = callables
        rng = np.random.default_rng(p)
        z = np.repeat(kep.y0, p) + 0.05 * rng.standard_normal(4 * p)
        elsewhere = z + 0.01 * rng.standard_normal(4 * p)
        want = fresh_jacobian(z)  # no residual call before it

        residual(elsewhere)
        npt.assert_array_equal(jacobian(z), want)
        npt.assert_array_equal(jacobian(z), want)  # now held: reused
        r = other_residual(z)
        npt.assert_array_equal(other_jacobian(z), want)  # the residual's own iterate
        npt.assert_array_equal(other_jacobian(z.copy()), want)  # equal values, another array
        npt.assert_array_equal(other_residual(z), r)

    @pytest.mark.parametrize("step", [mci_step, mgi_step])
    def test_system_without_jacobian_uses_forward_differences(self, monkeypatch, step):
        lv = get_problem("lotka-volterra")
        fd_system = dataclasses.replace(lv.system, jacobian=None)
        ((_, jacobian, x0),) = _stage_callables(
            monkeypatch, lambda: step(fd_system, lv.y0, 0.0, 0.3, 3)
        )
        assert jacobian is None
        npt.assert_array_equal(x0, np.repeat(lv.y0, 3))
        monkeypatch.undo()
        fd = step(fd_system, lv.y0, 0.0, 0.3, 3)
        analytic = step(lv.system, lv.y0, 0.0, 0.3, 3)
        npt.assert_allclose(fd.coefficients, analytic.coefficients, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("method, q_rhs", [("mci", "p"), ("mgi", "p"), ("mgi", "2p+10")])
    def test_field_term_matches_the_einsum_formula(self, monkeypatch, method, q_rhs, p, M):
        # random field Jacobians at the quadrature nodes; the step's Jacobian
        # is taken unsolved, so any Jh will do
        q = p if q_rhs == "p" else default_qrhs(p)
        galerkin = method == "mgi"
        Jh = np.random.default_rng(10 * p + M).standard_normal((q, M, M))
        sys = OdeSystem(dim=M, field=lambda y: np.zeros_like(y), jacobian=lambda y: Jh)
        jacobians = []

        def unsolved(residual, x0, config, jacobian=None):
            jacobians.append(jacobian)
            return NewtonResult(x0, 0, 0.0)

        _replace_newton(monkeypatch, unsolved)
        dt = 0.5  # sqrt(g) = 0.25, exactly
        if galerkin:
            mgi_step(sys, np.zeros(M), 0.0, dt, p, q_rhs=q)
        else:
            mci_step(sys, np.zeros(M), 0.0, dt, p)
        (jacobian,) = jacobians
        J = jacobian(np.random.default_rng(p).standard_normal(M * p))
        rec = geodesy.integrators._pairing(Method(method), p, q if galerkin else None)
        assert (rec.P is not None) is galerkin and len(rec.nodes) == q
        rate = np.kron(np.eye(M), rec.rate) / (0.5 * dt)  # one p x p block per variable
        scaled_pairing = np.eye(p) if rec.P is None else rec.P.T  # s_m B[m, nu]
        want = rate - einsum_field_block(Jh, scaled_pairing, rec.LE[:, :q])
        if galerkin:
            assert np.max(np.abs(J - want)) <= 4 * np.spacing(np.max(np.abs(want)))
        else:
            npt.assert_array_equal(J, want)

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 16, 64])
    def test_collocation_pairing_is_exactly_the_identity(self, p):
        # the collocation residual skips the pairing product; the Galerkin
        # pairing on the p dual nodes shows that s B is exactly I there: its
        # row-scaled table P = (s B)^T is the diagonal of the dual weights s = w
        assert geodesy.integrators._pairing(Method.MCI, p, None).P is None
        rec = geodesy.integrators._pairing(Method.MGI, p, p)
        npt.assert_array_equal(rec.P, np.diag(ElementGrid(p).dual.weights))

    @pytest.mark.parametrize("name", ["pendulum", "kepler", "lotka-volterra"])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_galerkin_on_dual_nodes_equals_collocation(self, name, p):
        # q_rhs = p puts the Galerkin quadrature on the dual nodes, where the
        # pairing matrix is the identity: only the row scale differs.
        prob = get_problem(name)
        a = mci_step(prob.system, prob.y0, 0.0, 0.1, p)
        b = mgi_step(prob.system, prob.y0, 0.0, 0.1, p, q_rhs=p)
        npt.assert_allclose(b.coefficients, a.coefficients, rtol=0.0, atol=1e-13)
        assert b.newton_iterations == a.newton_iterations


def _public_newton_calls(run):
    # calls of the public newton_solve while run() runs, by its code object, so a call
    # through any name or import counts
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is newton_solve.__code__:
            calls["newton_solve"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


class TestNewtonEntry:
    # the step path enters the Newton core, past the public boundary's checks, which its own
    # callables need not pass; the public newton_solve gives the same solve bitwise

    @pytest.mark.parametrize(
        "name, method, p, analytic",
        [("pendulum", Method.MCI, 2, True), ("kepler", Method.MGI, 4, True),
         ("lotka-volterra", Method.MCI, 3, False)],
    )
    def test_integrate_makes_no_public_newton_call(self, monkeypatch, name, method, p, analytic):
        spec = get_problem(name)
        system = spec.system if analytic else dataclasses.replace(spec.system, jacobian=None)
        entries = []
        entry = geodesy.integrators.newton_solve

        def entered(residual, x0, config, jacobian=None):
            entries.append(jacobian is None)
            return entry(residual, x0, config, jacobian=jacobian)

        _replace_newton(monkeypatch, entered)
        by_name = []  # calls through the module's name, counted apart
        public = geodesy.newton.newton_solve

        def counted(*args, **kwargs):
            by_name.append(1)
            return public(*args, **kwargs)

        monkeypatch.setattr(geodesy.newton, "newton_solve", counted)
        traj, calls = _public_newton_calls(
            lambda: integrate(system, method, spec.y0, 0.0, 20 * spec.dt_ref, spec.dt_ref, p=p)
        )
        assert by_name == [] and calls == {}
        assert entries == [not analytic] * traj.steps

    @pytest.mark.parametrize("analytic", [True, False], ids=["jacobian", "differences"])
    @pytest.mark.parametrize("step", [mci_step, mgi_step])
    def test_the_public_solve_of_a_steps_callables_is_the_steps_solve(
        self, monkeypatch, step, analytic
    ):
        lv = get_problem("lotka-volterra")
        system = lv.system if analytic else dataclasses.replace(lv.system, jacobian=None)
        core, solved = geodesy.integrators.newton_solve, []

        def recorded(*args, **kwargs):
            solved.append(core(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(geodesy.integrators, "newton_solve", recorded)
        ((residual, jacobian, x0),) = _stage_callables(
            monkeypatch, lambda: step(system, lv.y0, 0.0, lv.dt_ref, 3)
        )
        assert (jacobian is not None) is analytic
        (want,) = solved
        got, calls = _public_newton_calls(lambda: newton_solve(residual, x0, jacobian=jacobian))
        assert calls == {"newton_solve": 1}  # whose differences run the core too
        assert want.iterations >= 1
        assert (got.iterations, got.residual_norm) == (want.iterations, want.residual_norm)
        assert got.x.tobytes() == want.x.tobytes()


class TestKernelProducts:
    # the kernel's 2-D products call ndarray.dot, which skips the matmul
    # ufunc's dispatch; every output stays bitwise only if the two agree

    @pytest.mark.parametrize("M", [1, 2, 4])
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_dot_equals_matmul_bitwise_on_every_record_shape(self, method, M):
        rng = np.random.default_rng(M)
        for p in range(1, 17):
            rec = geodesy.integrators._pairing(method, p, None)
            q = len(rec.nodes)
            for _ in range(3):
                coeffs = rng.standard_normal((M, p + 1))
                both = coeffs @ rec.LE
                assert coeffs.dot(rec.LE).tobytes() == both.tobytes()
                cob = both[:, q:]  # the residual's strided view of the coboundary
                assert cob.dot(rec.D).tobytes() == (cob @ rec.D).tobytes()
                if rec.P is not None:
                    h = rng.standard_normal((M, q))
                    assert h.dot(rec.P).tobytes() == (h @ rec.P).tobytes()
                Jh = rng.standard_normal((q, M, M)).reshape(q, M * M)
                assert rec.weights.dot(Jh).tobytes() == (rec.weights @ Jh).tobytes()
                assert coeffs.dot(rec.ahead).tobytes() == (coeffs @ rec.ahead).tobytes()

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("method, q_rhs", [(Method.MCI, None), (Method.MGI, None), (Method.MGI, "p+1")])
    def test_gathered_stage_jacobian_equals_the_transposed_assembly_bitwise(self, method, q_rhs, M):
        # the stage Jacobian reads W @ Jh through one cached index array, which
        # must put every entry where a reshape/transpose/reshape would
        rng = np.random.default_rng(M)
        for p in range(1, 17):
            rec = geodesy.integrators._pairing(method, p, None if q_rhs is None else p + 1)
            q = len(rec.nodes)
            Jh = rng.standard_normal((q, M, M))
            sys = OdeSystem(dim=M, field=lambda y: np.zeros_like(y), jacobian=lambda y, Jh=Jh: Jh)
            coeffs = rng.standard_normal((M, p + 1))
            bind, _, jacobian, _ = geodesy.integrators._element_callables(sys, rec)
            sqrt_g = 0.3
            bind(0.0, sqrt_g, coeffs[:, 0])
            rate = (np.eye(M)[:, None, :, None] * rec.rate[:, None, :]).reshape(M * p, M * p)
            field = rec.weights.dot(Jh.reshape(q, M * M)).reshape(p, p, M, M)
            want = rate / sqrt_g - field.transpose(2, 0, 3, 1).reshape(M * p, M * p)
            got = jacobian(coeffs[:, 1:].reshape(-1))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_forward_differences_of_the_element_residual(self, monkeypatch):
        # on a Lotka-Volterra MCI step without an analytic Jacobian, the difference core the
        # step runs: M p residual calls per Jacobian, and the column loop's bits
        lv = get_problem("lotka-volterra")
        fd_system = dataclasses.replace(lv.system, jacobian=None)
        p = 3
        ((residual, jacobian, x0),) = _stage_callables(
            monkeypatch, lambda: mci_step(fd_system, lv.y0, 0.0, 0.3, p)
        )
        assert jacobian is None
        calls = []

        def counted(z):
            calls.append(1)
            return residual(z)

        z = x0 + 0.05 * np.random.default_rng(3).standard_normal(len(x0))
        r0 = residual(z)
        J = _forward_differences(counted, z, r0)
        assert len(calls) == lv.system.dim * p
        assert J.shape == (lv.system.dim * p, lv.system.dim * p)
        npt.assert_array_equal(J, column_forward_difference(residual, z, r0))


class TestStepArguments:
    @pytest.mark.parametrize("step", [mci_step, mgi_step])
    @pytest.mark.parametrize(
        "y0, t0, dt, message",
        [
            ([0.5, 0.0], 0.0, np.nan, "dt must be finite, got nan"),
            ([0.5, 0.0], 0.0, np.inf, "dt must be finite, got inf"),
            ([0.5, 0.0], np.nan, 0.1, "t0 must be finite, got nan"),
            ([0.5, 0.0], -np.inf, 0.1, "t0 must be finite, got -inf"),
            ([np.inf, 0.0], 0.0, 0.1, "initial state must be finite, got [inf, 0.0]"),
            ([0.5, np.nan], 0.0, 0.1, "initial state must be finite, got [0.5, nan]"),
        ],
    )
    def test_nonfinite_argument_fails_before_the_solve(
        self, monkeypatch, step, y0, t0, dt, message
    ):
        # worded as integrate words it, not blamed on the field by Newton
        pend = get_problem("pendulum")
        _replace_newton(monkeypatch, None)  # never reached
        with pytest.raises(ValueError) as info:
            step(pend.system, y0, t0, dt, 2)
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("step", [explicit_euler_step, symplectic_euler_step, rk4_step])
    @pytest.mark.parametrize(
        "y0, t0, dt, message",
        [
            ([0.5, 1.0], np.nan, 0.1, "t0 must be finite, got nan"),
            ([0.5, 1.0], 0.0, np.inf, "dt must be finite, got inf"),
            ([0.5, 1.0], 0.0, -np.inf, "dt must be finite, got -inf"),
            ([0.5, 1.0], 0.0, np.nan, "dt must be finite, got nan"),
            ([0.5, 1.0, 0.0], 0.0, 0.1, "initial state must have shape (2,), got (3,)"),
            ([0.5], 0.0, 0.1, "initial state must have shape (2,), got (1,)"),
            ([0.5, np.inf], 0.0, 0.1, "initial state must be finite, got [0.5, inf]"),
        ],
        ids=["t0-nan", "dt-inf", "dt-minus-inf", "dt-nan", "y0-long", "y0-short", "y0-inf"],
    )
    def test_classical_step_refuses_a_bad_start_as_the_element_steps_do(
        self, monkeypatch, step, y0, t0, dt, message
    ):
        # the same ValueError as mci_step's, before the field is called
        pend = get_problem("pendulum")
        system, calls = _counting(pend.system)
        with pytest.raises(ValueError) as classical:
            step(system, y0, t0, dt)
        assert str(classical.value) == message
        assert calls == {"field": 0, "domain_check": 0}
        _replace_newton(monkeypatch, None)  # never reached
        with pytest.raises(ValueError) as element:
            mci_step(pend.system, y0, t0, dt, 2)
        assert str(element.value) == message

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.1 + 1j, "must be real, got complex128 values"),
            (np.complex128(0.1 + 1j), "must be real, got complex128 values"),
            ("0.1", "must be real, got <U3 values"),
            (None, "must be an integer or float, got object values"),
            ([0.1], "must be a real number, got shape (1,)"),
            (True, "must be a real number, got bool"),
            (np.bool_(False), "must be a real number, got bool"),
        ],
        ids=["complex", "complex128", "str", "None", "list", "bool", "numpy-bool"],
    )
    @pytest.mark.parametrize(
        "entry, name",
        [
            ("integrate", "t0"), ("integrate", "tf"), ("integrate", "dt"),
            ("mci_step", "t0"), ("mci_step", "dt"), ("mgi_step", "t0"), ("mgi_step", "dt"),
            ("explicit_euler_step", "t0"), ("explicit_euler_step", "dt"),
            ("symplectic_euler_step", "t0"), ("symplectic_euler_step", "dt"),
            ("rk4_step", "t0"), ("rk4_step", "dt"),
            ("ElementSolution", "t_start"), ("ElementSolution", "t_end"),
            ("ElementGrid.build", "t_start"), ("ElementGrid.build", "t_end"),
        ],
    )
    def test_a_time_that_is_no_real_number_is_refused_naming_it(self, entry, name, bad, message):
        # one conversion where a time enters, geodesy.basis._real_scalar: a numpy complex dt
        # ran 10 steps of 0.1 after a ComplexWarning, a Python complex dt gave mci_step the
        # t_end 0.1+5j or a raw TypeError naming no argument, and a string was parsed; a bool
        # is no time: mci_step(pend, y0, 0.0, True, 2) stepped to t_end 1.0
        pend = get_problem("pendulum")
        system, calls = _counting(pend.system)
        times = {"t0": 0.0, "tf": 1.0, "dt": 0.1, "t_start": 0.0, "t_end": 0.1, name: bad}
        t0, tf, dt, t_start, t_end = (times[k] for k in ("t0", "tf", "dt", "t_start", "t_end"))
        entries = {
            "mci_step": lambda: mci_step(system, pend.y0, t0, dt, 2),
            "mgi_step": lambda: mgi_step(system, pend.y0, t0, dt, 2),
            "explicit_euler_step": lambda: explicit_euler_step(system, pend.y0, t0, dt),
            "symplectic_euler_step": lambda: symplectic_euler_step(system, pend.y0, t0, dt),
            "rk4_step": lambda: rk4_step(system, pend.y0, t0, dt),
            "integrate": lambda: integrate(system, Method.MCI, pend.y0, t0, tf, dt),
            "ElementSolution": lambda: ElementSolution(t_start, t_end, np.ones((2, 3))),
            "ElementGrid.build": lambda: ElementGrid.build(2, t_start, t_end),
        }
        with pytest.raises(ValueError) as err:
            _no_warning(entries[entry])
        assert str(err.value) == f"{name} {message}"
        assert calls == {"field": 0, "domain_check": 0}

    def test_a_float32_start_time_steps_as_the_python_float(self):
        # t0 + dt was formed in float32: the element spanned [0, 0.10000000149], its values
        # differed from the float64 step's by 1.5e-8 and t_end was np.float32. A record
        # stores its bounds as Python floats, whatever the caller passed
        pend = get_problem("pendulum")
        narrow = mci_step(pend.system, pend.y0, np.float32(0.0), 0.1, 2)
        wide = mci_step(pend.system, pend.y0, 0.0, 0.1, 2)
        assert narrow.coefficients.tobytes() == wide.coefficients.tobytes()
        assert (type(narrow.t_start), type(narrow.t_end)) == (float, float)
        assert narrow.t_end == 0.1
        sol = ElementSolution(np.float32(0.5), 1, np.ones((2, 3)))
        assert (type(sol.t_start), type(sol.t_end)) == (float, float)
        assert (sol.t_start, sol.t_end) == (0.5, 1.0)

    @pytest.mark.parametrize(
        "method", [Method.EXPLICIT_EULER, Method.SYMPLECTIC_EULER, Method.RK4]
    )
    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ("x", TypeError, "order p must be an integer, got str"),
            (0, ValueError, "order p must lie in [1, 64], got 0"),
            (3.5, TypeError, "order p must be an integer, got float"),
            (True, TypeError, "order p must be an integer, got bool"),
        ],
    )
    def test_classical_run_applies_the_order_rule(self, method, bad, error, message):
        # integrate checks p for every method, as the steps and residuals do, though only
        # the element methods read it: before the first field call
        pend = get_problem("pendulum")
        system, calls = _counting(pend.system)
        with pytest.raises(error) as err:
            integrate(system, method, pend.y0, 0.0, 1.0, 0.4, p=bad)
        assert str(err.value) == message
        assert calls == {"field": 0, "domain_check": 0}

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("bad", [None, {}, 0.5], ids=["none", "dict", "float"])
    def test_run_refuses_newton_settings_that_are_not_a_config(self, method, bad):
        # every method, though only the element methods solve: before the first field call
        pend = get_problem("pendulum")
        system, calls = _counting(pend.system)
        with pytest.raises(TypeError) as err:
            integrate(system, method, pend.y0, 0.0, 1.0, 0.1, newton=bad)
        assert str(err.value) == f"newton must be a geodesy.NewtonConfig, got {bad!r}"
        assert calls == {"field": 0, "domain_check": 0}

    @pytest.mark.parametrize("bad", [None, {}, 0.5], ids=["none", "dict", "float"])
    @pytest.mark.parametrize("step", [mci_step, mgi_step])
    def test_element_step_refuses_newton_settings_that_are_not_a_config(self, step, bad):
        # newton_solve's refusal, before the first residual and so before any field call
        pend = get_problem("pendulum")
        system, calls = _counting(pend.system)
        with pytest.raises(TypeError) as err:
            step(system, pend.y0, 0.0, 0.1, 2, config=bad)
        assert str(err.value) == f"config must be a geodesy.NewtonConfig, got {bad!r}"
        assert calls == {"field": 0, "domain_check": 0}

    @pytest.mark.parametrize(
        "bad, good, name",
        [(True, 1, "order p"), (2.0, 2, "order p"), (True, 1, "q_rhs"), (14.0, 14, "q_rhs")],
    )
    def test_non_integer_order_fails_alike_cold_and_warm(self, bad, good, name):
        # the pairing cache takes True for 1 and 2.0 for 2, so the order must be
        # rejected before it: the same TypeError whether or not the valid twin is cached
        pend = get_problem("pendulum")
        sys, y0 = pend.system, pend.y0
        if name == "order p":
            calls = [
                lambda p: integrate(sys, Method.MCI, y0, 0.0, 0.2, 0.1, p=p),
                lambda p: mci_step(sys, y0, 0.0, 0.1, p),
                lambda p: mgi_step(sys, y0, 0.0, 0.1, p),
            ]
        else:
            sol = mgi_step(sys, y0, 0.0, 0.1, 2)
            calls = [
                lambda q: integrate(sys, Method.MGI, y0, 0.0, 0.2, 0.1, p=2, q_rhs=q),
                lambda q: mgi_step(sys, y0, 0.0, 0.1, 2, q_rhs=q),
                lambda q: mgi_residual(sys, sol, q),
            ]
        message = f"{name} must be an integer, got {type(bad).__name__}"
        for call in calls:
            geodesy.integrators._pairing_record.cache_clear()
            with pytest.raises(TypeError) as cold:
                call(bad)
            call(good)
            with pytest.raises(TypeError) as warm:
                call(bad)
            assert str(cold.value) == str(warm.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("step", [mci_step, mgi_step])
    @pytest.mark.parametrize(
        "t0, dt", [(0.0, 1e-320), (0.0, -1e-320), (3.0, 5e-309), (1.0, 1e-20), (1e308, 1e308)]
    )
    def test_step_without_a_finite_reciprocal_length_names_dt(self, monkeypatch, step, t0, dt):
        # 1/sqrt(g) overflows (or sqrt(g) rounds to zero, or t0 + dt overflows): rejected as a
        # usage error naming the step's bounds [t0, t0 + dt], not blamed on the Jacobian after
        # a RuntimeWarning
        pend = get_problem("pendulum")
        _replace_newton(monkeypatch, None)  # never reached
        t_end = t0 + dt
        named = f"t_start={t0!r}, t_end={t_end!r} give half-length {0.5 * (t_end - t0)!r}"
        with pytest.raises(ValueError, match="^element must have nonzero extent") as err:
            step(pend.system, pend.y0, t0, dt, 2)
        assert str(err.value).endswith(named)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    # a dt past tf names the first step's own bounds, t0 and tf
    @pytest.mark.parametrize("tf, dt", [(1e-320, 1e-320), (1.0, 1e-320), (1e-320, 1.0)])
    def test_integrate_without_a_finite_reciprocal_length_names_dt(self, method, tf, dt):
        # every case's first step is [0, 1e-320]
        pend = get_problem("pendulum")
        with pytest.raises(ValueError, match="^element must have nonzero extent") as err:
            integrate(pend.system, method, pend.y0, 0.0, tf, dt, p=2)
        assert str(err.value).endswith("t_start=0.0, t_end=1e-320 give half-length 5e-321")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "t_start, t_end, dt",
        [
            (0.0, 1e-320, 1e-320),
            (1.0, 1.0, 1e-20),
            (1e308, math.inf, 1e308),
            (1.0, 1.0, None),
            (math.nan, 1.0, None),
            (0.0, math.inf, None),
            (-math.inf, 0.0, None),
            (math.inf, math.inf, None),
        ],
        ids=["subnormal", "end-rounds-to-start", "end-overflows", "zero", "nan", "inf-end",
             "inf-start", "both-inf"],
    )
    def test_every_element_path_refuses_with_the_bounds_message(
        self, monkeypatch, t_start, t_end, dt
    ):
        # one rule and one message, naming the bounds, from the grid, the element record, the
        # public residuals (on a record that skipped the record's own check), the steps over
        # [t0, t0 + dt] and integrate's first step; the steps and integrate refuse a non-finite
        # t0 or dt first (test_nonfinite_argument_fails_before_the_solve), so they take the
        # finite (t0, dt) cases, and integrate those whose first step ends by a finite tf
        pend = get_problem("pendulum")
        sys, y0 = pend.system, pend.y0
        _replace_newton(monkeypatch, None)  # never reached
        coeffs = np.zeros((2, 3))
        unchecked = types.SimpleNamespace(t_start=t_start, t_end=t_end, coefficients=coeffs)
        entries = [
            lambda: ElementGrid(2, t_start, t_end),
            lambda: ElementSolution(t_start, t_end, coeffs),
            lambda: mci_residual(sys, unchecked),
            lambda: mgi_residual(sys, unchecked, None),
        ]
        if dt is not None:
            assert t_start + dt == t_end
            entries += [
                lambda: mci_step(sys, y0, t_start, dt, 2),
                lambda: mgi_step(sys, y0, t_start, dt, 2),
            ]
            if math.isfinite(t_end):
                entries += [
                    lambda m=m: integrate(sys, m, y0, t_start, t_start + 1.0, dt, p=2)
                    for m in (Method.MCI, Method.MGI)
                ]
        messages = []
        for entry in entries:
            with pytest.raises(ValueError) as err:
                entry()
            messages.append(str(err.value))
        want = (
            "element must have nonzero extent with a finite half-length whose reciprocal is"
            f" finite: t_start={t_start!r}, t_end={t_end!r} give half-length"
            f" {0.5 * (t_end - t_start)!r}"
        )
        assert messages == [want] * len(entries)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_integrate_checks_the_first_step_it_takes(self, method):
        # t0 + dt overflows, but the run's one step ends at tf with a finite half-length
        harmonic = get_problem("harmonic")
        traj = integrate(harmonic.system, method, harmonic.y0, 1e308, 1.5e308, 1e308, p=2)
        assert traj.steps == 1 and traj.times[-1] == 1.5e308


class TestStepBuffers:
    # each step reads one cached pairing record per (p, q, pairing), whatever
    # the system's dimension, and writes the stage values into one coefficient
    # buffer; neither may leak out

    @pytest.mark.parametrize("method, q_rhs, q", [(Method.MCI, None, 3), (Method.MGI, 9, 9)])
    def test_pairing_is_cached_and_read_only(self, method, q_rhs, q):
        rec = geodesy.integrators._pairing(method, 3, q_rhs)
        assert geodesy.integrators._pairing(method, 3, q_rhs) is rec
        assert (rec.P is not None) is (method is Method.MGI) and len(rec.nodes) == q
        assert rec.rate.shape == (3, 3)
        assert rec.LE.shape == (3 + 1, q + 3)
        assert rec.weights.shape == (3 * 3, q)
        arrays = [field for field in rec if isinstance(field, np.ndarray)]
        assert len(arrays) == (7 if method is Method.MGI else 6)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    @pytest.mark.parametrize("method, q_rhs", [(Method.MCI, None), (Method.MGI, 13)])
    def test_one_record_serves_every_dimension(self, monkeypatch, method, q_rhs):
        # the record depends on the discretisation only: a dimension-2 and a
        # dimension-4 step at the same (p, q) read one cached object
        records = []
        factory = geodesy.integrators._element_callables

        def spy(sys, pairing):
            records.append(pairing)
            return factory(sys, pairing)

        monkeypatch.setattr(geodesy.integrators, "_element_callables", spy)
        cache = geodesy.integrators._pairing_record
        cache.cache_clear()
        step = mci_step if method is Method.MCI else functools.partial(mgi_step, q_rhs=q_rhs)
        for name in ("pendulum", "kepler"):
            prob = get_problem(name)
            step(prob.system, prob.y0, 0.0, 0.1, 5)
        pendulum_record, kepler_record = records
        assert kepler_record is pendulum_record
        assert cache.cache_info().currsize == 1
        assert pendulum_record.rate.shape == (5, 5)

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_stored_coefficients_are_separate_and_read_only(self, monkeypatch, method):
        pend = get_problem("pendulum")
        residuals = _stage_callables(monkeypatch)
        traj = integrate(pend.system, method, pend.y0, 0.0, 1.0, 0.1, p=2)
        coeffs = traj.coefficients
        assert len(residuals) == 10
        for arr in (coeffs, traj.newton_iterations):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        stored = coeffs.copy()
        for residual, _, x0 in residuals:
            buffers = [
                c.cell_contents
                for c in residual.__closure__
                if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.ndim == 2
            ]
            assert buffers
            for buf in buffers:
                assert not np.shares_memory(coeffs, buf)
            residual(x0 + 0.5)  # writes the step's buffer
        npt.assert_array_equal(coeffs, stored)

    def test_callables_still_work_after_the_step_returns(self, monkeypatch):
        pend = get_problem("pendulum")
        sols = []
        ((residual, jacobian, x0),) = _stage_callables(
            monkeypatch, lambda: sols.append(mci_step(pend.system, pend.y0, 0.0, 0.1, 2))
        )
        (sol,) = sols
        stored = sol.coefficients.copy()
        z = x0 + 0.05 * np.random.default_rng(2).standard_normal(len(x0))
        J = jacobian(z)
        J_fd = column_forward_difference(residual, z, fd_step=1e-8)
        assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J))
        # the callables write their own buffer, never the returned solution
        npt.assert_array_equal(sol.coefficients, stored)
        z_final = sol.coefficients[:, 1:].reshape(-1)
        npt.assert_array_equal(residual(z_final), mci_residual(pend.system, sol))

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_integrate_builds_the_callables_once(self, monkeypatch, method):
        pend = get_problem("pendulum")
        built = []
        factory = geodesy.integrators._element_callables

        def counted(*args):
            built.append(args)
            return factory(*args)

        monkeypatch.setattr(geodesy.integrators, "_element_callables", counted)
        seen = _stage_callables(monkeypatch)
        integrate(pend.system, method, pend.y0, 0.0, 1.0, 0.1, p=2)
        solved = [(residual, jacobian) for residual, jacobian, _ in seen]
        assert len(built) == 1 and len(solved) == 10
        assert all(pair == solved[0] for pair in solved)

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    @pytest.mark.parametrize("tf", [3.0, 1.24])
    def test_rebound_callables_name_their_own_step(self, method, tf):
        # the rotation y = (2 sin t, 2 cos t) leaves the domain y[0] <= 1.88 first
        # inside step 12: at tf = 3 a full step 1.2..1.3 started from the previous
        # element, at tf = 1.24 a shortened last step 1.2..1.24 started cold. The
        # node time in the message comes from the bounds bound for that step, so
        # the callables' first t0, or the full steps' half-length, would put it outside
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def domain(y):
            over = y.reshape(2, -1)[0] > 1.88
            return f"y[0] = {y.reshape(2, -1)[0, over.argmax()]:.6g}" if over.any() else None

        sys = OdeSystem(
            dim=2,
            field=lambda y: A @ y,
            jacobian=lambda y: np.broadcast_to(A, (y.reshape(2, -1).shape[1], 2, 2)),
            domain_check=domain,
        )
        with pytest.raises(IntegrationError) as info:
            integrate(sys, method, np.array([0.0, 2.0]), 0.0, tf, 0.1, p=2)
        err = info.value
        assert isinstance(err.__cause__, DomainError)
        t_a, t_b = 0.1 * 12, min(tf, 0.1 * 13)
        assert err.step == 12 and err.time == t_a
        prefix = f"step 12 starting at t={t_a:g} failed: state leaves the domain at quadrature node"
        assert str(err).startswith(prefix + " ")
        node_time = float(str(err).split("(t=")[1].split(")")[0])
        assert t_a < node_time < t_b


class TestPairingRecordIsTheToolkit:
    # the step's tables are the mimetic toolkit's two Hodge operators on the reference
    # element, where sqrt(g) = 1: row l of D is the canonical Hodge of the unit primal
    # 1-cochain l, times the dual mass for mgi, whose P is the Galerkin pairing on its rule

    @pytest.mark.parametrize("p", range(1, 65))
    def test_tables_are_the_toolkit_operators_bitwise(self, p):
        # D, read in one evaluation of the edge table, is the stacked Hodge of every unit
        # 1-cochain byte for byte, in the Fortran order the kernel's products are checked in
        ref = ElementGrid(p, -1.0, 1.0)
        units = [Cochain(CochainKind.PRIMAL1, unit) for unit in np.eye(p)]
        hodge = np.array([canonical_hodge_1to0(c, ref).values for c in units], order="F")

        def assert_same_bytes(got, want):
            assert got.flags.f_contiguous and want.flags.f_contiguous
            assert got.tobytes(order="F") == want.tobytes(order="F")

        mci = geodesy.integrators._pairing(Method.MCI, p, None)
        assert mci.P is None  # collocation: the pairing is the identity
        assert_same_bytes(mci.D, hodge)
        pairings = [(mci, np.eye(p))]
        for q in sorted({p, min(p + 1, 64), default_qrhs(p)}):
            mgi = geodesy.integrators._pairing(Method.MGI, p, q)
            assert_same_bytes(mgi.D, hodge * galerkin_mass_dual(ref))
            npt.assert_array_equal(mgi.P, galerkin_pairing(ref, gauss_rule(q)).T)
            pairings.append((mgi, mgi.P))
        for rec, P in pairings:
            Lq = rec.LE[:, : len(rec.nodes)]
            npt.assert_array_equal(rec.weights, (P.T[:, None] * Lq[1:]).reshape(p * p, -1))


def _record_bytes(traj):
    # the bytes of the distinct buffers behind a trajectory's arrays, each counted once:
    # every array is followed through .base to the array that owns its memory
    roots = {}
    arrays = [traj.times, traj.states, traj.coefficients, traj.newton_iterations]
    for arr in arrays + list(traj.invariants.values()):
        while isinstance(arr, np.ndarray) and isinstance(arr.base, np.ndarray):
            arr = arr.base
        if arr is not None:
            roots[id(arr)] = arr
    return sum(arr.nbytes for arr in roots.values())


def _record_system(name, jacobian=True):
    sys = get_problem(name).system
    return sys if jacobian else dataclasses.replace(sys, jacobian=None)


RECORD_CASES = [
    ("pendulum", True, Method.MCI, 2),
    ("lotka-volterra", False, Method.MCI, 3),
    ("kepler", True, Method.MGI, 4),
    ("pendulum", True, Method.RK4, 2),  # p is not used by rk4
    ("kepler", True, Method.RK4, 2),
]
RECORD_IDS = ["pendulum-mci", "lv-fd-mci", "kepler-mgi", "pendulum-rk4", "kepler-rk4"]


class TestNodalRecord:
    # an element run keeps one primal 0-cochain, (dim, n p + 1): neighbouring elements
    # share their boundary column, and states and coefficients are read-only views of it

    @pytest.mark.parametrize("name, jac, method, p", RECORD_CASES, ids=RECORD_IDS)
    @pytest.mark.parametrize("tf", [1.0, 1.25])  # 10 steps; 13 with a shortened last one
    def test_each_nodal_value_is_stored_once(self, name, jac, method, p, tf):
        sys = _record_system(name, jac)
        traj = integrate(sys, method, get_problem(name).y0, 0.0, tf, 0.1, p=p)
        n, dim, L = traj.steps, sys.dim, len(sys.invariants)
        if method.is_element_method:
            want = 8 * (n + 1) + 8 * dim * (n * p + 1) + 8 * n + 8 * L * (n + 1)
        else:
            want = 8 * (n + 1) * (1 + dim + L)
        assert _record_bytes(traj) == want

    @pytest.mark.parametrize("name, jac, method, p", RECORD_CASES[:3], ids=RECORD_IDS[:3])
    def test_neighbouring_elements_share_their_boundary_node(self, name, jac, method, p):
        sys = _record_system(name, jac)
        traj = integrate(sys, method, get_problem(name).y0, 0.0, 1.25, 0.1, p=p)
        coeffs = traj.coefficients
        assert np.shares_memory(coeffs[1:, :, 0], coeffs[:-1, :, -1])
        assert np.shares_memory(traj.states, coeffs)
        npt.assert_array_equal(traj.states[:, :-1], coeffs[:, :, 0].T)
        npt.assert_array_equal(traj.states[:, 1:], coeffs[:, :, -1].T)

    @pytest.mark.parametrize("method", list(Method))
    def test_records_are_read_only_for_every_method(self, method):
        circle = make_circle()
        traj = integrate(circle.system, method, circle.y0, 0.0, 1.0, 0.25, p=2)
        arrays = [traj.states, traj.coefficients, traj.newton_iterations]
        if not method.is_element_method:
            assert traj.coefficients is None and traj.newton_iterations is None
            arrays = arrays[:1]
        # the time grid, which sample_trajectory locates elements by, and the invariant series
        assert traj.invariants
        for arr in arrays + [traj.times, *traj.invariants.values()]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        # views of the frozen record cannot be made writeable again
        for arr in arrays[:2]:
            with pytest.raises(ValueError):
                arr.setflags(write=True)

    @pytest.mark.parametrize("method", list(Method))
    def test_a_trajectory_is_its_record_and_derives_the_rest(self, method):
        # states, coefficients and order were fields beside the record, so a Trajectory could
        # hold ones that disagree with it
        fields = [f.name for f in dataclasses.fields(Trajectory)]
        assert fields == ["method", "times", "record", "invariants", "newton_iterations"]
        circle = make_circle()
        traj = integrate(circle.system, method, circle.y0, 0.0, 1.2, 0.25, p=3)
        element = method.is_element_method
        s = 3 if element else 1
        assert traj.record.shape == (2, traj.steps * s + 1) and not traj.record.flags.writeable
        assert traj.order == (3 if element else None)
        assert traj.dim == 2
        npt.assert_array_equal(traj.states, traj.record[:, ::s])
        views = [traj.states]
        if element:
            coeffs = traj.coefficients
            assert coeffs.shape == (traj.steps, 2, 4)
            for k in range(traj.steps):
                npt.assert_array_equal(coeffs[k], traj.record[:, 3 * k : 3 * k + 4])
            views.append(coeffs)
        else:
            assert traj.coefficients is None
        for view in views:
            assert np.shares_memory(view, traj.record)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view.setflags(write=True)

    @pytest.mark.filterwarnings("error")
    def test_too_many_steps_counts_the_bytes_of_an_int64_order_in_python_ints(self):
        # np.int64(4) overflowed the bytes per step times the count with a warning, then gave
        # the slack's refusal, where 4 gives this one
        pend = get_problem("pendulum").system
        with pytest.raises(ValueError, match="at 88 bytes per step the records exceed"):
            integrate(pend, Method.MCI, [0.0, 1.0], 0.0, 1e18, 1.0, p=np.int64(4))

    @pytest.mark.parametrize("name, jac, method, p", RECORD_CASES, ids=RECORD_IDS)
    def test_too_many_steps_names_the_bytes_a_step_stores(self, name, jac, method, p):
        # the refusal's bytes per step are what a small run of the same system and p holds
        sys, y0 = _record_system(name, jac), get_problem(name).y0
        with pytest.raises(ValueError, match="too many steps") as info:
            integrate(sys, method, y0, 0.0, 1e100, 1e-200, p=p)
        named = int(re.search(r"at (\d+) bytes per step", str(info.value)).group(1))
        short, long = (integrate(sys, method, y0, 0.0, tf, 0.1, p=p) for tf in (1.0, 2.0))
        measured = (_record_bytes(long) - _record_bytes(short)) / (long.steps - short.steps)
        assert named == measured


TANGENT_CASES = [("pendulum", 0.4), ("pendulum", 0.1), ("kepler", 0.1), ("harmonic", 0.1)]
TANGENT_PAIRINGS = [(Method.MCI, False), (Method.MGI, True), (Method.MGI, False)]
TANGENT_IDS = ["mci", "mgi-q_rhs=p", "mgi-default-q"]


class TestSymplecticTangent:
    # a step is symplectic when its tangent map Phi = dy1/dy0 keeps the canonical form,
    # Phi^T Omega Phi = Omega (Hairer, Lubich and Wanner, GNI VI.4); step_tangent reads Phi
    # off the step's own stage Jacobian at its converged stages

    @pytest.mark.parametrize("method, q_is_p", TANGENT_PAIRINGS[:2], ids=TANGENT_IDS[:2])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("name, dt", TANGENT_CASES)
    def test_step_keeps_the_canonical_form(self, name, dt, p, method, q_is_p):
        # mci is Gauss collocation; mgi on the p dual nodes solves its equations row-scaled
        prob = get_problem(name)
        _, phi = step_tangent(prob.system, method, prob.y0, dt, p, p if q_is_p else None)
        omega = canonical_form(prob.system.partition, prob.system.dim)
        assert np.max(np.abs(phi.T @ omega @ phi - omega)) <= 1e-14

    def test_default_q_mgi_is_not_symplectic(self):
        # a fact, not a defect: mgi at the default q_rhs conserves polynomial energies
        # instead; pendulum at p=2, dt=0.4 reads 1.0e-3
        prob = get_problem("pendulum")
        _, phi = step_tangent(prob.system, Method.MGI, prob.y0, 0.4, 2)
        omega = canonical_form(prob.system.partition, prob.system.dim)
        assert np.max(np.abs(phi.T @ omega @ phi - omega)) > 1e-4

    @pytest.mark.parametrize("method, q_is_p", TANGENT_PAIRINGS, ids=TANGENT_IDS)
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("name, dt", TANGENT_CASES)
    def test_tangent_matches_central_differences(self, name, dt, p, method, q_is_p):
        prob = get_problem(name)
        sys, y0, q_rhs = prob.system, prob.y0, p if q_is_p else None
        y1, phi = step_tangent(sys, method, y0, dt, p, q_rhs)

        def step(y):
            if method is Method.MCI:
                return mci_step(sys, y, 0.0, dt, p).endpoint()
            return mgi_step(sys, y, 0.0, dt, p, q_rhs).endpoint()

        npt.assert_array_equal(y1, step(y0))  # the oracle solves the public step's element
        eps = 1e-6
        fd = [(step(y0 + eps * e) - step(y0 - eps * e)) / (2.0 * eps) for e in np.eye(sys.dim)]
        assert np.max(np.abs(np.column_stack(fd) - phi)) <= 1e-8


class TestReverseStep:
    # Both pairings are time-symmetric: stepping back over the same element
    # from the endpoint returns the start state. The perturbation stays small
    # enough that dt = 0.2 still resolves Kepler's periapsis at |q| = 0.4; at
    # 0.05, p = 1 Newton diverges or lands on a spurious root there.
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["pendulum", "kepler"]),
        step=st.sampled_from([mci_step, mgi_step]),
        p=st.integers(1, 12),
        dt=st.floats(0.02, 0.2),
        sign=st.sampled_from([1.0, -1.0]),
        data=st.data(),
    )
    def test_step_then_reverse_step_returns_the_start(self, name, step, p, dt, sign, data):
        prob = get_problem(name)
        offset = data.draw(
            st.lists(st.floats(-0.01, 0.01), min_size=prob.system.dim, max_size=prob.system.dim)
        )
        y = prob.y0 + np.array(offset)
        h = sign * dt
        forth = step(prob.system, y, 0.0, h, p).endpoint()
        back = step(prob.system, forth, h, -h, p).endpoint()
        assert np.max(np.abs(back - y)) <= 1e-12 * np.max(np.abs(y))


class TestNewtonRoundingFloor:
    # Newton updates of half an ulp leave residuals of 1e-12 to 6e-11 here,
    # above the default abs_tol of 1e-12; such a stall is convergence.
    @pytest.mark.parametrize("name", ["kepler", "lotka-volterra"])
    @pytest.mark.parametrize("step", [mci_step, mgi_step])
    def test_small_steps_converge_under_default_config(self, name, step):
        prob = get_problem(name)
        sol = step(prob.system, prob.y0, 0.0, 0.1 / 512, 4)
        assert sol.newton_iterations < NewtonConfig().max_iter
        assert np.max(np.abs(sol.endpoint() - prob.y0)) <= 0.1

    def test_large_magnitude_field_converges(self):
        gravity = 1e6
        stiff = pointwise(
            OdeSystem(
                dim=2,
                field=lambda y: np.array([-gravity * np.sin(y[1]), y[0]]),
                jacobian=lambda y: np.array([[0.0, -gravity * np.cos(y[1])], [1.0, 0.0]]),
            )
        )
        sol = mgi_step(stiff, np.array([0.0, np.pi / 2.0]), 0.0, 1e-3, 3)
        assert sol.newton_iterations < NewtonConfig().max_iter
        res = mgi_residual(stiff, sol, default_qrhs(3))
        assert np.max(np.abs(res)) <= 1e-9

    def test_near_parabolic_kepler_at_a_step_resolving_periapsis(self):
        # e = 0.99 from periapsis |q| = 0.01: dt = 0.002 resolves the close
        # approach, so both pairings keep their exact invariant through it
        kep = get_problem("kepler")
        y0 = np.array([0.0, np.sqrt(199.0), 0.01, 0.0])
        mgi = integrate(kep.system, Method.MGI, y0, 0.0, 0.4, 0.002, p=3)
        mci = integrate(kep.system, Method.MCI, y0, 0.0, 0.4, 0.002, p=3)
        assert mgi.steps == mci.steps == 200
        assert np.max(np.abs(mgi.invariants["H"] - mgi.invariants["H"][0])) <= 1e-12
        assert np.max(np.abs(mci.invariants["L"] - mci.invariants["L"][0])) <= 1e-13

    def test_genuine_divergence_fails_fast(self):
        # the updates stop contracting at residual ~15; the divergence test
        # stops the solve long before the 50-iteration budget
        pend = get_problem("pendulum")
        with pytest.raises(IntegrationError, match="diverg") as info:
            integrate(pend.system, Method.MCI, pend.y0, 0.0, 4.0, 2.0, p=2)
        assert info.value.step == 1
        cause = info.value.__cause__
        assert isinstance(cause, NewtonNonConvergence)
        assert cause.iterations <= 10
        assert cause.residual_norm > 1.0


class TestStartingGuessAndPolish:
    # every step after the first starts Newton from the previous element's
    # polynomial read one element ahead, and an abs_tol stop is polished by
    # one more update with the last LU factors

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_extrapolation_is_cached_read_only_and_exact_on_polynomials(self, p):
        ahead = geodesy.integrators._pairing(Method.MCI, p, None).ahead
        assert geodesy.integrators._pairing(Method.MCI, p, None).ahead is ahead
        assert ahead.shape == (p + 1, p)
        assert not ahead.flags.writeable
        rng = np.random.default_rng(40 + p)
        nodes = ElementGrid(p, 0.0, 2.0).primal.nodes
        for _ in range(5):
            poly = np.polynomial.Polynomial(rng.standard_normal(p + 1))
            values = poly(nodes)[None, :]
            want = poly(nodes[1:] + 2.0)[None, :]
            npt.assert_allclose(values @ ahead, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_extrapolation_up_to_order_8_reads_every_node(self, p):
        # the table through all p + 1 nodes, as built before the subset: bit for bit
        x = ElementGrid(p, -1.0, 1.0).primal.nodes
        span = x[:, None] - x
        np.fill_diagonal(span, 1.0)
        factors = (x[1:, None, None] + 2.0 - x) / span
        factors[:, range(p + 1), range(p + 1)] = 1.0
        want = factors.prod(axis=-1).T
        npt.assert_array_equal(geodesy.integrators._pairing(Method.MCI, p, None).ahead, want)

    @pytest.mark.parametrize("p", [9, 12, 16, 23, 32, 64])
    def test_extrapolation_above_order_8_reads_nine_spread_nodes(self, p):
        ahead = geodesy.integrators._pairing(Method.MCI, p, None).ahead
        assert geodesy.integrators._pairing(Method.MGI, p, 64).ahead.tobytes() == ahead.tobytes()
        assert ahead.shape == (p + 1, p)
        subset = np.round(np.linspace(0, p, 9)).astype(int)
        assert len(set(subset)) == 9 and subset[0] == 0 and subset[-1] == p
        npt.assert_array_equal(np.delete(ahead, subset, axis=0), 0.0)
        # a guessed stage weighs the nodal values by one column: its |sum| bounds the
        # amplification of their errors, which reaches 9.4e11 at p = 16 through every node
        assert np.abs(ahead).sum(axis=0).max() < 1e6
        rng = np.random.default_rng(60 + p)
        nodes = ElementGrid(p, 0.0, 2.0).primal.nodes
        for _ in range(5):  # exact on the interpolant's degree
            poly = np.polynomial.Polynomial(rng.standard_normal(9))
            values = poly(nodes)[None, :]
            want = poly(nodes[1:] + 2.0)[None, :]
            npt.assert_allclose(values @ ahead, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("p", [16, 23, 24, 32, 48, 64])
    @pytest.mark.parametrize("dt", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_lotka_volterra_runs_at_high_order(self, method, dt, p):
        # extrapolating through every node left the domain at step 1 from p = 23 on
        lv = get_problem("lotka-volterra")
        q_rhs = 64 if method is Method.MGI and p >= 28 else None
        traj = integrate(lv.system, method, lv.y0, 0.0, 200 * dt, dt, p=p, q_rhs=q_rhs)
        assert traj.steps == 200
        assert traj.newton_iterations.mean() <= 2.5

    @pytest.mark.parametrize("p", [16, 32, 64])
    def test_high_order_guess_saves_iterations(self, p):
        # through every node the warm start took 5.2 and 11.8 iterations per
        # step at p = 32 and 64, against 3.3 and 3.9 for cold public steps
        pend = get_problem("pendulum")
        traj = integrate(pend.system, Method.MCI, pend.y0, 0.0, 2.0, 0.1, p=p)
        assert traj.steps == 20
        cold = [
            mci_step(pend.system, traj.states[:, k], t, traj.times[k + 1] - t, p).newton_iterations
            for k, t in enumerate(traj.times[:-1])
        ]
        assert traj.newton_iterations.mean() <= np.mean(cold)

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_driver_guesses_ahead_except_first_and_short_last_step(self, monkeypatch, method):
        pend = get_problem("pendulum")
        seen = _stage_callables(monkeypatch)
        p = 3
        traj = integrate(pend.system, method, pend.y0, 0.0, 1.05, 0.1, p=p)
        guesses = [x0 for _, _, x0 in seen]
        assert traj.steps == len(guesses) == 11
        ahead = geodesy.integrators._pairing(method, p, None).ahead
        for k, x0 in enumerate(guesses):
            if k in (0, traj.steps - 1):  # cold: y0 at every stage
                npt.assert_array_equal(x0, np.repeat(traj.states[:, k], p))
            else:
                npt.assert_array_equal(x0, (traj.coefficients[k - 1] @ ahead).reshape(-1))

    def test_a_last_step_of_full_length_is_guessed(self, monkeypatch):
        circle = make_circle()
        seen = _stage_callables(monkeypatch)
        traj = integrate(circle.system, Method.MCI, circle.y0, 0.3, 0.3 + 6 * 0.1, 0.1, p=2)
        cold = [np.all(x0.reshape(2, 2) == x0.reshape(2, 2)[:, :1]) for _, _, x0 in seen]
        assert traj.steps == 6
        assert cold == [True] + [False] * 5

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_previous_element_saves_iterations(self, method):
        pend = get_problem("pendulum")
        first, _ = _driver_step(pend.system, method, pend.y0, 0.0, 0.1, 2, None)
        y1 = first[:, -1]
        cold, cold_iterations = _driver_step(pend.system, method, y1, 0.1, 0.1, 2, None)
        warm, warm_iterations = _driver_step(pend.system, method, y1, 0.1, 0.1, 2, first)
        assert warm_iterations < cold_iterations
        npt.assert_allclose(warm, cold, rtol=0.0, atol=1e-14)
        npt.assert_array_equal(warm[:, 0], y1)

    @pytest.mark.parametrize("name", ["circle", "harmonic"])
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_linear_fields_take_one_iteration_per_step(self, name, method):
        prob = get_problem(name)
        traj = integrate(prob.system, method, prob.y0, 0.0, 5.05, 0.1, p=3)
        npt.assert_array_equal(traj.newton_iterations, 1)

    @pytest.mark.parametrize(
        "name, method, p, dt, steps, label, bound",
        [
            ("kepler", Method.MGI, 4, 2.0 * np.pi / 128.0, 2000, "H", 5e-14),
            ("pendulum", Method.MGI, 2, 0.1, 2000, "H", 1.5e-13),
        ],
    )
    def test_long_run_energy_stays_at_rounding(self, name, method, p, dt, steps, label, bound):
        # the polished Newton stop leaves no per-step truncation to accumulate;
        # without it these runs drift linearly to 2.1e-13 and 3.8e-13
        prob = get_problem(name)
        traj = integrate(prob.system, method, prob.y0, 0.0, steps * dt, dt, p=p)
        assert traj.steps == steps
        series = traj.invariants[label]
        assert np.max(np.abs(series - series[0])) <= bound

    @pytest.mark.parametrize(
        "name, method, p, dt, steps, analytic, most",
        [
            ("kepler", Method.MGI, 4, 2.0 * np.pi / 128.0, 400, True, 1.25),
            ("pendulum", Method.MCI, 2, 0.1, 400, True, 2.05),
            ("lotka-volterra", Method.MCI, 3, 0.3, 200, False, 2.65),
        ],
    )
    def test_iterations_per_step(self, name, method, p, dt, steps, analytic, most):
        # one iteration fewer than a cold start from y0 (2.25, 2.99 and 3.42)
        prob = get_problem(name)
        system = prob.system if analytic else dataclasses.replace(prob.system, jacobian=None)
        traj = integrate(system, method, prob.y0, 0.0, steps * dt, dt, p=p)
        assert traj.newton_iterations.mean() <= most


class TestNonFiniteFieldOnTheNewtonPath:
    # the residual Newton iterates tests the field's finiteness itself, so an
    # element step names the first node whose field is non-finite, as the
    # public residuals do, whether that happens at the starting guess or at a
    # forward-difference probe

    @staticmethod
    def _blows_up_above(level):
        # a rotation whose field is NaN wherever the first component exceeds level
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return OdeSystem(
            dim=2,
            field=lambda y: np.where(y[0] > level, np.nan, A @ y),
            jacobian=lambda y: np.broadcast_to(A, (y.reshape(2, -1).shape[1], 2, 2)),
        )

    @pytest.mark.parametrize("method, q_rhs", [(Method.MCI, None), (Method.MGI, 7)])
    def test_step_names_the_first_bad_node_of_the_guess(self, method, q_rhs):
        sys = self._blows_up_above(1.5)
        p, t0, dt = 2, 0.5, 0.4
        y0 = np.array([1.0, 0.0])
        # a previous element whose extrapolation climbs past 1.5 inside this one
        previous = np.array([[0.0, 0.5, 1.0], [0.0, 0.0, 0.0]])
        rec = geodesy.integrators._pairing(method, p, q_rhs)
        guess = np.column_stack([y0, previous @ rec.ahead])
        Yq = (guess @ rec.LE)[:, : len(rec.nodes)]
        n, where = _first_bad_node(
            ElementGrid(p, t0, t0 + dt), Yq, rec.nodes, lambda y: y[0] > 1.5
        )
        assert n > 0
        with pytest.raises(EvaluationError) as info:
            _driver_step(sys, method, y0, t0, dt, p, previous, q_rhs=q_rhs)
        assert str(info.value) == f"vector field is non-finite at {where}"

    @pytest.mark.parametrize("method, q_rhs", [(Method.MCI, None), (Method.MGI, 7)])
    def test_forward_difference_probe_names_its_node(self, method, q_rhs):
        # the field is NaN wherever y[1] < 0. The cold guess holds y[1] = 0;
        # of the six probes (y1 at stages 1..3, then y2 at stages 1..3), the
        # fourth is the first to push y[1] below zero, after tau = 1/sqrt(5)
        # where the stage-1 basis function turns negative; two probes follow it
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = OdeSystem(dim=2, field=lambda y: np.where(y[1] < -1e-12, np.nan, A @ y))
        p, t0, dt = 3, 0.5, 0.4
        y0 = np.array([1.0, 0.0])
        rec = geodesy.integrators._pairing(method, p, q_rhs)
        probe = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
        Yq = (probe @ rec.LE)[:, : len(rec.nodes)]
        n, where = _first_bad_node(
            ElementGrid(p, t0, t0 + dt), Yq, rec.nodes, lambda y: y[1] < 0.0
        )
        assert n > 0
        with pytest.raises(EvaluationError) as info:
            if method is Method.MCI:
                mci_step(sys, y0, t0, dt, p)
            else:
                mgi_step(sys, y0, t0, dt, p, q_rhs=q_rhs)
        assert str(info.value) == f"vector field is non-finite at {where}"

    # (method, p, q_rhs): mci; mgi at the default q_rhs; mgi at q_rhs = p, where its pairing
    # P is diagonal, so a value that is not finite meets P's exact zeros (NaN 0 = NaN)
    PAIRINGS = [(Method.MCI, 2, None), (Method.MGI, 2, None), (Method.MGI, 2, 2), (Method.MGI, 3, 3)]
    PAIRING_IDS = ["mci-p2", "mgi-p2-default-q", "mgi-p2-q2", "mgi-p3-q3"]

    @staticmethod
    def _poisoned(value, node, call, analytic):
        # a rotation whose field holds value at quadrature node `node` on its call-th call
        # and on no other, whatever the states: call 1 is the starting guess's residual, and
        # call 2 a later iterate's with the analytic Jacobian, the first probe's without
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        calls = []

        def field(y):
            calls.append(None)
            h = A.dot(y)
            if len(calls) == call:
                h[0, node] = value
            return h

        def jacobian(y):
            return np.broadcast_to(A, (y.shape[1], 2, 2))

        return OdeSystem(dim=2, field=field, jacobian=jacobian if analytic else None)

    @pytest.mark.parametrize(
        "path, call, analytic",
        [("guess", 1, True), ("iterate", 2, True), ("probe", 2, False), ("residual", 1, True)],
    )
    @pytest.mark.parametrize("method, p, q_rhs", PAIRINGS, ids=PAIRING_IDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_a_value_that_is_not_finite_names_its_node(
        self, value, method, p, q_rhs, path, call, analytic
    ):
        # one value at the last node, in the residual of the starting guess, of a later
        # iterate, of a forward-difference probe or of a public residual, is named there
        rec = geodesy.integrators._pairing(method, p, q_rhs)
        if q_rhs == p:
            assert (rec.P == 0.0).any()
        node = len(rec.nodes) - 1
        sys = self._poisoned(value, node, call, analytic)
        t0, dt = 0.5, 0.4
        y0 = np.array([1.0, 0.0])
        sol = ElementSolution(t0, t0 + dt, np.tile(y0[:, None], p + 1))
        calls = {
            (Method.MCI, False): lambda: mci_step(sys, y0, t0, dt, p),
            (Method.MGI, False): lambda: mgi_step(sys, y0, t0, dt, p, q_rhs),
            (Method.MCI, True): lambda: mci_residual(sys, sol),
            (Method.MGI, True): lambda: mgi_residual(sys, sol, q_rhs),
        }
        t = ElementGrid(p, t0, t0 + dt).to_time(rec.nodes[node])
        with pytest.raises(EvaluationError) as info:
            calls[method, path == "residual"]()
        assert str(info.value) == f"vector field is non-finite at quadrature node {node} (t={t:g})"

    @pytest.mark.parametrize(
        "path, message",
        [
            ("guess", "residual is non-finite at the initial guess"),
            ("iterate", "residual is non-finite during Newton iteration"),
            ("probe", "Jacobian is non-finite during Newton iteration"),
        ],
    )
    @pytest.mark.parametrize("method, p, q_rhs", PAIRINGS, ids=PAIRING_IDS)
    def test_a_residual_that_overflows_from_a_finite_field_is_newtons_to_name(
        self, method, p, q_rhs, path, message
    ):
        # a constant field, finite at every state, with residuals that overflow in the rate:
        # from a starting guess extrapolated past the largest float, after an update that
        # overflows (1e308 over four time units), or at a probe of 1.7e301 over a 2e-10 step
        def constant(c, analytic):
            def zeros(y):
                return np.zeros((y.shape[1], 2, 2))

            return OdeSystem(
                dim=2, field=lambda y: np.full(y.shape, c), jacobian=zeros if analytic else None
            )

        y0, previous, sys, t0, dt = np.zeros(2), None, constant(1.0, True), 0.0, 0.1
        if path == "guess":
            previous = np.array([np.linspace(0.0, 1.7e308, p + 1), np.zeros(p + 1)])
        elif path == "iterate":
            sys, dt = constant(1e308, True), 4.0
        else:
            y0, sys, dt = np.array([1.7e308, 0.0]), constant(1.0, False), 2e-10
        # as integrate solves an element: with floating-point exceptions ignored
        with pytest.raises(EvaluationError) as info, np.errstate(all="ignore"):
            _driver_step(sys, method, y0, t0, dt, p, previous, q_rhs=q_rhs)
        assert str(info.value) == message

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_integrate_reports_the_node(self, method):
        sys = self._blows_up_above(1.9)
        with pytest.raises(IntegrationError) as info:
            integrate(sys, method, np.array([0.0, 2.0]), 0.0, 3.0, 0.1, p=2)
        cause = info.value.__cause__
        assert isinstance(cause, EvaluationError)
        assert str(cause).startswith("vector field is non-finite at quadrature node ")
        assert str(info.value).endswith(str(cause))


def _counting(system):
    # a copy of system whose field and domain check (where it has one) count their calls in
    # the dict returned
    calls = {"field": 0, "domain_check": 0}

    def counted(name, fn):
        def wrapped(y):
            calls[name] += 1
            return fn(y)

        return wrapped

    fns = {name: getattr(system, name) for name in calls}
    counted_fns = {name: counted(name, fn) for name, fn in fns.items() if fn is not None}
    return dataclasses.replace(system, **counted_fns), calls


class TestOneCheckedFieldPassPerResidual:
    # every stage residual, whether Newton or a forward difference calls it,
    # checks the domain of its (dim, q) block once and evaluates the field once

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_a_residual_that_succeeds_makes_one_call_of_each(self, monkeypatch, method, analytic):
        lv = get_problem("lotka-volterra")
        system = lv.system if analytic else dataclasses.replace(lv.system, jacobian=None)
        system, calls = _counting(system)
        per_residual = []

        def counted(residual):
            def call(z):
                before = dict(calls)
                r = residual(z)
                per_residual.append({name: calls[name] - before[name] for name in calls})
                return r

            return call

        _stage_callables(monkeypatch, wrap=counted)
        step = mci_step if method is Method.MCI else mgi_step
        step(system, lv.y0, 0.0, lv.dt_ref, 3)
        assert len(per_residual) >= (2 if analytic else 8)  # fd: 1 + M p per iterate
        assert all(c == {"field": 1, "domain_check": 1} for c in per_residual)
        assert calls == {"field": len(per_residual), "domain_check": len(per_residual)}

    @pytest.mark.parametrize(
        "field, error",
        [
            (lambda y: np.full(y.shape, np.nan), EvaluationError),
            (lambda y: np.where(y == y.max(), np.inf, y), EvaluationError),
            (lambda y: y[:1], ValueError),
        ],
        ids=["nan", "one-inf", "wrong-shape"],
    )
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_a_failing_field_is_evaluated_once(self, method, field, error):
        system, calls = _counting(OdeSystem(dim=2, field=field, domain_check=lambda y: None))
        step = mci_step if method is Method.MCI else mgi_step
        with pytest.raises(error):
            step(system, np.array([1.0, 2.0]), 0.0, 0.1, 2)
        assert calls == {"field": 1, "domain_check": 1}


class TestBaselines:
    def test_explicit_euler_frozen_step(self):
        harm = get_problem("harmonic")
        got = explicit_euler_step(harm.system, np.array([1.0, 0.0]), 0.0, 0.1)
        npt.assert_array_equal(got, np.array([1.0, -0.1]))

    def test_symplectic_euler_frozen_step(self):
        # momentum update first: p1 = p0 + dt g(q0), then q1 = q0 + dt f(p1)
        harm = get_problem("harmonic")
        got = symplectic_euler_step(harm.system, np.array([1.0, 0.0]), 0.0, 1.0)
        npt.assert_array_equal(got, np.array([0.0, -1.0]))

    def test_symplectic_euler_requires_partition(self):
        lv = get_problem("lotka-volterra")
        with pytest.raises(ValueError):
            symplectic_euler_step(lv.system, lv.y0, 0.0, 0.1)

    def test_symplectic_euler_steps_a_momentum_in_the_middle_of_the_state(self):
        # the positions are every entry but the momentum, here the first and the last
        def field(y):
            return np.array([y[1], -np.sin(y[0]) - y[2], -0.5 * y[1]])

        sys = OdeSystem(dim=3, field=field, partition=SeparablePartition(p_indices=(1,)))
        y0, dt = np.array([0.3, -0.7, 1.1]), 0.125
        p1 = y0[1] + dt * field(y0)[1]
        rates = field(np.array([y0[0], p1, y0[2]]))
        want = np.array([y0[0] + dt * rates[0], p1, y0[2] + dt * rates[2]])
        assert symplectic_euler_step(sys, y0, 0.0, dt).tobytes() == want.tobytes()

    def test_symplectic_euler_preserves_angular_momentum(self):
        kep = get_problem("kepler")
        traj = integrate(kep.system, Method.SYMPLECTIC_EULER, kep.y0, 0.0, 10.0, 0.1)
        L = traj.invariants["L"]
        assert np.max(np.abs(L - L[0])) <= 1e-12

    def test_rk4_matches_truncated_exponential_on_rotation(self):
        circle = make_circle()
        dt = 0.3
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        R = np.eye(2)
        term = np.eye(2)
        for k in range(1, 5):
            term = term @ A * (dt / k)
            R = R + term
        got = rk4_step(circle.system, circle.y0, 0.0, dt)
        npt.assert_allclose(got, R @ circle.y0, rtol=0.0, atol=1e-14)

    def test_rk4_matches_exponential_growth(self):
        import math

        sys = OdeSystem(dim=1, field=lambda y: y.copy())
        got = rk4_step(sys, np.array([1.0]), 0.0, 0.1)
        taylor = sum(0.1**k / math.factorial(k) for k in range(5))
        assert abs(got[0] - taylor) <= 1e-15
        assert abs(got[0] - math.exp(0.1)) <= 1e-7

    @pytest.mark.parametrize("name", ["pendulum", "kepler"])
    @pytest.mark.parametrize(
        "method, step",
        [
            (Method.EXPLICIT_EULER, explicit_euler_step),
            (Method.RK4, rk4_step),
            (Method.SYMPLECTIC_EULER, symplectic_euler_step),
        ],
        ids=["euler", "rk4", "seuler"],
    )
    def test_a_run_is_its_public_step_applied_step_by_step(self, name, method, step):
        # bit for bit, over 12 steps of which the last is shortened: step k is the public
        # step at t0 + k dt over t_b - t_a, from the state step k - 1 returned
        prob = get_problem(name)
        t0, dt = 0.25, prob.dt_ref
        tf = t0 + 11.5 * dt
        traj = integrate(prob.system, method, prob.y0, t0, tf, dt)
        n = traj.steps
        assert n == 12
        stepped = [np.asarray(prob.y0, dtype=float)]
        for k in range(n):
            t_a = t0 + k * dt
            t_b = tf if k == n - 1 else t0 + (k + 1) * dt
            stepped.append(step(prob.system, stepped[-1], t_a, t_b - t_a))
        assert t_b - t_a < 0.75 * dt
        want = np.stack(stepped, axis=1)
        assert traj.states.shape == want.shape
        assert traj.states.tobytes() == want.tobytes()

    def test_baseline_steps_do_not_mutate_input(self):
        harm = get_problem("harmonic")
        y0 = np.array([1.0, 0.0])
        explicit_euler_step(harm.system, y0, 0.0, 0.1)
        symplectic_euler_step(harm.system, y0, 0.0, 0.1)
        rk4_step(harm.system, y0, 0.0, 0.1)
        npt.assert_array_equal(y0, np.array([1.0, 0.0]))


class TestIntegrateDriver:
    def test_time_grid_lands_on_final_time(self):
        circle = make_circle()
        traj = integrate(circle.system, Method.EXPLICIT_EULER, circle.y0, 0.0, 1.0, 0.3)
        npt.assert_allclose(
            traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0.0, atol=1e-15
        )
        assert traj.times[-1] == 1.0

    def test_time_grid_exact_division(self):
        circle = make_circle()
        traj = integrate(circle.system, Method.EXPLICIT_EULER, circle.y0, 0.0, 1.0, 0.25)
        assert traj.steps == 4
        assert traj.times[-1] == 1.0

    def test_time_grid_tolerates_rounded_ratio(self):
        circle = make_circle()
        traj = integrate(
            circle.system, Method.EXPLICIT_EULER, circle.y0, 0.0, 1.0, 1.0 / 3.0
        )
        assert traj.steps == 3

    @pytest.mark.parametrize("t0, dt, steps", [(100.0, 0.001, 1), (1000.0, 0.01, 7)])
    def test_time_grid_has_no_zero_length_final_step(self, t0, dt, steps):
        # (tf - t0) / dt exceeds steps by more than 1e-12 here, from rounding
        # at the magnitude of t0; that remainder is not a further step
        circle = make_circle()
        tf = t0 + steps * dt
        for method in (Method.RK4, Method.MCI):
            traj = integrate(circle.system, method, circle.y0, t0, tf, dt, p=2)
            assert traj.steps == steps
            assert np.all(np.diff(traj.times) > 0.0)
            assert traj.times[-1] == tf

    def test_time_grid_steps_are_positive_near_grid_points(self):
        circle = make_circle()
        for t0 in (0.0, -3.0, 1000.0, 1e6):
            for dt in (0.01, 1.0 / 3.0, 2.0 * np.pi / 128.0):
                for steps in (1, 2, 7, 20):
                    tf = t0 + steps * dt
                    for end in (np.nextafter(tf, -np.inf), tf, np.nextafter(tf, np.inf)):
                        traj = integrate(
                            circle.system, Method.EXPLICIT_EULER, circle.y0, t0, end, dt
                        )
                        assert traj.steps == steps
                        assert np.all(np.diff(traj.times) > 0.0)
                        assert traj.times[-1] == end

    def test_invariant_series_shape(self):
        circle = make_circle()
        traj = integrate(circle.system, Method.MCI, circle.y0, 0.0, 2.0, 0.5, p=2)
        assert list(traj.invariants) == ["H", "R"]
        for series in traj.invariants.values():
            assert series.shape == (traj.steps + 1,)

    def test_trajectory_metadata(self):
        circle = make_circle()
        tr_e = integrate(circle.system, Method.EXPLICIT_EULER, circle.y0, 0.0, 1.0, 0.5)
        assert tr_e.order is None
        assert tr_e.coefficients is None
        assert tr_e.newton_iterations is None
        # a short last step: element k spans times[k]..times[k+1] all the same;
        # the first and the short last step start cold, as the public steps
        # do, and the one between starts from the previous element
        for method, step in ((Method.MCI, mci_step), (Method.MGI, mgi_step)):
            tr_m = integrate(circle.system, method, circle.y0, 0.0, 1.2, 0.5, p=3)
            assert tr_m.order == 3
            assert tr_m.steps == 3
            assert tr_m.coefficients.shape == (tr_m.steps, 2, 4)
            assert tr_m.newton_iterations.shape == (tr_m.steps,)
            for k in range(tr_m.steps):
                t_a, t_b = tr_m.times[k], tr_m.times[k + 1]
                y_a = tr_m.states[:, k]
                if 0 < k < tr_m.steps - 1:
                    previous = tr_m.coefficients[k - 1]
                    coeffs, iterations = _driver_step(
                        circle.system, method, y_a, t_a, t_b - t_a, 3, previous
                    )
                else:
                    sol = step(circle.system, y_a, t_a, t_b - t_a, 3)
                    coeffs, iterations = sol.coefficients, sol.newton_iterations
                npt.assert_array_equal(tr_m.coefficients[k], coeffs)
                assert tr_m.newton_iterations[k] == iterations
            assert tr_m.dim == 2

    @pytest.mark.parametrize("q_rhs", [None, 7])
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_driver_builds_no_grids_and_equals_the_public_step(self, monkeypatch, method, q_rhs):
        # the driver solves each element straight into the packed store and the
        # public steps return the bare record; neither builds a grid. The public
        # steps start cold, so they must agree bitwise on the cold first and
        # short last steps, and the element solver started from the previous
        # element on every step between
        kep = get_problem("kepler")
        if method is Method.MGI or q_rhs is None:  # the pairing record, built once per order
            integrate(kep.system, method, kep.y0, 0.3, 0.5, 0.1, p=3, q_rhs=q_rhs)
        post_init = ElementGrid.__post_init__
        builds = []

        def counting(grid):
            builds.append(grid.p)
            return post_init(grid)

        monkeypatch.setattr(ElementGrid, "__post_init__", counting)
        if method is Method.MCI and q_rhs is not None:
            # q_rhs is a Galerkin setting: mci rejects it before any step
            with pytest.raises(ValueError, match="q_rhs"):
                integrate(kep.system, method, kep.y0, 0.3, 1.35, 0.1, p=3, q_rhs=q_rhs)
            assert builds == []
            return
        traj = integrate(kep.system, method, kep.y0, 0.3, 1.35, 0.1, p=3, q_rhs=q_rhs)
        assert builds == []
        assert traj.steps == 11 and traj.times[-1] - traj.times[-2] < 0.1  # a short last step
        for k in range(traj.steps):
            t_a, t_b = traj.times[k], traj.times[k + 1]
            y_a = traj.states[:, k]
            if 0 < k < traj.steps - 1:
                previous = traj.coefficients[k - 1]
                coeffs, iterations = _driver_step(
                    kep.system, method, y_a, t_a, t_b - t_a, 3, previous, q_rhs=q_rhs
                )
            else:
                if method is Method.MCI:
                    sol = mci_step(kep.system, y_a, t_a, t_b - t_a, 3)
                else:
                    sol = mgi_step(kep.system, y_a, t_a, t_b - t_a, 3, q_rhs=q_rhs)
                coeffs, iterations = sol.coefficients, sol.newton_iterations
            npt.assert_array_equal(traj.coefficients[k], coeffs)
            assert traj.newton_iterations[k] == iterations
        assert builds == []
        ElementGrid(3)  # the count sees a construction
        assert builds == [3]

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_element_store_is_packed_on_the_time_grid(self, method):
        pend = get_problem("pendulum")
        traj = integrate(pend.system, method, pend.y0, 0.0, 1.05, 0.1, p=2)
        coeffs = traj.coefficients
        assert coeffs.shape == (11, 2, 3)
        assert coeffs.dtype == np.float64
        assert traj.newton_iterations.shape == (11,)
        assert traj.newton_iterations.dtype.kind == "i"
        # each element starts from the state before it and ends on the next
        npt.assert_array_equal(coeffs[:, :, 0], traj.states[:, :-1].T)
        npt.assert_array_equal(coeffs[:, :, -1], traj.states[:, 1:].T)
        rk = integrate(pend.system, Method.RK4, pend.y0, 0.0, 1.05, 0.1)
        assert rk.coefficients is None
        assert rk.newton_iterations is None

    def test_rejects_a_method_name(self):
        circle = make_circle()
        with pytest.raises(TypeError, match="geodesy.Method"):
            integrate(circle.system, "mci", circle.y0, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("q_rhs", [0, 7, 14])
    @pytest.mark.parametrize(
        "method", [Method.MCI, Method.EXPLICIT_EULER, Method.SYMPLECTIC_EULER, Method.RK4]
    )
    def test_q_rhs_is_for_mgi_only(self, method, q_rhs):
        # rejected before the first step: the field is never called
        circle = make_circle()
        calls = []

        def field(y):
            calls.append(y)
            return circle.system.field(y)

        sys = dataclasses.replace(circle.system, field=field)
        with pytest.raises(ValueError, match=f"q_rhs applies to Method.MGI only, got q_rhs={q_rhs}"):
            integrate(sys, method, circle.y0, 0.0, 0.2, 0.1, p=2, q_rhs=q_rhs)
        assert calls == []

    def test_rejects_bad_arguments(self):
        circle = make_circle()
        with pytest.raises(ValueError):
            integrate(circle.system, Method.MCI, circle.y0, 0.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            integrate(circle.system, Method.MCI, circle.y0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(circle.system, Method.MCI, np.array([1.0, 2.0, 3.0]), 0.0, 1.0, 0.1)
        # non-finite times fail before the step count, naming the argument
        for t0, tf, dt, name in [
            (-np.inf, 1.0, 0.1, "t0"),
            (np.nan, 1.0, 0.1, "t0"),
            (0.0, np.inf, 0.1, "tf"),
            (0.0, np.nan, 0.1, "tf"),
            (0.0, 1.0, np.inf, "dt"),
            (0.0, 1.0, np.nan, "dt"),
            (np.inf, np.inf, 0.1, "t0"),
        ]:
            for method in (Method.MCI, Method.RK4):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    integrate(circle.system, method, circle.y0, t0, tf, dt)
        # so does a non-finite initial state, before the field is ever called
        def field(y):
            raise AssertionError("the field must not be called")

        sys = dataclasses.replace(circle.system, field=field)
        for y0 in ([np.inf, 0.0], [0.0, -np.inf], [np.nan, 1.0]):
            for method in Method:
                with pytest.raises(ValueError, match=r"^initial state must be finite, got \["):
                    integrate(sys, method, y0, 0.0, 1.0, 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize(
        "t0, tf, dt, names",
        [
            (0.0, 1e300, 1e-300, "t0=0.0, tf=1e+300, dt=1e-300"),
            (*np.array([0.0, 1e300, 1e-300]), "t0=0.0, tf=1e+300, dt=1e-300"),
            (-1e308, 1e308, 1e300, "t0=-1e+308, tf=1e+308, dt=1e+300"),
        ],
        ids=["quotient-overflows", "numpy-scalars", "span-overflows"],
    )
    def test_non_finite_step_count_is_rejected_up_front(self, method, t0, tf, dt, names):
        # (tf - t0) / dt overflows: a ValueError naming the three times, with no
        # overflow warning on the way and before the field is ever called
        circle = make_circle()

        def field(y):
            raise AssertionError("the field must not be called")

        sys = dataclasses.replace(circle.system, field=field)
        expected = rf"^too many steps: .* not finite for {re.escape(names)}$"
        with pytest.raises(ValueError, match=expected):
            integrate(sys, method, circle.y0, t0, tf, dt)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "name, method, p, tf, dt",
        [
            ("pendulum", Method.RK4, 2, 1e100, 1e-200),
            ("pendulum", Method.MCI, 2, 1e100, 1e-200),
            # 1e16 steps: times, Newton iterations and the invariant series alone would fit,
            # the (4, 64 n + 1) nodal record would not; at p = 27 it would fit, 2e16 not
            ("kepler", Method.MCI, 64, 1.0, 1e-16),
            ("kepler", Method.MGI, 27, 1.0, 5e-17),
        ],
    )
    def test_step_count_past_what_numpy_can_address_is_rejected_up_front(
        self, monkeypatch, name, method, p, tf, dt
    ):
        # a finite count whose records exceed 2**63 - 1 bytes: a ValueError naming
        # the three times, with no large allocation and no field call on the way
        spec = get_problem(name)

        def field(y):
            raise AssertionError("the field must not be called")

        sys = dataclasses.replace(spec.system, field=field)
        empty = np.empty

        def small_only(shape, *args, **kwargs):
            assert np.prod(shape, dtype=float) <= 1e6, f"allocates {shape}"
            return empty(shape, *args, **kwargs)

        geodesy.integrators._pairing(method, p, None)  # build the record outside the patch
        monkeypatch.setattr(np, "empty", small_only)
        expected = rf"^too many steps: t0=0\.0, tf={re.escape(repr(tf))}, dt={dt!r} give "
        with pytest.raises(ValueError, match=expected):
            integrate(sys, method, spec.y0, 0.0, tf, dt, p=p)

    def test_domain_violation_is_annotated(self):
        lv = get_problem("lotka-volterra")
        with pytest.raises(IntegrationError) as info:
            integrate(
                lv.system, Method.EXPLICIT_EULER, np.array([5.0, 0.5]), 0.0, 3.0, 0.3
            )
        assert info.value.step == 0
        assert info.value.time == 0.0

    def test_invariant_failure_is_annotated(self):
        # an invariant that raises on a recorded state fails like a step does
        circle = make_circle()

        def guarded(y):
            if y[1] < 0.0:
                raise DomainError("second component went negative")
            return float(y @ y)

        sys = OdeSystem(dim=2, field=circle.system.field, invariants=(("R", guarded),))
        y0 = np.array([0.0, 1.0])  # y(t) = (sin t, cos t): y[1] < 0 after t = pi/2
        with pytest.raises(IntegrationError, match="invariant 'R'") as info:
            integrate(sys, Method.RK4, y0, 0.0, 3.0, 0.5)
        assert info.value.step == 4
        assert info.value.time == 2.0
        assert isinstance(info.value.__cause__, DomainError)


class TestIntegrateSweep:
    """Random runs of integrate fail only through the library's own errors.

    Every problem and method, p = 1..8, dt log-uniform in [1e-3, 6], at most
    20 steps, from a perturbed initial state, under the suite's -W error: a
    run either raises GeodesyError or returns finite states. The one
    argument rejection the sweep can meet, symplectic Euler on a system
    without a separable partition, must raise its own ValueError; any other
    ValueError, such as numpy's on a shape mismatch, fails the test.
    """

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("name", problem_names())
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 8),
        log_dt=st.floats(np.log(1e-3), np.log(6.0)),
        span=st.floats(0.1, 20.0),
        shift=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
    )
    def test_fails_only_with_library_errors(self, name, method, p, log_dt, span, shift):
        spec = get_problem(name)
        dt = float(np.exp(log_dt))
        y0 = spec.y0 + np.array(shift[: spec.system.dim]) * (1.0 + np.abs(spec.y0))
        if method is Method.SYMPLECTIC_EULER and spec.system.partition is None:
            with pytest.raises(ValueError, match="^symplectic Euler needs a separable partition"):
                integrate(spec.system, method, y0, 0.0, span * dt, dt, p=p)
            return
        try:
            traj = integrate(spec.system, method, y0, 0.0, span * dt, dt, p=p)
        except GeodesyError:
            return
        assert 1 <= traj.steps <= 20
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    @pytest.mark.parametrize("name", problem_names())
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        p=st.integers(9, 64),
        log_dt=st.floats(np.log(1e-3), np.log(6.0)),
        span=st.floats(0.1, 20.0),
        shift=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
    )
    def test_high_orders_fail_only_with_library_errors(self, name, method, p, log_dt, span, shift):
        # the same contract above p = 8, where the driver's guess extrapolates
        # through 9 of the p + 1 nodes
        spec = get_problem(name)
        dt = float(np.exp(log_dt))
        y0 = spec.y0 + np.array(shift[: spec.system.dim]) * (1.0 + np.abs(spec.y0))
        q_rhs = default_qrhs(p) if method is Method.MGI else None
        try:
            traj = integrate(spec.system, method, y0, 0.0, span * dt, dt, p=p, q_rhs=q_rhs)
        except GeodesyError:
            return
        assert 1 <= traj.steps <= 20
        assert np.isfinite(traj.states).all()


def _no_warning(call):
    # call() under every warning shown and recorded; it must raise or return without one
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        try:
            return call()
        finally:
            assert shown == []


@st.composite
def _windows(draw):
    # (t0, dt, tf): t0 = 0 or +-10**e, dt 0.5 to 100 ulps of |t0| or 10**e, and tf after
    # 1 to 64 steps plus a fraction of one
    t0 = draw(st.sampled_from([0.0, -1.0, 1.0])) * 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):
        dt = draw(st.floats(0.5, 100.0)) * math.ulp(abs(t0))
    else:
        dt = 10.0 ** draw(st.integers(-320, 2))
    steps = draw(st.integers(1, 64)) + draw(st.sampled_from([0.0, 1e-11, 0.37]))
    return t0, dt, t0 + steps * dt


class TestFiniteOrRefused:
    """No run returns data that is not finite: an overflow is refused as a named error.

    Each call evaluates with floating-point exceptions ignored, so an overflow warns nowhere,
    under the suite's -W error or without it; a state or an invariant value it leaves that
    is not finite fails with the library's own error, which integrate annotates with the step.
    """

    def test_classical_state_that_overflows_names_the_step(self):
        circle = get_problem("circle").system
        with pytest.raises(IntegrationError) as err:
            _no_warning(
                lambda: integrate(circle, Method.EXPLICIT_EULER, [2e300, 0.0], 0.0, 1e300, 1e300)
            )
        assert str(err.value) == (
            "step 0 starting at t=0 failed: new state is not finite: [2e+300, -inf]"
        )
        assert (err.value.step, err.value.time) == (0, 0.0)
        assert isinstance(err.value.__cause__, EvaluationError)

    def test_invariant_that_overflows_names_the_state(self):
        # the states stay finite; I = (p^2 + q^2) / 2 overflows on the first of them
        harmonic = get_problem("harmonic").system
        with pytest.raises(IntegrationError) as err:
            _no_warning(lambda: integrate(harmonic, Method.MCI, [1e300, 0.0], 0.0, 0.3, 0.1, p=2))
        assert str(err.value) == (
            "invariant 'I' failed on the state at t=0 (step 0): value inf is not finite"
        )
        assert (err.value.step, err.value.time) == (0, 0.0)

    def test_invariant_series_names_the_first_state_that_is_not_finite(self):
        # one test per series: the first non-finite value is the state named, as for an
        # invariant that raises (test_invariant_failure_is_annotated)
        circle = make_circle()

        def guarded(y):
            return math.inf if y[1] < 0.0 else float(y @ y)

        sys = OdeSystem(dim=2, field=circle.system.field, invariants=(("R", guarded),))
        y0 = np.array([0.0, 1.0])  # y(t) = (sin t, cos t): y[1] < 0 after t = pi/2
        with pytest.raises(IntegrationError, match="^invariant 'R' failed on") as err:
            integrate(sys, Method.RK4, y0, 0.0, 3.0, 0.5)
        assert (err.value.step, err.value.time) == (4, 2.0)

    @pytest.mark.parametrize("step", [explicit_euler_step, symplectic_euler_step, rk4_step])
    def test_classical_step_refuses_a_result_that_is_not_finite(self, step):
        circle = get_problem("circle").system
        with pytest.raises(EvaluationError, match="is non-finite|is not finite"):
            _no_warning(lambda: step(circle, [2e300, 0.0], 0.0, 1e300))

    @pytest.mark.parametrize("path", ["mci_step", "mgi_step", "mci_residual", "mgi_residual"])
    def test_element_paths_refuse_a_field_that_overflows(self, path):
        # y1 (y2 - 2) overflows at y ~ 1e200
        lv = get_problem("lotka-volterra")
        y0 = lv.y0 * 1e200
        sol = ElementSolution(0.0, 0.1, np.tile(y0[:, None], 3))
        calls = {
            "mci_step": lambda: mci_step(lv.system, y0, 0.0, 0.1, 2),
            "mgi_step": lambda: mgi_step(lv.system, y0, 0.0, 0.1, 2),
            "mci_residual": lambda: mci_residual(lv.system, sol),
            "mgi_residual": lambda: mgi_residual(lv.system, sol, None),
        }
        with pytest.raises(EvaluationError, match="^vector field is non-finite at quadrature node"):
            _no_warning(calls[path])

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(problem_names()),
        method=st.sampled_from(list(Method)),
        p=st.integers(1, 64),
        scale=st.integers(-300, 300),
        shift=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
        t0_sign=st.sampled_from([-1.0, 0.0, 1.0]),
        t0_exponent=st.integers(-320, 300),
        dt_exponent=st.integers(-320, 300),
        steps=st.integers(1, 4),
    )
    def test_every_call_is_finite_or_refused(
        self, name, method, p, scale, shift, t0_sign, t0_exponent, dt_exponent, steps
    ):
        # integrate, the matching public step and sample_trajectory, with y0, t0 and dt
        # across the float range (1e-320 to 1e300): each returns finite values or raises
        # ValueError, TypeError or a GeodesyError, and none warns under -W error. About 4 ms
        # an example, most of them refused
        spec = get_problem(name)
        sys = spec.system
        y0 = (spec.y0 + np.array(shift[: sys.dim]) * (1.0 + np.abs(spec.y0))) * 10.0**scale
        t0, dt = t0_sign * 10.0**t0_exponent, 10.0**dt_exponent
        q_rhs = default_qrhs(p) if method is Method.MGI else None
        refused = (ValueError, TypeError, GeodesyError)
        try:
            traj = integrate(sys, method, y0, t0, t0 + steps * dt, dt, p=p, q_rhs=q_rhs)
        except refused:
            pass
        else:
            assert np.isfinite(traj.states).all()
            assert all(np.isfinite(series).all() for series in traj.invariants.values())
            try:
                dense = sample_trajectory(traj, np.linspace(traj.times[0], traj.times[-1], 7))
            except refused:
                pass
            else:
                assert np.isfinite(dense).all()
        steps_by_method = {
            Method.MCI: lambda: mci_step(sys, y0, t0, dt, p).coefficients,
            Method.MGI: lambda: mgi_step(sys, y0, t0, dt, p, q_rhs).coefficients,
            Method.EXPLICIT_EULER: lambda: explicit_euler_step(sys, y0, t0, dt),
            Method.SYMPLECTIC_EULER: lambda: symplectic_euler_step(sys, y0, t0, dt),
            Method.RK4: lambda: rk4_step(sys, y0, t0, dt),
        }
        try:
            values = steps_by_method[method]()
        except refused:
            return
        assert np.isfinite(values).all()

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["circle", "pendulum"]),
        method=st.sampled_from(list(Method)),
        window=_windows(),
    )
    # 64 steps of 1 from 1e16, where t0 + k dt rounds: 23 steps had zero length
    @example(name="circle", method=Method.RK4, window=(1e16, 1.0, 1e16 + 64))
    # an element run whose last step's half-length, 1e-312, has no finite reciprocal: it
    # raised a bare ValueError after integrating three steps
    @example(name="circle", method=Method.MCI, window=(0.0, 1e-300, 3e-300 + 2e-312))
    def test_every_step_has_positive_length_or_the_run_is_refused_up_front(
        self, name, method, window
    ):
        # t0, dt and tf from across the float range, down to dt below one ulp of t0: each run
        # returns times that increase strictly, raises ValueError before any field call, or
        # fails as a GeodesyError
        spec = get_problem(name)
        sys, calls = _counting(spec.system)
        t0, dt, tf = window
        try:
            traj = integrate(sys, method, spec.y0, t0, tf, dt)
        except GeodesyError:
            return
        except ValueError:
            assert calls["field"] == 0
            return
        assert (traj.times[0], traj.times[-1]) == (t0, tf)
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize(
        "entry, what, kind",
        [
            # the complex cases keep their entry's name as id
            pytest.param(entry, what, kind, id=entry if kind == "complex" else f"{entry}-{kind}")
            for kind in ("complex", "str", "object")
            for entry, what in [
                ("integrate", "initial state"),
                ("mci_step", "initial state"),
                ("rk4_step", "initial state"),
                ("ElementSolution", "values"),
                ("sample_trajectory", "sample times"),
                ("newton_solve", "x0"),
                ("legendre_eval", "x"),
                ("nodal_eval_all", "x"),
                ("nodal_deriv_all", "x"),
                ("NodalBasis", "nodes"),
                ("ButcherTableau", "a"),
            ]
        ],
    )
    def test_complex_values_are_refused_not_truncated(self, entry, what, kind):
        # a float conversion would keep the real parts alone, with a ComplexWarning:
        # newton_solve(lambda x: x - 1.0, [0.5 + 1j]) returned x = [1.]; it parsed numeric
        # strings, so integrate(pend, MCI, ["0", "1.5"], ...) ran, and converted object
        # values one by one. Each is refused by one rule, naming the dtype; the records that
        # keep a copy (here an exact-rational tableau) name the field
        pend = get_problem("pendulum")
        sys, calls = _counting(pend.system)
        traj = integrate(pend.system, Method.MCI, pend.y0, 0.0, 1.0, 0.1)
        y0 = {"complex": [1j, 1.5], "str": ["0", "1.5"], "object": [Fraction(0), 1.5]}[kind]
        time = {"complex": [0.5 + 0j], "str": ["0.5"], "object": [Fraction(1, 2)]}[kind]
        points = np.array(y0)
        basis = NodalBasis([-1.0, 0.0, 1.0])
        entries = {
            "integrate": lambda: integrate(sys, Method.MCI, y0, 0.0, 1.0, 0.1),
            "mci_step": lambda: mci_step(sys, y0, 0.0, 0.1, 2),
            "rk4_step": lambda: rk4_step(sys, y0, 0.0, 0.1),
            "ElementSolution": lambda: ElementSolution(0.0, 1.0, np.tile(points[:, None], 3)),
            "sample_trajectory": lambda: sample_trajectory(traj, time),
            "newton_solve": lambda: newton_solve(sys.field, points),
            "legendre_eval": lambda: legendre_eval(3, points),
            "nodal_eval_all": lambda: nodal_eval_all(basis, points),
            "nodal_deriv_all": lambda: nodal_deriv_all(basis, points),
            "NodalBasis": lambda: NodalBasis(points),
            "ButcherTableau": lambda: ButcherTableau(np.tile(points, (2, 1)), [0.5] * 2, [0.5] * 2),
        }
        need = "a bool, integer or float" if kind == "object" else "real"
        with pytest.raises(ValueError) as err:
            _no_warning(entries[entry])
        assert str(err.value) == f"{what} must be {need}, got {points.dtype} values"
        assert calls["field"] == 0

    @pytest.mark.parametrize(
        "entry, what",
        [("integrate", "initial state"), ("rk4_step", "initial state"), ("newton_solve", "x0")],
    )
    def test_ragged_values_are_refused_naming_them(self, entry, what):
        # numpy's own refusal, "setting an array element with a sequence", named nothing
        pend = get_problem("pendulum")
        sys, calls = _counting(pend.system)
        entries = {
            "integrate": lambda: integrate(sys, Method.MCI, [[0.0, 1.0], [2.0]], 0.0, 1.0, 0.1),
            "rk4_step": lambda: rk4_step(sys, [[0.0, 1.0], [2.0]], 0.0, 0.1),
            "newton_solve": lambda: newton_solve(sys.field, [[0.5], [1.0, 2.0]]),
        }
        with pytest.raises(ValueError) as err:
            _no_warning(entries[entry])
        assert str(err.value) == f"{what} is ragged, which forms no array"
        assert calls["field"] == 0

    @pytest.mark.parametrize("action", ["always", "error"])
    @pytest.mark.parametrize(
        "entry, who",
        [
            ("integrate-mci", "vector field"),
            ("integrate-mgi", "vector field"),
            ("integrate-rk4", "vector field"),
            ("integrate-mci-later", "vector field"),
            ("integrate-mgi-later", "vector field"),
            ("integrate-rk4-later", "vector field"),
            ("integrate-pointwise", "vector field"),
            ("integrate-hamiltonian", "vector field"),
            pytest.param(
                "integrate-mci-invariant",
                "invariant 'I' on the 11 recorded states",
                id="integrate-mci-invariant",
            ),
            pytest.param(
                "integrate-rk4-invariant",
                "invariant 'I' on the 11 recorded states",
                id="integrate-rk4-invariant",
            ),
            ("stage-jacobian", "jacobian"),
            ("newton_solve", "residual"),
            ("newton_solve-jacobian", "jacobian"),
            ("forward-difference-probe", "residual"),
            ("reduce0", "sample"),
            ("reduce1", "density"),
        ],
    )
    def test_complex_outputs_are_refused_naming_the_callable(self, entry, who, action):
        # a float conversion of a callable's output would keep the real parts alone, with a
        # ComplexWarning: y' = (1 + 1j) y ran as y' = y, and x - (1 + 2j) = 0 solved to x = 1.
        # Refused with every warning shown and with warnings as errors, as a ValueError; inside
        # integrate it is the cause of an IntegrationError naming the step, a later one for a
        # field that turns complex only past y = 1.5, except for an invariant series, refused
        # after the run, naming the invariant
        grows = OdeSystem(dim=1, field=lambda y: (1 + 1j) * y)
        later = OdeSystem(dim=1, field=lambda y: (1 + 1j) * y if y.max() > 1.5 else y)
        hamiltonian = OdeSystem(dim=2, field=hamiltonian_vector_field(lambda y: (1 + 1j) * y))
        invariant = OdeSystem(dim=1, field=lambda y: -y, invariants=(("I", lambda y: 1 + 1j),))
        complex_jacobian = OdeSystem(
            dim=1, field=lambda y: -y, jacobian=lambda y: np.full((y.shape[1], 1, 1), -1 + 0j)
        )

        def real_at_the_base_point(x):
            return x - 1.0 if x[0] == 0.5 else (x - 1.0) * (1 + 1j)

        entries = {
            "integrate-mci": lambda: integrate(grows, Method.MCI, [1.0], 0.0, 1.0, 0.1),
            "integrate-mgi": lambda: integrate(grows, Method.MGI, [1.0], 0.0, 1.0, 0.1),
            "integrate-rk4": lambda: integrate(grows, Method.RK4, [1.0], 0.0, 1.0, 0.1),
            "integrate-mci-later": lambda: integrate(later, Method.MCI, [1.0], 0.0, 1.0, 0.1),
            "integrate-mgi-later": lambda: integrate(later, Method.MGI, [1.0], 0.0, 1.0, 0.1),
            "integrate-rk4-later": lambda: integrate(later, Method.RK4, [1.0], 0.0, 1.0, 0.1),
            "integrate-pointwise": lambda: integrate(
                pointwise(grows), Method.MCI, [1.0], 0.0, 1.0, 0.1
            ),
            "integrate-hamiltonian": lambda: integrate(
                hamiltonian, Method.MCI, [1.0, 0.0], 0.0, 1.0, 0.1
            ),
            "integrate-mci-invariant": lambda: integrate(
                invariant, Method.MCI, [1.0], 0.0, 1.0, 0.1
            ),
            "integrate-rk4-invariant": lambda: integrate(
                invariant, Method.RK4, [1.0], 0.0, 1.0, 0.1
            ),
            "stage-jacobian": lambda: mci_step(complex_jacobian, [1.0], 0.0, 0.1, 2),
            "newton_solve": lambda: newton_solve(lambda x: x - (1 + 2j), [0.5]),
            "newton_solve-jacobian": lambda: newton_solve(
                lambda x: x - 1.0, [0.5], jacobian=lambda x: np.eye(1) + 0j
            ),
            # refused at the first probe, whose residual newton_solve converts as the base's
            "forward-difference-probe": lambda: newton_solve(real_at_the_base_point, [0.5]),
            # a numpy complex scalar was cut to its real part, a Python complex raised TypeError
            "reduce0": lambda: reduce0(
                lambda x: np.complex128(1j * x + 2), 2, CochainKind.PRIMAL0
            ),
            "reduce1": lambda: reduce1(lambda x: complex(1j * x + 2), 2),
        }
        inside = entry.startswith("integrate")
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter(action)
            with pytest.raises(IntegrationError if inside else ValueError) as err:
                entries[entry]()
        assert shown == []
        refusal = err.value.__cause__ if inside else err.value
        assert str(refusal) == f"{who} returned complex128 values, expected real values"
        if entry.endswith("invariant"):
            assert str(err.value) == str(refusal) and err.value.step is None
        elif inside:
            step = err.value.step
            assert step > 0 if entry.endswith("later") else step == 0
            where = f"step {step} starting at t={err.value.time:g}"
            assert str(err.value) == f"{where} failed: {refusal}"

    @pytest.mark.parametrize("method", [Method.MCI, Method.RK4])
    @pytest.mark.parametrize(
        "value, refusal",
        [
            (np.array([1.0, 2.0]), r"returned shape \(11, 2\), expected \(11,\)"),
            ("x", "returned <U1 values, expected real values"),
            (None, "returned object values, expected real values"),
        ],
        ids=["array", "str", "None"],
    )
    def test_invariant_values_are_refused_naming_the_invariant(self, method, value, refusal):
        # one conversion per series: numpy's truth-value ValueError or isfinite's TypeError
        # named no invariant
        sys = OdeSystem(dim=1, field=lambda y: -y, invariants=(("I", lambda y: value),))
        expected = f"^invariant 'I' on the 11 recorded states {refusal}$"
        with pytest.raises(IntegrationError, match=expected) as err:
            _no_warning(lambda: integrate(sys, method, [1.0], 0.0, 1.0, 0.1))
        assert isinstance(err.value.__cause__, EvaluationError)

    def test_ragged_pointwise_field_is_refused_naming_the_step(self):
        # the lift's stacking raised numpy's own ValueError, no GeodesyError, so no step was
        # named: past y[0] = 1.05 a column's rate has three entries, not two
        sys = pointwise(
            OdeSystem(dim=2, field=lambda y: np.ones(2) if y[0] < 1.05 else np.ones(3))
        )
        with pytest.raises(IntegrationError) as err:
            _no_warning(lambda: integrate(sys, Method.MCI, [1.0, 1.0], 0.0, 1.0, 0.1))
        refusal = err.value.__cause__
        assert isinstance(refusal, EvaluationError)
        assert str(refusal) == "vector field returned ragged values, which form no array"
        assert err.value.step == 0
        assert str(err.value) == f"step 0 starting at t=0 failed: {refusal}"

    def test_ragged_invariant_is_refused_naming_the_invariant(self):
        # the series' conversion raised numpy's own ValueError, naming no invariant
        invariant = ("I", lambda y: 1.0 if y[0] > 0.5 else [1.0, 2.0])
        sys = OdeSystem(dim=1, field=lambda y: -y, invariants=(invariant,))
        with pytest.raises(IntegrationError) as err:
            _no_warning(lambda: integrate(sys, Method.RK4, [1.0], 0.0, 1.0, 0.1))
        assert isinstance(err.value.__cause__, EvaluationError)
        assert str(err.value) == (
            "invariant 'I' on the 11 recorded states returned ragged values, which form no array"
        )
        assert err.value.step is None

    @pytest.mark.parametrize(
        "method, block_only",
        [
            (Method.MCI, False),
            (Method.MGI, False),
            (Method.RK4, False),
            (Method.EXPLICIT_EULER, False),
            (Method.MCI, True),
        ],
        ids=["mci", "mgi", "rk4", "euler", "mci-block"],
    )
    def test_domain_check_result_that_is_no_reason_is_refused(self, method, block_only):
        # False read as a reason, so every state left the domain. Refused on the failure
        # path: for a state below 0.95 in a residual's block or a classical stage, for
        # explicit Euler's accepted state, and for a block whose columns all pass, whose
        # own result is the reason reported
        def check(y):
            if block_only:
                return False if y.ndim == 2 else None
            return False if y.min() < 0.95 else None

        sys = OdeSystem(dim=1, field=lambda y: -y, domain_check=check)
        with pytest.raises(IntegrationError, match="^step 0 starting at t=0 failed: ") as err:
            _no_warning(lambda: integrate(sys, method, [1.0], 0.0, 1.0, 0.1))
        assert isinstance(err.value.__cause__, EvaluationError)
        assert str(err.value.__cause__) == (
            "domain_check returned False, expected None or a reason string"
        )


class TestSampling:
    def test_samples_match_step_states_at_grid_times(self):
        pend = get_problem("pendulum")
        traj = integrate(pend.system, Method.MCI, pend.y0, 0.0, 2.0, 0.4, p=2)
        ys = sample_trajectory(traj, traj.times)
        npt.assert_allclose(ys, traj.states, rtol=0.0, atol=1e-12)

    def test_interior_error_scales_with_step_size(self):
        # Between grid points the order-p reconstruction is accurate to
        # O(dt^(p+1)); the measured envelope for p = 3 sits near 1e-3 * dt^4.
        circle = make_circle()
        ts = np.linspace(0.03, 1.97, 17)
        exact = np.stack([circle.system.exact_solution(t, circle.y0) for t in ts], axis=1)
        for dt in (0.5, 0.25):
            traj = integrate(
                circle.system, Method.MCI, circle.y0, 0.0, 2.0, dt, p=3, newton=TIGHT
            )
            ys = sample_trajectory(traj, ts)
            assert np.max(np.abs(ys - exact)) <= 0.01 * dt**4

    def test_rejects_times_outside_span(self):
        circle = make_circle()
        traj = integrate(circle.system, Method.MCI, circle.y0, 0.0, 1.0, 0.5, p=2)
        with pytest.raises(ValueError):
            sample_trajectory(traj, np.array([-0.5]))
        with pytest.raises(ValueError):
            sample_trajectory(traj, np.array([1.5]))
        # non-finite times are outside every window, as a scalar or in an array
        message = r"^sample times must be finite and lie within \[0\.0, 1\.0\]$"
        for bad in (np.nan, np.inf, -np.inf):
            for times in (bad, [0.2, bad], [[0.2, 0.4], [bad, 0.6]]):
                with pytest.raises(ValueError, match=message):
                    sample_trajectory(traj, times)
        # the end slack is the run rule's, 17.8 here, not 1e-12 (1 + |t0| + |tf|) = 2e4:
        # a time 100 steps before the start is outside the run
        far = integrate(circle.system, Method.MCI, circle.y0, 1e16, 1e16 + 1000.0, 100.0, p=2)
        window = r"^sample times must be finite and lie within \[1e\+16, 1\.0000000000001e\+16\]$"
        with pytest.raises(ValueError, match=window):
            sample_trajectory(far, [1e16 - 1e4])
        npt.assert_array_equal(sample_trajectory(far, [1e16 - 16.0])[:, 0], circle.y0)

    @pytest.mark.parametrize("times", [True, np.array([False, True])], ids=["scalar", "array"])
    def test_bool_sample_times_are_refused(self, times):
        # a bool is no time, as it is no scalar setting: sample_trajectory(traj, True) returned
        # the state at t = 1
        circle = make_circle()
        traj = integrate(circle.system, Method.MCI, circle.y0, 0.0, 1.0, 0.5, p=2)
        with pytest.raises(ValueError) as err:
            sample_trajectory(traj, times)
        assert str(err.value) == "sample times must be real numbers, got bool values"

    def test_rejects_trajectories_without_elements(self):
        circle = make_circle()
        traj = integrate(circle.system, Method.EXPLICIT_EULER, circle.y0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            sample_trajectory(traj, np.array([0.25]))

    def test_batched_samples_equal_per_point_evaluation_bitwise(self):
        kep = get_problem("kepler")
        traj = integrate(kep.system, Method.MGI, kep.y0, 0.0, 2.0, 0.1, p=5)
        t0, tf = traj.times[0], traj.times[-1]
        slack = 1e-12 * 0.1 + 8 * np.finfo(float).eps * max(abs(t0), abs(tf))  # the run rule's
        grids = [ElementGrid(5, a, b) for a, b in zip(traj.times[:-1], traj.times[1:])]
        starts = traj.times[:-1]

        def per_point(t):
            # the mimetic layer's own map from time to element values
            k = int(np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1))
            tau = grids[k].to_ref(min(max(t, t0), tf))
            return traj.coefficients[k] @ nodal_eval_all(grids[k].primal_basis, tau)

        rng = np.random.default_rng(5)
        ts = np.concatenate(
            [
                rng.uniform(t0, tf, 300),
                traj.times,
                [grid.t_end for grid in grids],
                [t0 - 0.5 * slack, tf + 0.5 * slack],
            ]
        )
        ts = rng.permutation(ts)
        ys = sample_trajectory(traj, ts)
        assert ys.shape == (4, len(ts))
        npt.assert_array_equal(ys, np.stack([per_point(t) for t in ts], axis=1))
        npt.assert_array_equal(sample_trajectory(traj, [t0 - 0.5 * slack])[:, 0], kep.y0)
        assert sample_trajectory(traj, np.empty(0)).shape == (4, 0)

    @pytest.mark.parametrize("steps, samples", [(50, 1601), (5000, 100)], ids=["dense", "sparse"])
    def test_the_gather_gives_the_bits_of_a_fancy_index(self, steps, samples):
        # dense-output's shape, more samples than elements, and a sparse one: the gather of
        # the elements must give the bits of coefficients[idx] on both
        circle = make_circle()
        traj = integrate(circle.system, Method.MCI, circle.y0, 0.0, steps * 0.1, 0.1, p=2)
        ts = np.random.default_rng(steps).uniform(0.0, steps * 0.1, samples)
        starts = traj.times[:-1]
        idx = np.clip(np.searchsorted(starts, ts, side="right") - 1, 0, steps - 1)
        tau = (ts - starts[idx]) / (0.5 * np.diff(traj.times))[idx] - 1.0
        L = nodal_eval_all(ElementGrid(2).primal_basis, tau)
        want = np.matmul(traj.coefficients[idx], L[:, :, None])[:, :, 0].T
        npt.assert_array_equal(sample_trajectory(traj, ts), want)

    def test_any_shape_of_times_equals_per_point_sampling_bitwise(self):
        kep = get_problem("kepler")
        traj = integrate(kep.system, Method.MCI, kep.y0, 0.0, 1.0, 0.1, p=4)
        ts = np.random.default_rng(9).uniform(0.0, 1.0, (3, 5))
        ts[0, :3] = traj.times[:3]
        flat = sample_trajectory(traj, ts.ravel())
        grid = sample_trajectory(traj, ts)
        assert grid.shape == (4, 3, 5)
        npt.assert_array_equal(grid, flat.reshape(4, 3, 5))
        for k, t in enumerate(ts.ravel()):
            one = sample_trajectory(traj, t)
            assert one.shape == (4,)
            npt.assert_array_equal(one, flat[:, k])
            npt.assert_array_equal(one, sample_trajectory(traj, float(t)))
        assert sample_trajectory(traj, np.empty((2, 0))).shape == (4, 2, 0)
        with pytest.raises(ValueError, match="within"):
            sample_trajectory(traj, 1.5)
