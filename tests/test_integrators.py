"""Tests for the element integrators, baselines, and the integrate driver."""

import dataclasses
import functools
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodesy.integrators
from geodesy import (
    DomainError,
    ElementGrid,
    EvaluationError,
    ElementSolution,
    GeodesyError,
    IntegrationError,
    Method,
    NewtonConfig,
    OdeSystem,
    default_qrhs,
    explicit_euler_step,
    get_problem,
    integrate,
    make_circle,
    mci_residual,
    mci_step,
    mgi_residual,
    mgi_step,
    nodal_eval_all,
    pointwise,
    problem_names,
    rk4_step,
    sample_trajectory,
    symplectic_euler_step,
)
from geodesy.errors import NewtonNonConvergence
from geodesy.mimetic import _reference_element
from geodesy.newton import NewtonResult, forward_difference_jacobian
from helpers import column_forward_difference, einsum_field_block

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
        grid = ElementGrid.build(3, sol.t_start, sol.t_end)
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
        residual, jacobian, _ = _stage_callables(
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
        # the record's shape is checked against the system, not read from it
        pend = get_problem("pendulum")
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
    # one element solved as integrate solves it, started from previous
    coeffs = np.empty((sys.dim, p + 1))
    rec = geodesy.integrators._pairing(method, p, q_rhs)
    *_, solve = geodesy.integrators._element_callables(sys, coeffs, rec)
    return coeffs, solve(y0, t0, dt, NewtonConfig(), previous)


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
        grid = ElementGrid.build(p, 2.0, 2.6)
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
        grid = ElementGrid.build(p, 0.0, 0.5)
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
        with pytest.raises(ValueError, match=r"expected \(2, 3\).*geodesy\.systems\.pointwise"):
            mci_step(const, np.array([1.0, 2.0]), 0.0, 0.8, 3)
        with pytest.raises(ValueError, match=r"expected \(2, 12\).*geodesy\.systems\.pointwise"):
            integrate(const, Method.MGI, np.array([1.0, 2.0]), 0.0, 0.8, 0.4, p=1)

    def test_one_state_jacobian_fails_early(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = OdeSystem(dim=2, field=lambda y: A @ y, jacobian=lambda y: A)
        with pytest.raises(ValueError, match=r"expected \(2, 2, 2\).*geodesy\.systems\.pointwise"):
            mci_step(sys, np.array([1.0, 0.0]), 0.0, 0.5, 2)
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
        assert default_qrhs(1) == 12
        assert default_qrhs(4) == 18

    def test_default_quadrature_size_reaches_the_largest_rule_at_order_27(self):
        # p = 27 runs on the default 2p + 10 = 64 points; from p = 28 on the
        # default exceeds the largest rule and every entry point says so,
        # while an explicit q_rhs keeps its own message
        pend = get_problem("pendulum")
        sys, y0 = pend.system, pend.y0
        assert len(geodesy.integrators._pairing(Method.MGI, 27, None).nodes) == 64
        sol = mgi_step(sys, y0, 0.0, 0.1, 27)
        npt.assert_array_equal(mgi_residual(sys, sol, None), mgi_residual(sys, sol, 64))
        traj = integrate(sys, Method.MGI, y0, 0.0, 0.2, 0.1, p=27)
        npt.assert_array_equal(traj.coefficients[0], sol.coefficients)
        expected = (
            r"^order p=28 needs q_rhs: the default 2p \+ 10 = 66 exceeds 64; pass q_rhs <= 64$"
        )
        sol28 = mgi_step(sys, y0, 0.0, 0.1, 28, q_rhs=64)
        calls = [
            lambda q: integrate(sys, Method.MGI, y0, 0.0, 0.2, 0.1, p=28, q_rhs=q),
            lambda q: mgi_step(sys, y0, 0.0, 0.1, 28, q_rhs=q),
            lambda q: mgi_residual(sys, sol28, q),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=expected):
                call(None)
            with pytest.raises(ValueError, match=r"^q_rhs must lie in \[1, 64\], got 66$"):
                call(66)


def _stage_callables(monkeypatch, step):
    # the residual and analytic Jacobian a step hands to newton_solve
    seen = []
    solve = geodesy.integrators.newton_solve

    def spy(residual, x0, config, jacobian=None):
        seen.append((residual, jacobian, x0))
        return solve(residual, x0, config, jacobian=jacobian)

    monkeypatch.setattr(geodesy.integrators, "newton_solve", spy)
    step()
    (residual, jacobian, x0), = seen
    return residual, jacobian, x0


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
        residual, jacobian, x0 = _stage_callables(monkeypatch, step)
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

        monkeypatch.setattr(geodesy.integrators, "newton_solve", unsolved)
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
        _, jacobian, x0 = _stage_callables(
            monkeypatch, lambda: step(fd_system, lv.y0, 0.0, 0.3, 3)
        )
        assert jacobian is None
        npt.assert_array_equal(x0, np.repeat(lv.y0, 3))
        monkeypatch.undo()
        fd = step(fd_system, lv.y0, 0.0, 0.3, 3)
        analytic = step(lv.system, lv.y0, 0.0, 0.3, 3)
        npt.assert_allclose(fd.coefficients, analytic.coefficients, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 4])
    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("method, q_rhs", [("mci", "p"), ("mgi", "p"), ("mgi", "2p+10")])
    def test_field_term_matches_the_einsum_formula(self, monkeypatch, method, q_rhs, p, M):
        # random field Jacobians at the quadrature nodes; the step's Jacobian
        # is taken unsolved, so any Jh will do
        q = p if q_rhs == "p" else 2 * p + 10
        galerkin = method == "mgi"
        Jh = np.random.default_rng(10 * p + M).standard_normal((q, M, M))
        sys = OdeSystem(dim=M, field=lambda y: np.zeros_like(y), jacobian=lambda y: Jh)
        jacobians = []

        def unsolved(residual, x0, config, jacobian=None):
            jacobians.append(jacobian)
            return NewtonResult(x0, 0, 0.0)

        monkeypatch.setattr(geodesy.integrators, "newton_solve", unsolved)
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
        npt.assert_array_equal(rec.P, np.diag(_reference_element(p).dual.weights))

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

    @pytest.mark.parametrize("M", [1, 2, 4])
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
            bind, _, jacobian, _ = geodesy.integrators._element_callables(sys, coeffs, rec)
            sqrt_g = 0.3
            bind(0.0, sqrt_g)
            rate = (np.eye(M)[:, None, :, None] * rec.rate[:, None, :]).reshape(M * p, M * p)
            field = rec.weights.dot(Jh.reshape(q, M * M)).reshape(p, p, M, M)
            want = rate / sqrt_g - field.transpose(2, 0, 3, 1).reshape(M * p, M * p)
            got = jacobian(coeffs[:, 1:].reshape(-1))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_forward_differences_of_the_element_residual(self, monkeypatch):
        # on a Lotka-Volterra MCI step without an analytic Jacobian: M p
        # residual calls per Jacobian, and the column loop's bits
        lv = get_problem("lotka-volterra")
        fd_system = dataclasses.replace(lv.system, jacobian=None)
        p = 3
        residual, jacobian, x0 = _stage_callables(
            monkeypatch, lambda: mci_step(fd_system, lv.y0, 0.0, 0.3, p)
        )
        assert jacobian is None
        calls = []

        def counted(z):
            calls.append(1)
            return residual(z)

        z = x0 + 0.05 * np.random.default_rng(3).standard_normal(len(x0))
        r0 = residual(z)
        J = forward_difference_jacobian(counted, z, r0)
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
        monkeypatch.setattr(geodesy.integrators, "newton_solve", None)  # never reached
        with pytest.raises(ValueError) as info:
            step(pend.system, y0, t0, dt, 2)
        assert str(info.value) == message

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
    @pytest.mark.parametrize("t0, dt", [(0.0, 1e-320), (0.0, -1e-320), (3.0, 5e-309), (1.0, 1e-20)])
    def test_step_without_a_finite_reciprocal_length_names_dt(self, monkeypatch, step, t0, dt):
        # 1/sqrt(g) overflows (or sqrt(g) rounds to zero): rejected as a usage
        # error naming dt, not blamed on the Jacobian after a RuntimeWarning
        pend = get_problem("pendulum")
        monkeypatch.setattr(geodesy.integrators, "newton_solve", None)  # never reached
        with pytest.raises(ValueError, match=rf"^dt is too small .*dt={dt!r} at t0={t0!r}"):
            step(pend.system, pend.y0, t0, dt, 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    @pytest.mark.parametrize("tf", [1e-320, 1.0])
    def test_integrate_without_a_finite_reciprocal_length_names_dt(self, method, tf):
        pend = get_problem("pendulum")
        with pytest.raises(ValueError, match=r"^dt is too small .*dt=1e-320"):
            integrate(pend.system, method, pend.y0, 0.0, tf, 1e-320, p=2)


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

        def spy(sys, coeffs, pairing):
            records.append(pairing)
            return factory(sys, coeffs, pairing)

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
        residuals = []
        solve = geodesy.integrators.newton_solve

        def spy(residual, x0, config, jacobian=None):
            residuals.append((residual, x0))
            return solve(residual, x0, config, jacobian=jacobian)

        monkeypatch.setattr(geodesy.integrators, "newton_solve", spy)
        traj = integrate(pend.system, method, pend.y0, 0.0, 1.0, 0.1, p=2)
        coeffs = traj.coefficients
        assert len(residuals) == 10
        for arr in (coeffs, traj.newton_iterations):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        stored = coeffs.copy()
        for residual, x0 in residuals:
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
        residual, jacobian, x0 = _stage_callables(
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
        built, solved = [], []
        factory, solve = geodesy.integrators._element_callables, geodesy.integrators.newton_solve

        def counted(*args):
            built.append(args)
            return factory(*args)

        def spy(residual, x0, config, jacobian=None):
            solved.append((residual, jacobian))
            return solve(residual, x0, config, jacobian=jacobian)

        monkeypatch.setattr(geodesy.integrators, "_element_callables", counted)
        monkeypatch.setattr(geodesy.integrators, "newton_solve", spy)
        integrate(pend.system, method, pend.y0, 0.0, 1.0, 0.1, p=2)
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
        nodes = ElementGrid.build(p, 0.0, 2.0).primal.nodes
        for _ in range(5):
            poly = np.polynomial.Polynomial(rng.standard_normal(p + 1))
            values = poly(nodes)[None, :]
            want = poly(nodes[1:] + 2.0)[None, :]
            npt.assert_allclose(values @ ahead, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_extrapolation_up_to_order_8_reads_every_node(self, p):
        # the table through all p + 1 nodes, as built before the subset: bit for bit
        x = ElementGrid.build(p, -1.0, 1.0).primal.nodes
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
        nodes = ElementGrid.build(p, 0.0, 2.0).primal.nodes
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
        guesses = []
        solve = geodesy.integrators.newton_solve

        def spy(residual, x0, config, jacobian=None):
            guesses.append(x0.copy())
            return solve(residual, x0, config, jacobian=jacobian)

        monkeypatch.setattr(geodesy.integrators, "newton_solve", spy)
        p = 3
        traj = integrate(pend.system, method, pend.y0, 0.0, 1.05, 0.1, p=p)
        assert traj.steps == len(guesses) == 11
        ahead = geodesy.integrators._pairing(method, p, None).ahead
        for k, x0 in enumerate(guesses):
            if k in (0, traj.steps - 1):  # cold: y0 at every stage
                npt.assert_array_equal(x0, np.repeat(traj.states[:, k], p))
            else:
                npt.assert_array_equal(x0, (traj.coefficients[k - 1] @ ahead).reshape(-1))

    def test_a_last_step_of_full_length_is_guessed(self, monkeypatch):
        circle = make_circle()
        cold = []
        solve = geodesy.integrators.newton_solve

        def spy(residual, x0, config, jacobian=None):
            cold.append(np.all(x0.reshape(2, 2) == x0.reshape(2, 2)[:, :1]))
            return solve(residual, x0, config, jacobian=jacobian)

        monkeypatch.setattr(geodesy.integrators, "newton_solve", spy)
        traj = integrate(circle.system, Method.MCI, circle.y0, 0.3, 0.3 + 6 * 0.1, 0.1, p=2)
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
            ElementGrid.build(p, t0, t0 + dt), Yq, rec.nodes, lambda y: y[0] > 1.5
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
            ElementGrid.build(p, t0, t0 + dt), Yq, rec.nodes, lambda y: y[1] < 0.0
        )
        assert n > 0
        with pytest.raises(EvaluationError) as info:
            if method is Method.MCI:
                mci_step(sys, y0, t0, dt, p)
            else:
                mgi_step(sys, y0, t0, dt, p, q_rhs=q_rhs)
        assert str(info.value) == f"vector field is non-finite at {where}"

    @pytest.mark.parametrize("method", [Method.MCI, Method.MGI])
    def test_integrate_reports_the_node(self, method):
        sys = self._blows_up_above(1.9)
        with pytest.raises(IntegrationError) as info:
            integrate(sys, method, np.array([0.0, 2.0]), 0.0, 3.0, 0.1, p=2)
        cause = info.value.__cause__
        assert isinstance(cause, EvaluationError)
        assert str(cause).startswith("vector field is non-finite at quadrature node ")
        assert str(info.value).endswith(str(cause))


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
        build = ElementGrid.build.__func__
        builds = []

        def counting(cls, *args):
            builds.append(args)
            return build(cls, *args)

        monkeypatch.setattr(ElementGrid, "build", classmethod(counting))
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
            # 1e16 steps: times and states alone would fit, the (4, 65) elements would not
            ("kepler", Method.MCI, 64, 1.0, 1e-16),
            ("kepler", Method.MGI, 27, 1.0, 1e-16),
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
        # through 9 of the p + 1 nodes; MGI passes q_rhs where 2p + 10 exceeds 64
        spec = get_problem(name)
        dt = float(np.exp(log_dt))
        y0 = spec.y0 + np.array(shift[: spec.system.dim]) * (1.0 + np.abs(spec.y0))
        q_rhs = min(default_qrhs(p), 64) if method is Method.MGI else None
        try:
            traj = integrate(spec.system, method, y0, 0.0, span * dt, dt, p=p, q_rhs=q_rhs)
        except GeodesyError:
            return
        assert 1 <= traj.steps <= 20
        assert np.isfinite(traj.states).all()


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

    def test_rejects_trajectories_without_elements(self):
        circle = make_circle()
        traj = integrate(circle.system, Method.EXPLICIT_EULER, circle.y0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            sample_trajectory(traj, np.array([0.25]))

    def test_batched_samples_equal_per_point_evaluation_bitwise(self):
        kep = get_problem("kepler")
        traj = integrate(kep.system, Method.MGI, kep.y0, 0.0, 2.0, 0.1, p=5)
        t0, tf = traj.times[0], traj.times[-1]
        slack = 1e-12 * (1.0 + abs(t0) + abs(tf))
        grids = [ElementGrid.build(5, a, b) for a, b in zip(traj.times[:-1], traj.times[1:])]
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
