"""Benchmark problems: frozen invariant values, structure cross-checks."""

import numpy as np
import numpy.testing as npt
import pytest

from geodesy.errors import DomainError
from geodesy.problems import (
    ProblemSpec,
    get_problem,
    make_circle,
    make_harmonic_oscillator,
    make_kepler,
    make_lotka_volterra,
    make_pendulum,
    problem_names,
)
from geodesy.systems import hamiltonian_vector_field

from helpers import lotka_volterra_domain_any, lotka_volterra_field_stacked, rk4_reference


def test_registry():
    assert problem_names() == ("circle", "harmonic", "kepler", "lotka-volterra", "pendulum")
    for name in problem_names():
        prob = get_problem(name)
        assert prob.name == name
        assert prob.y0.shape == (prob.system.dim,)
        assert prob.dt_ref > 0


def test_every_problem_declares_an_invariant():
    # geodesy converge reports the drift of each problem's first invariant
    for name in problem_names():
        assert len(get_problem(name).invariant_labels) >= 1, name


def test_unknown_problem():
    with pytest.raises(KeyError):
        get_problem("brusselator")


@pytest.mark.parametrize("name", [["circle"], {"circle": 1}], ids=repr)
def test_a_name_that_is_no_string_is_an_unknown_problem(name):
    # a list or a dict raised the lookup's raw TypeError: unhashable type
    with pytest.raises(KeyError) as err:
        get_problem(name)
    known = ", ".join(problem_names())
    assert err.value.args == (f"unknown problem {name!r}; known problems: {known}",)


@pytest.mark.parametrize("y0", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]], ids=repr)
def test_a_spec_refuses_a_y0_of_another_shape_than_its_system(y0):
    # it built, and the CLI later refused the problem's own y0 as if the user had given it
    with pytest.raises(ValueError) as err:
        ProblemSpec("x", make_circle().system, y0, 0.1)
    assert str(err.value) == f"y0 must have shape (2,) of system.dim, got shape {np.shape(y0)}"


class TestFrozenValues:
    def test_circle(self):
        prob = make_circle()
        h = dict(prob.system.invariants)
        assert h["H"](prob.y0) == pytest.approx(2.0, abs=1e-15)
        assert h["R"](prob.y0) == pytest.approx(2.0, abs=1e-15)
        npt.assert_allclose(prob.system.field(np.array([2.0, 0.0])), [0.0, -2.0], atol=0)

    def test_lotka_volterra(self):
        prob = make_lotka_volterra()
        v = dict(prob.system.invariants)["V"]
        assert v(np.array([3.0, 3.0])) == pytest.approx(-6.0 + 3.0 * np.log(3.0), abs=1e-14)
        npt.assert_allclose(prob.system.field(np.array([3.0, 3.0])), [3.0, -6.0], atol=0)

    def test_pendulum(self):
        prob = make_pendulum()
        h = dict(prob.system.invariants)["H"]
        assert h(prob.y0) == pytest.approx(0.0, abs=1e-13)  # -10 cos(pi/2)
        assert h(np.array([1.0, 0.0])) == pytest.approx(0.5 - 10.0, abs=1e-14)
        npt.assert_allclose(
            prob.system.field(np.array([0.0, np.pi / 2.0])), [-10.0, 0.0], atol=1e-15
        )

    def test_kepler(self):
        prob = make_kepler()
        inv = dict(prob.system.invariants)
        assert inv["H"](prob.y0) == pytest.approx(-0.5, abs=1e-14)
        assert inv["L"](prob.y0) == pytest.approx(0.8, abs=1e-15)
        npt.assert_allclose(prob.system.field(prob.y0), [-6.25, 0.0, 0.0, 2.0], atol=1e-13)

    def test_harmonic(self):
        prob = make_harmonic_oscillator()
        i = dict(prob.system.invariants)["I"]
        assert i(prob.y0) == 1.0
        npt.assert_allclose(prob.system.field(np.array([1.0, 0.0])), [0.0, -1.0], atol=0)


class TestJacobians:
    @pytest.mark.parametrize("name", ["circle", "harmonic", "kepler", "lotka-volterra", "pendulum"])
    def test_matches_forward_differences(self, name):
        prob = get_problem(name)
        sys_ = prob.system
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(20):
            y = prob.y0 + rng.uniform(-0.2, 0.2, sys_.dim)
            if sys_.check_domain(y) is not None:
                continue
            J = sys_.jacobian(y)
            J_fd = np.empty_like(J)
            for j in range(sys_.dim):
                h = 1e-7 * (1.0 + abs(y[j]))
                yp = y.copy()
                yp[j] += h
                J_fd[:, j] = (sys_.field(yp) - sys_.field(y)) / h
            scale = max(1.0, float(np.max(np.abs(J))))
            assert np.max(np.abs(J - J_fd)) / scale <= 1e-5


class TestHamiltonianStructure:
    def test_pendulum_field_is_canonical(self):
        prob = make_pendulum()
        grad = lambda y: np.array([y[0], 10.0 * np.sin(y[1])])  # (dH/dp, dH/dq)
        h = hamiltonian_vector_field(grad)
        rng = np.random.default_rng(41)
        for _ in range(20):
            y = rng.uniform(-2.0, 2.0, 2)
            npt.assert_allclose(h(y), prob.system.field(y), atol=1e-13)

    def test_kepler_field_is_canonical(self):
        prob = make_kepler()

        def grad(y):
            p1, p2, q1, q2 = y
            r3 = (q1 * q1 + q2 * q2) ** 1.5
            return np.array([p1, p2, q1 / r3, q2 / r3])

        h = hamiltonian_vector_field(grad)
        rng = np.random.default_rng(43)
        for _ in range(20):
            y = prob.y0 + rng.uniform(-0.1, 0.1, 4)
            npt.assert_allclose(h(y), prob.system.field(y), atol=1e-12)

    def test_circle_field_is_reversed_canonical(self):
        # the printed rotation runs clockwise: the canonical flow of -H
        prob = make_circle()
        grad_minus_h = lambda y: np.array([-y[0], -y[1]])
        h = hamiltonian_vector_field(grad_minus_h)
        rng = np.random.default_rng(47)
        for _ in range(20):
            y = rng.uniform(-2.0, 2.0, 2)
            npt.assert_allclose(h(y), prob.system.field(y), atol=1e-14)

    def test_hamiltonian_vector_field_shape(self):
        h = hamiltonian_vector_field(lambda y: y.copy())
        npt.assert_allclose(h(np.array([1.0, 2.0, 3.0, 4.0])), [-3.0, -4.0, 1.0, 2.0], atol=0)


class TestPartitions:
    @pytest.mark.parametrize("name", ["circle", "harmonic", "kepler", "pendulum"])
    def test_index_split_separates_field(self, name):
        # the momentum rate field(y)[p] ignores the momenta and the position
        # rate field(y)[q] ignores the positions, bitwise
        prob = get_problem(name)
        sys_ = prob.system
        part = sys_.partition
        assert part is not None
        p_idx = list(part.p_indices)
        q_idx = [i for i in range(sys_.dim) if i not in p_idx]
        rng = np.random.default_rng(53)
        y = prob.y0[:, None] + rng.uniform(-0.2, 0.2, (sys_.dim, 20))
        assert sys_.check_domain(y) is None
        h = sys_.field(y)
        moved_p, moved_q = y.copy(), y.copy()
        moved_p[p_idx] += rng.uniform(-0.5, 0.5, (len(p_idx), 20))
        moved_q[q_idx] += rng.uniform(-0.1, 0.1, (len(q_idx), 20))
        npt.assert_array_equal(sys_.field(moved_p)[p_idx], h[p_idx])
        npt.assert_array_equal(sys_.field(moved_q)[q_idx], h[q_idx])

    @pytest.mark.parametrize(
        "name, q_idx", [("circle", [1]), ("harmonic", [0]), ("kepler", [2, 3]), ("pendulum", [1])]
    )
    def test_the_positions_are_the_rest_of_the_state(self, name, q_idx):
        # the position blocks each partition named when it stored them beside its momenta
        sys_ = get_problem(name).system
        p_idx = list(sys_.partition.p_indices)
        assert [i for i in range(sys_.dim) if i not in p_idx] == q_idx

    def test_lotka_volterra_not_separable(self):
        assert make_lotka_volterra().system.partition is None


class TestDomains:
    def test_lv_invariant_raises_outside_domain(self):
        v = dict(make_lotka_volterra().system.invariants)["V"]
        with pytest.raises(DomainError):
            v(np.array([0.0, 1.0]))

    def test_lv_domain_check(self):
        sys_ = make_lotka_volterra().system
        assert sys_.check_domain(np.array([1.0, 1.0])) is None
        assert sys_.check_domain(np.array([-1.0, 1.0])) is not None

    def test_kepler_collision_guard(self):
        sys_ = make_kepler().system
        assert sys_.check_domain(np.array([0.0, 0.0, 1e-7, 0.0])) is not None
        assert sys_.check_domain(np.array([0.0, 0.0, 0.4, 0.0])) is None

    def test_block_check_reports_first_failing_column(self):
        lv = make_lotka_volterra().system
        Y = np.array([[1.0, -1.0, 2.0, -3.0], [1.0, 1.0, 0.0, 1.0]])
        assert lv.check_domain(Y) == lv.check_domain(Y[:, 1])
        assert lv.check_domain(Y[:, 1]) != lv.check_domain(Y[:, 2])
        assert lv.check_domain(Y[:, [0]]) is None
        kep = make_kepler().system
        Y = np.zeros((4, 4))
        Y[2] = [0.4, 1e-7, 0.0, 0.5]
        assert kep.check_domain(Y) == kep.check_domain(Y[:, 1])
        assert kep.check_domain(Y[:, 1]) != kep.check_domain(Y[:, 2])

    def test_unguarded_problems(self):
        assert make_circle().system.check_domain(np.array([1e6, -1e6])) is None


def _same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLotkaVolterraKernels:
    # the one-output field and the one-reduction domain check against the
    # plain row expressions: the same entries, bit for bit, and the same reasons
    SPECIAL = [0.0, -0.0, -1.5, np.inf, -np.inf, np.nan, 1e308, 5e-324]

    @pytest.mark.parametrize("n", [1, 3, 18])
    def test_field_is_byte_equal_on_blocks(self, n):
        rng = np.random.default_rng(n)
        y = rng.uniform(-4.0, 8.0, (2, n))
        field = make_lotka_volterra().system.field
        assert _same_bytes(field(y), lotka_volterra_field_stacked(y))
        for a in self.SPECIAL:  # the specials in either row, one column at a time
            for row in (0, 1):
                z = y.copy()
                z[row, n // 2] = a
                with np.errstate(all="ignore"):  # inf * 0 and 1e308 * y overflow in both
                    assert _same_bytes(field(z), lotka_volterra_field_stacked(z)), (a, row)

    @pytest.mark.parametrize(
        "y",
        [
            np.array([3.0, 3.0]),
            np.array([0.7, -2.25]),
            np.array([-0.0, np.nan]),
            [3.0, 2.5],
            [[1.0, 2.0, 3.5], [0.5, 4.0, 6.0]],
            np.array([3, 5]),
            np.array([[1, -2, 3], [4, 5, 0]]),
        ],
        ids=["state", "negative", "signed-zero-nan", "list", "nested-list", "int", "int-block"],
    )
    def test_field_is_byte_equal_on_states_lists_and_ints(self, y):
        got = make_lotka_volterra().system.field(y)
        assert _same_bytes(got, lotka_volterra_field_stacked(np.asarray(y)))

    @pytest.mark.parametrize(
        "y",
        [
            np.array([3.0, 3.0]),
            np.array([[1.0, 2.0, 5e-324], [0.5, 4.0, 1e308]]),
            np.array([[1.0, np.nan, 2.0], [0.5, 4.0, 1.0]]),
            np.array([[1.0, 2.0], [np.nan, np.nan]]),
            np.empty((2, 0)),
            np.array([[1, 2, 3], [4, 5, 6]]),
            np.empty((2, 0), dtype=int),
        ],
        ids=["state", "admissible", "nan-column", "nan-row", "empty", "int", "empty-int"],
    )
    def test_domain_admits(self, y):
        check = make_lotka_volterra().system.domain_check
        assert lotka_volterra_domain_any(y) is None
        assert check(y) is None

    @pytest.mark.parametrize(
        "y",
        [
            np.array([0.0, 1.0]),
            np.array([1.0, -2.5]),
            np.array([-0.0, 1.0]),
            np.array([[1.0, 2.0, 0.0, -1.0], [0.5, 4.0, 1.0, 1.0]]),
            np.array([[1.0, 2.0, 3.0], [0.5, -np.inf, 0.0]]),
            np.array([[np.nan, 2.0, 3.0], [0.5, 1.0, -1e-300]]),
            np.array([3, 0]),
            np.array([[1, 2, 3], [4, -5, 0]]),
        ],
        ids=[
            "zero",
            "negative",
            "negative-zero",
            "third-column",
            "minus-inf",
            "nan-then-negative",
            "int-zero",
            "int-second-column",
        ],
    )
    def test_domain_names_the_first_failing_column(self, y):
        got = make_lotka_volterra().system.domain_check(y)
        assert got is not None
        assert got == lotka_volterra_domain_any(y)


class TestExactSolutions:
    def test_circle_against_fine_rk4(self):
        prob = make_circle()
        t = np.pi / 2.0
        ref = rk4_reference(prob.system.field, prob.y0, t)
        npt.assert_allclose(prob.system.exact_solution(t, prob.y0), ref, atol=1e-8)

    def test_harmonic_against_fine_rk4(self):
        prob = make_harmonic_oscillator()
        t = 1.7
        ref = rk4_reference(prob.system.field, prob.y0, t)
        npt.assert_allclose(prob.system.exact_solution(t, prob.y0), ref, atol=1e-8)

    def test_exact_solutions_preserve_invariants(self):
        for name in ("circle", "harmonic"):
            prob = get_problem(name)
            label, fn = prob.system.invariants[0]
            y = prob.system.exact_solution(2.3, prob.y0)
            assert fn(y) == pytest.approx(fn(prob.y0), abs=1e-13)
