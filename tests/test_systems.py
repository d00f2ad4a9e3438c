"""The block contract of OdeSystem callables, for every problem and for pointwise."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geodesy import Method, OdeSystem, get_problem, integrate, pointwise, problem_names

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=40, deadline=None)


def per_state_quartic():
    # every callable is written for one state: indexing and np.array literals
    # do not broadcast over a block
    def domain(y):
        return None if y[0] + y[1] < 3.0 else f"p + q = {y[0] + y[1]:.6g} is too large"

    return OdeSystem(
        dim=2,
        field=lambda y: np.array([-y[1] ** 3, y[0] ** 3]),
        jacobian=lambda y: np.array([[0.0, -3.0 * y[1] ** 2], [3.0 * y[0] ** 2, 0.0]]),
        domain_check=domain,
    )


SYSTEMS = {name: get_problem(name).system for name in problem_names()}
SYSTEMS["pointwise(quartic)"] = pointwise(per_state_quartic())

# values spread over admissible and inadmissible states: Lotka-Volterra needs
# positive populations, Kepler |q|^2 >= 1e-12, the quartic p + q < 3
COORD = st.one_of(
    st.floats(-3.0, 3.0, allow_subnormal=False),
    st.sampled_from([0.0, 1e-7, -1e-7]),
)


@st.composite
def blocks(draw, dim):
    n = draw(st.sampled_from([1, 3, 18]))
    return draw(hnp.arrays(float, (dim, n), elements=COORD))


def admissible(sys, Y):
    return [j for j in range(Y.shape[1]) if sys.check_domain(Y[:, j]) is None]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
class TestBlockContract:
    @PROPERTY
    @given(data=st.data())
    def test_field_columns_match_single_states(self, name, data):
        sys = SYSTEMS[name]
        Y = data.draw(blocks(sys.dim))
        cols = admissible(sys, Y)
        H = sys.field(Y[:, cols])
        assert H.shape == (sys.dim, len(cols))
        for k, j in enumerate(cols):
            h = sys.field(Y[:, j])
            assert h.shape == (sys.dim,)
            # Kepler's block power may differ from the scalar one by an ulp
            npt.assert_array_max_ulp(H[:, k], h, maxulp=4)

    @PROPERTY
    @given(data=st.data())
    def test_jacobian_entries_match_single_states(self, name, data):
        sys = SYSTEMS[name]
        Y = data.draw(blocks(sys.dim))
        cols = admissible(sys, Y)
        J = sys.jacobian(Y[:, cols])
        assert J.shape == (len(cols), sys.dim, sys.dim)
        for k, j in enumerate(cols):
            Jj = sys.jacobian(Y[:, j])
            assert Jj.shape == (sys.dim, sys.dim)
            # an entry such as -1/r^3 + 3 q1^2/r^5 can cancel, so its few-ulp
            # terms are measured against the matrix's largest entry
            assert np.max(np.abs(J[k] - Jj)) <= 16 * EPS * np.max(np.abs(Jj))

    @PROPERTY
    @given(data=st.data())
    def test_domain_check_names_the_first_failing_column(self, name, data):
        sys = SYSTEMS[name]
        Y = data.draw(blocks(sys.dim))
        reasons = [sys.check_domain(Y[:, j]) for j in range(Y.shape[1])]
        first = next((r for r in reasons if r is not None), None)
        assert sys.check_domain(Y) == first


def test_block_callables_are_exact_on_the_bundled_problems():
    # every bundled field except Kepler's power computes each column with the
    # same arithmetic as a single state, so those agree bitwise
    rng = np.random.default_rng(7)
    for name in ("circle", "harmonic", "lotka-volterra", "pendulum"):
        sys = SYSTEMS[name]
        Y = rng.uniform(0.1, 2.0, (sys.dim, 18))
        npt.assert_array_equal(sys.field(Y), np.stack([sys.field(y) for y in Y.T], axis=1))
        npt.assert_array_equal(sys.jacobian(Y), np.stack([sys.jacobian(y) for y in Y.T]))


class TestPointwise:
    def test_lifts_columns_bitwise(self):
        base = per_state_quartic()
        lifted = pointwise(base)
        Y = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 5))
        npt.assert_array_equal(lifted.field(Y), np.stack([base.field(y) for y in Y.T], axis=1))
        npt.assert_array_equal(lifted.jacobian(Y), np.stack([base.jacobian(y) for y in Y.T]))
        Y[:, 3] = [2.0, 2.0]
        Y[:, 4] = [2.5, 2.5]
        assert lifted.check_domain(Y) == base.check_domain(Y[:, 3])

    def test_single_states_pass_through(self):
        base = per_state_quartic()
        lifted = pointwise(base)
        y = np.array([0.5, -0.25])
        npt.assert_array_equal(lifted.field(y), base.field(y))
        npt.assert_array_equal(lifted.jacobian(y), base.jacobian(y))
        assert lifted.check_domain(np.array([2.0, 2.0])) == base.check_domain(np.array([2.0, 2.0]))

    def test_keeps_absent_callables_absent(self):
        lifted = pointwise(OdeSystem(dim=1, field=lambda y: np.array([1.0])))
        assert lifted.jacobian is None
        assert lifted.domain_check is None
        assert lifted.field(np.zeros((1, 4))).shape == (1, 4)

    def test_empty_block(self):
        lifted = pointwise(per_state_quartic())
        assert lifted.field(np.zeros((2, 0))).shape == (2, 0)
        assert lifted.jacobian(np.zeros((2, 0))).shape == (0, 2, 2)
        assert lifted.check_domain(np.zeros((2, 0))) is None


class TestDimension:
    @pytest.mark.parametrize("dim", [0, -1, 2.0, True, False, "2", None, np.float64(2.0)])
    def test_anything_but_a_positive_integer_is_rejected(self, dim):
        with pytest.raises(ValueError, match=r"OdeSystem\.dim must be an integer >= 1, got"):
            OdeSystem(dim=dim, field=lambda y: y)

    def test_a_system_with_no_unknowns_fails_before_integrating(self):
        # it used to reach Newton and fail there on an empty reduction
        with pytest.raises(ValueError, match=r"OdeSystem\.dim must be an integer >= 1, got 0"):
            integrate(OdeSystem(dim=0, field=lambda y: y), Method.MCI, [], 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("dim", [1, 3, np.int64(2), np.int32(4)])
    def test_integers_are_accepted(self, dim):
        assert OdeSystem(dim=dim, field=lambda y: y).dim == dim

    def test_copies_still_build(self):
        # dataclasses.replace re-runs the check on the copy's dimension
        base = get_problem("pendulum").system
        assert dataclasses.replace(base, jacobian=None).dim == base.dim
        assert pointwise(base).dim == base.dim
        with pytest.raises(ValueError, match="got 0"):
            dataclasses.replace(base, dim=0)
