"""The block contract of OdeSystem callables, for every problem and for pointwise."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geodesy import (
    EvaluationError,
    Method,
    OdeSystem,
    SeparablePartition,
    get_problem,
    hamiltonian_vector_field,
    integrate,
    pointwise,
    problem_names,
)

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

    def test_a_numpy_dimension_is_stored_as_a_python_int(self):
        system = OdeSystem(dim=np.int64(2), field=lambda y: y)
        assert type(system.dim) is int and system.dim == 2

    def test_copies_still_build(self):
        # dataclasses.replace re-runs the check on the copy's dimension
        base = get_problem("pendulum").system
        assert dataclasses.replace(base, jacobian=None).dim == base.dim
        assert pointwise(base).dim == base.dim
        with pytest.raises(ValueError, match="got 0"):
            dataclasses.replace(base, dim=0)


class TestPartition:
    @pytest.mark.parametrize(
        "indices, got",
        [
            ((0.0,), "an integer >= 0, got 0.0"),
            ((True,), "an integer >= 0, got True"),
            ((-1,), "an integer >= 0, got -1"),
            ((5,), "below OdeSystem.dim = 2, got 5"),
            ((2,), "below OdeSystem.dim = 2, got 2"),
        ],
    )
    def test_an_index_that_is_no_count_below_dim_is_refused_when_built(self, indices, got):
        # each raised numpy's IndexError inside symplectic Euler, which integrate let escape
        # naming no step
        with pytest.raises(ValueError) as err:
            OdeSystem(dim=2, field=lambda y: y, partition=SeparablePartition(p_indices=indices))
        assert str(err.value) == f"OdeSystem.partition.p_indices entry must be {got}"

    @pytest.mark.parametrize("p_indices", [(0, 0), np.array([1, 1])], ids=["tuple", "array"])
    def test_repeated_momenta_are_refused_when_built(self, p_indices):
        # the positions are the rest of the state, so a repeated momentum is the one way left
        # to name a block that does not split it
        part = SeparablePartition(p_indices=p_indices)
        with pytest.raises(ValueError) as err:
            OdeSystem(dim=2, field=lambda y: -y, partition=part)
        assert str(err.value) == (
            f"OdeSystem.partition.p_indices entries must be distinct, got {p_indices!r}"
        )

    @pytest.mark.parametrize("p_indices", [0, iter((0,)), np.array(1)], ids=["int", "iter", "0-d"])
    def test_a_block_that_is_no_sequence_is_refused_naming_it(self, p_indices):
        # an int or a 0-d array raised a bare TypeError: 'int' object is not iterable; an
        # iterator was built, and symplectic Euler then found it empty and left its block
        # unchanged
        part = SeparablePartition(p_indices=p_indices)
        with pytest.raises(ValueError) as err:
            OdeSystem(dim=2, field=lambda y: -y, partition=part)
        assert str(err.value) == (
            f"OdeSystem.partition.p_indices must be a sequence of indices, got {p_indices!r}"
        )

    def test_numpy_indices_are_taken(self):
        for p_indices in ((np.int64(1),), np.array([1])):
            part = SeparablePartition(p_indices=p_indices)
            assert OdeSystem(dim=2, field=lambda y: y, partition=part).partition is part

    def test_a_partition_names_only_its_momenta(self):
        # the positions were a second block, whose one admissible value was the rest of the
        # state
        assert [f.name for f in dataclasses.fields(SeparablePartition)] == ["p_indices"]
        with pytest.raises(TypeError):
            SeparablePartition(p_indices=(0,), q_indices=(1,))


class TestHamiltonianVectorField:
    def test_the_count_of_momenta_is_read_from_the_state(self):
        # m was passed in beside grad_h: m = 1 on a 4-entry state returned (-g1, -g2, -g3, g0)
        h = hamiltonian_vector_field(lambda y: y.copy())
        npt.assert_array_equal(h(np.array([1.0, 2.0])), [-2.0, 1.0])
        npt.assert_array_equal(h(np.array([1.0, 2.0, 3.0, 4.0])), [-3.0, -4.0, 1.0, 2.0])
        block = np.arange(8.0).reshape(4, 2)
        npt.assert_array_equal(h(block), np.concatenate([-block[2:], block[:2]]))

    @pytest.mark.parametrize("n", [1, 3])
    def test_a_state_of_odd_length_is_refused_naming_it(self, n):
        h = hamiltonian_vector_field(lambda y: y.copy())
        with pytest.raises(EvaluationError) as err:
            h(np.ones(n))
        assert str(err.value) == f"hamiltonian_vector_field got a state of odd length {n}"

    @pytest.mark.parametrize("grad_h", [3.0, None, "h"])
    def test_a_gradient_that_is_not_callable_is_refused_when_built(self, grad_h):
        # it built and raised a raw "'float' object is not callable" at its first call
        with pytest.raises(ValueError) as err:
            hamiltonian_vector_field(grad_h)
        assert str(err.value) == f"grad_h must be callable, got {grad_h!r}"


class TestFieldKinds:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"field": 3.0}, "OdeSystem.field must be callable, got 3.0"),
            ({"field": None}, "OdeSystem.field must be callable, got None"),
            ({"jacobian": 1}, "OdeSystem.jacobian must be None or callable, got 1"),
            ({"domain_check": "x"}, "OdeSystem.domain_check must be None or callable, got 'x'"),
            ({"exact_solution": ()}, "OdeSystem.exact_solution must be None or callable, got ()"),
            (
                {"partition": ((0,), (1,))},
                "OdeSystem.partition must be None or a geodesy.SeparablePartition, got"
                " ((0,), (1,))",
            ),
            (
                {"invariants": None},
                "OdeSystem.invariants must be an iterable of (label, callable) pairs, got None",
            ),
            (
                {"invariants": 2.0},
                "OdeSystem.invariants must be an iterable of (label, callable) pairs, got 2.0",
            ),
        ],
        ids=[
            "field", "field-none", "jacobian", "domain_check", "exact_solution", "partition",
            "invariants-none", "invariants-float",
        ],
    )
    def test_a_field_of_the_wrong_kind_is_refused_naming_it(self, changes, message):
        # a non-callable field built and failed at integrate's first call, a raw TypeError
        # naming no field and no step; a tuple partition raised a raw AttributeError, and
        # invariants=None a raw TypeError: 'NoneType' object is not iterable
        with pytest.raises(ValueError) as err:
            OdeSystem(**{"dim": 2, "field": lambda y: -y, **changes})
        assert str(err.value) == message


class TestInvariants:
    def test_pairs_with_distinct_labels_are_stored_as_a_tuple(self):
        f, g = (lambda y: y[0]), (lambda y: y[1])
        system = OdeSystem(dim=2, field=lambda y: -y, invariants=[("I", f), ["J", g]])
        assert system.invariants == (("I", f), ["J", g])

    def test_a_repeated_label_is_refused_naming_the_entry(self):
        # the Trajectory kept one series per label, the last one's, and said nothing
        g = lambda y: y[1]
        with pytest.raises(ValueError) as err:
            OdeSystem(dim=2, field=lambda y: -y, invariants=(("I", lambda y: y[0]), ("I", g)))
        assert str(err.value) == f"OdeSystem.invariants labels must be distinct, got {('I', g)!r}"

    @pytest.mark.parametrize(
        "entry",
        [
            (lambda y: y[0],),
            ("I",),
            ("I", 1.0),
            (1, lambda y: y[0]),
            ("I", lambda y: y[0], "extra"),
            "I",
        ],
        ids=["callable-alone", "label-alone", "no-callable", "no-string-label", "triple", "str"],
    )
    def test_an_entry_that_is_no_labelled_pair_is_refused_when_built(self, entry):
        # an unlabelled entry failed only after every step, unpacking it with a raw TypeError
        with pytest.raises(ValueError) as err:
            OdeSystem(dim=1, field=lambda y: -y, invariants=(entry,))
        assert str(err.value) == (
            "OdeSystem.invariants entry must be a (label, callable) pair with a string label,"
            f" got {entry!r}"
        )
        assert not isinstance(err.value, EvaluationError)

    def test_copies_still_build(self):
        # dataclasses.replace re-runs the check on the copy's invariants
        base = get_problem("kepler").system
        assert pointwise(base).invariants == base.invariants
        with pytest.raises(ValueError, match="labels must be distinct"):
            dataclasses.replace(base, invariants=base.invariants * 2)