"""Mimetic structure: incidence, reduction/reconstruction, Hodge pairings."""

import dataclasses
import decimal
import inspect
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodesy import basis
from geodesy.basis import edge_eval_all, gauss_rule, gll_rule
from geodesy.errors import EvaluationError
from geodesy.mimetic import (
    Cochain,
    CochainKind,
    ElementGrid,
    _dual_edges,
    _edge_table,
    canonical_hodge_1to0,
    coboundary,
    dual_mass_matrix,
    galerkin_mass_dual,
    galerkin_pairing,
    incidence_matrix,
    reconstruct0,
    reconstruct1,
    reduce0,
    reduce1,
)

from helpers import random_poly


class TestIncidence:
    def test_p2_matrix(self):
        E = incidence_matrix(2)
        npt.assert_array_equal(E, [[-1, 0], [1, -1], [0, 1]])

    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    def test_shape_and_column_sums(self, p):
        E = incidence_matrix(p)
        assert E.shape == (p + 1, p)
        assert not E.flags.writeable
        npt.assert_array_equal(E.sum(axis=0), np.zeros(p))

    def test_invalid_order(self):
        # the order rule of gll_rule, gauss_rule and ElementGrid: numpy's own errors named
        # no order, and 65 built a table that no element can use
        with pytest.raises(ValueError):
            incidence_matrix(0)
        with pytest.raises(TypeError, match="^order must be an integer, got bool$"):
            incidence_matrix(True)
        with pytest.raises(TypeError, match="^order must be an integer, got float$"):
            incidence_matrix(2.0)
        with pytest.raises(ValueError, match=r"^order must lie in \[1, 64\], got 65$"):
            incidence_matrix(65)

    def test_coboundary_differences(self):
        c = Cochain(CochainKind.PRIMAL0, np.array([3.0, 5.0, 9.0]))
        d = coboundary(c)
        assert d.kind is CochainKind.PRIMAL1
        npt.assert_array_equal(d.values, [2.0, 4.0])

    def test_coboundary_kind_check(self):
        c = Cochain(CochainKind.DUAL0, np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            coboundary(c)

    def test_coboundary_builds_its_own_incidence_matrix(self):
        # a matrix passed in beside the cochain was applied as given: 3 E gave [3, 6] for the
        # differences [1, 2] of [1, 2, 4]
        c = Cochain(CochainKind.PRIMAL0, np.array([1.0, 2.0, 4.0]))
        with pytest.raises(TypeError):
            coboundary(c, 3 * incidence_matrix(2))
        npt.assert_array_equal(coboundary(c).values, [1.0, 2.0])


class TestCochain:
    def test_validation(self):
        with pytest.raises(ValueError):
            Cochain(CochainKind.PRIMAL0, np.array([1.0]))  # needs >= 2 values
        with pytest.raises(ValueError):
            Cochain(CochainKind.DUAL0, np.array([]))

    def test_order(self):
        assert Cochain(CochainKind.PRIMAL0, np.arange(4.0)).order == 3
        assert Cochain(CochainKind.PRIMAL1, np.arange(3.0)).order == 3
        assert Cochain(CochainKind.DUAL0, np.arange(3.0)).order == 3

    def test_immutable(self):
        c = Cochain(CochainKind.DUAL0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            c.values[0] = 7.0


class TestElementGrid:
    def test_time_maps(self):
        grid = ElementGrid(2, 1.0, 3.0)
        assert grid.sqrt_g == 1.0
        assert grid.to_time(-1.0) == 1.0 and grid.to_time(1.0) == 3.0
        assert grid.to_ref(2.0) == 0.0
        grid2 = ElementGrid(2, 0.0, 1.0)
        assert grid2.sqrt_g == 0.5

    def test_reversed_grid(self):
        grid = ElementGrid(2, 1.0, 0.0)
        assert grid.sqrt_g == -0.5
        assert grid.to_time(1.0) == 0.0 and grid.to_time(-1.0) == 1.0

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((1.0, 1.0), "t_start=1.0, t_end=1.0 give half-length 0.0"),
            ((math.nan, 1.0), "t_start=nan, t_end=1.0 give half-length nan"),
            ((0.0, math.inf), "t_start=0.0, t_end=inf give half-length inf"),
            ((-math.inf, 0.0), "t_start=-inf, t_end=0.0 give half-length inf"),
            ((0.0, 1e-320), "t_start=0.0, t_end=1e-320 give half-length 5e-321"),
            ((-1e308, 1e308), "t_start=-1e+308, t_end=1e+308 give half-length inf"),
            ((math.inf, math.inf), "t_start=inf, t_end=inf give half-length nan"),
        ],
        ids=["zero", "nan", "inf-end", "inf-start", "subnormal", "overflowing", "both-inf"],
    )
    def test_zero_extent_rejected(self, bounds, message):
        # and every other pair of bounds that gives no finite sqrt_g with a finite reciprocal
        with pytest.raises(ValueError, match="element must have nonzero extent") as err:
            ElementGrid(2, *bounds)
        assert message in str(err.value)

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_dual_interleaves_primal(self, p):
        grid = ElementGrid(p, 0.0, 1.0)
        assert np.all(grid.primal.nodes[:-1] < grid.dual.nodes)
        assert np.all(grid.dual.nodes < grid.primal.nodes[1:])

    @pytest.mark.parametrize("p", [1, 3])
    def test_grids_of_one_order_share_read_only_bases(self, p):
        a = ElementGrid(p, 0.0, 1.0)
        b = ElementGrid(p, 5.0, 4.5)
        for attr in ("primal", "dual", "primal_basis", "dual_basis"):
            assert getattr(a, attr) is getattr(b, attr)
        shared = (
            a.primal.nodes,
            a.primal.weights,
            a.dual.nodes,
            a.dual.weights,
            a.primal_basis.nodes,
            a.primal_basis.bary_weights,
            a.dual_basis.nodes,
            a.dual_basis.bary_weights,
        )
        for arr in shared:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert (b.t_start, b.t_end) == (5.0, 4.5)
        assert ElementGrid(p + 1, 0.0, 1.0).primal_basis is not a.primal_basis

    def test_a_grid_is_its_order_and_bounds(self):
        # the rules and bases were init fields: an order-2 grid given order-3 ones built, and
        # its galerkin_mass_dual returned 3 weights
        init = [f.name for f in dataclasses.fields(ElementGrid) if f.init]
        assert init == ["p", "t_start", "t_end"]
        with pytest.raises(TypeError):
            ElementGrid(2, -1.0, 1.0, gll_rule(3))
        with pytest.raises(TypeError):
            ElementGrid(2, primal=gll_rule(3))
        grid = ElementGrid(np.int64(2), 0, 1)
        assert (grid.p, grid.t_start, grid.t_end) == (2, 0.0, 1.0)
        assert all(type(v) is cls for v, cls in zip((grid.p, grid.t_start), (int, float)))
        assert len(galerkin_mass_dual(grid)) == 2

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((2, 0.5, 0.5), ValueError, "element must have nonzero extent"),
            ((2, 1 + 2j, 3.0), ValueError, "t_start must be real, got complex128 values"),
            ((2.5, 0.0, 1.0), TypeError, "GLL order must be an integer, got float"),
            ((True, 0.0, 1.0), TypeError, "GLL order must be an integer, got bool"),
            ((65, 0.0, 1.0), ValueError, r"GLL order must lie in \[1, 64\], got 65"),
        ],
        ids=["zero-extent", "complex", "float-order", "bool-order", "order-65"],
    )
    def test_the_constructor_refuses_what_build_refuses(self, args, error, message):
        # each built a grid: bounds (0.5, 0.5) gave sqrt_g 0 and zero masses, complex bounds
        # complex masses
        for make in (ElementGrid, ElementGrid.build):
            with pytest.raises(error, match=message):
                make(*args)

    def test_an_order_is_checked_before_the_cache(self):
        # a cache keyed by the order takes 2.0 for an np.int64(2) already in it
        ElementGrid(np.int64(2))
        with pytest.raises(TypeError, match="GLL order must be an integer, got float"):
            ElementGrid(2.0)

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_reference_element_is_the_unit_grid_every_grid_shares(self, p):
        ref = ElementGrid(p)
        assert isinstance(ref, ElementGrid)
        assert (ref.p, ref.t_start, ref.t_end, ref.sqrt_g) == (p, -1.0, 1.0, 1.0)
        grid = ElementGrid(p, 0.25, 0.75)
        for attr in ("primal", "dual", "primal_basis", "dual_basis"):
            assert getattr(grid, attr) is getattr(ref, attr)


class TestReduction:
    def test_reduce0_primal(self):
        c = reduce0(lambda t: t, 2, CochainKind.PRIMAL0)
        npt.assert_allclose(c.values, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_reduce0_dual(self):
        c = reduce0(lambda t: t * t, 2, CochainKind.DUAL0)
        npt.assert_allclose(c.values, [1 / 3, 1 / 3], atol=1e-14)

    def test_reduce0_rejects_oneform_target(self):
        with pytest.raises(TypeError):
            reduce0(lambda t: t, 2, CochainKind.PRIMAL1)

    def test_reduce0_nonfinite(self):
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError):
            reduce0(lambda t: 1.0 / t, 2, CochainKind.PRIMAL0)

    def test_reduce1_linear_density(self):
        c = reduce1(lambda t: t, 2)
        assert c.kind is CochainKind.PRIMAL1
        npt.assert_allclose(c.values, [-0.5, 0.5], atol=1e-14)

    def test_reduce1_single_interval(self):
        c = reduce1(lambda t: t * t, 1)
        npt.assert_allclose(c.values, [2 / 3], atol=1e-14)

    def test_reduce1_nonfinite_names_the_point(self):
        # the message names the first sample point whose density is not
        # finite: on p=2, the first point of the mapped p + 4 Gauss rule on
        # the second sub-interval (0, 1) past 0.6
        points = 0.5 + 0.5 * gauss_rule(6).nodes
        bad = float(points[points > 0.6][0])
        with pytest.raises(EvaluationError) as info:
            reduce1(lambda t: np.nan if t > 0.6 else t, 2)
        assert str(info.value) == f"density is non-finite at node {bad!r}"

    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_commuting_diagram(self, p):
        # reducing the derivative equals differencing the reduction
        rng = np.random.default_rng(100 + p)
        for _ in range(20):
            poly, dpoly = random_poly(rng, rng.integers(0, p + 1))
            left = reduce1(dpoly, p)
            right = coboundary(reduce0(poly, p, CochainKind.PRIMAL0))
            npt.assert_allclose(left.values, right.values, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 12), data=st.data())
    def test_commuting_diagram_on_random_polynomials(self, p, data):
        # coboundary o reduce0 = reduce1 o d/dtau for every polynomial of degree <= p
        degree = data.draw(st.integers(0, p), label="degree")
        coeffs = np.array(
            data.draw(
                st.lists(st.floats(-10.0, 10.0), min_size=degree + 1, max_size=degree + 1),
                label="coefficients",
            )
        )
        poly = np.polynomial.Polynomial(coeffs)
        left = reduce1(poly.deriv(), p)
        right = coboundary(reduce0(poly, p, CochainKind.PRIMAL0))
        # both sides round at the size of the monomials they sum
        scale = 1.0 + np.sum(np.abs(coeffs) * np.arange(1, degree + 2))
        npt.assert_allclose(left.values, right.values, rtol=0.0, atol=1e-14 * scale)


class TestReconstruction:
    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_consistency_primal0(self, p):
        rng = np.random.default_rng(200 + p)
        values = rng.uniform(-3.0, 3.0, p + 1)
        c = Cochain(CochainKind.PRIMAL0, values)
        back = reduce0(lambda x: reconstruct0(c, x), p, CochainKind.PRIMAL0)
        npt.assert_allclose(back.values, values, atol=1e-12)

    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_consistency_dual0(self, p):
        rng = np.random.default_rng(300 + p)
        values = rng.uniform(-3.0, 3.0, p)
        c = Cochain(CochainKind.DUAL0, values)
        back = reduce0(lambda x: reconstruct0(c, x), p, CochainKind.DUAL0)
        npt.assert_allclose(back.values, values, atol=1e-12)

    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_consistency_primal1(self, p):
        rng = np.random.default_rng(400 + p)
        values = rng.uniform(-3.0, 3.0, p)
        c = Cochain(CochainKind.PRIMAL1, values)
        back = reduce1(lambda x: reconstruct1(c, x), p)
        npt.assert_allclose(back.values, values, atol=1e-12)

    def test_reconstruct1_exact_derivative(self):
        # edge expansion of the differenced samples of x^2 on a cubic grid
        samples = reduce0(lambda x: x * x, 3, CochainKind.PRIMAL0)
        c = coboundary(samples)
        assert reconstruct1(c, 0.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_reconstruct1_returns_a_density_of_degree_below_p_next_to_the_nodes(self, p):
        # 1 + t + t^2, cut to degree p - 1, read back at 1e-9 and 1e-6 from each interior
        # node, within 64 eps of sum_l |c_l e_l(x)|: at most 28 at p = 16, the edge functions'
        # own cumulative sum. The edges' derivatives once divided by the distance to a node
        # and missed by 3.0e-9 at p = 2 and 3.2e-7 at p = 8
        coeffs = [1.0, 1.0, 1.0][:p]
        density = lambda t: sum(a * t**k for k, a in enumerate(coeffs))
        c = reduce1(density, p)
        grid = ElementGrid(p)
        xs = (grid.primal.nodes[1:-1, None] + [-1e-6, -1e-9, 1e-9, 1e-6]).ravel()
        scale = np.abs(edge_eval_all(grid.primal_basis, xs)) @ np.abs(c.values)
        err = np.abs(reconstruct1(c, xs) - density(xs))
        assert np.all(err <= 64 * np.finfo(float).eps * scale)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset", [5e-324, -5e-324])
    def test_a_subnormal_distance_from_a_node_reads_the_node_s_value(self, offset):
        # 0 is the middle node at p = 2; reconstruct1 read nan and warned of an overflow there
        assert ElementGrid(2).primal.nodes[1] == 0.0
        zero = Cochain(CochainKind.PRIMAL0, [1.0, 2.0, 4.0])
        one = Cochain(CochainKind.PRIMAL1, [1.0, 2.0])
        assert reconstruct0(zero, offset) == reconstruct0(zero, 0.0) == 2.0
        assert reconstruct1(one, offset) == reconstruct1(one, 0.0) == 1.5

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 16, 64])
    @pytest.mark.parametrize("kind", [CochainKind.PRIMAL0, CochainKind.DUAL0])
    def test_reconstruct0_on_an_array_equals_its_scalar_calls_bitwise(self, p, kind):
        # an array of points raised numpy's "shapes (4,) and (2,4) not aligned"
        rng = np.random.default_rng(500 + p)
        grid = ElementGrid(p, 0.0, 1.0)
        n = p + 1 if kind is CochainKind.PRIMAL0 else p
        c = Cochain(kind, rng.uniform(-3.0, 3.0, n))
        xs = np.concatenate([rng.uniform(-1.0, 1.0, 40), grid.primal.nodes, grid.dual.nodes])
        got = reconstruct0(c, xs)
        assert got.shape == xs.shape
        npt.assert_array_equal(got, [reconstruct0(c, x) for x in xs])
        block = xs[:40].reshape(4, 10)
        npt.assert_array_equal(reconstruct0(c, block), got[:40].reshape(4, 10))
        assert np.ndim(reconstruct0(c, 0.3)) == 0

    @pytest.mark.parametrize("p", range(1, 17))
    def test_reconstruct1_on_an_array_equals_its_scalar_calls_bitwise(self, p):
        # one matrix-vector product over the points rounded differently from the scalar calls
        # at 15 of these 16 orders
        rng = np.random.default_rng(600 + p)
        grid = ElementGrid(p, 0.3, 1.7)
        c = Cochain(CochainKind.PRIMAL1, rng.uniform(-3.0, 3.0, p))
        xs = np.concatenate([rng.uniform(-1.0, 1.0, 40), grid.primal.nodes, grid.dual.nodes])
        got = reconstruct1(c, xs)
        assert got.shape == xs.shape
        npt.assert_array_equal(got, [reconstruct1(c, x) for x in xs])
        block = xs[:40].reshape(4, 10)
        npt.assert_array_equal(reconstruct1(c, block), got[:40].reshape(4, 10))
        assert np.ndim(reconstruct1(c, 0.3)) == 0

    def test_kind_checks(self):
        one = Cochain(CochainKind.PRIMAL1, np.array([1.0, 2.0]))
        zero = Cochain(CochainKind.PRIMAL0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(TypeError):
            reconstruct0(one, 0.0)
        with pytest.raises(TypeError):
            reconstruct1(zero, 0.0)

    def test_order_mismatch(self):
        # the reconstructions read their order from the cochain, so nothing is left there to
        # disagree; the one operator that puts a cochain on an element still can
        c = Cochain(CochainKind.PRIMAL1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="^cochain order 2 does not match grid order 3$"):
            canonical_hodge_1to0(c, ElementGrid(3, 0.0, 1.0))
        star = canonical_hodge_1to0(c, ElementGrid(2, 0.0, 1.0))
        # the Hodge applies the correctly rounded table; reconstruct1 takes the float route,
        # edge_eval_all, which differs from the table in the last bit at p = 2
        nearby = reconstruct1(c, ElementGrid(2).dual.nodes) / 0.5
        npt.assert_allclose(star.values, nearby, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize(
        "c", [Cochain(CochainKind.DUAL0, [1.0, 2.0]), Cochain(CochainKind.PRIMAL0, [1.0, 2.0, 3.0])]
    )
    def test_the_hodge_refuses_a_0_cochain_of_the_grid_s_order(self, c):
        # each passes the order check, so the kind check is what refuses it
        assert c.order == 2
        with pytest.raises(TypeError, match="^canonical_hodge_1to0 expects a primal 1-cochain"):
            canonical_hodge_1to0(c, ElementGrid(2))

    def test_the_hodge_of_a_unit_cochain_is_the_closed_form_at_p3(self):
        # oracle: the nodes in closed form, GLL -1, -+1/sqrt(5), 1 and Gauss 0, -+sqrt(3/5), and
        # l_k' by the product rule, in decimal at 50 digits. A unit cochain makes the Hodge's dot
        # product exact and sqrt(g) = 1/2 its division, so each column is the rounded e_l(tau_m)
        with localcontext() as ctx:
            ctx.prec = 50
            a, b = 1 / Decimal(5).sqrt(), (Decimal(3) / 5).sqrt()
            x, taus = [Decimal(-1), -a, a, Decimal(1)], [-b, Decimal(0), b]

            def dl(k, tau):
                others = [xj for j, xj in enumerate(x) if j != k]
                terms = (math.prod(tau - xj for xj in others if xj is not xi) for xi in others)
                return sum(terms) / math.prod(x[k] - xj for xj in others)

            want = [[float(-sum(dl(k, tau) for k in range(l + 1))) for l in range(3)] for tau in taus]
        assert want != np.transpose(want).tolist()  # so a transposed table cannot pass
        for l in range(3):
            unit = Cochain(CochainKind.PRIMAL1, np.eye(3)[l])
            star = canonical_hodge_1to0(unit, ElementGrid(3, 0.0, 1.0))
            assert (star.values / 2).tolist() == [row[l] for row in want]
        c = Cochain(CochainKind.PRIMAL1, np.array([1.0, -2.0, 0.5]))
        star = canonical_hodge_1to0(c, ElementGrid(3, 0.0, 1.0))
        nearby = reconstruct1(c, ElementGrid(3).dual.nodes) / 0.5
        npt.assert_allclose(star.values, nearby, rtol=4 * np.finfo(float).eps, atol=0)


class TestMetricFree:
    # reduction and reconstruction depend on the order alone, yet each took an ElementGrid
    # whose bounds it never read: reduce0(lambda t: t, ElementGrid(2, 10.0, 20.0), PRIMAL0)
    # gave [-1, 0, 1], the reference nodes, not the element's times [10, 15, 20]

    def test_the_operators_take_an_order_or_a_cochain_and_no_element(self):
        operators = (reduce0, reduce1, reconstruct0, reconstruct1)
        got = {f.__name__: list(inspect.signature(f).parameters) for f in operators}
        assert got == {
            "reduce0": ["f", "p", "target"],
            "reduce1": ["density", "p"],
            "reconstruct0": ["c", "x"],
            "reconstruct1": ["c", "x"],
        }

    @pytest.mark.parametrize("name", ["reduce0", "reduce1"])
    def test_a_reduction_checks_its_order_before_the_cache(self, name):
        # the reference cache takes 2.0 for the np.int64(2) already in it
        reduce = {
            "reduce0": lambda p: reduce0(lambda t: t, p, CochainKind.DUAL0),
            "reduce1": lambda p: reduce1(lambda t: t, p),
        }[name]
        npt.assert_array_equal(reduce(np.int64(2)).values, reduce(2).values)
        with pytest.raises(TypeError, match="^order p must be an integer, got float$"):
            reduce(2.0)
        with pytest.raises(TypeError, match="^order p must be an integer, got bool$"):
            reduce(True)
        with pytest.raises(ValueError, match=r"^order p must lie in \[1, 64\], got 65$"):
            reduce(65)

    @pytest.mark.parametrize("kind", list(CochainKind))
    def test_a_reconstruction_refuses_a_cochain_past_the_highest_order(self, kind):
        # the cochain itself refuses the order when it is built, by the rules' order rule
        n = 66 if kind is CochainKind.PRIMAL0 else 65
        reconstruct = reconstruct1 if kind is CochainKind.PRIMAL1 else reconstruct0
        with pytest.raises(ValueError, match=r"order must lie in \[1, 64\], got 65$"):
            reconstruct(Cochain(kind, np.ones(n)), 0.0)
        assert np.isfinite(reconstruct(Cochain(kind, np.ones(n - 1)), 0.0))  # order 64

    @pytest.mark.parametrize("kind", list(CochainKind))
    def test_a_cochain_past_the_highest_order_is_refused_when_built(self, kind):
        # it built, and reconstruct0 then said "GLL order must lie in [1, 64], got 65", a
        # rule the caller never passed
        n = 66 if kind is CochainKind.PRIMAL0 else 65
        with pytest.raises(ValueError) as err:
            Cochain(kind, np.ones(n))
        assert str(err.value) == "cochain order must lie in [1, 64], got 65"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: reduce0(3.0, 2, CochainKind.PRIMAL0), "f must be callable, got 3.0"),
            (lambda: reduce1(None, 2), "density must be callable, got None"),
        ],
        ids=["reduce0", "reduce1"],
    )
    def test_a_function_to_reduce_that_is_not_callable_is_refused_naming_it(self, call, message):
        # each raised a raw TypeError: 'float' object is not callable, at its first sample
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


class TestHodge:
    def test_canonical_unit_metric(self):
        # samples of tau differenced then resampled: slope 1 everywhere
        grid = ElementGrid(2, 0.0, 2.0)  # sqrt_g = 1
        c = coboundary(reduce0(lambda t: t, 2, CochainKind.PRIMAL0))
        star = canonical_hodge_1to0(c, grid)
        assert star.kind is CochainKind.DUAL0
        npt.assert_allclose(star.values, [1.0, 1.0], atol=1e-13)

    def test_canonical_scales_with_metric(self):
        grid = ElementGrid(2, 0.0, 1.0)  # sqrt_g = 1/2
        c = coboundary(reduce0(lambda t: t, 2, CochainKind.PRIMAL0))
        star = canonical_hodge_1to0(c, grid)
        npt.assert_allclose(star.values, [2.0, 2.0], atol=1e-13)

    def test_galerkin_mass_values(self):
        grid = ElementGrid(2, 0.0, 2.0)
        npt.assert_allclose(galerkin_mass_dual(grid), [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("span", [(0.0, 2.0), (1.0, 1.4), (2.0, 1.5)])
    def test_galerkin_pairing_integrates_against_the_dual_basis(self, p, span):
        # oracle: numpy's Legendre-Gauss rule and the dual Lagrange basis as plain products
        grid = ElementGrid(p, *span)
        f = np.polynomial.Polynomial(np.random.default_rng(p).standard_normal(p + 5))
        rule = gauss_rule(p + 3)  # exact through degree 2p + 5 >= deg(f ltilde_m) = 2p + 3
        got = galerkin_pairing(grid, rule) @ f(rule.nodes)
        assert got.shape == (p,)
        x, w = np.polynomial.legendre.leggauss(2 * p + 4)
        s = grid.dual.nodes
        for m in range(p):
            others = np.delete(s, m)
            ltilde = np.prod((x[:, None] - others) / (s[m] - others), axis=1)
            want = grid.sqrt_g * np.sum(w * f(x) * ltilde)
            assert got[m] == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("p", list(range(1, 9)))
    @pytest.mark.parametrize("span", [(0.0, 2.0), (1.0, 1.4)])
    def test_galerkin_mass_is_the_full_mass(self, p, span):
        grid = ElementGrid(p, *span)
        full = dual_mass_matrix(grid)
        off = full - np.diag(np.diag(full))
        assert np.max(np.abs(off)) <= 1e-13
        npt.assert_allclose(np.diag(full), galerkin_mass_dual(grid), atol=1e-12)


class TestDualEdges:
    # the canonical Hodge's table T[m, l] = e_l(tau_m), computed in decimal and rounded once;
    # edge_eval_all, the float route, is the independent check

    def test_the_table_is_cached_read_only_and_square(self):
        assert _dual_edges(3) is _dual_edges(3)
        assert _dual_edges(3).shape == (3, 3)
        assert not _dual_edges(3).flags.writeable

    def test_p2_is_its_closed_form_correctly_rounded(self):
        # GLL nodes -1, 0, 1 and Gauss nodes -+1/sqrt(3): e_1 = 1/2 - tau and e_2 = 1/2 + tau
        with localcontext() as ctx:
            ctx.prec = 50
            root = 1 / Decimal(3).sqrt()
            near, far = float(Decimal("0.5") + root), float(Decimal("0.5") - root)
        assert _dual_edges(2).tolist() == [[near, far], [far, near]]

    @pytest.mark.parametrize("p", range(1, 65))
    def test_the_float_route_keeps_to_its_bound(self, p):
        # |edge_eval_all - T| <= (p^2 / 8 + 4) eps max|T|: the float route's cumulative sum of
        # Lagrange derivatives cancels. Measured worst ratios to eps max|T|: 2.5 up to p = 4,
        # 5.1 to 8, 15.1 to 16, 47.5 to 32 and 277.5 to 64 (at p = 58)
        ref = ElementGrid(p)
        table = _dual_edges(p)
        floats = edge_eval_all(ref.primal_basis, ref.dual.nodes)
        bound = (p * p / 8 + 4) * np.finfo(float).eps * np.max(np.abs(table))
        assert np.max(np.abs(floats - table)) <= bound

    @pytest.mark.parametrize("p", range(1, 65))
    def test_the_table_is_its_routine_at_60_digits_bit_for_bit(self, p):
        # 40 digits leave every entry but the ties far from a rounding boundary: the nearest,
        # e_30(tau_15) at p = 39, lies 2.7e-5 ulp from one. So 20 more change no bit
        assert _dual_edges(p).tobytes() == _edge_table(p, 60).tobytes()

    @pytest.mark.parametrize("p", range(1, 65, 2))
    def test_the_dyadic_entries_at_tau_0_round_half_to_even(self, p):
        # oracle: e_1(0) = e_p(0) = P_{p-1}(0) / (p + 1), with P_k(0) = -(k - 1) / k P_{k-2}(0)
        # in exact rationals; Fraction's float is correctly rounded, a tie to even
        legendre = Fraction(1)
        for k in range(2, p, 2):
            legendre *= Fraction(1 - k, k)
        exact = legendre / (p + 1)
        n = (p - 1) // 2
        assert _dual_edges(p)[n, 0] == _dual_edges(p)[n, -1] == float(exact)
        if p == 63:  # the one tie: halfway between float(exact) and its neighbour
            ulp = Fraction(math.ulp(float(exact)))
            assert abs(exact - Fraction(float(exact))) == ulp / 2
            assert int(Fraction(float(exact)) / ulp) % 2 == 0

    def test_the_decimal_default_context_takes_no_part(self, monkeypatch):
        # Context copies every field it is not given from decimal.DefaultContext, and a Decimal
        # negated outside the routine's context rounds in the caller's. With the rules' caches
        # cleared, the rules and the table are computed again under both, changed
        rules = [(r.nodes.tobytes(), r.weights.tobytes()) for r in (gauss_rule(5), gll_rule(5))]
        monkeypatch.setattr(decimal.DefaultContext, "rounding", decimal.ROUND_DOWN)
        monkeypatch.setattr(decimal.DefaultContext, "Emax", 10)
        monkeypatch.setitem(decimal.DefaultContext.traps, decimal.Inexact, True)
        basis._decimal_rule.cache_clear()
        basis._rule.cache_clear()
        with localcontext() as caller:
            caller.prec, caller.rounding = 6, decimal.ROUND_FLOOR
            again = [(r.nodes.tobytes(), r.weights.tobytes()) for r in (gauss_rule(5), gll_rule(5))]
            assert _edge_table(5, 40).tobytes() == _dual_edges(5).tobytes()
        assert again == rules


class TestHighOrders:
    # every order ElementGrid takes: reduce1 asked for a 65-point Gauss rule from p = 61,
    # and dual_mass_matrix for a 2p-point one from p = 33, both refused as no order

    @pytest.mark.parametrize("p", [61, 64])
    def test_reduce1_of_a_constant_is_the_sub_interval_lengths(self, p):
        grid = ElementGrid(p, 0.0, 1.0)
        c = reduce1(lambda t: 1.0, p)
        npt.assert_array_equal(c.values, np.diff(grid.primal.nodes))
        linear = reduce1(lambda t: t, p)
        npt.assert_allclose(linear.values, 0.5 * np.diff(grid.primal.nodes**2), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", [33, 48, 61, 64])
    def test_dual_mass_matrix_is_diagonal(self, p):
        grid = ElementGrid(p, 1.0, 1.4)
        full = dual_mass_matrix(grid)
        off = full - np.diag(np.diag(full))
        assert np.max(np.abs(off)) <= 1e-15
        npt.assert_allclose(np.diag(full), galerkin_mass_dual(grid), rtol=0, atol=1e-15)
