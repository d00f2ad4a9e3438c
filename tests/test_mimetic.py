"""Mimetic structure: incidence, reduction/reconstruction, Hodge pairings."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodesy.basis import gauss_rule
from geodesy.errors import EvaluationError
from geodesy.mimetic import (
    Cochain,
    CochainKind,
    ElementGrid,
    _reference_element,
    canonical_hodge_1to0,
    coboundary,
    dual_mass_matrix,
    galerkin_mass_dual,
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
        with pytest.raises(ValueError):
            incidence_matrix(0)

    def test_coboundary_differences(self):
        c = Cochain(CochainKind.PRIMAL0, np.array([3.0, 5.0, 9.0]))
        d = coboundary(c, incidence_matrix(2))
        assert d.kind is CochainKind.PRIMAL1
        npt.assert_array_equal(d.values, [2.0, 4.0])

    def test_coboundary_kind_check(self):
        c = Cochain(CochainKind.DUAL0, np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            coboundary(c, incidence_matrix(2))

    def test_coboundary_order_mismatch(self):
        c = Cochain(CochainKind.PRIMAL0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            coboundary(c, incidence_matrix(3))


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
        grid = ElementGrid.build(2, 1.0, 3.0)
        assert grid.sqrt_g == 1.0
        assert grid.to_time(-1.0) == 1.0 and grid.to_time(1.0) == 3.0
        assert grid.to_ref(2.0) == 0.0
        grid2 = ElementGrid.build(2, 0.0, 1.0)
        assert grid2.sqrt_g == 0.5

    def test_reversed_grid(self):
        grid = ElementGrid.build(2, 1.0, 0.0)
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
            ElementGrid.build(2, *bounds)
        assert message in str(err.value)

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_dual_interleaves_primal(self, p):
        grid = ElementGrid.build(p, 0.0, 1.0)
        assert np.all(grid.primal.nodes[:-1] < grid.dual.nodes)
        assert np.all(grid.dual.nodes < grid.primal.nodes[1:])

    @pytest.mark.parametrize("p", [1, 3])
    def test_grids_of_one_order_share_read_only_bases(self, p):
        a = ElementGrid.build(p, 0.0, 1.0)
        b = ElementGrid.build(p, 5.0, 4.5)
        for attr in ("primal", "dual", "primal_basis", "edge_basis", "dual_basis"):
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
        assert ElementGrid.build(p + 1, 0.0, 1.0).primal_basis is not a.primal_basis

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_reference_element_is_the_unit_grid_every_grid_shares(self, p):
        ref = _reference_element(p)
        assert isinstance(ref, ElementGrid)
        assert (ref.p, ref.t_start, ref.t_end, ref.sqrt_g) == (p, -1.0, 1.0, 1.0)
        grid = ElementGrid.build(p, 0.25, 0.75)
        for attr in ("primal", "dual", "primal_basis", "edge_basis", "dual_basis"):
            assert getattr(grid, attr) is getattr(ref, attr)


class TestReduction:
    def test_reduce0_primal(self):
        grid = ElementGrid.build(2, 0.0, 1.0)
        c = reduce0(lambda t: t, grid, CochainKind.PRIMAL0)
        npt.assert_allclose(c.values, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_reduce0_dual(self):
        grid = ElementGrid.build(2, 0.0, 1.0)
        c = reduce0(lambda t: t * t, grid, CochainKind.DUAL0)
        npt.assert_allclose(c.values, [1 / 3, 1 / 3], atol=1e-14)

    def test_reduce0_rejects_oneform_target(self):
        grid = ElementGrid.build(2, 0.0, 1.0)
        with pytest.raises(TypeError):
            reduce0(lambda t: t, grid, CochainKind.PRIMAL1)

    def test_reduce0_nonfinite(self):
        grid = ElementGrid.build(2, 0.0, 1.0)
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError):
            reduce0(lambda t: 1.0 / t, grid, CochainKind.PRIMAL0)

    def test_reduce1_linear_density(self):
        grid = ElementGrid.build(2, 0.0, 1.0)
        c = reduce1(lambda t: t, grid)
        assert c.kind is CochainKind.PRIMAL1
        npt.assert_allclose(c.values, [-0.5, 0.5], atol=1e-14)

    def test_reduce1_single_interval(self):
        grid = ElementGrid.build(1, 0.0, 1.0)
        c = reduce1(lambda t: t * t, grid)
        npt.assert_allclose(c.values, [2 / 3], atol=1e-14)

    def test_reduce1_nonfinite_names_the_point(self):
        # the message names the first sample point whose density is not
        # finite: on p=2, the first point of the mapped p + 4 Gauss rule on
        # the second sub-interval (0, 1) past 0.6
        grid = ElementGrid.build(2, 0.0, 1.0)
        points = 0.5 + 0.5 * gauss_rule(6).nodes
        bad = float(points[points > 0.6][0])
        with pytest.raises(EvaluationError) as info:
            reduce1(lambda t: np.nan if t > 0.6 else t, grid)
        assert str(info.value) == f"density is non-finite at node {bad!r}"

    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_commuting_diagram(self, p):
        # reducing the derivative equals differencing the reduction
        rng = np.random.default_rng(100 + p)
        grid = ElementGrid.build(p, 0.0, 2.0)
        E = incidence_matrix(p)
        for _ in range(20):
            poly, dpoly = random_poly(rng, rng.integers(0, p + 1))
            left = reduce1(dpoly, grid)
            right = coboundary(reduce0(poly, grid, CochainKind.PRIMAL0), E)
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
        grid = ElementGrid.build(p, 0.0, 1.0)
        left = reduce1(poly.deriv(), grid)
        right = coboundary(reduce0(poly, grid, CochainKind.PRIMAL0), incidence_matrix(p))
        # both sides round at the size of the monomials they sum
        scale = 1.0 + np.sum(np.abs(coeffs) * np.arange(1, degree + 2))
        npt.assert_allclose(left.values, right.values, rtol=0.0, atol=1e-14 * scale)


class TestReconstruction:
    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_consistency_primal0(self, p):
        rng = np.random.default_rng(200 + p)
        grid = ElementGrid.build(p, 0.0, 1.0)
        values = rng.uniform(-3.0, 3.0, p + 1)
        c = Cochain(CochainKind.PRIMAL0, values)
        back = reduce0(lambda x: reconstruct0(c, grid, x), grid, CochainKind.PRIMAL0)
        npt.assert_allclose(back.values, values, atol=1e-12)

    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_consistency_dual0(self, p):
        rng = np.random.default_rng(300 + p)
        grid = ElementGrid.build(p, 0.0, 1.0)
        values = rng.uniform(-3.0, 3.0, p)
        c = Cochain(CochainKind.DUAL0, values)
        back = reduce0(lambda x: reconstruct0(c, grid, x), grid, CochainKind.DUAL0)
        npt.assert_allclose(back.values, values, atol=1e-12)

    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_consistency_primal1(self, p):
        rng = np.random.default_rng(400 + p)
        grid = ElementGrid.build(p, 0.0, 1.0)
        values = rng.uniform(-3.0, 3.0, p)
        c = Cochain(CochainKind.PRIMAL1, values)
        back = reduce1(lambda x: reconstruct1(c, grid, x), grid)
        npt.assert_allclose(back.values, values, atol=1e-12)

    def test_reconstruct1_exact_derivative(self):
        # edge expansion of the differenced samples of x^2 on a cubic grid
        grid = ElementGrid.build(3, 0.0, 1.0)
        samples = reduce0(lambda x: x * x, grid, CochainKind.PRIMAL0)
        c = coboundary(samples, incidence_matrix(3))
        assert reconstruct1(c, grid, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_kind_checks(self):
        grid = ElementGrid.build(2, 0.0, 1.0)
        one = Cochain(CochainKind.PRIMAL1, np.array([1.0, 2.0]))
        zero = Cochain(CochainKind.PRIMAL0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(TypeError):
            reconstruct0(one, grid, 0.0)
        with pytest.raises(TypeError):
            reconstruct1(zero, grid, 0.0)

    def test_order_mismatch(self):
        grid = ElementGrid.build(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            reconstruct0(Cochain(CochainKind.PRIMAL0, np.array([1.0, 2.0, 3.0])), grid, 0.0)
        with pytest.raises(ValueError):
            reconstruct1(Cochain(CochainKind.PRIMAL1, np.array([1.0, 2.0])), grid, 0.0)


class TestHodge:
    def test_canonical_unit_metric(self):
        # samples of tau differenced then resampled: slope 1 everywhere
        grid = ElementGrid.build(2, 0.0, 2.0)  # sqrt_g = 1
        c = coboundary(reduce0(lambda t: t, grid, CochainKind.PRIMAL0), incidence_matrix(2))
        star = canonical_hodge_1to0(c, grid)
        assert star.kind is CochainKind.DUAL0
        npt.assert_allclose(star.values, [1.0, 1.0], atol=1e-13)

    def test_canonical_scales_with_metric(self):
        grid = ElementGrid.build(2, 0.0, 1.0)  # sqrt_g = 1/2
        c = coboundary(reduce0(lambda t: t, grid, CochainKind.PRIMAL0), incidence_matrix(2))
        star = canonical_hodge_1to0(c, grid)
        npt.assert_allclose(star.values, [2.0, 2.0], atol=1e-13)

    def test_galerkin_mass_values(self):
        grid = ElementGrid.build(2, 0.0, 2.0)
        npt.assert_allclose(galerkin_mass_dual(grid), [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("p", list(range(1, 9)))
    @pytest.mark.parametrize("span", [(0.0, 2.0), (1.0, 1.4)])
    def test_galerkin_mass_is_the_full_mass(self, p, span):
        grid = ElementGrid.build(p, *span)
        full = dual_mass_matrix(grid)
        off = full - np.diag(np.diag(full))
        assert np.max(np.abs(off)) <= 1e-13
        npt.assert_allclose(np.diag(full), galerkin_mass_dual(grid), atol=1e-12)
