"""Quadrature rules and bases: closed forms, exactness, and identities."""

import numpy as np
import numpy.testing as npt
import pytest

from geodesy import (
    ButcherTableau,
    Cochain,
    CochainKind,
    ElementSolution,
    ProblemSpec,
    make_circle,
)
from geodesy.basis import (
    EdgeBasis,
    NodalBasis,
    QuadratureRule,
    edge_eval_all,
    gauss_rule,
    gll_rule,
    integrate_quad,
    legendre_eval,
    nodal_deriv_all,
    nodal_eval_all,
)
from geodesy.errors import EvaluationError

from helpers import longdouble_rule, random_poly

# the long-double reference must resolve far below a double ulp; on a
# platform whose long double is only a double it cannot, so the check skips
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="np.longdouble is no wider than a double here, so it is no reference for node ulps",
)


def assert_matches_long_double(rule, n, lobatto):
    x, w = longdouble_rule(rule.nodes, n, lobatto)
    ulp = np.spacing(np.abs(x.astype(float)))
    node_ulps = np.abs(rule.nodes.astype(np.longdouble) - x) / ulp
    assert float(node_ulps.max()) <= 2.0
    assert float(np.max(np.abs(rule.weights - w))) <= 1e-15


class TestLegendre:
    def test_low_degrees(self):
        v, d = legendre_eval(0, 0.3)
        assert v == 1.0 and d == 0.0
        v, d = legendre_eval(1, 0.3)
        assert v == 0.3 and d == 1.0
        # P2(x) = (3x^2 - 1)/2
        v, d = legendre_eval(2, 0.5)
        npt.assert_allclose([v, d], [-0.125, 1.5], rtol=0, atol=1e-15)

    def test_endpoint_values(self):
        for n in (1, 2, 5, 10, 33):
            v1, d1 = legendre_eval(n, 1.0)
            vm, _ = legendre_eval(n, -1.0)
            assert v1 == pytest.approx(1.0, abs=1e-13)
            assert vm == pytest.approx((-1.0) ** n, abs=1e-13)
            # P_n'(1) = n(n+1)/2
            assert d1 == pytest.approx(n * (n + 1) / 2.0, rel=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            legendre_eval(-1, 0.0)

    def test_derivative_consistency(self):
        # derivative recurrence against a central difference
        rng = np.random.default_rng(11)
        for n in (3, 7, 12):
            for x in rng.uniform(-0.9, 0.9, 5):
                _, d = legendre_eval(n, x)
                h = 1e-6
                vp, _ = legendre_eval(n, x + h)
                vm, _ = legendre_eval(n, x - h)
                assert d == pytest.approx((vp - vm) / (2 * h), rel=1e-8, abs=1e-8)


class TestGaussRule:
    def test_closed_forms(self):
        r1 = gauss_rule(1)
        npt.assert_allclose(r1.nodes, [0.0], atol=1e-15)
        npt.assert_allclose(r1.weights, [2.0], atol=1e-15)
        r2 = gauss_rule(2)
        npt.assert_allclose(r2.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        npt.assert_allclose(r2.weights, [1.0, 1.0], atol=1e-15)
        r3 = gauss_rule(3)
        npt.assert_allclose(r3.nodes, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], atol=1e-15)
        npt.assert_allclose(r3.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)

    @needs_long_double
    @pytest.mark.parametrize("q", range(1, 65))
    def test_against_long_double_reference(self, q):
        # nodes within 2 ulp of the roots of P_q refined in long double
        assert_matches_long_double(gauss_rule(q), q, lobatto=False)

    @pytest.mark.parametrize("q", [1, 2, 4, 7, 12])
    def test_monomial_exactness(self, q):
        rule = gauss_rule(q)
        for d in range(2 * q):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            got = float(np.dot(rule.weights, rule.nodes**d))
            assert got == pytest.approx(exact, abs=1e-13)

    def test_weight_sums_and_ordering(self):
        for q in (1, 2, 3, 9, 17, 40, 64):
            rule = gauss_rule(q)
            assert abs(rule.weights.sum() - 2.0) <= 1e-13
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(np.abs(rule.nodes) < 1.0)

    def test_symmetry(self):
        for q in (2, 5, 10, 33):
            rule = gauss_rule(q)
            npt.assert_array_equal(rule.nodes, -rule.nodes[::-1])
            npt.assert_array_equal(rule.weights, rule.weights[::-1])

    def test_invalid_orders(self):
        for bad in (0, -3, 65):
            with pytest.raises(ValueError):
                gauss_rule(bad)
        with pytest.raises(TypeError):
            gauss_rule(2.5)

    def test_immutable(self):
        rule = gauss_rule(4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


class TestGLLRule:
    def test_closed_forms(self):
        r1 = gll_rule(1)
        npt.assert_allclose(r1.nodes, [-1.0, 1.0], atol=0)
        npt.assert_allclose(r1.weights, [1.0, 1.0], atol=1e-15)
        r2 = gll_rule(2)
        npt.assert_allclose(r2.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
        npt.assert_allclose(r2.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)
        r3 = gll_rule(3)
        s5 = 1 / np.sqrt(5)
        npt.assert_allclose(r3.nodes, [-1.0, -s5, s5, 1.0], atol=1e-15)
        npt.assert_allclose(r3.weights, [1 / 6, 5 / 6, 5 / 6, 1 / 6], atol=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3, 6, 11, 20])
    def test_monomial_exactness(self, p):
        rule = gll_rule(p)
        for d in range(2 * p):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            got = float(np.dot(rule.weights, rule.nodes**d))
            assert got == pytest.approx(exact, abs=1e-13)

    def test_endpoints_exact(self):
        for p in (1, 2, 7, 33, 64):
            rule = gll_rule(p)
            assert rule.nodes[0] == -1.0 and rule.nodes[-1] == 1.0
            assert abs(rule.weights.sum() - 2.0) <= 1e-13
            assert np.all(np.diff(rule.nodes) > 0)

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 16])
    def test_interleaves_gauss(self, p):
        # dual grid sits strictly between consecutive primal nodes
        primal = gll_rule(p).nodes
        dual = gauss_rule(p).nodes
        assert np.all(primal[:-1] < dual) and np.all(dual < primal[1:])

    @needs_long_double
    @pytest.mark.parametrize("p", range(1, 65))
    def test_against_long_double_reference(self, p):
        # interior nodes within 2 ulp of the roots of P_p' refined in long double
        assert_matches_long_double(gll_rule(p), p, lobatto=True)

    def test_interior_nodes_are_derivative_roots(self):
        for p in (4, 9, 16):
            interior = gll_rule(p).nodes[1:-1]
            _, d = legendre_eval(p, interior)
            assert np.max(np.abs(d)) <= 1e-11


class TestNodalBasis:
    def test_point_values(self):
        basis = NodalBasis.from_nodes([-1.0, 0.0, 1.0])
        npt.assert_allclose(nodal_eval_all(basis, 0.5), [-0.125, 0.75, 0.375], atol=1e-15)

    def test_kronecker_at_nodes_exact(self):
        basis = NodalBasis.from_nodes(gll_rule(5).nodes)
        for k, x in enumerate(basis.nodes):
            vals = nodal_eval_all(basis, x)
            expected = np.zeros(6)
            expected[k] = 1.0
            npt.assert_array_equal(vals, expected)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        for p in (1, 2, 4, 8):
            basis = NodalBasis.from_nodes(gll_rule(p).nodes)
            for x in rng.uniform(-1.0, 1.0, 50):
                assert abs(nodal_eval_all(basis, x).sum() - 1.0) <= 1e-12

    def test_interpolates_polynomials(self):
        rng = np.random.default_rng(13)
        for p in (1, 3, 6):
            basis = NodalBasis.from_nodes(gll_rule(p).nodes)
            poly, _ = random_poly(rng, p)
            samples = poly(basis.nodes)
            for x in rng.uniform(-1.0, 1.0, 20):
                got = float(np.dot(samples, nodal_eval_all(basis, x)))
                assert got == pytest.approx(float(poly(x)), abs=1e-12)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            NodalBasis.from_nodes([0.0, 0.0, 1.0])

    def test_single_node_constant(self):
        basis = NodalBasis.from_nodes([0.3])
        npt.assert_array_equal(nodal_eval_all(basis, -0.7), [1.0])
        npt.assert_array_equal(nodal_deriv_all(basis, -0.7), [0.0])


def scalar_nodal_eval(basis, x):
    # the per-point barycentric formula, kept as the reference for batches
    d = x - basis.nodes
    hit = d == 0.0
    if np.any(hit):
        return hit.astype(float)
    phi = basis.bary_weights / d
    return phi / np.sum(phi)


class TestNodalEvalBatched:
    @pytest.mark.parametrize("p", [1, 2, 8, 16, 64])
    @pytest.mark.parametrize("rule", [gll_rule, gauss_rule])
    def test_rows_equal_scalar_calls_bitwise(self, p, rule):
        basis = NodalBasis.from_nodes(rule(p).nodes)
        rng = np.random.default_rng(p)
        xs = rng.permutation(
            np.concatenate([rng.uniform(-1.0, 1.0, 200), basis.nodes, [-1.0, 1.0]])
        )
        batch = nodal_eval_all(basis, xs)
        reference = np.array([scalar_nodal_eval(basis, x) for x in xs])
        npt.assert_array_equal(batch, reference)
        npt.assert_array_equal(batch, [nodal_eval_all(basis, x) for x in xs])

    def test_output_shapes(self):
        basis = NodalBasis.from_nodes(gll_rule(3).nodes)
        assert nodal_eval_all(basis, 0.3).shape == (4,)
        assert nodal_eval_all(basis, np.array(0.3)).shape == (4,)
        assert nodal_eval_all(basis, np.linspace(-1.0, 1.0, 7)).shape == (7, 4)
        grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        vals = nodal_eval_all(basis, grid)
        assert vals.shape == (2, 3, 4)
        npt.assert_array_equal(vals[1, 2], nodal_eval_all(basis, grid[1, 2]))
        assert nodal_eval_all(basis, np.empty(0)).shape == (0, 4)


def scalar_nodal_deriv(basis, x):
    # the per-point derivative formulas, kept as the reference for batches
    nodes, w = basis.nodes, basis.bary_weights
    d = x - nodes
    hit = d == 0.0
    if np.any(hit):
        k = int(np.argmax(hit))
        out = np.zeros(len(nodes))
        for i in range(len(nodes)):
            if i != k:
                out[i] = (w[i] / w[k]) / (nodes[k] - nodes[i])
        out[k] = -np.sum(out)
        return out
    l = scalar_nodal_eval(basis, x)
    return l * (np.sum(l / d) - 1.0 / d)


class TestDerivativeAndEdgeBatched:
    @pytest.mark.parametrize("p", [1, 2, 8, 16, 64])
    @pytest.mark.parametrize("rule", [gll_rule, gauss_rule])
    def test_rows_equal_scalar_calls_bitwise(self, p, rule):
        basis = NodalBasis.from_nodes(rule(p).nodes)
        edge = EdgeBasis(basis)
        rng = np.random.default_rng(p)
        xs = rng.permutation(
            np.concatenate([rng.uniform(-1.0, 1.0, 200), basis.nodes, [-1.0, 0.0, 1.0]])
        )
        deriv = nodal_deriv_all(basis, xs)
        reference = np.array([scalar_nodal_deriv(basis, x) for x in xs])
        npt.assert_array_equal(deriv, reference)
        npt.assert_array_equal(deriv, [nodal_deriv_all(basis, x) for x in xs])
        edges = edge_eval_all(edge, xs)
        npt.assert_array_equal(edges, [-np.cumsum(row)[:-1] for row in reference])
        npt.assert_array_equal(edges, [edge_eval_all(edge, x) for x in xs])

    def test_output_shapes(self):
        basis = NodalBasis.from_nodes(gll_rule(3).nodes)
        edge = EdgeBasis(basis)
        grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        for fn, b, width in ((nodal_deriv_all, basis, 4), (edge_eval_all, edge, 3)):
            assert fn(b, 0.3).shape == (width,)
            assert fn(b, np.array(0.3)).shape == (width,)
            assert fn(b, np.linspace(-1.0, 1.0, 7)).shape == (7, width)
            vals = fn(b, grid)
            assert vals.shape == (2, 3, width)
            npt.assert_array_equal(vals[1, 2], fn(b, grid[1, 2]))
            assert fn(b, np.empty(0)).shape == (0, width)


class TestNodalDerivatives:
    def test_derivative_sums_vanish(self):
        rng = np.random.default_rng(5)
        for p in (2, 4, 8):
            basis = NodalBasis.from_nodes(gll_rule(p).nodes)
            for x in rng.uniform(-1.0, 1.0, 30):
                assert abs(nodal_deriv_all(basis, x).sum()) <= 1e-10
            for x in basis.nodes:
                assert abs(nodal_deriv_all(basis, x).sum()) <= 1e-12

    def test_differentiates_polynomials(self):
        rng = np.random.default_rng(17)
        for p in (2, 5):
            basis = NodalBasis.from_nodes(gll_rule(p).nodes)
            poly, dpoly = random_poly(rng, p)
            samples = poly(basis.nodes)
            points = np.concatenate([rng.uniform(-1, 1, 10), basis.nodes])
            for x in points:
                got = float(np.dot(samples, nodal_deriv_all(basis, x)))
                assert got == pytest.approx(float(dpoly(x)), abs=1e-10)


class TestEdgeBasis:
    def test_reproduces_interpolant_derivative(self):
        basis = NodalBasis.from_nodes(gll_rule(2).nodes)
        edge = EdgeBasis(basis)
        y = np.array([1.0, 0.0, 1.0])  # samples of x^2
        got = float(np.dot(np.diff(y), edge_eval_all(edge, 0.4)))
        assert got == pytest.approx(0.8, abs=1e-13)

    def test_exterior_derivative_identity(self):
        rng = np.random.default_rng(23)
        for p in (1, 2, 4, 8):
            basis = NodalBasis.from_nodes(gll_rule(p).nodes)
            edge = EdgeBasis(basis)
            y = rng.uniform(-2.0, 2.0, p + 1)
            for x in rng.uniform(-1.0, 1.0, 20):
                via_edges = float(np.dot(np.diff(y), edge_eval_all(edge, x)))
                via_nodal = float(np.dot(y, nodal_deriv_all(basis, x)))
                assert via_edges == pytest.approx(via_nodal, abs=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_interval_integrals_are_kronecker(self, p):
        # integral of e_i over the j-th sub-interval is delta_ij
        nodes = gll_rule(p).nodes
        edge = EdgeBasis(NodalBasis.from_nodes(nodes))
        quad = gauss_rule(p + 4)
        for j in range(p):
            a, b = nodes[j], nodes[j + 1]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            acc = np.zeros(p)
            for s, w in zip(quad.nodes, quad.weights):
                acc += w * edge_eval_all(edge, mid + half * s)
            acc *= half
            expected = np.zeros(p)
            expected[j] = 1.0
            npt.assert_allclose(acc, expected, atol=1e-12)

    def test_adjacent_difference_is_nodal_derivative(self):
        # e_k - e_{k+1} = l_k' pointwise
        rng = np.random.default_rng(29)
        basis = NodalBasis.from_nodes(gll_rule(4).nodes)
        edge = EdgeBasis(basis)
        for x in rng.uniform(-1.0, 1.0, 10):
            e = edge_eval_all(edge, x)
            dl = nodal_deriv_all(basis, x)
            diff = np.empty(5)
            diff[0] = -e[0]  # e_0 is identically zero by convention
            diff[1:-1] = e[:-1] - e[1:]
            diff[-1] = e[-1]
            npt.assert_allclose(-np.cumsum(dl)[:-1], e, atol=1e-10)
            npt.assert_allclose(diff[1:-1], dl[1:-1], atol=1e-10)


class TestIntegrateQuad:
    def test_polynomial(self):
        rule = gauss_rule(4)
        assert integrate_quad(rule, lambda x: x**6) == pytest.approx(2 / 7, abs=1e-14)

    def test_nonfinite_integrand(self):
        rule = gauss_rule(3)
        with pytest.raises(EvaluationError):
            integrate_quad(rule, lambda x: np.inf if x > 0 else 1.0)

    def test_nonfinite_integrand_names_its_node(self):
        # the first node with a non-finite value, printed as a plain float
        rule = gauss_rule(3)
        with pytest.raises(EvaluationError) as info:
            integrate_quad(rule, lambda x: np.inf if x > 0 else 1.0)
        assert str(info.value) == f"integrand is non-finite at node {float(rule.nodes[2])!r}"


# each record keeps its own read-only float copy of the array it is built
# from; the caller's array stays writable and the record does not see it change
_RECORDS = {
    "Cochain": lambda v: Cochain(CochainKind.PRIMAL0, v).values,
    "QuadratureRule": lambda v: QuadratureRule(v, v.copy()).nodes,
    "NodalBasis": lambda v: NodalBasis(v, v.copy()).nodes,
    "ProblemSpec": lambda v: ProblemSpec("circle", make_circle().system, v, 0.1).y0,
    "ButcherTableau": lambda v: ButcherTableau(np.array([[0.5]]), v[:1] + 0.5, v[:1]).c,
    "ElementSolution": lambda v: ElementSolution(0.0, 0.5, v[None, :]).coefficients,
}


@pytest.mark.parametrize("record", sorted(_RECORDS))
def test_records_copy_and_leave_the_callers_array_writable(record):
    values = np.array([0.5, 1.5])
    held = _RECORDS[record](values)
    assert values.flags.writeable
    assert not held.flags.writeable
    assert not np.shares_memory(held, values)
    values[0] = 9.0
    assert held.flat[0] == 0.5
