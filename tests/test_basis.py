"""Quadrature rules and bases: closed forms, exactness, and identities."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

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
    NodalBasis,
    QuadratureRule,
    _decimal_rule,
    _lagrange_product,
    edge_eval_all,
    gauss_rule,
    gll_rule,
    legendre_eval,
    nodal_deriv_all,
    nodal_eval_all,
)

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

    @pytest.mark.parametrize("n", [True, 2.0, "2", -1, np.float64(2.0), None])
    def test_a_degree_that_is_no_count_is_refused_naming_it(self, n):
        # True evaluated P_1, and 2.0 or "2" raised a TypeError naming no argument
        with pytest.raises(ValueError) as err:
            legendre_eval(n, 0.5)
        assert str(err.value) == f"Legendre degree must be an integer >= 0, got {n!r}"

    def test_the_degree_goes_past_max_order(self):
        # unlike an order, a degree past MAX_ORDER still evaluates
        v, d = legendre_eval(100, 1.0)
        assert v == pytest.approx(1.0, abs=1e-12)
        assert d == pytest.approx(100 * 101 / 2.0, rel=1e-12)
        v, _ = legendre_eval(np.int64(100), 0.5)
        assert v == legendre_eval(100, 0.5)[0]

    @pytest.mark.parametrize("n", [4097, 2**70, np.uint64(2**63)])
    def test_a_degree_past_its_bound_is_refused_at_once(self, n):
        # the recurrence takes n steps: 2**70 ran for ever
        with pytest.raises(ValueError) as err:
            legendre_eval(n, 0.5)
        assert str(err.value) == f"Legendre degree must lie in [0, 4096], got {int(n)}"

    def test_the_highest_degree_evaluates(self):
        v, d = legendre_eval(4096, 1.0)
        assert v == pytest.approx(1.0, abs=1e-9)
        assert d == pytest.approx(4096 * 4097 / 2.0, rel=1e-9)

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


def correctly_rounded(*values, root=False):
    # each exact rational, or its square root to 50 digits, rounded once to a float
    with localcontext() as ctx:
        ctx.prec = 50
        exact = map(Fraction, values)
        return [float((Decimal(f.numerator) / f.denominator).sqrt() if root else f) for f in exact]


class TestGaussRule:
    def test_closed_forms(self):
        # correctly rounded: the float weight formula read 0.5555555555555557 for 5/9
        r1 = gauss_rule(1)
        assert r1.nodes.tolist() == [0.0] and r1.weights.tolist() == [2.0]
        r2 = gauss_rule(2)
        third = correctly_rounded("1/3", root=True)[0]
        assert r2.nodes.tolist() == [-third, third] and r2.weights.tolist() == [1.0, 1.0]
        r3 = gauss_rule(3)
        root = correctly_rounded("3/5", root=True)[0]
        assert r3.nodes.tolist() == [-root, 0.0, root]
        assert r3.weights.tolist() == correctly_rounded("5/9", "8/9", "5/9")

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


@pytest.mark.parametrize("n", range(1, 65))
@pytest.mark.parametrize("rule, lobatto", [(gauss_rule, False), (gll_rule, True)])
def test_a_rule_is_its_routine_at_60_digits_bit_for_bit(rule, lobatto, n):
    # 40 digits leave every node and weight far from a rounding boundary, so 20 more change no
    # bit: the rules are correctly rounded. One float Newton update and float weight formulas
    # missed in 53 Gauss and 50 GLL node sets, and in 62 and 60 weight sets
    nodes, weights = (np.array(list(map(float, v))) for v in _decimal_rule(n, lobatto, 60))
    assert rule(n).nodes.tobytes() == nodes.tobytes()
    assert rule(n).weights.tobytes() == weights.tobytes()


@pytest.mark.parametrize("rule, what", [(gauss_rule, "Gauss order"), (gll_rule, "GLL order")])
def test_an_order_is_checked_before_the_cache(rule, what):
    # the check ran inside the cache, which took 3.0 for the np.int64(3) already in it and
    # refused a list with its own TypeError: unhashable type: 'list'
    assert rule(np.int64(3)) is rule(3)
    for bad in (3.0, [3]):
        message = f"^{what} must be an integer, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            rule(bad)


class TestQuadratureRule:
    @pytest.mark.parametrize(
        "nodes, weights",
        [([0.0, 0.5], [2.0]), ([[0.0]], [[2.0]]), ([], []), ([0.0], [1.0, 1.0]), (0.0, 2.0)],
        ids=["one-weight", "2-d", "empty", "two-weights", "0-d"],
    )
    def test_nodes_and_weights_that_are_no_one_length_1d_pair_are_refused(self, nodes, weights):
        # a single weight was broadcast over both nodes by galerkin_pairing, which then
        # returned [[1.0, 0.134], [1.0, 1.866]] on an order-2 grid
        with pytest.raises(ValueError) as err:
            QuadratureRule(nodes, weights)
        assert str(err.value) == (
            "quadrature nodes and weights must be nonempty 1-d arrays of one length, got"
            f" shapes {np.shape(nodes)} and {np.shape(weights)}"
        )

    @pytest.mark.parametrize(
        "nodes, weights, message",
        [([np.nan], [1.0], "nodes must be finite, got nan"),
         ([0.0], [np.inf], "weights must be finite, got inf")],
        ids=["nan-node", "inf-weight"],
    )
    def test_values_that_are_not_finite_are_refused(self, nodes, weights, message):
        # both were accepted, and every integral on them read NaN or inf
        with pytest.raises(ValueError, match=f"^quadrature {message}$"):
            QuadratureRule(nodes, weights)


class TestGLLRule:
    def test_closed_forms(self):
        # correctly rounded, as gauss_rule's are
        r1 = gll_rule(1)
        assert r1.nodes.tolist() == [-1.0, 1.0] and r1.weights.tolist() == [1.0, 1.0]
        r2 = gll_rule(2)
        assert r2.nodes.tolist() == [-1.0, 0.0, 1.0]
        assert r2.weights.tolist() == correctly_rounded("1/3", "4/3", "1/3")
        r3 = gll_rule(3)
        fifth = correctly_rounded("1/5", root=True)[0]
        assert r3.nodes.tolist() == [-1.0, -fifth, fifth, 1.0]
        assert r3.weights.tolist() == correctly_rounded("1/6", "5/6", "5/6", "1/6")

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
        basis = NodalBasis([-1.0, 0.0, 1.0])
        npt.assert_allclose(nodal_eval_all(basis, 0.5), [-0.125, 0.75, 0.375], atol=1e-15)

    def test_kronecker_at_nodes_exact(self):
        basis = NodalBasis(gll_rule(5).nodes)
        for k, x in enumerate(basis.nodes):
            vals = nodal_eval_all(basis, x)
            expected = np.zeros(6)
            expected[k] = 1.0
            npt.assert_array_equal(vals, expected)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        for p in (1, 2, 4, 8):
            basis = NodalBasis(gll_rule(p).nodes)
            for x in rng.uniform(-1.0, 1.0, 50):
                assert abs(nodal_eval_all(basis, x).sum() - 1.0) <= 1e-12

    def test_interpolates_polynomials(self):
        rng = np.random.default_rng(13)
        for p in (1, 3, 6):
            basis = NodalBasis(gll_rule(p).nodes)
            poly, _ = random_poly(rng, p)
            samples = poly(basis.nodes)
            for x in rng.uniform(-1.0, 1.0, 20):
                got = float(np.dot(samples, nodal_eval_all(basis, x)))
                assert got == pytest.approx(float(poly(x)), abs=1e-12)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="^nodes must be distinct$"):
            NodalBasis([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("gap", [5e-324, 1e-308, 4e-308])
    def test_nodes_within_twice_the_smallest_normal_float_rejected(self, gap):
        # a point within the smallest normal float of a node is taken as at it, so no point
        # may be that close to two nodes: [0, 1e-308] read [1, 1] at 0
        with pytest.raises(ValueError, match="^nodes must be distinct, at least 4.45"):
            NodalBasis([0.0, gap, 1.0])
        assert NodalBasis([0.0, 4.5e-308, 1.0]).bary_weights.shape == (3,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset", [5e-324, -5e-324, 1e-310])
    def test_a_subnormal_distance_from_a_node_is_at_the_node(self, offset):
        # w / d overflowed there: [-0, nan, 0] with an overflow warning
        basis = NodalBasis(gll_rule(2).nodes)
        assert basis.nodes[1] == 0.0
        for fn in (nodal_eval_all, nodal_deriv_all):
            npt.assert_array_equal(fn(basis, offset), fn(basis, 0.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nodes_that_are_not_finite_are_refused(self, value):
        # [0, nan] built NaN weights and read [nan, nan] at 0.5 without a word
        with pytest.raises(ValueError, match=f"^nodes must be finite, got {value!r}$"):
            NodalBasis([0.0, value])

    @pytest.mark.parametrize(
        "nodes",
        [[-1.0, 1e308, -1e308], np.arange(40) * 1e-10, np.arange(200) * 10.0],
        ids=["difference-overflows", "products-underflow", "products-overflow"],
    )
    def test_nodes_whose_weights_leave_the_float_range_are_refused(self, nodes):
        # each emitted RuntimeWarnings, which this suite makes errors, and built weights that
        # were not finite
        with pytest.raises(ValueError, match="^nodes give barycentric weights outside the float"):
            NodalBasis(nodes)

    def test_weights_are_computed_not_taken(self):
        # weights passed in beside the nodes built a basis whose values were wrong without an
        # error: NodalBasis([0, 1, 2], [1, 1, 1]) read [-3, 3, 1] at 0.5
        with pytest.raises(TypeError):
            NodalBasis([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        basis = NodalBasis([0.0, 1.0, 2.0])
        npt.assert_allclose(nodal_eval_all(basis, 0.5), [0.375, 0.75, -0.125], atol=1e-15)
        assert not basis.bary_weights.flags.writeable

    @pytest.mark.parametrize("nodes", [[], np.zeros((2, 2))], ids=["empty", "2-d"])
    def test_empty_or_2d_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="nodes must be a nonempty 1-d array"):
            NodalBasis(nodes)

    def test_single_node_constant(self):
        basis = NodalBasis([0.3])
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
        basis = NodalBasis(rule(p).nodes)
        rng = np.random.default_rng(p)
        xs = rng.permutation(
            np.concatenate([rng.uniform(-1.0, 1.0, 200), basis.nodes, [-1.0, 1.0]])
        )
        batch = nodal_eval_all(basis, xs)
        reference = np.array([scalar_nodal_eval(basis, x) for x in xs])
        npt.assert_array_equal(batch, reference)
        npt.assert_array_equal(batch, [nodal_eval_all(basis, x) for x in xs])

    def test_output_shapes(self):
        basis = NodalBasis(gll_rule(3).nodes)
        assert nodal_eval_all(basis, 0.3).shape == (4,)
        assert nodal_eval_all(basis, np.array(0.3)).shape == (4,)
        assert nodal_eval_all(basis, np.linspace(-1.0, 1.0, 7)).shape == (7, 4)
        grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        vals = nodal_eval_all(basis, grid)
        assert vals.shape == (2, 3, 4)
        npt.assert_array_equal(vals[1, 2], nodal_eval_all(basis, grid[1, 2]))
        assert nodal_eval_all(basis, np.empty(0)).shape == (0, 4)


def guess_nodes(p):
    # the node set the driver's guess table reads: at most 9 Gauss-Lobatto nodes spread over
    # the element, every node while p <= 8
    subset = np.round(np.linspace(0, p, min(p, 8) + 1)).astype(int)
    return gll_rule(p).nodes[subset]


def exact_lagrange(nodes, t):
    # l_j(t) in exact rational arithmetic over the doubles given
    x, t = [Fraction(v) for v in nodes], Fraction(t)
    return [
        math.prod((t - x[m]) / (x[j] - x[m]) for m in range(len(x)) if m != j)
        for j in range(len(x))
    ]


class TestLagrangeProduct:
    # the product form, which the driver's guess table and the Gauss collocation oracle read
    # outside or across the nodes' span, where the barycentric quotient loses digits
    P_VALUES = [1, 2, 3, 4, 5, 8, 9, 12, 16, 32, 64]

    @pytest.mark.parametrize("p", P_VALUES)
    def test_rows_at_its_own_nodes_are_exact_kronecker_rows(self, p):
        x = guess_nodes(p)
        npt.assert_array_equal(_lagrange_product(x, x), np.eye(len(x)))

    @pytest.mark.parametrize("p", P_VALUES)
    def test_the_next_elements_nodes_are_read_to_a_few_eps(self, p):
        # at tau + 2, the next element's nodes in this element's coordinate, each entry is
        # within 8 eps of its exact value relative to itself (3.2 measured, at p = 64)
        x, t = guess_nodes(p), gll_rule(p).nodes[1:] + 2.0
        got = _lagrange_product(x, t)
        assert got.shape == (p, len(x))
        eps = Fraction(np.finfo(float).eps)
        for row, tau in zip(got, t):
            for value, exact in zip(row.tolist(), exact_lagrange(x, tau)):
                assert abs(Fraction(value) - exact) <= 8 * eps * abs(exact)

    def test_output_shape_is_the_points_shape_then_the_nodes(self):
        x = gll_rule(3).nodes
        t = np.linspace(1.0, 3.0, 6).reshape(2, 3)
        got = _lagrange_product(x, t)
        assert got.shape == (2, 3, 4)
        npt.assert_array_equal(got[1, 2], _lagrange_product(x, t[1, 2]))


def scalar_nodal_deriv(basis, x):
    # the per-point form of the derivative rule, kept as the reference for batches: the
    # nodal values times the differentiation matrix, built row by row
    nodes, w = basis.nodes, basis.bary_weights
    D = np.zeros((len(nodes), len(nodes)))
    for k in range(len(nodes)):
        for i in range(len(nodes)):
            if i != k:
                D[k, i] = (w[i] / w[k]) / (nodes[k] - nodes[i])
        D[k, k] = -np.sum(D[k])
    return scalar_nodal_eval(basis, x) @ D


class TestDerivativeAndEdgeBatched:
    @pytest.mark.parametrize("p", [1, 2, 8, 16, 64])
    @pytest.mark.parametrize("rule", [gll_rule, gauss_rule])
    def test_rows_equal_scalar_calls_bitwise(self, p, rule):
        basis = NodalBasis(rule(p).nodes)
        rng = np.random.default_rng(p)
        xs = rng.permutation(
            np.concatenate([rng.uniform(-1.0, 1.0, 200), basis.nodes, [-1.0, 0.0, 1.0]])
        )
        deriv = nodal_deriv_all(basis, xs)
        reference = np.array([scalar_nodal_deriv(basis, x) for x in xs])
        npt.assert_array_equal(deriv, reference)
        npt.assert_array_equal(deriv, [nodal_deriv_all(basis, x) for x in xs])
        edges = edge_eval_all(basis, xs)
        npt.assert_array_equal(edges, [-np.cumsum(row)[:-1] for row in reference])
        npt.assert_array_equal(edges, [edge_eval_all(basis, x) for x in xs])

    def test_output_shapes(self):
        basis = NodalBasis(gll_rule(3).nodes)
        grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        for fn, width in ((nodal_deriv_all, 4), (edge_eval_all, 3)):
            assert fn(basis, 0.3).shape == (width,)
            assert fn(basis, np.array(0.3)).shape == (width,)
            assert fn(basis, np.linspace(-1.0, 1.0, 7)).shape == (7, width)
            vals = fn(basis, grid)
            assert vals.shape == (2, 3, width)
            npt.assert_array_equal(vals[1, 2], fn(basis, grid[1, 2]))
            assert fn(basis, np.empty(0)).shape == (0, width)


def decimal_lagrange_derivatives(nodes, points):
    # l_i'(t) = l_i(t) sum_{m != i} 1 / (t - x_m) in 50-digit decimals over the float nodes
    # and points, none of them a node; 1e-9 from a node this loses 9 of the 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        x = [Decimal(v) for v in nodes.tolist()]
        w = [Decimal(1) / math.prod(xi - xm for xm in x if xm != xi) for xi in x]
        rows = []
        for t in map(Decimal, points.tolist()):
            inv = [1 / (t - xm) for xm in x]
            ell, total = math.prod(t - xm for xm in x), sum(inv)
            rows.append([float(ell * wi * ii * (total - ii)) for wi, ii in zip(w, inv)])
    return np.array(rows)


class TestNodalDerivatives:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("rule", [gll_rule, gauss_rule])
    def test_matches_a_decimal_oracle_next_to_nodes_and_between_them(self, p, rule):
        # the nodal values times the differentiation matrix: at most 6.5 eps of max|l'|
        # over these bases. The differentiated barycentric quotient lost eps / d at a
        # distance d from a node, up to 1.1e9 eps at 1e-9 from one
        basis = NodalBasis(rule(p).nodes)
        near = (basis.nodes[:, None] + [-1e-6, -1e-9, 1e-9, 1e-6]).ravel()
        uniform = np.random.default_rng(p).uniform(-1.0, 1.0, 20)
        for points in (near[np.abs(near) <= 1.0], uniform):
            exact = decimal_lagrange_derivatives(basis.nodes, points)
            err = np.max(np.abs(nodal_deriv_all(basis, points) - exact))
            assert err <= 32 * np.finfo(float).eps * np.max(np.abs(exact))

    def test_derivative_sums_vanish(self):
        rng = np.random.default_rng(5)
        for p in (2, 4, 8):
            basis = NodalBasis(gll_rule(p).nodes)
            for x in rng.uniform(-1.0, 1.0, 30):
                assert abs(nodal_deriv_all(basis, x).sum()) <= 1e-10
            for x in basis.nodes:
                assert abs(nodal_deriv_all(basis, x).sum()) <= 1e-12

    def test_differentiates_polynomials(self):
        rng = np.random.default_rng(17)
        for p in (2, 5):
            basis = NodalBasis(gll_rule(p).nodes)
            poly, dpoly = random_poly(rng, p)
            samples = poly(basis.nodes)
            points = np.concatenate([rng.uniform(-1, 1, 10), basis.nodes])
            for x in points:
                got = float(np.dot(samples, nodal_deriv_all(basis, x)))
                assert got == pytest.approx(float(dpoly(x)), abs=1e-10)


class TestEdgeFunctions:
    def test_reproduces_interpolant_derivative(self):
        basis = NodalBasis(gll_rule(2).nodes)
        y = np.array([1.0, 0.0, 1.0])  # samples of x^2
        got = float(np.dot(np.diff(y), edge_eval_all(basis, 0.4)))
        assert got == pytest.approx(0.8, abs=1e-13)

    def test_exterior_derivative_identity(self):
        rng = np.random.default_rng(23)
        for p in (1, 2, 4, 8):
            basis = NodalBasis(gll_rule(p).nodes)
            y = rng.uniform(-2.0, 2.0, p + 1)
            for x in rng.uniform(-1.0, 1.0, 20):
                via_edges = float(np.dot(np.diff(y), edge_eval_all(basis, x)))
                via_nodal = float(np.dot(y, nodal_deriv_all(basis, x)))
                assert via_edges == pytest.approx(via_nodal, abs=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_interval_integrals_are_kronecker(self, p):
        # integral of e_i over the j-th sub-interval is delta_ij
        nodes = gll_rule(p).nodes
        basis = NodalBasis(nodes)
        quad = gauss_rule(p + 4)
        for j in range(p):
            a, b = nodes[j], nodes[j + 1]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            acc = np.zeros(p)
            for s, w in zip(quad.nodes, quad.weights):
                acc += w * edge_eval_all(basis, mid + half * s)
            acc *= half
            expected = np.zeros(p)
            expected[j] = 1.0
            npt.assert_allclose(acc, expected, atol=1e-12)

    def test_adjacent_difference_is_nodal_derivative(self):
        # e_k - e_{k+1} = l_k' pointwise
        rng = np.random.default_rng(29)
        basis = NodalBasis(gll_rule(4).nodes)
        for x in rng.uniform(-1.0, 1.0, 10):
            e = edge_eval_all(basis, x)
            dl = nodal_deriv_all(basis, x)
            diff = np.empty(5)
            diff[0] = -e[0]  # e_0 is identically zero by convention
            diff[1:-1] = e[:-1] - e[1:]
            diff[-1] = e[-1]
            npt.assert_allclose(-np.cumsum(dl)[:-1], e, atol=1e-10)
            npt.assert_allclose(diff[1:-1], dl[1:-1], atol=1e-10)


# each record keeps its own read-only float copy of the array it is built
# from; the caller's array stays writable and the record does not see it change
_RECORDS = {
    "Cochain": lambda v: Cochain(CochainKind.PRIMAL0, v).values,
    "QuadratureRule": lambda v: QuadratureRule(v, v.copy()).nodes,
    "NodalBasis": lambda v: NodalBasis(v).nodes,
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
