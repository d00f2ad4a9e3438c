"""Tableau extraction against closed forms and the collocation oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from geodesy import NewtonConfig, get_problem, mci_step
from geodesy.tableau import ButcherTableau, butcher_tableau_mci, gauss_collocation_tableau

from helpers import gauss_irk_step


def test_p1_is_implicit_midpoint():
    tab = butcher_tableau_mci(1)
    npt.assert_allclose(tab.a, [[0.5]], atol=1e-14)
    npt.assert_allclose(tab.b, [1.0], atol=1e-14)
    npt.assert_allclose(tab.c, [0.5], atol=1e-14)


def test_p2_closed_form():
    s3 = np.sqrt(3.0) / 6.0
    tab = butcher_tableau_mci(2)
    npt.assert_allclose(tab.a, [[0.25, 0.25 - s3], [0.25 + s3, 0.25]], atol=1e-13)
    npt.assert_allclose(tab.b, [0.5, 0.5], atol=1e-13)
    npt.assert_allclose(tab.c, [0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)], atol=1e-13)


def test_oracle_p2_closed_form():
    # the independent route must agree with the same textbook arrays
    s3 = np.sqrt(3.0) / 6.0
    tab = gauss_collocation_tableau(2)
    npt.assert_allclose(tab.a, [[0.25, 0.25 - s3], [0.25 + s3, 0.25]], atol=1e-13)
    npt.assert_allclose(tab.b, [0.5, 0.5], atol=1e-13)


def _deviation(t1, t2):
    return max(
        float(np.max(np.abs(t1.a - t2.a))),
        float(np.max(np.abs(t1.b - t2.b))),
        float(np.max(np.abs(t1.c - t2.c))),
    )


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64])
def test_equals_collocation_oracle(p):
    assert _deviation(butcher_tableau_mci(p), gauss_collocation_tableau(p)) <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
def test_invariants(p):
    tab = butcher_tableau_mci(p)
    assert abs(tab.b.sum() - 1.0) <= 1e-13
    assert np.all(tab.c > 0.0) and np.all(tab.c < 1.0)
    assert np.all(np.diff(tab.c) > 0.0)
    npt.assert_allclose(tab.a.sum(axis=1), tab.c, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_quadrature_order_conditions(p):
    # b against c^k matches the monomial moments up to degree 2p - 1
    tab = butcher_tableau_mci(p)
    for k in range(1, 2 * p + 1):
        assert float(tab.b @ tab.c ** (k - 1)) == pytest.approx(1.0 / k, abs=1e-12)


@pytest.mark.parametrize("p", [True, 65, 100, 0, -1, 1.5])
def test_oracle_refuses_the_orders_the_extraction_refuses(p):
    # the oracle holds p to the library's order rule, not numpy's leggauss rule
    with pytest.raises((TypeError, ValueError)) as extracted:
        butcher_tableau_mci(p)
    with pytest.raises((TypeError, ValueError)) as oracle:
        gauss_collocation_tableau(p)
    assert oracle.type is extracted.type
    assert str(oracle.value) == str(extracted.value)


def test_validation_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="tableau arrays have inconsistent shapes"):
        ButcherTableau(np.eye(2), [0.5, 0.5], [0.5])


def test_validation_rejects_bad_weights():
    with pytest.raises(ValueError):
        ButcherTableau(np.array([[0.3]]), np.array([0.9]), np.array([0.3]))


def test_validation_rejects_unsorted_c():
    a = np.array([[0.35, 0.35], [0.1, 0.1]])
    with pytest.raises(ValueError):
        ButcherTableau(a, np.array([0.5, 0.5]), np.array([0.7, 0.2]))


def test_validation_rejects_row_sum_mismatch():
    a = np.array([[0.9, 0.0], [0.0, 0.9]])
    with pytest.raises(ValueError):
        ButcherTableau(a, np.array([0.5, 0.5]), np.array([0.25, 0.75]))


def test_tableau_immutable():
    tab = butcher_tableau_mci(2)
    with pytest.raises(ValueError):
        tab.a[0, 0] = 9.9


@pytest.mark.parametrize("p", range(1, 9))
def test_extracted_tableau_steps_as_the_collocation_integrator(p):
    # the tables read off the step's own pairing record, run as an implicit
    # Runge-Kutta method, take the step mci_step takes
    kep = get_problem("kepler")
    tab = butcher_tableau_mci(p)
    y_irk = gauss_irk_step(kep.system.field, kep.y0, 0.01, tab.a, tab.b)
    y_mci = mci_step(kep.system, kep.y0, 0.0, 0.01, p, config=NewtonConfig(abs_tol=1e-13))
    npt.assert_allclose(y_irk, y_mci.endpoint(), rtol=0.0, atol=1e-14)
