"""Acceptance gate: eleven end-to-end behavior criteria.

Each test prints one `criterion NN (<name>): PASS|FAIL` line with the
measured numbers, then asserts. Tolerances are fixed contract values;
do not widen them to make a failing criterion pass.
"""

import numpy as np

import conftest
import geodesy as g
from geodesy import (
    CochainKind,
    Cochain,
    ElementGrid,
    Method,
    NewtonConfig,
    butcher_tableau_mci,
    coboundary,
    dual_mass_matrix,
    edge_eval_all,
    galerkin_mass_dual,
    gauss_collocation_tableau,
    gauss_rule,
    get_problem,
    integrate,
    make_circle,
    mci_step,
    mgi_step,
    reconstruct0,
    reconstruct1,
    reduce0,
    reduce1,
)
from helpers import fit_slope, gauss_irk_step


def report(num, name, ok, detail):
    line = f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def test_criterion_01_quadratic_invariant_exactness():
    circle = make_circle()
    traj = integrate(circle.system, Method.MCI, circle.y0, 0.0, 100.0, 1.0, p=2)
    drift = np.max(np.abs(traj.invariants["R"] - 2.0))
    report(1, "quadratic invariant, circle", drift <= 1e-10, f"max |R-2| = {drift:.3e}")


def test_criterion_02_energy_exactness_pendulum():
    pend = get_problem("pendulum")
    traj = integrate(
        pend.system, Method.MGI, pend.y0, 0.0, 100.0, 0.1, p=2, q_rhs=14
    )
    h = traj.invariants["H"]
    drift = np.max(np.abs(h - h[0]))
    report(2, "energy exactness, pendulum", drift <= 1e-9, f"max |H-H0| = {drift:.3e}")


def test_criterion_03_kepler_energy_and_momentum():
    kep = get_problem("kepler")
    tr_g = integrate(kep.system, Method.MGI, kep.y0, 0.0, 50.0, 0.1, p=2)
    h = tr_g.invariants["H"]
    h_drift = np.max(np.abs(h - h[0]))
    tr_c = integrate(kep.system, Method.MCI, kep.y0, 0.0, 50.0, 0.1, p=2)
    ell = tr_c.invariants["L"]
    l_drift = np.max(np.abs(ell - ell[0]))
    ok = h_drift <= 1e-8 and l_drift <= 1e-10
    report(
        3,
        "Kepler energy and momentum",
        ok,
        f"MGI max |H-H0| = {h_drift:.3e}, MCI max |L-L0| = {l_drift:.3e}",
    )


def test_criterion_04_bounded_versus_secular_drift():
    details = []
    ok = True
    for name in ("pendulum", "kepler"):
        prob = get_problem(name)
        traj = integrate(prob.system, Method.MCI, prob.y0, 0.0, 100.0, 0.1, p=2)
        d = np.abs(traj.invariants["H"] - traj.invariants["H"][0])
        ratio = np.max(d) / np.max(d[:101])
        ok = ok and ratio <= 10.0
        details.append(f"{name} MCI max/first100 = {ratio:.2f}")
    pend = get_problem("pendulum")
    traj = integrate(pend.system, Method.EXPLICIT_EULER, pend.y0, 0.0, 100.0, 0.1)
    d = np.abs(traj.invariants["H"] - traj.invariants["H"][0])
    window = [np.max(d[i * 100 + 1 : (i + 1) * 100 + 1]) for i in range(10)]
    monotone = all(b >= a for a, b in zip(window, window[1:]))
    growth = np.max(d) / d[1]
    ok = ok and monotone and growth >= 100.0
    details.append(f"euler monotone = {monotone}, growth = {growth:.0f}x")
    report(4, "bounded vs secular drift", ok, "; ".join(details))


def test_criterion_05_superconvergence_order_2p():
    circle = make_circle()
    dts = np.array([0.5, 0.25, 0.125, 0.0625])
    tfinal = 6.0
    newton = NewtonConfig(abs_tol=1e-13)
    exact = circle.system.exact_solution(tfinal, circle.y0)
    details = []
    ok = True
    for method in (Method.MCI, Method.MGI):
        for p in (1, 2, 3):
            errs = []
            for dt in dts:
                traj = integrate(
                    circle.system, method, circle.y0, 0.0, tfinal, float(dt),
                    p=p, newton=newton,
                )
                errs.append(np.linalg.norm(traj.states[:, -1] - exact))
            slope = fit_slope(dts, np.array(errs))
            ok = ok and abs(slope - 2.0 * p) <= 0.25
            details.append(f"{method.value} p={p}: {slope:.2f}")
    report(5, "superconvergence order 2p", ok, ", ".join(details))


def test_criterion_06_gauss_tableau_equivalence():
    dev = 0.0
    for p in range(1, 7):
        got = butcher_tableau_mci(p)
        want = gauss_collocation_tableau(p)
        dev = max(
            dev,
            np.max(np.abs(got.a - want.a)),
            np.max(np.abs(got.b - want.b)),
            np.max(np.abs(got.c - want.c)),
        )
    kep = get_problem("kepler")
    dt = 0.01
    tab = butcher_tableau_mci(2)
    y_irk = gauss_irk_step(kep.system.field, kep.y0, dt, tab.a, tab.b)
    y_mci = mci_step(
        kep.system, kep.y0, 0.0, dt, 2, config=NewtonConfig(abs_tol=1e-13)
    ).endpoint()
    step_diff = np.max(np.abs(y_irk - y_mci))
    ok = dev <= 1e-12 and step_diff <= 1e-10
    report(
        6,
        "Gauss tableau equivalence",
        ok,
        f"tableau dev = {dev:.3e} (p<=6), Kepler step diff = {step_diff:.3e}",
    )


def test_criterion_07_euler_growth_law():
    harm = get_problem("harmonic")
    dt = 0.1
    traj = integrate(harm.system, Method.EXPLICIT_EULER, harm.y0, 0.0, 5.0, dt)
    assert traj.steps == 50
    i_series = traj.invariants["I"]
    n = np.arange(51)
    law = i_series[0] * (1.0 + dt * dt) ** n
    rel = np.max(np.abs(i_series / law - 1.0))
    report(7, "Euler growth law", rel <= 1e-12, f"max relative deviation = {rel:.3e}")


def test_criterion_08_midpoint_coincidence():
    harm = get_problem("harmonic")

    def midpoint_map(y, dt):
        q, p = y
        den = 4.0 + dt * dt
        return np.array(
            [
                (q * (4.0 - dt * dt) + 4.0 * dt * p) / den,
                (p * (4.0 - dt * dt) - 4.0 * dt * q) / den,
            ]
        )

    worst = 0.0
    tight = NewtonConfig(abs_tol=1e-14)
    for dt in (0.1, 0.5, 1.0):
        y = harm.y0.copy()
        for k in range(10):
            stepped = mci_step(harm.system, y, k * dt, dt, 1, config=tight).endpoint()
            worst = max(worst, np.max(np.abs(stepped - midpoint_map(y, dt))))
            y = stepped
    report(8, "midpoint coincidence at p=1", worst <= 1e-12, f"max per-step diff = {worst:.3e}")


def test_criterion_09_linear_coincidence():
    circle = make_circle()
    tight = NewtonConfig(abs_tol=1e-14)
    worst = 0.0
    for p in (1, 2, 3, 4):
        y = circle.y0.copy()
        for k in range(10):
            a = mci_step(circle.system, y, k * 0.5, 0.5, p, config=tight).endpoint()
            b = mgi_step(circle.system, y, k * 0.5, 0.5, p, config=tight).endpoint()
            worst = max(worst, np.max(np.abs(a - b)))
            y = a
    report(9, "linear coincidence MCI = MGI", worst <= 1e-12, f"max per-step diff = {worst:.3e}")


def test_criterion_10_time_symmetry():
    worst = 0.0
    for prob_name, dt in (("pendulum", 0.4), ("kepler", 0.1)):
        prob = get_problem(prob_name)
        for step in (mci_step, mgi_step):
            for p in (1, 2, 3):
                fwd = step(prob.system, prob.y0, 0.0, dt, p).endpoint()
                back = step(prob.system, fwd, dt, -dt, p).endpoint()
                worst = max(worst, np.max(np.abs(back - prob.y0)))
    report(10, "time symmetry", worst <= 1e-11, f"max round-trip error = {worst:.3e}")


def test_criterion_11_mimetic_property_suite():
    rng = np.random.default_rng(20260819)
    worst_cd = worst_ri = worst_mass = worst_edge = 0.0
    for p in range(1, 9):
        grid = ElementGrid(p, 0.3, 1.7)

        # commuting diagram: coboundary of the sampled 0-cochain equals the
        # integrated derivative, exactly on polynomials of degree <= p
        for _ in range(5):
            coeff = rng.standard_normal(p + 1)
            poly = np.polynomial.Polynomial(coeff)
            dpoly = poly.deriv()
            c0 = reduce0(poly, p, CochainKind.PRIMAL0)
            lhs = coboundary(c0).values
            rhs = reduce1(dpoly, p).values
            worst_cd = max(worst_cd, np.max(np.abs(lhs - rhs)))

        # consistency: reduce(reconstruct(c)) = c for every cochain kind
        c_p0 = Cochain(CochainKind.PRIMAL0, rng.standard_normal(p + 1))
        back = reduce0(lambda x: reconstruct0(c_p0, x), p, CochainKind.PRIMAL0)
        worst_ri = max(worst_ri, np.max(np.abs(back.values - c_p0.values)))
        c_d0 = Cochain(CochainKind.DUAL0, rng.standard_normal(p))
        back = reduce0(lambda x: reconstruct0(c_d0, x), p, CochainKind.DUAL0)
        worst_ri = max(worst_ri, np.max(np.abs(back.values - c_d0.values)))
        c_p1 = Cochain(CochainKind.PRIMAL1, rng.standard_normal(p))
        back = reduce1(lambda x: reconstruct1(c_p1, x), p)
        worst_ri = max(worst_ri, np.max(np.abs(back.values - c_p1.values)))

        # dual mass matrix is diagonal with entries sqrt(g) w_j
        mass = dual_mass_matrix(grid)
        off = mass - np.diag(np.diag(mass))
        worst_mass = max(worst_mass, np.max(np.abs(off)))
        worst_mass = max(
            worst_mass, np.max(np.abs(np.diag(mass) - galerkin_mass_dual(grid)))
        )

        # edge basis integrates to Kronecker deltas over the sub-intervals
        rule = gauss_rule(p + 4)
        xi = grid.primal.nodes
        for k in range(p):
            mid, half = 0.5 * (xi[k] + xi[k + 1]), 0.5 * (xi[k + 1] - xi[k])
            vals = np.array(
                [edge_eval_all(grid.primal_basis, mid + half * s) for s in rule.nodes]
            )
            integrals = half * rule.weights @ vals
            want = np.eye(p)[k]
            worst_edge = max(worst_edge, np.max(np.abs(integrals - want)))

    ok = (
        worst_cd <= 1e-12
        and worst_ri <= 1e-12
        and worst_mass <= 1e-13
        and worst_edge <= 1e-12
    )
    report(
        11,
        "mimetic property suite",
        ok,
        f"commuting {worst_cd:.2e}, consistency {worst_ri:.2e}, "
        f"mass {worst_mass:.2e}, edge {worst_edge:.2e}",
    )
