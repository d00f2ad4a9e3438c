"""One SHA-256 over geodesy's numerical outputs, to compare two trees bit for bit.

Usage, from the repository root:

    python3 tools/output_digest.py [--src PATH]

--src names the src/ directory of the tree to hash (default: this
repository's), which is loaded by its path, whatever geodesy the process
could import; so a change is checked against its parent with two runs, one
per tree, whose last lines must match. A --src that holds no geodesy
package is refused with exit status 2. The mgi tables take the tree's own
default_qrhs, so the tool is meant for trees from commit 593d228 on, where
it is min(2p + 10, 64). The digest covers:

- runs: 60 integrate runs, 200 steps at the problem's dt_ref: circle,
  harmonic, kepler, lotka-volterra, pendulum and lotka-volterra without its
  analytic Jacobian (forward differences), each with MCI and MGI at
  p in {1, 2, 3, 4, 6}; their times, states, invariant series, element
  coefficients and Newton iterations;
- public: per run, a forward mci_step and a reversed mgi_step from the run's
  last state, and mci_residual plus mgi_residual (default q_rhs and
  q_rhs = p + 1) at the run's middle element;
- tableau: butcher_tableau_mci(p) for p = 1..16;
- high-order: lotka-volterra at p = 12 with both methods, where the driver's
  starting guess reads the previous element through more than 9 nodes;
- baselines: integrate with explicit Euler and RK4 on the runs' problems,
  and symplectic Euler on those with a separable partition, 200 steps at
  dt_ref; per run, the public step of its method from the run's last state;
- mci-tables, mgi-tables: every field of the element step's pairing record
  for p = 1..16, mgi at q_rhs in {p, p + 1, default_qrhs(p)}, so a change to
  the tables shows apart from the runs that use them;
- toolkit: the public mimetic operators on a forward and a reversed element
  for p = 1..16: reduce0 and reduce1 of fixed functions, reconstruct0 point by
  point, reconstruct1, canonical_hodge_1to0, galerkin_mass_dual,
  galerkin_pairing, dual_mass_matrix, and nodal_eval_all and nodal_deriv_all
  of both bases at fixed points;
- rules: the nodes and weights of gauss_rule(n) and gll_rule(n) for n = 1..64,
  so a change to a rule shows apart from the outputs that read it.

A failing call is hashed as its error type and message. One line per part
is printed, then the digest over all of them.
"""

import argparse
import dataclasses
import hashlib
import math

import _tree  # pins BLAS to one thread, so before numpy

STEPS = 200
ORDERS = (1, 2, 3, 4, 6)
PROBLEMS = ("circle", "harmonic", "kepler", "lotka-volterra", "pendulum", "lotka-volterra-fd")


def _feed(sha, *items):
    for item in items:
        if hasattr(item, "tobytes"):
            sha.update(f"{item.dtype}{item.shape}".encode())
            sha.update(item.tobytes())
        else:
            sha.update(repr(item).encode())


def _guarded(sha, call):
    try:
        return call()
    except Exception as err:  # a failure is part of the output
        _feed(sha, f"{type(err).__name__}: {err}")
        return None


def _spec(g, name):
    if name == "lotka-volterra-fd":
        spec = g.get_problem("lotka-volterra")
        return dataclasses.replace(spec, system=dataclasses.replace(spec.system, jacobian=None))
    return g.get_problem(name)


def _hash_trajectory(sha, traj):
    if traj is not None:
        _feed(sha, traj.times, traj.states, traj.coefficients, traj.newton_iterations)
        for label in sorted(traj.invariants):
            _feed(sha, label, traj.invariants[label])


def _hash_element(sha, sol):
    if sol is not None:
        _feed(sha, sol.t_start, sol.t_end, sol.coefficients, sol.newton_iterations)


def _hash_toolkit(sha, g, p):
    points = [-1.0, -0.93, -2 / 3, -0.31, 0.0, 0.17, 1 / 3, 0.58, 2 / 3, 1.0]
    f = lambda t: math.cos(1.3 * t) + float(t) ** p
    density = lambda t: math.exp(0.7 * t) - p * float(t) ** (p - 1)
    for bounds in ((0.3, 1.7), (2.0, 1.25)):
        grid = g.ElementGrid(p, *bounds)
        _feed(sha, p, bounds)
        for kind in (g.CochainKind.PRIMAL0, g.CochainKind.DUAL0):
            c = g.reduce0(f, p, kind)
            _feed(sha, c.values, *[float(g.reconstruct0(c, x)) for x in points])
        one = g.reduce1(density, p)
        _feed(sha, one.values, g.reconstruct1(one, points))
        _feed(sha, g.canonical_hodge_1to0(one, grid).values)
        _feed(sha, g.galerkin_mass_dual(grid), g.dual_mass_matrix(grid))
        for q in (p, p + 3):
            _feed(sha, q, g.galerkin_pairing(grid, g.gauss_rule(q)))
        for basis in (grid.primal_basis, grid.dual_basis):
            _feed(sha, g.nodal_eval_all(basis, points), g.nodal_deriv_all(basis, points))


def digests(g):
    names = (
        "runs", "public", "tableau", "high-order", "baselines", "mci-tables", "mgi-tables",
        "toolkit", "rules",
    )
    parts = {name: hashlib.sha256() for name in names}
    for name in PROBLEMS:
        spec = _spec(g, name)
        sys_, dt = spec.system, spec.dt_ref
        for method in (g.Method.MCI, g.Method.MGI):
            for p in ORDERS:
                sha = parts["runs"]
                _feed(sha, name, method.value, p)
                traj = _guarded(
                    sha, lambda: g.integrate(sys_, method, spec.y0, 0.0, STEPS * dt, dt, p=p)
                )
                _hash_trajectory(sha, traj)
                if traj is None:
                    continue
                sha = parts["public"]
                _feed(sha, name, method.value, p)
                y, t = traj.states[:, -1], traj.times[-1]
                _hash_element(sha, _guarded(sha, lambda: g.mci_step(sys_, y, t, dt, p)))
                _hash_element(sha, _guarded(sha, lambda: g.mgi_step(sys_, y, t, -dt, p)))
                k = traj.steps // 2
                sol = g.ElementSolution(traj.times[k], traj.times[k + 1], traj.coefficients[k])
                _feed(sha, _guarded(sha, lambda: g.mci_residual(sys_, sol)))
                _feed(sha, _guarded(sha, lambda: g.mgi_residual(sys_, sol, None)))
                _feed(sha, _guarded(sha, lambda: g.mgi_residual(sys_, sol, p + 1)))
    for p in range(1, 17):
        tab = _guarded(parts["tableau"], lambda: g.butcher_tableau_mci(p))
        if tab is not None:
            _feed(parts["tableau"], p, tab.a, tab.b, tab.c)
    spec = g.get_problem("lotka-volterra")
    for method in (g.Method.MCI, g.Method.MGI):
        sha = parts["high-order"]
        _feed(sha, method.value)
        _hash_trajectory(
            sha,
            _guarded(
                sha,
                lambda: g.integrate(
                    spec.system, method, spec.y0, 0.0, STEPS * spec.dt_ref, spec.dt_ref, p=12
                ),
            ),
        )
    steps = {
        g.Method.EXPLICIT_EULER: g.explicit_euler_step,
        g.Method.SYMPLECTIC_EULER: g.symplectic_euler_step,
        g.Method.RK4: g.rk4_step,
    }
    sha = parts["baselines"]
    for name in PROBLEMS:
        spec = _spec(g, name)
        sys_, dt = spec.system, spec.dt_ref
        for method, step in steps.items():
            if method is g.Method.SYMPLECTIC_EULER and sys_.partition is None:
                continue
            _feed(sha, name, method.value)
            traj = _guarded(sha, lambda: g.integrate(sys_, method, spec.y0, 0.0, STEPS * dt, dt))
            _hash_trajectory(sha, traj)
            if traj is not None:
                y, t = traj.states[:, -1], traj.times[-1]
                _feed(sha, _guarded(sha, lambda: step(sys_, y, t, dt)))
    record = g.integrators._pairing_record
    for p in range(1, 17):
        _feed(parts["mci-tables"], p, *record(p, p, False))
        for q in (p, p + 1, g.default_qrhs(p)):
            _feed(parts["mgi-tables"], p, q, *record(p, q, True))
    for p in range(1, 17):
        _hash_toolkit(parts["toolkit"], g, p)
    for n in range(1, g.basis.MAX_ORDER + 1):
        for rule in (g.gauss_rule(n), g.gll_rule(n)):
            _feed(parts["rules"], n, rule.nodes, rule.weights)
    total = hashlib.sha256()
    for sha in parts.values():
        total.update(sha.digest())
    return {name: sha.hexdigest() for name, sha in parts.items()}, total.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    _tree.add_src(parser)
    geodesy = _tree.load(parser, parser.parse_args(argv).src, "geodesy_src")
    parts, total = digests(geodesy)
    for name, hexdigest in parts.items():
        print(f"{name:<11} {hexdigest}")
    print(f"sha256      {total}")


if __name__ == "__main__":
    main()
