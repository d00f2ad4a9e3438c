"""One SHA-256 over geodesy's numerical outputs, to compare two trees bit for bit.

Usage, from the repository root:

    python3 tools/output_digest.py [--src PATH]

--src names the src/ directory of the tree to hash (default: this
repository's), so a change is checked against its parent with two runs, one
per tree, whose last lines must match. The digest covers:

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
  for p = 1..16, mgi at q_rhs in {p, p + 1, min(2p + 10, 64)}, so a change to
  the tables shows apart from the runs that use them;
- refusals: one call per place the package refuses what a user's callable
  returned (values that are not real, ragged or not of the expected shape,
  from the field, the Jacobians, Newton's residual, the sampled functions,
  the invariants and domain_check), and per caller's value it refuses as not
  real or ragged (Newton's x0, a basis's nodes, a step's dt, an initial
  state), as no scalar setting (a bool dt, a Fraction tolerance) or as no
  count (a float Legendre degree, partition index or number of momenta m),
  and per partition it refuses (blocks that overlap, a block that is no
  sequence), listed by refusals(); each is hashed as its error type and
  message, or as a marker when it returns, with warnings ignored, so a
  change to a refusal's wording shows as this part alone.

A failing call is hashed as its error type and message. One line per part
is printed, then the digest over all of them.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STEPS = 200
ORDERS = (1, 2, 3, 4, 6)
# the refusals() entries that refuse a caller's value, not a callable's values
INPUT_REFUSALS = (
    "x0 complex", "nodes complex", "dt numpy complex", "dt complex", "dt str", "y0 str",
    "y0 ragged", "dt bool", "abs_tol Fraction", "Legendre degree float", "partition index float",
    "partition overlap", "partition block int", "m float",
)
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


def refusals(g):
    """(name, call) pairs, one call per place geodesy refuses a callable's values.

    The entries in INPUT_REFUSALS refuse a caller's value instead, with a plain ValueError.

    The package's functions are looked up inside each call, so a tree that lacks one hashes
    the error.
    """
    from fractions import Fraction

    import numpy as np  # after main() has set the thread count

    A = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def system(dim=1, field=lambda y: -y, **kwargs):
        return g.OdeSystem(dim=dim, field=field, **kwargs)

    def run(method, y0=(1.0,), **kwargs):
        # 10 steps of 0.1 from t = 0 at p = 2
        return lambda: g.integrate(system(**kwargs), method, list(y0), 0.0, 1.0, 0.1)

    def grows(y):
        return (1 + 1j) * y

    def grid():
        return g.ElementGrid.build(2, 0.0, 1.0)

    def fd(*args):
        return g.newton.forward_difference_jacobian(*args)

    return [
        ("field complex", run(g.Method.MCI, field=grows)),
        ("field complex later", run(
            g.Method.RK4, field=lambda y: grows(y) if y.max() > 1.5 else y
        )),
        ("field shape", run(g.Method.MGI, (1.0, 2.0), dim=2, field=lambda y: np.ones(2))),
        ("pointwise field complex", lambda: g.integrate(
            g.pointwise(system(field=grows)), g.Method.MCI, [1.0], 0.0, 1.0, 0.1
        )),
        ("pointwise field ragged", lambda: g.integrate(
            g.pointwise(system(dim=2, field=lambda y: np.ones(2 if y[0] < 1.05 else 3))),
            g.Method.MCI, [1.0, 1.0], 0.0, 1.0, 0.1,
        )),
        ("hamiltonian field complex", lambda: g.integrate(
            system(dim=2, field=g.hamiltonian_vector_field(grows, 1)),
            g.Method.MCI, [1.0, 0.0], 0.0, 1.0, 0.1,
        )),
        ("stage jacobian complex", lambda: g.mci_step(
            system(jacobian=lambda y: np.full((y.shape[1], 1, 1), -1 + 0j)), [1.0], 0.0, 0.1, 2
        )),
        ("stage jacobian shape", lambda: g.mci_step(
            system(dim=2, field=lambda y: A @ y, jacobian=lambda y: A), [1.0, 0.0], 0.0, 0.5, 2
        )),
        ("newton residual complex", lambda: g.newton_solve(lambda x: x - (1 + 2j), [0.5])),
        ("x0 complex", lambda: g.newton_solve(lambda x: x - 1.0, np.array([0.5 + 1j]))),
        ("newton residual shape", lambda: g.newton_solve(lambda x: np.ones(3), np.ones(2))),
        ("newton jacobian complex", lambda: g.newton_solve(
            lambda x: x - 1.0, [0.5], jacobian=lambda x: np.eye(1) + 0j
        )),
        ("newton jacobian shape", lambda: g.newton_solve(
            lambda x: x - 1.0, [0.5, 0.25], jacobian=lambda x: np.eye(3)
        )),
        ("probe complex", lambda: fd(lambda x: x - 1.0 if x[0] == 0.5 else grows(x - 1.0), [0.5])),
        ("probe shape", lambda: fd(lambda x: np.zeros(1), np.array([0.5, 1.0]), np.ones(3))),
        ("fd base shape", lambda: fd(lambda x: np.zeros((1, 2)), np.array([0.5, 1.0]))),
        ("reduce0 complex", lambda: g.reduce0(
            lambda x: np.complex128(1j * x + 2), grid(), g.CochainKind.PRIMAL0
        )),
        ("reduce1 complex", lambda: g.reduce1(lambda x: complex(1j * x + 2), grid())),
        ("nodes complex", lambda: g.NodalBasis.from_nodes(np.array([0.5 + 1j, -0.25]))),
        ("dt numpy complex", lambda: g.integrate(
            system(), g.Method.MCI, [1.0], 0.0, 1.0, np.complex128(0.1 + 5j)
        )),
        ("dt complex", lambda: g.mci_step(system(), [1.0], 0.0, 0.1 + 5j, 2)),
        ("dt str", lambda: g.rk4_step(system(), [1.0], 0.0, "0.1")),
        ("y0 str", lambda: g.integrate(system(), g.Method.MCI, ["1.5"], 0.0, 1.0, 0.1)),
        ("y0 ragged", lambda: g.integrate(
            system(dim=2), g.Method.MCI, [[0.0, 1.0], [2.0]], 0.0, 1.0, 0.1
        )),
        ("invariant complex", run(g.Method.MCI, invariants=(("I", lambda y: 1 + 1j),))),
        ("invariant shape", run(g.Method.RK4, invariants=(("I", lambda y: np.ones(2)),))),
        ("invariant str", run(g.Method.RK4, invariants=(("I", lambda y: "x"),))),
        ("invariant ragged", run(
            g.Method.RK4, invariants=(("I", lambda y: 1.0 if y[0] > 0.5 else [1.0, 2.0]),)
        )),
        ("domain_check bool", run(
            g.Method.MCI, domain_check=lambda y: False if y.min() < 0.95 else None
        )),
        ("dt bool", lambda: g.mci_step(system(), [1.0], 0.0, True, 2)),
        ("abs_tol Fraction", lambda: g.NewtonConfig(abs_tol=Fraction(1, 10**30), max_iter=1)),
        ("Legendre degree float", lambda: g.legendre_eval(2.0, 0.5)),
        ("partition index float", lambda: system(
            dim=2, partition=g.SeparablePartition(p_indices=(0.0,), q_indices=(1,))
        )),
        ("partition overlap", lambda: system(
            dim=2, partition=g.SeparablePartition(p_indices=(0,), q_indices=(0,))
        )),
        ("partition block int", lambda: system(
            dim=2, partition=g.SeparablePartition(p_indices=0, q_indices=(1,))
        )),
        ("m float", lambda: g.hamiltonian_vector_field(grows, 1.5)),
    ]


def _returned(call):
    call()
    return "returned without a refusal"


def digests(g):
    names = (
        "runs", "public", "tableau", "high-order", "baselines", "mci-tables", "mgi-tables",
        "refusals",
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
        for q in (p, p + 1, min(2 * p + 10, 64)):
            _feed(parts["mgi-tables"], p, q, *record(p, q, True))
    sha = parts["refusals"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, call in refusals(g):
            _feed(sha, name)
            _feed(sha, _guarded(sha, lambda: _returned(call)))
    total = hashlib.sha256()
    for sha in parts.values():
        total.update(sha.digest())
    return {name: sha.hexdigest() for name, sha in parts.items()}, total.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", default=os.path.join(ROOT, "src"), help="the src/ directory of the tree to hash"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import geodesy

    parts, total = digests(geodesy)
    for name, hexdigest in parts.items():
        print(f"{name:<11} {hexdigest}")
    print(f"sha256      {total}")


if __name__ == "__main__":
    main()
