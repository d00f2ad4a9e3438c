"""Is one element step's invariant error a random walk? A one-step bias audit.

Usage, from the repository root:

    python3 tools/conservation_audit.py [--src PATH]

--src names the src/ directory of the tree to audit (default: this
repository's); one that holds no geodesy package, or a process that has
imported geodesy from another tree, is refused with exit status 2. Each
case takes N = 300 states, from a fixed seed, on one level I0 of its
invariant and one public step of dt from each, and computes
the change dI = I(y1) - I(y0) of each step exactly, in fractions.Fraction
over the doubles y0 and y1. It prints the mean of dI, its standard error,
z = mean / standard error, and whether |mean| <= eps |I0| / 4. A method that
conserves the invariant exactly in exact arithmetic leaves only rounding,
which should average out (Hairer, McLachlan & Razakarivony, BIT 48, 2008):
a large |z| shows a systematic source. The cases are the circle's energy
(p^2 + q^2)/2 on its level I0 = 2, under MCI and MGI, and the quartic
oscillator's energy p^2/2 + q^4/4 on the level I0 = 1/2 under MGI with its
default q_rhs, which integrates that polynomial field exactly; each at p in
{2, 4, 8} and dt in {0.1, 1}. The output is the same bytes on every run of
one tree; it is a report and gates nothing.
"""

import argparse
import math
import os
import sys
from fractions import Fraction

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N = 300
SEED = 2008
ORDERS = (2, 4, 8)
STEPS = (0.1, 1.0)
EPS = Fraction(np.finfo(float).eps)


def circle_energy(p, q):
    return (p * p + q * q) / 2


def quartic_energy(p, q):
    return p * p / 2 + q**4 / 4


def circle_states(rng, n):
    # radius 2, circle's own y0 = (2, 0): the level I0 = 2
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack((2.0 * np.cos(theta), 2.0 * np.sin(theta)))


def quartic_states(rng, n):
    # p^2/2 + q^4/4 = 1/2: q within the turning points +-2**(1/4), p of either sign
    q = rng.uniform(-1.0, 1.0, n) * 2.0**0.25
    p = rng.choice((-1.0, 1.0), n) * np.sqrt(np.maximum(1.0 - 0.5 * q**4, 0.0))
    return np.stack((p, q))


def quartic_system(g):
    # state (p, q): dp/dt = -q^3, dq/dt = p
    def field(y):
        return np.stack((-y[1] ** 3, y[0]))

    def jacobian(y):
        J = np.zeros(y.shape[1:] + (2, 2))
        J[..., 0, 1] = -3.0 * y[1] ** 2
        J[..., 1, 0] = 1.0
        return J

    return g.OdeSystem(dim=2, field=field, jacobian=jacobian)


def cases(g):
    """(name, system, step, invariant, I0, states) per problem and method."""
    circle = g.get_problem("circle").system
    return (
        ("circle MCI", circle, g.mci_step, circle_energy, Fraction(2), circle_states),
        ("circle MGI", circle, g.mgi_step, circle_energy, Fraction(2), circle_states),
        ("quartic MGI", quartic_system(g), g.mgi_step, quartic_energy, Fraction(1, 2),
         quartic_states),
    )


def delta_invariant(invariant, y0, y1):
    """I(y1) - I(y0), exact over the doubles of the two states (p, q)."""
    return invariant(*map(Fraction, y1.tolist())) - invariant(*map(Fraction, y0.tolist()))


def audit(system, step, invariant, states, p, dt):
    """Mean, standard error and z of the exact one-step changes from each column of states."""
    deltas = []
    for y0 in states.T:
        y1 = step(system, y0, 0.0, dt, p).endpoint()
        deltas.append(delta_invariant(invariant, y0, y1))
    n = len(deltas)
    mean = sum(deltas) / n
    variance = sum((d - mean) ** 2 for d in deltas) / (n - 1)
    stderr = math.sqrt(variance / n)
    if stderr > 0.0:
        z = float(mean) / stderr
    else:
        z = math.copysign(math.inf, mean) if mean else 0.0
    return mean, stderr, z


def import_geodesy(parser, src):
    """The geodesy package under src, or exit 2 through parser.error.

    src must hold geodesy/__init__.py, and no geodesy may be imported from elsewhere
    already: the import would return that one in its place.
    """
    if not os.path.isfile(os.path.join(src, "geodesy", "__init__.py")):
        parser.error(f"{src} holds no geodesy package")
    sys.path.insert(0, os.path.abspath(src))
    import geodesy

    found = os.path.dirname(os.path.realpath(geodesy.__file__))
    if found != os.path.realpath(os.path.join(src, "geodesy")):
        parser.error(f"geodesy is already imported from {found}, not from --src {src}")
    return geodesy


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", default=os.path.join(ROOT, "src"), help="the src/ directory of the tree to audit"
    )
    args = parser.parse_args(argv)
    geodesy = import_geodesy(parser, args.src)

    print(f"{N} states per case, seed {SEED}; dI = I(y1) - I(y0) exact, eps = 2**-52")
    print(
        f"{'case':<13}{'p':>3}{'dt':>5}{'I0':>5}{'mean dI':>12}{'stderr':>11}{'z':>8}"
        "  |mean| <= eps |I0| / 4"
    )
    for name, system, step, invariant, level, make_states in cases(geodesy):
        states = make_states(np.random.default_rng(SEED), N)
        for p in ORDERS:
            for dt in STEPS:
                mean, stderr, z = audit(system, step, invariant, states, p, dt)
                within = "yes" if abs(mean) <= EPS * level / 4 else "no"
                print(
                    f"{name:<13}{p:>3}{dt:>5g}{str(level):>5}{float(mean):>12.3e}{stderr:>11.3e}"
                    f"{z:>8.1f}  {within}"
                )


if __name__ == "__main__":
    main()
