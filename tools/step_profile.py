"""Where an element step's time goes: cProfile shares of one integrate call per layer.

Usage, from the repository root:

    python3 tools/step_profile.py [--steps N] [--runs R] [--src PATH]

Each case integrates N steps (default 2000) under cProfile, R times (default
5), and prints the median share of the integrate call's time per layer:

- residual: the stage residual closure, with _field_at, the domain check and
  the field, whoever calls it (Newton or the forward differences);
- jacobian: the stage Jacobian closure with the problem's jacobian;
- fd: forward_difference_jacobian's own work, without its residual calls;
- newton: newton_solve's own work, without the layers above and the LU;
- lu: _lu_factor_checked, with LAPACK's getrf;
- driver: the rest of integrate: element set-up, the guess, the records and
  the invariant series.

In each run the shares sum to 100%. The cases are pendulum MCI p=2 at dt=0.1, Lotka-
Volterra MCI p=3 at dt=0.3 without its analytic Jacobian (forward
differences), and kepler MGI p=4 at dt=2 pi/128 with the default q_rhs. The
profiler adds a fixed cost to every Python call, so the shares of call-heavy
layers read high; compare them between trees, not with unprofiled times.
Calls into C (numpy, LAPACK, builtins such as max) are not profiled on
their own: their time counts in the layer that makes them.
"""

import argparse
import cProfile
import dataclasses
import math
import os
import pstats
import statistics
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name, problem, method, order, dt, keep the analytic Jacobian
CASES = (
    ("pendulum MCI p=2", "pendulum", "MCI", 2, 0.1, True),
    ("lotka-volterra MCI p=3, no jacobian", "lotka-volterra", "MCI", 3, 0.3, False),
    ("kepler MGI p=4", "kepler", "MGI", 4, 2.0 * math.pi / 128.0, True),
)
LAYERS = ("residual", "jacobian", "fd", "newton", "lu", "driver")

# (module file, function name) of each layer's root
_ROOTS = {
    "integrate": ("integrators.py", "integrate"),
    "residual": ("integrators.py", "residual"),
    "jacobian": ("integrators.py", "jacobian"),
    "fd": ("newton.py", "forward_difference_jacobian"),
    "newton": ("newton.py", "newton_solve"),
    "lu": ("newton.py", "_lu_factor_checked"),
}


def _root_key(stats, name):
    path = os.path.join("geodesy", _ROOTS[name][0])
    funcname = _ROOTS[name][1]
    return next((key for key in stats if key[2] == funcname and key[0].endswith(path)), None)


def layer_seconds(stats):
    """Disjoint layer times, in seconds, from a pstats table of one integrate call."""
    keys = {name: _root_key(stats, name) for name in _ROOTS}

    def cum(name):
        key = keys[name]
        return stats[key][3] if key else 0.0

    def called_from(name, caller):
        # the inclusive time of name's calls made directly from caller
        key, by = keys[name], keys[caller]
        if key is None or by is None:
            return 0.0
        return stats[key][4].get(by, (0, 0, 0.0, 0.0))[3]

    total = cum("integrate")
    seconds = {
        "residual": cum("residual"),
        "jacobian": cum("jacobian"),
        "fd": cum("fd") - called_from("residual", "fd"),
        "lu": cum("lu"),
        "newton": cum("newton")
        - sum(called_from(name, "newton") for name in ("residual", "jacobian", "fd", "lu")),
        "driver": total - cum("newton"),
    }
    return seconds, total


def profile_case(g, case, steps):
    """Shares per layer (percent), Newton iterations per step and profiled us per step."""
    _, problem, method, p, dt, analytic = case
    spec = g.get_problem(problem)
    system = spec.system if analytic else dataclasses.replace(spec.system, jacobian=None)
    method = g.Method[method]
    profiler = cProfile.Profile(builtins=False)  # C calls count in their caller's own time
    traj = profiler.runcall(g.integrate, system, method, spec.y0, 0.0, steps * dt, dt, p=p)
    seconds, total = layer_seconds(pstats.Stats(profiler).stats)
    shares = {name: 100.0 * seconds[name] / total for name in LAYERS}
    return shares, float(traj.newton_iterations.mean()), 1e6 * total / traj.steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=2000, help="steps per integrate call")
    parser.add_argument("--runs", type=int, default=5, help="profiled calls per case; medians")
    parser.add_argument(
        "--src", default=os.path.join(ROOT, "src"), help="the src/ directory of the tree to profile"
    )
    args = parser.parse_args(argv)
    if args.steps < 1 or args.runs < 1:
        parser.error("--steps and --runs must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    import geodesy

    print(f"{args.steps} steps, median of {args.runs} profiled runs; shares of integrate's time")
    print(f"{'case':<38}" + "".join(f"{name:>9}" for name in LAYERS) + f"{'iters':>7}{'us/step':>9}")
    for case in CASES:
        runs = [profile_case(geodesy, case, args.steps) for _ in range(args.runs)]
        shares = {name: statistics.median(r[0][name] for r in runs) for name in LAYERS}
        iters = runs[0][1]  # the same in every run
        us = statistics.median(r[2] for r in runs)
        row = "".join(f"{shares[name]:>8.1f}%" for name in LAYERS)
        print(f"{case[0]:<38}{row}{iters:>7.2f}{us:>9.1f}")


if __name__ == "__main__":
    main()
