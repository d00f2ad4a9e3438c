"""Where an element step's time goes: cProfile shares of one integrate call per layer.

Usage, from the repository root:

    python3 tools/step_profile.py [--steps N] [--runs R] [--src PATH]

Each case integrates N steps (default 2000) under cProfile, R times (default
5), and prints the median share of the integrate call's time per layer:

- problem: the system's own field, jacobian and domain_check, wherever they
  are called from: the residual, the stage Jacobian, or integrate's check
  of each accepted state;
- residual: the stage residual closure without the problem's kernels, whoever
  calls it (Newton or the forward differences);
- jacobian: the stage Jacobian closure without the problem's jacobian;
- fd: the forward-difference core's own work (newton._forward_differences,
  the one difference routine, which the Newton core runs when the system
  has no jacobian), without its residual calls;
- newton: the Newton core's own work (newton._newton, the step's entry,
  without the public newton_solve's checks), without the layers above and
  the LU;
- lu: _lu_factor_checked, with LAPACK's getrf;
- driver: the rest of integrate: element set-up, the guess, the records,
  the invariant series and OdeSystem.check_domain's own frame.

In each run the shares sum to 100%. The cases are pendulum MCI p=2 at dt=0.1, Lotka-
Volterra MCI p=3 at dt=0.3 without its analytic Jacobian (forward
differences), kepler MGI p=4 at dt=2 pi/128 with the default q_rhs, and
kepler MGI (default q_rhs) and MCI at p=8 and dt=2 pi/32, four times the
p=4 case's step. The
profiler adds a fixed cost to every Python call, so the shares of call-heavy
layers read high; compare them between trees, not with unprofiled times.
Calls into C (numpy, LAPACK, builtins such as max) are not profiled on
their own: their time counts in the layer that makes them. The kernels are
found in the table by their code objects (file, first line, name), so a
closure of the same name elsewhere is not mistaken for them. A tree whose
Newton loop, integrate or LU check has another name (one from before the
Newton cores, given with --src) is refused with a ValueError naming the
missing root: profile it with its own copy of this tool. A --src that holds
no geodesy package, or a process that has imported geodesy from another
tree, is refused with exit status 2.
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
    ("kepler MGI p=8, dt=2 pi/32", "kepler", "MGI", 8, 2.0 * math.pi / 32.0, True),
    ("kepler MCI p=8, dt=2 pi/32", "kepler", "MCI", 8, 2.0 * math.pi / 32.0, True),
)
LAYERS = ("problem", "residual", "jacobian", "fd", "newton", "lu", "driver")

# (module file, function name) of each layer's root
_ROOTS = {
    "integrate": ("integrators.py", "integrate"),
    "residual": ("integrators.py", "residual"),
    "jacobian": ("integrators.py", "jacobian"),
    "fd": ("newton.py", "_forward_differences"),
    "newton": ("newton.py", "_newton"),
    "lu": ("newton.py", "_lu_factor_checked"),
}


# (module file, function name) of each caller of the problem's kernels, and its layer;
# the profiled cases reach the field only through the residual's _field_values
_CALLERS = {
    ("integrators.py", "_field_values"): "residual",
    ("integrators.py", "jacobian"): "jacobian",
    ("systems.py", "check_domain"): "driver",
}


def _caller_layer(caller):
    filename, _, funcname = caller
    for (module, name), layer in _CALLERS.items():
        if name == funcname and filename.endswith(os.path.join("geodesy", module)):
            return layer
    raise ValueError(f"no layer holds the problem's kernel calls from {funcname} in {filename}")


def _root_key(stats, name):
    path = os.path.join("geodesy", _ROOTS[name][0])
    funcname = _ROOTS[name][1]
    return next((key for key in stats if key[2] == funcname and key[0].endswith(path)), None)


def kernel_keys(system):
    """The pstats keys of the system's own field, jacobian and domain_check."""
    fns = (system.field, system.jacobian, system.domain_check)
    return tuple(
        (f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name)
        for f in fns
        if f is not None
    )


def layer_seconds(stats, kernels):
    """Disjoint layer times, in seconds, from a pstats table of one integrate call.

    kernels holds the pstats keys of the problem's own callables (kernel_keys).
    Their time leaves the layer of the function that calls them: the residual,
    the stage Jacobian or integrate itself. The forward differences call them
    only through the residual, whose calls are not in fd's layer.
    """
    keys = {name: _root_key(stats, name) for name in _ROOTS}
    # every case solves with LU, so these roots always run: one missing from the table is a
    # tree whose functions this tool does not name, whose shares would read 0 and over 100%
    for name in ("integrate", "newton", "lu"):
        if keys[name] is None:
            module, funcname = _ROOTS[name]
            raise ValueError(f"the profile has no {funcname} in {module}, the {name} layer's root")

    def cum(name):
        key = keys[name]
        return stats[key][3] if key else 0.0

    def called_from(name, caller):
        # the inclusive time of name's calls made directly from caller
        key, by = keys[name], keys[caller]
        if key is None or by is None:
            return 0.0
        return stats[key][4].get(by, (0, 0, 0.0, 0.0))[3]

    # the kernels' inclusive time, split by the layer of each direct caller
    under = {"residual": 0.0, "jacobian": 0.0, "driver": 0.0}
    for kernel in kernels:
        for caller, (*_, seconds) in stats.get(kernel, (0, 0, 0, 0, {}))[4].items():
            under[_caller_layer(caller)] += seconds

    total = cum("integrate")
    seconds = {
        "problem": sum(under.values()),
        "residual": cum("residual") - under["residual"],
        "jacobian": cum("jacobian") - under["jacobian"],
        "fd": cum("fd") - called_from("residual", "fd"),
        "lu": cum("lu"),
        "newton": cum("newton")
        - sum(called_from(name, "newton") for name in ("residual", "jacobian", "fd", "lu")),
        "driver": total - cum("newton") - under["driver"],
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
    seconds, total = layer_seconds(pstats.Stats(profiler).stats, kernel_keys(system))
    shares = {name: 100.0 * seconds[name] / total for name in LAYERS}
    return shares, float(traj.newton_iterations.mean()), 1e6 * total / traj.steps


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
    parser.add_argument("--steps", type=int, default=2000, help="steps per integrate call")
    parser.add_argument("--runs", type=int, default=5, help="profiled calls per case; medians")
    parser.add_argument(
        "--src", default=os.path.join(ROOT, "src"), help="the src/ directory of the tree to profile"
    )
    args = parser.parse_args(argv)
    if args.steps < 1 or args.runs < 1:
        parser.error("--steps and --runs must be at least 1")
    geodesy = import_geodesy(parser, args.src)

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
