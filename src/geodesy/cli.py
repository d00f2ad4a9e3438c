"""Benchmark command-line tool.

Subcommands: run (one integration, CSV output), converge (step-size sweep),
tableau (print the extracted Runge-Kutta arrays), plot (emit a gnuplot
script for existing CSV output), list (registries). A setting of run or
converge is its flag when given, else its value in the optional JSON config
file (whose keys mirror the flag names), else its default.

Exit codes: 0 success; 2 usage errors, for run and converge alike: the
CLI's own rules (unknown names, malformed config, the flags' bounds and the
sweep's rules) and anything integrate refuses before its first step (y0,
--pt and --qrhs by the library's order rule, [1, MAX_ORDER], the method's
needs, too many steps, steps that round to zero length, a first or last
element with no finite 1/sqrt(g)), found by one call of the library's check
before anything is integrated, for a sweep at its coarsest level, reported
as a run's, then at its finest level and reference run; for tableau, a --pt
that butcher_tableau_mci refuses by the same rule; 1 a step or invariant
failure, memory or I/O.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .basis import MAX_ORDER
from .errors import GeodesyError
from .integrators import Method, _run_plan, integrate, sample_trajectory
from .newton import NewtonConfig
from .problems import get_problem, problem_names
from .tableau import butcher_tableau_mci, gauss_collocation_tableau

_METHOD_NAMES = tuple(m.value for m in Method)
# a sweep's error at or below _FLOOR eps max|y_ref| is rounding, which has no order
_FLOOR = 64
_ROWS_PER_WRITE = 4096

_CONFIG_KEYS = {
    "problem": str,
    "method": str,
    "pt": int,
    "dt": float,
    "tfinal": float,
    "qrhs": int,
    "out": str,
    "y0": list,
    "newton_abs_tol": float,
    "newton_max_iter": int,
    "samples_per_element": int,
    "dts": list,
    "levels": int,
}
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number", list: "a list of finite numbers"}


class UsageError(Exception):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(f"config file {path} is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for key, val in raw.items():
        if key not in _CONFIG_KEYS:
            known = ", ".join(sorted(_CONFIG_KEYS))
            raise UsageError(f"unknown config key {key!r}; known keys: {known}")
        kind = _CONFIG_KEYS[key]
        if not _config_value_ok(kind, val):
            raise UsageError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {val!r}")
    return raw


def _config_value_ok(kind, val) -> bool:
    # JSON true/false are not numbers here, and NaN/Infinity are not finite
    if kind is list:
        return isinstance(val, list) and all(_config_value_ok(float, v) for v in val)
    if isinstance(val, bool):
        return False
    if kind is float:
        return isinstance(val, (int, float)) and math.isfinite(val)
    return isinstance(val, kind)


def _positive(key, val):
    if not (val > 0 and math.isfinite(val)):
        raise UsageError(f"--{key} must be positive and finite, got {val}")
    return val


def _settings(args, tfinal_steps):
    """Run's or converge's settings, with the checks only the CLI makes.

    tfinal defaults to tfinal_steps * dt. What integrate refuses up front,
    y0, qrhs and the method's needs among them, is left to _check_steps. The
    record's `given` keeps the merged flag and config values, where converge
    finds dts and levels.
    """
    given = _load_config(args.config) if args.config else {}
    given.update((k, v) for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None)
    name = given.get("problem", "circle")
    try:
        problem = get_problem(name)
    except KeyError as err:
        raise UsageError(err.args[0])
    method_name = given.get("method", "mci")
    try:
        method = Method(method_name)
    except ValueError:
        raise UsageError(f"unknown method {method_name!r}; known methods: {', '.join(_METHOD_NAMES)}")
    pt = given.get("pt", 2)
    dt = _positive("dt", given.get("dt", problem.dt_ref))
    keys = {"abs_tol": "newton_abs_tol", "max_iter": "newton_max_iter"}
    try:
        newton = NewtonConfig(**{f: given[k] for f, k in keys.items() if k in given})
    except ValueError as err:
        raise UsageError(f"bad newton_* config value: {err}")
    samples = given.get("samples_per_element", 1)
    if samples < 1:
        raise UsageError(f"samples_per_element must be at least 1, got {samples}")
    tfinal = _positive("tfinal", given.get("tfinal", tfinal_steps * dt))
    return argparse.Namespace(
        given=given, problem=problem, method=method, pt=pt, dt=dt, tfinal=tfinal,
        qrhs=given.get("qrhs"), y0=given.get("y0", problem.y0), newton=newton,
        samples=samples, out=given.get("out") or ".")


def _integrate(opts, dt, p):
    # the one integrate call of run, converge's levels and converge's reference
    return integrate(
        opts.problem.system, opts.method, opts.y0, 0.0, opts.tfinal, dt,
        p=p, newton=opts.newton, q_rhs=opts.qrhs,
    )


def _write_table(path, header, columns):
    """Write equal-length columns as CSV, every value as %.17g (exact round trip)."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        # one format call per block of rows bounds the text held in memory
        for k in range(0, len(table), _ROWS_PER_WRITE):
            block = table[k : k + _ROWS_PER_WRITE]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_trajectory(path, traj, samples_per_element):
    header = "t," + ",".join(f"y_{i + 1}" for i in range(traj.dim))
    if traj.coefficients is not None and samples_per_element > 1:
        lengths = np.diff(traj.times)[:, None]  # element k spans times[k]..times[k+1]
        ts = traj.times[:-1, None] + lengths * np.arange(samples_per_element) / samples_per_element
        ts = np.append(ts.ravel(), traj.times[-1])
        ys = sample_trajectory(traj, ts)
    else:
        ts = traj.times
        ys = traj.states
    _write_table(path, header, [ts, *ys])


def _cmd_run(args):
    opts = _settings(args, 100.0)
    _check_steps(opts, opts.pt, opts.dt, f"{opts.problem.name} via {opts.method.value} is a run")
    traj = _integrate(opts, opts.dt, opts.pt)
    out = opts.out
    os.makedirs(out, exist_ok=True)
    _write_trajectory(os.path.join(out, "trajectory.csv"), traj, opts.samples)
    errors = {label: s - s[0] for label, s in traj.invariants.items()}
    header = "t," + ",".join(f"{label}_error" for label in errors)
    _write_table(os.path.join(out, "invariants.csv"), header, [traj.times, *errors.values()])
    drifts = ", ".join(
        f"max |{label}-{label}0| = {np.max(np.abs(e)):.3e}" for label, e in errors.items()
    )
    print(
        f"{opts.problem.name} via {opts.method.value}: {traj.steps} steps of dt={opts.dt:g} "
        f"to t={opts.tfinal:g}; {drifts}"
    )
    print(f"wrote {os.path.join(out, 'trajectory.csv')} and {os.path.join(out, 'invariants.csv')}")
    return 0


def _check_steps(opts, p, dt, what):
    # integrate's up-front refusals, made before anything is integrated: each is a usage
    # error, the library's message after what names the run, and a sweep finds a run it
    # would refuse before the coarser levels, which can take minutes. Returns the converted y0
    system, method = opts.problem.system, opts.method
    try:
        y0, *_ = _run_plan(system, method, opts.y0, 0.0, opts.tfinal, dt, p, opts.newton, opts.qrhs)
    except ValueError as err:
        raise UsageError(f"{what} that integrate refuses: {err}") from None
    return y0


def _cmd_converge(args):
    opts = _settings(args, 10.0)
    problem, method, pt, dt, tfinal = opts.problem, opts.method, opts.pt, opts.dt, opts.tfinal
    dts, levels = opts.given.get("dts"), None
    if dts is not None:
        try:
            dts = [float(v) for v in (dts.split(",") if isinstance(dts, str) else dts)]
        except ValueError:  # only the flag's string can fail; config lists are checked on load
            raise UsageError(f"--dts must be comma-separated numbers, got {dts!r}")
    else:
        levels = _positive("levels", opts.given.get("levels", 4))
        # ldexp is dt / 2**k bit for bit, without 2**k's overflow past 1023 halvings;
        # checked first, so no list is built for a count whose steps underflow
        if math.ldexp(dt, 1 - levels) == 0.0:
            raise UsageError(f"--levels {levels} halves --dt {dt:g} to a step of 0; use fewer levels")
        dts = [math.ldexp(dt, -k) for k in range(levels)]
    if len(dts) < 3:
        raise UsageError(f"need at least 3 step sizes for a convergence sweep, got {len(dts)}")
    if not all(0 < v < tfinal for v in dts):
        raise UsageError("step sizes must be positive and smaller than tfinal")
    if len(set(dts)) < len(dts):  # a repeated size has no observed order
        raise UsageError(f"step sizes must be distinct, got {', '.join(f'{v:g}' for v in dts)}")
    ref_dt, ref_pt = min(dts) / 64.0, min(pt + 2, MAX_ORDER) if method.is_element_method else pt
    # the coarsest level first, as a run: what it refuses is a setting, not the sweep's. Then
    # the sweep's own prefixes name only what its halved steps cause
    y0 = _check_steps(opts, pt, max(dts), f"{problem.name} via {method.value} is a run")
    flag = "--dts" if levels is None else f"--levels {levels}"
    _check_steps(opts, pt, min(dts), f"{flag} gives the finest level steps")
    # endpoint truth: the exact solution when known, else a much finer run
    if problem.system.exact_solution is None:
        _check_steps(opts, ref_pt, ref_dt, f"{flag} gives the reference run steps")
        y_ref = _integrate(opts, ref_dt, ref_pt).states[:, -1]
    else:
        y_ref = problem.system.exact_solution(tfinal, y0)
    label = problem.invariant_labels[0]  # every registered problem declares one

    endpoint_errors, invariant_errors = [], []
    for h in dts:
        traj = _integrate(opts, h, pt)
        endpoint_errors.append(float(np.linalg.norm(traj.states[:, -1] - y_ref)))
        series = traj.invariants[label]
        invariant_errors.append(float(np.max(np.abs(series - series[0]))))

    # an error at the rounding floor (zero for an exact run) or not finite has no order: nan
    floor = _FLOOR * np.finfo(float).eps * float(np.max(np.abs(y_ref)))
    measured = [floor < e < math.inf for e in endpoint_errors]
    orders = [float("nan")]
    for k in range(1, len(dts)):
        num = math.nan
        if measured[k - 1] and measured[k]:
            num = math.log(endpoint_errors[k - 1] / endpoint_errors[k])
        orders.append(num / math.log(dts[k - 1] / dts[k]))
    os.makedirs(opts.out, exist_ok=True)
    path = os.path.join(opts.out, "convergence.csv")
    _write_table(
        path,
        "dt,endpoint_error,invariant_error,observed_order",
        [dts, endpoint_errors, invariant_errors, orders],
    )
    slope = float("nan")
    if all(measured):
        slope = float(np.polyfit(np.log(dts), np.log(endpoint_errors), 1)[0])
    print(f"{problem.name} via {method.value} (pt={pt}): fitted endpoint order {slope:.3f}")
    for k, h in enumerate(dts):
        print(
            f"  dt={h:<12g} endpoint={endpoint_errors[k]:.6e} "
            f"invariant={invariant_errors[k]:.6e} order={orders[k]:.3f}"
        )
    print(f"wrote {path}")
    return 0


def _cmd_tableau(args):
    pt = 2 if args.pt is None else args.pt
    try:
        tab = butcher_tableau_mci(pt)
    except ValueError as err:  # the library's order rule, as run and converge take it
        raise UsageError(f"a tableau that butcher_tableau_mci refuses: {err}") from None
    oracle = gauss_collocation_tableau(pt)
    dev = max(np.max(np.abs(getattr(tab, k) - getattr(oracle, k))) for k in "abc")
    print(f"stages: {tab.stages}")
    print("c:", "  ".join(f"{v:.15g}" for v in tab.c))
    print("b:", "  ".join(f"{v:.15g}" for v in tab.b))
    print("A:")
    for row in tab.a:
        print("  ", "  ".join(f"{v:.15g}" for v in row))
    print(f"max deviation from Gauss collocation: {dev:.3e}")
    return 0


def _cmd_plot(args):
    out = args.out or "."
    traj_path = os.path.join(out, "trajectory.csv")
    inv_path = os.path.join(out, "invariants.csv")
    for path in (traj_path, inv_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing CSV output: {path} (run `geodesy run` first)")
    with open(inv_path) as fh:
        inv_labels = fh.readline().strip().split(",")[1:]
    with open(traj_path) as fh:
        n_cols = len(fh.readline().strip().split(","))
    lines = [
        "# generated by geodesy plot",
        "set datafile separator ','",
        "set terminal pngcairo size 1200,500",
        "set output 'plots.png'",
        "set multiplot layout 1,2",
        "set key top right",
    ]
    if n_cols >= 3:
        lines += [
            "set xlabel 'y_1'",
            "set ylabel 'y_2'",
            "plot 'trajectory.csv' using 2:3 with lines title 'phase portrait'",
        ]
    else:
        lines += [
            "set xlabel 't'",
            "set ylabel 'y_1'",
            "plot 'trajectory.csv' using 1:2 with lines title 'trajectory'",
        ]
    lines += [
        "set xlabel 't'",
        "set ylabel 'absolute drift'",
        "set logscale y",
    ]
    drift_terms = ", ".join(
        f"'invariants.csv' using 1:(abs(column({k + 2}))) with lines title '{label}'"
        for k, label in enumerate(inv_labels)
    )
    lines.append(f"plot {drift_terms}")
    lines.append("unset multiplot")
    script_path = os.path.join(out, "plot.gp")
    with open(script_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {script_path} (render with: gnuplot {script_path})")
    return 0


def _cmd_list(args):
    print("problems:")
    for name in problem_names():
        prob = get_problem(name)
        labels = ", ".join(prob.invariant_labels) or "none"
        print(
            f"  {name:<16} dim={prob.system.dim}  dt_ref={prob.dt_ref:g}  invariants: {labels}"
        )
    print("methods:")
    descriptions = {
        Method.MCI: "collocation-pairing element method (symplectic, order 2p)",
        Method.MGI: "Galerkin-pairing element method (energy-conserving, order 2p)",
        Method.EXPLICIT_EULER: "explicit Euler (order 1)",
        Method.SYMPLECTIC_EULER: "symplectic Euler, momentum first (order 1)",
        Method.RK4: "classical Runge-Kutta (order 4)",
    }
    for m in Method:
        print(f"  {m.value:<8} {descriptions[m]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodesy",
        description="Structure-preserving time integrator benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, tfinal_help):
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--problem", help=f"one of: {', '.join(problem_names())}")
        sp.add_argument("--method", help=f"one of: {', '.join(_METHOD_NAMES)}")
        sp.add_argument("--pt", type=int, help="polynomial order of the element methods (default 2)")
        sp.add_argument("--dt", type=float, help="step size (default: problem reference)")
        sp.add_argument("--tfinal", type=float, help=tfinal_help)
        sp.add_argument("--qrhs", type=int, help="mgi quadrature points, default min(2 pt + 10, 64)")
        sp.add_argument("--out", help="output directory (default .)")

    sp_run = sub.add_parser("run", help="integrate once and write trajectory/invariants CSVs")
    add_common(sp_run, "final time (default 100 dt)")
    sp_run.set_defaults(func=_cmd_run)

    sp_conv = sub.add_parser("converge", help="sweep step sizes and write convergence.csv")
    add_common(sp_conv, "final time (default 10 dt)")
    sp_conv.add_argument("--dts", help="comma-separated step sizes (overrides --levels)")
    sp_conv.add_argument(
        "--levels", type=int, help="number of halvings of --dt to sweep (default 4)"
    )
    sp_conv.set_defaults(func=_cmd_converge)

    sp_tab = sub.add_parser("tableau", help="print the extracted Runge-Kutta tableau")
    sp_tab.add_argument("--pt", type=int, help="polynomial order (default 2)")
    sp_tab.set_defaults(func=_cmd_tableau)

    sp_plot = sub.add_parser("plot", help="emit a gnuplot script for existing CSV output")
    sp_plot.add_argument("--out", help="directory holding trajectory.csv/invariants.csv")
    sp_plot.set_defaults(func=_cmd_plot)

    sp_list = sub.add_parser("list", help="show available problems and methods")
    sp_list.set_defaults(func=_cmd_list)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process and reused: parsing leaves a parser unchanged, and
    # building one is a visible share of a short run
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GeodesyError, OSError, ValueError, MemoryError) as err:
        print(f"failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
