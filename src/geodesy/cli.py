"""Benchmark command-line tool.

Subcommands: run (one integration, CSV output), converge (step-size sweep),
tableau (print the extracted Runge-Kutta arrays), plot (emit a gnuplot
script for existing CSV output), list (registries). Configuration comes
from an optional JSON file mirroring the flag names; explicit flags win.

Exit codes: 0 success, 1 runtime failure during integration or file
handling, 2 usage errors (unknown names, malformed config, --qrhs with a
method other than mgi, --levels whose smallest step is 0).
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
from .integrators import Method, integrate, sample_trajectory
from .newton import NewtonConfig
from .problems import get_problem, problem_names
from .tableau import butcher_tableau_mci, gauss_collocation_tableau

_METHOD_NAMES = tuple(m.value for m in Method)
_MAX_ORDER_CLI = 16
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


def _resolve(args, config, key, default=None):
    # CLI flag beats config file beats caller default
    val = getattr(args, key, None)
    return config.get(key, default) if val is None else val


def _positive(key, val):
    if not (val > 0 and math.isfinite(val)):
        raise UsageError(f"--{key} must be positive and finite, got {val}")
    return val


def _resolve_common(args):
    config = _load_config(args.config) if args.config else {}
    name = _resolve(args, config, "problem") or "circle"
    try:
        problem = get_problem(name)
    except KeyError as err:
        raise UsageError(err.args[0])
    method_name = _resolve(args, config, "method") or "mci"
    try:
        method = Method(method_name)
    except ValueError:
        raise UsageError(f"unknown method {method_name!r}; known methods: {', '.join(_METHOD_NAMES)}")
    if method is Method.SYMPLECTIC_EULER and problem.system.partition is None:
        raise UsageError(
            f"method 'seuler' needs a separable partition, which problem {problem.name!r} does not define"
        )
    pt = _resolve(args, config, "pt", 2)
    if not 1 <= pt <= _MAX_ORDER_CLI:
        raise UsageError(f"--pt must lie in [1, {_MAX_ORDER_CLI}], got {pt}")
    dt = _positive("dt", _resolve(args, config, "dt", problem.dt_ref))
    qrhs = _resolve(args, config, "qrhs")
    if qrhs is not None and method is not Method.MGI:
        raise UsageError("--qrhs applies to --method mgi only")
    if qrhs is not None and not 1 <= qrhs <= MAX_ORDER:
        raise UsageError(f"--qrhs must lie in [1, {MAX_ORDER}], got {qrhs}")
    out = _resolve(args, config, "out") or "."
    y0 = np.asarray(config.get("y0", problem.y0), dtype=float)
    if y0.shape != (problem.system.dim,):
        raise UsageError(
            f"y0 must have {problem.system.dim} entries for {problem.name}, got {y0.shape}"
        )
    keys = {"abs_tol": "newton_abs_tol", "max_iter": "newton_max_iter"}
    try:
        newton = NewtonConfig(**{f: config[k] for f, k in keys.items() if k in config})
    except ValueError as err:
        raise UsageError(f"bad newton_* config value: {err}")
    samples = config.get("samples_per_element", 1)
    if samples < 1:
        raise UsageError(f"samples_per_element must be at least 1, got {samples}")
    return problem, method, pt, dt, qrhs, out, y0, newton, samples, config


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
    problem, method, pt, dt, qrhs, out, y0, newton, samples, config = _resolve_common(args)
    tfinal = _positive("tfinal", _resolve(args, config, "tfinal", 100.0 * dt))
    traj = integrate(problem.system, method, y0, 0.0, tfinal, dt, p=pt, newton=newton, q_rhs=qrhs)
    os.makedirs(out, exist_ok=True)
    _write_trajectory(os.path.join(out, "trajectory.csv"), traj, samples)
    errors = {label: s - s[0] for label, s in traj.invariants.items()}
    header = "t," + ",".join(f"{label}_error" for label in errors)
    _write_table(os.path.join(out, "invariants.csv"), header, [traj.times, *errors.values()])
    drifts = ", ".join(
        f"max |{label}-{label}0| = {np.max(np.abs(e)):.3e}" for label, e in errors.items()
    )
    print(
        f"{problem.name} via {method.value}: {traj.steps} steps of dt={dt:g} to t={tfinal:g}; {drifts}"
    )
    print(f"wrote {os.path.join(out, 'trajectory.csv')} and {os.path.join(out, 'invariants.csv')}")
    return 0


def _reference_states(problem, method, pt, qrhs, y0, tfinal, dts, newton):
    """Endpoint truth: exact solution when known, else a much finer run."""
    sys_ = problem.system
    if sys_.exact_solution is not None:
        return sys_.exact_solution(tfinal, y0)
    ref_dt = min(dts) / 64.0
    ref_pt = pt + 2 if method.is_element_method else pt
    traj = integrate(sys_, method, y0, 0.0, tfinal, ref_dt, p=ref_pt, newton=newton, q_rhs=qrhs)
    return traj.states[:, -1]


def _cmd_converge(args):
    problem, method, pt, dt, qrhs, out, y0, newton, _, config = _resolve_common(args)
    tfinal = _positive("tfinal", _resolve(args, config, "tfinal", 10.0 * dt))
    dts = _resolve(args, config, "dts")
    if dts is not None:
        try:
            dts = [float(v) for v in (dts.split(",") if isinstance(dts, str) else dts)]
        except ValueError:  # only the flag's string can fail; config lists are checked on load
            raise UsageError(f"--dts must be comma-separated numbers, got {dts!r}")
    else:
        levels = _positive("levels", _resolve(args, config, "levels", 4))
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
    y_ref = _reference_states(problem, method, pt, qrhs, y0, tfinal, dts, newton)
    label = problem.invariant_labels[0] if problem.invariant_labels else None

    endpoint_errors, invariant_errors = [], []
    for h in dts:
        traj = integrate(problem.system, method, y0, 0.0, tfinal, h, p=pt, newton=newton, q_rhs=qrhs)
        endpoint_errors.append(float(np.linalg.norm(traj.states[:, -1] - y_ref)))
        if label is None:
            invariant_errors.append(float("nan"))
        else:
            series = traj.invariants[label]
            invariant_errors.append(float(np.max(np.abs(series - series[0]))))

    # an error that is zero (an exact run) or not finite has no logarithm: its orders are nan
    measured = [0.0 < e < math.inf for e in endpoint_errors]
    orders = [float("nan")]
    for k in range(1, len(dts)):
        num = math.nan
        if measured[k - 1] and measured[k]:
            num = math.log(endpoint_errors[k - 1] / endpoint_errors[k])
        orders.append(num / math.log(dts[k - 1] / dts[k]))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "convergence.csv")
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
    pt = args.pt if args.pt is not None else 2
    if not 1 <= pt <= _MAX_ORDER_CLI:
        raise UsageError(f"--pt must lie in [1, {_MAX_ORDER_CLI}], got {pt}")
    tab = butcher_tableau_mci(pt)
    oracle = gauss_collocation_tableau(pt)
    dev = max(
        np.max(np.abs(tab.a - oracle.a)),
        np.max(np.abs(tab.b - oracle.b)),
        np.max(np.abs(tab.c - oracle.c)),
    )
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
        sp.add_argument("--qrhs", type=int, help="quadrature points, default 2 pt + 10 (mgi only)")
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
