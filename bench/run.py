"""Time per integration step of geodesy's element integrators, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run is one closed loop in one process with one thread (BLAS is pinned
to one thread): a single client calls the next operation when the previous
one returns. An operation integrates a fixed number of steps from the
previous operation's end state, so the run is one long trajectory; on
``dense-output`` it is one in-process ``geodesy run``. The op count is fixed
from --seconds and the workload's nominal rate, so every run of a workload
does the same work and retains the same trajectories.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time of a
cold process (median of several), time per step of each operation (p50 and
p90 over the operations) and peak RSS. Times are scaled to a reference
speed by fixed kernels timed next to each operation and each set-up (see
refspeed.py); the raw wall times are printed as info lines. --trace 1 reports its per-layer
metrics: a window of the same trajectory runs untraced, then twice with
every hook point wrapped; the traced passes must reproduce the untraced
end states bitwise and repeat each other's counts exactly.

Each operation's output is checked (see workloads.py); a raised error or a
failed check counts as a failed operation. The last line of stdout is the
JSON result; the full record, with spans, goes to .bench_out/.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import geodesy  # noqa: E402
import refspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Gate  # noqa: E402

SETUP_RUNS = 9  # cold processes per run; setup_s is their median
MIN_OPS = 100  # p90 then has at least 10 samples beyond it
TRACE_SHARE = 5  # the traced window is this fraction of the timed run
RETAINED_OPS = 4  # tracemalloc slows a step several times over


@dataclasses.dataclass
class Pass:
    """Outcome of one loop over a workload's operations."""

    step_us: list = dataclasses.field(default_factory=list)  # wall time per step
    step_ref_us: list = dataclasses.field(default_factory=list)  # the same at reference speed
    ends: list = dataclasses.field(default_factory=list)
    kept: list = dataclasses.field(default_factory=list)
    gates: dict = dataclasses.field(default_factory=dict)  # name -> worst Gate
    errors: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    nbytes: int = 0


def run_ops(wl, n_ops, check=True):
    """Closed loop over n_ops operations; only wl.op is timed."""
    out = Pass()
    y, done = wl.y0, 0
    kernel_before = refspeed.kernel_seconds()
    for _ in range(n_ops):
        steps = wl.steps_per_op
        out.attempted += 1
        try:
            start = perf_counter()
            res = wl.op(y, steps)
            elapsed = perf_counter() - start
            kernel_after = refspeed.kernel_seconds()
            seg = wl.finish(y, steps, res)
            gates = wl.check(done, y, seg) if check else []
        except Exception as err:  # a failed operation is counted; the trajectory restarts
            out.failed += 1
            out.errors.append(f"{type(err).__name__}: {err}")
            y, done = wl.y0, 0
            continue
        for g in gates:
            worst = out.gates.get(g.name)
            if worst is None or not g.value <= worst.value:
                out.gates[g.name] = g
        if not all(g.ok for g in gates):
            out.failed += 1
        out.step_us.append(elapsed / steps * 1e6)
        kernel = (kernel_before + kernel_after) / 2.0
        out.step_ref_us.append(refspeed.to_reference(elapsed, kernel) / steps * 1e6)
        kernel_before = kernel_after
        out.ends.append(seg.y_end)
        out.kept.append(seg.kept)
        out.nbytes += seg.nbytes
        out.steps += steps
        y, done = seg.y_end, done + steps
    if not out.step_us:
        raise RuntimeError(f"every operation failed; first error: {out.errors[0]}")
    return out


def setup_seconds(wl):
    cmd = [sys.executable, os.path.join(HERE, "cold_start.py"), wl.name, str(wl.seed), wl.workdir]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    elapsed, interpreter = (float(v) for v in done.stdout.split()[-2:])
    return elapsed, refspeed.to_reference(elapsed, interpreter, refspeed.INTERPRETER_US)


def warm_up(wl):
    wl.finish(wl.y0, 1, wl.op(wl.y0, 1))


def timed_run(wl, n_ops):
    setups = [setup_seconds(wl) for _ in range(SETUP_RUNS)]
    warm_up(wl)
    run = run_ops(wl, n_ops)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "step_ref_us.p50": tracing.percentile(run.step_ref_us, 50),
        "step_ref_us.p90": tracing.percentile(run.step_ref_us, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "samples": len(run.step_us),
        "step_us.p50": tracing.percentile(run.step_us, 50),
        "step_us.p90": tracing.percentile(run.step_us, 90),
        "setup_wall_s": statistics.median(wall for wall, _ in setups),
    }
    return metrics, [run], [], info, None


def traced_pass(wl, n_ops):
    tracer = tracing.Tracer()
    with wl.traced(tracer), tracer.installed():
        run = run_ops(wl, n_ops, check=False)
    return tracer, run


def retained_bytes_per_step(wl, n_ops):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = run_ops(wl, n_ops, check=False)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / run.steps


def rk4_step_us(wl, n_ops):
    y, times = wl.y0, []
    for _ in range(n_ops):
        start = perf_counter()
        traj = wl.rk4_window(y, wl.steps_per_op)
        times.append((perf_counter() - start) / wl.steps_per_op * 1e6)
        y = traj.states[:, -1]
    return statistics.median(times)


def layer_metrics(tracer, run, base):
    s = tracing.summarize(tracer.spans)
    c = tracer.counts

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return s.get(name, (0, 0.0, 0.0))[2]

    iters = c["newton.iterations"]
    return {
        "systems.field.calls": calls("field"),
        "systems.field.points": c["field.points"],
        "systems.field.s": total("field"),
        "systems.jacobian.calls": calls("system_jacobian"),
        "systems.jacobian.points": c["system_jacobian.points"],
        "systems.jacobian.s": total("system_jacobian"),
        "systems.domain_check.calls": calls("domain_check"),
        "systems.domain_check.s": total("domain_check"),
        "systems.invariant.calls": calls("invariant"),
        "systems.invariant.s": total("invariant"),
        "integrators.residual.calls": calls("residual"),
        "integrators.residual.self_s": own("residual"),
        "integrators.jacobian.calls": calls("jacobian"),
        "integrators.jacobian.self_s": own("jacobian"),
        "integrators.driver.self_s": own("integrate"),
        "newton.solves": calls("newton"),
        "newton.iters_per_step": tracing.ratio(iters, run.steps),
        "newton.converged_ratio": tracing.ratio(c["newton.converged"], calls("newton")),
        # the first residual of each solve precedes any iteration
        "newton.residual_calls_per_iter": tracing.ratio(calls("residual") - calls("newton"), iters),
        "newton.lu_factor.calls": calls("lu_factor"),
        "newton.lu_factor.s": total("lu_factor"),
        "newton.lu_solve.s": total("lu_solve"),
        "newton.self_s": own("newton"),
        "mimetic.grid_build.calls": calls("grid_build"),
        "mimetic.grid_build.s": total("grid_build"),
        "basis.nodal_eval.calls": calls("nodal_eval"),
        "basis.nodal_eval.s": total("nodal_eval"),
        "cli.sample.points": c["sample.points"],
        "cli.sample.s": total("sample"),
        "cli.write.self_s": own("cli.main"),
        "cli.write.bytes": run.nbytes,
        "trace.steps": run.steps,
        "trace.overhead_ratio": tracing.ratio(
            tracing.percentile(run.step_ref_us, 50), tracing.percentile(base.step_ref_us, 50)
        ),
    }


def traced_run(wl, n_ops):
    window = max(2, n_ops // TRACE_SHARE)
    warm_up(wl)
    base = run_ops(wl, window)
    (tracer, first), (again, second) = traced_pass(wl, window), traced_pass(wl, window)
    mismatches = sum(
        abs(len(p.ends) - len(base.ends)) + sum(not np.array_equal(a, b) for a, b in zip(p.ends, base.ends))
        for p in (first, second)
    )
    counts_a, counts_b = tracer.call_counts(), again.call_counts()
    differing = sorted(k for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k))
    checks = [
        Gate("traced_end_state_mismatches", mismatches, 0),
        Gate("traced_count_mismatches", len(differing), 0),
    ]
    metrics = layer_metrics(tracer, first, base)
    metrics["integrators.retained_bytes_per_step"] = retained_bytes_per_step(wl, min(window, RETAINED_OPS))
    metrics["baseline.rk4.step_us"] = rk4_step_us(wl, window)
    info = {
        "absent_layers": sorted(tracer.absent),
        "differing_counts": differing,
        "counts": counts_a,
        "untraced_step_us.p50": tracing.percentile(base.step_us, 50),
    }
    return metrics, [base, first, second], checks, info, tracer.spans


def machine():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length at the nominal rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="override the op count (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.abspath(geodesy.__file__).startswith(SRC + os.sep):
        sys.exit(f"geodesy was imported from {geodesy.__file__}, not from {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        n_ops = args.ops or max(MIN_OPS, round(args.seconds * wl.ops_per_second))
        run = traced_run if args.trace else timed_run
        metrics, passes, checks, info, spans = run(wl, n_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(declared):
        sys.exit(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")

    gates = {}
    for p in passes:
        gates.update(p.gates)
    gates.update({g.name: g for g in checks})
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and all(g.ok for g in gates.values())

    print(f"workload {wl.name} seed {args.seed}: {n_ops} operations of {wl.steps_per_op} steps, "
          f"closed loop, 1 client, dt={wl.dt!r}, p={wl.p}")
    for key, value in machine().items():
        print(f"machine {key} {value}")
    for key, value in info.items():
        print(f"info {key} {value}")
    for g in gates.values():
        print(f"gate {g.name} {g.value:.3e} <= {g.tol:.1e} {'ok' if g.ok else 'FAIL'}")
    for err in sorted(set(e for p in passes for e in p.errors)):
        print(f"error {err}")
    print(f"fail_ratio {failed / attempted} ({failed}/{attempted})")
    for name in declared:
        print(f"metric {name} {metrics[name]} {declared[name]}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": n_ops, "steps_per_op": wl.steps_per_op, "machine": machine(), "info": info,
        "gates": {g.name: [g.value, g.tol] for g in gates.values()},
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "spans": [["name", "start", "end", "parent"]] + (spans or []),
    }
    with open(os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
