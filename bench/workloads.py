"""The benchmark's four workloads.

Every workload is one long trajectory cut into operations of a fixed number
of steps: each operation starts from the previous one's end state. The seed
only picks the initial state. ``op`` is the timed call; ``finish`` and
``check`` run untimed and turn its output into the next start state and a
list of correctness gates.

Tolerances were set from seeds 0-7, each run for at least twice as many
steps as a --seconds 10 run makes: each is at least 10x the largest value
observed there.
"""

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np

import geodesy
import geodesy.cli


@dataclasses.dataclass
class Gate:
    """One correctness check: passes when value <= tol."""

    name: str
    value: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.tol)


@dataclasses.dataclass
class Segment:
    """Untimed outcome of one operation."""

    y_end: np.ndarray
    kept: object  # what a user keeps from the operation (the Trajectory)
    data: object = None  # parsed output, for the checks
    nbytes: int = 0  # output written


def _drift_gates(traj, invariant0, tols):
    return [
        Gate(f"{label}_drift", float(np.max(np.abs(traj.invariants[label] - invariant0[label]))), tols[label])
        for label in tols
    ]


class Workload:
    name = ""
    problem_name = ""
    method = geodesy.Method.MCI
    p = 2
    dt = 0.1
    steps_per_op = 20
    ops_per_second = 10.0  # sets the op count from --seconds; see run.py

    def __init__(self, seed, workdir):
        self.seed = seed
        self.problem = geodesy.get_problem(self.problem_name)
        self.system = self.problem.system
        self.integrate = geodesy.integrate
        self.workdir = workdir
        self.y0 = self.initial_state(np.random.default_rng(seed))
        self.invariant0 = {label: float(fn(self.y0)) for label, fn in self.problem.system.invariants}

    def initial_state(self, rng) -> np.ndarray:
        raise NotImplementedError

    def op(self, y, steps):
        return self.integrate(self.system, self.method, y, 0.0, steps * self.dt, self.dt, p=self.p)

    def finish(self, y, steps, out) -> Segment:
        return Segment(out.states[:, -1].copy(), out)

    @contextlib.contextmanager
    def traced(self, tracer):
        """Run the block with this workload's system and entry point recording spans."""
        saved = dict(vars(self))
        self.system = tracer.trace_system(self.system)
        self.integrate = tracer.wrap("integrate", self.integrate)
        try:
            yield
        finally:
            vars(self).update(saved)

    def rk4_window(self, y, steps):
        """The same problem, dt and window integrated with classical RK4."""
        return geodesy.integrate(self.problem.system, geodesy.Method.RK4, y, 0.0, steps * self.dt, self.dt)


class KeplerMGI(Workload):
    """Galerkin pairing, q_rhs=18: Jacobian assembly and per-node field calls dominate a step."""

    name = "kepler-mgi"
    problem_name = "kepler"
    method = geodesy.Method.MGI
    p = 4
    dt = 2.0 * math.pi / 128.0
    steps_per_op = 8  # 16 operations per orbital period
    ops_per_second = 20.0
    # phase error grows by about one step's local error per period; observed
    # max: return 9.1e-11 per period, H drift 4.7e-13, L drift 1.13e-12
    TOL_RETURN = 1e-9
    TOL_DRIFT = {"H": 5e-12, "L": 2e-11}

    def initial_state(self, rng):
        # rotating both p and q keeps the orbit (e = 0.6, period 2 pi), only turned
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        base = self.problem.y0
        return np.concatenate([rot @ base[:2], rot @ base[2:]])

    def check(self, done_steps, y_start, seg):
        gates = _drift_gates(seg.kept, self.invariant0, self.TOL_DRIFT)
        periods, rest = divmod(done_steps + len(seg.kept.times) - 1, 128)
        if rest == 0:
            err = float(np.max(np.abs(seg.y_end - self.y0)))
            gates.append(Gate("period_return_error_per_period", err / periods, self.TOL_RETURN))
        return gates


class PendulumMCI(Workload):
    """Cheap steps: per-step grid builds, driver bookkeeping and Newton iteration count dominate."""

    name = "pendulum-mci"
    problem_name = "pendulum"
    method = geodesy.Method.MCI
    p = 2
    dt = 0.1
    steps_per_op = 80
    ops_per_second = 20.0
    TOL_DRIFT = {"H": 5e-3}  # observed max 2.3e-4

    def initial_state(self, rng):
        return np.array([0.0, rng.uniform(1.0, 2.0)])

    def check(self, done_steps, y_start, seg):
        return _drift_gates(seg.kept, self.invariant0, self.TOL_DRIFT)


class LotkaVolterraFD(Workload):
    """No analytic Jacobian: forward differences make the residual layer build the Jacobian."""

    name = "lv-fd"
    problem_name = "lotka-volterra"
    method = geodesy.Method.MCI
    p = 3
    dt = 0.3
    steps_per_op = 20
    ops_per_second = 20.0
    # Both runs stop each step once the residual is below the Newton
    # tolerance 1e-12, so their endpoints may differ by about that much per
    # step; observed max 6e-13 over an operation.
    TOL_ENDPOINT = 1e-12 * steps_per_op
    TOL_DRIFT = {"V": 0.15}  # observed max 0.0125: V is not conserved exactly at dt = 0.3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.system = dataclasses.replace(self.problem.system, jacobian=None)

    def initial_state(self, rng):
        return np.array([3.0, 3.0]) + rng.uniform(-0.5, 0.5, size=2)

    def check(self, done_steps, y_start, seg):
        steps = len(seg.kept.times) - 1
        ref = geodesy.integrate(
            self.problem.system, self.method, y_start, 0.0, steps * self.dt, self.dt, p=self.p
        )
        err = float(np.max(np.abs(ref.states[:, -1] - seg.y_end)))
        return [Gate("endpoint_vs_analytic", err, self.TOL_ENDPOINT)] + _drift_gates(
            seg.kept, self.invariant0, self.TOL_DRIFT
        )


class DenseOutput(Workload):
    """`geodesy run` with 32 samples per element: sampling and CSV writing, not solving, dominate."""

    name = "dense-output"
    problem_name = "circle"
    method = geodesy.Method.MCI
    p = 2
    dt = 0.1
    steps_per_op = 50
    ops_per_second = 16.0
    SAMPLES = 32
    # observed max: dense 8.7e-6 * radius (degree-2 polynomials inside each
    # element), drift 2.5e-14 (quadratic invariants are exact up to rounding)
    TOL_DENSE = 1e-4
    TOL_DRIFT = {"H": 1e-12, "R": 1e-12}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cli_main = geodesy.cli.main
        self.config = os.path.join(workdir, "run.json")

    @contextlib.contextmanager
    def traced(self, tracer):
        # the CLI looks up its own problem, integrator and sampler; the
        # tracer's hooks on geodesy.cli cover those
        saved = self.cli_main
        self.cli_main = tracer.wrap("cli.main", self.cli_main)
        try:
            yield
        finally:
            self.cli_main = saved

    def initial_state(self, rng):
        radius, phase = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        return radius * np.array([math.cos(phase), math.sin(phase)])

    def op(self, y, steps):
        with open(self.config, "w") as fh:
            json.dump({"y0": [float(v) for v in y], "samples_per_element": self.SAMPLES}, fh)
        argv = [
            "run", "--config", self.config, "--problem", self.problem_name,
            "--method", self.method.value, "--pt", str(self.p), "--dt", repr(self.dt),
            "--tfinal", repr(steps * self.dt), "--out", self.workdir,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"geodesy run exited with code {code}")

    def finish(self, y, steps, out):
        traj = os.path.join(self.workdir, "trajectory.csv")
        inv = os.path.join(self.workdir, "invariants.csv")
        rows = np.loadtxt(traj, delimiter=",", skiprows=1, ndmin=2)
        drift = np.loadtxt(inv, delimiter=",", skiprows=1, ndmin=2)
        nbytes = os.path.getsize(traj) + os.path.getsize(inv)
        return Segment(rows[-1, 1:].copy(), None, (rows, drift), nbytes)

    def check(self, done_steps, y_start, seg):
        rows, drift = seg.data
        exact = self.problem.system.exact_solution
        err = float(np.max(np.abs(exact(rows[:, 0], y_start) - rows[:, 1:].T)))
        radius = math.hypot(*self.y0)
        energy = self.problem.system.invariants
        cumulative = {label: abs(float(fn(seg.y_end)) - self.invariant0[label]) for label, fn in energy}
        missing = abs(len(rows) - (self.steps_per_op * self.SAMPLES + 1))
        return [Gate("dense_rows_missing", missing, 0), Gate("dense_error", err / radius, self.TOL_DENSE)] + [
            Gate(f"{label}_drift", max(float(np.max(np.abs(drift[:, 1 + k]))), cumulative[label]), tol)
            for k, (label, tol) in enumerate(self.TOL_DRIFT.items())
        ]


WORKLOADS = {cls.name: cls for cls in (KeplerMGI, PendulumMCI, LotkaVolterraFD, DenseOutput)}
