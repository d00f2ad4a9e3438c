"""Span recording and summary arithmetic for the benchmark's traced run.

Layers are timed only from outside the package. Each hook replaces a public
callable (a module attribute, a classmethod or an ``OdeSystem`` field) with a
wrapper that records a span ``[name, start, end, parent]`` and then calls the
original. Spans stay in memory until the run ends. A hook whose target no
longer exists marks its layer absent instead of failing the run.
"""

import contextlib
import dataclasses
import math
from collections import Counter
from time import perf_counter


def percentile(values, q):
    """Linearly interpolated q-th percentile (0 <= q <= 100) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted in the base."""
    return num / den if den else 0.0


def summarize(spans):
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children. Spans nest strictly within one thread, so children never
    overlap and their durations add up to the time they cover.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), own + (end - start) - child[i])
    return out


def states_in(args):
    """States passed to a system callable: one (dim,) vector or a (dim, n) block."""
    shape = getattr(args[0], "shape", ())
    return shape[-1] if len(shape) >= 2 else 1


def times_in(args):
    """Sample times passed to sample_trajectory(traj, times)."""
    return len(args[1])


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = set()
        self._stack = [-1]

    def wrap(self, name, fn, points=None):
        """fn recording a span per call; points(args) adds to the counter name.points."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if points is not None:
                counts[name + ".points"] += points(args)
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def trace_system(self, system):
        """Copy of an OdeSystem whose callables record spans."""
        present = {f.name for f in dataclasses.fields(system)}
        changes = {}
        for attr, name, points in (
            ("field", "field", states_in),
            ("jacobian", "system_jacobian", states_in),
            ("domain_check", "domain_check", None),
        ):
            if attr not in present:
                self.absent.add(f"systems.{attr}")
            elif getattr(system, attr) is not None:
                changes[attr] = self.wrap(name, getattr(system, attr), points)
        if "invariants" in present:
            changes["invariants"] = tuple(
                (label, self.wrap("invariant", fn)) for label, fn in system.invariants
            )
        return dataclasses.replace(system, **changes)

    def call_counts(self):
        """Everything a traced pass counts; it must repeat exactly for the same input."""
        calls = Counter(name for name, *_ in self.spans)
        return dict(sorted({**calls, **self.counts}.items()))

    def _newton_hook(self, newton_solve):
        traced_solve = self.wrap("newton", newton_solve)
        counts = self.counts

        def hooked(residual, x0, *args, **kwargs):
            residual = self.wrap("residual", residual)
            if kwargs.get("jacobian") is not None:
                kwargs["jacobian"] = self.wrap("jacobian", kwargs["jacobian"])
            result = traced_solve(residual, x0, *args, **kwargs)
            counts["newton.iterations"] += getattr(result, "iterations", 0)
            counts["newton.converged"] += 1
            return result

        return hooked

    def _problem_hook(self, get_problem):
        def hooked(name):
            spec = get_problem(name)
            return dataclasses.replace(spec, system=self.trace_system(spec.system))

        return hooked

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook point for the duration of the block."""
        import scipy.linalg

        import geodesy.cli
        import geodesy.integrators
        import geodesy.mimetic

        def classmethod_hook(name):
            return lambda orig: classmethod(self.wrap(name, orig.__func__))

        hooks = (
            ("integrators", geodesy.integrators, "newton_solve", self._newton_hook),
            ("newton", scipy.linalg, "lu_factor", lambda f: self.wrap("lu_factor", f)),
            ("newton", scipy.linalg, "lu_solve", lambda f: self.wrap("lu_solve", f)),
            ("mimetic", geodesy.mimetic.ElementGrid, "build", classmethod_hook("grid_build")),
            ("basis", geodesy.integrators, "nodal_eval_all", lambda f: self.wrap("nodal_eval", f)),
            ("cli", geodesy.cli, "integrate", lambda f: self.wrap("integrate", f)),
            ("cli", geodesy.cli, "sample_trajectory", lambda f: self.wrap("sample", f, times_in)),
            ("cli", geodesy.cli, "get_problem", self._problem_hook),
        )
        saved = []
        try:
            for layer, owner, attr, make in hooks:
                orig = vars(owner).get(attr)
                if orig is None:
                    self.absent.add(f"{layer}.{attr}")
                    continue
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
