"""Tests of the benchmark's own arithmetic, plus a tiny smoke run of each workload.

Run from the repository root: python3 -m pytest bench/tests
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import geodesy.integrators  # noqa: E402
import refspeed  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


class TestPercentile:
    def test_matches_inclusive_quantiles(self):
        rng = random.Random(7)
        for n in (2, 3, 10, 101):
            xs = [rng.uniform(0.0, 100.0) for _ in range(n)]
            expected = statistics.quantiles(xs, n=10, method="inclusive")
            got = [tracing.percentile(xs, 10 * k) for k in range(1, 10)]
            assert got == pytest.approx(expected, rel=1e-12)

    def test_ends_and_median(self):
        xs = [5.0, 1.0, 3.0, 2.0]
        assert tracing.percentile(xs, 0) == 1.0
        assert tracing.percentile(xs, 100) == 5.0
        assert tracing.percentile(xs, 50) == statistics.median(xs)
        assert tracing.percentile([4.0], 90) == 4.0

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            tracing.percentile([], 50)


class TestSummary:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            ["integrate", 0.0, 10.0, -1],
            ["newton", 1.0, 3.0, 0],
            ["newton", 4.0, 8.0, 0],
            ["residual", 5.0, 6.0, 2],
        ]
        s = tracing.summarize(spans)
        assert s["integrate"] == (1, 10.0, 4.0)
        assert s["newton"] == (2, 6.0, 5.0)
        assert s["residual"] == (1, 1.0, 1.0)

    def test_ratio_with_empty_base(self):
        assert tracing.ratio(3, 0) == 0.0
        assert tracing.ratio(7, 2) == 3.5

    def test_reference_scaling(self):
        at_reference = refspeed.REFERENCE_US * 1e-6
        assert refspeed.to_reference(0.5, at_reference) == pytest.approx(0.5)
        assert refspeed.to_reference(0.5, 2.0 * at_reference) == pytest.approx(0.25)


class TestTracer:
    def test_nesting_points_and_errors(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("field", lambda y: y, tracing.states_in)

        def outer_fn(y):
            inner(y)
            inner(np.zeros((2, 5)))
            raise RuntimeError("boom")

        outer = tracer.wrap("residual", outer_fn)
        with pytest.raises(RuntimeError):
            outer(np.zeros(2))
        names = [(name, parent) for name, _, _, parent in tracer.spans]
        assert names == [("residual", -1), ("field", 0), ("field", 0)]
        assert all(end >= start for _, start, end, _ in tracer.spans)
        assert tracer.counts["field.points"] == 6
        assert tracer.call_counts() == {"field": 2, "field.points": 6, "residual": 1}

    def test_install_restores_and_reports_absent_hooks(self, monkeypatch):
        monkeypatch.delattr(geodesy.integrators, "newton_solve")
        before = geodesy.integrators.nodal_eval_all
        tracer = tracing.Tracer()
        with tracer.installed():
            assert geodesy.integrators.nodal_eval_all is not before
        assert geodesy.integrators.nodal_eval_all is before
        assert tracer.absent == {"integrators.newton_solve"}


def _run(checkout, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy holding what the benchmark needs: BENCHMARK.json, bench/ and src/."""
    path = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    shutil.copytree(BENCH, path / "bench", ignore=ignore)
    shutil.copytree(os.path.join(ROOT, "src"), path / "src", ignore=ignore)
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke(checkout, workload, trace):
    done = _run(checkout, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--ops", "3")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert values["newton.converged_ratio"] == 1.0
        # forward differences: M*p residual calls for the Jacobian plus one per update
        assert values["newton.residual_calls_per_iter"] == (7.0 if workload == "lv-fd" else 1.0)
        assert values["trace.steps"] > 0
    else:
        assert all(values[m["name"]] > 0 for m in declared)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
