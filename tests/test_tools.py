"""The repository's measuring tools run and find what they measure."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import geodesy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def step_profile():
    return _load("step_profile")


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4])
def test_step_profile_finds_every_layer_of_its_case(step_profile, index):
    # a renamed closure would read 0 rather than fail; its layer must read time
    case = step_profile.CASES[index]
    shares, iters, us = step_profile.profile_case(geodesy, case, 20)
    assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)
    analytic = case[-1]
    expected = {"problem", "residual", "newton", "lu", "driver", "jacobian" if analytic else "fd"}
    for name in step_profile.LAYERS:
        assert (shares[name] > 0.0) == (name in expected), name
    assert iters >= 1.0 and us > 0.0


def test_step_profile_refuses_a_profile_without_its_newton_root(step_profile):
    # a tree whose Newton loop has another name: its shares would read 0 and sum past 100%
    integrate = ("src/geodesy/integrators.py", 1, "integrate")
    lu = ("src/geodesy/newton.py", 1, "_lu_factor_checked")
    stats = {key: (1, 1, 0.0, 1.0, {}) for key in (integrate, lu)}
    with pytest.raises(ValueError, match="no _newton in newton.py, the newton layer's root"):
        step_profile.layer_seconds(stats, ())


def test_step_profile_prints_one_row_per_case(step_profile, capsys):
    step_profile.main(["--steps", "5", "--runs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(step_profile.CASES)
    for line, case in zip(lines[2:], step_profile.CASES):
        assert line.startswith(case[0])


def test_output_digest_hashes_the_eight_output_parts():
    # CI compares these lines with the base's, part by part
    parts, total = _load("output_digest").digests(geodesy)
    assert list(parts) == [
        "runs", "public", "tableau", "high-order", "baselines", "mci-tables", "mgi-tables",
        "toolkit",
    ]
    for hexdigest in (*parts.values(), total):
        assert re.fullmatch("[0-9a-f]{64}", hexdigest), hexdigest


@pytest.fixture(scope="module")
def conservation_audit():
    return _load("conservation_audit")


def test_conservation_audit_prints_one_row_per_case_the_same_on_every_run(
    conservation_audit, capsys, monkeypatch
):
    # a report, not a gate: the rows and their bytes are pinned, the verdicts are not
    monkeypatch.setattr(conservation_audit, "N", 4)
    conservation_audit.main([])
    first = capsys.readouterr().out
    conservation_audit.main([])
    assert capsys.readouterr().out == first
    rows = first.splitlines()[2:]
    names = [case[0] for case in conservation_audit.cases(geodesy)]
    expected = [
        (name, p, dt)
        for name in names
        for p in conservation_audit.ORDERS
        for dt in conservation_audit.STEPS
    ]
    assert len(rows) == len(expected) == 18
    for row, (name, p, dt) in zip(rows, expected):
        assert row.startswith(f"{name:<13}{p:>3}{dt:>5g}")
        assert row.split()[-1] in ("yes", "no")


def test_conservation_audit_takes_the_invariants_change_exactly(conservation_audit):
    # by hand: (1.5^2 + 1.25^2) / 2 - (2^2 + 0^2) / 2 = 61/32 - 2
    audit = conservation_audit
    y0, y1 = np.array([2.0, 0.0]), np.array([1.5, 1.25])
    assert audit.delta_invariant(audit.circle_energy, y0, y1) == Fraction(-3, 32)
    # one quartic MGI step from (p, q) = (1, 0), on the level 1/2, over the endpoint's doubles
    system = audit.quartic_system(geodesy)
    y1 = geodesy.mgi_step(system, [1.0, 0.0], 0.0, 1.0, 4).endpoint()
    p1, q1 = (Fraction(v) for v in y1.tolist())
    want = p1 * p1 / 2 + q1**4 / 4 - Fraction(1, 2)
    assert audit.delta_invariant(audit.quartic_energy, np.array([1.0, 0.0]), y1) == want
    assert abs(want) < 1e-14


# each tool's arguments, short where it runs at all, then the --src under test
_SRC_TOOLS = {
    "output_digest": [],
    "step_profile": ["--steps", "1", "--runs", "1"],
    "conservation_audit": [],
}


def _refused_src(tool, src, capsys, monkeypatch):
    # the tool's exit status and error output on --src src, in this process, where the
    # repository's geodesy is imported
    monkeypatch.setattr(sys, "path", sys.path[:])
    with pytest.raises(SystemExit) as err:
        _load(tool).main([*_SRC_TOOLS[tool], "--src", str(src)])
    return err.value.code, capsys.readouterr()


@pytest.mark.parametrize("tool", sorted(_SRC_TOOLS))
def test_a_tool_refuses_a_src_without_geodesy(tool, tmp_path, capsys, monkeypatch):
    # the import returned whichever geodesy was importable: the tool measured that tree
    code, out = _refused_src(tool, tmp_path, capsys, monkeypatch)
    assert code == 2 and out.out == ""
    assert out.err.endswith(f"error: {tmp_path} holds no geodesy package\n")


@pytest.mark.parametrize("tool", sorted(_SRC_TOOLS))
def test_a_tool_refuses_a_src_other_than_the_geodesy_imported(
    tool, tmp_path, capsys, monkeypatch
):
    (tmp_path / "geodesy").mkdir()
    (tmp_path / "geodesy" / "__init__.py").write_text("")
    code, out = _refused_src(tool, tmp_path, capsys, monkeypatch)
    found = os.path.dirname(os.path.realpath(geodesy.__file__))
    assert code == 2 and out.out == ""
    assert out.err.endswith(
        f"error: geodesy is already imported from {found}, not from --src {tmp_path}\n"
    )


@pytest.mark.parametrize("case", ["pendulum-mci", "kepler-mgi", "lv-fd"])
def test_ab_runs_an_a_a_round_bit_for_bit(case):
    # one tree against itself: the records and invariant series agree bit for bit; the
    # ratios are timings, so only their count is pinned
    src = os.path.join(ROOT, "src")
    run = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "ab.py"), "--a", src, "--b", src, "--case", case,
         "--rounds", "2", "--ops", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["bitwise"] is True
    assert result["rounds"] == 2 and len(result["ratios"]) == 2


def test_a_failing_property_test_reports_its_example(tmp_path):
    # under the project's warning filters, Hypothesis's failure report must not warn as an
    # error from pytest's report hook: that stops the whole run with INTERNALERROR and hides
    # the falsifying example
    test = tmp_path / "test_property.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n"
        "test_fails = given(st.integers())(lambda n: None if n < 5 else 1 / 0)\n"
    )
    config = os.path.join(ROOT, "pyproject.toml")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", config,
         "--rootdir", str(tmp_path), str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
