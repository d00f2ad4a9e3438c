"""The repository's measuring tools run and find what they measure."""

import argparse
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import geodesy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _load(name):
    # as when a tool runs as a script, whose directory is on sys.path: each imports _tree
    if TOOLS not in sys.path:
        sys.path.append(TOOLS)
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


@pytest.fixture(scope="module")
def digest():
    # the parts and total of this process's geodesy, hashed once for the tests that read them
    return _load("output_digest").digests(geodesy)


def test_output_digest_hashes_the_eight_output_parts(digest):
    # CI compares these lines with the base's, part by part
    parts, total = digest
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
    # the rows and their bytes are pinned; at 4 states the verdicts are not, which the gate
    # below asserts at the tool's own N
    monkeypatch.setattr(conservation_audit, "N", 4)
    conservation_audit.main([])
    first = capsys.readouterr().out
    conservation_audit.main([])
    assert capsys.readouterr().out == first
    rows = first.splitlines()[2:]
    # each case at p in {2, 4, 8} x dt in {0.1, 1}; the circle's at p in {16, 32} x
    # dt in {p/16, p/8}, the quartic's at dt = p/16 only
    expected = [
        (case[0], p, dt) for case in conservation_audit.cases(geodesy) for p, dt in case[-1]
    ]
    assert len(rows) == len(expected) == 28
    assert [(p, dt) for _, p, dt in expected[6:10]] == [(16, 1), (16, 2), (32, 2), (32, 4)]
    assert [(p, dt) for _, p, dt in expected[26:]] == [(16, 1), (32, 2)]
    for row, (name, p, dt) in zip(rows, expected):
        assert row.startswith(f"{name:<13}{p:>3}{dt:>5g}")
        assert row.split()[-1] in ("yes", "no")


def test_conservation_audit_prints_its_pass_rule(conservation_audit, capsys, monkeypatch):
    # the printed column is passes' verdict, the function the gate below asserts
    eps = conservation_audit.EPS
    assert conservation_audit.passes(-eps / 2, Fraction(2))
    assert not conservation_audit.passes(eps / 2 + Fraction(1, 2**60), Fraction(2))
    monkeypatch.setattr(conservation_audit, "N", 2)
    monkeypatch.setattr(conservation_audit, "passes", lambda mean, level: False)
    conservation_audit.main([])
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 28 and all(row.split()[-1] == "no" for row in rows)


def test_conservation_audit_passes_every_case(conservation_audit):
    # the tier-1 gate: in every row, the mean exact one-step change of the invariant over the
    # tool's N states is within eps |I0| / 4, so rounding, not a table's bias, is what is left
    audit, rows, failed = conservation_audit, 0, []
    for name, system, step, invariant, level, make_states, grid in audit.cases(geodesy):
        states = make_states(np.random.default_rng(audit.SEED), audit.N)
        for p, dt in grid:
            mean, _, z = audit.audit(system, step, invariant, states, p, dt)
            rows += 1
            if not audit.passes(mean, level):
                failed.append(f"{name} p={p} dt={dt:g}: mean dI {float(mean):.3e}, z {z:.1f}")
    assert rows == 28
    assert not failed, "\n".join(failed)


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


# each tool's arguments, short where it runs at all, ending with the flag that names the tree
# under test
_SRC_TOOLS = {
    "output_digest": ["--src"],
    "step_profile": ["--steps", "1", "--runs", "1", "--src"],
    "conservation_audit": ["--src"],
    "ab": ["--b", os.path.join(ROOT, "src"), "--case", "pendulum-mci", "--a"],
}


@pytest.mark.parametrize("tool", sorted(_SRC_TOOLS))
def test_a_tool_refuses_a_src_without_geodesy(tool, tmp_path, capsys):
    # the tool's exit status and error output in this process, where the repository's geodesy
    # is imported: the tool loads the named tree or none, never whichever geodesy it finds
    with pytest.raises(SystemExit) as err:
        _load(tool).main([*_SRC_TOOLS[tool], str(tmp_path)])
    out = capsys.readouterr()
    assert err.value.code == 2 and out.out == ""
    assert out.err.endswith(f"error: {tmp_path} holds no geodesy package\n")


def test_output_digest_hashes_the_src_tree_beside_the_geodesy_imported(
    digest, tmp_path, capsys
):
    # a copy of this tree, loaded by its path in a process that has imported geodesy: the
    # digest is the copy's, the same bits as this process's geodesy gives
    shutil.copytree(
        os.path.join(ROOT, "src", "geodesy"), tmp_path / "geodesy",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    _load("output_digest").main(["--src", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[-1] == f"sha256      {digest[1]}"
    assert sys.modules["geodesy_src"].__file__ == str(tmp_path / "geodesy" / "__init__.py")


def test_a_tree_loaded_under_a_used_name_runs_its_own_modules(tmp_path):
    # two trees that differ in one constant of a submodule, one after the other under one
    # name: a submodule left from the first would be what the second's relative import binds
    tree = _load("_tree")
    parser = argparse.ArgumentParser()
    for value in (1, 2):
        package = tmp_path / f"tree{value}" / "geodesy"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("from .constants import VALUE\n")
        (package / "constants.py").write_text(f"VALUE = {value}\n")
    try:
        for value in (1, 2):
            loaded = tree.load(parser, tmp_path / f"tree{value}", "geodesy_reloaded")
            assert loaded.VALUE == value
            assert sys.modules["geodesy_reloaded.constants"].VALUE == value
    finally:
        for key in ("geodesy_reloaded", "geodesy_reloaded.constants"):
            sys.modules.pop(key, None)


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
