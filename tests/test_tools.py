"""The repository's measuring tools run and find what they measure."""

import importlib.util
import os
import subprocess
import sys

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


def test_step_profile_prints_one_row_per_case(step_profile, capsys):
    step_profile.main(["--steps", "5", "--runs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(step_profile.CASES)
    for line, case in zip(lines[2:], step_profile.CASES):
        assert line.startswith(case[0])


@pytest.fixture(scope="module")
def output_digest():
    return _load("output_digest")


def test_output_digest_lists_only_refused_calls(output_digest):
    # a listed call that returned would hash a marker, which a later change could not tell
    # from a refusal it removed. Each refusal of a callable's values is an EvaluationError, a
    # ValueError too, or, from integrate, the cause of an IntegrationError; a caller's value
    # that is not real, not one number, ragged, a bool setting, no count or a partition that
    # does not split the state is refused with a plain ValueError
    wording = (
        "^.+ (must be (real|a bool, integer or float|an integer or float), got .+ values"
        "|must be a real number, got (shape .+|bool)"
        "|must be an integer >= [0-9]+, got .+"
        "|is ragged, which forms no array"
        "|must be a sequence of indices, got .+"
        "|must split range\\(OdeSystem.dim = [0-9]+\\), each index in exactly one, got .+)$"
    )
    for name, call in output_digest.refusals(geodesy):
        if name in output_digest.INPUT_REFUSALS:
            with pytest.raises(ValueError, match=wording) as err:
                call()
            assert not isinstance(err.value, geodesy.GeodesyError), name
            continue
        with pytest.raises(geodesy.GeodesyError) as err:
            call()
        refusal = err.value
        if isinstance(refusal, geodesy.IntegrationError):
            refusal = refusal.__cause__
        assert isinstance(refusal, geodesy.EvaluationError), name
        assert isinstance(refusal, ValueError), name


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
