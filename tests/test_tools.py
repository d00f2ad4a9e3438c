"""The repository's measuring tools run and find what they measure."""

import importlib.util
import os

import pytest

import geodesy

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


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
    # from a refusal it removed. Each refusal is an EvaluationError, a ValueError too, or,
    # from integrate, the cause of an IntegrationError
    for name, call in output_digest.refusals(geodesy):
        with pytest.raises(geodesy.GeodesyError) as err:
            call()
        refusal = err.value
        if isinstance(refusal, geodesy.IntegrationError):
            refusal = refusal.__cause__
        assert isinstance(refusal, geodesy.EvaluationError), name
        assert isinstance(refusal, ValueError), name
