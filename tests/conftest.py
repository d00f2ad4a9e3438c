"""Shared pytest wiring for the test suite."""

import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci derandomizes the property tests: each run draws the
# same examples, so a failure in CI reproduces locally with the same setting
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# The acceptance tests append one "criterion NN (...): PASS|FAIL" line each;
# the terminal-summary hook replays them after the run so they stay visible
# even though pytest captures stdout while the tests execute.
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
