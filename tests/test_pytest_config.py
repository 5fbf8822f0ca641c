"""The test configuration itself: a failing test must not end the session."""

from pathlib import Path

try:
    import tomllib
except ImportError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

pytest_plugins = ["pytester"]

FAIL_THEN_PASS = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_next_test_running(pytester):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    filters = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(
        f"[tool.pytest.ini_options]\nfilterwarnings = {filters!r}\n")
    pytester.makepyfile(FAIL_THEN_PASS)
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(
        failed=1, passed=1)
