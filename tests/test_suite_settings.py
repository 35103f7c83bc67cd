"""The suite's own settings, run in a child pytest: a failing property test
must report its falsifying example under the repo's warning filters."""
import os

pytest_plugins = ["pytester"]

PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "pyproject.toml")


def test_failing_property_test_reports_its_example(pytester):
    # on a failure hypothesis imports libcst, whose import warns; that warning
    # must not turn into an INTERNALERROR that hides the report, while one
    # from the code under test still fails it. The child is a new
    # interpreter, so libcst is imported there for the first time
    with open(PYPROJECT, encoding="utf-8") as f:
        pytester.makepyprojecttoml(f.read())
    test = pytester.makepyfile("""
        import warnings

        from hypothesis import given, settings, strategies as st

        def test_deprecated_call():
            warnings.warn("an old call", DeprecationWarning)

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_negative(n):
            assert n < 0
    """)
    result = pytester.runpytest_subprocess(test, "-p", "no:cacheprovider")
    out = result.stdout.str()
    assert result.ret == 1
    assert "INTERNALERROR" not in out
    for name in ("test_deprecated_call", "test_negative"):
        assert f"FAILED test_failing_property_test_reports_its_example.py::{name}" in out
    assert "DeprecationWarning: an old call" in out
    assert "Falsifying example: test_negative(" in out
