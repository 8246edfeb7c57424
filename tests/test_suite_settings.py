from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_names_its_example(pytester):
    # with every warning an error, hypothesis's report hook once raised a
    # DeprecationWarning and pytest ended in INTERNALERROR, without the example
    test_file = pytester.makepyfile(
        test_fails="""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers(0, 10))
        def test_fails(n):
            assert n < 5
        """
    )
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "-p", "no:cacheprovider", str(test_file))
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
