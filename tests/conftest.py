import pytest
from hypothesis import given, settings, strategies as st


@pytest.fixture(scope="session", autouse=True)
def unicode_tables_built():
    """Draw one text before any test runs.

    Hypothesis builds its Unicode character tables on the first text draw
    of a process, which takes seconds where its cache directory does not
    exist yet (a fresh checkout). Inside a test that draw would fail the
    too_slow health check; here it is paid once, outside every test.
    """
    @settings(max_examples=1, database=None)
    @given(st.text(min_size=1))
    def draw(text):
        pass

    draw()
