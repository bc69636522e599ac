import pytest

from latticelab import full_report


@pytest.fixture(scope="session")
def hm15_report():
    """full_report("hm15", "E6"), run once for the tests that only read it.

    Tests that time the run or compare two runs call full_report themselves.
    """
    return tuple(full_report("hm15", "E6"))
