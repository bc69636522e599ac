import pytest

from latticelab import full_report


@pytest.fixture(scope="session")
def hm15_report():
    """full_report("hm15", "E6"), run once for the tests that only read it.

    Tests that time the run or compare two runs call full_report themselves.
    """
    return tuple(full_report("hm15", "E6"))


TABLE_RUNS = (("hm15", "E6"), ("k3max11", "E6+A1"), ("k3max11", "D7"),
              ("k3max11", "E7"), ("k3max11", "E8"))


@pytest.fixture(scope="session")
def table_reports(hm15_report):
    """full_report of the five table runs, keyed by (table, root)."""
    return {run: hm15_report if run == ("hm15", "E6") else tuple(full_report(*run))
            for run in TABLE_RUNS}
