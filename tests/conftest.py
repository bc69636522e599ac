import json
from pathlib import Path

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
def involution_controls():
    """The fixed lattices of the three involution classes on the rank-24
    root-free unimodular lattice (tests/data/involutions.json), as records
    of order 2 and row 0: controls for the slack condition."""
    from latticelab.casebook import _record_from_row
    path = Path(__file__).parent / "data" / "involutions.json"
    rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
    return [_record_from_row("INVOLUTIONS", {"row": 0, "group": row["name"], "order": 2, **row})
            for row in rows]


@pytest.fixture(scope="session")
def table_reports(hm15_report):
    """full_report of the five table runs, keyed by (table, root)."""
    return {run: hm15_report if run == ("hm15", "E6") else tuple(full_report(*run))
            for run in TABLE_RUNS}


@pytest.fixture(scope="session")
def table_run_inputs():
    """(matrices, pairs) of one fresh pass of the five table runs: every
    matrix given to smith_normal_form, copied as given, and every (form, H)
    of a witness: the pairs that the glue machinery passes to
    complement_quotient, and before them each search's ambient form
    A_S + A_R with H = 0, which is S + R itself and is not glued."""
    import latticelab.casebook
    import latticelab.exactmat
    import latticelab.fqf
    import latticelab.nikulin
    from latticelab.fqf import Subgroup
    mats, pairs = [], []
    real_snf = latticelab.exactmat.smith_normal_form
    real_cq = latticelab.nikulin.complement_quotient
    real_sat = latticelab.casebook.saturations_keeping_primitive

    def snf(mat):
        mats.append([list(row) for row in mat])
        return real_snf(mat)

    def saturations(q_s, q_r):
        at = len(pairs)
        witnesses = real_sat(q_s, q_r)
        total = witnesses[0].quotient
        pairs.insert(at, (total, Subgroup(total, ())))
        return witnesses

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(latticelab.exactmat, "smith_normal_form", snf)
        mp.setattr(latticelab.fqf, "smith_normal_form", snf)
        mp.setattr(latticelab.nikulin, "complement_quotient",
                   lambda form, sub: pairs.append((form, sub)) or real_cq(form, sub))
        mp.setattr(latticelab.casebook, "saturations_keeping_primitive", saturations)
        for run in TABLE_RUNS:
            full_report(*run)
    return mats, pairs
