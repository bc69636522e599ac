"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the summary
lines of passing criteria).  All expected values are frozen constants;
the randomized suites use fixed seeds.
"""

import itertools
import random
import re
import time

import pytest

from latticelab import (
    DiagonalAction,
    build_lattice,
    bruteforce_isomorphic,
    complement_quotient,
    direct_sum_forms,
    discriminant_form,
    family_dimension,
    full_report,
    gauss_sum_signature,
    invariant_monomials,
    is_isomorphic,
    isotropic_subgroups,
    load_table,
    named_lattice,
    rank2_enumerate,
    short_vectors,
    signature_mod8,
    symplectic_weight_check,
    condition_check,
)
from latticelab.casebook import data_dir
from latticelab.fqf import apply_gen_map, automorphisms
from test_rank2 import class_number_sum


def report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


# -- criterion 1: the cubic filter ------------------------------------------------

CUBIC_PASS_ROWS = [1, 4, 5, 10, 11, 13]
CUBIC_FAIL_CONDITIONS = {2: (4,), 3: (4,), 6: (4,), 7: (4,), 8: (4,),
                         9: (2, 4), 12: (2, 4), 14: (3,), 15: (2,)}


def test_criterion_01_cubic_filter():
    t0 = time.time()
    rep = full_report("hm15", "E6")
    elapsed = time.time() - t0
    passes = [v.record.row for v in rep if v.passed]
    assert passes == CUBIC_PASS_ROWS
    for v in rep:
        if v.passed:
            continue
        assert v.criterion is not None
        assert v.criterion.failed_conditions == CUBIC_FAIL_CONDITIONS[v.record.row]
    assert elapsed < 10.0
    report("1 cubic filter", f"rows {passes} in {elapsed:.1f}s")


# -- criterion 2: transcendental lattices -----------------------------------------

EXPECTED_T = {
    1: ["-(6^3 6)"],
    4: ["-(2^1 18)", "-(18^3 18)"],
    5: ["-(6^0 6)"],
    10: ["-(12^0 30)"],
    11: ["-(22^11 22)"],
    13: ["-(10^5 10)"],
}


def test_criterion_02_transcendental_lattices(hm15_report):
    rep = {v.record.row: v for v in hm15_report}
    for row, expected in EXPECTED_T.items():
        got = [str(c.form) for c in rep[row].classes]
        assert got == expected, (row, got)
    report("2 transcendental lattices", str(EXPECTED_T))


# -- criterion 3: embedding class counts -------------------------------------------

EXPECTED_COUNTS = {1: [1], 4: [1, 1], 5: [1], 10: [2], 11: [1], 13: [1]}


def test_criterion_03_embedding_counts(hm15_report):
    rep = {v.record.row: v for v in hm15_report}
    total = 0
    for row, expected in EXPECTED_COUNTS.items():
        got = [c.embedding_count for c in rep[row].classes]
        assert got == expected, (row, got)
        total += sum(got)
    assert total == 8
    report("3 embedding counts", f"total {total} isolated classes")


# -- criterion 4: K3 filters --------------------------------------------------------


def test_criterion_04_k3_filters():
    deg2 = [v.record.row for v in full_report("k3max11", "E7") if v.passed]
    assert deg2 == [3, 7, 9, 11]
    deg6 = [v.record.row for v in full_report("k3max11", "E6+A1") if v.passed]
    assert deg6 == [3, 8, 10]
    report("4 K3 filters", f"degree 2 -> {deg2}, degree 6 -> {deg6}")


# -- criterion 5: rank-2 enumeration golden lists -----------------------------------

# The complete enumeration: one reduced form per proper (SL_2) class, in
# order of (a, b, c).  The lists printed in the source classification leave
# out one class each, (18,9,22) at det 315 and (14,-2,26) at det 360; the
# latter is the improper twin of (14,2,26), while the same list keeps both
# (18,-6,22) and (18,6,22).  The class-number oracle in test_rank2.py shows
# the complete enumeration is right, so the golden lists hold it, and
# SOURCE_OMITS keeps the disagreement with the source on record.
GOLDEN_RANK2 = {
    27: ["-(2^1 14)", "-(6^3 6)"],
    35: ["-(2^1 18)", "-(6^1 6)"],
    36: ["-(2^0 18)", "-(4^2 10)", "-(6^0 6)"],
    75: ["-(2^1 38)", "-(6^3 14)", "-(10^5 10)"],
    315: ["-(2^1 158)", "-(6^3 54)", "-(10^5 34)", "-(14^7 26)", "-(18^3 18)",
          "-(18^9 22)"],
    360: ["-(2^0 180)", "-(4^0 90)", "-(6^0 60)", "-(10^0 36)", "-(12^0 30)",
          "-(14^-2 26)", "-(14^2 26)", "-(18^-6 22)", "-(18^0 20)", "-(18^6 22)"],
    363: ["-(2^1 182)", "-(6^3 62)", "-(14^-1 26)", "-(14^1 26)", "-(22^11 22)"],
}
SOURCE_OMITS = {315: "-(18^9 22)", 360: "-(14^-2 26)"}

_FORM = re.compile(r"-\((\d+)\^(-?\d+) (\d+)\)")


@pytest.mark.parametrize("det", sorted(GOLDEN_RANK2))
def test_criterion_05_golden_lists_are_complete(det):
    # checked without rank2.py: distinct reduced even forms of the det, as
    # many as there are proper classes, so the list is complete
    triples = [tuple(map(int, _FORM.fullmatch(s).groups()))
               for s in GOLDEN_RANK2[det]]
    for a, b, c in triples:
        assert a % 2 == 0 and c % 2 == 0, (a, b, c)
        assert -a < 2 * b <= a <= c and (a != c or b >= 0), (a, b, c)
        assert a * c - b * b == det, (a, b, c)
    assert triples == sorted(set(triples))
    assert len(triples) == class_number_sum(det)
    if det in SOURCE_OMITS:
        assert SOURCE_OMITS[det] in GOLDEN_RANK2[det]
    report(f"5 rank-2 golden list det {det}",
           f"{len(triples)} classes; source omits {SOURCE_OMITS.get(det, 'none')}")


@pytest.mark.parametrize("det", sorted(GOLDEN_RANK2))
def test_criterion_05_rank2_enumeration(det):
    got = [str(f) for f in rank2_enumerate(det, negative=True)]
    assert got == GOLDEN_RANK2[det], f"det {det}"
    report(f"5 rank-2 enumeration det {det}", f"{len(got)} forms")


# -- criterion 6: non-symplectic orders ---------------------------------------------

EXPECTED_NBAR = (6, 2, 1, 4, 1, 1, 3, 6)


def test_criterion_06_nonsymplectic_orders(hm15_report):
    nbars = []
    totals = []
    for v in hm15_report:
        for c in v.classes:
            for _ in range(c.embedding_count or 1):
                nbars.append(c.nonsymplectic)
                totals.append(c.total_order)
    assert tuple(nbars) == EXPECTED_NBAR
    assert max(totals) == 174960
    assert totals.count(174960) == 1
    assert totals[0] == 174960  # attained by the first class only
    report("6 non-symplectic orders", f"nbar {nbars}, max total {max(totals)}")


# -- criterion 7: Milgram property suite ---------------------------------------------


def test_criterion_07_milgram_suite():
    rng = random.Random(173)
    checked = 0
    gauss_checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-6, 6)
        try:
            latt = build_lattice(g)
        except Exception:
            continue
        q = discriminant_form(latt)
        assert signature_mod8(q) == (latt.n_plus - latt.n_minus) % 8, g
        try:
            assert gauss_sum_signature(q) == signature_mod8(q)
            gauss_checked += 1
        except ValueError:
            pass  # group too large for the direct cyclotomic sum
        checked += 1
    assert gauss_checked >= 50
    report("7 Milgram suite",
           f"200 lattices, {gauss_checked} direct Gauss sums")


# -- criterion 8: symbol vs brute-force oracle ----------------------------------------


def test_criterion_08_symbol_oracle_equivalence():
    rng = random.Random(2024)
    corpus = []
    while len(corpus) < 50:
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            latt = build_lattice(g)
        except Exception:
            continue
        if not 0 < abs(latt.det) <= 256:
            continue
        corpus.append(discriminant_form(latt))
    agree = 0
    pairs = 0
    for f1, f2 in itertools.combinations(corpus, 2):
        pairs += 1
        if is_isomorphic(f1, f2) == bruteforce_isomorphic(f1, f2):
            agree += 1
    assert agree == pairs
    report("8 symbol oracle equivalence", f"{agree}/{pairs} pairs agree")


# -- criterion 9: normal form combinatorics -------------------------------------------

EXPECTED_DIMS = [20, 12, 6, 2, 8, 8, 2, 0, 0, 4, 2, 0]


def test_criterion_09_normal_form_dimensions():
    import json
    with open(data_dir() / "fu_cases.json", encoding="utf-8") as fh:
        cases = {c["case"]: c for c in json.load(fh)["cases"]}
    dims = []
    for idx in range(12):
        case = cases[str(idx)]
        acts = [DiagonalAction(g["order"], tuple(g["weights"]), g["w0"])
                for g in case["generators"]]
        dims.append(family_dimension(acts))
        mons = invariant_monomials(acts)
        for act in acts:
            assert symplectic_weight_check(act, mons), idx
    assert dims == EXPECTED_DIMS
    klein = [DiagonalAction(g["order"], tuple(g["weights"]), g["w0"])
             for g in cases["klein"]["generators"]]
    assert family_dimension(klein) == 8
    for tag in ("6a", "6b"):
        acts = [DiagonalAction(g["order"], tuple(g["weights"]), g["w0"])
                for g in cases[tag]["generators"]]
        assert family_dimension(acts) == 4
    report("9 normal form combinatorics", f"dims {dims}, klein 8, order-6 4/4")


# -- criterion 10: short vector facts --------------------------------------------------


def test_criterion_10_short_vector_facts():
    t0 = time.time()
    first = build_lattice([[-2, -1, 0], [-1, -8, 0], [0, 0, -12]])
    second = build_lattice([[-6, 0, -3], [0, -6, -3], [-3, -3, -8]])
    assert short_vectors(first, -2)
    assert not short_vectors(first, -6)
    assert short_vectors(second, -6)
    assert not short_vectors(second, -2)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("10 short vector facts", f"{elapsed * 1000:.0f} ms")


# -- criterion 11: glue sanity ----------------------------------------------------------


def test_criterion_11_glue_sanity():
    q = direct_sum_forms(discriminant_form(named_lattice("A2")),
                         discriminant_form(named_lattice("E6")))
    subs = isotropic_subgroups(q)
    nontrivial = [s for s in subs if s.order > 1]
    for s in nontrivial:
        assert complement_quotient(q, s).is_trivial
    # exactly one subgroup class: the two glue subgroups are exchanged by
    # an isometry of the form
    auts = automorphisms(q)
    classes = set()
    reps = []
    for img in (s.elements for s in nontrivial):
        orbit = frozenset(
            frozenset(apply_gen_map(q, mp, x) for x in img) for mp in auts)
        if orbit not in classes:
            classes.add(orbit)
            reps.append(img)
    assert len(nontrivial) == 2
    assert len(reps) == 1
    report("11 glue sanity", "one subgroup class of order 3, trivial quotient")


# -- criterion 12: condition filter sanity ------------------------------------------------


def test_criterion_12_condition_filter(involution_controls):
    for table in ("hm15", "k3max11"):
        for rec in load_table(table):
            assert condition_check(rec).passed, (table, rec.row)
    controls = {r.group: condition_check(r).passed
                for r in involution_controls}
    assert controls == {"E8(2)": False, "D12+(2)": False, "BW16": True}
    report("12 condition filter", "15 + 11 rows pass; E8(2), D12+(2) fail")
