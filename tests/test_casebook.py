from collections import Counter

import pytest

from latticelab import (
    LeechPairRecord,
    Rank2Form,
    analyze_record,
    condition_check,
    embedding_class_count,
    full_report,
    load_table,
    nonsymplectic_order,
    phi_order_bound,
    polarization_root,
    polarized_criterion,
    root_for_degree,
    transcendental_candidates,
    uniqueness_for_record,
)
from latticelab.errors import AssumptionMissingError, NotMaximalRankError
from test_fqf import EMBEDDING_SUMMANDS, _form_data, prime_power_orders
from test_rank2 import reference_enumerate


def record(table, row):
    return next(r for r in load_table(table) if r.row == row)


def test_tables_load():
    hm = load_table("hm15")
    assert len(hm) == 15
    assert all(r.rank_K == 4 and r.rank_S == 20 for r in hm)
    assert all(r.q_S.order == r.q_K.order for r in hm)
    k3 = load_table("k3max11")
    assert len(k3) == 11
    assert all(r.rank_K == 5 and r.rank_S == 19 for r in k3)


def test_condition_check_examples():
    rec1 = record("hm15", 1)
    verdict = condition_check(rec1)
    assert verdict.passed
    assert verdict.alpha == {3: 1}

    rec10 = record("hm15", 10)
    verdict = condition_check(rec10)
    assert verdict.passed
    assert verdict.alpha == {2: 2, 3: 3, 5: 3}


def test_condition_check_involution_controls(involution_controls):
    controls = {r.group: r for r in involution_controls}
    assert not condition_check(controls["E8(2)"]).passed
    assert not condition_check(controls["D12+(2)"]).passed
    assert condition_check(controls["BW16"]).passed


def test_involution_controls_hold_their_rows(involution_controls):
    """Each control record carries its row's name, rank and symbol, order 2,
    row 0 and no surjectivity flag, with q_S = -q_K."""
    controls = involution_controls
    assert controls == [
        LeechPairRecord("INVOLUTIONS", 0, name, 2, rank, qk, False, None, None)
        for name, rank, qk in (("E8(2)", 8, "2_II^+8"), ("D12+(2)", 12, "2_4^+12"),
                               ("BW16", 16, "2_II^+8"))]
    for rec in controls:
        assert (rec.q_S.level, rec.q_S.qints) == (rec.q_K.level, rec.q_K.negated().qints)


def test_polarization_roots():
    e6 = polarization_root("E6")
    assert e6.rank == 6 and e6.q_R.order == 3
    assert root_for_degree(2).name == "E7"
    assert root_for_degree(4).name == "D7"
    assert root_for_degree(6).name == "E6+A1"
    assert root_for_degree(0).name == "E8"
    with pytest.raises(ValueError):
        root_for_degree(8)


def test_cubic_pass_set(hm15_report):
    passes = [v.record.row for v in hm15_report if v.passed]
    assert passes == [1, 4, 5, 10, 11, 13]


def test_criterion_witness_details():
    e6 = polarization_root("E6")
    res2 = polarized_criterion(record("hm15", 2), e6)
    assert not res2.passed
    assert not res2.has_nontrivial_saturation
    assert res2.failed_conditions == (4,)

    res1 = polarized_criterion(record("hm15", 1), e6)
    assert res1.passed
    assert res1.has_nontrivial_saturation
    # the primitive embedding itself fails; only overlattices succeed
    trivial = next(o for o in res1.outcomes if o.witness.trivial)
    assert not trivial.verdict.exists

    res4 = polarized_criterion(record("hm15", 4), e6)
    kinds = {o.witness.trivial: o.verdict.exists for o in res4.outcomes}
    assert kinds[True] and kinds[False]


def test_transcendental_candidates_rows():
    e6 = polarization_root("E6")
    rec1 = record("hm15", 1)
    res = polarized_criterion(rec1, e6)
    outcome = next(o for o in res.outcomes
                   if o.verdict.exists and not o.witness.trivial)
    cands = transcendental_candidates(rec1, e6, outcome)
    assert [(f.a, f.b, f.c) for f in cands] == [(6, 3, 6)]
    assert all(f.negative for f in cands)


def test_transcendental_requires_rank2_complement():
    e7 = polarization_root("E7")
    rec = record("hm15", 1)  # rank_S = 20, root rank 7: complement rank 1
    res = polarized_criterion(rec, polarization_root("E6"))
    with pytest.raises(NotMaximalRankError):
        transcendental_candidates(rec, e7, res.outcomes[0])


def test_embedding_count_requires_flag():
    rec2 = record("hm15", 2)
    with pytest.raises(AssumptionMissingError):
        embedding_class_count(rec2, Rank2Form(2, 1, 14, negative=True))


def _burnside_embedding_count(small, big, maps):
    """Oracle for form_embeddings_mod_aut without _isometries or
    embedding_images: the images are the subgroups of big of order |small|,
    made of elements whose (order, q) occurs in small, whose induced form
    has small's genus symbol; the classes are the orbits of the group G
    the maps generate, counted as sum |Fix(g)| / |G|."""
    from latticelab import to_symbol
    from latticelab.errors import DegenerateError
    from latticelab.fqf import _subgroups_within
    keys = {(o, q * big.level) for _, q, o in small.scan()}
    pool = frozenset(x for x, q, o in big.scan() if (o, q * small.level) in keys)
    target = to_symbol(small)
    images = []
    for els, gens in _subgroups_within(big, pool).items():
        if len(els) != small.order:
            continue
        try:
            if to_symbol(big.subquotient(gens)[0]) == target:
                images.append(els)
        except DegenerateError:
            continue

    def apply(mp, x):
        return big.reduce([sum(c * y[k] for c, y in zip(x, mp))
                           for k in range(big.ngens)])

    # G grows one generator at a time: each map not yet in G joins the
    # generators, and G is closed again under left multiplication by them
    group, gens = {tuple(big.gens())}, []
    for m in maps:
        if m in group:
            continue
        gens.append(m)
        frontier = list(group)
        while frontier:
            g = frontier.pop()
            for s in gens:
                h = tuple(apply(s, y) for y in g)
                if h not in group:
                    group.add(h)
                    frontier.append(h)
    fixed = sum(all(apply(g, x) in img for x in img)
                for g in group for img in images)
    assert fixed % len(group) == 0
    return images, fixed // len(group)


def test_embedding_counts_match_burnside(monkeypatch):
    """Every form_embeddings_mod_aut call of the hm15/E6 run finds the
    oracle's images and counts its orbits."""
    from latticelab import casebook, embedding_images
    real = casebook.form_embeddings_mod_aut
    calls = []

    def spy(small, big, maps):
        out = real(small, big, maps)
        calls.append((small, big, maps, out[0]))
        return out
    monkeypatch.setattr(casebook, "form_embeddings_mod_aut", spy)
    full_report("hm15", "E6")
    found = []
    for small, big, maps, count in calls:
        maps = maps() if callable(maps) else maps
        images, classes = _burnside_embedding_count(small, big, maps)
        assert set(images) == set(embedding_images(small, big))
        assert classes == count
        found.append((len(images), classes))
    assert found == [(6, 1), (1, 1), (1, 1), (3, 1), (2, 2), (1, 1), (1, 1)]


def test_embedding_counts_list_maps_only_to_join_images(monkeypatch):
    """Per hm15/E6 pass with JSON, Aut(q_S) is listed for rows 1 and 5 (6
    and 3 images) and the O(T) maps for row 10 (2 images) alone: the one-
    image calls (rows 4 twice, 11 and 13) list none.  Neither the walk nor
    the witnesses, all cyclic, take minimal generators."""
    from latticelab import casebook, fqf
    rows, listed = [], Counter()

    def by_row(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: listed.update(
            [(name, rows[-1] if rows else None)]) or real(*a))
    real_count = casebook.embedding_class_count
    monkeypatch.setattr(casebook, "embedding_class_count",
                        lambda rec, t_form: rows.append(rec.row) or real_count(rec, t_form))
    by_row(casebook, "automorphisms")
    by_row(fqf.DiscriminantGroup, "induced_automorphism")
    by_row(fqf, "_minimal_generators")
    for verdict in full_report("hm15", "E6"):
        verdict.to_json_dict()
    assert rows == [1, 4, 4, 5, 10, 11, 13]
    assert listed == {("automorphisms", 1): 1, ("automorphisms", 5): 1,
                      ("induced_automorphism", 10): 4}


@pytest.mark.parametrize("text", EMBEDDING_SUMMANDS)
def test_elementwise_embedding_cases_match_burnside(text):
    """The cases of test_embedding_orbits_match_elementwise, counted by the
    oracle: full Aut(big), and one or two non-identity maps.  The
    components under a list of permutations are the orbits of the group
    the list generates, so Burnside counts them too."""
    from latticelab import (automorphisms, direct_sum_forms, embedding_images,
                            form_embeddings_mod_aut, form_from_symbol_text)
    small = form_from_symbol_text(text)
    big = direct_sum_forms(small, form_from_symbol_text(EMBEDDING_SUMMANDS[text]))
    auts = automorphisms(big)
    moving = [m for m in auts if m != tuple(big.gens())]
    for maps in (auts, moving[:1], moving[-2:]):
        images, classes = _burnside_embedding_count(small, big, maps)
        assert set(images) == set(embedding_images(small, big))
        assert form_embeddings_mod_aut(small, big, maps)[0] == classes


def test_nonsymplectic_orders():
    rec1 = record("hm15", 1)
    assert nonsymplectic_order(rec1, Rank2Form(6, 3, 6, negative=True), True) \
        == (6, 174960)
    rec4 = record("hm15", 4)
    assert nonsymplectic_order(rec4, Rank2Form(2, 1, 18, negative=True), True)[0] == 2
    assert nonsymplectic_order(rec4, Rank2Form(18, 3, 18, negative=True), False)[0] == 1
    rec11 = record("hm15", 11)
    assert nonsymplectic_order(rec11, Rank2Form(22, 11, 22, negative=True), False)[0] == 3
    k3rec = record("k3max11", 3)
    with pytest.raises(NotMaximalRankError):
        nonsymplectic_order(k3rec, Rank2Form(12, 0, 30, negative=True), True)


def test_nonsymplectic_is_within_phi_bound(hm15_report):
    for verdict in hm15_report:
        for cls in verdict.classes:
            if cls.nonsymplectic is not None:
                assert cls.nonsymplectic in phi_order_bound(verdict.record.rank_S)


def test_phi_order_bound():
    def phi(n):
        out = 0
        for k in range(1, n + 1):
            g = k
            m = n
            while m:
                g, m = m, g % m
            if g == 1:
                out += 1
        return out

    def oracle(rank_s):
        bound = 22 - rank_s
        out = set()
        for a in range(7):
            for b in range(5):
                n = 2 ** a * 3 ** b
                if phi(n) <= bound:
                    out.add(n)
        return out

    assert phi_order_bound(20) == {1, 2, 3, 4, 6}
    assert phi_order_bound(0) == oracle(0)
    assert phi_order_bound(16) == oracle(16)
    with pytest.raises(ValueError):
        phi_order_bound(21)
    with pytest.raises(ValueError):
        phi_order_bound(-1)


def test_k3_pass_sets():
    deg2 = full_report("k3max11", "E7")
    assert [v.record.row for v in deg2 if v.passed] == [3, 7, 9, 11]
    deg6 = full_report("k3max11", "E6+A1")
    assert [v.record.row for v in deg6 if v.passed] == [3, 8, 10]


def test_degree0_runs_without_rank2_analysis():
    report = full_report("k3max11", "E8")
    # S + E8 has rank 27 > 26: nothing can pass
    assert not any(v.passed for v in report)


def test_every_passing_witness_is_checkable(table_reports):
    """The verdict kept once per complement symbol is the public verdict of
    every witness's own complement, on all five table runs."""
    from latticelab import LatticeInvariant, even_lattice_exists, negate_form
    seen = 0
    for report in table_reports.values():
        for verdict in report:
            if not verdict.criterion:
                continue
            for outcome in verdict.criterion.outcomes:
                complement = LatticeInvariant(*outcome.complement_signature,
                                              negate_form(outcome.witness.quotient))
                assert outcome.verdict == even_lattice_exists(complement)
                seen += 1
    assert seen == 163


def test_one_negation_per_record(monkeypatch):
    """A hm15/E6 pass with JSON negates each record's q_K once, for q_S,
    and no witness quotient."""
    from latticelab.fqf import FiniteQuadraticForm
    calls = []
    real = FiniteQuadraticForm.negated
    monkeypatch.setattr(FiniteQuadraticForm, "negated",
                        lambda form: calls.append(form) or real(form))
    [verdict.to_json_dict() for verdict in full_report("hm15", "E6")]
    assert len(calls) == 15


def test_witness_quotients_keep_no_blocks(table_reports):
    """A glue quotient is never glued over, so it holds no p-part blocks
    once its symbol is taken: on every nontrivial witness of the five
    table runs.  A trivial witness is S + R itself: its quotient has the
    integers of q_S + q_R, A_S's generators then A_R's."""
    from latticelab import polarization_root, to_symbol
    glued = trivial = 0
    for (_, root), report in table_reports.items():
        q_r = polarization_root(root).q_R
        for verdict in report:
            for outcome in verdict.criterion.outcomes if verdict.criterion else ():
                quot = outcome.witness.quotient
                if outcome.witness.trivial:
                    assert _form_data(quot) == _form_data(verdict.record.q_S.direct_sum(q_r))
                    trivial += 1
                else:
                    to_symbol(quot)
                    assert quot._parts is None
                    glued += 1
    assert (glued, trivial) == (115, 48)


def test_one_glue_per_nontrivial_witness(table_reports, monkeypatch):
    """Per pass, complement_quotient runs once per nontrivial witness and
    to_symbol once per witness or matched candidate: 32 and 57 calls on
    hm15/E6, 83 and 144 on the four k3max11 roots.  The 48 trivial
    witnesses are S + R and glue nothing."""
    from latticelab import casebook, nikulin
    calls = []
    for module, name in ((nikulin, "complement_quotient"), (casebook, "to_symbol"),
                         (nikulin, "to_symbol")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    counts = {"hm15": Counter(), "k3max11": Counter()}
    for run in table_reports:
        calls.clear()
        full_report(*run)
        counts[run[0]].update(calls)
    assert counts == {"hm15": Counter(complement_quotient=32, to_symbol=57),
                      "k3max11": Counter(complement_quotient=83, to_symbol=144)}


def test_report_determinism():
    r1 = full_report("hm15", "E6")
    r2 = full_report("hm15", "E6")
    assert [v.to_json_dict() for v in r1] == [v.to_json_dict() for v in r2]


def test_uniqueness_criterion_rows():
    assert uniqueness_for_record(record("hm15", 1))[0]
    assert uniqueness_for_record(record("hm15", 13))[0]


def test_analyze_record_json_round_trip():
    import json
    verdict = analyze_record(record("hm15", 4), polarization_root("E6"))
    blob = json.dumps(verdict.to_json_dict())
    assert json.loads(blob)["pass"] is True


def test_data_dir_env_override(tmp_path, monkeypatch):
    import shutil
    from latticelab.casebook import data_dir
    from latticelab.errors import DataFileMissingError
    src = data_dir()
    for name in ("hm15.json", "k3max11.json", "fu_cases.json"):
        shutil.copy(src / name, tmp_path / name)
    monkeypatch.setenv("LATTICELAB_DATA", str(tmp_path))
    assert len(load_table("hm15")) == 15
    (tmp_path / "hm15.json").unlink()
    with pytest.raises(DataFileMissingError):
        load_table("hm15")


def test_candidate_forms_negate_to_quotient(hm15_report):
    from latticelab import discriminant_form, is_isomorphic, negate_form
    e6 = polarization_root("E6")
    for verdict in hm15_report:
        if not verdict.passed:
            continue
        for outcome in verdict.criterion.outcomes:
            if not outcome.verdict.exists:
                continue
            for t in transcendental_candidates(verdict.record, e6, outcome):
                q_t = discriminant_form(t.signed_lattice())
                assert is_isomorphic(negate_form(q_t), outcome.witness.quotient)


def _full_scan_candidates(witness):
    """transcendental_candidates without the orders prefilter: every reduced
    form of the determinant, found by the tests' full-window scan, gets its
    discriminant form."""
    from latticelab import discriminant_form, is_isomorphic
    target = witness.quotient
    return [f for f in reference_enumerate(target.order, negative=True)
            if is_isomorphic(discriminant_form(f.positive_lattice()), target)]


def test_rank2_orders_read_off_entries(table_reports):
    """gcd(a,b,c) and det/gcd(a,b,c), 1s dropped, are the discriminant
    form's orders, for det <= 600 and every quotient order of the tables."""
    from latticelab import discriminant_form, rank2_enumerate
    from latticelab.casebook import _discriminant_orders
    dets = set(range(1, 601))
    for report in table_reports.values():
        for verdict in report:
            if verdict.criterion:
                dets.update(o.witness.quotient.order for o in verdict.criterion.outcomes)
    forms = [f for det in sorted(dets) for f in rank2_enumerate(det)]
    assert len(forms) > 2442  # the forms of det <= 600 alone
    for f in forms:
        assert _discriminant_orders(f) == \
            discriminant_form(f.positive_lattice()).orders, f


def test_transcendental_candidates_match_full_scan(table_reports):
    """Each rank-2 witness's candidates are the full scan's, and its Nikulin
    verdict says whether that scan builds an explicit lattice T."""
    built = Counter()
    for (_, root_name), report in table_reports.items():
        root = polarization_root(root_name)
        for verdict in report:
            crit = verdict.criterion
            if not crit or crit.complement_rank != 2:
                continue
            for outcome in crit.outcomes:
                scan = _full_scan_candidates(outcome.witness)
                assert transcendental_candidates(verdict.record, root, outcome) == scan
                assert outcome.verdict.exists == bool(scan), outcome.witness
                built[bool(scan)] += 1
    assert built == {True: 85, False: 78}


def test_table_verdicts_match_rank2_construction(table_reports):
    """Every table verdict is a rank-2 verdict: the complement of signature
    (0, 2) and form -q exists iff some reduced positive even binary form T
    of determinant |q| has q_T isometric to q.  Decided by rank2_enumerate,
    discriminant_form and bruteforce_isomorphic alone, with nothing from
    symbol.py or nikulin.py: one list of T forms per determinant, and one
    search per quotient presentation (its integers)."""
    from latticelab import bruteforce_isomorphic, discriminant_form, rank2_enumerate
    t_forms, truths, built = {}, {}, Counter()
    for report in table_reports.values():
        for verdict in report:
            crit = verdict.criterion
            if not crit:
                continue
            assert not crit.outcomes or crit.complement_rank == 2
            for outcome in crit.outcomes:
                q = outcome.witness.quotient
                if q.order not in t_forms:
                    t_forms[q.order] = [discriminant_form(t.positive_lattice())
                                        for t in rank2_enumerate(q.order)]
                key = q.orders, q.level, q.qints, q.bints
                if key not in truths:
                    truths[key] = any(bruteforce_isomorphic(q_t, q) for q_t in t_forms[q.order])
                truth = truths[key]
                assert outcome.verdict.exists == truth, outcome.witness
                built[truth] += 1
    assert built == {True: 85, False: 78}


def test_table_runs_scan_each_symbol_once(table_reports, monkeypatch):
    """One rank-2 scan per (record, complement symbol) of the existing
    outcomes, a discriminant form only for candidates of the same group
    (equal prime-power orders), and exactly one symbol per witness and per
    such candidate: the scan reuses the symbol polarized_criterion kept for
    its witness."""
    from latticelab import casebook, discriminant_form, nikulin, rank2_enumerate
    expected = {table: {"scans": 0, "matched": 0, "witnesses": 0}
                for table in ("hm15", "k3max11")}
    for (table, _), report in table_reports.items():
        want = expected[table]
        for verdict in report:
            crit = verdict.criterion
            if not crit:
                continue
            want["witnesses"] += len(crit.outcomes)
            if not crit.passed or crit.complement_rank != 2:
                continue
            groups = {o.symbol: o.witness.quotient
                      for o in crit.outcomes if o.verdict.exists}
            want["scans"] += len(groups)
            for target in groups.values():
                want["matched"] += sum(
                    prime_power_orders(discriminant_form(f.positive_lattice()).orders)
                    == prime_power_orders(target.orders)
                    for f in rank2_enumerate(target.order, negative=True))

    calls = {}

    def counting(module, name, counts=lambda *args: True):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if counts(*args):
                calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(casebook, "rank2_enumerate")
    counting(casebook, "discriminant_form", lambda latt: latt.rank == 2)
    counting(casebook, "to_symbol")
    counting(nikulin, "to_symbol")
    for table, bounds in (("hm15", (7, 11)), ("k3max11", (16, 32))):
        calls.clear()
        for run in table_reports:
            if run[0] == table:
                full_report(*run)
        want = expected[table]
        assert calls["rank2_enumerate"] == want["scans"] == bounds[0]
        assert calls["discriminant_form"] == want["matched"] <= bounds[1]
        assert calls["to_symbol"] == want["witnesses"] + want["matched"]


def test_json_renders_each_quotient_symbol_once(table_reports, monkeypatch):
    """CaseVerdict.to_json_dict canonicalizes no form over the five table
    runs: each witness prints the quotient symbol polarized_criterion kept,
    58 distinct ones over the k3max11 runs, and renders as it does alone."""
    from latticelab import casebook, nikulin
    verdicts = [v for report in table_reports.values() for v in report]
    calls = []
    for module in (casebook, nikulin):
        real = module.to_symbol
        monkeypatch.setattr(module, "to_symbol",
                            lambda form, real=real: calls.append(form) or real(form))
    data = [v.to_json_dict() for v in verdicts]
    assert calls == []
    distinct = sum(len({o.symbol for o in v.criterion.outcomes})
                   for v in verdicts if v.criterion and v.record.table == "K3MAX11")
    assert distinct == 58
    outcomes = [o for v in verdicts if v.criterion for o in v.criterion.outcomes]
    assert [w["witness"] for d in data for w in d.get("witnesses", [])] == [
        o.witness.to_json_dict() for o in outcomes]


def test_criterion_canonicalizes_each_quotient_once(table_reports, monkeypatch):
    """polarized_criterion calls to_symbol once per witness, on the
    witness's own quotient, never on its negation."""
    from latticelab import casebook
    real = casebook.to_symbol
    calls = []
    monkeypatch.setattr(casebook, "to_symbol",
                        lambda form: calls.append(form) or real(form))
    for table, root_name in table_reports:
        root = polarization_root(root_name)
        for rec in load_table(table):
            calls.clear()
            crit = polarized_criterion(rec, root)
            assert len(calls) == len(crit.outcomes)
            assert all(form is o.witness.quotient
                       for form, o in zip(calls, crit.outcomes))


def test_glue_searches_read_one_scan(monkeypatch, table_reports):
    """saturations_keeping_primitive, isotropic_subgroups and
    embedding_images read q values and element orders off scan(): over the
    five table runs (isotropic_subgroups on each A_S + A_R of their
    records) none of them asks q_int or element_order of every element of
    a nontrivial group."""
    from latticelab import casebook, fqf, load_table
    from latticelab.fqf import FiniteQuadraticForm
    asked = {}
    for name in ("q_int", "element_order"):
        real = getattr(FiniteQuadraticForm, name)

        def pointwise(form, x, real=real, name=name):
            asked.setdefault((name, id(form)), (form, set()))[1].add(tuple(x))
            return real(form, x)
        monkeypatch.setattr(FiniteQuadraticForm, name, pointwise)

    calls = {}

    def guarded(module, name):
        real = getattr(module, name)

        def wrapper(*forms):
            asked.clear()
            out = real(*forms)
            full = [(kind, form) for (kind, _), (form, xs) in asked.items()
                    if form.order > 1 and len(xs) == form.order]
            assert not full, f"{name} evaluates {full[0][0]} on all of {full[0][1]}"
            calls[name] = calls.get(name, 0) + 1
            return out
        monkeypatch.setattr(module, name, wrapper)

    guarded(casebook, "saturations_keeping_primitive")
    guarded(fqf, "embedding_images")
    guarded(fqf, "isotropic_subgroups")
    for table, root in table_reports:
        full_report(table, root)
        q_r = polarization_root(root).q_R
        for rec in load_table(table):
            fqf.isotropic_subgroups(rec.q_S.direct_sum(q_r))
    assert calls == {"saturations_keeping_primitive": 48, "embedding_images": 7,
                     "isotropic_subgroups": 59}
