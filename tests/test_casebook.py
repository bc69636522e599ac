import pytest

from latticelab import (
    Rank2Form,
    analyze_record,
    condition_check,
    embedding_class_count,
    full_report,
    load_involution_controls,
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


def test_condition_check_involution_controls():
    controls = {r.group: r for r in load_involution_controls()}
    assert not condition_check(controls["E8(2)"]).passed
    assert not condition_check(controls["D12+(2)"]).passed
    assert condition_check(controls["BW16"]).passed


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
    wit = next(o.witness for o in res.outcomes
               if o.verdict.exists and not o.witness.trivial)
    cands = transcendental_candidates(rec1, e6, wit)
    assert [(f.a, f.b, f.c) for f in cands] == [(6, 3, 6)]
    assert all(f.negative for f in cands)


def test_transcendental_requires_rank2_complement():
    e7 = polarization_root("E7")
    rec = record("hm15", 1)  # rank_S = 20, root rank 7: complement rank 1
    res = polarized_criterion(rec, polarization_root("E6"))
    wit = res.outcomes[0].witness
    with pytest.raises(NotMaximalRankError):
        transcendental_candidates(rec, e7, wit)


def test_embedding_count_requires_flag():
    rec2 = record("hm15", 2)
    with pytest.raises(AssumptionMissingError):
        embedding_class_count(rec2, Rank2Form(2, 1, 14, negative=True))


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
    from latticelab import even_lattice_exists
    seen = 0
    for report in table_reports.values():
        for verdict in report:
            if not verdict.criterion:
                continue
            for outcome in verdict.criterion.outcomes:
                assert outcome.verdict == even_lattice_exists(outcome.complement)
                seen += 1
    assert seen == 163


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
    for name in ("hm15.json", "k3max11.json", "fu_cases.json", "involutions.json"):
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
            for t in transcendental_candidates(verdict.record, e6,
                                               outcome.witness):
                q_t = discriminant_form(t.signed_lattice())
                assert is_isomorphic(negate_form(q_t), outcome.witness.quotient)


def _full_scan_candidates(witness):
    """transcendental_candidates without the orders prefilter: every reduced
    form of the determinant gets its discriminant form."""
    from latticelab import discriminant_form, is_isomorphic, rank2_enumerate
    target = witness.quotient
    return [f for f in rank2_enumerate(target.order, negative=True)
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
    checked = 0
    for (_, root_name), report in table_reports.items():
        root = polarization_root(root_name)
        for verdict in report:
            crit = verdict.criterion
            if not crit or crit.complement_rank != 2:
                continue
            for outcome in crit.outcomes:
                assert transcendental_candidates(verdict.record, root, outcome.witness) \
                    == _full_scan_candidates(outcome.witness)
                checked += 1
    assert checked == 163


def test_table_runs_scan_each_symbol_once(table_reports, monkeypatch):
    """One rank-2 scan per (record, complement symbol) of the existing
    outcomes, a discriminant form only for candidates of matching orders,
    and at most one symbol per witness, per scan and per such candidate."""
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
                    discriminant_form(f.positive_lattice()).orders == target.orders
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
        assert calls["to_symbol"] <= sum(want.values())


def test_json_renders_each_quotient_symbol_once(table_reports, monkeypatch):
    """CaseVerdict.to_json_dict canonicalizes one quotient per (record,
    complement symbol): witnesses whose -q share a symbol share the symbol
    of q.  The witnesses render as they do one by one."""
    from latticelab import casebook, nikulin
    verdicts = [v for (table, _), report in table_reports.items()
                if table == "k3max11" for v in report]
    calls = []
    for module in (casebook, nikulin):
        real = module.to_symbol
        monkeypatch.setattr(module, "to_symbol",
                            lambda form, real=real: calls.append(form) or real(form))
    data = [v.to_json_dict() for v in verdicts]
    distinct = sum(len({o.symbol for o in v.criterion.outcomes})
                   for v in verdicts if v.criterion)
    assert len(calls) == distinct == 58
    assert [w for d in data for w in d.get("witnesses", [])] == [
        o.to_json_dict() for v in verdicts if v.criterion for o in v.criterion.outcomes]


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
