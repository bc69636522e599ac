import itertools
import random
from collections import Counter

import pytest

import latticelab.symbol
from latticelab import (
    LatticeInvariant,
    SaturationWitness,
    build_lattice,
    bruteforce_isomorphic,
    complement_quotient,
    discriminant_form,
    even_lattice_exists,
    form_from_symbol,
    form_from_symbol_text,
    is_isomorphic,
    isotropic_subgroups,
    load_table,
    named_lattice,
    negate_form,
    parse_symbol,
    polarization_root,
    primitive_embedding_into_even_unimodular_exists,
    rank2_enumerate,
    rescale,
    saturations_keeping_primitive,
    to_symbol,
    trivial_form,
    unique_primitive_embedding,
)
from latticelab.errors import (
    BadSignatureError,
    CapExceededError,
    DegenerateError,
    RealizabilityError,
)
from latticelab.exactmat import factorize
from latticelab.fqf import BRUTE_CAP, FiniteQuadraticForm
from latticelab.nikulin import genus_exists
from test_fqf import DEGENERATE_FORMS, SMALL_SYMBOLS, assert_reference_quotient


def inv(n1, n2, text):
    form = form_from_symbol_text(text) if text else trivial_form()
    return LatticeInvariant(n1, n2, form)


@pytest.mark.parametrize("n1,n2,text,expect,cond", [
    (0, 2, "3^+1 9^+1", True, None),
    (0, 2, "2_II^-2 3^+2 7^-1", False, 4),
    (1, 1, "", True, None),
    (0, 2, "4_5^-1 8_1^+1", False, 4),
    (0, 2, "5^+1 7^+1", True, None),
    (0, 2, "3^-2 5^+1 7^+1", True, None),
    (0, 2, "2_2^+2 3^+2", True, None),
    (0, 2, "4_3^-1 8_1^+1 3^-1 5^-1", False, 4),
    (0, 2, "4_2^+2 3^-1 7^+1", False, 4),
    (0, 2, "8_6^-2 3^+2", False, 4),
    (0, 2, "2_II^-2 3^+1 5^+1", False, 4),
    (0, 2, "2_3^-1 4_7^+1 3^+2 5^+1", True, None),
    (0, 2, "3^-1 11^+2", True, None),
    (0, 2, "4_7^+1 8_1^+1 3^+1", False, 4),
    (0, 2, "3^-1 5^-2", True, None),
    (0, 2, "2_II^+2 3^-1 7^+2", False, 3),
])
def test_existence_catalog(n1, n2, text, expect, cond):
    verdict = even_lattice_exists(inv(n1, n2, text))
    assert verdict.exists == expect
    if not expect:
        assert verdict.failed_condition == cond


def test_existence_rejects_rank_shortfall():
    # signature matches but the 3-part needs four generators
    verdict = even_lattice_exists(inv(0, 2, "3^-2 9^+1 27^+1"))
    assert not verdict.exists and verdict.failed_condition == 2


def test_existence_signature_condition():
    # sig(3^+1) = 6 forces n_plus - n_minus = 6 mod 8
    assert even_lattice_exists(inv(6, 0, "3^+1")).exists
    verdict = even_lattice_exists(inv(2, 0, "3^+1"))
    assert not verdict.exists and verdict.failed_condition == 1


def test_existence_swap_symmetry():
    rng = random.Random(51)
    texts = ["3^+1 9^+1", "2_II^-2 3^+2 7^-1", "5^+1 7^+1", "2_2^+2 3^+2",
             "8_6^-2 3^+2", "2_3^-1 4_7^+1 3^+2 5^+1"]
    for text in texts:
        q = form_from_symbol_text(text)
        for _ in range(4):
            n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
            a = even_lattice_exists(LatticeInvariant(n1, n2, q))
            b = even_lattice_exists(LatticeInvariant(n2, n1, negate_form(q)))
            assert a.exists == b.exists


def test_genus_exists_swaps_signature_with_sign():
    """A lattice of signature (n1, n2) and form -q exists iff its rescaling
    by -1, of signature (n2, n1) and form q, does: the same verdict,
    failed condition and detail, for SMALL_SYMBOLS and the sums of two of
    them, on every signature with n1 + n2 <= 12."""
    forms = [form_from_symbol_text(t) for t in SMALL_SYMBOLS]
    forms += [a.direct_sum(b) for a, b in
              itertools.combinations_with_replacement(forms, 2)]
    seen = Counter()
    for q in forms:
        sym, neg = to_symbol(q), to_symbol(negate_form(q))
        for n1 in range(13):
            for n2 in range(13 - n1):
                verdict = genus_exists(n2, n1, sym)
                assert genus_exists(n1, n2, neg) == verdict, (str(sym), n1, n2)
                seen[verdict.failed_condition] += 1
    assert set(seen) == {None, 1, 2, 3, 4}, seen


def test_existence_sound_on_registry():
    for name in ["A1", "A2", "A6", "D4", "D7", "E6", "E7", "E8", "U"]:
        base = named_lattice(name)
        for n in (-3, -2, -1, 1, 2, 3):
            latt = rescale(base, n)
            invariant = LatticeInvariant(latt.n_plus, latt.n_minus,
                                         discriminant_form(latt))
            assert even_lattice_exists(invariant).exists, (name, n)


def _prime_part_tokens(p, e):
    """Constituent token lists of every p-part of order p^e and length <= 2."""
    shapes = [[(e, 1)]] + [[(a, 1), (e - a, 1)] for a in range(1, (e + 1) // 2)]
    if e % 2 == 0:
        shapes.append([(e // 2, 2)])
    tags = [""] if p > 2 else ["_II"] + [f"_{t}" for t in range(8)]
    out = []
    for shape in shapes:
        out += itertools.product(*([f"{p ** k}{tag}^{sign}{n}"
                                    for tag in tags for sign in "+-"]
                                   for k, n in shape))
    return out


def _length2_symbols(order):
    """Every symbol text of order `order` and length <= 2 that parses.

    Texts are generated blindly and filtered by parse_symbol, so one form
    may appear under several 2-adic texts; each is checked."""
    parts = [_prime_part_tokens(p, e) for p, e in sorted(factorize(order).items())]
    for combo in itertools.product(*parts):
        text = " ".join(token for part in combo for token in part)
        try:
            yield text, parse_symbol(text)
        except RealizabilityError:
            continue


# |A| bound of the oracle below: 1,610 checks, about 1.3 s on a 2-vCPU Xeon
ORACLE_MAX_ORDER = 64


def test_existence_matches_rank2_construction():
    """even_lattice_exists at rank 2 agrees with an explicit construction.

    An even lattice of signature (2, 0) with form q exists iff some reduced
    positive definite even binary form T of determinant |A| has q_T
    isometric to q; (0, 2) with -q asks for -T.  The oracle enumerates the
    T and tests isometry by brute force, sharing no code with symbol.py or
    nikulin.py; only the input forms come from symbols.
    """
    checked = 0
    mismatches = []
    for order in range(1, ORACLE_MAX_ORDER + 1):
        t_forms = [discriminant_form(t.positive_lattice())
                   for t in rank2_enumerate(order)]
        for text, sym in _length2_symbols(order):
            q = form_from_symbol(sym)
            truth = any(bruteforce_isomorphic(q_t, q) for q_t in t_forms)
            for n1, n2, form in ((2, 0, q), (0, 2, negate_form(q))):
                verdict = even_lattice_exists(LatticeInvariant(n1, n2, form))
                checked += 1
                if verdict.exists != truth:
                    mismatches.append((text, n1, n2, truth))
    assert checked == 1610
    assert not mismatches, mismatches[:10]


@pytest.mark.parametrize("text", ["3^+1 9^+1", "2_II^-2 3^+2 7^-1",
                                  "2_3^-1 4_7^+1 3^+2 5^+1", "4_5^-1 8_1^+1"])
def test_existence_decomposes_its_form_once(monkeypatch, text):
    real = latticelab.symbol.jordan_constituents
    calls = []
    monkeypatch.setattr(latticelab.symbol, "jordan_constituents",
                        lambda form: calls.append(form) or real(form))
    even_lattice_exists(inv(0, 2, text))
    assert len(calls) == 1


def test_unique_primitive_embedding():
    ok, _ = unique_primitive_embedding(inv(0, 0, ""), (26, 2))
    assert ok
    # signature slack fails when n_minus equals the target's
    l0 = named_lattice("Lambda0")
    res, note = unique_primitive_embedding(
        LatticeInvariant(20, 2, discriminant_form(l0)), (26, 2))
    assert not res and "silent" in note
    with pytest.raises(BadSignatureError):
        unique_primitive_embedding(inv(0, 0, ""), (25, 2))


def test_embedding_with_complement():
    e6 = named_lattice("E6")
    verdict, comp = primitive_embedding_into_even_unimodular_exists(
        LatticeInvariant(6, 0, discriminant_form(e6)), (8, 0))
    assert verdict.exists
    assert (comp.n_plus, comp.n_minus) == (2, 0)
    assert is_isomorphic(comp.form, discriminant_form(named_lattice("A2")))

    l0 = named_lattice("Lambda0")
    verdict, comp = primitive_embedding_into_even_unimodular_exists(
        LatticeInvariant(20, 2, discriminant_form(l0)), (26, 2))
    assert verdict.exists
    assert (comp.n_plus, comp.n_minus) == (6, 0)
    assert is_isomorphic(comp.form, discriminant_form(named_lattice("E6")))


def test_saturations_glue_example():
    # q_S = -(3^+2 9^+1) + q_{E6}: nontrivial index-3 overlattices exist and
    # the resulting form is 3^-1 9^-1
    q_s = negate_form(form_from_symbol_text("3^+2 9^+1"))
    q_r = discriminant_form(named_lattice("E6"))
    wits = saturations_keeping_primitive(q_s, q_r)
    assert wits[0].trivial and wits[0].index == 1
    nontrivial = [w for w in wits if not w.trivial]
    assert nontrivial
    assert all(w.index == 3 for w in nontrivial)
    target = form_from_symbol_text("3^-1 9^-1")
    assert all(is_isomorphic(w.quotient, target) for w in nontrivial)


def test_saturation_witness_is_trivial_exactly_at_index_one():
    q = discriminant_form(named_lattice("A2"))
    assert SaturationWitness((), 1, q).trivial
    assert not SaturationWitness(((1,),), 3, q).trivial


def test_saturations_none_when_blocked():
    q_s = negate_form(form_from_symbol_text("2_II^-2 3^-1 7^-1"))
    q_r = discriminant_form(named_lattice("E6"))
    wits = saturations_keeping_primitive(q_s, q_r)
    assert len(wits) == 1 and wits[0].trivial


def test_saturations_trivial_partner():
    q_s = form_from_symbol_text("3^+2 9^+1")
    wits = saturations_keeping_primitive(q_s, trivial_form())
    assert len(wits) == 1 and wits[0].trivial


def test_saturation_index_law():
    q_s = negate_form(form_from_symbol_text("2_2^+2 3^+3"))
    q_r = discriminant_form(named_lattice("E6"))
    total = q_s.order * q_r.order
    for w in saturations_keeping_primitive(q_s, q_r):
        assert w.quotient.order * w.index ** 2 == total


def _witness_data(index, gens, quotient, trivial):
    return (index, tuple(gens), quotient.level, quotient.orders, quotient.qints,
            quotient.bints, trivial)


def saturation_data(q_s, q_r):
    """saturations_keeping_primitive(q_s, q_r) as comparable tuples."""
    return [_witness_data(w.index, w.glue_gens, w.quotient, w.trivial)
            for w in saturations_keeping_primitive(q_s, q_r)]


def filtered_saturation_data(q_s, q_r):
    """The reference: every isotropic subgroup of A_S + A_R, minus those
    that meet A_S, each with its quotient on H-perp/H."""
    total = q_s.direct_sum(q_r)
    ns = q_s.ngens
    out = [_witness_data(sub.order, sub.gens, complement_quotient(total, sub),
                         sub.order == 1)
           for sub in isotropic_subgroups(total)
           if not any(any(x[:ns]) and not any(x[ns:]) for x in sub.elements)]
    return sorted(out, key=lambda w: (w[0], w[1]))


MIXED_EXPONENT_PAIRS = [("-", "2_1^+1 4_1^+1", "2_1^+1 4_1^+1"),
                        ("+", "2_II^+2", "2_II^+2 4_II^+2"),
                        ("-", "2_2^+2 4_1^+1", "2_2^+2 4_1^+1")]


def _saturation_cases():
    """(id, q_S, q_R): small forms and their negations against non-cyclic
    partners, forms with a degenerate b, partners of smaller exponent
    with nontrivial glue, non-cyclic partners of mixed exponent, and
    trivial factors.  A negation
    isometric to the form only re-labels its elements and is left out."""
    cases = []
    for text in SMALL_SYMBOLS:
        q = form_from_symbol_text(text)
        signs = [("+", q)]
        if not is_isomorphic(q, negate_form(q)):
            signs.append(("-", negate_form(q)))
        for sign, q_s in signs:
            for partner in ("2_II^+2", "2_0^+4", "3^+2"):
                cases.append((f"{sign}{text}|{partner}", q_s,
                              form_from_symbol_text(partner)))
    for i, form in enumerate(DEGENERATE_FORMS):
        cases.append((f"-degenerate{i}|degenerate{i}", negate_form(form), form))
        cases.append((f"2_II^+2|degenerate{i}", form_from_symbol_text("2_II^+2"), form))
    # exp(A_R) a proper divisor of exp(A_S): the fibres lie in A_S[exp(A_R)]
    for pair in [("4_II^+2 3^+1", "2_II^+2"), ("3^+1 9^-1", "3^-1"), ("8_II^-2", "4_II^+2"),
                 ("8_II^-2", "2_II^+2"), ("27^+1", "9^-1"), ("27^+1", "3^+1 9^-1")]:
        cases.append(("|".join(pair), *map(form_from_symbol_text, pair)))
    # A_R non-cyclic of mixed exponent: a generating tuple of K can satisfy
    # a relation, such as (2g, h, g), and a pick that breaks it spans more
    # than |K| elements
    for sign, text, partner in MIXED_EXPONENT_PAIRS:
        q_s = form_from_symbol_text(text)
        cases.append((f"{sign}{text}|{partner}", negate_form(q_s) if sign == "-" else q_s,
                      form_from_symbol_text(partner)))
    cases.append(("3^+2 9^+1|trivial", form_from_symbol_text("3^+2 9^+1"), trivial_form()))
    cases.append(("trivial|2_0^+4", trivial_form(), form_from_symbol_text("2_0^+4")))
    cases.append(("trivial|trivial", trivial_form(), trivial_form()))
    return cases


def _random_even_gram(rng, rank):
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = rng.choice((-4, -2, 2, 4))
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = rng.randint(-1, 1)
    return gram


def _random_saturation_cases(count=24):
    """(id, q_S, q_R): discriminant forms of random even Gram matrices of
    rank 2-3 with |A_S|*|A_R| in 4-32 or 33-96, alternately: the strata of
    the benchmark's saturate queries."""
    rng = random.Random(20)
    cases = []
    while len(cases) < count:
        lo, hi = ((4, 32), (33, 96))[len(cases) % 2]
        try:
            q_s, q_r = (discriminant_form(build_lattice(_random_even_gram(rng, rng.randint(2, 3))))
                        for _ in range(2))
        except DegenerateError:
            continue
        if lo <= q_s.order * q_r.order <= hi:
            cases.append((f"random{len(cases)}", q_s, q_r))
    return cases


SATURATION_CASES = _saturation_cases() + _random_saturation_cases()


@pytest.mark.parametrize("q_s,q_r", [c[1:] for c in SATURATION_CASES],
                         ids=[c[0] for c in SATURATION_CASES])
def test_saturations_match_isotropic_filter(q_s, q_r):
    assert saturation_data(q_s, q_r) == filtered_saturation_data(q_s, q_r)


def test_saturation_quotients_match_reference_quotient(monkeypatch):
    """Every witness that a saturation oracle case glues over, degenerate
    forms included, on the ambient form the search shares between its
    witnesses, has the quotient of the reference route."""
    pairs = []
    real = latticelab.nikulin.complement_quotient
    monkeypatch.setattr(latticelab.nikulin, "complement_quotient",
                        lambda form, sub: pairs.append((form, sub)) or real(form, sub))
    for _, q_s, q_r in SATURATION_CASES:
        saturations_keeping_primitive(q_s, q_r)
    monkeypatch.undo()
    for form, sub in pairs:
        assert_reference_quotient(form, sub)
    assert len(pairs) > 2800


def _spy_spans(monkeypatch):
    """Record (gens, element set) of every _span call, under the name fqf
    defines and the name nikulin imports."""
    import latticelab.fqf
    import latticelab.nikulin
    spans = []
    real = latticelab.fqf._span

    def spy(form, gens):
        els = real(form, gens)
        spans.append((tuple(gens), els))
        return els

    monkeypatch.setattr(latticelab.fqf, "_span", spy)
    monkeypatch.setattr(latticelab.nikulin, "_span", spy)
    return spans, real


def test_saturations_take_no_subgroup_basis(monkeypatch, table_reports):
    """The witnesses are graphs over subgroups K of A_R, with no Smith-form
    basis of any subgroup: each pick of fibre elements over a generating
    tuple of K is spanned once, in A_S + A_R, and kept exactly when the
    span has |K| elements (its projection to A_R is K); every kept span is
    a witness's element set, and the glue generators are the minimal
    generators of that set.  On every record of the five table runs
    against its root, and on SATURATION_CASES."""
    from latticelab.fqf import _minimal_generators
    pairs = [(rec.q_S, polarization_root(root).q_R)
             for table, root in table_reports for rec in load_table(table)]
    pairs += [c[1:] for c in SATURATION_CASES]

    def refuse(self, gens):
        raise AssertionError("subquotient called")

    monkeypatch.setattr(FiniteQuadraticForm, "subquotient", refuse)
    spans, real = _spy_spans(monkeypatch)
    for q_s, q_r in pairs:
        total, ns = q_s.direct_sum(q_r), q_s.ngens
        spans.clear()
        witnesses = saturations_keeping_primitive(q_s, q_r)
        assert witnesses[0].trivial
        assert len({gens for gens, _ in spans}) == len(spans)
        kept = [els for gens, els in spans
                if len(els) == len(real(q_r, [x[ns:] for x in gens]))]
        assert len(kept) == len(witnesses)
        assert set(kept) == {real(total, w.glue_gens) for w in witnesses}
        for w in witnesses:
            assert w.glue_gens == tuple(_minimal_generators(total, real(total, w.glue_gens)))


def test_mixed_exponent_partners_reject_some_picks(monkeypatch):
    """The oracle cases of MIXED_EXPONENT_PAIRS reach both branches of the
    size test: some K of two or more generators keeps a pick, and some
    pick spans more than |K| elements and is dropped."""
    spans, real = _spy_spans(monkeypatch)
    kept = dropped = 0
    for sign, text, partner in MIXED_EXPONENT_PAIRS:
        q_s, q_r = (form_from_symbol_text(t) for t in (text, partner))
        spans.clear()
        saturations_keeping_primitive(negate_form(q_s) if sign == "-" else q_s, q_r)
        for gens, els in spans:
            k = len(real(q_r, [x[q_s.ngens:] for x in gens]))
            assert len(els) >= k
            kept += len(gens) > 1 and len(els) == k
            dropped += len(els) > k
    assert kept > 0 and dropped > 0


def test_saturation_search_runs_in_the_roots_group(monkeypatch, table_reports):
    """The subgroup search of the saturations runs in A_R, never in
    A_S + A_R: over an hm15/E6 pass and a k3max11 pass against all four
    roots, _subgroups_within runs once per (record, root) that fits by rank
    (48 of the 59), on the root's form, of at most 6 elements (the direct
    sums reach 2,304)."""
    import latticelab.fqf
    import latticelab.nikulin
    from latticelab import full_report
    orders = []
    real = latticelab.fqf._subgroups_within

    def spy(form, pool):
        orders.append(form.order)
        return real(form, pool)

    monkeypatch.setattr(latticelab.fqf, "_subgroups_within", spy)
    monkeypatch.setattr(latticelab.nikulin, "_subgroups_within", spy)
    searched = []
    for table, root in table_reports:
        orders.clear()
        list(full_report(table, root))
        assert set(orders) <= {polarization_root(root).q_R.order}
        searched += orders
    assert len(searched) == 48 and max(searched) <= 6


def test_saturate_8_II_squared_adds_little(monkeypatch):
    """saturations_keeping_primitive on 8_II^-2 against 8_II^-2 (4,096
    elements, at the cap) lists the same 797 witnesses, pinned by their
    index counts and a digest of their glue generators, with at most
    100,000 FiniteQuadraticForm.add calls (the search in A_S + A_R made
    1,039,358)."""
    import hashlib
    q = form_from_symbol_text("8_II^-2")
    calls = [0]
    real = FiniteQuadraticForm.add

    def add(self, x, y):
        calls[0] += 1
        return real(self, x, y)

    monkeypatch.setattr(FiniteQuadraticForm, "add", add)
    witnesses = saturations_keeping_primitive(q, form_from_symbol_text("8_II^-2"))
    assert calls[0] <= 100_000
    assert sorted(Counter(w.index for w in witnesses).items()) == [
        (1, 1), (2, 12), (4, 88), (8, 288), (16, 240), (32, 144), (64, 24)]
    assert hashlib.sha256(repr([w.glue_gens for w in witnesses]).encode()).hexdigest() == (
        "711d528b53f74b77558206f8e5d6629b5fbfa56ad662a9fd75161f6956275f83")


def test_cyclic_witnesses_read_their_generating_tuples(monkeypatch, table_reports):
    """Every witness of the five table runs is cyclic or trivial, so its glue
    generator is the least k*g of the one-element pick that it is spanned
    from (the tuple () for the trivial one): no record takes
    _minimal_generators, and test_saturations_take_no_subgroup_basis pins
    the generators against it."""
    import latticelab.fqf
    calls = []
    real = latticelab.fqf._minimal_generators
    monkeypatch.setattr(latticelab.fqf, "_minimal_generators",
                        lambda *a: calls.append(a) or real(*a))
    witnesses = [w for table, root in table_reports for rec in load_table(table)
                 for w in saturations_keeping_primitive(rec.q_S, polarization_root(root).q_R)]
    assert len(witnesses) > 150 and all(len(w.glue_gens) <= 1 for w in witnesses)
    assert calls == []


def test_k3_pass_walks_no_whole_q_s():
    """The saturations walk A_S[e] alone, e the exponent of A_R, never A_S:
    a k3max11 pass against all four roots leaves the walk of every record's
    q_S unbuilt."""
    from latticelab import full_report
    verdicts = [v for root in ("E6+A1", "D7", "E7", "E8")
                for v in full_report("k3max11", root)]
    assert len(verdicts) == 44
    assert [v.record.row for v in verdicts if v.record.q_S._scan is not None] == []


def test_saturations_cap_guard(monkeypatch):
    """Over BRUTE_CAP on |A_S|*|A_R| raises before any element is listed."""
    pairs = [(form_from_symbol_text("2_II^+6"), form_from_symbol_text("2_1^+7")),
             (form_from_symbol_text("2_1^+13"), trivial_form())]

    def refuse(self):
        raise AssertionError("elements listed before the cap check")

    monkeypatch.setattr(FiniteQuadraticForm, "elements", refuse)
    for q_s, q_r in pairs:
        assert q_s.order * q_r.order > BRUTE_CAP
        with pytest.raises(CapExceededError):
            saturations_keeping_primitive(q_s, q_r)


def test_complement_duality_realized():
    # E6 + A2 glue to E8: direct sum of sample realizations has the target
    # signature and opposite discriminant forms
    from latticelab import direct_sum
    e6 = named_lattice("E6")
    a2 = named_lattice("A2")
    assert is_isomorphic(discriminant_form(a2),
                         negate_form(discriminant_form(e6)))
    both = direct_sum(e6, a2)
    assert both.signature == named_lattice("E8").signature
    assert abs(both.det) == 9  # index-3 glue recovers the unimodular lattice
