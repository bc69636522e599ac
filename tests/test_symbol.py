import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

import latticelab.exactmat
import latticelab.fqf
import latticelab.symbol
from latticelab import (
    build_lattice,
    bruteforce_isomorphic,
    direct_sum,
    direct_sum_forms,
    discriminant_form,
    discriminant_group,
    embedding_images,
    even_lattice_exists,
    form_from_symbol,
    form_from_symbol_text,
    full_report,
    gauss_sum_signature,
    is_isomorphic,
    load_table,
    named_lattice,
    negate_form,
    parse_symbol,
    primary_lengths,
    rank2_isometries,
    rescale,
    short_vectors,
    signature_mod8,
    to_symbol,
)
from latticelab.errors import (
    CapExceededError,
    DegenerateError,
    RealizabilityError,
    SymbolSyntaxError,
)
from latticelab.fqf import FiniteQuadraticForm, automorphisms
from latticelab.nikulin import LatticeInvariant
from latticelab.rank2 import Rank2Form
from latticelab.symbol import (
    JordanConstituent,
    _canonical_two_adic,
    _det_class_2,
    _odd_unit_multiset,
    clear_jordan_caches,
    realizable_pairs,
)
from test_fqf import (
    DEGENERATE_FORMS,
    DEGENERATE_IDS,
    REGISTRY_NAMES,
    SMALL_SYMBOLS,
    random_even_lattice,
)
from test_shortvec import skewed_definite_corpus


def cyclic(scale, a):
    return FiniteQuadraticForm([scale], [Fraction(a, scale)])


def test_named_lattice_symbols():
    for name, expect in [("A1", "2_1^+1"), ("A2", "3^-1"), ("E6", "3^+1"),
                         ("E7", "2_7^+1"), ("E8", "1^+0"), ("D7", "4_7^+1"),
                         ("D4", "2_II^-2"), ("A6", "7^-1")]:
        assert str(to_symbol(discriminant_form(named_lattice(name)))) == expect
    e6a1 = direct_sum(named_lattice("E6"), named_lattice("A1"))
    assert str(to_symbol(discriminant_form(e6a1))) == "2_1^+1 3^+1"
    u2 = rescale(named_lattice("U"), 2)
    assert str(to_symbol(discriminant_form(u2))) == "2_II^+2"
    a2m3 = rescale(named_lattice("A2"), -3)
    assert str(to_symbol(discriminant_form(a2m3))) == "3^+1 9^+1"


def test_parse_and_print_round_trip_is_canonical():
    texts = ["3^+2 9^+1", "2_II^-2 3^-1 7^-1", "4_5^-1 8_1^+1 3^+1",
             "3^+1 5^+1 7^+1", "2_2^+2 3^+3", "4_3^-1 8_1^+1 5^-1",
             "4_2^+2 7^+1", "8_6^-2 3^-1", "2_II^-2 3^+2 5^+1",
             "2_3^-1 4_7^+1 3^-1 5^+1", "11^+2", "4_7^+1 8_1^+1 3^+2",
             "3^-2 5^-2", "2_II^+2 7^+2", "2_1^+1 4_1^+1 3^-1 9^-1",
             "2_7^-3 3^-1 9^-1", "2_7^+1 8_II^-2 3^-1", "2_4^+12", "2_II^+8"]
    for text in texts:
        form = form_from_symbol_text(text)
        canon = str(to_symbol(form))
        again = form_from_symbol_text(canon)
        assert str(to_symbol(again)) == canon
        assert bruteforce_isomorphic(form, again) or form.order > 4096


def test_parse_rejects_bad_symbols():
    with pytest.raises(RealizabilityError):
        parse_symbol("2_3^+1")  # rank 1, plus sign needs oddity 1 or 7
    with pytest.raises(RealizabilityError):
        parse_symbol("4_4^+2")  # rank 2, plus sign needs oddity 0, 2 or 6
    with pytest.raises(RealizabilityError):
        parse_symbol("2_II^-3")  # even type must have even rank
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("6^+1")  # not a prime power
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("3^+1 3^+1")  # duplicate scale
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("4^+1 nonsense")
    for text in ("2_8^+1", "2_9^+1", "4_9^-1"):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol(text)  # oddity tag outside 0..7
    assert parse_symbol("").constituents == ()
    assert parse_symbol("1^+0").constituents == ()


def test_parse_symbol_refuses_a_rank_above_the_cap(monkeypatch):
    """Ranks summing to SYMBOL_RANK_CAP parse; a symbol whose ranks sum
    higher is refused at the token that passes the cap, before that
    constituent is built or checked for realizability."""
    assert latticelab.symbol.SYMBOL_RANK_CAP == 64
    assert sum(c.n for c in parse_symbol("3^+60 9^+4").constituents) == 64
    assert sum(c.n for c in parse_symbol("2_1^+63 3^+1").constituents) == 64
    checked = []
    monkeypatch.setattr(latticelab.symbol, "realizable_pairs",
                        lambda n: checked.append(n) or frozenset())
    for text, rank in (("3^+65", 65), ("3^+60 9^+5", 65), ("3^+400", 400),
                       ("2_1^+200001", 200001), ("3^+1 2_1^+64", 65)):
        with pytest.raises(CapExceededError, match=f"^symbol rank {rank} exceeds cap 64$"):
            parse_symbol(text)
    assert checked == []


@pytest.mark.parametrize("text", ["3^+0", "2_II^+0", "4_1^+0", "2_1^+1 8_II^+0"])
def test_parse_rejects_rank_zero_constituents(text):
    """Every parsed constituent has rank >= 1, as jordan_constituents'
    do, so no symbol code needs a rank-0 case."""
    with pytest.raises(RealizabilityError):
        parse_symbol(text)


def test_odd_unit_multiset_is_the_smallest_realizing_list():
    """The greedy pick equals the smallest list of n odd units with sign
    eps and trace t found by brute force over sorted lists, and None when
    there is none."""
    from latticelab.symbol import _det_class_2, _odd_unit_multiset
    smallest = {}
    for n in range(7):
        for units in itertools.combinations_with_replacement((1, 3, 5, 7), n):
            key = (n, prod(map(_det_class_2, units)), sum(units) % 8)
            smallest[key] = min(smallest.get(key, list(units)), list(units))
    for n in range(7):
        for eps in (1, -1):
            for t in range(8):
                assert _odd_unit_multiset(n, eps, t) == smallest.get((n, eps, t)), \
                    (n, eps, t)
    assert sum(n == 6 for n, _, _ in smallest) == 8


def test_negation_on_symbols():
    q_a1 = discriminant_form(named_lattice("A1"))
    assert str(to_symbol(negate_form(q_a1))) == "2_7^+1"
    q = form_from_symbol_text("3^+2 9^+1")
    assert str(to_symbol(negate_form(q))) == "3^+2 9^-1"
    assert is_isomorphic(negate_form(negate_form(q)), q)


def test_signature_examples():
    assert signature_mod8(discriminant_form(named_lattice("A1"))) == 1
    assert signature_mod8(discriminant_form(named_lattice("E6"))) == 6
    assert signature_mod8(discriminant_form(named_lattice("E7"))) == 7
    assert signature_mod8(form_from_symbol_text("")) == 0


def test_signature_negation_antisymmetry():
    for text in ["3^+2 9^+1", "2_3^-1 4_7^+1 3^-1 5^+1", "2_II^-2 3^+2 5^+1"]:
        q = form_from_symbol_text(text)
        assert (signature_mod8(q) + signature_mod8(negate_form(q))) % 8 == 0


def test_gauss_sum_agrees_with_constituent_signature():
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        try:
            latt = build_lattice(g)
        except Exception:
            continue
        if abs(latt.det) > 200:
            continue
        q = discriminant_form(latt)
        try:
            direct = gauss_sum_signature(q)
        except ValueError:
            continue
        assert direct == signature_mod8(q)
        checked += 1


def _uv_form(k, kind):
    """u(2^k) (q = 0, 0) or v(2^k) (q = 2/2^k, 2/2^k), with b(e_1, e_2) = 1/2^k."""
    scale, q = 2 ** k, 0 if kind == "u" else 2
    return FiniteQuadraticForm._from_ints([scale, scale], scale, [q, q],
                                          [[q % scale, 1], [1, q % scale]])


def test_canonical_symbol_equality_matches_bruteforce_on_hard_two_adic_forms():
    forms = []
    for a in (1, 3):
        for b in (1, 3, 5, 7):
            forms.append(cyclic(2, a).direct_sum(cyclic(4, b)))
            forms.append(cyclic(2, a).direct_sum(cyclic(8, b)))
            forms.append(cyclic(2, a).direct_sum(cyclic(16, b)))
    for a in (1, 3, 5, 7):
        for b in (1, 3, 5, 7):
            forms.append(cyclic(4, a).direct_sum(cyclic(8, b)))
    for a in (1, 3, 5, 7):
        for kind in ("u", "v"):
            forms.append(cyclic(4, a).direct_sum(_uv_form(3, kind)))
            forms.append(cyclic(4, a).direct_sum(_uv_form(2, kind)))
            forms.append(cyclic(8, a).direct_sum(_uv_form(1, kind)))
    forms.append(_uv_form(2, "u").direct_sum(_uv_form(2, "u")))
    forms.append(_uv_form(2, "u").direct_sum(_uv_form(2, "v")))
    forms.append(_uv_form(2, "v").direct_sum(_uv_form(2, "v")))
    mismatches = []
    for f1, f2 in itertools.combinations(forms, 2):
        if f1.order != f2.order:
            continue
        if is_isomorphic(f1, f2) != bruteforce_isomorphic(f1, f2):
            mismatches.append((str(to_symbol(f1)), str(to_symbol(f2))))
    assert not mismatches


def reference_form_from_symbol(sym):
    """The form of form_from_symbol written with the Fraction constructor
    on all generators at once: odd p takes n-1 least units a with 2a a
    square mod p and one least a fixing the sign, an even 2-adic
    constituent u(2^k) blocks with the first one v(2^k) if eps = -1, an
    odd one the least unit multiset."""
    orders, qs, pairs = [], [], []
    for c in sym.constituents:
        scale = c.scale
        if c.p != 2:
            want = [1] * (c.n - 1) + [c.eps]
            units = [2 * next(a for a in range(1, scale) if gcd(a, c.p) == 1 and
                              pow(2 * a, (c.p - 1) // 2, c.p) == w % c.p) for w in want]
        elif c.even:
            units = [2 if c.eps < 0 and i < 2 else 0 for i in range(c.n)]
            pairs += [(len(orders) + i, len(orders) + i + 1, Fraction(1, scale))
                      for i in range(0, c.n, 2)]
        else:
            units = _odd_unit_multiset(c.n, c.eps, c.oddity)
        orders += [scale] * c.n
        qs += [Fraction(a, scale) for a in units]
    b = [[0] * len(orders) for _ in orders]
    for i, j, x in pairs:
        b[i][j] = b[j][i] = x
    return FiniteQuadraticForm(orders, qs, b)


def _random_realizable_symbol(rng):
    """Up to three primes p <= 13, total rank 1 to 4, one or two scales
    per prime; a 2-adic constituent even or odd, an odd one's sign and
    oddity those of random units."""
    cons, left = [], rng.randint(1, 4)
    for p in sorted(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 3))):
        for k in sorted(rng.sample(range(1, 4), rng.randint(1, 2))):
            if left == 0:
                break
            n = rng.randint(1, left)
            if p != 2:
                cons.append(JordanConstituent(p, k, n, rng.choice((1, -1))))
            elif n >= 2 and rng.random() < 0.5:
                n -= n % 2
                cons.append(JordanConstituent(2, k, n, rng.choice((1, -1)), even=True))
            else:
                units = [rng.choice((1, 3, 5, 7)) for _ in range(n)]
                cons.append(JordanConstituent(2, k, n, prod(map(_det_class_2, units)),
                                              even=False, oddity=sum(units) % 8))
            left -= n
    return latticelab.symbol.GenusSymbol(tuple(cons))


def test_form_from_symbol_matches_the_fraction_reference():
    """form_from_symbol writes the integers of the reference, on every
    symbol of the two tables, the small symbols and 1,500 seeded random
    realizable ones, both 2-adic types among them, and refuses a
    hand-built 2-adic constituent that is not realizable, even or odd."""
    def data(f):
        return f.orders, f.level, f.qints, f.bints

    rng = random.Random(39)
    syms = [parse_symbol(rec.qK_symbol) for table in ("hm15", "k3max11")
            for rec in load_table(table)]
    syms += [parse_symbol(t) for t in SMALL_SYMBOLS]
    syms += [_random_realizable_symbol(rng) for _ in range(1500)]
    kinds = {(c.p == 2, c.even) for sym in syms for c in sym.constituents}
    assert kinds == {(False, True), (True, True), (True, False)}
    for sym in syms:
        assert data(form_from_symbol(sym)) == data(reference_form_from_symbol(sym)), str(sym)
    for c in [JordanConstituent(2, 1, 1, 1, even=True), JordanConstituent(2, 2, 3, -1, even=True),
              JordanConstituent(2, 1, 2, 1, even=True, oddity=4),
              JordanConstituent(2, 1, 1, 1, even=False, oddity=3)]:
        with pytest.raises(RealizabilityError):
            form_from_symbol(latticelab.symbol.GenusSymbol((c,)))


def test_three_scale_chains_match_bruteforce():
    forms = []
    for a in (1, 3):
        for b in (1, 3, 5, 7):
            for c in (1, 3, 5, 7):
                forms.append(cyclic(2, a).direct_sum(cyclic(4, b))
                             .direct_sum(cyclic(8, c)))
    groups = {}
    for f in forms:
        groups.setdefault(str(to_symbol(f)), []).append(f)
    # canonical symbols must be constant on brute-force classes
    reps = [(sym, fs[0]) for sym, fs in groups.items()]
    for (s1, f1), (s2, f2) in itertools.combinations(reps, 2):
        assert not bruteforce_isomorphic(f1, f2), (s1, s2)
    for sym, fs in groups.items():
        for f in fs[1:]:
            assert bruteforce_isomorphic(fs[0], f), sym


@pytest.mark.parametrize("form", DEGENERATE_FORMS, ids=DEGENERATE_IDS)
def test_degenerate_forms_have_no_symbol(form):
    with pytest.raises(DegenerateError) as info:
        to_symbol(form)
    assert "degenerate" in str(info.value) and "\n" not in str(info.value)


def test_symbols_need_no_smith_normal_form(monkeypatch):
    """The Jordan splitting works on the form's own integer values: no
    subquotient, Smith normal form or integer kernel on the small symbols
    or on any form the five table runs symbolize.  Neither is_isomorphic
    nor primary_lengths re-presents a form, and automorphisms and
    embedding_images search on the small symbols as presented."""
    forms = [form_from_symbol_text(t) for t in SMALL_SYMBOLS]
    real = latticelab.symbol.jordan_constituents
    monkeypatch.setattr(latticelab.symbol, "jordan_constituents",
                        lambda form: forms.append(form) or real(form))
    for table, root in [("hm15", "E6"), ("k3max11", "E6+A1"), ("k3max11", "D7"),
                        ("k3max11", "E7"), ("k3max11", "E8")]:
        for verdict in full_report(table, root):
            verdict.to_json_dict()
    monkeypatch.undo()
    assert len(forms) > 200
    calls = []

    def counted(owner, name):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **k: calls.append(name) or orig(*a, **k))

    counted(FiniteQuadraticForm, "subquotient")
    for module in (latticelab.fqf, latticelab.exactmat):
        counted(module, "smith_normal_form")
        counted(module, "integer_kernel")
    clear_jordan_caches()  # split every p-part again under the counters
    for form in forms:
        to_symbol(form)
        is_isomorphic(form, form)
        primary_lengths(form)
    for form in forms[:len(SMALL_SYMBOLS)]:
        automorphisms(form)
        embedding_images(form, form)
    assert calls == []


def test_gram_to_symbol_makes_no_fraction(monkeypatch):
    """From a prebuilt Gram lattice to its discriminant form, symbol and
    existence verdict, and from its isometries to their induced maps,
    every value is an integer: no Fraction is created on the way."""
    rng = random.Random(67)
    lattices = [named_lattice(name) for name in REGISTRY_NAMES]
    lattices += [random_even_lattice(rng) for _ in range(40)]
    identity = [[[int(i == j) for j in range(latt.rank)] for i in range(latt.rank)]
                for latt in lattices]
    cases = [(latt, [m, [[-x for x in row] for row in m]])
             for latt, m in zip(lattices, identity)]
    while len(cases) < len(lattices) + 30:
        a, c = 2 * rng.randint(1, 12), 2 * rng.randint(1, 12)
        b = rng.randint(-12, 12)
        if a * c > b * b:
            form = Rank2Form(a, b, c)
            cases.append((form.positive_lattice(), rank2_isometries(form)))
    clear_jordan_caches()
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for latt, isometries in cases:
        q = discriminant_form(latt)
        to_symbol(q)
        even_lattice_exists(LatticeInvariant(latt.n_plus, latt.n_minus, q))
        dg = discriminant_group(latt)
        for m in isometries:
            dg.induced_automorphism(m)
    monkeypatch.undo()
    assert made == []


def test_symbol_forms_make_no_fraction(monkeypatch):
    """Forms realizing genus symbols are built from integers: no Fraction
    is created by form_from_symbol on the small symbols, by loading both
    tables, or by the five table runs serialized with to_json_dict()."""
    symbols = [parse_symbol(t) for t in SMALL_SYMBOLS]
    clear_jordan_caches()
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for sym in symbols:
        form_from_symbol(sym)
    for table in ("hm15", "k3max11"):
        load_table(table)
    for table, root in [("hm15", "E6"), ("k3max11", "E6+A1"), ("k3max11", "D7"),
                        ("k3max11", "E7"), ("k3max11", "E8")]:
        for verdict in full_report(table, root):
            verdict.to_json_dict()
    monkeypatch.undo()
    assert made == []


def test_lattices_and_short_vectors_make_no_fraction(monkeypatch):
    """Building a lattice (its signature), listing short vectors and the
    isometries of rank-2 forms run on integers only: no Fraction is created
    for the registry lattices, a seeded corpus of definite lattices on
    skewed bases, and 30 random rank-2 forms of either sign."""
    rng = random.Random(71)
    grams = [named_lattice(name).gram_rows() for name in REGISTRY_NAMES]
    corpus = skewed_definite_corpus(73, 60, max_rank=8, max_box=10 ** 9)
    forms = []
    while len(forms) < 30:
        a, c = 2 * rng.randint(1, 12), 2 * rng.randint(1, 12)
        b = rng.randint(-12, 12)
        if a * c > b * b:
            forms.append(Rank2Form(a, b, c, negative=len(forms) % 2 == 1))
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for gram in grams:
        build_lattice(gram)
    vectors = sum(len(short_vectors(build_lattice(g), norm)) for g, norm in corpus)
    for form in forms:
        rank2_isometries(form)
    monkeypatch.undo()
    assert made == []
    assert vectors > 0


def _rebased(form, rng, steps=12):
    """The same form on another basis: random steps g_i += t*g_j (kept only
    when ord(t*g_j) divides ord(g_i)) and unit multiples, then a shuffle."""
    basis = form.gens()
    orders = list(form.orders)
    k = len(orders)
    for _ in range(steps):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            u = rng.randrange(1, orders[i] + 1)
            if gcd(u, orders[i]) == 1:
                basis[i] = form.scale(basis[i], u)
        else:
            t = rng.randrange(orders[j])
            if orders[i] % (orders[j] // gcd(t, orders[j])) == 0:
                basis[i] = form.add(basis[i], form.scale(basis[j], t))
    perm = list(range(k))
    rng.shuffle(perm)
    basis = [basis[p] for p in perm]
    return FiniteQuadraticForm([orders[p] for p in perm], [form.q(x) for x in basis],
                               [[form.b(x, y) for y in basis] for x in basis])


PRESENTATION_SYMBOLS = SMALL_SYMBOLS + [
    "2_II^-4", "4_II^-4", "2_II^-2 4_II^+2", "3^-1 9^+2", "5^-2 25^+1",
    "2_1^+1 4_7^+1 3^-2", "2_3^-1 4_7^+1 3^-1 5^+1", "2_7^+1 8_II^-2 3^-1",
    "2_II^-2 3^+2 5^+1", "3^+1 9^-2 5^-1", "4_5^-1 8_1^+1 3^+1"]


@pytest.mark.parametrize("text", PRESENTATION_SYMBOLS)
def test_symbol_does_not_depend_on_the_presentation(text):
    rng = random.Random(text)
    form = form_from_symbol_text(text)
    canon = to_symbol(form)
    tokens = text.split()
    for _ in range(8):
        rebased = _rebased(form, rng)
        assert to_symbol(rebased) == canon
        # invariant factor form of a redundant generating set: primes mix
        gens = rebased.gens() + [tuple(rng.randrange(d) for d in rebased.orders)]
        rng.shuffle(gens)
        assert to_symbol(rebased.subquotient(gens)[0]) == canon
        rng.shuffle(tokens)
        shuffled = direct_sum_forms(*(form_from_symbol_text(t) for t in tokens))
        assert to_symbol(shuffled) == canon


def _zero_diagonal_forms(count=40):
    """Odd p forms on (Z/p^k)^n whose basis elements all have q(e_i) of
    lower denominator than p^k, so every split step pivots on a sum
    e_i + e_j; about a third of them are degenerate."""
    rng = random.Random(17)
    forms = []
    for _ in range(count):
        p, k = rng.choice([(3, 1), (3, 2), (5, 1)])
        o = p ** k
        n = rng.randint(2, 4 if o == 3 else 3)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = p * rng.randrange(o // p)
            for j in range(i + 1, n):
                b[i][j] = b[j][i] = rng.randrange(o)
        # q(e_i) = 2*b_ii/(2o) lifted to an even numerator over o
        forms.append(FiniteQuadraticForm(
            [o] * n, [Fraction(b[i][i] * (o + 1) % (2 * o), o) for i in range(n)],
            [[Fraction(x, o) for x in row] for row in b]))
    return forms


def test_pair_pivots_match_bruteforce():
    degenerate = 0
    for form in _zero_diagonal_forms():
        gens = form.gens()
        radical = any(x != form.zero() and all(form.b(x, g) == 0 for g in gens)
                      for x in form.elements())
        if radical:
            degenerate += 1
            with pytest.raises(DegenerateError):
                to_symbol(form)
        else:
            assert bruteforce_isomorphic(form, form_from_symbol(to_symbol(form)))
    assert 0 < degenerate < 30


def test_cold_and_warm_caches_give_one_symbol(table_reports):
    """to_symbol with the Jordan caches emptied before each form equals
    to_symbol with them warm: on the small symbols, on every form of the
    five table runs (records, witness quotients and complements) and on
    discriminant forms of seeded random even lattices."""
    forms = [form_from_symbol_text(t) for t in SMALL_SYMBOLS]
    for verdicts in table_reports.values():
        for verdict in verdicts:
            forms += [verdict.record.q_K, verdict.record.q_S]
            for outcome in verdict.criterion.outcomes if verdict.criterion else ():
                forms += [outcome.witness.quotient, negate_form(outcome.witness.quotient)]
    rng = random.Random(2401)
    forms += [discriminant_form(random_even_lattice(rng)) for _ in range(40)]
    warm = [to_symbol(form) for form in forms]
    cold = []
    for form in forms:
        clear_jordan_caches()
        cold.append(to_symbol(form))
    assert cold == warm
    assert len({str(s) for s in warm}) > 50


def test_jordan_caches_hold_tuples():
    """The cache keys are tuples of integers and the cached splits and
    canonical forms are tuples of constituents, the same object on a hit."""
    from latticelab.symbol import (
        JordanConstituent,
        _canonical_two_adic,
        _split_primary,
    )
    form = form_from_symbol_text("2_3^-1 4_7^+1 8_II^+2 3^+2 5^+1")
    for p in form.primes():
        key = (p, *form._part(p)[1])
        assert all(type(x) in (int, tuple) for x in key) and hash(key)
        split = _split_primary(*key)
        assert type(split) is tuple and _split_primary(*key) is split
        assert all(type(c) is JordanConstituent for c in split)
        if p == 2:
            canon = _canonical_two_adic(split)
            assert type(canon) is tuple and _canonical_two_adic(split) is canon
            assert all(type(c) is JordanConstituent for c in canon)


def test_k3_pass_misses_each_distinct_key_once(monkeypatch):
    """One k3max11 pass over its four roots, from cold caches, splits each
    distinct p-primary input once and canonicalizes each distinct 2-adic
    constituent tuple once; every other call is a cache hit."""
    sym = latticelab.symbol
    clear_jordan_caches()
    keys = {"_split_primary": [], "_canonical_two_adic": []}
    for name, log in keys.items():
        real = getattr(sym, name)
        monkeypatch.setattr(sym, name,
                            lambda *key, real=real, log=log: log.append(key) or real(*key))
    for root in ("E6+A1", "D7", "E7", "E8"):
        for verdict in full_report("k3max11", root):
            verdict.to_json_dict()
    monkeypatch.undo()
    for name, log in keys.items():
        info = getattr(sym, name).cache_info()
        assert info.misses == len(set(log)) < len(log)
        assert info.hits + info.misses == len(log)


def reference_split_primary(p, level, orders, qs, gs):
    """Reference: _split_primary as written before its projections were in
    closed form, with the coefficients c = adj(M) (ord(x)*b(x_a, g))_a / det M
    and every projected entry summed over the pivots by a generator."""
    qs, gs = list(qs), list(gs)
    acc = {}
    while orders:
        xs, k, eps, unit = latticelab.symbol._pivot(p, level, orders, qs, gs)
        n0, eps0, t0 = acc.get(k, (0, 1, None))
        acc[k] = (n0 + len(xs), eps0 * eps,
                  t0 if unit is None else (t0 or 0) + unit)
        o = orders[xs[0]]
        s = level // o
        m = [[gs[a][b] // s for b in xs] for a in xs]
        if len(xs) == 1:
            adj, det = [[1]], m[0][0]
        else:
            adj = [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        inv = pow(det, -1, o)
        rest = [g for g in range(len(orders)) if g not in xs]
        cs = [[inv * sum(u * (gs[a][g] // s) for u, a in zip(row, xs)) % o
               for row in adj] for g in rest]
        new_qs = []
        for g, c in zip(rest, cs):
            z = sum(ca * ca * qs[a] - 2 * ca * gs[a][g] for ca, a in zip(c, xs))
            if len(xs) == 2:
                z += 2 * c[0] * c[1] * gs[xs[0]][xs[1]]
            new_qs.append((qs[g] + z) % (2 * level))
        gs = [[(gs[g][h] - sum(ca * gs[a][h] for ca, a in zip(c, xs))) % level
               for h in rest] for g, c in zip(rest, cs)]
        orders = [orders[g] for g in rest]
        qs = new_qs
    return tuple(JordanConstituent(p, k, n, eps, even=t is None,
                                   oddity=0 if t is None else t % 8)
                 for k, (n, eps, t) in sorted(acc.items()))


def _split_or_error(split, key):
    try:
        return split(*key)
    except DegenerateError as err:
        return f"DegenerateError: {err}"


def _random_p_key(rng, p):
    """A _split_primary key: rank 1 to 6, orders p to p^3 in any order, at
    the level of the largest; b values random multiples of their least
    denominator, the diagonal ones units, except in a third of the keys,
    of one order, where every diagonal b value is divisible by p (so odd p
    needs pair pivots, p = 2 u/v blocks), and another third with a zero
    row (degenerate)."""
    k, style = rng.randint(1, 6), rng.randrange(3)
    orders = [p ** rng.randint(1, 3) for _ in range(k)] if style != 1 else \
        [p ** rng.randint(1, 3)] * k
    level = max(orders)
    gs = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            o = min(orders[i], orders[j])
            r = rng.randrange(o)
            if i == j:  # a unit, or for style 1 a multiple of p
                r = r * p % o if style == 1 else r - r % p + 1
            gs[i][j] = gs[j][i] = r * (level // o)
    if style == 2:
        zero = rng.randrange(k)
        for i in range(k):
            gs[i][zero] = gs[zero][i] = 0
    # q = b(e, e) + 0 or 1, even over the odd level for odd p
    qs = [(g[i] + level * (g[i] % 2 if p != 2 else rng.randrange(2))) % (2 * level)
          for i, g in enumerate(gs)]
    return p, level, tuple(orders), tuple(qs), tuple(map(tuple, gs))


def test_closed_form_split_matches_reference(monkeypatch):
    """The closed-form projections give the reference's constituents, or
    the same DegenerateError, on every key of the five table runs and on
    3,000 seeded p-group keys (p = 2, 3, 5, 7, rank <= 6), which take odd
    pair pivots, 2-adic u/v blocks and degenerate forms."""
    sym = latticelab.symbol
    table_keys = set()
    real = sym._split_primary
    monkeypatch.setattr(sym, "_split_primary",
                        lambda *key: table_keys.add(key) or real(*key))
    for table, root in [("hm15", "E6"), ("k3max11", "E6+A1"), ("k3max11", "D7"),
                        ("k3max11", "E7"), ("k3max11", "E8")]:
        for verdict in full_report(table, root):
            verdict.to_json_dict()
    rng = random.Random(3001)
    keys = sorted(table_keys) + [_random_p_key(rng, rng.choice((2, 3, 5, 7)))
                                 for _ in range(3000)]
    kinds = {}
    real_pivot = sym._pivot

    def pivot(p, level, orders, qs, gs):
        before = list(qs)
        out = real_pivot(p, level, orders, qs, gs)
        kind = (p == 2, len(out[0]), qs != before)
        kinds[kind] = kinds.get(kind, 0) + 1
        return out

    monkeypatch.setattr(sym, "_pivot", pivot)
    expected = [_split_or_error(reference_split_primary, key) for key in keys]
    assert [_split_or_error(real.__wrapped__, key) for key in keys] == expected
    assert len(table_keys) > 100
    assert kinds[False, 1, True] > 100 and kinds[True, 2, False] > 100
    assert 500 < sum(type(e) is str for e in expected) < 2000


def test_oddities_table_matches_the_scan():
    """_oddities(eps, n) is the range(8) scan of realizable_pairs(n)."""
    from latticelab.symbol import _oddities
    for n in range(9):
        for eps in (1, -1):
            assert _oddities(eps, n) == tuple(
                t for t in range(8) if (eps, t) in realizable_pairs(n))


# -- the canonical 2-adic symbol against its definition ----------------------


@functools.lru_cache(maxsize=None)
def _least_split(units, total):
    """The least oddities (t_1, t_2, ...), compared in order, with each
    (eps_i, t_i) realizable by n_i odd units and the sum total mod 8, for
    units = ((n_i, eps_i), ...); None if there are none."""
    options = [[t for t in range(8) if (eps, t) in realizable_pairs(n)] for n, eps in units]
    sums = [{0}]  # sums mod 8 that the options from each position on can make
    for ts in reversed(options):
        sums.insert(0, {(t + u) % 8 for t in ts for u in sums[0]})
    if total % 8 not in sums[0]:
        return None
    split = []
    for ts, rest in zip(options, sums[1:]):
        split.append(min(t for t in ts if (total - t) % 8 in rest))
        total -= split[-1]
    return split


def orbit_minimum(constituents):
    """The least rendering of 2-adic constituents in scale order over every
    set of moves, written from the move rules alone; None if no set gives a
    realizable one.  Compartments are the runs of odd constituents at
    adjacent scales.  A walk between neighbours at distance 1 (not both
    even) or 2 (both odd), and the scale-2 move on an odd scale 2, flip the
    signs they touch and add 4 to each compartment they touch; a
    compartment takes its least realizable oddity split, and renderings are
    compared by (sign, oddity) scale by scale."""
    cons = list(constituents)
    runs, comp = [], []  # the compartments, and each constituent's (None if even)
    for i, c in enumerate(cons):
        if c.even:
            comp.append(None)
        elif i and comp[i - 1] is not None and cons[i - 1].k + 1 == c.k:
            comp.append(comp[i - 1])
            runs[-1].append(i)
        else:
            comp.append(len(runs))
            runs.append([i])
    moves = [({i, i + 1}, {comp[i], comp[i + 1]} - {None})
             for i, (a, b) in enumerate(zip(cons, cons[1:]))
             if b.k - a.k == 1 and not (a.even and b.even)
             or b.k - a.k == 2 and not (a.even or b.even)]
    if cons and cons[0].k == 1 and not cons[0].even:
        moves.append(({0}, {comp[0]}))
    signs = [c.eps for c in cons]
    sums = [sum(cons[i].oddity for i in run) for run in runs]
    best = None
    for chosen in itertools.product((False, True), repeat=len(moves)):
        eps, totals = signs[:], sums[:]
        for flips, bumps in itertools.compress(moves, chosen):
            for i in flips:
                eps[i] = -eps[i]
            for r in bumps:
                totals[r] += 4
        oddity = [0] * len(cons)
        for run, total in zip(runs, totals):
            split = _least_split(tuple([(cons[i].n, eps[i]) for i in run]), total % 8)
            if split is None:
                break
            for i, t in zip(run, split):
                oddity[i] = t
        else:
            key = [(e < 0, t) for e, t in zip(eps, oddity)]
            if best is None or key < best[0]:
                best = key, eps, oddity
    if best is None:
        return None
    return tuple(JordanConstituent(2, c.k, c.n, e, even=c.even, oddity=t)
                 for c, e, t in zip(cons, best[1], best[2]))


def _canonical_or_none(constituents):
    try:
        return _canonical_two_adic.__wrapped__(constituents)
    except RealizabilityError:
        return None


def _random_two_adic(rng):
    """Up to 10 constituents at scales 2 to 2^16 of rank 1 to 4, odd or even
    type, with a realizable (sign, oddity) 19 times in 20."""
    out = []
    for k in sorted(rng.sample(range(1, 17), rng.randint(1, 10))):
        n = rng.randint(1, 4)
        if n % 2 == 0 and rng.random() < 0.3:
            out.append(JordanConstituent(2, k, n, rng.choice((1, -1))))
        else:
            eps, t = (rng.choice(sorted(realizable_pairs(n))) if rng.random() < 0.95
                      else (rng.choice((1, -1)), rng.randrange(8)))
            out.append(JordanConstituent(2, k, n, eps, even=False, oddity=t))
    return tuple(out)


def test_canonical_two_adic_is_the_orbit_minimum_on_seeded_tuples():
    """The one pass up the scales finds the least rendering over every set
    of moves, and raises exactly when no set of moves is realizable."""
    rng = random.Random(2801)
    cases = [_random_two_adic(rng) for _ in range(2000)]
    expected = [orbit_minimum(c) for c in cases]
    assert [_canonical_or_none(c) for c in cases] == expected
    assert expected.count(None) > 20


def test_canonical_two_adic_is_the_orbit_minimum_on_the_table_runs(monkeypatch):
    """Every 2-adic constituent tuple that the five table runs canonicalize."""
    sym = latticelab.symbol
    clear_jordan_caches()
    inputs = set()
    real = sym._canonical_two_adic
    monkeypatch.setattr(sym, "_canonical_two_adic",
                        lambda cons: inputs.add(cons) or real(cons))
    for table, root in [("hm15", "E6"), ("k3max11", "E6+A1"), ("k3max11", "D7"),
                        ("k3max11", "E7"), ("k3max11", "E8")]:
        for verdict in full_report(table, root):
            verdict.to_json_dict()
    monkeypatch.undo()
    assert len(inputs) > 50
    assert all(real.__wrapped__(cons) == orbit_minimum(cons) for cons in inputs)


@pytest.mark.parametrize("length", [24, 64])
def test_long_odd_trains_end(length):
    """An odd train 2_1^+1 4_1^+1 ... 2^n_1^+1 has n moves (n - 1 walks and
    the scale-2 move), so an orbit of 2^n sets; the CLI canonicalizes it and
    prints one line well inside the timeout."""
    text = " ".join(f"{2 ** k}_1^+1" for k in range(1, length + 1))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-m", "latticelab.cli", "dform", "symbol",
                           "--form", text], env=env, capture_output=True, text=True,
                          timeout=30)
    assert done.returncode == 0 and done.stderr == ""
    assert len(done.stdout.splitlines()) == 1 and done.stdout.startswith("canonical: 2_")
