import itertools
import random
from fractions import Fraction

import pytest

from latticelab import (
    build_lattice,
    bruteforce_isomorphic,
    direct_sum,
    direct_sum_forms,
    discriminant_form,
    form_from_symbol_text,
    gauss_sum_signature,
    is_isomorphic,
    named_lattice,
    negate_form,
    parse_symbol,
    rescale,
    signature_mod8,
    to_symbol,
)
from latticelab.errors import RealizabilityError, SymbolSyntaxError
from latticelab.fqf import FiniteQuadraticForm
from latticelab.symbol import _uv_form


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
        if f1.invariant_factors != f2.invariant_factors:
            continue
        if is_isomorphic(f1, f2) != bruteforce_isomorphic(f1, f2):
            mismatches.append((str(to_symbol(f1)), str(to_symbol(f2))))
    assert not mismatches


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
