import itertools
import random
from fractions import Fraction

import pytest

from latticelab import (
    build_lattice,
    bruteforce_isomorphic,
    complement_quotient,
    direct_sum,
    direct_sum_forms,
    discriminant_form,
    discriminant_group,
    isotropic_subgroups,
    named_lattice,
    negate_form,
    primary_lengths,
    rescale,
    trivial_form,
)
from latticelab.errors import CapExceededError, NotIsotropicError, OddLatticeError
from latticelab.fqf import BRUTE_CAP, FiniteQuadraticForm, Subgroup, automorphisms


def random_even_lattice(rng, max_rank=5, bound=3, max_det=400):
    while True:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-bound, bound)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        try:
            latt = build_lattice(g)
        except Exception:
            continue
        if 0 < abs(latt.det) <= max_det:
            return latt


def test_discriminant_group_order_is_det():
    rng = random.Random(31)
    for _ in range(40):
        latt = random_even_lattice(rng)
        q = discriminant_form(latt)
        assert q.order == abs(latt.det)


REGISTRY_NAMES = ["A1", "A2", "A3", "A6", "D4", "D5", "D7", "E6", "E7", "E8", "U",
                  "II(10,2)", "II(26,2)", "Borcherds", "Lambda0", "Lambda2", "Lambda6"]


def test_dual_generators_match_rational_inverse():
    """dual_gens, read off the Smith transform v, are G^-1 u^-1 e_i."""
    from latticelab.exactmat import mat_vec, rational_inverse
    rng = random.Random(57)
    lattices = [named_lattice(name) for name in REGISTRY_NAMES]
    lattices += [rescale(named_lattice("A2"), 3), rescale(named_lattice("D4"), 2)]
    lattices += [random_even_lattice(rng) for _ in range(40)]
    for latt in lattices:
        dg = discriminant_group(latt)
        ginv = rational_inverse(latt.gram_rows())
        uinv = rational_inverse(dg.u)
        expect = [mat_vec(ginv, [row[i] for row in uinv])
                  for i, d in enumerate(dg.d) if d != 1]
        assert dg.dual_gens == expect, latt.gram_rows()
        assert list(dg.orders) == [d for d in dg.d if d != 1]


def test_discriminant_form_requires_even():
    with pytest.raises(OddLatticeError):
        discriminant_form(build_lattice([[1]]))


def test_named_discriminant_forms():
    assert discriminant_form(named_lattice("E8")).is_trivial
    q_e7 = discriminant_form(named_lattice("E7"))
    assert q_e7.order == 2
    assert q_e7.q((1,)) == Fraction(3, 2)
    q_a2 = discriminant_form(named_lattice("A2"))
    assert sorted(q_a2.q(x) for x in q_a2.elements()) == \
        [0, Fraction(2, 3), Fraction(2, 3)]


def test_direct_sum_and_negation():
    q1 = discriminant_form(named_lattice("A2"))
    q2 = discriminant_form(named_lattice("E6"))
    s = direct_sum_forms(q1, q2)
    assert s.order == 9
    assert bruteforce_isomorphic(q2, negate_form(q1))
    assert bruteforce_isomorphic(negate_form(negate_form(s)), s)
    assert direct_sum_forms(q1, trivial_form()).order == 3


def test_q_and_b_consistency():
    rng = random.Random(32)
    for _ in range(15):
        latt = random_even_lattice(rng, max_rank=4, max_det=60)
        q = discriminant_form(latt)
        els = list(q.elements())
        for _ in range(20):
            x = els[rng.randrange(len(els))]
            y = els[rng.randrange(len(els))]
            lhs = q.q(q.add(x, y)) - q.q(x) - q.q(y)
            assert (lhs / 2 - q.b(x, y)) % 1 == 0


def test_primary_lengths_examples():
    q = discriminant_form(rescale(named_lattice("A2"), 3))  # 3^+1 9^+1 family
    assert primary_lengths(q) == {3: 2}
    q2 = discriminant_form(direct_sum(named_lattice("E6"), named_lattice("A1")))
    assert primary_lengths(q2) == {2: 1, 3: 1}
    assert primary_lengths(trivial_form()) == {}


def test_invariant_factors():
    latt = build_lattice([[12, 0], [0, 30]])
    q = discriminant_form(latt)
    assert q.invariant_factors == (6, 60)


def test_subquotient_group_structure():
    q = FiniteQuadraticForm([2, 4], [Fraction(1, 2), Fraction(1, 4)])
    sub, lifts = q.subquotient([(0, 2)])
    assert sub.orders == (2,)
    assert sub.q((1,)) == 1  # (0,2) has q = 4*(1/4) = 1


def test_isotropic_subgroups_glue_example():
    # q_{A2} + q_{E6}: two nontrivial isotropic subgroups, trivial quotients
    q = direct_sum_forms(discriminant_form(named_lattice("A2")),
                         discriminant_form(named_lattice("E6")))
    subs = isotropic_subgroups(q)
    assert subs[0].order == 1
    nontrivial = [s for s in subs if s.order > 1]
    assert len(nontrivial) == 2
    for s in nontrivial:
        assert s.order == 3
        assert complement_quotient(q, s).is_trivial


def test_isotropic_subgroups_trivial_form():
    subs = isotropic_subgroups(trivial_form())
    assert len(subs) == 1 and subs[0].order == 1


def _closure(q, els):
    """The subgroup generated by els, by plain addition until nothing is new."""
    out = set(els) | {q.zero()}
    while True:
        new = {tuple((a + b) % d for a, b, d in zip(x, y, q.orders))
               for x in out for y in out} - out
        if not new:
            return frozenset(out)
        out |= new


def _brute_isotropic_subgroups(q):
    """Every isotropic subgroup, found without fqf's subgroup closure.

    A subgroup of Z/d_1 x ... x Z/d_k needs at most k generators, so
    closing every set of at most ngens isotropic elements under plain
    addition reaches each isotropic subgroup; keep the closures on which
    q vanishes.
    """
    iso = [x for x in q.elements() if q.q(x) == 0]
    found = set()
    for k in range(q.ngens + 1):
        for combo in itertools.combinations(iso, k):
            h = _closure(q, combo)
            if all(q.q(x) == 0 for x in h):
                found.add(h)
    return found


# small forms (|A| <= 32) for the brute-force oracles below
SMALL_SYMBOLS = [
    "3^-2", "5^+2", "3^+3", "3^-1 9^+1", "2_II^+2 3^+1", "2_II^+2 7^+1",
    "2_II^+4", "2_0^+4", "4_II^+2", "2_1^+1 4_II^+2", "2_II^+2 8_1^+1",
    "4_7^+1 8_1^+1",
]


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_isotropic_subgroups_match_brute_force(text):
    from latticelab import form_from_symbol_text
    q = form_from_symbol_text(text)
    assert q.order <= 32
    subs = isotropic_subgroups(q)
    assert {s.elements for s in subs} == _brute_isotropic_subgroups(q)
    assert len(subs) == len({s.elements for s in subs})
    for s in subs:
        assert Subgroup(q, s.gens) == s


def _fraction_evaluators(q):
    """q and b evaluated term by term in Fraction from to_json_dict() data."""
    data = q.to_json_dict()
    qv = [Fraction(g["q"]) for g in data["gens"]]
    bm = [[Fraction(x) for x in row] for row in data["b"]]
    k = len(qv)

    def q_frac(x):
        total = sum(x[i] * x[i] * qv[i] for i in range(k))
        total += sum(2 * x[i] * x[j] * bm[i][j]
                     for i in range(k) for j in range(i + 1, k))
        return total % 2

    def b_frac(x, y):
        return sum(x[i] * y[j] * bm[i][j] for i in range(k) for j in range(k)) % 1

    return q_frac, b_frac


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_q_and_b_match_fraction_evaluation(text):
    from latticelab import form_from_symbol_text
    q = form_from_symbol_text(text)
    q_frac, b_frac = _fraction_evaluators(q)
    els = list(q.elements())
    for x in els:
        assert q.q(x) == q_frac(x)
        for y in els:
            assert q.b(x, y) == b_frac(x, y)


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_complement_quotient_matches_perp_scan(text):
    """H-perp by kernel against H-perp by scanning every element of A."""
    from latticelab import form_from_symbol_text
    q = form_from_symbol_text(text)
    _, b_frac = _fraction_evaluators(q)
    for sub in isotropic_subgroups(q):
        quot = complement_quotient(q, sub)
        perp = [x for x in q.elements() if all(b_frac(x, g) == 0 for g in sub.gens)]
        ref, _ = q.subquotient(perp, sub.gens)
        assert quot.order * sub.order ** 2 == q.order
        assert len(perp) == quot.order * sub.order
        assert bruteforce_isomorphic(quot, ref)


def test_level_is_common_denominator():
    q = FiniteQuadraticForm([2, 4], [Fraction(5, 2), Fraction(-7, 4)])
    assert q.level == 4
    assert (q.q((1, 0)), q.q((0, 1))) == (Fraction(1, 2), Fraction(1, 4))
    assert q.to_json_dict()["gens"][1]["q"] == "1/4"
    sub, _ = q.subquotient([(0, 2)])
    assert sub.level == 1 and sub.q((1,)) == 1
    assert direct_sum_forms(q, discriminant_form(named_lattice("A2"))).level == 12
    assert negate_form(q).q((0, 1)) == Fraction(7, 4)


def test_brute_force_cap_guards():
    from latticelab import form_from_symbol_text
    q = form_from_symbol_text("2_1^+13")
    assert q.order > BRUTE_CAP
    with pytest.raises(CapExceededError):
        isotropic_subgroups(q)
    with pytest.raises(CapExceededError):
        complement_quotient(q, Subgroup(q, []))
    with pytest.raises(CapExceededError):
        automorphisms(q)
    with pytest.raises(CapExceededError):
        bruteforce_isomorphic(q, q)


def test_complement_quotient_order_law():
    rng = random.Random(33)
    for _ in range(10):
        latt = random_even_lattice(rng, max_rank=4, max_det=64)
        q = discriminant_form(latt)
        for sub in isotropic_subgroups(q):
            quot = complement_quotient(q, sub)
            assert quot.order * sub.order ** 2 == q.order


def test_complement_quotient_rejects_non_isotropic():
    q = discriminant_form(named_lattice("A1"))
    bad = Subgroup(q, [(1,)])
    with pytest.raises(NotIsotropicError):
        complement_quotient(q, bad)


def test_bruteforce_isomorphic_basics():
    q_a1 = discriminant_form(named_lattice("A1"))
    q_e7 = discriminant_form(named_lattice("E7"))
    assert not bruteforce_isomorphic(q_a1, q_e7)
    assert bruteforce_isomorphic(q_a1, q_a1)
    # different groups of the same order
    f1 = FiniteQuadraticForm([4], [Fraction(1, 4)])
    f2 = FiniteQuadraticForm([2, 2], [Fraction(1, 2), Fraction(1, 2)])
    assert not bruteforce_isomorphic(f1, f2)


def test_automorphisms_form_a_group():
    q = discriminant_form(build_lattice([[12, 0], [0, 30]]))
    norm, _ = q.normalized()
    auts = automorphisms(norm)
    assert tuple(norm.gens()) in auts  # identity
    # closure under composition
    from latticelab.fqf import apply_gen_map
    for m1 in auts[:6]:
        for m2 in auts[:6]:
            composed = tuple(apply_gen_map(norm, m1, img) for img in m2)
            assert composed in auts


def test_induced_automorphism_transport():
    latt = build_lattice([[6, 3], [3, 6]])
    dg = discriminant_group(latt)
    ident = dg.induced_automorphism([[1, 0], [0, 1]])
    assert ident == tuple(dg.form.gens())
    swap = dg.induced_automorphism([[0, 1], [1, 0]])
    q = dg.form
    for gen, img in zip(q.gens(), swap):
        assert q.q(gen) == q.q(img)


def test_form_json_round_trip():
    q = discriminant_form(build_lattice([[12, 0], [0, 30]]))
    blob = q.to_json_dict()
    assert blob["gens"][0]["order"] == 6
    back = FiniteQuadraticForm.from_json_dict(blob)
    assert bruteforce_isomorphic(q, back)


def test_direct_sum_order_arithmetic():
    from latticelab import form_from_symbol_text
    q1 = form_from_symbol_text("2_II^-2 3^-1 7^-1")
    q2 = form_from_symbol_text("3^+1")
    assert direct_sum_forms(q1, q2).order == 4 * 9 * 7


def test_primary_lengths_subadditive():
    rng = random.Random(35)
    for _ in range(10):
        l1 = random_even_lattice(rng, max_rank=3, max_det=60)
        l2 = random_even_lattice(rng, max_rank=3, max_det=60)
        q1 = discriminant_form(l1)
        q2 = discriminant_form(l2)
        s = primary_lengths(direct_sum_forms(q1, q2))
        p1 = primary_lengths(q1)
        p2 = primary_lengths(q2)
        for p, l in s.items():
            assert l <= p1.get(p, 0) + p2.get(p, 0)


def test_primary_lengths_symbol_examples():
    from latticelab import form_from_symbol_text
    assert primary_lengths(form_from_symbol_text("3^+2 9^+1")) == {3: 3}
    assert primary_lengths(form_from_symbol_text("2_3^-1 4_7^+1 3^-1 5^+1")) \
        == {2: 2, 3: 1, 5: 1}


def test_is_isomorphic_with_trivial_summand():
    from latticelab import form_from_symbol_text, is_isomorphic
    q = form_from_symbol_text("3^+2 9^+1")
    assert is_isomorphic(q, direct_sum_forms(q, trivial_form()))


def test_embeddings_of_form_into_itself():
    from latticelab import form_embeddings_mod_aut, form_from_symbol_text
    q = form_from_symbol_text("3^-1 9^-1")
    norm, _ = q.normalized()
    count, _ = form_embeddings_mod_aut(norm, norm, automorphisms(norm))
    assert count == 1


def test_embeddings_across_levels():
    """A level-2 form into a level-24 one: two orbits of images.

    The reference lists the order-2 subgroups {0, h} with q(h) = 1/2 by a
    Fraction scan and joins those that an automorphism of the big form
    maps onto each other.
    """
    from latticelab import form_embeddings_mod_aut, form_from_symbol_text
    from latticelab.fqf import apply_gen_map
    small = form_from_symbol_text("2_1^+1")
    big, _ = form_from_symbol_text("2_1^+1 8_1^+1 3^+1").normalized()
    assert small.level != big.level
    auts = automorphisms(big)
    count, reps = form_embeddings_mod_aut(small, big, auts)
    q_frac, _ = _fraction_evaluators(big)
    zero = big.zero()
    images = [x for x in big.elements()
              if big.element_order(x) == 2 and q_frac(x) == Fraction(1, 2)]
    orbits = {frozenset(apply_gen_map(big, m, x) for m in auts) for x in images}
    assert count == len(orbits) == 2
    assert sorted(reps, key=sorted) == sorted(
        (frozenset({zero, min(orbit)}) for orbit in orbits), key=sorted)


def test_embeddings_across_levels_offdiagonal():
    """2_II^+2 (level 2, b = 1/2 between its generators) into
    2_II^+2 3^+1 (level 6): the 2-Sylow subgroup is the only image."""
    from latticelab import form_embeddings_mod_aut, form_from_symbol_text
    small, _ = form_from_symbol_text("2_II^+2").normalized()
    big, _ = form_from_symbol_text("2_II^+2 3^+1").normalized()
    assert (small.level, big.level) == (2, 6)
    count, reps = form_embeddings_mod_aut(small, big, automorphisms(big))
    assert count == 1
    assert reps == [frozenset(x for x in big.elements() if big.element_order(x) <= 2)]


# -- generator-image search and embedding orbits against references ------------

# forms whose bilinear form has a nontrivial radical: a q- and b-preserving
# map of generators can send a nonzero radical element to 0
DEGENERATE_FORMS = [
    FiniteQuadraticForm([2, 2], [0, Fraction(1, 2)]),
    FiniteQuadraticForm([2, 2], [0, 0]),
    FiniteQuadraticForm([3, 3], [0, Fraction(2, 3)]),
    FiniteQuadraticForm([2, 4], [0, Fraction(1, 4)]),
    FiniteQuadraticForm([2, 2, 2], [0, 0, 0],
                        [[0, Fraction(1, 2), 0], [Fraction(1, 2), 0, 0], [0, 0, 0]]),
]
DEGENERATE_IDS = [f"degenerate{i}" for i in range(len(DEGENERATE_FORMS))]


def _closure_search(f1, f2, onto):
    """q- and b-preserving generator-image maps of f1 (invariant factor
    form) into f2, kept when the closure of the images has |f1| elements
    (|f2| with onto).  Returns image tuples with onto, image subgroups
    without."""
    cands = [[y for y in f2.elements()
              if f2.element_order(y) == d and f2.q(y) == f1.q(e)]
             for d, e in zip(f1.orders, f1.gens())]
    gens = f1.gens()
    out = []
    for images in itertools.product(*cands):
        if any(f2.b(images[i], images[j]) != f1.b(gens[i], gens[j])
               for i, j in itertools.combinations(range(len(gens)), 2)):
            continue
        img = _closure(f2, images)
        if len(img) == (f2.order if onto else f1.order):
            out.append(images if onto else img)
    return out


def _search_cases():
    from latticelab import form_from_symbol_text
    forms = [form_from_symbol_text(t).normalized()[0] for t in SMALL_SYMBOLS]
    return forms + DEGENERATE_FORMS


@pytest.mark.parametrize("form", _search_cases(), ids=SMALL_SYMBOLS + DEGENERATE_IDS)
def test_automorphisms_match_closure_search(form):
    from latticelab.fqf import _gen_images_search
    assert form.normalized()[0].orders == form.orders
    assert automorphisms(form) == _closure_search(form, form, onto=True)
    for other in _search_cases():
        isometries = _closure_search(form, other, onto=True)
        assert _gen_images_search(form, other, find_all=True,
                                  require_onto=True) == isometries
        assert bruteforce_isomorphic(form, other) == bool(isometries)


@pytest.mark.parametrize("small", DEGENERATE_FORMS, ids=DEGENERATE_IDS)
def test_degenerate_embedding_images_are_injective(small):
    from latticelab import embedding_images
    big = direct_sum_forms(small, FiniteQuadraticForm([2], [0]))
    assert set(embedding_images(small, big)) == \
        set(_closure_search(small, big, onto=False))


def _elementwise_orbits(small, big, maps):
    """Images of small in big joined under the maps, element by element.

    Maps every element of every image under every map and joins the two
    images by union-find with min-index roots; returns (count, reps).
    """
    from latticelab import embedding_images
    from latticelab.fqf import apply_gen_map
    images = embedding_images(small, big)
    index = {img: i for i, img in enumerate(images)}
    parent = list(range(len(images)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for img in images:
        for mp in maps:
            target = frozenset(apply_gen_map(big, mp, x) for x in img)
            ri, rj = find(index[img]), find(index[target])
            parent[max(ri, rj)] = min(ri, rj)
    reps = sorted({find(i) for i in range(len(images))})
    return len(reps), [images[i] for i in reps]


# SMALL_SYMBOLS entry -> a summand g, so that the entry embeds into entry + g,
# mostly in several ways
EMBEDDING_SUMMANDS = {
    "3^-2": "3^+1", "5^+2": "2_1^+1", "3^+3": "2_1^+1", "3^-1 9^+1": "3^+1",
    "2_II^+2 3^+1": "3^+1", "2_II^+2 7^+1": "7^+1", "2_II^+4": "2_1^+1",
    "2_0^+4": "2_1^+1", "4_II^+2": "2_1^+1", "2_1^+1 4_II^+2": "2_3^-1",
    "2_II^+2 8_1^+1": "2_1^+1", "4_7^+1 8_1^+1": "2_1^+1",
}


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_embedding_orbits_match_elementwise(text):
    """Full Aut(big), and lists of one or two non-identity maps, which are
    no group: the classes are the components the maps draw."""
    from latticelab import form_embeddings_mod_aut, form_from_symbol_text
    small = form_from_symbol_text(text)
    big, _ = direct_sum_forms(
        small, form_from_symbol_text(EMBEDDING_SUMMANDS[text])).normalized()
    auts = automorphisms(big)
    moving = [m for m in auts if m != tuple(big.gens())]
    for maps in (auts, moving[:1], moving[-2:], []):
        assert form_embeddings_mod_aut(small, big, maps) == \
            _elementwise_orbits(small, big, maps)


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_embedding_images_closed_once(monkeypatch, text):
    """Every image is closed once, and the images are those of the
    closure search over all generator-image maps."""
    import latticelab.fqf
    from latticelab import embedding_images, form_from_symbol_text
    small = form_from_symbol_text(text)
    big, _ = direct_sum_forms(
        small, form_from_symbol_text(EMBEDDING_SUMMANDS[text])).normalized()
    real = latticelab.fqf._span
    spans = []
    monkeypatch.setattr(latticelab.fqf, "_span",
                        lambda form, gens: spans.append(gens) or real(form, gens))
    images = embedding_images(small, big)
    assert len(spans) == len(images)
    assert set(images) == set(_closure_search(small.normalized()[0], big, onto=False))
