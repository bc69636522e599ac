import functools
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, prod

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
from latticelab.errors import (
    CapExceededError,
    DegenerateError,
    NotIsotropicError,
    OddLatticeError,
)
from latticelab.exactmat import integer_kernel, smith_normal_form, transpose
from latticelab.fqf import (
    BRUTE_CAP,
    FiniteQuadraticForm,
    Subgroup,
    _extend,
    _minimal_generators,
    _span,
    automorphisms,
)
from latticelab.symbol import to_symbol
from test_exactmat import reference_smith_normal_form


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
    """The integer numerators cols[i] = v e_i over d_i are G^-1 u^-1 e_i, and
    the form's q and b values are w_i^T G w_j of these dual vectors.  The
    group keeps no u: u is the reference kernel's, whose pivots are the
    same, so it belongs to the same (d, v)."""
    from latticelab.exactmat import mat_vec
    from test_exactmat import rational_inverse
    rng = random.Random(57)
    lattices = [named_lattice(name) for name in REGISTRY_NAMES]
    lattices += [rescale(named_lattice("A2"), 3), rescale(named_lattice("D4"), 2)]
    lattices += [random_even_lattice(rng) for _ in range(40)]
    for latt in lattices:
        dg = discriminant_group(latt)
        gram = latt.gram_rows()
        ginv = rational_inverse(gram)
        d, u, v = reference_smith_normal_form(gram)
        assert smith_normal_form(gram) == (d, v) and dg.d == d
        uinv = rational_inverse(u)
        expect = [mat_vec(ginv, [row[i] for row in uinv])
                  for i, d in enumerate(dg.d) if d != 1]
        assert list(dg.orders) == [d for d in dg.d if d != 1]
        dual = [[Fraction(c, d) for c in col] for col, d in zip(dg.cols, dg.orders)]
        assert dual == expect, gram
        q = dg.form
        gens = q.gens()
        for i, wi in enumerate(dual):
            gw = mat_vec(gram, wi)
            assert q.q(gens[i]) == sum(a * b for a, b in zip(gw, wi)) % 2, gram
            for j, wj in enumerate(dual):
                assert q.b(gens[i], gens[j]) == sum(a * b for a, b in zip(gw, wj)) % 1


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


def _random_cyclic_sum(rng):
    """A form from the Fraction constructor on up to three generators of
    orders with coprime and composite factors, zero values included."""
    orders = [rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.2:
        return FiniteQuadraticForm(orders, [0] * len(orders))
    qs = [Fraction(rng.randrange(2 * d) if d % 2 == 0 else 2 * rng.randrange(d), d)
          for d in orders]
    b = [[Fraction(rng.randrange(gcd(d, e)), gcd(d, e)) for e in orders] for d in orders]
    b = [[b[min(i, j)][max(i, j)] for j in range(len(orders))] for i in range(len(orders))]
    return FiniteQuadraticForm(orders, qs, b)


def test_direct_sums_are_one_join_with_the_fraction_constructors_integers():
    """direct_sum_forms of k forms, the pairwise fold of direct_sum and the
    Fraction constructor on the block-diagonal values give the same
    integers, on levels that do not divide each other, orders such as
    Z/6 and Z/12, and zero and trivial summands."""
    def data(f):
        return f.orders, f.level, f.qints, f.bints

    rng = random.Random(39)
    assert data(direct_sum_forms()) == data(trivial_form()) == ((), 1, (), ())
    levels = set()
    for _ in range(300):
        forms = [_random_cyclic_sum(rng) for _ in range(rng.randint(1, 4))]
        orders = [d for f in forms for d in f.orders]
        qs = [f.q(x) for f in forms for x in f.gens()]
        b = [[Fraction(0)] * len(orders) for _ in orders]
        at = 0
        for f in forms:
            for i, x in enumerate(f.gens()):
                for j, y in enumerate(f.gens()):
                    b[at + i][at + j] = f.b(x, y)
            at += f.ngens
        want = data(FiniteQuadraticForm(orders, qs, b))
        assert data(direct_sum_forms(*forms)) == want
        assert data(functools.reduce(FiniteQuadraticForm.direct_sum, forms)) == want
        levels.add(tuple(f.level for f in forms))
    assert any(len(ls) > 1 and all(a % b and b % a for a, b in itertools.combinations(ls, 2))
               for ls in levels)


def test_subgroups_and_cyclotomic_ints_refuse_other_types():
    """Equality against another type is NotImplemented, so comparing with
    a number or looking up in a list holding None answers instead of
    raising."""
    from latticelab import form_from_symbol_text
    from latticelab.cyclotomic import CyclotomicInt
    sub = isotropic_subgroups(form_from_symbol_text("2_II^+2 3^-2"))[1]
    assert sub != 5 and not sub == None  # noqa: E711
    assert sub in [None, sub] and [None, sub].index(sub) == 1
    z = CyclotomicInt.integer(8, 3)
    assert z != 3 and not z == None  # noqa: E711
    assert z in [None, z] and [None, 3, z].index(z) == 2


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


def test_primary_lengths_match_symbol_ranks():
    """The p-length counts the orders divisible by p in any presentation,
    and equals the sum of the constituent ranks at p of the genus symbol."""
    from latticelab import form_from_symbol_text, to_symbol
    q = discriminant_form(build_lattice([[12, 0], [0, 30]]))
    assert q.orders == (6, 60)
    assert primary_lengths(q) == {2: 2, 3: 2, 5: 1}
    rng = random.Random(36)
    forms = [discriminant_form(random_even_lattice(rng)) for _ in range(30)]
    # presentations that are not in invariant factor form: (2, 2, 3) for
    # 2_II^+2 3^+1, and sums such as (6, 60) + (2, 4)
    forms += [direct_sum_forms(forms[i], forms[i + 1]) for i in range(0, 30, 2)]
    forms += [form_from_symbol_text(t) for t in SMALL_SYMBOLS]
    for q in forms:
        ranks = {p: sum(c.n for c in cs) for p, cs in to_symbol(q).per_prime().items()}
        assert primary_lengths(q) == ranks, q


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


@pytest.mark.parametrize("text", SMALL_SYMBOLS + ["2_II^+6"])
def test_isotropic_subgroups_span_generating_tuples(monkeypatch, text):
    """No subgroup is spanned again: each is the element set that
    _subgroups_within closed from a generating tuple, with the minimal
    generators of that set, at most one per generator of the form."""
    import latticelab.fqf
    from latticelab import form_from_symbol_text
    q = form_from_symbol_text(text)
    spans = []
    monkeypatch.setattr(latticelab.fqf, "_span",
                        lambda form, gens: spans.append(gens) or _span(form, gens))
    subs = isotropic_subgroups(q)
    assert spans == []
    for s in subs:
        assert s.gens == tuple(_minimal_generators(q, s.elements))
        assert len(s.gens) <= q.ngens


def reference_minimal_generators(form, elements):
    """Reference: the greedy as written before its cyclic shortcut: the
    elements by falling order, then value, each one not yet spanned taken
    and closed with _extend."""
    has = frozenset({form.zero()})
    gens = []
    for x in sorted(elements, key=lambda e: (-form.element_order(e), e)):
        if len(has) == len(elements):
            break
        if x not in has:
            gens.append(x)
            has = _extend(form, has, x)
    return gens


def test_minimal_generators_match_the_greedy(monkeypatch, table_run_inputs):
    """The greedy's generators on every subgroup of the small symbols and
    on every witness of the five table runs; a cyclic H (every witness
    there) is its first pick alone, with no _extend closure."""
    import latticelab.fqf
    from latticelab import form_from_symbol_text
    from latticelab.fqf import _subgroups_within
    cases = []
    for form in map(form_from_symbol_text, SMALL_SYMBOLS):
        cases += [(form, els) for els in _subgroups_within(form, frozenset(form.elements()))]
    witnesses = [(form, sub.elements) for form, sub in table_run_inputs[1]]
    calls = []
    monkeypatch.setattr(latticelab.fqf, "_extend", lambda *a: calls.append(a) or _extend(*a))
    cyclic = 0
    for form, els in cases + witnesses:
        expect = reference_minimal_generators(form, els)
        calls.clear()
        assert _minimal_generators(form, els) == expect
        if len(expect) <= 1:
            cyclic += 1
            assert calls == []
    assert all(len(reference_minimal_generators(*w)) <= 1 for w in witnesses)
    assert len(witnesses) > 150 and len(cases) + len(witnesses) - cyclic > 100


def test_negated_keeps_the_reduced_integers():
    """negated() gives the orders, level, qints and bints of the _from_ints
    route, which reduces them again, on 200 seeded forms; negating twice
    gives the form back, and the result carries no scan or p-parts."""
    rng = random.Random(61)
    for _ in range(200):
        form = discriminant_form(random_even_lattice(rng))
        form.scan(), form._primary()
        n = form.level
        neg = form.negated()
        assert _form_data(neg) == _form_data(FiniteQuadraticForm._from_ints(
            form.orders, n, [-v % (2 * n) for v in form.qints],
            [[-x % n for x in row] for row in form.bints]))
        assert all(type(row) is tuple for row in neg.bints) and type(neg.qints) is tuple
        assert _form_data(neg.negated()) == _form_data(form)
        assert neg._scan is None and neg._parts is None


@pytest.mark.parametrize("text", ["3^-2", "3^-1 9^+1", "2_II^+2 3^+1", "2_II^+4",
                                  "4_II^+2", "4_7^+1 8_1^+1"])
def test_subgroups_within_match_brute_force(text):
    """On arbitrary pools, not only subgroup-closed ones, the coset test
    keeps exactly the subgroups that lie inside the pool."""
    from latticelab import form_from_symbol_text
    from latticelab.fqf import _subgroups_within
    q = form_from_symbol_text(text)
    elements = list(q.elements())
    every = {_closure(q, combo) for k in range(q.ngens + 1)
             for combo in itertools.combinations(elements, k)}
    rng = random.Random(text)
    pools = [frozenset(elements)]
    pools += [frozenset([q.zero()] + rng.sample(elements, rng.randint(1, len(elements))))
              for _ in range(30)]
    for pool in pools:
        found = _subgroups_within(q, pool)
        assert set(found) == {h for h in every if h <= pool}
        for els, gens in found.items():
            assert _closure(q, gens) == els


def test_subgroups_within_skips_refused_cosets(monkeypatch):
    """A refused coset test marks the elements it walked, all in the refused
    coset x + H, so no coset is tested twice: on the zero set of 2_II^+6
    the search makes 8,539 additions (10,178 when only passing cosets were
    marked) and finds the same 171 subgroups."""
    from latticelab import form_from_symbol_text
    from latticelab.fqf import _subgroups_within
    q = form_from_symbol_text("2_II^+6")
    zero_set = frozenset(x for x in q.elements() if q.q_int(x) == 0)
    calls = []
    real_add = FiniteQuadraticForm.add

    def counted_add(self, x, y):
        calls.append(None)
        return real_add(self, x, y)

    monkeypatch.setattr(FiniteQuadraticForm, "add", counted_add)
    found = _subgroups_within(q, zero_set)
    monkeypatch.undo()
    assert len(found) == 171
    assert len(calls) <= 8539


# -- counting oracles: closed forms that share no code with the searches ------


def _gaussian_binomial(n, k, q):
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _conjugate(parts, length):
    """The conjugate partition, padded with zeros to length entries."""
    return [sum(1 for x in parts if x > i) for i in range(length)]


def subgroups_of_type(lam, mu, p):
    """The number of subgroups of type mu in the abelian p-group of type lam
    (partitions of exponents): prod_i p^(mu'_{i+1} (lam'_i - mu'_i))
    [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p, lam' and mu' the
    conjugate partitions (Birkhoff 1935; Delsarte 1948; Butler, Mem. AMS
    539, 1994)."""
    top = max(lam, default=0)
    lc, mc = _conjugate(lam, top + 1), _conjugate(mu, top + 1)
    out = 1
    for i in range(top):
        out *= p ** (mc[i + 1] * (lc[i] - mc[i]))
        out *= _gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
    return out


def _subpartitions(lam):
    """Every partition mu with mu_i <= lam_i, lam in decreasing order."""
    for mu in itertools.product(*(range(x + 1) for x in lam)):
        if all(a >= b for a, b in zip(mu, mu[1:])):
            yield tuple(x for x in mu if x)


def _subgroup_type(orders, elements, primes):
    """{p: partition} of the subgroup with these elements, from the sizes
    |H[p^j]| = p^(mu'_1 + ... + mu'_j)."""
    out = {}
    for p in primes:
        sizes = [1]
        while True:
            pj = p ** len(sizes)
            sizes.append(sum(all(x * pj % d == 0 for x, d in zip(el, orders))
                             for el in elements))
            if sizes[-1] == sizes[-2]:
                break
        conj = [_exponents(b // a, p) for a, b in zip(sizes, sizes[1:]) if b > a]
        out[p] = tuple(x for x in _conjugate(conj, max(conj, default=0)) if x)
    return tuple(sorted(out.items()))


def seeded_symbols(seed, count, cap=300):
    """count seeded symbols with 1 < |A| <= cap: each scale of 2, 3, 5 and 7
    up to 27 holds a constituent or not, the 2-adic ones of type II in
    dimension 2 or odd in dimension 1 with a sign that fits the oddity."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        parts, order = [], 1
        for scale in (2, 4, 8):
            if rng.random() < 0.3:
                tail = rng.choice(["_II^+2", "_II^-2", "_1^+1", "_7^+1", "_3^-1", "_5^-1"])
                parts.append(f"{scale}{tail}")
                order *= scale ** int(tail[-1])
        for scale in (3, 9, 27, 5, 25, 7):
            if rng.random() < 0.25:
                dim = rng.randint(1, 2)
                parts.append(f"{scale}^{rng.choice('+-')}{dim}")
                order *= scale ** dim
        if 1 < order <= cap:
            out.append(" ".join(parts))
    return out


@pytest.mark.parametrize("text, total", [
    ("2_II^+4", 67), ("4_II^+2 2_II^+2", 249), ("3^+3", 28), ("9^+1 3^+2", 50),
    ("8_II^+2 2_II^+2", 671)] + [(t, None) for t in SMALL_SYMBOLS + seeded_symbols(43, 12)])
def test_subgroup_counts_match_birkhoff(text, total):
    """_subgroups_within on every element lists each subgroup once, as many
    of each type as the closed form counts; counts multiply over primes.
    On named groups, the small symbols and seeded symbols with |A| <= 300."""
    from latticelab import form_from_symbol_text
    from latticelab.fqf import _subgroups_within
    q = form_from_symbol_text(text)
    primes = _primes_of(q.order)
    lams = {p: sorted((_exponents(d, p) for d in q.orders if d % p == 0), reverse=True)
            for p in primes}
    want = Counter()
    for mus in itertools.product(*(_subpartitions(lams[p]) for p in primes)):
        want[tuple(zip(primes, mus))] = prod(subgroups_of_type(lams[p], mu, p)
                                             for p, mu in zip(primes, mus))
    found = _subgroups_within(q, frozenset(q.elements()))
    got = Counter(_subgroup_type(q.orders, els, primes) for els in found)
    assert got == want
    assert len(found) == sum(want.values())
    if total is not None:
        assert len(found) == total


def singular_subspaces(kind, dim, q, k):
    """Totally singular k-spaces of a nondegenerate quadratic space of
    dimension dim over F_q: kind "+" or "-" for O+(2n, q), O-(2n, q), and
    "odd" for O(2n+1, q) (Wilson, The Finite Simple Groups, 3.7-3.8;
    Taylor, The Geometry of the Classical Groups)."""
    n = dim // 2
    if kind == "+":
        return _gaussian_binomial(n, k, q) * prod(q ** i + 1 for i in range(n - k, n))
    if kind == "-":
        return _gaussian_binomial(n - 1, k, q) * prod(q ** i + 1 for i in range(n - k + 1, n + 1))
    return _gaussian_binomial(n, k, q) * prod(q ** i + 1 for i in range(n - k + 1, n + 1))


ELEMENTARY_SYMBOLS = [
    "2_II^+2", "2_II^-2", "2_II^+4", "2_II^-4", "2_II^+6", "2_II^-6", "2_II^+8",
    "3^+2", "3^-2", "3^+3", "3^-3", "3^+4", "3^-4",
    "5^+2", "5^-2", "5^+3", "5^+4", "5^-4", "7^+3",
]


@pytest.mark.parametrize("text", ELEMENTARY_SYMBOLS)
def test_isotropic_subgroup_counts_match_singular_subspaces(text):
    """On an elementary form p^(eps dim) the isotropic subgroups of order p^k
    are the totally singular k-spaces.  At p = 2 (type II) the sign is the
    type; at odd p, an even dimension 2n is of + type exactly when
    eps = (-1/p)^n.  2_II^+8 has 4,006."""
    from latticelab import form_from_symbol_text
    scale, eps, dim = re.fullmatch(r"(\d+)(?:_II)?\^([+-])(\d+)", text).groups()
    p, dim, sign = int(scale), int(dim), 1 if eps == "+" else -1
    if dim % 2:
        kind = "odd"
    elif p == 2:
        kind = eps
    else:
        kind = "+" if sign == (1 if p % 4 == 1 else -1) ** (dim // 2) else "-"
    want = {p ** k: c for k in range(dim // 2 + 1) if (c := singular_subspaces(kind, dim, p, k))}
    got = Counter(sub.order for sub in isotropic_subgroups(form_from_symbol_text(text)))
    assert got == want
    if text == "2_II^+8":
        assert sum(got.values()) == 4006


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


def test_scan_matches_pointwise():
    """scan() is the pointwise (x, q_int, element_order) tuple in elements()
    order, computed once per form: on the small symbols as given and in
    invariant factor form, on discriminant forms of random even lattices,
    on direct sums out of invariant factor form and on degenerate forms."""
    from latticelab import form_from_symbol_text
    rng = random.Random(1511)
    given = [form_from_symbol_text(t) for t in SMALL_SYMBOLS]
    forms = given + [f.subquotient(f.gens())[0] for f in given]
    lattice_forms = [discriminant_form(random_even_lattice(rng)) for _ in range(20)]
    forms += lattice_forms
    forms += [direct_sum_forms(rng.choice(lattice_forms), rng.choice(given))
              for _ in range(10)]
    forms += DEGENERATE_FORMS
    assert trivial_form().scan() == (((), 0, 1),)
    for q in forms:
        assert q.scan() == tuple((x, q.q_int(x), q.element_order(x)) for x in q.elements())
        assert q.scan() is q.scan()


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


def _quotient_by_kernels(form, gens, mods):
    """Reference for the glue quotients: <gens>/<mods> from the integer
    kernel of (gens | mods | diag(orders)), the relation lattice of gens
    modulo <mods>, and a Smith normal form of that lattice.  Returns
    (form, lifts) like subquotient."""
    gens = [form.reduce(g) for g in gens]
    m = len(gens)
    if m == 0:
        return trivial_form(), []
    cols = [list(g) for g in gens] + [list(form.reduce(h)) for h in mods]
    cols += [[d if i == j else 0 for i in range(form.ngens)]
             for j, d in enumerate(form.orders)]
    rel = [z[:m] for z in integer_kernel(transpose(cols))]
    bmatrix = transpose(rel)
    d, v = smith_normal_form(bmatrix)
    orders, lifts = [], []
    for i, di in enumerate(d):
        if di > 1:
            vcol = [row[i] for row in v]
            coeffs = [sum(b * c for b, c in zip(brow, vcol)) // di for brow in bmatrix]
            el = form.zero()
            for c, g in zip(coeffs, gens):
                el = form.add(el, form.scale(g, c))
            orders.append(di)
            lifts.append(el)
    qints = [form.q_int(x) for x in lifts]
    bints = [[form.b_int(x, y) for y in lifts] for x in lifts]
    return FiniteQuadraticForm._from_ints(orders, form.level, qints, bints), lifts


def _perp_by_kernel(form, gens):
    """Generators of H-perp, H = <gens>: the x-parts of the integer kernel of
    (x, t) -> (b_row(g).x + N*t_g)_g, N the level."""
    rows = [form.b_row(g) + [form.level if t == s else 0 for t in range(len(gens))]
            for s, g in enumerate(gens)]
    return [z[:form.ngens] for z in integer_kernel(rows)] if rows else form.gens()


def _form_data(form):
    return form.orders, form.level, form.qints, form.bints


def _primes_of(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]


def _exponents(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_power_orders(orders):
    """The orders of the cyclic prime-power summands of Z/d_1 x ... x Z/d_k,
    sorted: a complete invariant of the group, as the invariant factors are."""
    return sorted(p ** _exponents(d, p) for d in orders for p in _primes_of(d))


def _assert_primary(quot):
    """The orders are prime powers, grouped by prime in increasing order."""
    primes = [_primes_of(d) for d in quot.orders]
    assert all(len(ps) == 1 for ps in primes)
    assert [ps[0] for ps in primes] == sorted(ps[0] for ps in primes)


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_complement_quotient_matches_perp_scan(text):
    """H-perp / H from one Smith normal form against H-perp by scanning
    every element of A, presented by the two-kernel reference."""
    from latticelab import form_from_symbol_text
    q = form_from_symbol_text(text)
    _, b_frac = _fraction_evaluators(q)
    for sub in isotropic_subgroups(q):
        quot = complement_quotient(q, sub)
        perp = [x for x in q.elements() if all(b_frac(x, g) == 0 for g in sub.gens)]
        ref, _ = _quotient_by_kernels(q, perp, sub.gens)
        assert quot.order * sub.order ** 2 == q.order
        assert len(perp) == quot.order * sub.order
        _assert_primary(quot)
        assert prime_power_orders(quot.orders) == prime_power_orders(ref.orders)
        assert bruteforce_isomorphic(quot, ref)


def _glue_corpus(rng):
    """Random even lattices, direct sums not in invariant factor form and
    degenerate forms, each small enough to enumerate."""
    from latticelab import form_from_symbol_text
    forms = [discriminant_form(random_even_lattice(rng, max_rank=4, max_det=256))
             for _ in range(40)]
    for _ in range(20):
        latt = random_even_lattice(rng, max_rank=3, max_det=16)
        text = rng.choice(SMALL_SYMBOLS)
        forms.append(direct_sum_forms(discriminant_form(latt), form_from_symbol_text(text)))
    forms += [direct_sum_forms(f, g) for f in DEGENERATE_FORMS
              for g in (f, FiniteQuadraticForm([4], [Fraction(1, 4)]))]
    return [f for f in forms if f.order <= 512]


def test_complement_quotient_matches_two_kernel_route():
    """On a seeded corpus, every isotropic H gives the group of the
    two-kernel route (equal prime-power orders), an isometric form where |H-perp / H| <= 64, and
    |H-perp / H| * |H|^2 = |A| where b is nondegenerate."""
    rng = random.Random(1905)
    checked = 0
    for q in _glue_corpus(rng):
        degenerate = any(any(x) and not any(q.b_row(x)) for x in q.elements())
        for sub in isotropic_subgroups(q):
            quot = complement_quotient(q, sub)
            ref, _ = _quotient_by_kernels(q, _perp_by_kernel(q, sub.gens), sub.gens)
            _assert_primary(quot)
            assert prime_power_orders(quot.orders) == prime_power_orders(ref.orders)
            if quot.order <= 64:
                assert bruteforce_isomorphic(quot, ref)
            if not degenerate:
                assert quot.order * sub.order ** 2 == q.order
            checked += 1
    assert checked > 600


def test_complement_quotient_takes_one_smith_form(monkeypatch, table_run_inputs):
    """One Smith normal form per prime dividing |H|, none for H = 0, and no
    integer kernel, subquotient, q_int or b_row per complement_quotient: on every
    isotropic subgroup of the small symbols and on every witness (form, H)
    of the five table runs, H = 0 on each ambient form included."""
    import latticelab.fqf
    from latticelab import form_from_symbol_text
    pairs = [(q, sub) for q in map(form_from_symbol_text, SMALL_SYMBOLS)
             for sub in isotropic_subgroups(q)]
    pairs += table_run_inputs[1]
    assert len(pairs) > 200
    calls = []

    def counted(owner, name):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **k: calls.append(name) or orig(*a, **k))

    counted(latticelab.fqf, "smith_normal_form")
    counted(latticelab.fqf, "integer_kernel")
    counted(FiniteQuadraticForm, "subquotient")
    counted(FiniteQuadraticForm, "q_int")
    counted(FiniteQuadraticForm, "b_row")
    smith_forms = 0
    for form, sub in pairs:
        calls.clear()
        complement_quotient(form, sub)
        assert calls == ["smith_normal_form"] * len(_primes_of(sub.order))
        smith_forms += len(calls)
    assert sum(sub.order == 1 for _, sub in pairs) > 40
    assert smith_forms < len(pairs)


def _assert_lifts_present_quotient(form, gens):
    """The subquotient lifts generate <gens>, each with the stated order,
    and the orders are invariant factors whose product is |<gens>|."""
    quot, lifts = form.subquotient(gens)
    gens = [form.reduce(g) for g in gens]
    span = _span(form, gens)
    assert _span(form, lifts) == span
    assert len(span) == quot.order
    assert len(lifts) == quot.ngens
    for i, (lift, d) in enumerate(zip(lifts, quot.orders)):
        assert form.element_order(lift) == d
        assert quot.q(quot.gens()[i]) == form.q(lift)
    assert all(b % a == 0 for a, b in zip(quot.orders, quot.orders[1:]))


def reference_complement_quotient(form, sub):
    """Reference: H-perp / H by the route taken before the glue matrix was
    built directly: the graphs of the generators of H and of the order
    relations as columns, transposed, and the torsion mapped to the form
    through the images e_1, ..., e_k, 0, ..., 0 of the coordinates, all on
    the reference Smith normal form."""
    rows = [form.b_row(g) for g in sub.gens]
    relations = [tuple(d if i == j else 0 for i in range(form.ngens))
                 for j, d in enumerate(form.orders)]
    cols = []
    for x in [*sub.gens, *relations]:
        col = list(x)
        for row in rows:
            t, r = divmod(sum(a * b for a, b in zip(row, x)), form.level)
            assert r == 0
            col.append(-t)
        cols.append(col)
    images = form.gens() + [form.zero()] * len(rows)
    mat = transpose(cols)
    d, _, v = reference_smith_normal_form(mat)
    coords = list(zip(*images))
    orders, lifts = [], []
    for i, di in enumerate(d):
        if di > 1:
            vcol = [row[i] for row in v]
            w = [sum(a * b for a, b in zip(row, vcol)) // di for row in mat]
            lifts.append(form.reduce([sum(a * b for a, b in zip(w, c)) for c in coords]))
            orders.append(di)
    qints = [form.q_int(x) for x in lifts]
    bints = [[form.b_int(x, y) for y in lifts] for x in lifts]
    return FiniteQuadraticForm._from_ints(orders, form.level, qints, bints)


def _primary_part(form, p):
    """A_p on the basis c_i e_i, d_i = c_i p^v with p prime to c_i, and the
    map x -> coordinates on that basis, for an element x of A_p."""
    basis = [(i, d // p ** _exponents(d, p), p ** _exponents(d, p))
             for i, d in enumerate(form.orders) if d % p == 0]
    n = form.level
    part = FiniteQuadraticForm._from_ints(
        [q for _, _, q in basis], n,
        [c * c * form.qints[i] % (2 * n) for i, c, _ in basis],
        [[ci * cj * form.bints[i][j] % n for j, cj, _ in basis] for i, ci, _ in basis])

    def coords(x):
        assert all(x[i] % c == 0 for i, c, _ in basis)
        assert all(x[i] == 0 for i in range(form.ngens) if i not in {j for j, _, _ in basis})
        return tuple(x[i] // c for i, c, _ in basis)
    return part, coords


class _Gens:
    def __init__(self, gens):
        self.gens = gens


def test_complement_quotient_matches_reference_route(table_run_inputs):
    """Prime by prime, on every isotropic subgroup of the small symbols and
    of a seeded corpus, and on every (form, H) that one pass of the five
    table runs glues over: for p dividing |H| the p-block of the quotient
    has the (orders, level, qints, bints) of the transposed route applied
    to A_p and H_p = m*H, m = |H| / p^v, generated by the nonzero m*g; for
    p prime to |H| the block is A_p on the basis c_i e_i as it stands.  The
    joined quotient has the integers of reference_quotient and keeps no
    blocks once its symbol (or the degenerate form's error) is taken."""
    from latticelab import form_from_symbol_text
    forms = [form_from_symbol_text(t) for t in SMALL_SYMBOLS]
    forms += _glue_corpus(random.Random(1905))
    pairs = [(q, sub) for q in forms for sub in isotropic_subgroups(q)]
    assert len(pairs) > 700
    pairs += table_run_inputs[1]
    hit = kept = 0
    for form, sub in pairs:
        quot = complement_quotient(form, sub)
        _assert_primary(quot)
        blocks = []
        for p in _primes_of(form.exponent):
            idx = [j for j, d in enumerate(quot.orders) if d % p == 0]
            block = FiniteQuadraticForm._from_ints(
                [quot.orders[j] for j in idx], quot.level, [quot.qints[j] for j in idx],
                [[quot.bints[i][j] for j in idx] for i in idx])
            part, coords = _primary_part(form, p)
            m = sub.order
            while m % p == 0:
                m //= p
            if m == sub.order:
                want = part
                kept += 1
            else:
                gens = [coords(form.scale(g, m)) for g in sub.gens]
                want = reference_complement_quotient(part, _Gens([y for y in gens if any(y)]))
                hit += 1
            assert _form_data(block) == _form_data(want), (form, sub, p)
            blocks += idx
        assert blocks == list(range(quot.ngens))
        assert _form_data(quot) == _form_data(reference_quotient(form, sub))
        _symbol_or_error(quot)
        assert quot._parts is None
    assert hit > 500 and kept > 300


def reference_quotient(form, sub):
    """H-perp / H joined at the level of form from the reference blocks of
    test_complement_quotient_matches_reference_route: A_p as it stands
    where p misses |H|, the transposed route on A_p and H_p otherwise."""
    n = form.level
    orders, qints, rows = [], [], []
    for p in _primes_of(form.exponent):
        part, coords = _primary_part(form, p)
        m = sub.order
        while m % p == 0:
            m //= p
        if m != sub.order:
            gens = [coords(form.scale(g, m)) for g in sub.gens]
            part = reference_complement_quotient(part, _Gens([y for y in gens if any(y)]))
        s = n // part.level
        rows += [(len(orders), [x * s for x in row]) for row in part.bints]
        orders += part.orders
        qints += [v * s for v in part.qints]
    k = len(orders)
    return FiniteQuadraticForm._from_ints(
        orders, n, qints, [[0] * j + row + [0] * (k - j - len(row)) for j, row in rows])


def _symbol_or_error(form):
    try:
        return str(to_symbol(form))
    except DegenerateError as exc:
        return repr(exc)


def assert_reference_quotient(form, sub):
    """complement_quotient(form, sub) has the integers of the reference
    route, and keeps no blocks once its symbol (or the degenerate form's
    error) is taken."""
    quot = complement_quotient(form, sub)
    assert _form_data(quot) == _form_data(reference_quotient(form, sub))
    _symbol_or_error(quot)
    assert quot._parts is None


def test_subquotient_lifts_match_span():
    """Brute-force check of the lifts read off the Smith column transform,
    with random generators on the small symbols; the forms and lifts are
    those of the two-kernel reference with nothing to divide out."""
    from latticelab import form_from_symbol_text
    rng = random.Random(79)
    for text in SMALL_SYMBOLS:
        q = form_from_symbol_text(text)
        for _ in range(8):
            gens = [tuple(rng.randrange(d) for d in q.orders)
                    for _ in range(rng.randint(1, 3))]
            _assert_lifts_present_quotient(q, gens)
            quot, lifts = q.subquotient(gens)
            ref, ref_lifts = _quotient_by_kernels(q, gens, ())
            assert (_form_data(quot), lifts) == (_form_data(ref), ref_lifts)


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
    from latticelab import form_from_symbol_text
    q = discriminant_form(named_lattice("A1"))
    bad = Subgroup(q, [(1,)])
    with pytest.raises(NotIsotropicError):
        complement_quotient(q, bad)
    # u(2): both generators are isotropic, but b(e_1, e_2) = 1/2
    for text, gens in [("2_II^+2", [(1, 0), (0, 1)]),
                       ("2_II^+4", [(1, 0, 0, 0), (0, 1, 0, 0)])]:
        q = form_from_symbol_text(text)
        bad = Subgroup(q, gens)
        assert all(q.q(g) == 0 for g in bad.gens)
        with pytest.raises(NotIsotropicError):
            complement_quotient(q, bad)
    # q(2e) = 1 on (Z/4, 1/4): b vanishes on H, q does not
    q = form_from_symbol_text("4_1^+1")
    bad = Subgroup(q, [(2,)])
    assert q.b((2,), (2,)) == 0 and q.q((2,)) == 1
    with pytest.raises(NotIsotropicError):
        complement_quotient(q, bad)
    # mixed primes on (Z/2)^2 + (Z/3)^2: H_p = m*H fails at p = 3 alone, at
    # p = 2 alone on b with q = 0 on every generator, and at p = 3 with an
    # isotropic 2-part
    q = form_from_symbol_text("2_II^+2 3^-2")
    for gens, p, order in [([(1, 0, 1, 0)], 3, 6),
                           ([(1, 0, 1, 1), (0, 1, 0, 0)], 2, 12),
                           ([(1, 0, 1, 1), (0, 0, 1, 2)], 3, 18)]:
        bad = Subgroup(q, gens)
        assert bad.order == order
        for r in (2, 3):
            h_r = _span(q, [q.scale(g, order // r ** _exponents(order, r)) for g in bad.gens])
            assert all(q.q(x) == 0 for x in h_r) == (r != p)
        if order == 12:
            assert all(q.q(g) == 0 for g in bad.gens)
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
    auts = automorphisms(q)
    assert tuple(q.gens()) in auts  # identity
    # closure under composition
    from latticelab.fqf import apply_gen_map
    for m1 in auts[:6]:
        for m2 in auts[:6]:
            composed = tuple(apply_gen_map(q, m1, img) for img in m2)
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


def test_induced_automorphism_needs_the_dual_lattice():
    """A matrix that does not map L* into L* induces no map on A_L."""
    dg = discriminant_group(build_lattice([[6, 3], [3, 6]]))
    with pytest.raises(ValueError, match="dual lattice"):
        dg.induced_automorphism([[1, 1], [0, 1]])
    dg = discriminant_group(named_lattice("A2"))
    with pytest.raises(ValueError, match="dual lattice"):
        dg.induced_automorphism([[2, 0], [0, 1]])


def _row_transform_images(latt, matrix):
    """Reference: the generator images u*G*M*v e_i / d_i modulo the orders,
    with u and v from the reference Smith normal form of the Gram matrix."""
    from latticelab.exactmat import mat_vec
    gram = latt.gram_rows()
    d, u, v = reference_smith_normal_form(gram)
    keep = [i for i, di in enumerate(d) if di != 1]
    images = []
    for i in keep:
        gmc = mat_vec(gram, mat_vec(matrix, [row[i] for row in v]))
        assert all(x % d[i] == 0 for x in gmc)
        images.append(tuple(sum(a * x for a, x in zip(u[k], gmc)) // d[i] % d[k]
                            for k in keep))
    return tuple(images)


def test_induced_automorphism_matches_row_transform():
    """The images read through v^-1 are those of the row transform u: on
    every isometry of every reduced even rank-2 form of det <= 400, and on
    +-I for the registry lattices."""
    from latticelab import rank2_enumerate, rank2_isometries
    cases = [(form.positive_lattice(), m) for det in range(3, 401)
             for form in rank2_enumerate(det) for m in rank2_isometries(form)]
    for latt in map(named_lattice, REGISTRY_NAMES):
        n = latt.rank
        cases += [(latt, [[s * (i == j) for j in range(n)] for i in range(n)]) for s in (1, -1)]
    for latt, m in cases:
        assert discriminant_group(latt).induced_automorphism(m) == \
            _row_transform_images(latt, m), (latt.gram_rows(), m)
    assert len(cases) > 2000


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
    count, _ = form_embeddings_mod_aut(q, q, automorphisms(q))
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
    big = form_from_symbol_text("2_1^+1 8_1^+1 3^+1")
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
    small = form_from_symbol_text("2_II^+2")
    big = form_from_symbol_text("2_II^+2 3^+1")
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


def _closure_search(f1, f2):
    """q- and b-preserving generator-image maps of f1 into f2, in any
    presentation of f1, kept as image tuples when the closure of the
    images has |f1| elements."""
    cands = [[y for y in f2.elements()
              if f2.element_order(y) == d and f2.q(y) == f1.q(e)]
             for d, e in zip(f1.orders, f1.gens())]
    gens = f1.gens()
    out = []
    for images in itertools.product(*cands):
        if any(f2.b(images[i], images[j]) != f1.b(gens[i], gens[j])
               for i, j in itertools.combinations(range(len(gens)), 2)):
            continue
        if len(_closure(f2, images)) == f1.order:
            out.append(images)
    return out


def _search_cases():
    """The small symbols in invariant factor form from subquotient, e.g.
    (2, 6) for 2_II^+2 3^+1, then as form_from_symbol_text presents them,
    e.g. (2, 2, 3), then the degenerate forms."""
    from latticelab import form_from_symbol_text
    given = [form_from_symbol_text(t) for t in SMALL_SYMBOLS]
    return [f.subquotient(f.gens())[0] for f in given] + given + DEGENERATE_FORMS


SEARCH_IDS = SMALL_SYMBOLS + [f"{t} as given" for t in SMALL_SYMBOLS] + DEGENERATE_IDS


@pytest.mark.parametrize("form", _search_cases(), ids=SEARCH_IDS)
def test_automorphisms_match_closure_search(form):
    """The search yields the closure search's maps in its order, into
    forms of every order: onto maps when the orders are equal, injective
    maps into larger forms, none into smaller ones."""
    from latticelab.fqf import _isometries
    assert automorphisms(form) == _closure_search(form, form)
    for other in _search_cases():
        maps = _closure_search(form, other)
        assert list(_isometries(form, other)) == maps
        assert bruteforce_isomorphic(form, other) == \
            (form.order == other.order and bool(maps))


def test_search_tests_radical_only_where_q_is_integral(monkeypatch):
    """A radical x has q(x) = b(x, x) = 0 mod 1, so the isometry search
    calls b_row only on those elements of its source form: at most 1,000
    calls over an hm15/E6 pass with JSON, where testing every element
    would take 1,933."""
    from latticelab import full_report
    calls = []
    real = FiniteQuadraticForm.b_row
    monkeypatch.setattr(FiniteQuadraticForm, "b_row",
                        lambda form, x: calls.append(x) or real(form, x))
    for verdict in full_report("hm15", "E6"):
        verdict.to_json_dict()
    assert len(calls) <= 1000


@pytest.mark.parametrize("small", DEGENERATE_FORMS, ids=DEGENERATE_IDS)
def test_degenerate_embedding_images_are_injective(small):
    from latticelab import embedding_images
    big = direct_sum_forms(small, FiniteQuadraticForm([2], [0]))
    assert set(embedding_images(small, big)) == \
        {_closure(big, mp) for mp in _closure_search(small, big)}


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
    big = direct_sum_forms(small, form_from_symbol_text(EMBEDDING_SUMMANDS[text]))
    auts = automorphisms(big)
    moving = [m for m in auts if m != tuple(big.gens())]
    for maps in (auts, moving[:1], moving[-2:], []):
        assert form_embeddings_mod_aut(small, big, maps) == \
            _elementwise_orbits(small, big, maps)


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_orbit_walk_reads_the_image_list_a_fixed_number_of_times(monkeypatch, text):
    """The walk finds each target through the element masks, so it
    iterates the image list as often for no map as for all of Aut(big):
    twice, or not at all where one image is the one class."""
    import latticelab.fqf
    from latticelab import form_embeddings_mod_aut, form_from_symbol_text

    class CountedList(list):
        iterations = 0

        def __iter__(self):
            CountedList.iterations += 1
            return super().__iter__()

    small = form_from_symbol_text(text)
    big = direct_sum_forms(small, form_from_symbol_text(EMBEDDING_SUMMANDS[text]))
    real = latticelab.fqf.embedding_images
    monkeypatch.setattr(latticelab.fqf, "embedding_images",
                        lambda f1, f2: CountedList(real(f1, f2)))
    auts = automorphisms(big)
    counts = []
    for maps in (auts, auts[-1:], []):
        CountedList.iterations = 0
        form_embeddings_mod_aut(small, big, maps)
        counts.append(CountedList.iterations)
    assert counts == [2 if len(real(small, big)) > 1 else 0] * 3


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_embedding_maps_are_listed_only_to_join_images(text):
    """A function given for the maps is called once where two or more
    images must be joined and never for one image, and counts as the
    list it returns."""
    from latticelab import embedding_images, form_embeddings_mod_aut, form_from_symbol_text
    small = form_from_symbol_text(text)
    big = direct_sum_forms(small, form_from_symbol_text(EMBEDDING_SUMMANDS[text]))
    auts, calls = automorphisms(big), []
    for maps in (auts, auts[-1:], []):
        calls.clear()
        out = form_embeddings_mod_aut(small, big, lambda: calls.append(1) or maps)
        assert out == form_embeddings_mod_aut(small, big, maps)
        assert len(calls) == (len(embedding_images(small, big)) > 1)


def _classical_order(rank, p, sign):
    """|O^eps(2n, p)| or |O(2n + 1, p)| from the textbook formulas (Wilson,
    The Finite Simple Groups, 3.7-3.8).  A plane is hyperbolic when -det is
    a square mod p, so the type is sign * (-1|p)^n, with the Legendre
    symbol (-1|p) = (-1)^((p - 1)/2) taken here; at p = 2 it is the sign."""
    n = rank // 2
    if rank % 2:
        return 2 * p ** (n * n) * prod(p ** (2 * i) - 1 for i in range(1, n + 1))
    eps = sign * (-1) ** (n * (p - 1) // 2) if p > 2 else sign
    return 2 * p ** (n * (n - 1)) * (p ** n - eps) * \
        prod(p ** (2 * i) - 1 for i in range(1, n))


CLASSICAL_FORMS = [("2_II", 4)] + [(str(p), r) for p, rs in ((3, (2, 3, 4)), (5, (2, 3)),
                                                              (7, (2, 3))) for r in rs]


@pytest.mark.parametrize("head,rank", CLASSICAL_FORMS,
                         ids=[f"{h}^{r}" for h, r in CLASSICAL_FORMS])
def test_automorphism_counts_match_classical_orders(head, rank):
    """An elementary p-group p^(+-r) (or 2_II^(+-r)) with its form is the
    orthogonal space F_p^r, so its isometries number |O(r, p)|."""
    from latticelab import form_from_symbol_text
    p = 2 if head == "2_II" else int(head)
    for sign in (1, -1):
        form = form_from_symbol_text(f"{head}^{'+' if sign > 0 else '-'}{rank}")
        assert len(automorphisms(form)) == _classical_order(rank, p, sign)


@pytest.mark.parametrize("text", SMALL_SYMBOLS)
def test_embedding_images_closed_once(monkeypatch, text):
    """Every image is closed once, and the images are those of the
    closure search over all generator-image maps."""
    import latticelab.fqf
    from latticelab import embedding_images, form_from_symbol_text
    small = form_from_symbol_text(text)
    big = direct_sum_forms(small, form_from_symbol_text(EMBEDDING_SUMMANDS[text]))
    real = latticelab.fqf._span
    spans = []
    monkeypatch.setattr(latticelab.fqf, "_span",
                        lambda form, gens: spans.append(gens) or real(form, gens))
    images = embedding_images(small, big)
    assert len(spans) == len(images)
    assert set(images) == {_closure(big, mp) for mp in _closure_search(small, big)}
