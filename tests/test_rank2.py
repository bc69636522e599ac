import functools
import itertools
import math
import random

import pytest

from latticelab import (
    Rank2Form,
    short_vectors,
    rank2_automorphism_orders,
    rank2_enumerate,
    rank2_isometries,
    rank2_reduce,
)
from latticelab.errors import CapExceededError, NotDefiniteError
from latticelab.rank2 import DET_CAP, _reduce, rank2_form_from_gram


def brute_isometric(f1: Rank2Form, f2: Rank2Form, bound=10) -> bool:
    """Oracle: search unimodular base changes with entries up to the bound."""
    g1 = [[f1.a, f1.b], [f1.b, f1.c]]
    for p, q, r, s in itertools.product(range(-bound, bound + 1), repeat=4):
        if p * s - q * r not in (1, -1):
            continue
        a = p * (g1[0][0] * p + g1[0][1] * r) + r * (g1[1][0] * p + g1[1][1] * r)
        b = q * (g1[0][0] * p + g1[0][1] * r) + s * (g1[1][0] * p + g1[1][1] * r)
        c = q * (g1[0][0] * q + g1[0][1] * s) + s * (g1[1][0] * q + g1[1][1] * s)
        if (a, b, c) == (f2.a, f2.b, f2.c):
            return True
    return False


def test_reduce_examples():
    assert rank2_reduce(Rank2Form(14, -1, 2)) == Rank2Form(2, 1, 14)
    assert rank2_reduce(Rank2Form(2, 1, 14)) == Rank2Form(2, 1, 14)
    assert rank2_reduce(Rank2Form(6, 3, 6)) == Rank2Form(6, 3, 6)


def test_reduce_is_idempotent_and_isometric():
    rng = random.Random(11)
    done = 0
    while done < 25:
        a = 2 * rng.randint(1, 6)
        c = 2 * rng.randint(1, 6)
        b = rng.randint(-6, 6)
        if a * c - b * b <= 0:
            continue
        f = Rank2Form(a, b, c)
        red = rank2_reduce(f)
        assert red.is_reduced
        assert rank2_reduce(red) == red
        assert red.det == f.det
        assert brute_isometric(f, red)
        done += 1


def test_reduce_carries_a_proper_basis():
    """P^T G P is the reduced Gram matrix and det P = 1, on the boundary
    inputs and on seeded random forms of either sign."""
    rng = random.Random(23)
    forms = [Rank2Form(14, -1, 2), Rank2Form(2, -1, 14), Rank2Form(6, -3, 6)]
    while len(forms) < 2000:
        a, b, c = rng.randint(1, 200), rng.randint(-300, 300), rng.randint(1, 200)
        if a * c > b * b:
            forms.append(Rank2Form(a, b, c, negative=rng.random() < 0.5))
    for f in forms:
        red, ((p, q), (r, s)) = _reduce(f)
        assert red == rank2_reduce(f) and red.is_reduced and red.negative == f.negative
        assert p * s - q * r == 1, f
        a = p * (f.a * p + f.b * r) + r * (f.b * p + f.c * r)
        b = q * (f.a * p + f.b * r) + s * (f.b * p + f.c * r)
        c = q * (f.a * q + f.b * s) + s * (f.b * q + f.c * s)
        assert (a, b, c) == (red.a, red.b, red.c), f


def test_reduce_respects_boundary_conventions():
    # 2b = -a and a = c boundaries normalize to b >= 0
    assert rank2_reduce(Rank2Form(2, -1, 14)) == Rank2Form(2, 1, 14)
    assert rank2_reduce(Rank2Form(6, -3, 6)) == Rank2Form(6, 3, 6)
    # interior negative b is already a reduced representative
    assert rank2_reduce(Rank2Form(14, -2, 26)) == Rank2Form(14, -2, 26)


def brute_enumerate(det):
    """Oracle: scan all even Gram matrices with a, c <= 2 det and |2b| <= a,
    reduce, deduplicate."""
    seen = set()
    for a in range(2, 2 * det + 1, 2):
        for b in range(-(a // 2), a // 2 + 1):
            if (det + b * b) % a:
                continue
            c = (det + b * b) // a
            if c % 2 or c > 2 * det:
                continue
            red = rank2_reduce(Rank2Form(a, b, c))
            seen.add((red.a, red.b, red.c))
    return sorted(seen)


def reference_enumerate(det, negative=False):
    """Oracle: the full-window scan, every b with 3b^2 <= det and every even
    a up to sqrt(det + b^2), keeping the reduced even (a, b, c)."""
    found = []
    bmax = math.isqrt(det // 3)
    for b in range(-bmax - 1, bmax + 2):
        if 3 * b * b > det:
            continue
        ac = det + b * b
        for a in range(2, math.isqrt(ac) + 1, 2):
            if ac % a:
                continue
            c = ac // a
            if c % 2 or a > c:
                continue
            if not (-a < 2 * b <= a):
                continue
            if a == c and b < 0:
                continue
            found.append(Rank2Form(a, b, c, negative=negative))
    return sorted(found, key=lambda f: (f.a, f.b, f.c))


def test_enumerate_matches_full_window_scan():
    rng = random.Random(17)
    dets = list(range(1, 3001)) + [rng.randint(3001, 100000) for _ in range(20)]
    for det in dets:
        want = [(f.a, f.b, f.c) for f in reference_enumerate(det)]
        # det = 1, 2 mod 4 has no even form; otherwise (2, det % 2, .) is one
        assert (want == []) == (det % 4 in (1, 2)), det
        for negative in (False, True):
            got = rank2_enumerate(det, negative)
            assert [(f.a, f.b, f.c) for f in got] == want, det
            assert all(f.negative == negative for f in got)


def test_enumerate_refuses_determinants_above_the_cap():
    with pytest.raises(CapExceededError):
        rank2_enumerate(DET_CAP + 1)
    with pytest.raises(NotDefiniteError):
        rank2_enumerate(0)


@pytest.mark.parametrize("det", [3, 27, 35, 36, 48, 75, 100, 315, 360])
def test_enumerate_complete_against_brute_force(det):
    got = [(f.a, f.b, f.c) for f in rank2_enumerate(det)]
    assert got == brute_enumerate(det)
    assert got == sorted(got)
    assert len(set(got)) == len(got)


# -- class-number oracle -----------------------------------------------------------
#
# The even Gram matrix ((a, b), (b, c)) of det d is the binary quadratic form
# (a/2) x^2 + b xy + (c/2) y^2 of discriminant -d, and proper (SL_2) classes
# correspond.  A form of content g is g times a primitive form of discriminant
# -d/g^2, so the number of proper classes is the sum of h(-d/g^2) over g^2 | d
# with -d/g^2 = 0, 1 mod 4 (Cohen, A Course in Computational Algebraic Number
# Theory, 5.3-5.4).  Pure integers; shares no code with the enumeration.


def kronecker(D, n):
    """Kronecker symbol (D/n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    D %= n
    while D:  # Jacobi symbol (D/n), n odd
        while D % 2 == 0:
            D //= 2
            if n % 8 in (3, 5):
                result = -result
        D, n = n, D
        if D % 4 == 3 and n % 4 == 3:
            result = -result
        D %= n
    return result if n == 1 else 0


def _factor(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _units(D):
    return {-3: 6, -4: 4}.get(D, 2)


@functools.cache
def _fundamental_class_number(D0):
    # Dirichlet: h = -(w / 2|D0|) * sum_{0 < n < |D0|} (D0/n) n
    return (-_units(D0) * sum(kronecker(D0, n) * n for n in range(1, -D0))
            // (-2 * D0))


def class_number(D):
    """h(D): proper classes of primitive positive forms of discriminant D < 0."""
    fac = _factor(-D)
    core = -math.prod(p for p, e in fac.items() if e % 2)
    f = math.prod(p ** (e // 2) for p, e in fac.items())
    D0 = core if core % 4 == 1 else 4 * core
    if D0 != core:
        f //= 2
    # conductor formula: h(D0 f^2) = h(D0) f prod_{p | f} (1 - (D0/p)/p) / [O*:O_f*]
    h = _fundamental_class_number(D0) * _units(D)
    for p, e in _factor(f).items():
        h *= p ** (e - 1) * (p - kronecker(D0, p))
    return h // _units(D0)


def class_number_sum(det):
    """Number of proper classes of positive even rank-2 forms of the det."""
    return sum(class_number(-det // (g * g))
               for g in range(1, math.isqrt(det) + 1)
               if det % (g * g) == 0 and (-det // (g * g)) % 4 in (0, 1))


def test_class_number_oracle_known_values():
    # tabulated class numbers, fundamental and not
    table = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -16: 1, -19: 1,
             -20: 2, -23: 3, -27: 1, -28: 1, -35: 2, -40: 2, -43: 1, -47: 5,
             -56: 4, -67: 1, -71: 7, -84: 4, -163: 1}
    assert {D: class_number(D) for D in table} == table


def test_enumerate_count_matches_class_number_sum():
    # the two determinants whose lists in the source classification are short
    assert class_number(-315) + class_number(-35) == 4 + 2 == class_number_sum(315)
    assert class_number(-360) + class_number(-40) == 8 + 2 == class_number_sum(360)
    for det in range(1, 1001):
        assert len(rank2_enumerate(det)) == class_number_sum(det), det
    # large determinants whose fundamental discriminants are small enough
    # for Dirichlet's sum, up to the cap
    for det in (99999, 100000, 10**6, 4 * 3**12, DET_CAP):
        assert len(rank2_enumerate(det)) == class_number_sum(det), det


def test_enumerate_positive_det_3():
    assert [(f.a, f.b, f.c) for f in rank2_enumerate(3)] == [(2, 1, 2)]


def test_isometry_group_is_a_group():
    for triple in [(2, 1, 2), (6, 3, 6), (6, 0, 6), (2, 1, 14), (12, 0, 30)]:
        mats = rank2_isometries(Rank2Form(*triple))
        assert ((1, 0), (0, 1)) in mats
        assert len(mats) % 2 == 0
        for m in mats:
            assert matrix_order(m) >= 1


def reference_isometries(form):
    """Oracle: every pair of columns of norms a and c, from a short-vector
    search on the form as given, that keeps the Gram matrix."""
    latt = form.positive_lattice()
    g = [[form.a, form.b], [form.b, form.c]]
    cap = max(form.a, form.c, 100)
    cols_a = short_vectors(latt, form.a, norm_cap=cap)
    cols_c = short_vectors(latt, form.c, norm_cap=cap)
    result = set()
    for u in [v for w in cols_a for v in (w, (-w[0], -w[1]))]:
        for w in [v for z in cols_c for v in (z, (-z[0], -z[1]))]:
            gu = [g[0][0] * u[0] + g[0][1] * u[1], g[1][0] * u[0] + g[1][1] * u[1]]
            gw = [g[0][0] * w[0] + g[0][1] * w[1], g[1][0] * w[0] + g[1][1] * w[1]]
            if (u[0] * gu[0] + u[1] * gu[1], w[0] * gu[0] + w[1] * gu[1],
                    w[0] * gw[0] + w[1] * gw[1]) == (form.a, form.b, form.c):
                result.add(((u[0], w[0]), (u[1], w[1])))
    return sorted(result)


def test_isometries_match_short_vector_search():
    """The isometries read off the reduced form equal the short-vector
    search on every reduced even form of det <= 1000 and on 2,000 seeded
    unreduced forms of either sign."""
    forms = [f for det in range(1, 1001) for f in rank2_enumerate(det)]
    assert len(forms) == 5300
    rng = random.Random(29)
    unreduced = []
    while len(unreduced) < 2000:
        a, b, c = rng.randint(1, 80), rng.randint(-80, 80), rng.randint(1, 80)
        f = Rank2Form(a, b, c, negative=rng.random() < 0.5) if a * c > b * b else None
        if f is not None and not f.is_reduced:
            unreduced.append(f)
    for f in forms + unreduced:
        assert rank2_isometries(f) == reference_isometries(f), f


def matrix_order(m):
    """Oracle: the order of a 2x2 integer matrix by repeated multiplication."""
    acc = m
    for k in range(1, 25):
        if acc == ((1, 0), (0, 1)):
            return k
        acc = tuple(tuple(sum(acc[i][t] * m[t][j] for t in range(2))
                          for j in range(2)) for i in range(2))
    raise ValueError("matrix order exceeds cap; not a finite isometry?")


def test_automorphism_orders_match_powering():
    """Orders read off (det, trace) equal the powered orders, on every
    isometry of every form of det <= 400."""
    seen = set()
    for det in range(1, 401):
        for f in rank2_enumerate(det):
            want = {matrix_order(m) for m in rank2_isometries(f)}
            assert rank2_automorphism_orders(f) == want, f
            seen |= want
    assert seen == {1, 2, 3, 4, 6}


def test_automorphism_orders_examples():
    orders = rank2_automorphism_orders(Rank2Form(6, 3, 6))
    assert 3 in orders and 6 in orders
    assert 4 in rank2_automorphism_orders(Rank2Form(6, 0, 6))
    assert 3 not in rank2_automorphism_orders(Rank2Form(2, 1, 14))


def test_order_criteria_match_shape_up_to_det_400():
    # order 3 isometries occur exactly for the (2a, a, 2a) shape, order 4
    # exactly for (m, 0, m); checked against the brute isometry search
    for det in range(1, 401):
        for f in rank2_enumerate(det):
            orders = rank2_automorphism_orders(f)
            is_hex = (f.a, f.b, f.c) == (2 * f.b, f.b, 2 * f.b)
            is_square = f.b == 0 and f.a == f.c
            assert (3 in orders) == is_hex, f
            assert (4 in orders) == is_square, f


def test_sign_classification():
    f = rank2_form_from_gram([[-6, -3], [-3, -6]])
    assert f.negative and (f.a, f.b, f.c) == (6, 3, 6)
    assert str(f) == "-(6^3 6)"
    assert str(Rank2Form(2, 1, 14)) == "(2^1 14)"
    assert str(Rank2Form(18, -6, 22, negative=True)) == "-(18^-6 22)"
    with pytest.raises(NotDefiniteError):
        rank2_form_from_gram([[2, 3], [3, 2]])
    with pytest.raises(NotDefiniteError):
        Rank2Form(0, 0, 2)
