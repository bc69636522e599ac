import itertools
import random
from math import isqrt, prod

import pytest

from latticelab import build_lattice, named_lattice, short_vectors, shortvec
from latticelab.errors import (
    DegenerateError,
    IndefiniteLatticeError,
    NormCapExceededError,
    RankTooLargeError,
)
from latticelab.exactmat import identity_matrix, mat_mul, transpose
from test_exactmat import rational_inverse


def box_radii(gram, norm):
    inv = rational_inverse(gram)
    return [isqrt(int(norm * inv[i][i])) + 1 for i in range(len(gram))]


def naive_box_vectors(gram, norm):
    """Oracle: scan the integer box with radii from the dual Gram matrix.

    For v with v G v^T = m one has v_i^2 <= m * (G^{-1})_{ii}, so the box
    with radius floor(sqrt(m * (G^{-1})_{ii})) per coordinate is complete.
    """
    n = len(gram)
    radii = box_radii(gram, norm)
    out = []
    for v in itertools.product(*(range(-r, r + 1) for r in radii)):
        val = sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if val == norm:
            for c in v:
                if c > 0:
                    out.append(v)
                    break
                if c < 0:
                    break
    return sorted(out)


def test_a2_roots():
    a2 = named_lattice("A2")
    assert len(short_vectors(a2, 2)) == 3


def test_agrees_with_box_enumeration():
    rng = random.Random(21)
    done = 0
    while done < 20:
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(1, 4)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-1, 1)
        try:
            latt = build_lattice(g)
        except Exception:
            continue
        if latt.signature != (n, 0):
            continue
        for norm in (2, 4, 6, 8):
            assert short_vectors(latt, norm) == naive_box_vectors(g, norm)
        done += 1


def test_negative_definite_uses_negative_norms():
    g = [[-2, -1, 0], [-1, -8, 0], [0, 0, -12]]
    latt = build_lattice(g)
    assert short_vectors(latt, -2)
    assert not short_vectors(latt, -6)
    assert not short_vectors(latt, 2)

    g2 = [[-6, 0, -3], [0, -6, -3], [-3, -3, -8]]
    latt2 = build_lattice(g2)
    assert short_vectors(latt2, -6)
    assert not short_vectors(latt2, -2)


def test_caps_and_errors():
    e8 = named_lattice("E8")
    assert len(short_vectors(e8, 2)) == 120  # 240 roots up to sign

    u = named_lattice("U")
    with pytest.raises(IndefiniteLatticeError):
        short_vectors(u, 2)

    big = named_lattice("Lambda0")
    with pytest.raises(RankTooLargeError):
        short_vectors(big, 2)

    a2 = named_lattice("A2")
    with pytest.raises(NormCapExceededError):
        short_vectors(a2, 102)
    g = a2.gram
    for v in short_vectors(a2, 14, norm_cap=200):
        val = sum(g[i][j] * v[i] * v[j] for i in range(2) for j in range(2))
        assert val == 14
    assert len(short_vectors(a2, 14)) == 6


def random_unimodular(rng, n, steps):
    """A product of steps random row operations e_i += t e_j, 0 < |t| <= 2."""
    u = identity_matrix(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        u[i] = [a + t * b for a, b in zip(u[i], u[j])]
    return u


def skewed_definite_corpus(seed, count, max_rank=6, max_norm=12, max_box=20_000):
    """(gram, norm) pairs: random definite Gram matrices of rank 1 to
    max_rank, moved to another basis by a random unimodular U (U G U^T) so
    the leading minors grow, negated for every other case, with norms 2 to
    max_norm of the lattice's sign; cases whose oracle box has more than
    max_box points are redrawn."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(2, 6)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-1, 1)
        try:
            if build_lattice(g).signature != (n, 0):
                continue
        except DegenerateError:
            continue
        u = random_unimodular(rng, n, rng.randint(1, 2 * n))
        g = mat_mul(mat_mul(u, g), transpose(u))
        norm = rng.randint(2, max_norm)
        if prod(2 * r + 1 for r in box_radii(g, norm)) > max_box:
            continue
        if len(out) % 2:
            g, norm = [[-x for x in row] for row in g], -norm
        out.append((g, norm))
    return out


def test_skewed_grams_match_box_enumeration():
    """Definite and negative definite lattices of rank 1-6 on skewed bases
    (leading minors into the thousands), norms 2-12: the same vectors as
    the box scan."""
    corpus = skewed_definite_corpus(83, 150)
    assert {len(g) for g, _ in corpus} == set(range(1, 7))
    grown = 0
    found = 0
    for g, norm in corpus:
        latt = build_lattice(g)
        got = short_vectors(latt, norm)
        assert got == naive_box_vectors(g, norm), (g, norm)
        found += len(got)
        grown += max(abs(g[i][i]) for i in range(len(g))) > 12
    assert found > 150 and grown > 30


def sigma3(m):
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


def test_e8_theta_series():
    """E8 has 240 sigma_3(m) vectors of norm 2m (its theta series is the
    weight-4 Eisenstein series), so short_vectors lists half of them."""
    e8 = named_lattice("E8")
    for m in range(1, 7):
        assert len(short_vectors(e8, 2 * m)) == 240 * sigma3(m) // 2


def test_descent_walks_half_the_tree(monkeypatch):
    """The search keeps the last nonzero coordinate positive, so it visits
    one node per isqrt call and never reaches -v: E8 at norm 8 takes 10,991
    calls (21,974 when the whole +/- tree was walked)."""
    calls = []

    def counted_isqrt(x):
        calls.append(x)
        return isqrt(x)

    monkeypatch.setattr(shortvec, "isqrt", counted_isqrt)
    assert len(short_vectors(named_lattice("E8"), 8)) == 240 * sigma3(4) // 2
    assert len(calls) == 10_991
