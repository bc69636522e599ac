import itertools
import random

import pytest

from latticelab import build_lattice, named_lattice, short_vectors
from latticelab.errors import (
    IndefiniteLatticeError,
    NormCapExceededError,
    RankTooLargeError,
)


def naive_box_vectors(gram, norm):
    """Oracle: scan the integer box with radii from the dual Gram matrix.

    For v with v G v^T = m one has v_i^2 <= m * (G^{-1})_{ii}, so the box
    with radius floor(sqrt(m * (G^{-1})_{ii})) per coordinate is complete.
    """
    from math import isqrt

    from latticelab.exactmat import rational_inverse

    n = len(gram)
    inv = rational_inverse(gram)
    radii = []
    for i in range(n):
        bound = norm * inv[i][i]
        radii.append(isqrt(int(bound)) + 1)
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


def test_int_range_matches_scan():
    """The exact bound agrees with a scan over random rational centers and
    radii, including negative centers and radii hit exactly at an integer."""
    from fractions import Fraction

    from latticelab.shortvec import _int_range

    rng = random.Random(97)
    cases = [(Fraction(0), Fraction(0)), (Fraction(-3, 2), Fraction(1, 4)),
             (Fraction(7, 3), Fraction(-1, 5)), (Fraction(-5), Fraction(9))]
    for _ in range(400):
        center = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        cases.append((center, Fraction(rng.randint(0, 90), rng.randint(1, 12))))
        # a radius reaching an integer exactly on either side
        x = rng.randint(-10, 10)
        cases.append((center, (x - center) ** 2))
    for center, radius2 in cases:
        width = int(max(radius2, 0)) + 2  # |x - center| <= sqrt(r) <= r + 1
        lo = int(center) - width
        expect = [x for x in range(lo, lo + 2 * width + 1)
                  if (x - center) ** 2 <= radius2]
        assert list(_int_range(center, radius2)) == expect, (center, radius2)
    hits = sum(1 for center, radius2 in cases
               if any((x - center) ** 2 == radius2 for x in _int_range(center, radius2)))
    assert hits >= 400
