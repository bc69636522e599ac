import random

import pytest

from latticelab.errors import DegenerateError
from latticelab.exactmat import (
    bareiss_det,
    identity_matrix,
    integer_kernel,
    ldl_decomposition,
    mat_mul,
    rational_inverse,
    signature_pair,
    smith_normal_form,
    unimodular_inverse,
)


def naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert bareiss_det(m) == naive_det(m)


def test_smith_normal_form_properties():
    rng = random.Random(2)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        d, u, v = smith_normal_form(m)
        assert abs(naive_det(u)) == 1
        assert abs(naive_det(v)) == 1
        prod = mat_mul(mat_mul(u, m), v)
        for i in range(rows):
            for j in range(cols):
                expected = d[i] if i == j and i < len(d) else 0
                assert prod[i][j] == expected
        nonzero = [x for x in d if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert all(x >= 0 for x in d)


def test_integer_kernel():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=4)
        for k in integer_kernel(m):
            assert all(sum(m[i][j] * k[j] for j in range(cols)) == 0
                       for i in range(rows))


def test_signature_pair_diagonal():
    assert signature_pair([[2, 0], [0, -3]]) == (1, 1)
    assert signature_pair([[0, 1], [1, 0]]) == (1, 1)
    assert signature_pair([[2, 1], [1, 2]]) == (2, 0)
    with pytest.raises(DegenerateError):
        signature_pair([[1, 1], [1, 1]])


def test_inverses():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if bareiss_det(m) == 0:
            continue
        inv = rational_inverse(m)
        prod = mat_mul(m, inv)
        assert prod == identity_matrix(n)
    u = [[1, 3], [0, 1]]
    assert unimodular_inverse(u) == [[1, -3], [0, 1]]


def test_unimodular_inverse_matches_rational_inverse():
    rng = random.Random(5)
    for _ in range(40):
        mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        _, u, v = smith_normal_form(mat)
        for w in (u, v):
            assert unimodular_inverse(w) == rational_inverse(w)
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])
    with pytest.raises(DegenerateError):
        unimodular_inverse([[1, 2], [2, 4]])


def test_ldl_reconstructs_quadratic_form():
    g = [[2, 1], [1, 2]]
    d, w = ldl_decomposition(g)
    for x in range(-3, 4):
        for y in range(-3, 4):
            v = (x, y)
            q = sum(g[i][j] * v[i] * v[j] for i in range(2) for j in range(2))
            forms = d[0] * (v[0] + w[0][1] * v[1]) ** 2 + d[1] * v[1] ** 2
            assert forms == q
    with pytest.raises(ValueError):
        ldl_decomposition([[0, 1], [1, 0]])
