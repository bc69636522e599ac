import random
from fractions import Fraction
from math import lcm

import pytest

import latticelab.exactmat
from latticelab.errors import CapExceededError, DegenerateError
from latticelab.exactmat import (
    factorize,
    identity_matrix,
    integer_kernel,
    mat_mul,
    signature_and_det,
    smith_normal_form,
    symmetric_bareiss,
    transpose,
    unimodular_inverse,
)


def rational_inverse(mat):
    """Reference: inverse of a nonsingular matrix over Q (Gauss-Jordan)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise DegenerateError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def rational_signature_and_det(mat):
    """Reference: (n_plus, n_minus, det) by symmetric Gauss diagonalization
    over Q, with the same pivot and pair-mixing choices as signature_and_det;
    det is the product of the rational pivots."""
    a = [[Fraction(x) for x in row] for row in mat]
    pos = neg = 0
    det = Fraction(1)
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i] != 0), None)
        if k is None:
            hit = next(((i, j) for i in range(n) for j in range(i + 1, n)
                        if a[i][j] != 0), None)
            if hit is None:
                raise DegenerateError("form is degenerate")
            i, j = hit
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            continue
        p = a[k][k]
        det *= p
        if p > 0:
            pos += 1
        else:
            neg += 1
        rest = [r for r in range(n) if r != k]
        a = [[a[i][j] - a[i][k] * a[k][j] / p for j in rest] for i in rest]
    return pos, neg, det


def naive_det(m):
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def random_symmetric(rng, n, bound=6):
    m = random_matrix(rng, n, n, bound)
    return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def test_bareiss_matches_cofactor_expansion():
    """The last pivot of the symmetric elimination is the determinant, and
    the elimination raises exactly on the degenerate matrices."""
    rng = random.Random(1)
    degenerate = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        m = random_symmetric(rng, n, rng.choice((1, 2, 6)))
        det = naive_det(m)
        if det == 0:
            degenerate += 1
            with pytest.raises(DegenerateError):
                signature_and_det(m)
        else:
            assert signature_and_det(m)[2] == det, m
    assert degenerate >= 20


def test_smith_normal_form_properties():
    """u*m*v = diag(d) with u, v unimodular and d a divisor chain, on every
    shape up to 6x6, also those with 0 rows or 0 columns (a 0-row matrix
    has no column count, so its v is empty).  smith_normal_form keeps no u:
    u is the reference's, whose pivots are the same, so it belongs to the
    same (d, v)."""
    rng = random.Random(2)
    shapes = [(rows, cols) for rows in range(7) for cols in range(7)]
    for rows, cols in shapes + [rng.choice(shapes) for _ in range(60)]:
        m = random_matrix(rng, rows, cols, rng.choice((1, 6)))
        d, u, v = reference_smith_normal_form(m)
        assert smith_normal_form(m) == (d, v), m
        assert len(u) == rows and len(v) == (cols if rows else 0)
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


def reference_smith_normal_form(mat):
    """Reference: the Smith normal form as written before it skipped work
    whose result is never read; the same block-matrix sweep (Cohen, GTM 138,
    2.4.4), with a full pivot search, column operations on every row and a
    divisibility scan after every pivot."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(row) + e for row, e in zip(mat, identity_matrix(m))]
    a += [e + [0] * m for e in identity_matrix(n)]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                c = a[i][t] // a[t][t]
                a[i] = [x - c * y for x, y in zip(a[i], a[t])]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, n):
            if a[t][j] != 0:
                c = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= c * row[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        witness = None
        for i in range(t + 1, m):
            if any(a[i][j] % a[t][t] for j in range(t + 1, n)):
                witness = i
                break
        if witness is not None:
            a[t] = [x + y for x, y in zip(a[t], a[witness])]
            continue
        t += 1
    d = [a[i][i] for i in range(min(m, n))]
    return d, [row[n:] for row in a[:m]], [row[:n] for row in a[m:]]


def test_smith_normal_form_matches_reference():
    """The same (d, v) as the full sweep on 1,500 seeded matrices of every
    shape up to 7x7, entries bounded by 1, 5, 30 or 1000 and some rows zero,
    and on three small ones whose first 1 follows a larger entry."""
    rng = random.Random(47)
    mats = [[[0, 2, 1], [1, 0, 0]], [[3, 1], [1, 0]], [[0, 0], [0, 1]]]
    for _ in range(1500):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = random_matrix(rng, rows, cols, rng.choice((1, 5, 30, 1000)))
        for row in m:
            if rng.random() < 0.2:
                row[:] = [0] * cols
        mats.append(m)
    for m in mats:
        d, _, v = reference_smith_normal_form(m)
        assert smith_normal_form(m) == (d, v), m


def test_smith_normal_form_matches_reference_on_table_runs(table_run_inputs):
    """The same (d, v) as the full sweep on every matrix that one pass of
    the five table runs gives smith_normal_form."""
    mats, _ = table_run_inputs
    assert len(mats) > 100
    for m in mats:
        d, _, v = reference_smith_normal_form(m)
        assert smith_normal_form(m) == (d, v), m


def test_integer_kernel():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=4)
        for k in integer_kernel(m):
            assert all(sum(m[i][j] * k[j] for j in range(cols)) == 0
                       for i in range(rows))


def test_signature_and_det_diagonal():
    assert signature_and_det([[2, 0], [0, -3]]) == (1, 1, -6)
    assert signature_and_det([[0, 1], [1, 0]]) == (1, 1, -1)
    assert signature_and_det([[2, 1], [1, 2]]) == (2, 0, 3)
    with pytest.raises(DegenerateError):
        signature_and_det([[1, 1], [1, 1]])


def test_inverses():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if naive_det(m) == 0:
            continue
        inv = rational_inverse(m)
        prod = mat_mul(m, inv)
        assert prod == identity_matrix(n)


def test_smith_columns_invert_row_transform():
    """u*B*v = diag(d) with every d_i nonzero (a finite cokernel) gives
    u^-1 e_i = B v e_i / d_i: column i of B*v is d_i times column i of u^-1,
    with u from the reference (same pivots, so the same (d, v))."""
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        rows = rng.randint(1, 4)
        mat = random_matrix(rng, rows, rng.randint(rows, 6), rng.choice((2, 6)))
        d, u, v = reference_smith_normal_form(mat)
        assert smith_normal_form(mat) == (d, v), mat
        if any(x == 0 for x in d):
            continue
        bv = mat_mul(mat, v)
        uinv = rational_inverse(u)
        for i, di in enumerate(d):
            assert [row[i] for row in bv] == [di * row[i] for row in uinv], mat
        checked += 1
    assert checked >= 100


def test_unimodular_inverse():
    """v * unimodular_inverse(v) = I for the column transforms of 200 seeded
    matrices up to 6x6, the identity and a permutation included."""
    rng = random.Random(59)
    mats = [identity_matrix(3), [[0, 1, 0], [0, 0, 1], [1, 0, 0]], []]
    for _ in range(200):
        mats.append(smith_normal_form(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                                                    rng.choice((2, 30))))[1])
    for v in mats:
        assert mat_mul(v, unimodular_inverse(v)) == identity_matrix(len(v)), v


def test_signature_and_det_matches_rational_elimination():
    """Fraction-free elimination gives the signature and determinant of the
    elimination over Q, or the same DegenerateError, on random symmetric
    matrices of rank 1-7 with many zero diagonals, degenerate ones included."""
    rng = random.Random(41)
    degenerate = 0
    for _ in range(1500):
        n = rng.randint(1, 7)
        bound = rng.choice((1, 2, 3, 6))
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.choice((0, 0, rng.randint(-bound, bound)))
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    m[i][j] = m[j][i] = rng.randint(-bound, bound)
        try:
            expect = rational_signature_and_det(m)
        except DegenerateError as err:
            degenerate += 1
            with pytest.raises(DegenerateError, match=str(err)):
                signature_and_det(m)
            continue
        assert signature_and_det(m) == expect, m
        assert expect[2] != 0
    assert 200 <= degenerate <= 1300


def random_definite_gram(rng, n, bound=3):
    """B B^T for a random nonsingular integer matrix B."""
    while True:
        b = random_matrix(rng, n, n, bound)
        if naive_det(b) != 0:
            return mat_mul(b, transpose(b))


def test_bareiss_rows_rebuild_quadratic_form():
    """With U the fraction-free rows of a definite Gram matrix, D_0 = 1 and
    D_{i+1} = U_ii, M = lcm(D_i D_{i+1}) and K_i = M / (D_i D_{i+1}), the
    integer identity M q(x) = sum_i K_i t_i^2 holds for t_i = U_i . x."""
    rng = random.Random(43)
    grams = [[[2, 1], [1, 2]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]]
    grams += [random_definite_gram(rng, rng.randint(1, 6)) for _ in range(30)]
    for g in grams:
        n = len(g)
        rows = [row for _, row in symmetric_bareiss(g)]
        minors = [1] + [row[0] for row in rows]
        for i in range(n):
            lead = [r[:i + 1] for r in g[:i + 1]]
            assert minors[i + 1] == naive_det(lead) > 0
        scale = [minors[i] * minors[i + 1] for i in range(n)]
        m = lcm(*scale)
        for _ in range(20):
            x = [rng.randint(-4, 4) for _ in range(n)]
            q = sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            t = [sum(c * xj for c, xj in zip(rows[i], x[i:])) for i in range(n)]
            assert m * q == sum(m // s * ti * ti for s, ti in zip(scale, t)), (g, x)


class CountedInt(int):
    """An int that counts the remainders taken of it."""

    taken = 0

    def __mod__(self, d):
        CountedInt.taken += 1
        return int(self) % d


def test_factorize_tries_no_divisor_above_the_cap(monkeypatch):
    """Every n below (FACTOR_CAP + 1)**2 factors; a cofactor at or above it
    with no prime factor up to the cap raises after trying exactly the
    divisors 2..FACTOR_CAP."""
    assert factorize(999983 * 999979) == {999979: 1, 999983: 1}
    assert factorize(2 ** 90 * 1000000000039) == {2: 90, 1000000000039: 1}
    with pytest.raises(CapExceededError, match="cap 1000000$"):
        factorize(1000002000007)  # the first prime above 1000001**2
    monkeypatch.setattr(latticelab.exactmat, "FACTOR_CAP", 1000)
    assert factorize(CountedInt(1000003)) == {1000003: 1}  # below 1001**2
    CountedInt.taken = 0
    with pytest.raises(CapExceededError, match="cofactor 1002017 .* cap 1000$"):
        factorize(CountedInt(1002017))  # the first prime above 1001**2
    assert CountedInt.taken == 999
