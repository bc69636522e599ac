"""Exact linear algebra over the integers.

Everything here computes with Python ints.  One fraction-free symmetric
(Bareiss) elimination gives the signature and the determinant together,
and the short-vector bounds; the Smith normal form keeps its column
transform, so callers present finite quotient groups exactly and read
their generators off it.  No floating point and no fractions anywhere.
"""

from __future__ import annotations

from .errors import CapExceededError, DegenerateError

# The largest trial divisor: every n below (FACTOR_CAP + 1)**2 factors.
FACTOR_CAP = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1, by trial division; one
    that needs a divisor above FACTOR_CAP raises CapExceededError."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > FACTOR_CAP:
            raise CapExceededError(f"cofactor {n} has no prime factor up to cap {FACTOR_CAP}")
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def identity_matrix(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def transpose(mat):
    return [list(row) for row in zip(*mat)]


def mat_mul(a, b):
    rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(mid):
            x = ai[k]
            if x == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(cols):
                row[j] += x * bk[j]
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def is_symmetric(mat) -> bool:
    n = len(mat)
    return all(len(row) == n for row in mat) and all(
        mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n)
    )


def symmetric_bareiss(mat):
    """Fraction-free symmetric Gauss elimination (Bareiss 1968).

    Yields (prev, row) once per eliminated index: row is the pivot row of the
    current matrix, pivot first, then the entries of the remaining indices
    in order; prev is the pivot before it (1 at the start).  The current
    matrix is prev times a Schur complement of an integer matrix congruent
    to mat, so its entries are minors of that matrix and every division is
    exact; the rational pivot is row[0] / prev.  The pivot is the first
    nonzero diagonal entry.  When all leading minors are nonzero (mat
    definite, say) that is always the first remaining index: row i is then
    (U_ii, ..., U_i,n-1) of the fraction-free triangular factor, and U_ii
    the leading minor of size i + 1.
    Raises DegenerateError if the form has a radical.
    """
    a = [list(row) for row in mat]
    prev = 1
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i] != 0), None)
        if k is None:
            hit = next(((i, j) for i in range(n) for j in range(i + 1, n)
                        if a[i][j] != 0), None)
            if hit is None:
                raise DegenerateError("form is degenerate")
            i, j = hit
            # mix row/column j into i to create a nonzero diagonal entry
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            continue
        pivot_row = a[k]
        p = pivot_row[k]
        rest = [r for r in range(n) if r != k]
        yield prev, [p] + [pivot_row[j] for j in rest]
        a = [[(a[i][j] * p - a[i][k] * pivot_row[j]) // prev for j in rest]
             for i in rest]
        prev = p


def signature_and_det(mat) -> tuple[int, int, int]:
    """(n_plus, n_minus, det) of a symmetric integer matrix, in one elimination.

    A pivot counts as positive when it has the sign of the pivot before it.
    The last pivot is the determinant: the pair mixing and the pivot choice
    are unimodular congruences, which keep it.
    Raises DegenerateError if the form has a radical.
    """
    pos = neg = 0
    det = 1
    for prev, row in symmetric_bareiss(mat):
        det = row[0]
        if (det > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
    return pos, neg, det


def smith_normal_form(mat):
    """Smith normal form: returns (d, v), u*mat*v = diag(d) for some u.

    d is the list of diagonal entries (d[0] | d[1] | ...), all >= 0; u and
    v are unimodular, and u is not kept.  Works for any rectangular integer
    matrix.  Every operation runs once on the block matrix [[mat], [I_n]]
    (Cohen, GTM 138, 2.4.4), so the bottom block collects v.

    Only work whose result is read is done, so the operations and (d, v)
    are those of the full sweep: the pivot search (the first least |x| in
    row-major order) stops at a 1, which nothing undercuts; rows < t are
    zero in the columns >= t and rows >= t in the columns < t, so column
    swaps and operations touch rows >= t only (the v block included), row
    operations columns >= t only, and no column is swapped with itself;
    a pivot of 1 divides everything, so it gets no divisibility scan.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(row) for row in mat] + identity_matrix(n)

    t = 0
    while t < min(m, n):
        best, least = None, 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (not least or x < least):
                    best, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        pivot, top = a[t][t], a[t][t:]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                c = a[i][t] // pivot
                a[i][t:] = [x - c * y for x, y in zip(a[i][t:], top)]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, n):
            if a[t][j] != 0:
                c = a[t][j] // pivot
                for row in a[t:]:
                    row[j] -= c * row[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # pivot must divide every remaining entry for the d_i to chain
        witness = None if pivot == 1 else next(
            (i for i in range(t + 1, m) if any(a[i][j] % pivot for j in range(t + 1, n))),
            None)
        if witness is not None:
            a[t] = [x + y for x, y in zip(a[t], a[witness])]
            continue
        t += 1
    return [a[i][i] for i in range(min(m, n))], a[m:]


def unimodular_inverse(mat) -> list[list[int]]:
    """The integer inverse of a unimodular matrix: Euclid row operations
    take [mat | I] to [I | mat^-1], each pivot the column's gcd +-1."""
    n = len(mat)
    a = [list(row) + e for row, e in zip(mat, identity_matrix(n))]
    for t in range(n):
        for i in range(t + 1, n):
            while a[i][t]:
                c = a[t][t] // a[i][t]
                a[t], a[i] = a[i], [x - c * y for x, y in zip(a[t], a[i])]
        top = [x * a[t][t] for x in a[t]]
        a = [top if i == t else [x - row[t] * y for x, y in zip(row, top)]
             for i, row in enumerate(a)]
    return [row[n:] for row in a]


def integer_kernel(mat) -> list[list[int]]:
    """Basis of {z : mat @ z = 0} as a list of integer column vectors."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    d, v = smith_normal_form(mat)
    rank = sum(1 for x in d if x != 0)
    return [[v[r][j] for r in range(n)] for j in range(rank, n)]
