"""Short vector enumeration in definite lattices.

Fincke-Pohst search on integers only.  The fraction-free (Bareiss) rows U
of the Gram matrix, with leading minors D_0 = 1 and D_{i+1} = U_ii, give
q(x) = sum_i t_i^2 / (D_i * D_{i+1}) with t_i = sum_{j >= i} U_ij * x_j.
Scaled by M = lcm_i(D_i * D_{i+1}), the norm left for the coordinates
x_0, ..., x_i is an integer R, and level i needs K_i * t_i^2 <= R with
K_i = M / (D_i * D_{i+1}): the exact integer bound |t_i| <= isqrt(R // K_i),
so the enumeration is provably complete.  Since v and -v have the same
norm, the search descends only with the last nonzero coordinate positive,
half the tree, and turns each vector found to its first nonzero
coordinate positive.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul

from .errors import IndefiniteLatticeError, NormCapExceededError, RankTooLargeError
from .exactmat import symmetric_bareiss
from .lattice import GramLattice

RANK_CAP = 8
NORM_CAP = 100


def short_vectors(latt: GramLattice, norm: int, norm_cap: int = NORM_CAP):
    """All v with v G v^T = norm, one representative of each {v, -v}.

    The lattice must be definite.  For a negative definite lattice the
    target norm must be negative.  Vectors are reported with the first
    nonzero coordinate positive, sorted lexicographically.
    """
    n = latt.rank
    if n > RANK_CAP:
        raise RankTooLargeError(f"rank {n} exceeds cap {RANK_CAP}")
    if abs(norm) > norm_cap:
        raise NormCapExceededError(f"|norm| {abs(norm)} exceeds cap {norm_cap}")
    pos, neg = latt.signature
    if pos and neg:
        raise IndefiniteLatticeError("short vectors need a definite lattice")
    flip = neg == latt.rank
    gram = latt.gram_rows()
    target = norm
    if flip:
        gram = [[-x for x in row] for row in gram]
        target = -norm
    if target <= 0:
        return []
    # definite: the pivots are the leading minors, in order, so
    # rows[i] = (U_ii, U_i,i+1, ..., U_i,n-1)
    rows = [row for _, row in symmetric_bareiss(gram)]
    minors = [1] + [row[0] for row in rows]
    scale = [minors[i] * minors[i + 1] for i in range(n)]
    m = lcm(*scale)
    k = [m // s for s in scale]
    found: list[tuple[int, ...]] = []
    x = [0] * n

    # v and -v give the same norm, so descend only with the last nonzero
    # coordinate positive: x_i >= 0 while every x_j, j > i, is zero
    def descend(i: int, rem: int, top: bool):
        row = rows[i]
        u = row[0]
        p = sum(map(mul, row[1:], x[i + 1:]))
        if i == 0:
            # the last coordinate must use up the norm: K_0 * t_0^2 == R
            s2, off = divmod(rem, k[0])
            s = isqrt(s2)
            if off or s * s != s2:
                return
            # under top, p == 0 and t = -s would give x_0 <= 0
            for t in (s,) if top or not s else (s, -s):
                x0, off = divmod(t - p, u)
                if off == 0:
                    v = (x0, *x[1:])
                    if next(filter(None, v)) < 0:
                        v = tuple(-c for c in v)
                    found.append(v)
            return
        r = isqrt(rem // k[i])
        lo = 0 if top else -((r + p) // u)
        for xi in range(lo, (r - p) // u + 1):
            t = u * xi + p
            x[i] = xi
            descend(i - 1, rem - k[i] * t * t, top and xi == 0)
        x[i] = 0

    descend(n - 1, m * target, True)
    return sorted(found)
