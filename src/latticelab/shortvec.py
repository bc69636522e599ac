"""Short vector enumeration in definite lattices.

Fincke-Pohst style search driven by an exact rational LDL^T
decomposition; each coordinate bound is an exact integer square root
of a scaled rational, so the enumeration is provably complete.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import IndefiniteLatticeError, NormCapExceededError, RankTooLargeError
from .exactmat import ldl_decomposition
from .lattice import GramLattice

RANK_CAP = 8
NORM_CAP = 100


def _int_range(center: Fraction, radius2: Fraction):
    """All integers x with (x - center)^2 <= radius2.

    With center = p/q and radius2 = a/b these are exactly the x with
    (q*x - p)^2 <= a*q^2/b, an integer inequality: |q*x - p| <= r for
    r = isqrt(a*q^2 // b).
    """
    if radius2 < 0:
        return range(0)
    p, q = center.numerator, center.denominator
    r = isqrt(radius2.numerator * q * q // radius2.denominator)
    return range(-((r - p) // q), (p + r) // q + 1)


def short_vectors(latt: GramLattice, norm: int,
                  rank_cap: int = RANK_CAP, norm_cap: int = NORM_CAP):
    """All v with v G v^T = norm, one representative of each {v, -v}.

    The lattice must be definite.  For a negative definite lattice the
    target norm must be negative.  Vectors are reported with the first
    nonzero coordinate positive, sorted lexicographically.
    """
    n = latt.rank
    if n > rank_cap:
        raise RankTooLargeError(f"rank {n} exceeds cap {rank_cap}")
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
    if target < 0:
        return []
    if target == 0:
        return []
    d, w = ldl_decomposition(gram)
    tgt = Fraction(target)
    found: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction):
        if i < 0:
            if remaining == 0:
                v = tuple(x)
                for c in v:
                    if c > 0:
                        found.append(v)
                        break
                    if c < 0:
                        break
            return
        center = -sum(w[i][j] * x[j] for j in range(i + 1, n))
        for xi in _int_range(center, remaining / d[i]):
            x[i] = xi
            descend(i - 1, remaining - d[i] * (Fraction(xi) - center) ** 2)
        x[i] = 0

    descend(n - 1, tgt)
    return sorted(found)


def has_vector_of_norm(latt: GramLattice, norm: int, **kw) -> bool:
    return bool(short_vectors(latt, norm, **kw))
