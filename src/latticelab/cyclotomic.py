"""Exact arithmetic with sums of roots of unity, and Gauss-sum signatures.

Elements of Z[zeta_N] are integer coefficient vectors indexed by powers
of zeta_N, i.e. polynomials mod x^N - 1; equality is decided modulo the
N-th cyclotomic polynomial.  This is enough to evaluate the Milgram
Gauss sum  sum_x exp(pi*i*q(x)) = sqrt(|A|) * zeta_8^sig  exactly:
sqrt(|A|) itself is expressed through classical quadratic Gauss sums, so
the whole comparison happens in Z[zeta_N] with no floating point.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .exactmat import factorize
from .fqf import FiniteQuadraticForm

GAUSS_ORDER_CAP = 4096
GAUSS_RING_CAP = 1440


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _poly_divide_exact(num, den):
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert den[dn] == 1
        out[i - dn] = c
        for j in range(dn + 1):
            num[i - dn + j] -= c * den[j]
    assert all(x == 0 for x in num)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _reduce_mod_phi(vec: list[int], n: int) -> tuple[int, ...]:
    phi = list(cyclotomic_polynomial(n))
    deg = len(phi) - 1
    v = list(vec)
    for i in range(len(v) - 1, deg - 1, -1):
        c = v[i]
        if c == 0:
            continue
        for j in range(deg + 1):
            v[i - deg + j] -= c * phi[j]
    return tuple(v[:deg])


class CyclotomicInt:
    """An element of Z[zeta_N] as a vector of coefficients of zeta_N^i."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int):
        self.n = n
        self.coeffs = [0] * n

    @staticmethod
    def integer(n: int, c: int) -> "CyclotomicInt":
        z = CyclotomicInt(n)
        z.coeffs[0] = c
        return z

    def add_root(self, e: int, c: int = 1):
        self.coeffs[e % self.n] += c

    def __sub__(self, other):
        z = CyclotomicInt(self.n)
        z.coeffs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return z

    def __mul__(self, other):
        if isinstance(other, int):
            z = CyclotomicInt(self.n)
            z.coeffs = [a * other for a in self.coeffs]
            return z
        n = self.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    k = i + j
                    out[k - n if k >= n else k] += a * b
        z = CyclotomicInt(n)
        z.coeffs = out
        return z

    def shifted(self, e: int) -> "CyclotomicInt":
        """Multiply by zeta_N^e."""
        n = self.n
        z = CyclotomicInt(n)
        for i, a in enumerate(self.coeffs):
            if a:
                z.coeffs[(i + e) % n] += a
        return z

    def is_zero(self) -> bool:
        return all(c == 0 for c in _reduce_mod_phi(self.coeffs, self.n))

    def __eq__(self, other):
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.n == other.n and (self - other).is_zero()


def _sqrt_as_cyclotomic(m: int, n: int) -> CyclotomicInt:
    """sqrt(m) in Z[zeta_n] for positive m whose primes divide n (and 8 | n)."""
    total = CyclotomicInt.integer(n, 1)
    base = 1
    for p, e in factorize(m).items():
        base *= p ** (e // 2)
        if e % 2 == 0:
            continue
        if p == 2:
            # sqrt(2) = zeta_8 + zeta_8^{-1}
            z = CyclotomicInt(n)
            z.add_root(n // 8)
            z.add_root(-(n // 8))
            total = total * z
        else:
            g = CyclotomicInt(n)
            step = n // p
            for x in range(p):
                g.add_root(step * ((x * x) % p))
            if p % 4 == 3:
                # G_p = i*sqrt(p); divide by i = zeta_4
                g = g.shifted(-(n // 4))
            total = total * g
    return total * base


def gauss_sum_signature(form: FiniteQuadraticForm) -> int:
    """Signature mod 8 read off the exact Gauss sum over all group elements.

    Raises ValueError when the group or the cyclotomic ring would be too
    large for the direct evaluation; callers fall back to the closed-form
    constituent computation in symbol.signature_mod8.
    """
    if form.order > GAUSS_ORDER_CAP:
        raise ValueError("group too large for direct Gauss sum")
    n = lcm(8, 2 * form.exponent)
    if n > GAUSS_RING_CAP:
        raise ValueError("cyclotomic ring too large for direct Gauss sum")
    s = CyclotomicInt(n)
    half = n // 2
    for x in form.elements():
        v = form.q(x)  # in [0, 2)
        e = v * half
        assert e.denominator == 1
        s.add_root(int(e))
    root_a = _sqrt_as_cyclotomic(form.order, n)
    for sig in range(8):
        if s == root_a.shifted(sig * (n // 8)):
            return sig
    raise AssertionError("Gauss sum did not match any eighth root direction")
