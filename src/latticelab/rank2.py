"""Definite rank-2 lattices: Gauss reduction, enumeration, isometries.

A Rank2Form stores the positive definite Gram matrix ((a,b),(b,c)) plus
a sign flag for negative definite forms.  The reduced shape is
-a < 2b <= a <= c with b >= 0 if a = c, i.e. one representative per
proper equivalence class; enumeration by determinant is complete for
that convention (bound 3b^2 <= det).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import CapExceededError, NotDefiniteError
from .lattice import GramLattice, build_lattice
from .shortvec import short_vectors

DET_CAP = 10**7  # rank2_enumerate walks O(det) steps: about 0.1 s at the cap


@dataclass(frozen=True, order=True)
class Rank2Form:
    a: int
    b: int
    c: int
    negative: bool = False

    def __post_init__(self):
        if self.a <= 0 or self.a * self.c - self.b * self.b <= 0:
            raise NotDefiniteError("rank-2 form must be definite")

    @property
    def det(self) -> int:
        return self.a * self.c - self.b * self.b

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return -a < 2 * b <= a <= c and (a != c or b >= 0)

    def positive_lattice(self) -> GramLattice:
        return build_lattice([[self.a, self.b], [self.b, self.c]])

    def signed_lattice(self) -> GramLattice:
        s = -1 if self.negative else 1
        return build_lattice([[s * self.a, s * self.b], [s * self.b, s * self.c]])

    def __str__(self):
        body = f"({self.a}^{self.b} {self.c})"
        return f"-{body}" if self.negative else body


def rank2_form_from_gram(gram) -> Rank2Form:
    """Classify a definite 2x2 Gram matrix into a signed Rank2Form."""
    latt = build_lattice(gram)
    if latt.rank != 2:
        raise NotDefiniteError("expected a 2x2 Gram matrix")
    if latt.signature == (2, 0):
        return Rank2Form(gram[0][0], gram[0][1], gram[1][1], negative=False)
    if latt.signature == (0, 2):
        return Rank2Form(-gram[0][0], -gram[0][1], -gram[1][1], negative=True)
    raise NotDefiniteError("rank-2 form must be definite")


def rank2_reduce(form: Rank2Form) -> Rank2Form:
    """Gauss reduction to the unique reduced representative of the proper class."""
    a, b, c = form.a, form.b, form.c
    while True:
        # translate b into (-a/2, a/2]
        k = (2 * b + a - 1) // (2 * a)
        if k:
            c = c + k * k * a - 2 * k * b
            b = b - k * a
        if a > c:
            a, b, c = c, -b, a
            continue
        if 2 * b == -a:
            b = -b  # boundary: translate by one step, proper move
            continue
        if a == c and b < 0:
            b = -b  # boundary rotation, proper move
        break
    return Rank2Form(a, b, c, negative=form.negative)


def rank2_enumerate(det: int, negative: bool = False) -> list[Rank2Form]:
    """All reduced even rank-2 forms with the given determinant and sign.

    Complete, duplicate free, lexicographic in (a, b, c).  Walks the reduced
    window (Cohen, GTM 138, Alg. 5.3.5): a = 2x, c = 2z, xz = m = (det + b^2)/4
    for b of det's parity (none if det = 1, 2 mod 4), max(1, b, 1 - b) <= x
    <= isqrt(m), x^2 = m only if b >= 0.  CapExceededError above DET_CAP.
    """
    if det < 1:
        raise NotDefiniteError("determinant must be positive")
    if det > DET_CAP:
        raise CapExceededError(f"determinant {det} exceeds cap {DET_CAP}")
    if det % 4 in (1, 2):
        return []
    bmax = isqrt(det // 3)
    found = []
    for b in range(-bmax + (bmax + det) % 2, bmax + 1, 2):
        m = (det + b * b) // 4
        for x in range(max(1, b, 1 - b), isqrt(m) + 1):
            if m % x == 0 and (b >= 0 or x * x != m):
                found.append((2 * x, b, 2 * (m // x)))
    return [Rank2Form(a, b, c, negative) for a, b, c in sorted(found)]


def rank2_isometries(form: Rank2Form) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (finite) isometry group of a definite rank-2 form, as 2x2 matrices.

    Matrices are returned as rows ((p, q), (r, s)) acting on column vectors.
    """
    latt = form.positive_lattice()
    g = [[form.a, form.b], [form.b, form.c]]
    cap = max(form.a, form.c)
    cols_a = short_vectors(latt, form.a, norm_cap=max(cap, 100))
    cols_c = short_vectors(latt, form.c, norm_cap=max(cap, 100))
    result = set()
    for u in [v for w in cols_a for v in (w, (-w[0], -w[1]))]:
        for w in [v for z in cols_c for v in (z, (-z[0], -z[1]))]:
            # columns u, w; demand P^T G P = G
            gu = [g[0][0] * u[0] + g[0][1] * u[1], g[1][0] * u[0] + g[1][1] * u[1]]
            if u[0] * gu[0] + u[1] * gu[1] != form.a:
                continue
            if w[0] * gu[0] + w[1] * gu[1] != form.b:
                continue
            gw = [g[0][0] * w[0] + g[0][1] * w[1], g[1][0] * w[0] + g[1][1] * w[1]]
            if w[0] * gw[0] + w[1] * gw[1] != form.c:
                continue
            result.add(((u[0], w[0]), (u[1], w[1])))
    return sorted(result)


# the order of a finite-order isometry with det 1, by its trace
_ORDER_BY_TRACE = {2: 1, -2: 2, 0: 4, 1: 6, -1: 3}


def rank2_automorphism_orders(form: Rank2Form) -> set[int]:
    """Orders of elements of the isometry group of the (definite) form.

    A finite-order 2x2 integer matrix of det -1 is a reflection (order 2);
    one of det 1 has its order fixed by its trace, 2 cos(2 pi / order).
    """
    return {2 if p * s - q * r == -1 else _ORDER_BY_TRACE[p + s]
            for (p, q), (r, s) in rank2_isometries(form)}
