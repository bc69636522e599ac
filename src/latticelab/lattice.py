"""Integral lattices presented by symmetric Gram matrices.

A GramLattice is immutable; rank, signature, determinant and parity are
computed exactly at construction.  The registry knows the standard root
lattices (Cartan-matrix conventions), the hyperbolic plane U, the odd and
even unimodular lattices I(p,q) / II(p,q), and the named lattices used by
the classification pipelines.
"""

from __future__ import annotations

import re
from math import prod

from .errors import (
    DegenerateError,
    NonSymmetricError,
    UnknownLatticeError,
    ZeroScaleError,
)
from .exactmat import is_symmetric, signature_and_det
from .records import FrozenRecord


class GramLattice(FrozenRecord):
    """An integral lattice given by a symmetric nondegenerate Gram matrix.

    Equality and hash read the Gram matrix alone; signature, det and even
    are derived from it."""

    __slots__ = ("gram", "signature", "det", "even")
    _compared = ("gram",)

    def __init__(self, gram: tuple[tuple[int, ...], ...], signature: tuple[int, int],
                 det: int, even: bool):
        self._init(gram, signature, det, even)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def n_plus(self) -> int:
        return self.signature[0]

    @property
    def n_minus(self) -> int:
        return self.signature[1]

    def gram_rows(self) -> list[list[int]]:
        return [list(row) for row in self.gram]

    def __repr__(self):
        return (f"GramLattice(rank={self.rank}, signature={self.signature}, "
                f"det={self.det}, {'even' if self.even else 'odd'})")

    def to_json_dict(self) -> dict:
        return {"gram": self.gram_rows()}


def build_lattice(gram) -> GramLattice:
    """Validate a Gram matrix and compute the cached invariants."""
    rows = [list(map(int, row)) for row in gram]
    if not rows:
        raise DegenerateError("empty Gram matrix")
    if not is_symmetric(rows):
        raise NonSymmetricError("Gram matrix must be symmetric")
    try:
        n_plus, n_minus, det = signature_and_det(rows)
    except DegenerateError:
        raise DegenerateError("Gram matrix is degenerate") from None
    even = all(rows[i][i] % 2 == 0 for i in range(len(rows)))
    return GramLattice(tuple(tuple(r) for r in rows), (n_plus, n_minus), det, even)


def lattice_from_json_dict(data) -> GramLattice:
    """A lattice from a `name` entry (with an optional `scale`) or, failing
    that, a `gram` entry; the name wins when both are present."""
    if "name" in data:
        return named_lattice(data["name"], data.get("scale", 1))
    if "gram" in data:
        return build_lattice(data["gram"])
    raise UnknownLatticeError("expected a 'gram' or 'name' key")


def direct_sum(*lattices: GramLattice) -> GramLattice:
    """Orthogonal (block diagonal) sum, read off its summands with no
    elimination: signatures add, determinants multiply, even iff each is."""
    if not lattices:
        raise DegenerateError("empty Gram matrix")
    total, gram = sum(latt.rank for latt in lattices), []
    for latt in lattices:
        off = len(gram)
        gram += [(0,) * off + row + (0,) * (total - off - latt.rank) for row in latt.gram]
    return GramLattice(tuple(gram), tuple(map(sum, zip(*(latt.signature for latt in lattices)))),
                       prod(latt.det for latt in lattices), all(latt.even for latt in lattices))


def rescale(latt: GramLattice, n: int) -> GramLattice:
    """L(n): multiply the bilinear form by the nonzero integer n."""
    if n == 0:
        raise ZeroScaleError("rescaling factor must be nonzero")
    return build_lattice([[n * x for x in row] for row in latt.gram])


def _chain_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _root_gram(n, edges):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def _gram_A(n):
    return _root_gram(n, _chain_edges(n))


def _gram_D(n):
    if n < 3:
        raise UnknownLatticeError("D_n needs n >= 3")
    edges = _chain_edges(n - 1) + [(n - 3, n - 1)]
    return _root_gram(n, edges)


def _gram_E(n):
    if n not in (6, 7, 8):
        raise UnknownLatticeError("E_n needs n in {6, 7, 8}")
    # chain 0-1-2-3-...-(n-2), extra node n-1 attached to node 2
    edges = _chain_edges(n - 1) + [(2, n - 1)]
    return _root_gram(n, edges)


_U_GRAM = [[0, 1], [1, 0]]

# A registry name expands into an n x n Gram matrix; this caps n before any
# matrix is built.  The largest name the tables use is II(26,2), rank 28.
NAMED_RANK_CAP = 64

_NAME_RE = re.compile(r"^(A|D|E)(\d{1,9})$")
_SIG_RE = re.compile(r"^(I|II)\((\d{1,9}),(\d{1,9})\)$")


def _blocks(*grams):
    return direct_sum(*(build_lattice(g) for g in grams))


def _check_rank(name: str, rank: int) -> None:
    if rank > NAMED_RANK_CAP:
        raise UnknownLatticeError(
            f"{name!r} has rank {rank}, above the registry cap {NAMED_RANK_CAP}")


def named_lattice(name: str, scale: int = 1) -> GramLattice:
    """Look up a standard lattice by name, optionally rescaled by `scale`.

    Recognized names: An, Dn, E6, E7, E8, U, I(p,q), II(p,q),
    Borcherds (= E8^3 + U^2), Lambda0 (= A2 + E8^2 + U^2), Lambda2, Lambda6.
    An, Dn, I(p,q) and II(p,q) of rank above NAMED_RANK_CAP are refused.
    """
    key = name.strip()
    base = None
    m = _NAME_RE.match(key)
    if m:
        kind, n = m.group(1), int(m.group(2))
        _check_rank(name, n)
        if kind == "A":
            base = build_lattice(_gram_A(n))
        elif kind == "D":
            base = build_lattice(_gram_D(n))
        else:
            base = build_lattice(_gram_E(n))
    elif key == "U":
        base = build_lattice(_U_GRAM)
    else:
        m = _SIG_RE.match(key.replace(" ", ""))
        if m:
            parity, p, q = m.group(1), int(m.group(2)), int(m.group(3))
            _check_rank(name, p + q)
            if parity == "I":
                g = [[0] * (p + q) for _ in range(p + q)]
                for i in range(p):
                    g[i][i] = 1
                for i in range(p, p + q):
                    g[i][i] = -1
                base = build_lattice(g)
            else:
                if (p - q) % 8 != 0 or p < q:
                    raise UnknownLatticeError(
                        f"II({p},{q}) needs p >= q and p = q mod 8")
                parts = [_gram_E(8)] * ((p - q) // 8) + [_U_GRAM] * q
                base = _blocks(*parts)
        elif key == "Borcherds":
            base = _blocks(_gram_E(8), _gram_E(8), _gram_E(8), _U_GRAM, _U_GRAM)
        elif key == "Lambda0":
            base = _blocks(_gram_A(2), _gram_E(8), _gram_E(8), _U_GRAM, _U_GRAM)
        elif key == "Lambda2":
            base = _blocks([[2]], _gram_E(8), _gram_E(8), _U_GRAM, _U_GRAM)
        elif key == "Lambda6":
            base = _blocks([[6]], _gram_E(8), _gram_E(8), _U_GRAM, _U_GRAM)
    if base is None:
        raise UnknownLatticeError(f"unknown lattice name {name!r}")
    return rescale(base, scale) if scale != 1 else base
