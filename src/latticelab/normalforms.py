"""Diagonal automorphisms of cubic fourfolds: weights and moduli counts.

A diagonal action 1/n(w1..w6) scales coordinate x_i by zeta_n^{w_i}.
The cubics preserved up to scalar lie in one weight class w0; the action
is symplectic exactly when w1+...+w6 = 2*w0 (mod n).  The dimension of
the corresponding family is the number of degree-3 monomials in the
prescribed class minus the dimension of the centralizer of the action
in GL(6), which for a diagonal (abelian) group is the sum of squared
multiplicities of the joint coordinate characters.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import MixedWeightClassesError


class _DiagonalFields(NamedTuple):
    order: int
    weights: tuple[int, int, int, int, int, int]
    w0: int = 0


class DiagonalAction(_DiagonalFields):
    """1/order (weights) on x1..x6 with cubics in weight class w0; the
    weights are stored reduced mod order."""

    __slots__ = ()

    def __new__(cls, order: int, weights, w0: int = 0):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        weights = tuple(w % order for w in weights)
        if len(weights) != 6:
            raise ValueError(f"expected 6 weights, got {len(weights)}")
        return tuple.__new__(cls, (order, weights, w0))

    def weight_of(self, monomial) -> int:
        return sum(w * a for w, a in zip(self.weights, monomial)) % self.order


# The 56 cubic monomials x_i x_j x_k as index triples i <= j <= k.
CUBIC_TRIPLES = tuple(itertools.combinations_with_replacement(range(6), 3))


def degree3_monomials():
    """Exponent 6-tuples of the 56 cubic monomials in x1..x6."""
    return invariant_monomials([])


def _invariant_triples(actions) -> list[tuple[int, int, int]]:
    """The triples (i, j, k) with w_i + w_j + w_k = w0 (mod n) for every
    action, in CUBIC_TRIPLES order."""
    kept = list(CUBIC_TRIPLES)
    for a in actions:
        w, n, w0 = a.weights, a.order, a.w0
        kept = [t for t in kept if (w[t[0]] + w[t[1]] + w[t[2]] - w0) % n == 0]
    return kept


def invariant_monomials(actions) -> list[tuple[int, ...]]:
    """Monomials lying in the prescribed weight class of every generator."""
    return [tuple(t.count(i) for i in range(6)) for t in _invariant_triples(actions)]


def symplectic_weight_check(action: DiagonalAction, monomials) -> bool:
    """True iff the diagonal action is symplectic on a cubic with the
    given monomials: all monomials must share one weight class w0 and
    |w| = 2*w0 (mod n)."""
    n = action.order
    classes = {action.weight_of(m) for m in monomials}
    if len(classes) > 1:
        raise MixedWeightClassesError(
            f"monomials span several weight classes mod {n}: {sorted(classes)}")
    w0 = classes.pop() if classes else action.w0 % n
    return (sum(action.weights) - 2 * w0) % n == 0


def centralizer_dimension(actions) -> int:
    """dim of the centralizer in GL(6) of a diagonal abelian group."""
    chars = [tuple(a.weights[i] % a.order for a in actions) for i in range(6)]
    dim = 0
    for c in set(chars):
        m = chars.count(c)
        dim += m * m
    return dim


def family_dimension(actions) -> int:
    """Moduli dimension of cubics with the given diagonal symmetry.

    Accepts a single DiagonalAction or an iterable of them (an abelian
    diagonal group given by generators, each with its own weight class).
    """
    actions = [actions] if isinstance(actions, DiagonalAction) else list(actions)
    return len(_invariant_triples(actions)) - centralizer_dimension(actions)
