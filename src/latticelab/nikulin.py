"""Existence and uniqueness criteria for even lattices (Nikulin).

even_lattice_exists decides whether an even lattice with prescribed
signature and discriminant form exists, reporting the first failed
condition; genus_exists is the same test on the form's canonical symbol:

  1. signature: sig(q) = n_plus - n_minus  (mod 8);
  2. ranks: n_plus, n_minus >= 0 and n_plus + n_minus >= l(A);
  3. for each odd p with n_plus + n_minus = l_p(A): the determinant class
     of the p-adic Jordan lattice must match (-1)^{n_minus} |A| up to
     p-adic squares;
  4. for p = 2 with n_plus + n_minus = l_2(A): the 2-adic determinant
     class must match |A| up to sign and 2-adic squares, unless the
     2-part splits off some q_a(2), in which case both determinant
     classes are realizable and the condition is vacuous.

The glue machinery and the sufficient uniqueness criterion for primitive
embeddings into even unimodular lattices live here too.  An even
overlattice of S + R in which S stays primitive has glue H <= A_S + A_R
isotropic with H meet A_S = 0: the graph {(gamma(x), x) : x in H_R} of a
homomorphism gamma: H_R -> A_S with q_S(gamma(x)) = -q_R(x) (Nikulin
1979, 1.4-1.5).  saturations_keeping_primitive finds these as graphs:
it searches the subgroups H_R of A_R whose elements r all have some s with
q_S(s) = -q_R(r), and lifts the generators of each into A_S.  H = 0 is
S + R itself, whose form is A_S + A_R with nothing to divide out; every
other H is glued by complement_quotient, once per pair {H, sigma(H)} for
the isometry sigma = -1 on A_S, 1 on A_R, which maps the graph of gamma to
the graph of -gamma.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul
from typing import NamedTuple

from .errors import BadSignatureError, CapExceededError
from .fqf import (
    BRUTE_CAP,
    FiniteQuadraticForm,
    Subgroup,
    _span,
    _subgroups_within,
    complement_quotient,
    negate_form,
    total_length,
)
from .symbol import GenusSymbol, _p_valuation, legendre, to_symbol

CONDITION_NAMES = {
    1: "signature mod 8",
    2: "rank vs generator count",
    3: "odd p-adic determinant",
    4: "2-adic determinant",
}


class LatticeInvariant(NamedTuple):
    n_plus: int
    n_minus: int
    form: FiniteQuadraticForm

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    def to_json_dict(self):
        return {"signature": [self.n_plus, self.n_minus],
                "form": str(to_symbol(self.form))}


class ExistenceVerdict(NamedTuple):
    exists: bool
    failed_condition: int | None = None
    detail: str = ""

    def __bool__(self):
        return self.exists

    def to_json_dict(self):
        return {"exists": self.exists,
                "failed_condition": self.failed_condition,
                "detail": self.detail}


def even_lattice_exists(inv: LatticeInvariant) -> ExistenceVerdict:
    """Decide existence of an even lattice with the given invariant."""
    return genus_exists(inv.n_plus, inv.n_minus, to_symbol(inv.form))


def genus_exists(n1: int, n2: int, sym: GenusSymbol) -> ExistenceVerdict:
    """Existence for signature (n1, n2) and the form of canonical symbol sym,
    reading every condition off sym; odd p are checked before p = 2."""
    if (n1 - n2 - sym.signature()) % 8 != 0:
        return ExistenceVerdict(False, 1, CONDITION_NAMES[1])
    cons = sym.per_prime()
    lens = {p: sum(c.n for c in cs) for p, cs in cons.items()}
    if n1 < 0 or n2 < 0 or n1 + n2 < max(lens.values(), default=0):
        return ExistenceVerdict(False, 2, CONDITION_NAMES[2])
    order = prod(c.scale ** c.n for c in sym.constituents)
    for p in sorted(lens):
        if p == 2:
            continue
        if n1 + n2 != lens[p]:
            continue
        unit = order // p ** _p_valuation(order, p)
        lhs = legendre(((-1) ** n2) * unit, p)
        if lhs != prod(c.eps for c in cons[p]):
            return ExistenceVerdict(False, 3, f"{CONDITION_NAMES[3]} at p={p}")
    odd_scale2 = any(c.k == 1 and not c.even for c in cons.get(2, ()))
    if 2 in lens and n1 + n2 == lens[2] and not odd_scale2:
        odd_part = order >> _p_valuation(order, 2)
        want_plus = odd_part % 8 in (1, 7)
        if want_plus != (prod(c.eps for c in cons[2]) == 1):
            return ExistenceVerdict(False, 4, CONDITION_NAMES[4])
    return ExistenceVerdict(True)


def unique_primitive_embedding(inv: LatticeInvariant,
                               target: tuple[int, int]) -> tuple[bool, str]:
    """Sufficient criterion for a unique primitive embedding into the even
    unimodular lattice of the target signature.

    A False answer means the criterion is silent, not that uniqueness fails.
    """
    l1, l2 = target
    if (l1 - l2) % 8 != 0:
        raise BadSignatureError("even unimodular target needs l1 = l2 mod 8")
    if not (l1 > inv.n_plus and l2 > inv.n_minus):
        return False, "criterion silent: strict signature inequalities fail"
    if l1 + l2 - inv.rank < total_length(inv.form) + 2:
        return False, "criterion silent: rank slack below l(A)+2"
    return True, "unique primitive embedding"


def primitive_embedding_into_even_unimodular_exists(
        inv: LatticeInvariant, target: tuple[int, int]):
    """Existence of a primitive embedding into II(target), via the complement.

    Returns (ExistenceVerdict, complement LatticeInvariant or None).
    """
    l1, l2 = target
    if (l1 - l2) % 8 != 0 or l1 < inv.n_plus or l2 < inv.n_minus:
        raise BadSignatureError("target signature incompatible with embedding")
    comp = LatticeInvariant(l1 - inv.n_plus, l2 - inv.n_minus,
                            negate_form(inv.form))
    verdict = even_lattice_exists(comp)
    return verdict, (comp if verdict.exists else None)


class SaturationWitness(NamedTuple):
    """One even overlattice of S + R with S still primitive.

    glue is the isotropic subgroup H of A_S + A_R with H meet A_S = 0;
    quotient is the induced form on H-perp/H (the overlattice's
    discriminant form); index = |H| is the overlattice index.  For index 1
    the quotient is A_S + A_R as the search presents it, q_S's generators
    then q_R's, not regrouped by prime.  A twin (see
    saturations_keeping_primitive) holds its partner's quotient object:
    isometric to complement_quotient on its own glue, not always equal to
    it integer for integer.
    """

    glue_gens: tuple
    index: int
    quotient: FiniteQuadraticForm

    @property
    def trivial(self) -> bool:
        """H = 0: the overlattice is S + R itself."""
        return self.index == 1

    def to_json_dict(self):
        return self._json_dict(str(to_symbol(self.quotient)))

    def _json_dict(self, quotient: str):
        return {"index": self.index,
                "glue": [list(g) for g in self.glue_gens],
                "quotient": quotient}


def saturations_keeping_primitive(q_s: FiniteQuadraticForm,
                                  q_r: FiniteQuadraticForm):
    """All isotropic H <= A_S + A_R with H meet A_S = 0, trivial H first.

    Such an H is the graph of a homomorphism gamma: K -> A_S on some
    K <= A_R with q_S(gamma(r)) = -q_R(r), so gamma(r) lies in the fibre
    over r: the s with q_S(s) = -q_R(r) and ord(s) | ord(r).  The subgroup
    search runs in A_R, on the r with a nonempty fibre.  For each K and its
    generating tuple (g_1, ..., g_t), a pick of s_i over each g_i with the
    s_i + g_i pairwise orthogonal under b spans an isotropic subgroup, kept
    when it has |K| elements: it is then the graph of a well-defined gamma,
    so it meets A_S trivially.  Distinct picks give distinct witnesses,
    sorted by (index, generators); a cyclic K keeps every pick.  K = 0 is
    H = 0, S + R itself: its witness takes A_S + A_R as its quotient, with
    no span and no glue.

    The other witnesses are glued in that order.  sigma = -1 on A_S, 1 on
    A_R is an isometry of A_S + A_R mapping the graph of gamma to the graph
    of -gamma and H-perp/H onto sigma(H)-perp/sigma(H), so a twin, a
    witness whose glue is sigma(H) for a witness H glued earlier, takes
    H's quotient object with no complement_quotient call: its own quotient
    up to isometry, so the same symbol, though its integers may differ.

    As ord(s) | ord(r) | e, the exponent of A_R, only A_S[e] = {s : e*s = 0}
    is walked: Z/gcd(d_1, e) x ... with q_S on (d_i / gcd(d_i, e)) e_i.
    """
    if q_s.order * q_r.order > BRUTE_CAP:
        raise CapExceededError(
            f"group order {q_s.order * q_r.order} exceeds cap {BRUTE_CAP}")
    total = q_s.direct_sum(q_r)
    e, n = q_r.exponent, q_s.level
    steps = [d // gcd(d, e) for d in q_s.orders]
    torsion = FiniteQuadraticForm._from_ints(
        [gcd(d, e) for d in q_s.orders], n,
        [v * c * c % (2 * n) for v, c in zip(q_s.qints, steps)],
        [[x * c * c2 % n for x, c2 in zip(row, steps)] for row, c in zip(q_s.bints, steps)])
    n_s, n_r = torsion.level, q_r.level
    # q_S(s) = -q_R(r) iff n_r*q_int(s) + n_s*q_int(r) = 0 mod 2*n_s*n_r
    by_q: dict[int, list] = {}
    for x, q, o in torsion.scan():
        by_q.setdefault(q * n_r, []).append((o, tuple(map(mul, x, steps))))
    fibres = {}
    for r, q, d in q_r.scan():
        for o, s in by_q.get(-q * n_s % (2 * n_s * n_r), ()):
            if d % o == 0:
                fibres.setdefault(r, []).append(s + r)
    subs = []
    for k_els, gens in _subgroups_within(q_r, frozenset(fibres)).items():
        if not gens:
            continue
        lifts = [()]
        for g in gens:
            lifts = [t + (x,) for t in lifts for x in fibres[g]
                     if not any(total.b_int(x, y) for y in t)]
        subs += [Subgroup._of_elements(total, els, t) for t in lifts
                 if len(els := _span(total, t)) == len(k_els)]
    subs.sort(key=lambda sub: (sub.order, sub.gens))
    witnesses, glued, d_s = [SaturationWitness((), 1, total)], {}, q_s.orders
    for sub in subs:
        twin = frozenset(tuple(-x % d for x, d in zip(h, d_s)) + h[len(d_s):]
                         for h in sub.elements)
        quot = glued[twin] if twin in glued else complement_quotient(total, sub)
        glued[sub.elements] = quot
        witnesses.append(SaturationWitness(sub.gens, sub.order, quot))
    return witnesses
