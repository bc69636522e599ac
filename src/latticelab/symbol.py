"""Conway-Sloane genus symbols for finite quadratic forms.

A finite quadratic form splits (per prime) into an orthogonal sum of
cyclic forms (Z/p^k, 2a/p^k) for odd p, cyclic forms (Z/2^k, a/2^k) with
a odd, and the two even rank-2 blocks u(2^k), v(2^k).  The summands of
one scale add up to a Jordan constituent (scale, rank, sign; type and
oddity at p = 2).  The splitting is the classical p-adic diagonalisation
done on the form's integer values (jordan_constituents): it reads each
p-part off the form's own generators, projects onto orthogonal
complements by integer row operations, with no Smith normal form, and
sums each summand's rank, determinant class and unit into the
constituent of its scale.  It raises DegenerateError on a form with a
radical.

Two complications are handled here:

* For p = 2 the constituent data is only unique up to *oddity fusion*
  inside compartments and *sign walking* along trains, plus the extra
  scale-2 identification q_a(2) = q_{a+4}(2).  to_symbol() therefore
  canonicalizes to the least symbol those moves reach, found in one pass
  up the scales (_canonical_two_adic), so isomorphic forms print
  identically.
* The Milgram signature is summed from the constituents' Gauss sum
  arguments (classical closed forms); the cyclotomic module re-derives
  it by direct summation for cross-checking.

Two steps are cached per process, each keeping at most JORDAN_CACHE_SIZE
results, least recently used first out: the split of one p-part
(_split_primary), keyed by its integer data (p, level, orders, qs, gs),
and the canonical 2-adic constituents (_canonical_two_adic), keyed by the
constituent tuple in scale order.  Both are pure functions of integer
tuples and return tuples of NamedTuples, so a cached result cannot
change and every symbol is the same whatever the caches hold; the forms
of one table share most of their p-parts.  clear_jordan_caches empties
both; a form keeps no symbol data of its own.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import CapExceededError, DegenerateError, RealizabilityError, SymbolSyntaxError
from .exactmat import factorize
from .fqf import FiniteQuadraticForm, direct_sum_forms, trivial_form

# results kept by each of _split_primary and _canonical_two_adic per process
JORDAN_CACHE_SIZE = 1024

# -- legendre symbol -------------------------------------------------------


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _det_class_2(a: int) -> int:
    """Sign of an odd 2-adic unit: +1 for 1,7 mod 8; -1 for 3,5 mod 8."""
    return 1 if a % 8 in (1, 7) else -1


# -- constituents ------------------------------------------------------------


class JordanConstituent(NamedTuple):
    """One Jordan constituent: scale p^k, rank n, sign eps; type/oddity at p=2."""

    p: int
    k: int
    n: int
    eps: int            # +1 or -1
    even: bool = True   # always True for odd p (field unused there)
    oddity: int = 0     # trace mod 8, only meaningful for p = 2 odd type

    @property
    def scale(self) -> int:
        return self.p ** self.k


# -- orthogonal splitting into Jordan constituents ---------------------------


def _p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _pivot(p: int, level: int, orders, qs, gs):
    """The next orthogonal summand: basis indices, scale exponent, det class, unit.

    Odd p: a top-order basis element x with q(x) of exact denominator
    ord(x); failing that some g_i + g_j of top order is one, and it
    replaces g_i in the basis (qs[i] and the row gs[i] are updated in
    place: the split step reads only the pivot's row).  Its determinant
    class is the Legendre symbol of 2a, q(x) = 2a/p^k.  p = 2: the
    highest-order odd-valued basis element x, q(x) = a/2^k (cross terms
    2*b can never make an odd value), with the odd unit a; failing that
    a top-order x with a y such that b(x, y) has exact denominator ord(x),
    spanning an even block u or v of determinant class +1 or -1.  The unit
    is None for every summand but the odd 2-adic ones.  No pivot means a
    radical: DegenerateError.
    """
    top = max(orders)
    s = level // top
    tops = [i for i, o in enumerate(orders) if o == top]
    if p != 2:
        x = next((i for i in tops if qs[i] // s % p), None)
        if x is None:
            i, j = next(((i, j) for i in tops for j in tops
                         if i < j and gs[i][j] // s % p), (None, None))
            if i is None:
                raise DegenerateError(f"form is degenerate at p={p}")
            qs[i] = (qs[i] + qs[j] + 2 * gs[i][j]) % (2 * level)
            row = [(a + b) % level for a, b in zip(gs[i], gs[j])]
            row[i] = qs[i] % level
            gs[i] = row
            x = i
        return [x], _p_valuation(top, p), legendre(qs[x] // s, p), None
    odd = [i for i, o in enumerate(orders) if qs[i] // (level // o) % 2]
    if odd:
        x = max(odd, key=lambda i: orders[i])
        o = orders[x]
        a = qs[x] // (level // o)
        return [x], _p_valuation(o, 2), _det_class_2(a), a
    x = tops[0]
    y = next((j for j in tops if j != x and gs[x][j] // s % 2), None)
    if y is None:
        raise DegenerateError("form is degenerate at p=2")
    alpha, beta, gamma = qs[x] // s // 2, qs[y] // s // 2, gs[x][y] // s
    det = 4 * alpha * beta - gamma * gamma  # odd unit
    return [x, y], _p_valuation(top, 2), _det_class_2(det), None


@lru_cache(maxsize=JORDAN_CACHE_SIZE)
def _split_primary(p: int, level: int, orders, qs, gs) -> tuple[JordanConstituent, ...]:
    """Split a p-group form, given on a basis, into its Jordan constituents,
    in scale order.

    Each step splits off the pivot summand <xs> and replaces every other
    basis element g by its projection g - sum_a c_a x_a onto xs-perp,
    c = M^-1 (ord(x)*b(x_a, g))_a mod ord(x) with M = ord(x)*b(xs, xs), in
    closed form (a pair by its adjugate).  c_a x_a has order dividing
    ord(g), and the orders of the projections multiply to |A|/|<xs>|, so
    they are again a basis of the complement.
    The summands of one scale add up to its constituent: ranks add,
    determinant classes multiply and the odd 2-adic units sum to the
    oddity, none of which depends on the order of the summands.
    """
    qs, gs = list(qs), list(gs)  # _pivot replaces entries in place
    acc: dict[int, tuple] = {}  # k -> (rank, det class, unit sum or None)
    while orders:
        xs, k, eps, unit = _pivot(p, level, orders, qs, gs)
        n0, eps0, t0 = acc.get(k, (0, 1, None))
        acc[k] = (n0 + len(xs), eps0 * eps,
                  t0 if unit is None else (t0 or 0) + unit)
        x, y = xs[0], xs[-1]
        o, gx, gy, n2 = orders[x], gs[x], gs[y], 2 * level
        s = level // o
        rest = [g for g in range(len(orders)) if g not in xs]
        if x == y:
            inv = pow(gx[x] // s, -1, o)
            cs = [inv * (gx[g] // s) % o for g in rest]
            qs = [(qs[g] + c * (c * qs[x] - 2 * gx[g])) % n2 for g, c in zip(rest, cs)]
            gs = [[(gs[g][h] - c * gx[h]) % level for h in rest] for g, c in zip(rest, cs)]
        else:
            m00, m01, m10, m11 = gx[x] // s, gx[y] // s, gy[x] // s, gy[y] // s
            inv = pow(m00 * m11 - m01 * m10, -1, o)
            cs = [(inv * (m11 * (gx[g] // s) - m01 * (gy[g] // s)) % o,
                   inv * (m00 * (gy[g] // s) - m10 * (gx[g] // s)) % o) for g in rest]
            qs = [(qs[g] + c0 * (c0 * qs[x] - 2 * gx[g] + 2 * c1 * gx[y])
                   + c1 * (c1 * qs[y] - 2 * gy[g])) % n2 for g, (c0, c1) in zip(rest, cs)]
            gs = [[(gs[g][h] - c0 * gx[h] - c1 * gy[h]) % level for h in rest]
                  for g, (c0, c1) in zip(rest, cs)]
        orders = [orders[g] for g in rest]
    return tuple(JordanConstituent(p, k, n, eps, even=t is None,
                                   oddity=0 if t is None else t % 8)
                 for k, (n, eps, t) in sorted(acc.items()))


def clear_jordan_caches() -> None:
    """Empty the caches of _split_primary and _canonical_two_adic, as a
    fresh process has them; a form keeps its walk and, once glued over, its
    p-part blocks, so only forms built after the call start from nothing."""
    _split_primary.cache_clear()
    _canonical_two_adic.cache_clear()


def jordan_constituents(
        form: FiniteQuadraticForm) -> dict[int, dict[int, JordanConstituent]]:
    """The Jordan constituents of the form, {p: {k: JordanConstituent}}.

    This is the one decomposition behind every invariant in this module:
    to_symbol() is its only caller, and the lengths, determinant classes
    and signature are all read off the symbol.  Each p-part's key is read
    off the form's own generators (FiniteQuadraticForm._part) and split by
    integer row operations on its values (the classical p-adic
    diagonalisation, SPLAG ch. 15); no re-presentation or Smith normal
    form is needed, and the form keeps nothing of it.  At p = 2
    the constituents are not yet canonical (see _canonical_two_adic).
    Raises DegenerateError when the form is degenerate.
    """
    return {p: {c.k: c for c in _split_primary(p, *form._part(p)[1])}
            for p in form.primes()}


# -- realizability -----------------------------------------------------------


@lru_cache(maxsize=None)
def realizable_pairs(n: int) -> frozenset[tuple[int, int]]:
    """(eps, oddity) pairs realizable by n odd 2-adic units."""
    states = {(1, 0)}
    for _ in range(n):
        states = {(e * _det_class_2(a), (t + a) % 8)
                  for (e, t) in states for a in (1, 3, 5, 7)}
    return frozenset(states)


@lru_cache(maxsize=None)
def _oddities(eps: int, n: int) -> tuple[int, ...]:
    """The oddities t, ascending, with (eps, t) realizable by n odd units."""
    return tuple([t for t in range(8) if (eps, t) in realizable_pairs(n)])


def constituent_is_realizable(c: JordanConstituent) -> bool:
    """Whether a 2-adic constituent of rank n >= 1 is realizable."""
    if c.even:
        return c.n % 2 == 0 and c.oddity == 0
    return (c.eps, c.oddity % 8) in realizable_pairs(c.n)


# -- 2-adic canonicalization --------------------------------------------------


@lru_cache(maxsize=JORDAN_CACHE_SIZE)
def _canonical_two_adic(
        constituents: tuple[JordanConstituent, ...]) -> tuple[JordanConstituent, ...]:
    """Canonical 2-adic constituents, in scale order, under fusion/walking moves.

    Odd-type constituents at adjacent scales form a compartment, which
    fixes only the sum of their oddities mod 8 (oddity fusion).  A walk
    between consecutive present scales at distance 1, at least one of them
    odd, or at distance 2, both odd, flips both signs and adds 4 to the
    oddity of each odd end's compartment, once if both ends share one.
    The scale-2 move (q_a(2) = q_{a+4}(2)), when scale 2 is odd, flips its
    sign and adds 4 to its compartment.  The moves commute and undo
    themselves, so the orbit is every set of moves; the canonical symbol
    is the least rendering over all of them, keyed by (sign, oddity) scale
    by scale, each compartment split into its least realizable oddities.

    One pass up the scales finds it.  Past a scale, what the rest of the
    symbol can be depends only on a state (x, r): whether the walk to the
    next scale is taken, and the oddity still owed by a compartment running
    on into the next scale (None if there is none).  The pass keeps the
    least key prefix reaching each state, at most 18 per scale, where the
    orbit of m moves has 2^m sets.
    """
    best = {(0, None): ()}
    for c, nxt in zip(constituents, constituents[1:] + (None,)):
        odd = not c.even
        gap = nxt.k - c.k if nxt else 0
        runs_on = odd and gap == 1 and not nxt.even
        walk = nxt is not None and (gap == 1 and (odd or not nxt.even)
                                    or gap == 2 and odd and not nxt.even)
        reached = {}
        for (x_in, r), prefix in best.items():
            for x in (0, 1)[:1 + walk]:
                for s in (0, 1)[:1 + (odd and c.k == 1)]:
                    eps = -c.eps if (x_in + x + s) % 2 else c.eps
                    if not odd:
                        steps = [(0, None)]
                    else:
                        owed = (4 * x_in if r is None else r) + c.oddity + 4 * (x + s)
                        steps = [(t, (owed - t) % 8 if runs_on else None)
                                 for t in _oddities(eps, c.n)
                                 if runs_on or (owed - t) % 8 == 0]
                    for t, left in steps:
                        key = prefix + ((eps < 0, t),)
                        if reached.get((x, left), key) >= key:
                            reached[x, left] = key
        best = reached
    if not best:
        raise RealizabilityError("no realizable oddity distribution found")
    return tuple(JordanConstituent(2, c.k, c.n, -1 if minus else 1, even=c.even, oddity=t)
                 for c, (minus, t) in zip(constituents, min(best.values())))


# -- the genus symbol ---------------------------------------------------------


class GenusSymbol(NamedTuple):
    """Canonical Conway-Sloane symbol: tuple of constituents grouped by prime."""

    constituents: tuple[JordanConstituent, ...]

    def per_prime(self) -> dict[int, list[JordanConstituent]]:
        out: dict[int, list[JordanConstituent]] = {}
        for c in self.constituents:
            out.setdefault(c.p, []).append(c)
        return out

    def signature(self) -> int:
        """Milgram signature mod 8 by the oddity formula (SPLAG ch. 15); sign
        walking and oddity fusion leave it unchanged."""
        total = 0
        for c in self.constituents:
            if c.p == 2:
                total += c.oddity
                if c.eps < 0 and c.k % 2 == 1:
                    total += 4
            else:
                if c.p % 4 == 3 and c.k % 2 == 1:
                    total += 2 * c.n
                if (c.eps ** c.k) * (legendre(2, c.p) ** (c.n * c.k)) < 0:
                    total += 4
        return total % 8

    def __str__(self):
        if not self.constituents:
            return "1^+0"
        parts = []
        for c in self.constituents:
            sign = "+" if c.eps > 0 else "-"
            if c.p == 2:
                tag = "II" if c.even else str(c.oddity % 8)
                parts.append(f"{c.scale}_{tag}^{sign}{c.n}")
            else:
                parts.append(f"{c.scale}^{sign}{c.n}")
        return " ".join(parts)


def to_symbol(form: FiniteQuadraticForm) -> GenusSymbol:
    """Canonical genus symbol; isomorphic forms yield identical symbols."""
    cons = jordan_constituents(form)
    out = []
    for p in sorted(cons):
        by_scale = tuple(cons[p][k] for k in sorted(cons[p]))
        out.extend(_canonical_two_adic(by_scale) if p == 2 else by_scale)
    return GenusSymbol(tuple(out))


# parse_symbol refuses a total rank above this before building anything; tests use up to 13.
SYMBOL_RANK_CAP = 64

_TOKEN_RE = re.compile(
    r"^(?P<scale>\d{1,100})(?:_(?P<tag>II|[0-7]))?\^(?P<sign>[+-])(?P<rank>\d{1,100})$")


def _prime_power(scale: int):
    fac = factorize(scale)
    if len(fac) != 1:
        return None
    return next(iter(fac.items()))


def parse_symbol(text: str) -> GenusSymbol:
    """Parse the documented grammar and validate realizability.

    Constituents are space separated; odd p: "9^+1"; p = 2 odd type:
    "4_5^-1"; p = 2 even type: "2_II^-2".  "1^+0" and "" mean trivial.
    """
    text = text.strip()
    cons: list[JordanConstituent] = []
    if text in ("", "1^+0"):
        return GenusSymbol(())
    seen = set()
    total_rank = 0
    for token in text.split():
        m = _TOKEN_RE.match(token)
        shown = repr(token) if len(token) <= 40 else \
            f"{token[:24]!r}... ({len(token)} characters)"
        if not m:
            raise SymbolSyntaxError(f"bad constituent {shown}")
        scale = int(m.group("scale"))
        sign = 1 if m.group("sign") == "+" else -1
        rank = int(m.group("rank"))
        total_rank += rank
        if total_rank > SYMBOL_RANK_CAP:
            raise CapExceededError(f"symbol rank {total_rank} exceeds cap {SYMBOL_RANK_CAP}")
        if scale == 1:
            if rank != 0 or sign != 1:
                raise SymbolSyntaxError("scale 1 must be the trivial '1^+0'")
            continue
        pk = _prime_power(scale)
        if pk is None:
            raise SymbolSyntaxError(f"scale {scale} is not a prime power")
        p, k = pk
        if p == 2:
            tag = m.group("tag")
            if tag is None:
                raise SymbolSyntaxError(f"2-adic constituent {shown} needs a type tag")
            even = tag == "II"
            oddity = 0 if even else int(tag)
            c = JordanConstituent(2, k, rank, sign, even=even, oddity=oddity)
        else:
            if m.group("tag") is not None:
                raise SymbolSyntaxError(f"odd constituent {shown} cannot carry a tag")
            c = JordanConstituent(p, k, rank, sign)
        if rank == 0:
            raise RealizabilityError("rank 0 constituents must be omitted")
        if (p, k) in seen:
            raise SymbolSyntaxError(f"duplicate scale {scale}")
        seen.add((p, k))
        if p == 2 and not constituent_is_realizable(c):
            raise RealizabilityError(f"constituent {shown} violates the "
                                     "2-adic sign/oddity constraints")
        cons.append(c)
    cons.sort(key=lambda c: (c.p, c.k))
    return GenusSymbol(tuple(cons))


# -- building a form from a symbol --------------------------------------------


def _odd_unit_multiset(n: int, eps: int, t: int):
    """The smallest list of n odd residues mod 8 with total sign eps and
    trace t, or None.  Greedy: each unit is the smallest whose remainder is
    realizable by the units left.  A smallest list is sorted (sorting any
    list makes it no larger), so this is the smallest sorted one."""
    if (eps, t % 8) not in realizable_pairs(n):
        return None
    units = []
    for left in range(n - 1, -1, -1):
        a = next(a for a in (1, 3, 5, 7)
                 if (eps * _det_class_2(a), (t - a) % 8) in realizable_pairs(left))
        units.append(a)
        eps *= _det_class_2(a)
        t -= a
    return units


def form_from_symbol(sym: GenusSymbol) -> FiniteQuadraticForm:
    """A finite quadratic form realizing the symbol."""
    parts = []
    for c in sym.constituents:
        scale = c.scale
        if c.p != 2:
            # n-1 square units and one unit fixing the total sign;
            # (Z/p^k, 2a/p^k) stores q as the integer 2a over level p^k
            need_last = c.eps
            qints = []
            for i in range(c.n):
                want = 1 if i < c.n - 1 else need_last
                a = next(a for a in range(1, scale)
                         if gcd(a, c.p) == 1 and legendre(2 * a % c.p, c.p) == want)
                qints.append(2 * a)
            parts.append(_diagonal_form(scale, qints))
        elif c.even:
            blocks = c.n // 2
            kinds = ["u"] * blocks
            if c.eps < 0:
                kinds[0] = "v"
            for kind in kinds:
                parts.append(_uv_form(c.k, kind))
        else:
            units = _odd_unit_multiset(c.n, c.eps, c.oddity)
            if units is None:
                raise RealizabilityError(f"constituent {c} is not realizable")
            parts.append(_diagonal_form(scale, units))
    return direct_sum_forms(*parts) if parts else trivial_form()


def _diagonal_form(scale: int, qints) -> FiniteQuadraticForm:
    """Orthogonal sum of the cyclic forms (Z/scale, v/scale), v in qints."""
    n = len(qints)
    qints = [v % (2 * scale) for v in qints]
    bints = [[qints[i] % scale if i == j else 0 for j in range(n)]
             for i in range(n)]
    return FiniteQuadraticForm._from_ints([scale] * n, scale, qints, bints)


def _uv_form(k: int, kind: str) -> FiniteQuadraticForm:
    """u(2^k) (q = 0, 0) or v(2^k) (q = 2/2^k, 2/2^k), with b(e_1, e_2) = 1/2^k."""
    scale = 2 ** k
    q = 0 if kind == "u" else 2
    return FiniteQuadraticForm._from_ints(
        [scale, scale], scale, [q, q], [[q % scale, 1], [1, q % scale]])


def form_from_symbol_text(text: str) -> FiniteQuadraticForm:
    return form_from_symbol(parse_symbol(text))


# -- signature ----------------------------------------------------------------


def signature_mod8(form: FiniteQuadraticForm) -> int:
    """Milgram signature: sig(q_L) = n_plus - n_minus mod 8 for even L.

    Read off the canonical symbol, see GenusSymbol.signature;
    cyclotomic.gauss_sum_signature evaluates the Gauss sum directly and
    is the independent cross-check.
    """
    return to_symbol(form).signature()


def is_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    """Isometry via canonical symbol equality; equal symbols also fix the group."""
    return to_symbol(f1) == to_symbol(f2)
