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
  canonicalizes by taking the lexicographic minimum over the (small)
  orbit of the symbol under these moves, so isomorphic forms print
  identically.
* The Milgram signature is summed from the constituents' Gauss sum
  arguments (classical closed forms); the cyclotomic module re-derives
  it by direct summation for cross-checking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import CapExceededError, DegenerateError, RealizabilityError, SymbolSyntaxError
from .exactmat import factorize
from .fqf import FiniteQuadraticForm, direct_sum_forms, trivial_form

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


@dataclass(frozen=True, order=True)
class JordanConstituent:
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


def _primary_basis(form: FiniteQuadraticForm, p: int):
    """A basis of the p-part on integer data (level, orders, qs, gs).

    Presentations are faithful, so for each generator e_i of order
    d_i = c_i * p^v (v > 0, c_i prime to p) the element c_i * e_i spans a
    Z/p^v summand, and these elements are a basis of the p-part.  Values
    are taken at the level L = p^e of the p-part's exponent:
    qs[i] = L*q mod 2L and gs[i][j] = L*b mod L.  The division by the
    form's level is exact because q(c_i e_i) lies in (1/p^v)Z.
    """
    idx, orders, cs = [], [], []
    for i, d in enumerate(form.orders):
        v = _p_valuation(d, p)
        if v:
            idx.append(i)
            orders.append(p ** v)
            cs.append(d // p ** v)
    level = max(orders)
    n = form.level
    qs = [c * c * form.qints[i] * level // n % (2 * level)
          for c, i in zip(cs, idx)]
    gs = [[ci * cj * form.bints[i][j] * level // n % level
           for cj, j in zip(cs, idx)] for ci, i in zip(cs, idx)]
    return level, orders, qs, gs


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


def _split_primary(p: int, level: int, orders, qs, gs):
    """Split a p-group form, given on a basis, into its Jordan constituents.

    Each step splits off the pivot summand <xs> and replaces every other
    basis element g by its projection g - sum_a c_a x_a onto xs-perp,
    c = M^-1 (ord(x)*b(x_a, g))_a mod ord(x) with M = ord(x)*b(xs, xs).
    c_a x_a has order dividing ord(g), and the orders of the projections
    multiply to |A|/|<xs>|, so they are again a basis of the complement.
    The summands of one scale add up to its constituent: ranks add,
    determinant classes multiply and the odd 2-adic units sum to the
    oddity, none of which depends on the order of the summands.
    """
    acc: dict[int, tuple] = {}  # k -> (rank, det class, unit sum or None)
    while orders:
        xs, k, eps, unit = _pivot(p, level, orders, qs, gs)
        n0, eps0, t0 = acc.get(k, (0, 1, None))
        acc[k] = (n0 + len(xs), eps0 * eps,
                  t0 if unit is None else (t0 or 0) + unit)
        o = orders[xs[0]]
        s = level // o
        m = [[gs[a][b] // s for b in xs] for a in xs]
        if len(xs) == 1:
            adj, det = [[1]], m[0][0]
        else:
            adj = [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        inv = pow(det, -1, o)
        rest = [g for g in range(len(orders)) if g not in xs]
        cs = [[inv * sum(u * (gs[a][g] // s) for u, a in zip(row, xs)) % o
               for row in adj] for g in rest]
        new_qs = []
        for g, c in zip(rest, cs):
            z = sum(ca * ca * qs[a] - 2 * ca * gs[a][g] for ca, a in zip(c, xs))
            if len(xs) == 2:
                z += 2 * c[0] * c[1] * gs[xs[0]][xs[1]]
            new_qs.append((qs[g] + z) % (2 * level))
        gs = [[(gs[g][h] - sum(ca * gs[a][h] for ca, a in zip(c, xs))) % level
               for h in rest] for g, c in zip(rest, cs)]
        orders = [orders[g] for g in rest]
        qs = new_qs
    return {k: JordanConstituent(p, k, n, eps, even=t is None,
                                 oddity=0 if t is None else t % 8)
            for k, (n, eps, t) in sorted(acc.items())}


def jordan_constituents(
        form: FiniteQuadraticForm) -> dict[int, dict[int, JordanConstituent]]:
    """The Jordan constituents of the form, {p: {k: JordanConstituent}}.

    This is the one decomposition behind every invariant in this module:
    to_symbol() is its only caller, and the lengths, determinant classes
    and signature are all read off the symbol.  Each p-part is read off
    the form's own generators and split by integer row operations on its
    values (the classical p-adic diagonalisation, SPLAG ch. 15); no
    re-presentation or Smith normal form is needed.  At p = 2 the
    constituents are not yet canonical (see _canonical_two_adic).  Raises
    DegenerateError when the form is degenerate.
    """
    return {p: _split_primary(p, *_primary_basis(form, p)) for p in form.primes()}


# -- realizability -----------------------------------------------------------


@lru_cache(maxsize=None)
def realizable_pairs(n: int) -> frozenset[tuple[int, int]]:
    """(eps, oddity) pairs realizable by n odd 2-adic units."""
    states = {(1, 0)}
    for _ in range(n):
        states = {(e * _det_class_2(a), (t + a) % 8)
                  for (e, t) in states for a in (1, 3, 5, 7)}
    return frozenset(states)


def constituent_is_realizable(c: JordanConstituent) -> bool:
    """Whether a 2-adic constituent of rank n >= 1 is realizable."""
    if c.even:
        return c.n % 2 == 0 and c.oddity == 0
    return (c.eps, c.oddity % 8) in realizable_pairs(c.n)


# -- 2-adic canonicalization --------------------------------------------------


def _compartments(scales, cons):
    """Maximal runs of adjacent odd-type scales."""
    comps = []
    run = []
    for k in scales:
        c = cons[k]
        if not c.even:
            if run and k != run[-1] + 1:
                comps.append(run)
                run = []
            run.append(k)
        else:
            if run:
                comps.append(run)
                run = []
    if run:
        comps.append(run)
    return comps


def _walk_pairs(scales, cons):
    """Bound pairs of *consecutive* present scales.

    Scales at distance 1 are bound when at least one is odd type; scales
    at distance 2 (one empty scale between them) only when both are odd;
    larger gaps break the chain.  Longer-distance sign walks arise by
    composing these elementary ones.
    """
    pairs = []
    for a, b in zip(scales, scales[1:]):
        odd_a = not cons[a].even
        odd_b = not cons[b].even
        if b - a == 1 and (odd_a or odd_b):
            pairs.append((a, b))
        elif b - a == 2 and odd_a and odd_b:
            pairs.append((a, b))
    return pairs


def _canonical_two_adic(cons: dict[int, JordanConstituent]):
    """Canonical (scale -> constituent) map under fusion/walking moves.

    States are (sign vector, compartment oddity totals).  An elementary
    walk flips the two signs and adds 4 to the oddity of each odd
    endpoint's compartment -- once only if both endpoints share a
    compartment.  The extra scale-2 move (q_a(2) = q_{a+4}(2)) flips the
    scale-2 sign and adds 4 to its compartment.  States admitting no
    valid oddity distribution are vacuous labels and are skipped.
    """
    scales = sorted(cons)
    comps = _compartments(scales, cons)
    comp_index = {k: i for i, comp in enumerate(comps) for k in comp}

    def move(ks):
        """(sign multipliers, oddity increments) of flipping the scales ks."""
        touched = {comp_index[k] for k in ks if k in comp_index}
        return (tuple(-1 if k in ks else 1 for k in scales),
                tuple(4 if i in touched else 0 for i in range(len(comps))))

    moves = [move(pair) for pair in _walk_pairs(scales, cons)]
    if 1 in comp_index:
        moves.append(move((1,)))

    def render(state):
        return _render_state(scales, cons, comps, *state)

    start = (
        tuple(cons[k].eps for k in scales),
        tuple(sum(cons[k].oddity for k in comp) % 8 for comp in comps),
    )
    # state -> its rendered constituents, None when no oddity split exists
    rendered = {start: render(start)}
    frontier = [start]
    while frontier:
        new = []
        for eps_vec, tot_vec in frontier:
            for flips, bumps in moves:
                st = (tuple(e * f for e, f in zip(eps_vec, flips)),
                      tuple((t + b) % 8 for t, b in zip(tot_vec, bumps)))
                if st not in rendered:
                    rendered[st] = render(st)
                    if rendered[st] is not None:
                        new.append(st)
        frontier = new

    best = min((r for r in rendered.values() if r is not None),
               key=_render_key, default=None)
    if best is None:
        raise RealizabilityError("no realizable oddity distribution found")
    return {k: c for k, c in zip(scales, best)}


def _render_key(rendered):
    """Canonical preference: plus signs first, then small oddities."""
    return tuple((c.k, 0 if c.eps > 0 else 1, c.oddity) for c in rendered)


def _render_state(scales, cons, comps, eps_vec, tot_vec):
    """Constituents for one orbit state, with oddities distributed
    lexicographically-minimally inside each compartment; None if impossible."""
    eps_of = dict(zip(scales, eps_vec))
    oddity_of = {}
    for comp, total in zip(comps, tot_vec):
        dist = _distribute(comp, [cons[k].n for k in comp],
                           [eps_of[k] for k in comp], total)
        if dist is None:
            return None
        for k, t in zip(comp, dist):
            oddity_of[k] = t
    return tuple(JordanConstituent(2, k, cons[k].n, eps_of[k], even=cons[k].even,
                                   oddity=oddity_of.get(k, 0)) for k in scales)


def _distribute(comp, ranks, epss, total):
    """Lexicographically smallest oddity split across a compartment."""

    def rec(idx, remaining):
        if idx == len(comp):
            return [] if remaining % 8 == 0 else None
        for t in range(8):
            if (epss[idx], t) in realizable_pairs(ranks[idx]):
                rest = rec(idx + 1, (remaining - t) % 8)
                if rest is not None:
                    return [t] + rest
        return None

    return rec(0, total % 8)


# -- the genus symbol ---------------------------------------------------------


@dataclass(frozen=True)
class GenusSymbol:
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
        by_scale = _canonical_two_adic(cons[p]) if p == 2 else cons[p]
        out.extend(by_scale[k] for k in sorted(by_scale))
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
        if not m:
            raise SymbolSyntaxError(f"bad constituent {token!r}")
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
                raise SymbolSyntaxError(f"2-adic constituent {token!r} needs a type tag")
            even = tag == "II"
            oddity = 0 if even else int(tag)
            c = JordanConstituent(2, k, rank, sign, even=even, oddity=oddity)
        else:
            if m.group("tag") is not None:
                raise SymbolSyntaxError(f"odd constituent {token!r} cannot carry a tag")
            c = JordanConstituent(p, k, rank, sign)
        if rank == 0:
            raise RealizabilityError("rank 0 constituents must be omitted")
        if (p, k) in seen:
            raise SymbolSyntaxError(f"duplicate scale {scale}")
        seen.add((p, k))
        if p == 2 and not constituent_is_realizable(c):
            raise RealizabilityError(f"constituent {token!r} violates the "
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
