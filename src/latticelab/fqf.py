"""Finite quadratic forms on finite abelian groups.

The central object is FiniteQuadraticForm: a finite abelian group given
by cyclic generators with prescribed orders, a Q/2Z-valued quadratic
form q on the generators and the induced Q/Z-valued bilinear form b.
Discriminant forms of even lattices, orthogonal sums, negation, primary
lengths, subgroups and the glue quotients H-perp/H, isotropic subgroup
enumeration and the brute-force isomorphism oracle all live here.

Every presentation in this module is faithful: the group *is*
Z/d_1 x ... x Z/d_k for the stored orders, never a generating set
inside some larger group.  A subgroup presented anew by `subquotient` is
read off one Smith normal form: the group is the torsion of an integer
cokernel, in invariant factor form, with generators lifted from the
column transform.  `complement_quotient` builds H-perp/H one prime at a
time, in prime-power orders grouped by prime: a p-part that |H| misses
is kept on its basis as it stands, and each other one is read off one
Smith normal form on its own coordinates.

Loops over a whole group read one `scan()`, which builds each element's q
value and order from its prefix in O(1); the Gauss-sum oracle in
`cyclotomic.py` evaluates q pointwise and shares no code with the walk.
One reader (`_part`) presents a p-part: its basis and its values there
at the level p^e of its exponent, the key of `symbol._split_primary`.
One writer (`_joined`) builds a form from blocks in that layout: direct
sums, glue quotients and `symbol.form_from_symbol` all go through it.
The walk, and the p-part blocks of a form that `complement_quotient`
glues over (`_primary`), are kept in private slots: a form is immutable.
Pickle and copy leave both out, and `symbol.clear_jordan_caches` too;
`to_symbol` reads its blocks anew and keeps none.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm, prod
from operator import add, and_, mod, mul

from .errors import CapExceededError, DegenerateError, NotIsotropicError, OddLatticeError
from .exactmat import (factorize, integer_kernel, mat_mul, mat_vec, smith_normal_form,
                       transpose, unimodular_inverse)
from .lattice import GramLattice

BRUTE_CAP = 4096


class FiniteQuadraticForm:
    """Finite abelian group Z/d_1 x ... x Z/d_k with a Q/2Z quadratic form.

    The form is stored over one level N, the common denominator of its
    values: qints[i] = N*q(e_i) mod 2N and bints[i][j] = N*b(e_i, e_j) mod N.
    All arithmetic is on these integers; Fraction appears only where the
    public q()/b() return a value and in the constructor's input.
    """

    __slots__ = ("orders", "level", "qints", "bints", "_order", "_scan", "_parts")

    def __init__(self, orders, qvals, bmat=None):
        orders = tuple(int(d) for d in orders)
        if any(d < 1 for d in orders):
            raise ValueError("generator orders must be positive")
        k = len(orders)
        qvals = [Fraction(v) for v in qvals]
        off = [[Fraction(0) if bmat is None or i == j else Fraction(bmat[i][j])
                for j in range(k)] for i in range(k)]
        level = lcm(1, *(v.denominator for v in qvals),
                    *(x.denominator for row in off for x in row))
        qints = [v.numerator * (level // v.denominator) % (2 * level) for v in qvals]
        bints = [[qints[i] % level if i == j else
                  x.numerator * (level // x.denominator) % level
                  for j, x in enumerate(row)] for i, row in enumerate(off)]
        self._store(orders, level, qints, bints)
        self._validate()

    @classmethod
    def _from_ints(cls, orders, level, qints, bints) -> "FiniteQuadraticForm":
        """A form from values already reduced mod 2*level and mod level."""
        self = object.__new__(cls)
        self._store(tuple(orders), level, qints, bints)
        return self

    def _store(self, orders, level, qints, bints):
        g = gcd(level, *qints, *itertools.chain.from_iterable(bints))
        if g > 1:
            level //= g
            qints = [v // g for v in qints]
            bints = [[x // g for x in row] for row in bints]
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "qints", tuple(qints))
        object.__setattr__(self, "bints", tuple(map(tuple, bints)))
        object.__setattr__(self, "_order", prod(orders))
        object.__setattr__(self, "_scan", None)
        object.__setattr__(self, "_parts", None)

    def __setattr__(self, *a):
        raise AttributeError("FiniteQuadraticForm is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the stored integers, never the cached scan or blocks
        return self._from_ints, (self.orders, self.level, self.qints, self.bints)

    def _validate(self):
        n = self.level
        for i, d in enumerate(self.orders):
            if d * d * self.qints[i] % (2 * n):
                raise ValueError(f"q value on generator {i} not compatible with order")
            for j in range(len(self.orders)):
                if self.bints[i][j] != self.bints[j][i]:
                    raise ValueError("bilinear matrix must be symmetric")
                if d * self.bints[i][j] % n:
                    raise ValueError("b value not compatible with generator order")

    # -- basic group structure -------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    @property
    def is_trivial(self) -> bool:
        return self._order == 1

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def zero(self):
        return (0,) * len(self.orders)

    def reduce(self, x):
        return tuple(c % d for c, d in zip(x, self.orders))

    def add(self, x, y):
        return tuple(map(mod, map(add, x, y), self.orders))

    def scale(self, x, n):
        return tuple((n * a) % d for a, d in zip(x, self.orders))

    def gens(self):
        k = len(self.orders)
        return [tuple(int(i == j) for j in range(k)) for i in range(k)]

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def element_order(self, x) -> int:
        o = 1
        for c, d in zip(x, self.orders):
            if c % d:
                o = lcm(o, d // gcd(c, d))
        return o

    # -- the form --------------------------------------------------------------

    def q_int(self, x) -> int:
        """level * q(x), an integer mod 2 * level."""
        qints, bints = self.qints, self.bints
        total = 0
        k = len(x)
        for i in range(k):
            ci = x[i]
            if ci:
                row = bints[i]
                total += ci * (ci * qints[i]
                               + 2 * sum(row[j] * x[j] for j in range(i + 1, k)))
        return total % (2 * self.level)

    def b_row(self, x) -> list[int]:
        """The integers level * b(x, e_j) mod level, one per generator e_j."""
        n = self.level
        return [sum(map(mul, x, col)) % n for col in self.bints]

    def b_int(self, x, y) -> int:
        """level * b(x, y), an integer mod level."""
        return sum(map(mul, self.b_row(x), y)) % self.level

    def q(self, x) -> Fraction:
        return Fraction(self.q_int(x), self.level)

    def b(self, x, y) -> Fraction:
        return Fraction(self.b_int(x, y), self.level)

    def scan(self) -> tuple[tuple, ...]:
        """(x, q_int(x), element_order(x)) for x in elements(), each in O(1).

        Built one coordinate at a time: q(x + c e_i) = q(x) + c^2 q(e_i) +
        2c b(x, e_i) and ord(x + c e_i) = lcm(ord(x), d_i / gcd(c, d_i)),
        with level * b(x, e_j) carried only for the coordinates j to come.
        Computed on the first call and kept on the form: the form is
        immutable, so every later call returns the same tuple.
        """
        if self._scan is None:
            object.__setattr__(self, "_scan", self._walk())
        return self._scan

    def _walk(self) -> tuple[tuple, ...]:
        n, n2, k = self.level, 2 * self.level, len(self.orders)
        out, carries = [((), 0, 1)], [(0,) * k]
        for i, d in enumerate(self.orders):
            qi, brow = self.qints[i], self.bints[i][i + 1:]
            steps = [(c, c * c * qi, 2 * c, d // gcd(c, d)) for c in range(d)]
            out = [(x + (c,), (q + cq + c2 * bx[0]) % n2, lcm(o, oc))
                   for (x, q, o), bx in zip(out, carries) for c, cq, c2, oc in steps]
            if i < k - 1:
                carries = [tuple((a + c * b) % n for a, b in zip(bx[1:], brow))
                           for bx in carries for c in range(d)]
        return tuple(out)

    # -- constructions ---------------------------------------------------------

    def direct_sum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        return direct_sum_forms(self, other)

    def negated(self) -> "FiniteQuadraticForm":
        n = self.level
        return FiniteQuadraticForm._from_ints(
            self.orders, n, [-v % (2 * n) for v in self.qints],
            [[-x % n for x in row] for row in self.bints])

    def subquotient(self, gens):
        """Present the subgroup <gens> with the induced form.

        Returns (form, lifts) where lifts[i] is an element of self mapping
        onto the i-th generator of the new presentation.  The orders come
        from a Smith normal form of the relation lattice {z in Z^m :
        sum z_j gens[j] = 0}, so the new form is in invariant factor form
        (d_1 | d_2 | ...): two results present isomorphic groups iff their
        orders are equal.
        """
        gens = [self.reduce(g) for g in gens]
        m = len(gens)
        # the kernel of (gens | diag(orders)) has rank m, and its first m
        # coordinates determine the rest
        mat = _with_relations(gens, self.orders)
        rel = transpose([z[:m] for z in integer_kernel(mat)])
        orders, lifts = _torsion(rel, mat_mul(transpose(gens), rel))
        lifts = [self.reduce(x) for x in lifts]
        qints, bints, _ = _values(self.level, self.qints, self.bints, lifts)
        return FiniteQuadraticForm._from_ints(orders, self.level, qints, bints), lifts

    def primes(self):
        return sorted(factorize(self.exponent))

    def _primary(self) -> dict:
        """{p: _part(p)}, built on the first read, kept for complement_quotient."""
        if self._parts is None:
            object.__setattr__(self, "_parts", {p: self._part(p) for p in self.primes()})
        return self._parts

    def _part(self, p: int):
        """(basis, key) of A_p: (i, c_i, p^v) per d_i = c_i p^v, v > 0, for
        the basis c_i e_i, and the key (L, orders, qs, gs) of _split_primary,
        its values at the level L = p^e of A_p's exponent: qs[i] = L*q mod
        2L, gs[i][j] = L*b mod L (exact: q(c_i e_i) lies in (1/p^v)Z)."""
        n, qints, bints = self.level, self.qints, self.bints
        basis = [(i, d // o, o) for i, d in enumerate(self.orders)
                 if (o := gcd(d, p ** d.bit_length())) > 1]
        orders = tuple([o for _, _, o in basis])
        level = max(orders)
        return basis, (level, orders,
                       tuple([c * c * qints[i] * level // n % (2 * level) for i, c, _ in basis]),
                       tuple([tuple([ci * cj * bints[i][j] * level // n % level
                                     for j, cj, _ in basis]) for i, ci, _ in basis]))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        n = self.level
        return {
            "gens": [{"order": d, "q": _fraction_text(Fraction(v, n))}
                     for d, v in zip(self.orders, self.qints)],
            "b": [[_fraction_text(Fraction(x, n)) for x in row]
                  for row in self.bints],
        }

    @staticmethod
    def from_json_dict(data) -> "FiniteQuadraticForm":
        orders = [g["order"] for g in data["gens"]]
        qvals = [Fraction(g["q"]) for g in data["gens"]]
        b = [[Fraction(x) for x in row] for row in data["b"]] if "b" in data else None
        return FiniteQuadraticForm(orders, qvals, b)

    def __repr__(self):
        parts = ", ".join(f"Z/{d}: q={Fraction(v, self.level)}"
                          for d, v in zip(self.orders, self.qints))
        return f"FiniteQuadraticForm({parts or 'trivial'})"


def _fraction_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def trivial_form() -> FiniteQuadraticForm:
    return _joined(())


def direct_sum_forms(*forms: FiniteQuadraticForm) -> FiniteQuadraticForm:
    return _joined([(f.level, f.orders, f.qints, f.bints) for f in forms])


def _joined(blocks) -> FiniteQuadraticForm:
    """The orthogonal sum of the blocks (level, orders, qints, bints), the
    layout of a _part key, at the lcm n of their levels: one _from_ints,
    whose _store reduces the integers to the form's one representative."""
    n, orders, placed = 1, [], []
    for level, o, q, b in blocks:
        n = lcm(n, level)
        placed.append((len(orders), level, q, b))
        orders += o
    return FiniteQuadraticForm._from_ints(
        orders, n, [v * (n // level) for _, level, q, _ in placed for v in q],
        [(0,) * j + tuple([x * (n // level) for x in row]) + (0,) * (len(orders) - j - len(row))
         for j, level, _, b in placed for row in b])


def negate_form(form: FiniteQuadraticForm) -> FiniteQuadraticForm:
    return form.negated()


# -- discriminant forms of even lattices ---------------------------------------


class DiscriminantGroup:
    """A_L = L*/L with its quadratic form and the data to transport isometries.

    From u*G*v = diag(d) (Smith normal form), the i-th generator of A_L is
    the dual vector w_i = G^-1 u^-1 e_i = v e_i / d_i; cols[i] holds its
    integer numerators v e_i, and u is never needed.  The form is read off
    the integer matrix v^T G v: q(w_i) = (v^T G v)_ii / d_i^2 and
    b(w_i, w_j) = (v^T G v)_ij / (d_i d_j), both over the level max(d)^2.
    """

    def __init__(self, latt: GramLattice):
        if not latt.even:
            raise OddLatticeError("discriminant quadratic form needs an even lattice")
        gram = latt.gram_rows()
        d, v = smith_normal_form(gram)
        if any(x == 0 for x in d):
            raise DegenerateError("lattice is degenerate")
        keep = [i for i, di in enumerate(d) if di != 1]
        orders = [d[i] for i in keep]
        cols = [[row[i] for row in v] for i in keep]
        vgv = mat_mul(cols, mat_mul(gram, transpose(cols)))
        n = max(d) ** 2
        qints = [vgv[i][i] * (n // (di * di)) % (2 * n) for i, di in enumerate(orders)]
        bints = [[x * (n // (di * dj)) % n for x, dj in zip(row, orders)]
                 for row, di in zip(vgv, orders)]
        self.orders = tuple(orders)
        self.cols = cols
        self.d = d
        self._v = v
        self.form = FiniteQuadraticForm._from_ints(orders, n, qints, bints)
        self._gram = gram

    def induced_automorphism(self, matrix) -> tuple[tuple[int, ...], ...]:
        """Images of the form generators under a lattice isometry matrix.

        M w_i = M v e_i / d_i lies in L* iff G*M*v e_i is divisible by d_i,
        and then, as u*G = diag(d)*v^-1, its class has coordinates
        d_k (v^-1*M*v e_i)_k / d_i modulo the orders d_k.
        """
        keep = [(row, dk) for row, dk in zip(self._vinv, self.d) if dk != 1]
        images = []
        for col, di in zip(self.cols, self.orders):
            mc = mat_vec(matrix, col)
            if any(x % di for x in mat_vec(self._gram, mc)):
                raise ValueError("matrix does not map the dual lattice into itself")
            images.append(tuple(dk * sum(map(mul, row, mc)) // di % dk for row, dk in keep))
        return tuple(images)

    @cached_property
    def _vinv(self):
        return unimodular_inverse(self._v)


def discriminant_group(latt: GramLattice) -> DiscriminantGroup:
    return DiscriminantGroup(latt)


def discriminant_form(latt: GramLattice) -> FiniteQuadraticForm:
    """The discriminant quadratic form q_L on A_L = L*/L (L even)."""
    return DiscriminantGroup(latt).form


# -- lengths -------------------------------------------------------------------


def primary_lengths(form: FiniteQuadraticForm) -> dict[int, int]:
    """Minimal generator count of each p-primary part: the orders divisible by p."""
    return {p: sum(d % p == 0 for d in form.orders) for p in form.primes()}


def total_length(form: FiniteQuadraticForm) -> int:
    return max(primary_lengths(form).values(), default=0)


# -- subgroup machinery ---------------------------------------------------------


def _extend(form: FiniteQuadraticForm, els: frozenset, x) -> frozenset:
    """The subgroup generated by the subgroup els and the element x.

    Walks the cosets els + k*x for k = 1, 2, ... up to the first k with
    k*x in els.
    """
    if x in els:
        return els
    out = set(els)
    step = x
    while step not in els:
        out.update([form.add(h, step) for h in els])
        step = form.add(step, x)
    return frozenset(out)


def _span(form: FiniteQuadraticForm, gens) -> frozenset:
    """The subgroup generated by gens."""
    els = frozenset({form.zero()})
    for g in gens:
        els = _extend(form, els, g)
    return els


class Subgroup:
    """A subgroup of a finite quadratic form, stored as an explicit element set."""

    __slots__ = ("elements", "gens")

    def __init__(self, ambient: FiniteQuadraticForm, gens):
        self._store(ambient, _span(ambient, (ambient.reduce(g) for g in gens)))

    @classmethod
    def _of_elements(cls, ambient: FiniteQuadraticForm, elements: frozenset,
                     gens=None) -> "Subgroup":
        """The subgroup whose element set is elements, already closed, with
        gens a generating tuple of it (from _subgroups_within) if known."""
        self = object.__new__(cls)
        self._store(ambient, elements, gens)
        return self

    def _store(self, ambient, elements, gens=None):
        self.elements, n = elements, len(elements)
        # H = <g> (or trivial): its least element of order |H| is the least k*g, k prime to |H|
        self.gens = tuple(_minimal_generators(ambient, elements) if gens is None or len(gens) > 1
                          else [min(ambient.scale(g, k) for k in range(1, n) if gcd(k, n) == 1)
                                for g in gens])

    @property
    def order(self) -> int:
        return len(self.elements)

    def sort_key(self):
        return (len(self.elements), tuple(sorted(self.elements)))

    def __eq__(self, other):
        return self.elements == other.elements if isinstance(other, Subgroup) else NotImplemented

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order}, gens={list(self.gens)})"


def _minimal_generators(form: FiniteQuadraticForm, elements: frozenset):
    has = frozenset({form.zero()})
    gens = []
    for minus_order, x in sorted([(-form.element_order(e), e) for e in elements]):
        if len(has) == len(elements):
            break
        if x not in has:
            gens.append(x)
            # an x of order |H| spans H: the first pick of a cyclic H needs no closure
            has = elements if -minus_order == len(elements) else _extend(form, has, x)
    return gens


def _subgroups_within(form: FiniteQuadraticForm, pool: frozenset) -> dict:
    """Every subgroup of form contained in the element set pool.

    Returns a dict from each subgroup's element set to a generating tuple,
    the trivial subgroup first.  H + <x> depends only on the coset x + H,
    and it lies in pool only if the coset does: so the coset is tested
    first, up to its first element outside pool, and H + <x> is closed
    once per coset that passes.  The elements a refused test walked lie in
    the same coset, so they are not tested again.
    """
    trivial = frozenset({form.zero()})
    seen = {trivial: ()}
    queue = [trivial]
    while queue:
        current = queue.pop()
        gens = seen[current]
        done = set()
        for x in pool - current:
            if x in done:
                continue
            coset = []
            for h in current:
                y = form.add(x, h)
                if y not in pool:
                    done.update(coset)
                    break
                coset.append(y)
            else:
                done.update(coset)
                fs = _extend(form, current, x)
                if fs not in seen and fs <= pool:
                    seen[fs] = gens + (x,)
                    queue.append(fs)
    return seen


def isotropic_subgroups(form: FiniteQuadraticForm):
    """All subgroups on which q vanishes identically, deterministic order.

    q = 0 on a subgroup forces b = 0 on it as well, so these are exactly
    the glue groups of even overlattices.  The trivial subgroup comes first.
    For isotropic x and h, q(x + h) = 2 b(x, h): the coset test of
    _subgroups_within on the zero set is the test b(x, H) = 0.
    """
    if form.order > BRUTE_CAP:
        raise CapExceededError(f"group order {form.order} exceeds cap {BRUTE_CAP}")
    zero_set = frozenset(x for x, q, _ in form.scan() if q == 0)
    subs = [Subgroup._of_elements(form, els, gens)
            for els, gens in _subgroups_within(form, zero_set).items()]
    subs.sort(key=Subgroup.sort_key)
    return subs


def _torsion(mat, image):
    """The torsion of Z^r / mat Z^c, mapped by P.

    image is P*mat for the matrix P of a map Z^r -> Z^s that vanishes on
    the columns of mat modulo the target's orders.  From u*mat*v = diag(d),
    the torsion is generated by u^-1 e_i = mat v e_i / d_i (an exact
    division) of order d_i, over the d_i > 1, and its image is
    P*mat v e_i / d_i, read off image.  Returns (orders, lifts) with
    lifts[i] the image of the i-th generator, unreduced.
    """
    d, v = smith_normal_form(mat)
    orders, lifts = [], []
    for i, di in enumerate(d):
        if di > 1:
            vcol = [row[i] for row in v]
            lifts.append([sum(map(mul, row, vcol)) // di for row in image])
            orders.append(di)
    return orders, lifts


def _values(n, qints, bints, xs):
    """n*q(x), n*b(x, y) and Bx for the xs in the form (qints, bints) at
    level n: with Bx the unreduced products of x with the columns of bints,
    n*q(x) = x.Bx + sum_i x_i^2 (qints[i] - bints[i][i]) mod 2n."""
    diag = [q - row[i] for i, (q, row) in enumerate(zip(qints, bints))]
    bxs = [[sum(map(mul, x, col)) for col in bints] for x in xs]
    return ([(sum(map(mul, x, bx)) + sum(map(mul, map(mul, x, x), diag))) % (2 * n)
             for x, bx in zip(xs, bxs)],
            [[sum(map(mul, bx, y)) % n for y in xs] for bx in bxs], bxs)


def _with_relations(gens, orders):
    """The rows of (gens | diag(orders)): gens as columns, then d_j e_j."""
    return [[g[i] for g in gens] + [0] * i + [d] + [0] * (len(orders) - i - 1)
            for i, d in enumerate(orders)]


def complement_quotient(form: FiniteQuadraticForm, sub: Subgroup) -> FiniteQuadraticForm:
    """The induced form on H-perp / H for an isotropic subgroup H.

    b vanishes between p-parts, so H-perp / H is the sum over p of
    H_p-perp / H_p on the basis c_i e_i of A_p, where H_p = m*H (m = |H| /
    p^v, p^v the p-part of |H|), read on the block that form keeps per p
    (_primary): its basis and key, at the level L = p^e of A_p's exponent.
    Where p misses |H| the block stands as it is.  Otherwise, on
    coordinates y of the basis, the rows L*b(h, c_i e_i) over the nonzero
    h = m*g (g a generator of H) test H_p for isotropy (H is isotropic iff
    each H_p is); with R those rows mod L, y -> (y, -R y / L) maps the lift
    of H_p-perp onto K = ker (R | L*I); the graphs of the h and of the
    order relations span a full-rank sublattice M of K, so H_p-perp / H_p
    = K / M, the torsion of Z^(k_p+m_p) / M: one Smith normal form, whose
    lifts are coordinates y.  _joined writes the sum of the blocks.
    """
    if form.order > BRUTE_CAP:
        raise CapExceededError(f"group order {form.order} exceeds cap {BRUTE_CAP}")
    h, blocks = sub.order, []
    for p, (basis, (level, o_p, q_p, b_p)) in form._primary().items():
        if h % p == 0:
            m = h // gcd(h, p ** h.bit_length())
            ys = [y for g in sub.gens
                  if any(y := [m * g[i] % (c * o) // c for i, c, o in basis])]
            q_h, b_h, rows = _values(level, q_p, b_p, ys)
            if any(q_h) or any(map(any, b_h)):
                raise NotIsotropicError("subgroup is not isotropic")
            mat = _with_relations(ys, o_p)
            for row in rows:
                r = [x % level for x in row]
                mat.append([-(sum(map(mul, r, y)) // level) for y in ys]
                           + [-(x * o // level) for x, o in zip(r, o_p)])
            o_p, coords = _torsion(mat, mat[:len(basis)])
            q_p, b_p, _ = _values(level, q_p, b_p, coords)
        blocks.append((level, o_p, q_p, b_p))
    return _joined(blocks)


# -- brute-force isomorphism oracle and automorphisms ---------------------------


def _isometries(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm):
    """Every injective q- and b-preserving map of f1 into f2, one at a time.

    Each map is yielded as its tuple of generator images, in backtracking
    order: generator by generator, candidates in f2.elements() order.
    Works on any presentation of f1: the group is Z/d_1 x ... x Z/d_k, so
    a homomorphism is fixed by generator images y_i with d_i * y_i = 0,
    and an injective one has ord(y_i) = d_i; when |f1| = |f2| the maps
    are the isometries onto f2.  The two levels may differ, so values are
    compared by cross-multiplication: v1/N1 == v2/N2 iff v1*N2 == v2*N1.
    Forward checking: each generator keeps the candidates of its order and
    q value, and choosing y_i (i < k) computes b_row(y_i) once to cut each
    later list to the c with b(y_i, c) = b(e_i, e_l), in order; a y_i that
    empties a list is dropped, so each b value is tested once per choice.

    An x in the kernel of a b-preserving map has b(x, y) = b(0, f(y)) = 0
    for every y, so it lies in the radical of b: the map is injective iff
    it sends no nonzero radical element to 0.  A radical x has q(x) =
    b(x, x) = 0 mod 1, so only those elements are tested with b_row; a
    discriminant form has a trivial radical.
    """
    if f1.order > BRUTE_CAP or f2.order > BRUTE_CAP:
        raise CapExceededError("group order exceeds brute-force cap")
    n1, n2 = f1.level, f2.level
    by_key: dict[tuple, list] = {}
    for x, q, o in f2.scan():
        by_key.setdefault((o, q * n1), []).append(x)
    zero = f2.zero()
    rad = [x for x, q, _ in f1.scan()
           if q % n1 == 0 and any(x) and not any(f1.b_row(x))]
    chosen = []

    def extend(idx, cands):
        if not cands:
            if not any(apply_gen_map(f2, chosen, x) == zero for x in rad):
                yield tuple(chosen)
            return
        targets = [t * n2 for t in f1.bints[idx][idx + 1:]]
        for y in cands[0]:
            row, rest = f2.b_row(y) if targets else None, []
            for later, t in zip(cands[1:], targets):
                rest.append([c for c in later if sum(map(mul, row, c)) % n2 * n1 == t])
                if not rest[-1]:
                    break
            else:
                chosen.append(y)
                yield from extend(idx + 1, rest)
                chosen.pop()

    return extend(0, [by_key.get((d, v * n2), []) for d, v in zip(f1.orders, f1.qints)])


def bruteforce_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    """Ground-truth isometry test by explicit generator-image search."""
    if f1.order != f2.order:
        return False
    if f1.order > BRUTE_CAP:
        raise CapExceededError("group order exceeds brute-force cap")
    # the counts of element orders fix a finite abelian group
    vals1 = sorted((o, q * f2.level) for _, q, o in f1.scan())
    vals2 = sorted((o, q * f1.level) for _, q, o in f2.scan())
    if vals1 != vals2:
        return False
    return next(_isometries(f1, f2), None) is not None


def automorphisms(form: FiniteQuadraticForm):
    """All isometries of the form onto itself, as generator-image tuples.

    The maps act on the form's own presentation: the i-th image is the
    image of the i-th generator.
    """
    return list(_isometries(form, form))


def apply_gen_map(form: FiniteQuadraticForm, images, x):
    """x under the map sending generator i to images[i] (one image per
    generator, at least one): a dot product per output coordinate."""
    return tuple([sum(map(mul, x, col)) % d
                  for col, d in zip(zip(*images), form.orders)])


def embedding_images(small: FiniteQuadraticForm, big: FiniteQuadraticForm):
    """All subgroups of `big` that are isometric images of `small`.

    Returned as sorted frozensets of elements of `big`, each spanned once:
    an injective map into an image already found has that image.
    """
    images = []
    for mp in _isometries(small, big):
        if not any(all(y in img for y in mp) for img in images):
            images.append(_span(big, mp))
    return sorted(images, key=lambda s: tuple(sorted(s)))


def form_embeddings_mod_aut(small: FiniteQuadraticForm, big: FiniteQuadraticForm,
                            aut_maps):
    """Count isometric images of `small` inside `big` up to the given maps.

    aut_maps is a list of generator-image tuples of isometries of `big`
    (for example automorphisms(big), or the maps induced by lattice
    isometries), or a function of no arguments returning one, called only
    to join two or more images: one image is one class.  The maps need not
    form a group: the classes are the components of the graph that joins
    each image to its image under each map, each a forward walk from its
    first image, as each map permutes the images.  Returns (count, one
    first image per component), and stops once every image is reached.

    A map's target is read off probes of the popped image H_i: elements
    whose masks in holders (element -> mask of images holding it) AND to
    bit i alone, one element where H_i holds one of its own.  Only H_i
    holds them all, so only sigma(H_i) holds their images: the target is
    the one bit left in the AND of those images' masks.
    """
    images = embedding_images(small, big)
    if len(images) < 2:
        return len(images), images[:1]
    maps = aut_maps() if callable(aut_maps) else aut_maps
    holders: dict[tuple, int] = {}
    for i, img in enumerate(images):
        for x in img:
            holders[x] = holders.get(x, 0) | 1 << i
    reps, seen = [], set()
    for i, img in enumerate(images):
        if i in seen:
            continue
        reps.append(img)
        seen.add(i)
        stack = [i]
        while stack and len(seen) < len(images):
            probes, mask, j = [], (1 << len(images)) - 1, stack.pop()
            for x in images[j]:
                if holders[x] == 1 << j:
                    probes = [x]
                    break
                if mask & holders[x] != mask:
                    probes.append(x)
                    mask &= holders[x]
            for mp in maps:
                if len(seen) == len(images):
                    break
                k = reduce(and_, [holders[apply_gen_map(big, mp, x)]
                                  for x in probes]).bit_length() - 1
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
    return len(reps), reps
