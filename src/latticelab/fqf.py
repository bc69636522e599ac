"""Finite quadratic forms on finite abelian groups.

The central object is FiniteQuadraticForm: a finite abelian group given
by cyclic generators with prescribed orders, a Q/2Z-valued quadratic
form q on the generators and the induced Q/Z-valued bilinear form b.
Discriminant forms of even lattices, orthogonal sums, negation, primary
lengths, subgroups and the glue quotients H-perp/H, isotropic subgroup
enumeration and the brute-force isomorphism oracle all live here.

Every presentation in this module is faithful: the group *is*
Z/d_1 x ... x Z/d_k for the stored orders, never a generating set
inside some larger group.  Forms presented anew (a subgroup by
`subquotient`, H-perp/H by `complement_quotient`) are read off one Smith
normal form each: the group is the torsion of an integer cokernel, in
invariant factor form, with generators lifted from the column transform.

Loops over a whole group read one `scan()`, which builds each element's q
value and order from its prefix in O(1); the Gauss-sum oracle in
`cyclotomic.py` evaluates q pointwise and shares no code with the walk.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (
    CapExceededError,
    DegenerateError,
    NotIsotropicError,
    OddLatticeError,
)
from .exactmat import (
    factorize,
    integer_kernel,
    mat_mul,
    mat_vec,
    smith_normal_form,
    transpose,
)
from .lattice import GramLattice

BRUTE_CAP = 4096


class FiniteQuadraticForm:
    """Finite abelian group Z/d_1 x ... x Z/d_k with a Q/2Z quadratic form.

    The form is stored over one level N, the common denominator of its
    values: qints[i] = N*q(e_i) mod 2N and bints[i][j] = N*b(e_i, e_j) mod N.
    All arithmetic is on these integers; Fraction appears only where the
    public q()/b() return a value and in the constructor's input.
    """

    __slots__ = ("orders", "level", "qints", "bints", "_order")

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
        g = gcd(level, *qints, *(x for row in bints for x in row))
        if g > 1:
            level //= g
            qints = [v // g for v in qints]
            bints = [[x // g for x in row] for row in bints]
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "qints", tuple(qints))
        object.__setattr__(self, "bints", tuple(tuple(row) for row in bints))
        object.__setattr__(self, "_order", prod(orders))

    def __setattr__(self, *a):
        raise AttributeError("FiniteQuadraticForm is immutable")

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
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

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
        return [sum(c * row[j] for c, row in zip(x, self.bints)) % n
                for j in range(len(self.orders))]

    def b_int(self, x, y) -> int:
        """level * b(x, y), an integer mod level."""
        return sum(r * c for r, c in zip(self.b_row(x), y)) % self.level

    def q(self, x) -> Fraction:
        return Fraction(self.q_int(x), self.level)

    def b(self, x, y) -> Fraction:
        return Fraction(self.b_int(x, y), self.level)

    def scan(self) -> list[tuple]:
        """(x, q_int(x), element_order(x)) for x in elements(), each in O(1).

        Built one coordinate at a time: q(x + c e_i) = q(x) + c^2 q(e_i) +
        2c b(x, e_i) and ord(x + c e_i) = lcm(ord(x), d_i / gcd(c, d_i)),
        with level * b(x, e_j) carried only for the coordinates j to come.
        """
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
        return out

    # -- constructions ---------------------------------------------------------

    def direct_sum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        k1, k2 = self.ngens, other.ngens
        level = lcm(self.level, other.level)
        s1, s2 = level // self.level, level // other.level
        qints = [v * s1 for v in self.qints] + [v * s2 for v in other.qints]
        bints = [[x * s1 for x in row] + [0] * k2 for row in self.bints]
        bints += [[0] * k1 + [x * s2 for x in row] for row in other.bints]
        return FiniteQuadraticForm._from_ints(self.orders + other.orders, level,
                                              qints, bints)

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
        mat = [[g[i] for g in gens] + [d if j == i else 0 for j in range(self.ngens)]
               for i, d in enumerate(self.orders)]
        rel = [z[:m] for z in integer_kernel(mat)]
        return self._torsion_form(transpose(rel), gens)

    def _torsion_form(self, mat, images):
        """The torsion of Z^r / mat Z^c with the form induced through images.

        Coordinate j of Z^r maps to the element images[j] of self; the map
        must vanish on the columns of mat.  From u*mat*v = diag(d), the
        torsion is generated by u^-1 e_i = mat v e_i / d_i (an exact
        division) of order d_i, over the d_i > 1.  Returns (form, lifts)
        with lifts[i] the image of the i-th generator.
        """
        d, _, v = smith_normal_form(mat)
        coords = list(zip(*images))
        orders, lifts = [], []
        for i, di in enumerate(d):
            if di > 1:
                vcol = [row[i] for row in v]
                w = [sum(a * c for a, c in zip(row, vcol)) // di for row in mat]
                lifts.append(self.reduce(
                    [sum(a * c for a, c in zip(w, coord)) for coord in coords]))
                orders.append(di)
        qints = [self.q_int(x) for x in lifts]
        bints = [[sum(r * c for r, c in zip(row, y)) % self.level for y in lifts]
                 for row in map(self.b_row, lifts)]
        return FiniteQuadraticForm._from_ints(orders, self.level, qints,
                                              bints), lifts

    def primes(self):
        ps = set()
        for d in self.orders:
            ps.update(factorize(d))
        return sorted(ps)

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
    return FiniteQuadraticForm((), ())


def direct_sum_forms(*forms: FiniteQuadraticForm) -> FiniteQuadraticForm:
    out = trivial_form()
    for f in forms:
        out = out.direct_sum(f)
    return out


def negate_form(form: FiniteQuadraticForm) -> FiniteQuadraticForm:
    return form.negated()


# -- discriminant forms of even lattices ---------------------------------------


class DiscriminantGroup:
    """A_L = L*/L with its quadratic form and the data to transport isometries.

    From u*G*v = diag(d) (Smith normal form), the i-th generator of A_L is
    the dual vector w_i = G^-1 u^-1 e_i = v e_i / d_i; cols[i] holds its
    integer numerators v e_i.  The form is read off the integer matrix
    v^T G v: q(w_i) = (v^T G v)_ii / d_i^2 and b(w_i, w_j) =
    (v^T G v)_ij / (d_i d_j), both over the level max(d)^2.
    """

    def __init__(self, latt: GramLattice):
        if not latt.even:
            raise OddLatticeError("discriminant quadratic form needs an even lattice")
        gram = latt.gram_rows()
        d, u, v = smith_normal_form(gram)
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
        self.u = u
        self.d = d
        self.form = FiniteQuadraticForm._from_ints(orders, n, qints, bints)
        self._gram = gram

    def induced_automorphism(self, matrix) -> tuple[tuple[int, ...], ...]:
        """Images of the form generators under a lattice isometry matrix.

        M w_i = M v e_i / d_i lies in L* iff G*M*v e_i is divisible by d_i,
        and then its class has coordinates u*G*M*v e_i / d_i modulo the
        orders.
        """
        keep = [(row, dj) for row, dj in zip(self.u, self.d) if dj != 1]
        images = []
        for col, di in zip(self.cols, self.orders):
            gmc = mat_vec(self._gram, mat_vec(matrix, col))
            if any(x % di for x in gmc):
                raise ValueError("matrix does not map the dual lattice into itself")
            images.append(tuple(sum(a * x for a, x in zip(row, gmc)) // di % dj
                                for row, dj in keep))
        return tuple(images)


def discriminant_group(latt: GramLattice) -> DiscriminantGroup:
    return DiscriminantGroup(latt)


def discriminant_form(latt: GramLattice) -> FiniteQuadraticForm:
    """The discriminant quadratic form q_L on A_L = L*/L (L even)."""
    return DiscriminantGroup(latt).form


# -- lengths -------------------------------------------------------------------


def primary_lengths(form: FiniteQuadraticForm) -> dict[int, int]:
    """Minimal generator count of each p-primary part: the orders divisible by p."""
    out: dict[int, int] = {}
    for p in form.primes():
        out[p] = sum(1 for d in form.orders if d % p == 0)
    return out


def total_length(form: FiniteQuadraticForm) -> int:
    lens = primary_lengths(form)
    return max(lens.values(), default=0)


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

    __slots__ = ("ambient", "elements", "gens")

    def __init__(self, ambient: FiniteQuadraticForm, gens):
        self.ambient = ambient
        self.elements = _span(ambient, (ambient.reduce(g) for g in gens))
        self.gens = tuple(_minimal_generators(ambient, self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def sort_key(self):
        return (len(self.elements), tuple(sorted(self.elements)))

    def __eq__(self, other):
        return self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order}, gens={list(self.gens)})"


def _minimal_generators(form: FiniteQuadraticForm, elements: frozenset):
    has = frozenset({form.zero()})
    gens = []
    for x in sorted(elements, key=lambda e: (-form.element_order(e), e)):
        if len(has) == len(elements):
            break
        if x not in has:
            gens.append(x)
            has = _extend(form, has, x)
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
    subs = [Subgroup(form, gens) for gens in _subgroups_within(form, zero_set).values()]
    subs.sort(key=Subgroup.sort_key)
    return subs


def complement_quotient(form: FiniteQuadraticForm, sub: Subgroup) -> FiniteQuadraticForm:
    """The induced form on H-perp / H for an isotropic subgroup H.

    With R the rows b_row(g) over the m generators g of H and N the level,
    H-perp lifts to {x in Z^k : R x = 0 mod N}, and x -> (x, -R x / N) maps
    it onto K = ker (R | N*I), saturated of rank k in Z^(k+m).  The graphs
    of the generators of H and of the order relations d_j e_j span a
    sublattice M of K of rank k, so H-perp / H = K / M: the torsion of
    Z^(k+m) / M, read off one Smith normal form.  A graph is integral for
    the generators of H exactly when b vanishes on them.
    """
    for g in sub.gens:
        if form.q_int(g) != 0:
            raise NotIsotropicError("subgroup is not isotropic")
    if form.order > BRUTE_CAP:
        raise CapExceededError(f"group order {form.order} exceeds cap {BRUTE_CAP}")
    rows = [form.b_row(g) for g in sub.gens]
    relations = [tuple(d if i == j else 0 for i in range(form.ngens))
                 for j, d in enumerate(form.orders)]
    cols = []
    for x in [*sub.gens, *relations]:
        col = list(x)
        for row in rows:
            t, r = divmod(sum(a * c for a, c in zip(row, x)), form.level)
            if r:
                raise NotIsotropicError("subgroup is not isotropic")
            col.append(-t)
        cols.append(col)
    images = form.gens() + [form.zero()] * len(rows)
    quotient, _ = form._torsion_form(transpose(cols), images)
    return quotient


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
    orders = f1.orders
    chosen, rows = [], []  # rows[j] = f2.b_row(chosen[j])

    def extend(idx):
        if idx == len(orders):
            if not any(apply_gen_map(f2, chosen, x) == zero for x in rad):
                yield tuple(chosen)
            return
        targets = [f1.bints[j][idx] * n2 for j in range(idx)]
        for cand in by_key.get((orders[idx], f1.qints[idx] * n2), ()):
            if any(sum(r * c for r, c in zip(row, cand)) % n2 * n1 != t
                   for row, t in zip(rows, targets)):
                continue
            chosen.append(cand)
            rows.append(f2.b_row(cand))
            yield from extend(idx + 1)
            rows.pop()
            chosen.pop()

    return extend(0)


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
    out = form.zero()
    for c, img in zip(x, images):
        out = form.add(out, form.scale(img, c))
    return out


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
    isometries).  The maps need not form a group: the classes are the
    connected components of the graph that joins each image to its image
    under each map.  Each map permutes the images, so a component is what
    the maps reach forward from its first image in embedding_images order.
    Returns (count, orbit_representatives), one first image per component,
    and stops moving generators once every image is reached.

    An isometry sends an image onto an image of the same order, and the
    images are distinct subgroups of that order: the target is the one
    image that holds the images of a generating set.
    """
    images = embedding_images(small, big)
    reps, seen = [], set()
    for i, img in enumerate(images):
        if i in seen:
            continue
        reps.append(img)
        seen.add(i)
        stack = [i]
        while stack and len(seen) < len(images):
            gens = _minimal_generators(big, images[stack.pop()])
            for mp in aut_maps:
                if len(seen) == len(images):
                    break
                moved = [apply_gen_map(big, mp, g) for g in gens]
                j = next(j for j, other in enumerate(images)
                         if all(x in other for x in moved))
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return len(reps), reps
