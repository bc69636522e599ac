"""Finite quadratic forms on finite abelian groups.

The central object is FiniteQuadraticForm: a finite abelian group given
by cyclic generators with prescribed orders, a Q/2Z-valued quadratic
form q on the generators and the induced Q/Z-valued bilinear form b.
Discriminant forms of even lattices, orthogonal sums, negation, primary
decomposition, subquotients (glue computations), isotropic subgroup
enumeration and the brute-force isomorphism oracle all live here.

Every presentation in this module is faithful: the group *is*
Z/d_1 x ... x Z/d_k for the stored orders, never a generating set
inside some larger group.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CapExceededError,
    DegenerateError,
    NotIsotropicError,
    OddLatticeError,
)
from .exactmat import (
    factorize,
    integer_kernel,
    mat_vec,
    rational_inverse,
    smith_normal_form,
    unimodular_inverse,
)
from .lattice import GramLattice

BRUTE_CAP = 4096


def _mod(x: Fraction, m: int) -> Fraction:
    x = Fraction(x)
    return x - m * (x / m).__floor__()


class FiniteQuadraticForm:
    """Finite abelian group Z/d_1 x ... x Z/d_k with a Q/2Z quadratic form."""

    __slots__ = ("orders", "qvals", "bmat", "_order")

    def __init__(self, orders, qvals, bmat=None, check=True):
        orders = tuple(int(d) for d in orders)
        if any(d < 1 for d in orders):
            raise ValueError("generator orders must be positive")
        k = len(orders)
        qvals = tuple(_mod(Fraction(v), 2) for v in qvals)
        if bmat is None:
            bmat = [[Fraction(0)] * k for _ in range(k)]
            for i in range(k):
                bmat[i][i] = _mod(qvals[i], 1)
        else:
            bmat = [[_mod(Fraction(x), 1) for x in row] for row in bmat]
            for i in range(k):
                bmat[i][i] = _mod(qvals[i], 1)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "qvals", qvals)
        object.__setattr__(self, "bmat", tuple(tuple(row) for row in bmat))
        prod = 1
        for d in orders:
            prod *= d
        object.__setattr__(self, "_order", prod)
        if check:
            self._validate()

    def __setattr__(self, *a):
        raise AttributeError("FiniteQuadraticForm is immutable")

    def _validate(self):
        k = len(self.orders)
        for i in range(k):
            d = self.orders[i]
            if _mod(d * d * self.qvals[i], 2) != 0:
                raise ValueError(f"q value on generator {i} not compatible with order")
            for j in range(k):
                if self.bmat[i][j] != self.bmat[j][i]:
                    raise ValueError("bilinear matrix must be symmetric")
                if _mod(d * self.bmat[i][j], 1) != 0:
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

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.orders))

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

    def q(self, x) -> Fraction:
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            ci = x[i]
            if ci == 0:
                continue
            total += ci * ci * self.qvals[i]
            for j in range(i + 1, k):
                if x[j]:
                    total += 2 * ci * x[j] * self.bmat[i][j]
        return _mod(total, 2)

    def b(self, x, y) -> Fraction:
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            if x[i] == 0:
                continue
            for j in range(k):
                if y[j]:
                    total += x[i] * y[j] * self.bmat[i][j]
        return _mod(total, 1)

    # -- constructions ---------------------------------------------------------

    def direct_sum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        k1, k2 = self.ngens, other.ngens
        orders = self.orders + other.orders
        qvals = self.qvals + other.qvals
        b = [[Fraction(0)] * (k1 + k2) for _ in range(k1 + k2)]
        for i in range(k1):
            for j in range(k1):
                b[i][j] = self.bmat[i][j]
        for i in range(k2):
            for j in range(k2):
                b[k1 + i][k1 + j] = other.bmat[i][j]
        return FiniteQuadraticForm(orders, qvals, b, check=False)

    def negated(self) -> "FiniteQuadraticForm":
        qvals = [_mod(-v, 2) for v in self.qvals]
        b = [[_mod(-x, 1) for x in row] for row in self.bmat]
        return FiniteQuadraticForm(self.orders, qvals, b, check=False)

    def subquotient(self, gens, mods=()):
        """Present the group <gens>/<mods> with the induced form.

        gens and mods are element tuples of self; the quotient form is only
        mathematically meaningful if every element of <mods> is isotropic
        and <mods> is orthogonal to <gens> (the callers guarantee it).
        Returns (form, lifts) where lifts[i] is an element of self mapping
        onto the i-th generator of the new presentation.
        """
        gens = [self.reduce(g) for g in gens]
        mods = [self.reduce(h) for h in mods]
        n = self.ngens
        m = len(gens)
        if m == 0:
            return FiniteQuadraticForm((), ()), []
        # relation lattice R = {z in Z^m : sum z_j gens[j] in <mods> inside self}
        cols: list[list[int]] = [list(g) for g in gens]
        cols += [list(h) for h in mods]
        for i in range(n):
            col = [0] * n
            col[i] = self.orders[i]
            cols.append(col)
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
        rel = [k[:m] for k in integer_kernel(mat)]
        if not rel:
            raise ValueError("relation lattice is empty; presentation not finite")
        bmatrix = [[rel[j][i] for j in range(len(rel))] for i in range(m)]
        d, u, _ = smith_normal_form(bmatrix)
        if len(d) < m or any(x == 0 for x in d):
            raise ValueError("quotient is not finite")
        uinv = unimodular_inverse(u)
        new_orders = []
        lifts = []
        for i in range(m):
            if d[i] == 1:
                continue
            coeffs = [uinv[j][i] for j in range(m)]
            el = self.zero()
            for c, g in zip(coeffs, gens):
                el = self.add(el, self.scale(g, c))
            new_orders.append(d[i])
            lifts.append(el)
        qvals = [self.q(el) for el in lifts]
        b = [[self.b(x, y) for y in lifts] for x in lifts]
        return FiniteQuadraticForm(new_orders, qvals, b, check=False), lifts

    def normalized(self):
        """Re-present in invariant factor form (orders d_1 | d_2 | ...)."""
        return self.subquotient(self.gens())

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        form, _ = self.normalized()
        return form.orders

    def primary_part(self, p: int):
        """The p-primary component, with lifts back into self."""
        gens = []
        for i, d in enumerate(self.orders):
            pk = 1
            while d % p == 0:
                d //= p
                pk *= p
            if pk > 1:
                g = [0] * self.ngens
                g[i] = d  # d = prime-to-p part of the order
                gens.append(tuple(g))
        if not gens:
            return FiniteQuadraticForm((), ()), []
        return self.subquotient(gens)

    def primes(self):
        ps = set()
        for d in self.orders:
            ps.update(factorize(d))
        return sorted(ps)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "gens": [{"order": d, "q": f"{v.numerator}/{v.denominator}"}
                     for d, v in zip(self.orders, self.qvals)],
            "b": [[f"{x.numerator}/{x.denominator}" for x in row]
                  for row in self.bmat],
        }

    @staticmethod
    def from_json_dict(data) -> "FiniteQuadraticForm":
        orders = [g["order"] for g in data["gens"]]
        qvals = [Fraction(g["q"]) for g in data["gens"]]
        b = [[Fraction(x) for x in row] for row in data["b"]] if "b" in data else None
        return FiniteQuadraticForm(orders, qvals, b)

    def __repr__(self):
        parts = ", ".join(f"Z/{d}: q={v}" for d, v in zip(self.orders, self.qvals))
        return f"FiniteQuadraticForm({parts or 'trivial'})"


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

    dual_gens[i] is the i-th generator of A_L written in rational coordinates
    with respect to the lattice basis.
    """

    def __init__(self, latt: GramLattice):
        if not latt.even:
            raise OddLatticeError("discriminant quadratic form needs an even lattice")
        gram = latt.gram_rows()
        n = latt.rank
        d, u, _ = smith_normal_form(gram)
        if any(x == 0 for x in d):
            raise DegenerateError("lattice is degenerate")
        uinv = unimodular_inverse(u)
        ginv = rational_inverse(gram)
        orders = []
        dual = []
        for i in range(n):
            if d[i] == 1:
                continue
            target = [Fraction(uinv[r][i]) for r in range(n)]
            coords = mat_vec(ginv, target)
            orders.append(d[i])
            dual.append(coords)
        qvals = []
        bmat = [[Fraction(0)] * len(dual) for _ in range(len(dual))]
        for i, w in enumerate(dual):
            gw = mat_vec(gram, w)
            qvals.append(_mod(sum(a * b for a, b in zip(w, gw)), 2))
            for j in range(i + 1, len(dual)):
                val = _mod(sum(a * b for a, b in zip(dual[j], gw)), 1)
                bmat[i][j] = bmat[j][i] = val
        self.lattice = latt
        self.orders = tuple(orders)
        self.dual_gens = dual
        self.u = u
        self.d = d
        self.form = FiniteQuadraticForm(orders, qvals, bmat, check=False)
        self._gram = gram

    def coords_of(self, rational_vector) -> tuple[int, ...]:
        """Class of a dual vector (rational coords) as a form element."""
        gv = mat_vec(self._gram, rational_vector)
        if any(x.denominator != 1 for x in map(Fraction, gv)):
            raise ValueError("vector is not in the dual lattice")
        z = mat_vec(self.u, [int(x) for x in gv])
        out = []
        j = 0
        for i, di in enumerate(self.d):
            if di == 1:
                continue
            out.append(z[i] % di)
            j += 1
        return tuple(out)

    def induced_automorphism(self, matrix) -> tuple[tuple[int, ...], ...]:
        """Images of the form generators under a lattice isometry matrix."""
        images = []
        for w in self.dual_gens:
            img = [sum(Fraction(matrix[r][c]) * w[c] for c in range(len(w)))
                   for r in range(len(w))]
            images.append(self.coords_of(img))
        return tuple(images)


def discriminant_group(latt: GramLattice) -> DiscriminantGroup:
    return DiscriminantGroup(latt)


def discriminant_form(latt: GramLattice) -> FiniteQuadraticForm:
    """The discriminant quadratic form q_L on A_L = L*/L (L even)."""
    return DiscriminantGroup(latt).form


# -- lengths -------------------------------------------------------------------


def primary_lengths(form: FiniteQuadraticForm) -> dict[int, int]:
    """Minimal generator count of each p-primary part of the group."""
    factors = form.invariant_factors
    out: dict[int, int] = {}
    for p in form.primes():
        out[p] = sum(1 for d in factors if d % p == 0)
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


def isotropic_subgroups(form: FiniteQuadraticForm):
    """All subgroups on which q vanishes identically, deterministic order.

    q = 0 on a subgroup forces b = 0 on it as well, so these are exactly
    the glue groups of even overlattices.  The trivial subgroup comes first.
    """
    if form.order > BRUTE_CAP:
        raise CapExceededError(f"group order {form.order} exceeds cap {BRUTE_CAP}")
    zero_set = frozenset(x for x in form.elements() if form.q(x) == 0)
    trivial = frozenset({form.zero()})
    seen = {trivial}
    queue = [trivial]
    while queue:
        current = queue.pop()
        for x in zero_set - current:
            # for isotropic x and h, q(x + h) = 2 b(x, h); so x + h isotropic
            # for every h in H means b(x, H) = 0 and H + <x> is isotropic
            if not all(form.add(x, h) in zero_set for h in current):
                continue
            fs = _extend(form, current, x)
            if fs not in seen:
                seen.add(fs)
                queue.append(fs)
    subs = [Subgroup(form, els) for els in seen]
    subs.sort(key=Subgroup.sort_key)
    return subs


def complement_quotient(form: FiniteQuadraticForm, sub: Subgroup) -> FiniteQuadraticForm:
    """The induced form on H-perp / H for an isotropic subgroup H."""
    for g in sub.gens:
        if form.q(g) != 0:
            raise NotIsotropicError("subgroup is not isotropic")
    if form.order > BRUTE_CAP:
        raise CapExceededError(f"group order {form.order} exceeds cap {BRUTE_CAP}")
    perp = frozenset(x for x in form.elements()
                     if all(form.b(x, g) == 0 for g in sub.gens))
    # greedy generating subset of the perp group keeps the SNF small
    gens = _minimal_generators(form, perp)
    quotient, _ = form.subquotient(gens, sub.gens)
    return quotient


# -- brute-force isomorphism oracle and automorphisms ---------------------------


def _gen_images_search(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm,
                       find_all: bool, require_onto: bool):
    """Backtracking search for q- and b-preserving maps of f1 into f2.

    f1 must be in invariant factor form.  Yields tuples of generator images.
    When require_onto is set, only group isomorphisms onto f2 are kept.
    """
    if f1.order > BRUTE_CAP or f2.order > BRUTE_CAP:
        raise CapExceededError("group order exceeds brute-force cap")
    by_order: dict[int, list] = {}
    for x in f2.elements():
        by_order.setdefault(f2.element_order(x), []).append(x)

    gens = f1.gens()
    orders = f1.orders
    results = []

    def extend(idx, chosen):
        if idx == len(gens):
            img = _span(f2, chosen)
            if require_onto and len(img) != f2.order:
                return False
            if not require_onto and len(img) != f1.order:
                return False
            results.append(tuple(chosen))
            return not find_all
        d = orders[idx]
        qv = f1.qvals[idx]
        for cand in by_order.get(d, ()):
            if f2.q(cand) != qv:
                continue
            ok = True
            for j in range(idx):
                if f2.b(chosen[j], cand) != f1.bmat[j][idx]:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(cand)
            if extend(idx + 1, chosen):
                return True
            chosen.pop()
        return False

    extend(0, [])
    return results


def bruteforce_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    """Ground-truth isometry test by explicit generator-image search."""
    n1, _ = f1.normalized()
    n2, _ = f2.normalized()
    if n1.orders != n2.orders:
        return False
    if n1.order > BRUTE_CAP:
        raise CapExceededError("group order exceeds brute-force cap")
    vals1 = sorted(n1.q(x) for x in n1.elements())
    vals2 = sorted(n2.q(x) for x in n2.elements())
    if vals1 != vals2:
        return False
    return bool(_gen_images_search(n1, n2, find_all=False, require_onto=True))


def automorphisms(form: FiniteQuadraticForm):
    """All isometries of the form onto itself, as generator-image tuples.

    The form is first re-presented in invariant factor form; the returned
    maps act on that presentation.  Use with forms already normalized.
    """
    norm, _ = form.normalized()
    if norm.orders != form.orders:
        raise ValueError("automorphisms() expects an invariant-factor presentation")
    return _gen_images_search(form, form, find_all=True, require_onto=True)


def apply_gen_map(form: FiniteQuadraticForm, images, x):
    out = form.zero()
    for c, img in zip(x, images):
        out = form.add(out, form.scale(img, c))
    return out


def embedding_images(small: FiniteQuadraticForm, big: FiniteQuadraticForm):
    """All subgroups of `big` that are isometric images of `small`.

    Returned as sorted frozensets of elements of `big`.
    """
    norm, _ = small.normalized()
    maps = _gen_images_search(norm, big, find_all=True, require_onto=False)
    images = {_span(big, m) for m in maps}
    return sorted(images, key=lambda s: tuple(sorted(s)))


def form_embeddings_mod_aut(small: FiniteQuadraticForm, big: FiniteQuadraticForm,
                            aut_maps):
    """Count isometric images of `small` inside `big` up to the given maps.

    aut_maps is a list of generator-image tuples for `big` (for example
    automorphisms(big), or the subgroup induced by lattice isometries).
    Returns (count, orbit_representatives).
    """
    images = embedding_images(small, big)
    if not images:
        return 0, []
    index = {img: i for i, img in enumerate(images)}
    parent = list(range(len(images)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for img in images:
        for mp in aut_maps:
            target = frozenset(apply_gen_map(big, mp, x) for x in img)
            union(index[img], index[target])
    reps = sorted({find(i) for i in range(len(images))})
    return len(reps), [images[i] for i in reps]
