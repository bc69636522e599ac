"""The `queries` workload: independent library calls and their oracles.

Every kind has three steps.  `prepare` turns generated input into library
objects, `run` is the timed (and traced) call, and `check` compares the
answer with an oracle that does not share the code path under test.  Only
`run` is timed.
"""

from __future__ import annotations

import itertools

import latticelab as ll

from gen import NAMED_DET, det, signature

# |A| up to which bruteforce_isomorphic serves as the oracle.
BRUTE_ORACLE_CAP = 64
# |A| up to which the direct Gauss sum checks signature_mod8; beyond it the
# check would cost more than the run measures.
GAUSS_ORACLE_CAP = 1024


def _form_of_gram(gram):
    return ll.discriminant_form(ll.build_lattice(gram))


def _gauss_sum_check(form, sig):
    if form.order > GAUSS_ORACLE_CAP:
        return None
    try:
        direct = ll.gauss_sum_signature(form)
    except ValueError:  # group or cyclotomic ring beyond the direct evaluation
        return None
    return None if direct == sig else \
        f"signature_mod8 {sig}, Gauss sum {direct}"


# -- dform: discriminant form and its signature -----------------------------------


def prepare_dform(item):
    return item["gram"], item["named"]


def run_dform(args):
    gram, named = args
    latt = ll.build_lattice(gram)
    if named:
        latt = ll.direct_sum(ll.named_lattice(named), latt)
    form = ll.discriminant_form(latt)
    return form, ll.signature_mod8(form)


def check_dform(item, args, result):
    form, sig = result
    gram, named = args
    order = abs(det(gram)) * NAMED_DET.get(named, 1)
    if form.order != order:
        return f"|A| = {form.order}, expected {order}"
    plus, minus = signature(gram)
    if named:
        plus += int(named[1:])
    if sig != (plus - minus) % 8:
        return f"signature_mod8 {sig} != n+ - n- = {(plus - minus) % 8} (Milgram)"
    return _gauss_sum_check(form, sig)


# -- symbol: parse and canonicalize ------------------------------------------------


def prepare_symbol(item):
    return item["symbol"]


def run_symbol(text):
    form = ll.form_from_symbol(ll.parse_symbol(text))
    return form, str(ll.to_symbol(form))


def check_symbol(item, text, result):
    form, canon = result
    if form.order != item["order"]:
        return f"|A| = {form.order}, symbol order {item['order']}"
    again = ll.form_from_symbol(ll.parse_symbol(canon))
    if str(ll.to_symbol(again)) != canon:
        return f"canonical symbol {canon!r} is not a fixed point"
    if form.order <= BRUTE_ORACLE_CAP and not ll.bruteforce_isomorphic(form, again):
        return f"{text!r} and its canonical form {canon!r} are not isometric"
    return _gauss_sum_check(form, ll.signature_mod8(form))


# -- is_isomorphic: pairs isometric by construction, and unrelated pairs -------------


def prepare_iso(item):
    return _form_of_gram(item["gram"]), _form_of_gram(item["other"])


def run_iso(forms):
    return ll.is_isomorphic(*forms)


def check_iso_same(item, forms, result):
    # the second Gram matrix is U^T G U for a unimodular U
    return None if result is True else "isometric by construction, reported not"


def check_iso_other(item, forms, result):
    if forms[0].order > BRUTE_ORACLE_CAP:
        return f"|A| = {forms[0].order} above the brute-force oracle cap"
    truth = ll.bruteforce_isomorphic(*forms)
    return None if result == truth else f"is_isomorphic {result}, brute force {truth}"


# -- even_lattice_exists on invariants with a known answer -----------------------------


def prepare_exists(item):
    plus, minus = signature(item["gram"])
    dp, dm = item["shift"]
    # L + E8 and L + U realize (p+8, q) and (p+1, q+1); a shift of the
    # signature difference by one breaks Milgram's formula.
    expected = (dp - dm) % 8 == 0
    inv = ll.LatticeInvariant(plus + dp, minus + dm, _form_of_gram(item["gram"]))
    return inv, expected


def run_exists(prepared):
    return ll.even_lattice_exists(prepared[0])


def check_exists(item, prepared, result):
    expected = prepared[1]
    return None if result.exists == expected else \
        f"exists = {result.exists}, expected {expected}"


# -- rank2_enumerate ----------------------------------------------------------------


def prepare_rank2(item):
    return item["det"], item["negative"]


def run_rank2(args):
    return ll.rank2_enumerate(args[0], negative=args[1])


def _reduced_even_count(d: int) -> int:
    """Reduced even forms (a, b, c) of determinant d, counted directly."""
    n = 0
    a = 2
    while 3 * a * a <= 4 * d:
        for b in range(-(a // 2) + 1, a // 2 + 1):
            if (d + b * b) % a == 0:
                c = (d + b * b) // a
                if c % 2 == 0 and c >= a and (a != c or b >= 0):
                    n += 1
        a += 2
    return n


def check_rank2(item, args, result):
    d, negative = args
    seen = set()
    for f in result:
        a, b, c = f.a, f.b, f.c
        if a * c - b * b != d:
            return f"{f} has determinant {a * c - b * b}, not {d}"
        if not (-a < 2 * b <= a <= c and (a != c or b >= 0)):
            return f"{f} is not reduced"
        if a % 2 or c % 2 or f.negative != negative:
            return f"{f} is odd or has the wrong sign"
        if (a, b, c) in seen:
            return f"{f} listed twice"
        seen.add((a, b, c))
    want = _reduced_even_count(d)
    return None if len(seen) == want else f"{len(seen)} forms, expected {want}"


# -- short_vectors --------------------------------------------------------------------


def prepare_shortvec(item):
    return ll.build_lattice(item["gram"]), item["norm"]


def run_shortvec(args):
    return ll.short_vectors(args[0], args[1])


def check_shortvec(item, args, result):
    gram, norm = item["gram"], item["norm"]
    n = len(gram)
    for v in result:
        got = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if got != norm:
            return f"vector {v} has norm {got}, not {norm}"
    if len(set(map(tuple, result))) != len(result):
        return "duplicate vectors"
    return None


# -- glue: isotropic subgroups and their H-perp/H; overlattices keeping S primitive ---------


def prepare_glue(item):
    return _form_of_gram(item["gram"])


def run_glue(form):
    subs = ll.isotropic_subgroups(form)
    return [(sub.order, ll.complement_quotient(form, sub).order) for sub in subs]


def check_glue(item, form, result):
    if not result or result[0][0] != 1:
        return "the trivial subgroup is not listed first"
    for h, quotient in result:
        if quotient * h * h != form.order:
            return f"|H-perp/H| |H|^2 = {quotient * h * h} != |A| = {form.order}"
    return None


def prepare_saturate(item):
    return _form_of_gram(item["gram_s"]), _form_of_gram(item["gram_r"])


def run_saturate(forms):
    return ll.saturations_keeping_primitive(*forms)


def check_saturate(item, forms, result):
    total = forms[0].order * forms[1].order
    if not result or result[0].index != 1:
        return "the trivial overlattice is not listed first"
    for w in result:
        if w.quotient.order * w.index * w.index != total:
            return f"|H-perp/H| |H|^2 != |A| = {total}"
    return None


# -- family_dimension ------------------------------------------------------------------


def prepare_famdim(item):
    return ll.DiagonalAction(item["order"], tuple(item["weights"]), item["w0"])


def run_famdim(action):
    return ll.family_dimension(action)


def check_famdim(item, action, result):
    n, w, w0 = item["order"], item["weights"], item["w0"]
    monomials = sum(1 for combo in itertools.combinations_with_replacement(range(6), 3)
                    if sum(w[i] for i in combo) % n == w0 % n)
    mult = {}
    for x in w:
        mult[x % n] = mult.get(x % n, 0) + 1
    want = monomials - sum(m * m for m in mult.values())
    return None if result == want else f"dimension {result}, expected {want}"


KINDS = {
    "dform": (prepare_dform, run_dform, check_dform),
    "symbol": (prepare_symbol, run_symbol, check_symbol),
    "iso_same": (prepare_iso, run_iso, check_iso_same),
    "iso_other": (prepare_iso, run_iso, check_iso_other),
    "exists": (prepare_exists, run_exists, check_exists),
    "rank2": (prepare_rank2, run_rank2, check_rank2),
    "shortvec": (prepare_shortvec, run_shortvec, check_shortvec),
    "glue": (prepare_glue, run_glue, check_glue),
    "saturate": (prepare_saturate, run_saturate, check_saturate),
    "famdim": (prepare_famdim, run_famdim, check_famdim),
}
