"""The classification pipeline for polarized symplectic automorphism groups.

Input rows are fixed-lattice classes (group label, group order, rank and
discriminant form of the fixed lattice K inside the rank-24 root-free
unimodular lattice); the covariant lattice S has rank 24 - rank(K) and
q_S = -q_K.  For a polarization root R (E6 for cubic fourfolds; E8, E7,
D7 or E6+A1 for K3 surfaces of degree 0, 2, 4, 6) the pipeline:

  1. filters by the slack condition rank(K) >= 4, rank(K) - l_p >= 2 for
     p != 3 and rank(K) - l_3 >= 1;
  2. enumerates overlattices of S + R keeping S primitive, and tests for
     each one whether the complementary even lattice inside the even
     unimodular lattice of signature (26, 2) exists;
  3. in the maximal-rank case (rank-2 complement) determines the
     transcendental lattice candidates by determinant enumeration and
     discriminant-form matching, counts the inequivalent embeddings, and
     bounds the non-symplectic factor of the full automorphism group.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from math import gcd
from pathlib import Path
from typing import NamedTuple

from .errors import (
    AssumptionMissingError,
    DataFileMissingError,
    NotMaximalRankError,
)
from .fqf import (
    FiniteQuadraticForm,
    automorphisms,
    discriminant_form,
    discriminant_group,
    form_embeddings_mod_aut,
    negate_form,
    primary_lengths,
    total_length,
)
from .lattice import direct_sum, named_lattice
from .nikulin import (
    ExistenceVerdict,
    LatticeInvariant,
    SaturationWitness,
    genus_exists,
    saturations_keeping_primitive,
    unique_primitive_embedding,
)
from .rank2 import (
    Rank2Form,
    rank2_automorphism_orders,
    rank2_enumerate,
    rank2_isometries,
)
from .records import FrozenRecord, Record
from .symbol import GenusSymbol, form_from_symbol, parse_symbol, to_symbol

BORCHERDS_SIGNATURE = (26, 2)
LEECH_RANK = 24

DEGREE_ROOTS = {0: "E8", 2: "E7", 4: "D7", 6: "E6+A1"}


# -- bundled data ----------------------------------------------------------------


def data_dir() -> Path:
    override = os.environ.get("LATTICELAB_DATA")
    if override:
        return Path(override)
    return Path(resources.files("latticelab") / "data")


def _load_json(name: str) -> dict:
    path = data_dir() / name
    if not path.is_file():
        raise DataFileMissingError(f"bundled data file {path} not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class LeechPairRecord(FrozenRecord):
    """One classified fixed-lattice class; its forms q_K and q_S = -q_K are
    left out of equality, hash and repr."""

    __slots__ = ("table", "row", "group", "order", "rank_K", "qK_symbol",
                 "aut_qS_surjective", "q_K", "q_S")
    _compared = __slots__[:7]

    def __init__(self, table: str, row: int, group: str, order: int, rank_K: int,
                 qK_symbol: str, aut_qS_surjective: bool, q_K: FiniteQuadraticForm,
                 q_S: FiniteQuadraticForm):
        self._init(table, row, group, order, rank_K, qK_symbol, aut_qS_surjective,
                   q_K, q_S)

    @property
    def rank_S(self) -> int:
        return LEECH_RANK - self.rank_K


def _record_from_row(table: str, row: dict) -> LeechPairRecord:
    q_k = form_from_symbol(parse_symbol(row["qK"]))
    return LeechPairRecord(
        table=table,
        row=row["row"],
        group=row["group"],
        order=row["order"],
        rank_K=row["rank_K"],
        qK_symbol=row["qK"],
        aut_qS_surjective=bool(row.get("aut_qS_surjective", False)),
        q_K=q_k,
        q_S=negate_form(q_k),
    )


def load_table(table: str) -> list[LeechPairRecord]:
    """Load a bundled classification table ('hm15' or 'k3max11', any case)."""
    name = table.lower()
    if name not in ("hm15", "k3max11"):
        raise DataFileMissingError(f"no table {table!r}: the tables are hm15 and k3max11")
    data = _load_json(f"{name}.json")
    return [_record_from_row(data["table"], row) for row in data["rows"]]


# -- polarization roots ----------------------------------------------------------


class PolarizationRoot(FrozenRecord):
    """A polarization root lattice R by name, with its rank and discriminant
    form q_R; q_R is left out of equality, hash and repr."""

    __slots__ = ("name", "rank", "q_R")
    _compared = ("name", "rank")

    def __init__(self, name: str, rank: int, q_R: FiniteQuadraticForm):
        self._init(name, rank, q_R)


def polarization_root(name: str) -> PolarizationRoot:
    key = name.strip()
    if key == "E6+A1":
        latt = direct_sum(named_lattice("E6"), named_lattice("A1"))
    else:
        latt = named_lattice(key)
    return PolarizationRoot(key, latt.rank, discriminant_form(latt))


def root_for_degree(degree: int) -> PolarizationRoot:
    if degree not in DEGREE_ROOTS:
        raise ValueError(f"degree must be one of {sorted(DEGREE_ROOTS)}")
    return polarization_root(DEGREE_ROOTS[degree])


# -- the slack condition ----------------------------------------------------------


class ConditionVerdict(NamedTuple):
    passed: bool
    alpha: dict[int, int]
    detail: str = ""

    def __bool__(self):
        return self.passed


def condition_check(rec: LeechPairRecord) -> ConditionVerdict:
    """rank(K) >= 4; rank(K) - l_p >= 2 for every p != 3; rank(K) - l_3 >= 1."""
    lens = primary_lengths(rec.q_K)
    alpha = {p: rec.rank_K - lp for p, lp in sorted(lens.items())}
    if rec.rank_K < 4:
        return ConditionVerdict(False, alpha, "rank(K) < 4")
    for p, a in alpha.items():
        need = 1 if p == 3 else 2
        if a < need:
            return ConditionVerdict(False, alpha, f"alpha_{p} = {a} < {need}")
    return ConditionVerdict(True, alpha)


# -- criterion ---------------------------------------------------------------------


class WitnessOutcome(NamedTuple):
    """One overlattice, the signature (n+, n-) of its complement, of form
    -q, and the verdict; symbol is the canonical symbol of the quotient
    form q, which decides the verdict (on the swapped signature) and fixes
    the transcendental candidates."""

    witness: SaturationWitness
    complement_signature: tuple[int, int]
    verdict: ExistenceVerdict
    symbol: GenusSymbol

    def to_json_dict(self):
        return {"witness": self.witness._json_dict(str(self.symbol)),
                "complement_signature": list(self.complement_signature),
                **self.verdict.to_json_dict()}


class CriterionResult(Record):
    __slots__ = _compared = ("passed", "outcomes", "complement_rank")

    def __init__(self, passed: bool, outcomes: list[WitnessOutcome], complement_rank: int):
        self._init(passed, outcomes, complement_rank)

    @property
    def failed_conditions(self) -> tuple[int, ...]:
        return tuple(sorted({o.verdict.failed_condition for o in self.outcomes
                             if o.verdict.failed_condition is not None}))

    @property
    def has_nontrivial_saturation(self) -> bool:
        return any(not o.witness.trivial for o in self.outcomes)


def polarized_criterion(rec: LeechPairRecord, root: PolarizationRoot) -> CriterionResult:
    """Test the lattice-embedding criterion for one record and root.

    Enumerates the overlattices of S + R keeping S primitive; the record
    passes iff for at least one of them the complementary even lattice of
    signature (26 - rank_S - rank_R, 2) and form -q exists.  That holds
    exactly when its rescaling by -1, of the swapped signature and form q,
    exists; so the verdict is read off the quotient's own genus symbol,
    decided once per symbol.
    """
    comp_plus = BORCHERDS_SIGNATURE[0] - rec.rank_S - root.rank
    comp_minus = BORCHERDS_SIGNATURE[1]
    if comp_plus < 0:
        # S + R does not even fit by rank
        return CriterionResult(False, [], comp_plus + comp_minus)
    outcomes, signature = [], (comp_plus, comp_minus)
    verdicts: dict[GenusSymbol, ExistenceVerdict] = {}
    for witness in saturations_keeping_primitive(rec.q_S, root.q_R):
        symbol = to_symbol(witness.quotient)
        if symbol not in verdicts:
            verdicts[symbol] = genus_exists(comp_minus, comp_plus, symbol)
        outcomes.append(WitnessOutcome(witness, signature, verdicts[symbol], symbol))
    return CriterionResult(any(o.verdict.exists for o in outcomes), outcomes,
                           comp_plus + comp_minus)


def _discriminant_orders(form: Rank2Form) -> tuple[int, ...]:
    """The orders of discriminant_form(form.positive_lattice()), read off the
    entries: the Smith invariant factors of ((a,b),(b,c)) are gcd(a,b,c) and
    det / gcd(a,b,c), and the 1s are dropped."""
    g = gcd(form.a, form.b, form.c)
    return tuple(d for d in (g, form.det // g) if d > 1)


def transcendental_candidates(rec: LeechPairRecord, root: PolarizationRoot,
                              outcome: WitnessOutcome) -> list[Rank2Form]:
    """Negative definite rank-2 lattices T with q_T = -q of the overlattice.

    Only defined in the maximal-rank case (rank-2 complement): enumerate
    reduced even forms of the complement determinant and keep those whose
    discriminant form matches.  Groups are compared first, as invariant
    factors read off each form's entries; only a form whose group matches
    gets a lattice, a discriminant form and a canonical genus symbol,
    compared with outcome.symbol, the quotient's symbol that
    polarized_criterion kept.  The quotient comes in any cyclic
    decomposition, not invariant factors: complement_quotient gives
    prime-power orders, and a trivial witness's A_S + A_R can carry a
    composite order, such as E6+A1's Z/6.  So its invariant factors are
    read off its order, exponent and length, which any decomposition
    gives: a group of length at most 2 is Z/g x Z/e with e its exponent
    and g = |A| / e, and a longer one has no rank-2 candidate.
    """
    comp_rank = BORCHERDS_SIGNATURE[0] + BORCHERDS_SIGNATURE[1] \
        - rec.rank_S - root.rank
    if comp_rank != 2:
        raise NotMaximalRankError("complement is not of rank 2")
    target = outcome.witness.quotient
    orders = (tuple(d for d in (target.order // target.exponent, target.exponent) if d > 1)
              if total_length(target) <= 2 else None)
    return [cand for cand in rank2_enumerate(target.order, negative=True)
            if _discriminant_orders(cand) == orders
            and to_symbol(discriminant_form(cand.positive_lattice()))
            == outcome.symbol]


def embedding_class_count(rec: LeechPairRecord, t_form: Rank2Form) -> int:
    """Number of inequivalent primitive embeddings of S with complement T.

    Counted at the glue level: isometric images of the smaller of q_S and
    -q_T inside the other, modulo isometries of T (via their action on
    the discriminant group) respectively all isometries of q_S.  Requires
    the record's isometry-surjectivity flag.
    """
    if not rec.aut_qS_surjective:
        raise AssumptionMissingError(
            f"row {rec.row} lacks the Aut(q_S) surjectivity flag")
    dg = discriminant_group(t_form.positive_lattice())
    if rec.q_S.order <= dg.form.order:
        # automorphisms of -q_T induced by the isometry group of T
        count, _ = form_embeddings_mod_aut(rec.q_S, dg.form, lambda: sorted(
            {dg.induced_automorphism(m) for m in rank2_isometries(t_form)}))
    else:
        count, _ = form_embeddings_mod_aut(dg.form, rec.q_S, lambda: automorphisms(rec.q_S))
    return count


# -- non-symplectic part ----------------------------------------------------------


def phi_order_bound(rank_S: int) -> set[int]:
    """All n = 2^a 3^b with euler_phi(n) <= 22 - rank_S (0 <= rank_S <= 20)."""
    if not 0 <= rank_S <= 20:
        raise ValueError("rank_S must be between 0 and 20")
    bound = 22 - rank_S
    out = set()
    a = 0
    while (phi2 := 1 if a == 0 else 2 ** (a - 1)) <= bound:
        b = 0
        while (phi := phi2 * (1 if b == 0 else 2 * 3 ** (b - 1))) <= bound:
            out.add(2 ** a * 3 ** b)
            b += 1
        a += 1
    return out


def nonsymplectic_order(rec: LeechPairRecord, t_form: Rank2Form,
                        nontrivial_glue: bool) -> tuple[int, int]:
    """(n_bar, total order) for one maximal-rank class.

    n_bar is the largest n in phi_order_bound(rank_S) such that 3 | n only
    if T has an order-3 isometry, 4 | n only if T has an order-4 isometry,
    and 2 | n only if the class comes from a nontrivial overlattice (an
    anti-symplectic involution forces S + R to be non-primitive).
    """
    if rec.rank_S != 20:
        raise NotMaximalRankError("non-symplectic analysis needs rank_S = 20")
    orders = rank2_automorphism_orders(t_form)
    best = 1
    for n in phi_order_bound(rec.rank_S):
        if n % 3 == 0 and 3 not in orders:
            continue
        if n % 4 == 0 and 4 not in orders:
            continue
        if n % 2 == 0 and not nontrivial_glue:
            continue
        best = max(best, n)
    return best, rec.order * best


# -- the full report ---------------------------------------------------------------


class TranscendentalClass(Record):
    """One isolated class: a transcendental lattice plus its statistics."""

    __slots__ = _compared = ("form", "nontrivial_glue", "embedding_count",
                             "nonsymplectic", "total_order")

    def __init__(self, form: Rank2Form, nontrivial_glue: bool,
                 embedding_count: int | None = None, nonsymplectic: int | None = None,
                 total_order: int | None = None):
        self._init(form, nontrivial_glue, embedding_count, nonsymplectic, total_order)

    def to_json_dict(self):
        return {"T": str(self.form),
                "nontrivial_glue": self.nontrivial_glue,
                "embedding_count": self.embedding_count,
                "nonsymplectic_order": self.nonsymplectic,
                "total_order": self.total_order}


class CaseVerdict(Record):
    __slots__ = _compared = ("record", "alpha", "condition_passed", "criterion", "classes")

    def __init__(self, record: LeechPairRecord, alpha: dict[int, int],
                 condition_passed: bool, criterion: CriterionResult | None,
                 classes: list[TranscendentalClass]):
        self._init(record, alpha, condition_passed, criterion, classes)

    @property
    def passed(self) -> bool:
        return self.condition_passed and bool(self.criterion) \
            and self.criterion.passed

    @property
    def reason(self) -> str:
        if self.passed:
            return "pass"
        if not self.condition_passed:
            return "fails slack condition"
        if not self.criterion.outcomes:
            return "rank of S + R exceeds the target lattice"
        conds = self.criterion.failed_conditions
        sat = ("" if self.criterion.has_nontrivial_saturation
               else "no nontrivial saturation; ")
        return sat + "complement fails Nikulin condition " + \
            ",".join(map(str, conds))

    def to_json_dict(self):
        out = {
            "table": self.record.table,
            "row": self.record.row,
            "group": self.record.group,
            "group_order": self.record.order,
            "rank_S": self.record.rank_S,
            "qK": self.record.qK_symbol,
            "alpha": {str(p): a for p, a in self.alpha.items()},
            "condition": self.condition_passed,
            "pass": self.passed,
            "reason": self.reason,
        }
        if self.criterion is not None:
            out["witnesses"] = [o.to_json_dict() for o in self.criterion.outcomes]
        out["classes"] = [c.to_json_dict() for c in self.classes]
        return out


def analyze_record(rec: LeechPairRecord, root: PolarizationRoot) -> CaseVerdict:
    cond = condition_check(rec)
    if not cond.passed:
        return CaseVerdict(rec, cond.alpha, False, None, [])
    crit = polarized_criterion(rec, root)
    classes: list[TranscendentalClass] = []
    if crit.passed and crit.complement_rank == 2:
        # the candidates depend only on the quotient's symbol: one scan each
        groups: dict[GenusSymbol, list[WitnessOutcome]] = {}
        for outcome in crit.outcomes:
            if outcome.verdict.exists:
                groups.setdefault(outcome.symbol, []).append(outcome)
        by_form: dict[Rank2Form, bool] = {}
        for group in groups.values():
            nontrivial = any(not o.witness.trivial for o in group)
            for t_form in transcendental_candidates(rec, root, group[0]):
                by_form[t_form] = by_form.get(t_form, False) or nontrivial
        for t_form in sorted(by_form):
            cls = TranscendentalClass(t_form, by_form[t_form])
            if rec.aut_qS_surjective:
                cls.embedding_count = embedding_class_count(rec, t_form)
            if rec.rank_S == 20 and root.name == "E6":
                n_bar, total = nonsymplectic_order(rec, t_form, by_form[t_form])
                cls.nonsymplectic = n_bar
                cls.total_order = total
            classes.append(cls)
    return CaseVerdict(rec, cond.alpha, True, crit, classes)


def full_report(table: str, root_name: str = "E6") -> list[CaseVerdict]:
    """Run the whole pipeline over a bundled table; deterministic output."""
    root = polarization_root(root_name)
    return [analyze_record(rec, root) for rec in load_table(table)]


def uniqueness_for_record(rec: LeechPairRecord) -> tuple[bool, str]:
    """Sufficient-uniqueness check for S embedded into II(26,2)."""
    inv = LatticeInvariant(rec.rank_S, 0, rec.q_S)
    return unique_primitive_embedding(inv, BORCHERDS_SIGNATURE)
