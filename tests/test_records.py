"""The library's records keep one behaviour whatever declares them: the
constructor's positional and keyword forms and defaults, == and hash over
the compared fields only, the order of the ordered records, refusal of
assignment to the immutable ones, and their reprs."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from latticelab import (
    CaseVerdict,
    DiagonalAction,
    ExistenceVerdict,
    GenusSymbol,
    GramLattice,
    JordanConstituent,
    LatticeInvariant,
    LeechPairRecord,
    PolarizationRoot,
    Rank2Form,
    SaturationWitness,
    build_lattice,
    complement_quotient,
    discriminant_form,
    full_report,
    load_table,
    named_lattice,
    polarization_root,
    to_symbol,
)
from latticelab.casebook import (
    ConditionVerdict,
    CriterionResult,
    TranscendentalClass,
    WitnessOutcome,
)
from latticelab.errors import NotDefiniteError
from latticelab.fqf import Subgroup

SRC = Path(__file__).resolve().parent.parent / "src"

Q3 = discriminant_form(named_lattice("A2"))
Q2 = discriminant_form(named_lattice("A1"))
CONSTITUENT = JordanConstituent(3, 1, 1, -1, True, 0)
SYMBOL = GenusSymbol((CONSTITUENT,))
WITNESS = SaturationWitness((), 1, Q3)
INVARIANT = LatticeInvariant(2, 0, Q3)
VERDICT = ExistenceVerdict(True, None, "")
OUTCOME = WitnessOutcome(WITNESS, (2, 0), VERDICT, SYMBOL)
CRITERION = CriterionResult(True, [OUTCOME], 2)
FORM = Rank2Form(2, 1, 2, False)
T_CLASS = TranscendentalClass(FORM, False, 2, 3, 4)
RECORD = LeechPairRecord("HM15", 1, "G", 3, 4, "3^-1", True, Q3, Q3)

# class, field names in constructor order, one value per field
FIELDS = [
    (GramLattice, ("gram", "signature", "det", "even"),
     (((2, 1), (1, 2)), (2, 0), 3, True)),
    (Rank2Form, ("a", "b", "c", "negative"), (2, 1, 2, True)),
    (JordanConstituent, ("p", "k", "n", "eps", "even", "oddity"), (2, 1, 1, 1, False, 3)),
    (GenusSymbol, ("constituents",), ((CONSTITUENT,),)),
    (DiagonalAction, ("order", "weights", "w0"), (3, (1, 2, 0, 1, 2, 0), 1)),
    (LatticeInvariant, ("n_plus", "n_minus", "form"), (2, 0, Q3)),
    (ExistenceVerdict, ("exists", "failed_condition", "detail"), (False, 2, "x")),
    (SaturationWitness, ("glue_gens", "index", "quotient"), (((1,),), 3, Q3)),
    (LeechPairRecord, ("table", "row", "group", "order", "rank_K", "qK_symbol",
                       "aut_qS_surjective", "q_K", "q_S"),
     ("HM15", 1, "G", 3, 4, "3^-1", True, Q3, Q2)),
    (PolarizationRoot, ("name", "rank", "q_R"), ("A2", 2, Q3)),
    (ConditionVerdict, ("passed", "alpha", "detail"), (False, {3: 1}, "x")),
    (WitnessOutcome, ("witness", "complement_signature", "verdict", "symbol"),
     (WITNESS, (2, 0), VERDICT, SYMBOL)),
    (CriterionResult, ("passed", "outcomes", "complement_rank"), (True, [OUTCOME], 2)),
    (TranscendentalClass, ("form", "nontrivial_glue", "embedding_count",
                           "nonsymplectic", "total_order"), (FORM, True, 2, 3, 4)),
    (CaseVerdict, ("record", "alpha", "condition_passed", "criterion", "classes"),
     (RECORD, {3: 1}, True, CRITERION, [T_CLASS])),
]
MUTABLE = {CriterionResult, TranscendentalClass, CaseVerdict}


def records(mutable):
    chosen = [f for f in FIELDS if (f[0] in MUTABLE) == mutable]
    return pytest.mark.parametrize("cls,names,values", chosen,
                                   ids=[f[0].__name__ for f in chosen])


@pytest.mark.parametrize("cls,names,values", FIELDS, ids=[f[0].__name__ for f in FIELDS])
def test_positional_and_keyword_construction_agree(cls, names, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    for name, value in zip(names, values):
        assert getattr(by_position, name) == getattr(by_keyword, name) == value


def test_defaults():
    assert ExistenceVerdict(True) == ExistenceVerdict(True, None, "")
    assert ConditionVerdict(True, {}).detail == ""
    c = JordanConstituent(3, 1, 1, -1)
    assert (c.even, c.oddity) == (True, 0)
    assert Rank2Form(2, 1, 2).negative is False
    assert DiagonalAction(3, (0,) * 6).w0 == 0
    t = TranscendentalClass(FORM, True)
    assert (t.embedding_count, t.nonsymplectic, t.total_order) == (None, None, None)


@records(mutable=False)
def test_immutable_records_refuse_assignment_and_hash(cls, names, values):
    rec = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    if cls is not ConditionVerdict:  # its alpha is a dict
        assert hash(rec) == hash(cls(*values))


@records(mutable=True)
def test_mutable_records_take_assignment_and_are_unhashable(cls, names, values):
    rec = cls(*values)
    setattr(rec, names[-1], None)
    assert getattr(rec, names[-1]) is None
    assert rec != cls(*values)
    with pytest.raises(TypeError):
        hash(rec)


def test_equality_and_hash_leave_out_the_attached_forms():
    first, second = load_table("hm15"), load_table("hm15")
    assert first == second and first[0].q_K is not second[0].q_K
    assert [hash(r) for r in first] == [hash(r) for r in second]
    swapped = LeechPairRecord("HM15", 1, "G", 3, 4, "3^-1", True, Q2, Q2)
    assert swapped == RECORD and hash(swapped) == hash(RECORD)
    assert LeechPairRecord("HM15", 2, "G", 3, 4, "3^-1", True, Q3, Q3) != RECORD
    assert polarization_root("E6") == PolarizationRoot("E6", 6, Q3)
    assert hash(polarization_root("E6")) == hash(PolarizationRoot("E6", 6, Q2))
    assert PolarizationRoot("E7", 6, Q3) != PolarizationRoot("E6", 6, Q3)
    a2 = build_lattice([[2, 1], [1, 2]])
    fake = GramLattice(a2.gram, (0, 0), 0, False)
    assert fake == a2 and hash(fake) == hash(a2)
    assert GramLattice(((2, 0), (0, 2)), (2, 0), 3, True) != a2


def _form_data(form):
    return form.to_json_dict(), str(to_symbol(form))


def test_records_of_plain_values_pickle_and_copy():
    """Records pickle and copy.  Copies of records of plain values compare
    equal.  A FiniteQuadraticForm compares by identity, so a form, and the
    forms in a record that holds one, compare by JSON and genus symbol;
    a pickled or copied form carries no cached scan or p-part blocks, and a
    glue quotient keeps none of its own."""
    for rec in (build_lattice([[2, 1], [1, 2]]), FORM, CONSTITUENT, SYMBOL,
                DiagonalAction(3, (1, 2, 0, 1, 2, 0), 1), VERDICT,
                ConditionVerdict(False, {3: 1}, "x"), TranscendentalClass(FORM, True, 2, 3, 4)):
        again = pickle.loads(pickle.dumps(rec))
        assert type(again) is type(rec) and again == rec and repr(again) == repr(rec)
        assert copy.copy(rec) == rec == copy.deepcopy(rec)
    q = discriminant_form(named_lattice("E6"))
    fresh = pickle.dumps(q)
    q.scan()
    to_symbol(complement_quotient(q, Subgroup(q, [])))
    assert q._scan is not None and q._parts is not None
    assert pickle.dumps(q) == fresh
    for again in (pickle.loads(fresh), copy.copy(q), copy.deepcopy(q)):
        assert again._scan is None and again._parts is None
    # the trivial witness's quotient is the ambient form A_S + A_R, whose
    # blocks the glue quotients were cut from; outcomes[1] is glued
    outcomes = full_report("hm15", "E6")[0].criterion.outcomes
    ambient, quot = (o.witness.quotient for o in outcomes[:2])
    assert ambient._parts is not None and quot._parts is None
    for form in (ambient, quot):
        assert pickle.dumps(form) == pickle.dumps(copy.copy(form))
        for again in (pickle.loads(pickle.dumps(form)), copy.copy(form), copy.deepcopy(form)):
            assert again._parts is None and _form_data(again) == _form_data(form)
    holders = [
        (q, _form_data),
        (polarization_root("E6"), lambda r: (r, _form_data(r.q_R))),
        (load_table("k3max11")[0], lambda r: (r, _form_data(r.q_K), _form_data(r.q_S))),
        (full_report("hm15", "E6")[0],
         lambda v: (v.to_json_dict(), _form_data(v.record.q_S),
                    [_form_data(o.witness.quotient) for o in v.criterion.outcomes])),
    ]
    for rec, data in holders:
        for again in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
            assert type(again) is type(rec) and data(again) == data(rec)


def test_equality_needs_the_same_class():
    assert PolarizationRoot("A2", 2, Q3) != LeechPairRecord(*FIELDS[8][2])
    assert CRITERION != T_CLASS
    assert build_lattice([[2]]) != polarization_root("A1")


def test_order_of_rank2_forms_and_constituents():
    forms = [Rank2Form(4, 1, 4, True), Rank2Form(2, 1, 8), Rank2Form(4, 1, 4),
             Rank2Form(2, -1, 8), Rank2Form(2, 1, 2)]
    assert [(f.a, f.b, f.c, f.negative) for f in sorted(forms)] == [
        (2, -1, 8, False), (2, 1, 2, False), (2, 1, 8, False),
        (4, 1, 4, False), (4, 1, 4, True)]
    assert Rank2Form(2, 1, 2) < Rank2Form(2, 1, 3) <= Rank2Form(2, 1, 3)
    assert Rank2Form(3, 0, 3) > Rank2Form(2, 1, 9) >= Rank2Form(2, 1, 9)
    cons = [JordanConstituent(3, 1, 2, 1), JordanConstituent(2, 1, 1, 1, False, 3),
            JordanConstituent(2, 1, 1, 1, False, 1), JordanConstituent(2, 1, 1, 1),
            JordanConstituent(2, 0, 2, -1)]
    assert [tuple(getattr(c, n) for n in ("p", "k", "n", "eps", "even", "oddity"))
            for c in sorted(cons)] == [
        (2, 0, 2, -1, True, 0), (2, 1, 1, 1, False, 1), (2, 1, 1, 1, False, 3),
        (2, 1, 1, 1, True, 0), (3, 1, 2, 1, True, 0)]


def test_rank2_form_refuses_indefinite_and_negative_leading_entry():
    for abc in ((1, 1, 1), (1, 2, 1), (-2, 1, -2), (0, 0, 5)):
        with pytest.raises(NotDefiniteError):
            Rank2Form(*abc)


def test_diagonal_action_reduces_its_weights():
    act = DiagonalAction(3, (4, 5, 6, -1, 0, 7), 5)
    assert act.weights == (1, 2, 0, 2, 0, 1)
    assert act.w0 == 5
    assert act == DiagonalAction(3, (1, 2, 0, 2, 0, 1), 5)
    assert DiagonalAction(3, [1, 2, 3, 4, 5, 6]).weights == (1, 2, 0, 1, 2, 0)


def test_reprs():
    q3 = "FiniteQuadraticForm(Z/3: q=2/3)"
    assert repr(RECORD) == ("LeechPairRecord(table='HM15', row=1, group='G', order=3, "
                            "rank_K=4, qK_symbol='3^-1', aut_qS_surjective=True)")
    assert repr(polarization_root("E6")) == "PolarizationRoot(name='E6', rank=6)"
    assert repr(build_lattice([[2, 1], [1, 2]])) == \
        "GramLattice(rank=2, signature=(2, 0), det=3, even)"
    assert repr(named_lattice("U")) == "GramLattice(rank=2, signature=(1, 1), det=-1, even)"
    assert repr(FORM) == "Rank2Form(a=2, b=1, c=2, negative=False)"
    constituent = "JordanConstituent(p=3, k=1, n=1, eps=-1, even=True, oddity=0)"
    assert repr(CONSTITUENT) == constituent
    assert repr(SYMBOL) == f"GenusSymbol(constituents=({constituent},))"
    assert repr(DiagonalAction(3, (1, 2, 3, 4, 5, 6), 1)) == \
        "DiagonalAction(order=3, weights=(1, 2, 0, 1, 2, 0), w0=1)"
    assert repr(INVARIANT) == f"LatticeInvariant(n_plus=2, n_minus=0, form={q3})"
    assert repr(VERDICT) == "ExistenceVerdict(exists=True, failed_condition=None, detail='')"
    assert repr(ConditionVerdict(True, {3: 1})) == \
        "ConditionVerdict(passed=True, alpha={3: 1}, detail='')"
    witness = repr(WITNESS)
    assert witness.startswith(f"SaturationWitness(glue_gens=(), index=1, quotient={q3}")
    assert repr(OUTCOME) == (f"WitnessOutcome(witness={witness}, complement_signature=(2, 0), "
                             f"verdict={VERDICT!r}, symbol={SYMBOL!r})")
    assert repr(CRITERION) == \
        f"CriterionResult(passed=True, outcomes=[{OUTCOME!r}], complement_rank=2)"
    t_class = ("TranscendentalClass(form=Rank2Form(a=2, b=1, c=2, negative=False), "
               "nontrivial_glue=False, embedding_count=2, nonsymplectic=3, total_order=4)")
    assert repr(T_CLASS) == t_class
    assert repr(CaseVerdict(RECORD, {3: 1}, True, CRITERION, [T_CLASS])) == (
        f"CaseVerdict(record={RECORD!r}, alpha={{3: 1}}, condition_passed=True, "
        f"criterion={CRITERION!r}, classes=[{t_class}])")


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    """What a CLI call pays on start-up: the records are written out, not
    generated, so neither module is loaded."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import latticelab, latticelab.cli; "
            "latticelab.cli.build_parser(); latticelab.load_table('hm15'); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
