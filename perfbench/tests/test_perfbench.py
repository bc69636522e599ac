"""The benchmark's own tests: python3 -m pytest perfbench/tests -q"""

import json
import subprocess
import sys

import pytest

import gen
import queries
import run
import tracer as tracer_mod
import verdicts
from conftest import BENCH

import latticelab as ll


def test_same_seed_same_inputs():
    a, b = gen.QueryStream(7), gen.QueryStream(7)
    for _ in range(3):
        assert a.next_batch() == b.next_batch()
    assert gen.QueryStream(8).next_batch() != gen.QueryStream(7).next_batch()
    assert gen.cubic_order(7, 3) == gen.cubic_order(7, 3)
    assert gen.k3_order(7, 3) == gen.k3_order(7, 3)
    assert gen.k3_order(7, 3) != gen.k3_order(7, 4)


def test_batches_have_fixed_counts_and_no_repeats():
    stream = gen.QueryStream(3)
    keys = set()
    for _ in range(4):
        batch = stream.next_batch()
        kinds = [kind for kind, _ in batch]
        assert {k: kinds.count(k) for k in kinds} == \
            {k: count for k, (count, _) in gen.QUERY_KINDS.items()}
        for kind, item in batch:
            key = gen._key(kind, {k: v for k, v in item.items() if k != "stratum"})
            assert key not in keys
            keys.add(key)


def test_generator_does_not_import_the_library():
    code = ("import sys, gen; gen.QueryStream(1).next_batch(); "
            "print('latticelab' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, text=True,
                         capture_output=True, check=True).stdout
    assert out.strip() == "False"


def test_generated_inputs_meet_their_strata():
    for kind, item in gen.QueryStream(11).next_batch():
        lo, hi = item["stratum"]
        if kind in ("dform", "iso_same", "exists", "shortvec", "glue"):
            d = abs(gen.det(item["gram"])) * gen.NAMED_DET.get(item.get("named"), 1)
            assert lo <= d <= hi, (kind, item)
        elif kind == "saturate":
            d = abs(gen.det(item["gram_s"]) * gen.det(item["gram_r"]))
            assert lo <= d <= hi, item
        elif kind == "symbol":
            assert lo <= item["order"] <= hi


def _verdicts(records, root):
    return [ll.analyze_record(rec, root).to_json_dict() for rec in records]


def test_traced_verdicts_equal_untraced_and_counts_repeat():
    cubic = ll.load_table("hm15")
    e6 = ll.polarization_root("E6")
    k3 = ll.load_table("k3max11")
    e7 = ll.polarization_root("E7")
    plain = _verdicts(cubic, e6) + _verdicts(k3, e7)
    t = tracer_mod.Tracer()
    t.install()
    try:
        t.recording = True
        traced = _verdicts(cubic, e6) + _verdicts(k3, e7)
        first = t.counts()
        t.reset()
        again = _verdicts(cubic, e6) + _verdicts(k3, e7)
        t.recording = False
    finally:
        t.uninstall()
    assert traced == plain == again
    assert t.counts() == first
    assert first["casebook.analyze_record.calls"] == len(cubic) + len(k3)
    assert first["fqf.automorphisms.calls"] > 0
    assert t.absent == []
    # wrappers are gone again
    assert ll.analyze_record is ll.casebook.analyze_record
    assert not hasattr(ll.casebook.analyze_record, "__wrapped__")


def test_traced_query_answers_equal_untraced():
    batch = gen.QueryStream(5).next_batch()

    def answers():
        out = []
        for kind, item in batch:
            prepare, run_, check = queries.KINDS[kind]
            args = prepare(item)
            out.append(check(item, args, run_(args)))
        return out

    plain = answers()
    t = tracer_mod.Tracer()
    t.install()
    try:
        t.recording = True
        traced = answers()
        t.recording = False
    finally:
        t.uninstall()
    assert plain == traced == [None] * len(batch)
    assert t.counts()["normalforms.family_dimension.calls"] >= 8


def test_absent_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(ll.normalforms, "family_dimension")
    t = tracer_mod.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["normalforms.family_dimension"]
    assert t.counts()["normalforms.family_dimension.calls"] == 0


def test_tracer_uses_no_private_names():
    for module, name in tracer_mod.TRACED:
        assert not any(part.startswith("_") for part in name.split("."))


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["cubic", "k3", "queries"]
    traced_layers = [
        "fqf.q", "fqf.b", "fqf.isotropic_subgroups", "fqf.complement_quotient",
        "fqf.subquotient", "fqf.discriminant_form", "fqf.automorphisms",
        "fqf.embedding_images", "fqf.form_embeddings_mod_aut",
        "nikulin.saturations_keeping_primitive", "nikulin.even_lattice_exists",
        "symbol.to_symbol", "symbol.is_isomorphic", "symbol.parse_symbol",
        "symbol.form_from_symbol", "symbol.signature_mod8",
        "casebook.analyze_record", "casebook.polarized_criterion",
        "casebook.transcendental_candidates", "casebook.embedding_class_count",
        "casebook.nonsymplectic_order", "rank2.rank2_enumerate",
        "rank2.rank2_isometries", "shortvec.short_vectors",
        "exactmat.smith_normal_form", "exactmat.integer_kernel",
        "lattice.build_lattice", "lattice.named_lattice",
        "normalforms.family_dimension"]
    names = {m["name"] for m in spec["per_layer"]}
    for layer in traced_layers:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= names
    assert {"fqf.isotropic_subgroups.subgroups", "fqf.automorphisms.maps",
            "fqf.embedding_images.images", "rank2.rank2_enumerate.forms",
            "shortvec.short_vectors.vectors", "fqf.perp_scan_ratio",
            "nikulin.sat_kept_ratio", "fqf.embedding_orbit_ratio",
            "casebook.tc_calls_per_class", "casebook.tc_match_ratio",
            "cli.import_s", "cli.build_parser_s"} <= names
    # fail_ratio is the contract's failed / attempted, so it has no entry here
    assert "fail_ratio" not in names


def test_cubic_reference_is_the_golden_file():
    golden = BENCH.parent / "tests" / "data" / "cubic_check_golden.txt"
    assert verdicts.CUBIC_REFERENCE.read_text() == golden.read_text()


@pytest.mark.parametrize("n, permille", [(105, 90.0), (999, 90.0), (1010, 99.0)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, permille):
    p, value = run.tail([float(i) for i in range(n)])
    assert p == permille
    assert sum(1 for i in range(n) if i > value) >= 10


def test_refuses_a_directory_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
