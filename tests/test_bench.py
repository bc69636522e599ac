import hashlib
import importlib.util
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_summary(entry, runs):
    assert len(entry["runs"]) == runs
    assert min(entry["runs"]) <= entry["median"] <= max(entry["runs"])
    assert 0 <= entry["iqr"] <= max(entry["runs"]) - min(entry["runs"])


def check_schema(data, runs):
    keys = {"pr", "git_sha", "git_dirty", "python", "nproc", "PYTHONDONTWRITEBYTECODE",
            "src_lines", "runs", "full_report_s", "rank2_enumerate_ms", "cold_start_ms",
            "complement_quotient_ms", "src_sha256", "to_symbol_ms", "witness_symbol_ms",
            "smith_normal_form_ms", "split_primary_ms", "embedding_class_count_ms",
            "saturations_ms"}
    if data["pr"] in range(16, 23):  # BENCH_16 to BENCH_22 predate cold_start_ms
        keys.remove("cold_start_ms")
    if data["pr"] in range(16, 25):  # BENCH_16 to BENCH_24 predate complement_quotient_ms
        keys.remove("complement_quotient_ms")
    if data["pr"] in range(16, 26):  # BENCH_16 to BENCH_25 predate src_sha256
        keys.remove("src_sha256")
    if data["pr"] in range(16, 28):  # BENCH_16 to BENCH_27 predate to_symbol_ms
        keys.remove("to_symbol_ms")
    if data["pr"] in range(16, 29):  # BENCH_16 to BENCH_28 predate witness_symbol_ms
        keys.remove("witness_symbol_ms")
    if data["pr"] in range(16, 30):  # BENCH_16 to BENCH_29 predate the kernel timings
        keys -= {"smith_normal_form_ms", "split_primary_ms"}
    if data["pr"] in range(16, 31):  # BENCH_16 to BENCH_30 predate embedding_class_count_ms
        keys.remove("embedding_class_count_ms")
    if data["pr"] in range(16, 33):  # BENCH_16 to BENCH_32 predate saturations_ms
        keys.remove("saturations_ms")
    assert set(data) == keys
    assert (data["git_sha"] is None) == (data["git_dirty"] is None)
    assert data["git_sha"] is None or len(data["git_sha"]) == 40
    assert data["nproc"] >= 1 and data["src_lines"] > 1000
    if "src_sha256" in keys:
        assert len(data["src_sha256"]) == 64 and int(data["src_sha256"], 16) >= 0
    assert data["runs"] == runs
    assert list(data["full_report_s"]) == ["hm15/E6", "k3max11/E6+A1", "k3max11/D7",
                                           "k3max11/E7", "k3max11/E8"]
    for entry in data["full_report_s"].values():
        _check_summary(entry, runs)
    if "complement_quotient_ms" in keys:
        assert data["complement_quotient_ms"]["pairs"] > 100
        _check_summary(data["complement_quotient_ms"], runs)
    if "to_symbol_ms" in keys:
        assert data["to_symbol_ms"]["forms"] > 150
        _check_summary(data["to_symbol_ms"], runs)
    if "witness_symbol_ms" in keys:
        assert data["witness_symbol_ms"]["pairs"] == data["complement_quotient_ms"]["pairs"]
        _check_summary(data["witness_symbol_ms"], runs)
    if "smith_normal_form_ms" in keys:
        assert data["smith_normal_form_ms"]["matrices"] > 100
        assert data["split_primary_ms"]["keys"] > 100
        _check_summary(data["smith_normal_form_ms"], runs)
        _check_summary(data["split_primary_ms"], runs)
    if "embedding_class_count_ms" in keys:
        assert data["embedding_class_count_ms"]["calls"] == 7
        _check_summary(data["embedding_class_count_ms"], runs)
    if "saturations_ms" in keys:
        assert data["saturations_ms"]["calls"] == 59
        _check_summary(data["saturations_ms"], runs)
    rank2 = ["3-3000", "3001-30000", "30001-100000"]
    if data["pr"] not in range(16, 27):  # BENCH_16 to BENCH_26 predate the cap entry
        rank2.append("cap")
    assert list(data["rank2_enumerate_ms"]) == rank2
    for name, entry in data["rank2_enumerate_ms"].items():
        assert entry["dets"] == 1 if name == "cap" else entry["dets"] >= 2
        _check_summary(entry, runs)
    if "cold_start_ms" in keys:
        assert list(data["cold_start_ms"]) == ["cli", "bare"]
        for entry in data["cold_start_ms"].values():
            _check_summary(entry, runs)


def test_quick_mode_prints_the_schema(bench, capsys):
    bench.main(["--pr", "0", "--quick"])
    data = json.loads(capsys.readouterr().out)
    assert data["pr"] == 0
    check_schema(data, 2)


def test_times_are_scaled_by_the_calibration_kernel(bench, monkeypatch):
    """Each timed run is bracketed by the kernel and recorded at its
    reference speed: with the kernel at twice K_REF_S on both sides, a run
    of 0.5 s on the fake clock is recorded as 0.25 s, and a rank-2 stratum
    run of 20 calls as 0.25 s / 20 per call, in ms, and the one call at the
    cap as 0.25 s."""
    kernel = 2 * bench.calib.K_REF_S
    monkeypatch.setattr(bench.calib, "kernel_s", lambda: kernel)
    clock = itertools.count(0, 0.5)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(bench, "full_report", lambda table, root: [])
    monkeypatch.setattr(bench, "rank2_enumerate", lambda det, negative: [])
    for entry in bench.time_tables(3).values():
        assert entry["runs"] == [0.25] * 3
    rank2 = bench.time_rank2(3, 20)
    assert rank2.pop("cap")["runs"] == [0.25 * 1e3] * 3
    for entry in rank2.values():
        assert entry["runs"] == [0.25 * 1e3 / 20] * 3
    before_after = iter([bench.calib.K_REF_S, 3 * bench.calib.K_REF_S])
    monkeypatch.setattr(bench.calib, "kernel_s", lambda: next(before_after))
    assert bench.timed(lambda: None) == 0.25  # the mean of both kernel runs


def test_glue_quotients_are_timed_per_call(bench, monkeypatch):
    """complement_quotient_ms is the scaled mean per call over the captured
    pairs: with the kernel at twice K_REF_S and each unit 0.5 s on the fake
    clock, 20 pairs read 0.25 s / 20 per call, in ms; the capture pass
    collects every pair the five table runs glue over, and restores the
    name it wrapped."""
    import latticelab.nikulin
    real = latticelab.nikulin.complement_quotient
    pairs = bench.glue_pairs()
    assert len(pairs) > 100 and latticelab.nikulin.complement_quotient is real
    monkeypatch.setattr(bench.calib, "kernel_s", lambda: 2 * bench.calib.K_REF_S)
    clock = itertools.count(0, 0.5)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    calls = []
    monkeypatch.setattr(bench, "complement_quotient",
                        lambda form, sub: calls.append((form, sub)))
    entry = bench.time_complement_quotient(3, pairs[:20])
    assert entry["pairs"] == 20 and entry["runs"] == [0.25 * 1e3 / 20] * 3
    assert len(calls) == 20 * 4
    _assert_rebuilt_per_run(calls, pairs[:20], 4)


def _form_data(form):
    return form.orders, form.level, form.qints, form.bints


def _assert_rebuilt_per_run(calls, pairs, runs):
    """Each run sees every captured (form, H) on a form rebuilt from its
    integers, with no walk or p-parts, new in each run and shared where the
    captured forms are, and H with its elements on that form."""
    assert len(calls) == runs * len(pairs)
    seen = set()
    for start in range(0, len(calls), len(pairs)):
        run = calls[start:start + len(pairs)]
        for (form, sub), (old_form, old_sub) in zip(run, pairs):
            assert form is not old_form and id(form) not in seen
            assert _form_data(form) == _form_data(old_form)
            assert form._scan is None and form._parts is None
            assert sub is old_sub or sub.ambient is form and sub.elements == old_sub.elements
        for (x, old_x), (y, old_y) in itertools.combinations(zip(run, pairs), 2):
            assert (x[0] is y[0]) == (old_x[0] is old_y[0])
        seen |= {id(form) for form, _ in run}


def test_witness_symbols_are_timed_per_pair_from_rebuilt_forms(bench, monkeypatch):
    """witness_symbol_ms is the scaled mean per to_symbol(complement_quotient
    (form, H)) over the captured pairs, each run on rebuilt forms and from
    empty Jordan caches, both set up outside the timed span."""
    pairs = bench.glue_pairs()
    assert len({id(form) for form, _ in pairs}) < len(pairs)  # searches share their forms
    monkeypatch.setattr(bench.calib, "kernel_s", lambda: 2 * bench.calib.K_REF_S)
    clock = itertools.count(0, 0.5)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    calls, order = [], []
    monkeypatch.setattr(bench, "clear_jordan_caches", lambda: order.append("clear"))
    monkeypatch.setattr(bench, "complement_quotient",
                        lambda form, sub: calls.append((form, sub)) or order.append("cq") or sub)
    monkeypatch.setattr(bench, "to_symbol", lambda sub: order.append("symbol"))
    entry = bench.time_witness_symbols(3, pairs[:20])
    assert entry["pairs"] == 20 and entry["runs"] == [0.25 * 1e3 / 20] * 3
    assert order == (["clear"] + ["cq", "symbol"] * 20) * 4
    _assert_rebuilt_per_run(calls, pairs[:20], 4)


def test_symbols_are_timed_per_call_from_empty_caches(bench, monkeypatch):
    """to_symbol_ms is the scaled mean per call over the captured forms:
    with the kernel at twice K_REF_S and each unit 0.5 s on the fake clock,
    20 forms read 0.25 s / 20 per call, in ms, and every run over them
    starts by emptying the Jordan caches and runs on the forms rebuilt
    from their integers; the capture pass collects every form the five
    table runs canonicalize, and restores the name it wrapped."""
    import latticelab.symbol
    real = latticelab.symbol.jordan_constituents
    forms = bench.symbol_forms()
    assert len(forms) > 150 and latticelab.symbol.jordan_constituents is real
    monkeypatch.setattr(bench.calib, "kernel_s", lambda: 2 * bench.calib.K_REF_S)
    clock = itertools.count(0, 0.5)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    calls = []
    monkeypatch.setattr(bench, "clear_jordan_caches", lambda: calls.append("clear"))
    monkeypatch.setattr(bench, "to_symbol", lambda form: calls.append(form))
    entry = bench.time_to_symbol(3, forms[:20])
    assert entry["forms"] == 20 and entry["runs"] == [0.25 * 1e3 / 20] * 3
    assert calls[::21] == ["clear"] * 4 and len(calls) == 21 * 4
    runs = [calls[start + 1:start + 21] for start in range(0, len(calls), 21)]
    _assert_rebuilt_per_run([(form, None) for run in runs for form in run],
                            [(form, None) for form in forms[:20]], 4)


def test_kernels_are_timed_per_call_on_one_pass(bench, monkeypatch):
    """smith_normal_form_ms and split_primary_ms are the scaled means per
    call over the inputs one pass of the five table runs gives each
    kernel: every matrix as given, and each distinct key once, split by
    the uncached function; the capture restores every name it wrapped."""
    import latticelab.exactmat
    import latticelab.fqf
    import latticelab.symbol
    names = [(latticelab.exactmat, "smith_normal_form"), (latticelab.fqf, "smith_normal_form"),
             (latticelab.symbol, "_split_primary")]
    real = [getattr(owner, name) for owner, name in names]
    mats, keys = bench.kernel_inputs()
    assert [getattr(owner, name) for owner, name in names] == real
    assert len(mats) > 100 and len(keys) == len(set(keys)) > 100
    assert all(type(x) is int for m in mats for row in m for x in row)
    monkeypatch.setattr(bench.calib, "kernel_s", lambda: 2 * bench.calib.K_REF_S)
    clock = itertools.count(0, 0.5)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    calls = []
    monkeypatch.setattr(bench, "smith_normal_form", lambda mat: calls.append(mat))
    entry = bench.time_smith_normal_form(3, mats[:20])
    assert entry["matrices"] == 20 and entry["runs"] == [0.25 * 1e3 / 20] * 3
    assert calls == mats[:20] * 4
    calls.clear()
    monkeypatch.setattr(latticelab.symbol, "_split_primary",
                        SimpleNamespace(__wrapped__=lambda *key: calls.append(key)))
    entry = bench.time_split_primary(3, keys[:20])
    assert entry["keys"] == 20 and entry["runs"] == [0.25 * 1e3 / 20] * 3
    assert calls == keys[:20] * 4


def test_embedding_counts_are_timed_per_call_on_rebuilt_records(bench, monkeypatch):
    """embedding_class_count_ms is the scaled mean per call over the 7
    (record, T) calls of one hm15/E6 pass, each run from empty Jordan
    caches and on records rebuilt with rebuilt forms, one copy per record,
    both set up outside the timed span; the capture restores the name it
    wrapped."""
    import latticelab.casebook
    real = latticelab.casebook.embedding_class_count
    calls = bench.embedding_calls()
    assert latticelab.casebook.embedding_class_count is real
    assert [rec.row for rec, _ in calls] == [1, 4, 4, 5, 10, 11, 13]
    monkeypatch.setattr(bench.calib, "kernel_s", lambda: 2 * bench.calib.K_REF_S)
    clock = itertools.count(0, 0.5)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    seen, order = [], []
    monkeypatch.setattr(bench, "clear_jordan_caches", lambda: order.append("clear"))
    monkeypatch.setattr(bench, "embedding_class_count",
                        lambda rec, t_form: seen.append((rec, t_form)) or order.append("count"))
    entry = bench.time_embedding_class_count(3, calls)
    assert entry["calls"] == 7 and entry["runs"] == [0.25 * 1e3 / 7] * 3
    assert order == (["clear"] + ["count"] * 7) * 4
    for start in range(0, len(seen), 7):
        run = seen[start:start + 7]
        for (rec, t_form), (old_rec, old_t) in zip(run, calls):
            assert rec == old_rec and rec is not old_rec and t_form is old_t
            for name in ("q_K", "q_S"):
                form, old_form = getattr(rec, name), getattr(old_rec, name)
                assert form is not old_form and _form_data(form) == _form_data(old_form)
                assert form._scan is None and form._parts is None
        assert run[1][0] is run[2][0]  # row 4's two classes share one record


def test_saturations_are_timed_per_call_on_rebuilt_forms(bench, monkeypatch):
    """saturations_ms is the scaled mean per call over the 59 (q_S, q_R)
    pairs of the five table runs, each run on forms rebuilt from their
    integers, new in each run and shared where the captured forms are."""
    pairs = bench.saturation_pairs()
    assert len(pairs) == 59 and len({id(q_r) for _, q_r in pairs}) == 5
    monkeypatch.setattr(bench.calib, "kernel_s", lambda: 2 * bench.calib.K_REF_S)
    clock = itertools.count(0, 0.5)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    calls = []
    monkeypatch.setattr(bench, "saturations_keeping_primitive",
                        lambda q_s, q_r: calls.extend([(q_s, None), (q_r, None)]))
    entry = bench.time_saturations(3, pairs)
    assert entry["calls"] == 59 and entry["runs"] == [0.25 * 1e3 / 59] * 3
    flat = [(form, None) for pair in pairs for form in pair]
    _assert_rebuilt_per_run(calls, flat, 4)


def test_cold_starts_keep_bytecode_out_of_the_checkout(bench, monkeypatch):
    """Every launch reads and writes bytecode under one fresh prefix, the
    same for all of them, and not the checkout's own, also where the
    environment would keep it from writing bytecode."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    launches = []
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda argv, env, **kw: launches.append((argv, env)))
    bench.time_cold_start(2)
    assert len(launches) == 1 + 2 * 2
    assert not any({"PYTHONPATH", "PYTHONDONTWRITEBYTECODE"} & set(env) for _, env in launches)
    argvs = [argv for argv, _ in launches]
    prefixes = {argv[argv.index("-X") + 1] for argv in argvs}
    assert len(prefixes) == 1
    prefix = prefixes.pop().removeprefix("pycache_prefix=")
    assert not Path(prefix).is_relative_to(ROOT) and not Path(prefix).exists()


def test_one_kernel_pair_per_unit(bench, monkeypatch):
    """A unit is as many back-to-back runs as fill unit_s on the warm-up
    run's time, between one pair of kernel runs, recorded as the mean per
    run: with each run 0.5 s on the fake clock and a 2 s unit, a unit is 4
    runs, and 3 units of each of the 5 tables make 30 kernel runs and 1 + 12
    runs per table."""
    kernels = []
    monkeypatch.setattr(bench.calib, "kernel_s",
                        lambda: kernels.append(1) or 2 * bench.calib.K_REF_S)
    clock = itertools.count(0, 0.5)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    tables = []
    monkeypatch.setattr(bench, "full_report", lambda *run: tables.append(run) or [])
    for entry in bench.time_tables(3, 2.0).values():
        assert entry["runs"] == [0.25] * 3
    assert len(kernels) == 2 * 3 * 5
    assert len(tables) == 13 * 5 and len(set(tables)) == 5


def test_src_sha256_hashes_the_sources_in_path_order(bench):
    """The digest of every src/**/*.py, path and bytes, in sorted path
    order, with no __pycache__ or other file in it."""
    digest = hashlib.sha256()
    paths = sorted(p for p in (ROOT / "src").rglob("*") if p.suffix == ".py")
    assert paths and all("__pycache__" not in p.parts for p in paths)
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    assert bench.src_sha256() == digest.hexdigest()


def test_rank2_inputs_are_the_queries_strata(bench):
    inputs = bench.rank2_inputs(3)
    for (lo, hi), dets in inputs.items():
        assert len(dets) == len(set(dets)) == 3
        assert all(lo <= det <= hi and det % 4 in (0, 3) for det, _ in dets)


@pytest.mark.parametrize("name", sorted(p.name for p in ROOT.glob("BENCH_*.json")))
def test_committed_bench_files_keep_the_schema(name):
    data = json.loads((ROOT / name).read_text())
    assert name == f"BENCH_{data['pr']}.json"
    check_schema(data, data["runs"])
