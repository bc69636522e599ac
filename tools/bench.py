"""Write BENCH_<pr>.json: the table runs, the glue quotients, the genus
symbols, the embedding counts, the saturations and the rank-2
enumeration, timed.

    python3 tools/bench.py --pr N [--quick]

Run from anywhere; the checkout is the directory above this file, the
library is imported from its `src/` and the file is written at its root.
Standard library only.  The rank-2 determinants are the `queries`
workload's own, drawn from `perfbench/gen.py` (imported, not changed), so
each stratum here is one of that workload's.  Compare two BENCH files only
when they come from the same host.

A timed unit is a number of back-to-back runs of one measurement, as
many as fill about UNIT_S (0.1 s, a hundred times the 1 ms calibration
kernel of `perfbench/calib.py`, imported, not changed), counted from one
untimed warm-up run.  One kernel run just before and one just after the
unit scale it to the kernel's reference speed, as perfbench records its
operations, so a shared host's drift in core speed cancels; the unit is
recorded as its mean time per run.  BENCH_16 to BENCH_18 hold raw wall
times of single runs, BENCH_19 scaled single runs.

Each table run starts from empty Jordan caches (the per-process caches of
`symbol.py`, emptied by `clear_jordan_caches`), as every CLI launch does:
back to back, later runs would otherwise find every split and canonical
form cached, so `full_report_s` stays comparable with BENCH_23 and
earlier.  Each run builds its forms anew, so no cached scan carries over.
The glue and symbol measurements run on captured forms, which keep their
walk and p-part blocks once used: before each run, untimed, every captured
form is rebuilt from its integers (`copy.copy`, which carries neither) and
every captured H onto its rebuilt form, one copy per captured form, so
the forms that a table run shares stay shared.

Recorded:
  git_sha, git_dirty   HEAD of the checkout, and whether tracked files differ
                       from it (null outside a git checkout)
  python, nproc, PYTHONDONTWRITEBYTECODE
  src_lines            lines in src/**/*.py
  src_sha256           sha256 over src/**/*.py in sorted path order, each
                       file as its path below the root, a NUL byte and its
                       bytes: names the measured tree when git_dirty is
                       true.  From BENCH_26 on.
  full_report_s        per (table, root): median and IQR over RUNS (21) units
                       of full_report with to_json_dict() on every verdict,
                       from empty Jordan caches, in seconds per run at the
                       reference speed
  complement_quotient_ms
                       median and IQR over RUNS (21) units of the mean time
                       per complement_quotient call, in ms at the reference
                       speed, over the (form, H) pairs that one pass of the
                       five table runs glues over, with their count; the
                       pairs are captured once, in an untimed pass before
                       any unit.  From BENCH_25 on; the forms rebuilt
                       before each run from BENCH_29 on.  From BENCH_34 on
                       a trivial witness (H = 0) is not glued, so the
                       pairs are the 115 nontrivial ones, where they were
                       163: the 48 cheapest left, and the mean rose.
  to_symbol_ms         median and IQR over RUNS (21) units of the mean time
                       per to_symbol call, in ms at the reference speed, over
                       the forms that one pass of the five table runs (with
                       to_json_dict()) canonicalizes, with their count; the
                       forms are captured once, in an untimed pass before any
                       unit, and each run over them starts from empty Jordan
                       caches, as a table run does.  From BENCH_28 on; the
                       forms rebuilt and the caches emptied before each run,
                       untimed, from BENCH_29 on.
  witness_symbol_ms    median and IQR over RUNS (21) units of the mean time
                       per to_symbol(complement_quotient(form, H)), in ms at
                       the reference speed, over the pairs of
                       complement_quotient_ms, each run from rebuilt forms
                       and empty Jordan caches: the symbol of each witness
                       quotient, as the saturation search and the criterion
                       take it.  From BENCH_29 on.
  smith_normal_form_ms median and IQR over RUNS (21) units of the mean time
                       per smith_normal_form call, in ms at the reference
                       speed, over the matrices that one pass of the five
                       table runs (with to_json_dict()) gives it, with their
                       count; the matrices are captured once, in an untimed
                       pass before any unit.  From BENCH_30 on.
  split_primary_ms     median and IQR over RUNS (21) units of the mean time
                       per uncached Jordan split (`_split_primary.__wrapped__`)
                       over the distinct p-part keys of that same pass, in ms
                       at the reference speed, with their count.  From
                       BENCH_30 on.
  embedding_class_count_ms
                       median and IQR over RUNS (21) units of the mean time
                       per embedding_class_count call, in ms at the
                       reference speed, over the (record, T) calls that one
                       hm15/E6 pass (with to_json_dict()) makes, with their
                       count; the calls are captured once, in an untimed
                       pass before any unit, and before each run, untimed,
                       the Jordan caches are emptied and every captured
                       record is rebuilt with its forms rebuilt, one copy
                       per record.  From BENCH_31 on.
  saturations_ms       median and IQR over RUNS (21) units of the mean time
                       per saturations_keeping_primitive call, in ms at the
                       reference speed, over the (q_S, q_R) pairs of every
                       record of the five table runs against its root, with
                       their count; before each run, untimed, every form is
                       rebuilt, one copy per form, so a root's q_R stays
                       shared across its records.  From BENCH_33 on.
  rank2_enumerate_ms   per queries stratum of determinants, and for the one
                       determinant DET_CAP under `cap`: median and IQR over
                       RUNS (21) units of the mean time per call, in ms at
                       the reference speed.  `cap` from BENCH_27 on.
  cold_start_ms        raw wall time from launch to exit, in ms, median and
                       IQR over RUNS (21) fresh interpreters each: `cli`
                       imports latticelab and latticelab.cli and builds the
                       CLI parser, `bare` runs nothing.  The two alternate,
                       after one untimed `cli` launch.  Every launch runs
                       with `-X pycache_prefix=` one fresh temporary
                       directory, in this environment less PYTHONPATH and
                       PYTHONDONTWRITEBYTECODE, so bytecode is read and
                       written only there, never in a `__pycache__` of the
                       checkout: the untimed launch compiles every module
                       both launches import, and the timed ones read that
                       bytecode, whatever the checkout holds.  From BENCH_23
                       on; the prefix from BENCH_28 on (before it, launches
                       read the checkout's bytecode if it had any, and
                       PYTHONDONTWRITEBYTECODE kept them from writing it).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import calib  # noqa: E402
import gen  # noqa: E402
import latticelab.casebook  # noqa: E402
import latticelab.exactmat  # noqa: E402
import latticelab.fqf  # noqa: E402
import latticelab.nikulin  # noqa: E402
import latticelab.symbol  # noqa: E402
from latticelab import (complement_quotient, embedding_class_count, full_report,  # noqa: E402
                        load_table, polarization_root, rank2_enumerate,
                        saturations_keeping_primitive)
from latticelab.exactmat import smith_normal_form  # noqa: E402
from latticelab.fqf import Subgroup  # noqa: E402
from latticelab.rank2 import DET_CAP  # noqa: E402
from latticelab.symbol import clear_jordan_caches, to_symbol  # noqa: E402

TABLE_RUNS = (("hm15", "E6"), ("k3max11", "E6+A1"), ("k3max11", "D7"),
              ("k3max11", "E7"), ("k3max11", "E8"))
SEED = 1  # seed of the queries stream the determinants come from
RUNS = 21  # units per measurement in a full (not --quick) run
UNIT_S = 0.1  # the length a unit's back-to-back runs fill
COLD_START = ("import sys; sys.path.insert(0, sys.argv[1]); import latticelab, latticelab.cli; "
              "latticelab.cli.build_parser()")


def summary(values: list[float]) -> dict:
    """Median and interquartile range of the runs, with the runs."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}


def git(*args: str) -> str | None:
    """The command's output, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def rank2_inputs(per_stratum: int) -> dict[tuple[int, int], list[tuple[int, bool]]]:
    """The first `per_stratum` rank2 queries of each stratum in the stream."""
    strata = {tuple(s): [] for s in gen.QUERY_KINDS["rank2"][1]}
    stream = gen.QueryStream(SEED)
    while any(len(v) < per_stratum for v in strata.values()):
        for kind, item in stream.next_batch():
            if kind == "rank2":
                dets = strata[tuple(item["stratum"])]
                if len(dets) < per_stratum:
                    dets.append((item["det"], item["negative"]))
    return strata


def reps_for(call, unit_s: float, setup=tuple) -> int:
    """How many back-to-back runs of call(*setup()) fill about unit_s,
    counted from one untimed warm-up run; setup() is not timed."""
    args = setup()
    start = time.perf_counter()
    call(*args)
    return max(1, round(unit_s / (time.perf_counter() - start)))


def timed(call, reps: int = 1, setup=tuple) -> float:
    """Mean seconds per call(*setup()) over reps back-to-back runs, scaled
    to the calibration kernel's reference speed by one kernel run just
    before and one just after all of them; each setup() runs just before
    its call, outside the timed span."""
    before = calib.kernel_s()
    elapsed = 0.0
    for _ in range(reps):
        args = setup()
        start = time.perf_counter()
        call(*args)
        elapsed += time.perf_counter() - start
    return calib.scaled(elapsed / reps, before, calib.kernel_s())


def per_call_ms(one, calls: int, runs: int, unit_s: float, setup=tuple) -> dict:
    """Median and IQR over runs units of the mean time per call, in ms at
    the reference speed, where one(*setup()) makes `calls` calls."""
    reps = reps_for(one, unit_s, setup)
    return summary([timed(one, reps, setup) * 1e3 / calls for _ in range(runs)])


def rebuilt(forms: list) -> list:
    """Each form rebuilt from its integers by copy.copy, which keeps no
    walk or p-part blocks; a form met more than once is rebuilt once."""
    copies = {}
    for form in forms:
        if id(form) not in copies:
            copies[id(form)] = copy.copy(form)
    return [copies[id(form)] for form in forms]


def rebuilt_pairs(pairs: list) -> list:
    """The (form, H) pairs on rebuilt forms, each H rebuilt on its form."""
    forms = rebuilt([form for form, _ in pairs])
    return [(form, Subgroup._of_elements(form, sub.elements))
            for form, (_, sub) in zip(forms, pairs)]


def time_tables(runs: int, unit_s: float = UNIT_S) -> dict:
    def one(table, root):
        clear_jordan_caches()
        for verdict in full_report(table, root):
            verdict.to_json_dict()

    reps = {run: reps_for(lambda: one(*run), unit_s) for run in TABLE_RUNS}
    return {f"{table}/{root}": summary([timed(lambda: one(table, root), reps[table, root])
                                        for _ in range(runs)])
            for table, root in TABLE_RUNS}


def glue_pairs() -> list:
    """The (form, H) pairs that one pass of the five table runs hands
    complement_quotient, through the name the saturations call."""
    pairs = []
    real = latticelab.nikulin.complement_quotient
    latticelab.nikulin.complement_quotient = \
        lambda form, sub: pairs.append((form, sub)) or real(form, sub)
    try:
        for table, root in TABLE_RUNS:
            full_report(table, root)
    finally:
        latticelab.nikulin.complement_quotient = real
    return pairs


def time_complement_quotient(runs: int, pairs: list, unit_s: float = UNIT_S) -> dict:
    def one(fresh):
        for form, sub in fresh:
            complement_quotient(form, sub)

    def setup():
        return (rebuilt_pairs(pairs),)

    return {"pairs": len(pairs), **per_call_ms(one, len(pairs), runs, unit_s, setup)}


def time_witness_symbols(runs: int, pairs: list, unit_s: float = UNIT_S) -> dict:
    def one(fresh):
        for form, sub in fresh:
            to_symbol(complement_quotient(form, sub))

    def setup():
        clear_jordan_caches()
        return (rebuilt_pairs(pairs),)

    return {"pairs": len(pairs), **per_call_ms(one, len(pairs), runs, unit_s, setup)}


def symbol_forms() -> list:
    """The forms that one pass of the five table runs, with to_json_dict(),
    hands to_symbol, caught where to_symbol splits them."""
    forms = []
    real = latticelab.symbol.jordan_constituents
    latticelab.symbol.jordan_constituents = lambda form: forms.append(form) or real(form)
    try:
        for table, root in TABLE_RUNS:
            for verdict in full_report(table, root):
                verdict.to_json_dict()
    finally:
        latticelab.symbol.jordan_constituents = real
    return forms


def time_to_symbol(runs: int, forms: list, unit_s: float = UNIT_S) -> dict:
    def one(fresh):
        for form in fresh:
            to_symbol(form)

    def setup():
        clear_jordan_caches()
        return (rebuilt(forms),)

    return {"forms": len(forms), **per_call_ms(one, len(forms), runs, unit_s, setup)}


def kernel_inputs() -> tuple[list, list]:
    """(matrices, keys): every matrix that one pass of the five table runs,
    with to_json_dict(), gives smith_normal_form (copied as given), and
    the distinct keys it splits with _split_primary, in first-seen order;
    caught under the names the library calls, which are restored after."""
    mats, keys = [], {}
    sym = latticelab.symbol
    snf, split = latticelab.exactmat.smith_normal_form, sym._split_primary

    def logged_snf(mat):
        mats.append([list(row) for row in mat])
        return snf(mat)

    latticelab.exactmat.smith_normal_form = latticelab.fqf.smith_normal_form = logged_snf
    sym._split_primary = lambda *key: keys.setdefault(key) or split(*key)
    try:
        for table, root in TABLE_RUNS:
            for verdict in full_report(table, root):
                verdict.to_json_dict()
    finally:
        latticelab.exactmat.smith_normal_form = latticelab.fqf.smith_normal_form = snf
        sym._split_primary = split
    return mats, list(keys)


def time_smith_normal_form(runs: int, mats: list, unit_s: float = UNIT_S) -> dict:
    def one():
        for mat in mats:
            smith_normal_form(mat)

    return {"matrices": len(mats), **per_call_ms(one, len(mats), runs, unit_s)}


def time_split_primary(runs: int, keys: list, unit_s: float = UNIT_S) -> dict:
    split = latticelab.symbol._split_primary.__wrapped__

    def one():
        for key in keys:
            split(*key)

    return {"keys": len(keys), **per_call_ms(one, len(keys), runs, unit_s)}


def embedding_calls() -> list:
    """The (record, T) pairs that one hm15/E6 pass, with to_json_dict(),
    hands embedding_class_count, through the name analyze_record calls."""
    calls = []
    real = latticelab.casebook.embedding_class_count
    latticelab.casebook.embedding_class_count = \
        lambda rec, t_form: calls.append((rec, t_form)) or real(rec, t_form)
    try:
        for verdict in full_report("hm15", "E6"):
            verdict.to_json_dict()
    finally:
        latticelab.casebook.embedding_class_count = real
    return calls


def rebuilt_calls(calls: list) -> list:
    """The (record, T) pairs on records rebuilt with rebuilt forms; a
    record met more than once is rebuilt once."""
    copies = {}
    for rec, _ in calls:
        if id(rec) not in copies:
            fields = {name: getattr(rec, name) for name in rec.__slots__}
            fields["q_K"], fields["q_S"] = rebuilt([rec.q_K, rec.q_S])
            copies[id(rec)] = type(rec)(**fields)
    return [(copies[id(rec)], t_form) for rec, t_form in calls]


def time_embedding_class_count(runs: int, calls: list, unit_s: float = UNIT_S) -> dict:
    def one(fresh):
        for rec, t_form in fresh:
            embedding_class_count(rec, t_form)

    def setup():
        clear_jordan_caches()
        return (rebuilt_calls(calls),)

    return {"calls": len(calls), **per_call_ms(one, len(calls), runs, unit_s, setup)}


def saturation_pairs() -> list:
    """The (q_S, q_R) pair of every record of the five table runs against
    its root, with one q_R per run."""
    pairs = []
    for table, root in TABLE_RUNS:
        q_r = polarization_root(root).q_R
        pairs += [(rec.q_S, q_r) for rec in load_table(table)]
    return pairs


def time_saturations(runs: int, pairs: list, unit_s: float = UNIT_S) -> dict:
    def one(fresh):
        for q_s, q_r in fresh:
            saturations_keeping_primitive(q_s, q_r)

    def setup():
        forms = rebuilt([form for pair in pairs for form in pair])
        return (list(zip(forms[::2], forms[1::2])),)

    return {"calls": len(pairs), **per_call_ms(one, len(pairs), runs, unit_s, setup)}


def time_rank2(runs: int, per_stratum: int, unit_s: float = UNIT_S) -> dict:
    cases = {f"{lo}-{hi}": inputs for (lo, hi), inputs in rank2_inputs(per_stratum).items()}
    cases["cap"] = [(DET_CAP, False)]
    out = {}
    for name, inputs in cases.items():
        def one():
            for det, negative in inputs:
                rank2_enumerate(det, negative)

        out[name] = {"dets": len(inputs), **per_call_ms(one, len(inputs), runs, unit_s)}
    return out


def time_cold_start(runs: int) -> dict:
    """Launch-to-exit times of fresh interpreters, in ms."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as prefix:
        def launch(*args: str) -> float:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-X", f"pycache_prefix={prefix}", *args],
                           env=env, check=True)
            return (time.perf_counter() - start) * 1e3

        cli = ("-c", COLD_START, str(ROOT / "src"))
        launch(*cli)
        times = {"cli": [], "bare": []}
        for _ in range(runs):
            times["cli"].append(launch(*cli))
            times["bare"].append(launch("-c", "pass"))
    return {name: summary(values) for name, values in times.items()}


def bench(pr: int, runs: int, per_stratum: int, unit_s: float) -> dict:
    dirty = git("status", "--porcelain", "--untracked-files=no")
    pairs = glue_pairs()
    mats, keys = kernel_inputs()
    return {
        "pr": pr,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": dirty if dirty is None else bool(dirty),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
        "src_sha256": src_sha256(),
        "runs": runs,
        "full_report_s": time_tables(runs, unit_s),
        "complement_quotient_ms": time_complement_quotient(runs, pairs, unit_s),
        "to_symbol_ms": time_to_symbol(runs, symbol_forms(), unit_s),
        "witness_symbol_ms": time_witness_symbols(runs, pairs, unit_s),
        "smith_normal_form_ms": time_smith_normal_form(runs, mats, unit_s),
        "split_primary_ms": time_split_primary(runs, keys, unit_s),
        "embedding_class_count_ms": time_embedding_class_count(runs, embedding_calls(), unit_s),
        "saturations_ms": time_saturations(runs, saturation_pairs(), unit_s),
        "rank2_enumerate_ms": time_rank2(runs, per_stratum, unit_s),
        "cold_start_ms": time_cold_start(runs),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--quick", action="store_true",
                        help="2 single-run units, 2 determinants per stratum, 2 "
                             "launches of each interpreter; print, write no file")
    args = parser.parse_args(argv)
    if args.quick:
        print(json.dumps(bench(args.pr, 2, 2, 0), indent=1))
        return
    data = bench(args.pr, RUNS, 20, UNIT_S)
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
