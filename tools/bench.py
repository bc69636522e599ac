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

Each `_ms` measurement but cold_start_ms times one layer: one function
called on each of a list of argument tuples.  The tuples of the symbol,
Smith-form, split, embedding-count and symbol-writer layers are what one
pass of the five table runs, with to_json_dict() on every verdict, hands
the function, and those of the glue layers the (ambient, H) of every
nontrivial witness that pass's saturation searches return, all captured
once in an untimed pass before any unit under the names the library
calls, which are restored after.
A captured form keeps its walk and p-part blocks once used, so before
each run of every layer, untimed, the Jordan caches are emptied and the
tuples rebuilt: every form from its integers (`copy.copy`, which
carries neither), every record around its rebuilt forms, and anything
else (H, a matrix, a key, a symbol, a rank-2 form) as captured, each
object copied once, so the forms that a
table run shares stay shared.  A layer is recorded as the median and IQR
over RUNS (21) units of the mean time per call, in ms at the reference
speed, with the number of calls.  From BENCH_35 on every layer's run
starts so; before it, the glue, Smith-form, split, saturation and rank-2
runs kept the Jordan caches, which none of them reads, and each H was
rebuilt onto its rebuilt form, with the generators it was captured with.

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
                       the layer of complement_quotient over the (form, H)
                       pairs of the nontrivial witnesses that the saturation
                       searches return (`pairs`).  From BENCH_25 on; the
                       forms rebuilt before each run from BENCH_29 on.  From
                       BENCH_34 on a trivial witness (H = 0) is not glued,
                       so the pairs are the 115 nontrivial ones, where they
                       were 163: the 48 cheapest left, and the mean rose.
                       Up to BENCH_39 the pairs were those the library
                       handed complement_quotient; from BENCH_40 on a twin
                       (the glue sigma(H), sigma = -1 on A_S, 1 on A_R, of
                       an earlier witness's H) takes H's quotient unglued,
                       so the pairs are read off the witnesses, and stay the
                       same 115, while the tables glue 75 of them.
  to_symbol_ms         the layer of to_symbol over the forms it is handed
                       (`forms`), caught where it splits them.  From
                       BENCH_28 on; the forms rebuilt and the caches
                       emptied before each run from BENCH_29 on.
  witness_symbol_ms    the layer of to_symbol(complement_quotient(form, H))
                       over the pairs of complement_quotient_ms: the symbol
                       of each witness quotient, as the saturation search
                       and the criterion take it.  From BENCH_29 on.
  smith_normal_form_ms the layer of smith_normal_form over the matrices it
                       is handed, each copied as given (`matrices`).  From
                       BENCH_30 on.
  split_primary_ms     the layer of the uncached Jordan split
                       (`_split_primary.__wrapped__`) over the distinct
                       p-part keys it is handed, in first-seen order
                       (`keys`).  From BENCH_30 on.
  embedding_class_count_ms
                       the layer of embedding_class_count over the
                       (record, T) calls of the hm15/E6 run (`calls`), on
                       records rebuilt around rebuilt forms.  From BENCH_31
                       on.
  saturations_ms       the layer of saturations_keeping_primitive over the
                       (q_S, q_R) pairs of every record of the five table
                       runs against its root (`calls`), not captured but
                       read from the tables, one q_R per root, so a root's
                       q_R stays shared across its records.  From BENCH_33
                       on.
  form_from_symbol_ms  the layer of form_from_symbol over the genus symbols
                       the table records are built from (`symbols`), 59
                       per pass on 26 distinct symbols.  From BENCH_39 on.
  rank2_enumerate_ms   per queries stratum of determinants, and for the one
                       determinant DET_CAP under `cap`: the layer of
                       rank2_enumerate over (det, negative) (`dets`).
                       `cap` from BENCH_27 on.
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
import latticelab.symbol  # noqa: E402
from latticelab import (FiniteQuadraticForm, LeechPairRecord, complement_quotient,  # noqa: E402
                        embedding_class_count, full_report, load_table, polarization_root,
                        rank2_enumerate, saturations_keeping_primitive)
from latticelab.exactmat import smith_normal_form  # noqa: E402
from latticelab.fqf import Subgroup  # noqa: E402
from latticelab.rank2 import DET_CAP  # noqa: E402
from latticelab.symbol import clear_jordan_caches, form_from_symbol, to_symbol  # noqa: E402

TABLE_RUNS = (("hm15", "E6"), ("k3max11", "E6+A1"), ("k3max11", "D7"),
              ("k3max11", "E7"), ("k3max11", "E8"))
SEED = 1  # seed of the queries stream the determinants come from
RUNS = 21  # units per measurement in a full (not --quick) run
UNIT_S = 0.1  # the length a unit's back-to-back runs fill
# the names table_inputs wraps, where the library calls them: both bindings
# of smith_normal_form log into one list
WRAPPED = ((latticelab.casebook, "saturations_keeping_primitive"),
           (latticelab.symbol, "jordan_constituents"),
           (latticelab.exactmat, "smith_normal_form"), (latticelab.fqf, "smith_normal_form"),
           (latticelab.symbol, "_split_primary"), (latticelab.casebook, "embedding_class_count"),
           (latticelab.casebook, "form_from_symbol"))
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


def rebuilt(obj, copies: dict):
    """obj rebuilt if a form, from its integers by copy.copy, which keeps
    no walk or p-part blocks, or a record, around its rebuilt forms, and
    otherwise as captured; copies maps the id of each object already
    rebuilt to its copy, so shared forms stay shared.  A closure here
    would form a cycle, and a run's copies would wait for the cycle
    collector, which can run inside a later timed span."""
    if not isinstance(obj, (FiniteQuadraticForm, LeechPairRecord)):
        return obj
    if id(obj) not in copies:
        copies[id(obj)] = (copy.copy(obj) if isinstance(obj, FiniteQuadraticForm) else
                           type(obj)(*[rebuilt(getattr(obj, name), copies)
                                       for name in obj.__slots__]))
    return copies[id(obj)]


def per_layer_ms(call, count: str, inputs: list[tuple], runs: int,
                 unit_s: float = UNIT_S) -> dict:
    """Median and IQR over runs units of the mean time per call(*args) over
    the argument tuples, in ms at the reference speed, with their number
    under `count`; before each run, outside the timed span, the Jordan
    caches are emptied and every object of the tuples rebuilt, one copy
    per object."""
    def one(fresh):
        for args in fresh:
            call(*args)

    def setup():
        clear_jordan_caches()
        copies = {}
        return ([tuple(rebuilt(obj, copies) for obj in args) for args in inputs],)

    reps = reps_for(one, unit_s, setup)
    return {count: len(inputs),
            **summary([timed(one, reps, setup) * 1e3 / len(inputs) for _ in range(runs)])}


def time_tables(runs: int, unit_s: float = UNIT_S) -> dict:
    def one(table, root):
        clear_jordan_caches()
        for verdict in full_report(table, root):
            verdict.to_json_dict()

    reps = {run: reps_for(lambda: one(*run), unit_s) for run in TABLE_RUNS}
    return {f"{table}/{root}": summary([timed(lambda: one(table, root), reps[table, root])
                                        for _ in range(runs)])
            for table, root in TABLE_RUNS}


def table_inputs() -> dict[str, list[tuple]]:
    """The argument tuples that one pass of the five table runs, with
    to_json_dict() on every verdict, hands each name of WRAPPED, by name
    and in call order: each matrix copied as given, each _split_primary
    key once, in first-seen order; for saturations_keeping_primitive, the
    (ambient, H) of every nontrivial witness it returns, in witness order,
    twins included.  Every name is restored after."""
    logs = {name: [] for _, name in WRAPPED}
    real = [getattr(owner, name) for owner, name in WRAPPED]

    def logged(name, fn):
        def call(*args):
            if name == "saturations_keeping_primitive":
                witnesses = fn(*args)
                total = witnesses[0].quotient
                logs[name] += [(total, Subgroup(total, w.glue_gens)) for w in witnesses[1:]]
                return witnesses
            logs[name].append(([list(row) for row in args[0]],)
                              if name == "smith_normal_form" else args)
            return fn(*args)
        return call

    for (owner, name), fn in zip(WRAPPED, real):
        setattr(owner, name, logged(name, fn))
    try:
        for table, root in TABLE_RUNS:
            for verdict in full_report(table, root):
                verdict.to_json_dict()
    finally:
        for (owner, name), fn in zip(WRAPPED, real):
            setattr(owner, name, fn)
    logs["_split_primary"] = list(dict.fromkeys(logs["_split_primary"]))
    return logs


def saturation_pairs() -> list:
    """The (q_S, q_R) pair of every record of the five table runs against
    its root, with one q_R per run."""
    pairs = []
    for table, root in TABLE_RUNS:
        q_r = polarization_root(root).q_R
        pairs += [(rec.q_S, q_r) for rec in load_table(table)]
    return pairs


def time_rank2(runs: int, per_stratum: int, unit_s: float = UNIT_S) -> dict:
    cases = {f"{lo}-{hi}": inputs for (lo, hi), inputs in rank2_inputs(per_stratum).items()}
    cases["cap"] = [(DET_CAP, False)]
    return {name: per_layer_ms(rank2_enumerate, "dets", inputs, runs, unit_s)
            for name, inputs in cases.items()}


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
    logs = table_inputs()
    pairs = logs["saturations_keeping_primitive"]
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
        "complement_quotient_ms": per_layer_ms(complement_quotient, "pairs", pairs, runs, unit_s),
        "to_symbol_ms": per_layer_ms(to_symbol, "forms", logs["jordan_constituents"], runs, unit_s),
        "witness_symbol_ms": per_layer_ms(lambda form, sub: to_symbol(complement_quotient(form, sub)),
                                          "pairs", pairs, runs, unit_s),
        "smith_normal_form_ms": per_layer_ms(smith_normal_form, "matrices",
                                             logs["smith_normal_form"], runs, unit_s),
        "split_primary_ms": per_layer_ms(latticelab.symbol._split_primary.__wrapped__, "keys",
                                         logs["_split_primary"], runs, unit_s),
        "embedding_class_count_ms": per_layer_ms(embedding_class_count, "calls",
                                                 logs["embedding_class_count"], runs, unit_s),
        "saturations_ms": per_layer_ms(saturations_keeping_primitive, "calls",
                                       saturation_pairs(), runs, unit_s),
        "form_from_symbol_ms": per_layer_ms(form_from_symbol, "symbols",
                                            logs["form_from_symbol"], runs, unit_s),
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
