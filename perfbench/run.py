"""latticelab benchmark: table reproduction and ad-hoc queries.

    python3 perfbench/run.py --workload {cubic,k3,queries} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the checkout is the directory above this file and the
library is imported from its `src/`.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones, measured with tracing
off; with `--trace 1` they are the per-layer ones, from a run that
alternates untraced and traced units and so also reports the tracing
overhead.  A run record with the machine, the inputs and the bases of
every ratio goes to perfbench/out/.

Workloads, all closed loops with one client and one process at a time:
  cubic    the HM15 table against E6, embedding counts on, as
           `cubic check --all`; one pass per fresh interpreter, rows in a
           seeded order.  The only workload that counts embeddings.
  k3       the K3MAX11 table against E6+A1, D7, E7 and E8; one pass per
           fresh interpreter, (root, row) pairs in a seeded order.  Glue on
           the largest groups; no row counts embeddings.
  queries  a seeded stream of independent library calls in one
           long-lived interpreter, in batches with a fixed count per kind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from calib import kernel_s, scaled
from tracer import LAYER_NAMES, RATIOS, RESULT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

PROBES = 15              # set-up only interpreters per run, after one warm-up
MIN_UNITS = {"cubic": 7, "k3": 4}  # enough operations for a p90 tail
HARD_LIMIT_S = 170       # every run ends well inside the 180 s allowed
TAIL_LADDER = (500, 900, 990, 999)  # per mille

END_TO_END = {
    "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer, what in RESULT_COUNTS:
        units[f"{layer}.{what}"] = "count"
    for ratio in RATIOS:
        units[ratio] = "ratio"
    units.update({"cli.import_s": "s", "cli.build_parser_s": "s",
                  "trace.overhead_s": "s", "trace.overhead_share": "ratio"})
    return units


class BenchError(Exception):
    pass


# -- running interpreters ---------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")  # call counts must repeat exactly
    env.pop("LATTICELAB_DATA", None)
    env.pop("PYTHONPATH", None)
    return env


def launch(job: dict, started: float) -> dict:
    """Run one fresh interpreter; set-up time counts from its launch."""
    remaining = HARD_LIMIT_S - (time.monotonic() - started)
    if remaining <= 1:
        raise BenchError("out of time before the run could finish")
    before = kernel_s()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, cwd=ROOT, env=worker_env(),
            timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["module_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported latticelab from {out['module_file']}")
    out["setup_raw_s"] = out["ready"] - t0
    out["setup_s"] = scaled(out["setup_raw_s"], before, out["kernel_after_ready"])
    return out


# -- statistics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for permille in TAIL_LADDER:
        rank = max(1, -(-permille * n // 1000))  # nearest rank
        if n - rank >= 10:
            best = (permille / 10, ordered[rank - 1])
    if best is None:
        raise BenchError(f"{n} operations are too few for a tail percentile")
    return best


# -- the workloads ----------------------------------------------------------------


def table_units(args, started: float, spans: str | None) -> list[dict]:
    units = []
    measure = time.monotonic()
    u = 0
    last = 0.0
    min_units = 2 if args.trace else MIN_UNITS[args.workload]
    # start another unit only if at least half of it fits in the time
    while u < min_units or time.monotonic() - measure + last / 2 < args.seconds:
        t0 = time.monotonic()
        if args.workload == "cubic":
            order = [["E6", row] for row in gen.cubic_order(args.seed, u)]
        else:
            order = [list(op) for op in gen.k3_order(args.seed, u)]
        traced = bool(args.trace) and u % 2 == 1
        out = launch({"mode": "work", "workload": args.workload, "root": str(ROOT),
                      "seed": args.seed, "unit": u, "order": order,
                      "trace": traced, "spans": spans}, started)
        out["traced_unit"] = traced
        units.append(out)
        last = time.monotonic() - t0
        u += 1
    return units


def query_units(args, started: float, spans: str | None) -> list[dict]:
    out = launch({"mode": "work", "workload": "queries", "root": str(ROOT),
                  "seed": args.seed, "trace": bool(args.trace), "spans": spans,
                  "deadline": time.monotonic() + args.seconds,
                  "min_units": 2 if args.trace else 1,
                  "max_units": gen.MAX_BATCHES}, started)
    return [out]


# An op is [label, raw seconds, scaled seconds, error, batch (queries only)].
RAW, SCALED, ERROR, BATCH = 1, 2, 3, 4


def unit_times(interpreters: list[dict], workload: str,
               col: int = SCALED) -> tuple[list, list]:
    """(untraced, traced) per-unit operation times: a table pass, or a batch."""
    plain, traced = [], []
    for it in interpreters:
        if workload == "queries":
            on = {t["unit"] for t in it.get("traced", [])}
            by_batch: dict[int, float] = {}
            for op in it["ops"]:
                by_batch[op[BATCH]] = by_batch.get(op[BATCH], 0.0) + op[col]
            for batch, t in sorted(by_batch.items()):
                (traced if batch in on else plain).append(t)
        else:
            t = sum(op[col] for op in it["ops"])
            (traced if it["traced_unit"] else plain).append(t)
    return plain, traced


def plain_ops(interpreters: list[dict], workload: str) -> list:
    ops = []
    for it in interpreters:
        on = {t["unit"] for t in it.get("traced", [])}
        if workload == "queries":
            ops += [op for op in it["ops"] if op[BATCH] not in on]
        elif not it["traced_unit"]:
            ops += it["ops"]
    return ops


def median_op(ops: list, col: int, workload: str) -> float:
    """Median over distinct operations of each one's median latency.

    A table row runs once per pass; pooling its samples would put the
    median at the edge between two rows' clusters, where it flips from run
    to run.  A query never repeats, so there it is the plain median."""
    if workload == "queries":
        return statistics.median(op[col] for op in ops)
    by_row: dict[str, list] = {}
    for op in ops:
        by_row.setdefault(op[0], []).append(op[col])
    return statistics.median(statistics.median(v) for v in by_row.values())


def end_to_end(interpreters, launches, workload, col=SCALED) -> dict:
    plain, _ = unit_times(interpreters, workload, col)
    ops = plain_ops(interpreters, workload)
    lat = [op[col] for op in ops]
    p, tail_value = tail(lat)
    setup = "setup_s" if col == SCALED else "setup_raw_s"
    return {
        "wall_s": statistics.median(plain),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": median_op(ops, col, workload) * 1000,
        "op_tail_ms": tail_value * 1000,
        "setup_s": statistics.median(it[setup] for it in launches),
        "peak_rss_mb": statistics.median(it["rss_mb"] for it in interpreters),
        "tail_percentile": p, "samples": len(lat), "units": len(plain),
        "unit_times_s": plain, "setup_samples_s": [it[setup] for it in launches],
    }


def per_layer(interpreters, launches, workload) -> tuple[dict, dict]:
    summaries = [t for it in interpreters for t in it.get("traced", [])]
    if not summaries:
        raise BenchError("the traced run traced no unit")
    first = summaries[0]
    metrics = {}
    for name, value in first["counts"].items():
        if not name.endswith(".base") and name != "extract_errors":
            metrics[name] = value
    for name in first["self_s"]:
        metrics[name] = statistics.median(s["self_s"][name] for s in summaries)
    metrics["cli.import_s"] = statistics.median(it["import_s"] for it in launches)
    metrics["cli.build_parser_s"] = statistics.median(
        it["build_parser_s"] for it in launches)
    plain, traced = unit_times(interpreters, workload)
    base = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - base
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / base
    info = {
        "ratio_bases": {k[:-5]: v for k, v in first["counts"].items()
                        if k.endswith(".base")},
        "extract_errors": first["counts"]["extract_errors"],
        "absent": first["absent"],
        "traced_units": [s["unit"] for s in summaries],
        # a table pass repeats its inputs, so its counts must repeat exactly
        "counts_repeat": workload == "queries"
        or all(s["counts"] == first["counts"] for s in summaries),
        "untraced_unit_times_s": plain, "traced_unit_times_s": traced,
    }
    return metrics, info


def workload_info(interpreters, workload) -> dict:
    if workload != "queries":
        ops = [op[0] for it in interpreters for op in it["ops"]]
        per_pass = len(gen.CUBIC_ROWS) if workload == "cubic" \
            else len(gen.K3_ROOTS) * len(gen.K3_ROWS)
        return {"ops_per_pass": per_pass,
                "repeat_share": 1 - len(set(ops)) / len(ops),
                "repeat_share_within_interpreter": 0.0}
    ops = interpreters[0]["ops"]
    time_by_kind: dict[str, float] = {}
    for op in ops:
        time_by_kind[op[0]] = time_by_kind.get(op[0], 0.0) + op[SCALED]
    total = sum(time_by_kind.values())
    return {"kinds": {kind: {"count_per_batch": count, "strata": strata,
                             "time_share": time_by_kind.get(kind, 0.0) / total}
                      for kind, (count, strata) in gen.QUERY_KINDS.items()},
            "batches": len({op[BATCH] for op in ops}), "repeat_share": 0.0}


# -- the run record ---------------------------------------------------------------


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    sources = sorted((ROOT / "src" / "latticelab").glob("*.py"))
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in sources}
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {"git_sha": sha, "src_sha256": digest, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cubic", "k3", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latticelab" / "__init__.py").is_file():
        print(f"error: no latticelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "load_start": os.getloadavg()[0], **machine()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = None
    if args.trace:
        spans = str(OUT / f"spans-{stem}.csv")
        with open(spans, "w", encoding="utf-8") as fh:
            fh.write("unit,span,parent,name,start,end\n")
    try:
        probe = {"mode": "probe", "workload": args.workload, "root": str(ROOT)}
        launch(probe, started)  # warm-up: byte-compiles the sources once
        launches = [launch(probe, started) for _ in range(PROBES)]
        run = query_units if args.workload == "queries" else table_units
        interpreters = run(args, started, spans)
        launches += interpreters
        if args.trace:
            metrics, info = per_layer(interpreters, launches, args.workload)
            units = per_layer_units()
        else:
            metrics = end_to_end(interpreters, launches, args.workload)
            info = {"raw": end_to_end(interpreters, launches, args.workload, RAW)}
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for it in interpreters for op in it["ops"]]
    failures = [f"{op[0]}: {op[ERROR]}" for op in ops if op[ERROR]]
    record.update(info)
    record.update(workload_info(interpreters, args.workload))
    record.update({"load_end": os.getloadavg()[0], "elapsed_s": time.monotonic() - started,
                   "attempted": len(ops), "failed": len(failures),
                   "fail_ratio": len(failures) / len(ops), "failures": failures[:20],
                   "metrics": metrics})
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
    print(json.dumps({
        "correct": not failures, "attempted": len(ops), "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
