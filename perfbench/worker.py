"""One fresh interpreter of the benchmark: set up as the CLI would, then work.

    python3 perfbench/worker.py '<json job>'

The job names the workload, the mode (`probe` sets up and exits) and the
work: the row order of one table pass, or a deadline for the query loop.
The worker prints one JSON line with its set-up timestamps, the latency
(raw and scaled to the reference speed, see calib.py) and check result of
every operation, its peak RSS and, when traced, the per-layer counts and
self times.  Checks run outside the timed calls.
"""

from __future__ import annotations

import json
import resource
import sys
import time

clock = time.perf_counter


def set_up(root: str, workload: str) -> dict:
    """The cold start every CLI invocation pays, plus the program-side
    preparation of the workload.  Timed by the caller from launch."""
    t0 = clock()
    sys.path.insert(0, root + "/src")
    import latticelab
    import latticelab.cli
    t1 = clock()
    latticelab.cli.build_parser()
    t2 = clock()
    env = {"ll": latticelab, "import_s": t1 - t0, "build_parser_s": t2 - t1}
    if workload == "cubic":
        env["records"] = {r.row: r for r in latticelab.load_table("hm15")}
        env["roots"] = {"E6": latticelab.polarization_root("E6")}
    elif workload == "k3":
        env["records"] = {r.row: r for r in latticelab.load_table("k3max11")}
        env["roots"] = {name: latticelab.polarization_root(name)
                        for name in ("E6+A1", "D7", "E7", "E8")}
    env["ready"] = time.monotonic()
    from calib import kernel_s
    env["kernel_after_ready"] = kernel_s()
    env["module_file"] = latticelab.__file__
    return env


def table_pass(env: dict, job: dict, tracer) -> list:
    """Analyze the rows of one table pass in the job's order."""
    from calib import kernel_s, scaled
    from verdicts import canonical, cubic_line, k3_verdict, load_cubic_reference, \
        load_k3_reference
    ll = env["ll"]
    cubic = job["workload"] == "cubic"
    reference = load_cubic_reference() if cubic else load_k3_reference()
    ops = []
    for root_name, row in job["order"]:
        rec, root = env["records"][row], env["roots"][root_name]
        error = None
        before = kernel_s()
        if tracer:
            tracer.recording = True
        start = clock()
        try:
            verdict = ll.analyze_record(rec, root)
        except Exception as exc:  # a failed operation is counted, not fatal
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if tracer:
            tracer.recording = False
        after = kernel_s()
        if verdict is not None:
            data = verdict.to_json_dict()
            if cubic:
                got, want = cubic_line(data), reference[row]
            else:
                got, want = canonical(k3_verdict(data)), reference[(root_name, row)]
            if got != want:
                error = f"verdict differs from the reference: {got}"
        ops.append([f"{root_name}/{row}", elapsed, scaled(elapsed, before, after),
                    error])
    return ops


def query_loop(env: dict, job: dict, tracer) -> tuple[list, list]:
    """Batches of queries until the deadline; in a traced run every second
    batch is traced.  Returns the ops and, per traced batch, its summary."""
    import queries
    from calib import kernel_s, scaled
    from gen import QueryStream
    stream = QueryStream(job["seed"])
    ops, traced = [], []
    while stream.batches < job["min_units"] or (
            time.monotonic() < job["deadline"]
            and stream.batches < job["max_units"]):
        batch_no = stream.batches
        batch = stream.next_batch()
        on = tracer is not None and batch_no % 2 == 1
        if on:
            tracer.reset()
            tracer.install()
        for kind, item in batch:
            prepare, run, check = queries.KINDS[kind]
            error = None
            elapsed, before, after = 0.0, 1.0, 1.0
            try:
                args = prepare(item)
                before = kernel_s()
                if on:
                    tracer.recording = True
                start = clock()
                try:
                    result = run(args)
                finally:
                    elapsed = clock() - start
                    if on:
                        tracer.recording = False
                    after = kernel_s()
                error = check(item, args, result)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            ops.append([kind, elapsed, scaled(elapsed, before, after), error,
                        batch_no])
        if on:
            tracer.uninstall()
            traced.append(summary(tracer, batch_no))
            if job.get("spans"):
                with open(job["spans"], "a", encoding="utf-8") as fh:
                    tracer.write_spans(fh, batch_no)
    return ops, traced


def peak_rss_mb() -> float:
    """This interpreter's own peak RSS.  ru_maxrss would not do: Linux
    carries it over exec from the forked parent, whose RSS can be larger."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summary(tracer, unit: int) -> dict:
    return {"unit": unit, "counts": tracer.counts(),
            "self_s": tracer.self_times(), "absent": tracer.absent}


def main() -> None:
    job = json.loads(sys.argv[1])
    env = set_up(job["root"], job["workload"])
    out = {"ready": env["ready"], "kernel_after_ready": env["kernel_after_ready"],
           "import_s": env["import_s"],
           "build_parser_s": env["build_parser_s"],
           "module_file": env["module_file"]}
    if job["mode"] == "work":
        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer()
        if job["workload"] == "queries":
            out["ops"], out["traced"] = query_loop(env, job, tracer)
        else:
            if tracer:
                tracer.install()
            out["ops"] = table_pass(env, job, tracer)
            if tracer:
                tracer.uninstall()
                out["traced"] = [summary(tracer, job["unit"])]
                if job.get("spans"):
                    with open(job["spans"], "a", encoding="utf-8") as fh:
                        tracer.write_spans(fh, job["unit"])
        out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
