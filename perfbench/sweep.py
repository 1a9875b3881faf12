"""One timed step of the benchmark, run in a fresh interpreter.

``run.py`` starts this script once per measured step so that no run
inherits caches, live results or heap growth from an earlier one:

    python3 perfbench/sweep.py setup --workload W --seed N --work DIR [--trace]
    python3 perfbench/sweep.py sweep --workload W --seed N --work DIR [--trace] [--reference]

``setup`` generates the workload's seeded synthetic history and exports
it as an rctrace v3 file, several times, timing each export.  ``sweep``
times ``run_experiment`` through ``ResultSet.dumps()``, re-runs the
spec against the filled store, checks the output and prints one JSON
object on its last stdout line.  Times are taken with
:class:`hostclock.HostClock`.  Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, os.path.abspath("src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracer import SPANS, WORKER_ROOT, Tracer, aggregate, covered, read_worker_spans  # noqa: E402

#: A setup step exports at least this many times and for at least
#: this long (setup_s is the median export time).
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
#: Resumes per sweep step; a resume is short, so it is timed several
#: times (resume_s is the median over all steps).
RESUME_REPEATS = 3


def trace_path(work: pathlib.Path, workload, seed: int) -> pathlib.Path:
    return work / f"trace-{workload.trace}-{seed}.rct"


def provenance() -> dict:
    import numpy
    from repro import kernels

    return {
        "backend": kernels.backend_name(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def do_setup(args, workload) -> dict:
    from repro.ethereum import export

    path = trace_path(args.work, workload, args.seed)
    config = workloads.workload_config(workload.trace, args.seed)
    clock = HostClock()
    digests = set()

    def timed_export():
        # looked up at call time, so a traced export calls the wrapper
        with clock.measure() as timing:
            result = export.export_workload_trace(config, path)
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        return result, timing

    timings = []
    while len(timings) < SETUP_MIN_REPEATS or sum(t.wall_s for t in timings) < SETUP_MIN_SECONDS:
        result, timing = timed_export()
        timings.append(timing)
    out = {
        "setup_times": [t.ref_s for t in timings],
        "setup_wall_times": [t.wall_s for t in timings],
        "rows": result.rows,
        "vertices": result.vertices,
        "transactions": result.transactions,
        "trace_bytes": result.file_bytes,
        "provenance": provenance(),
    }
    if args.trace:
        # one more export, traced, for the per-layer split of set-up
        tracer = Tracer(args.work, clock=clock.now)
        tracer.install()
        try:
            _, timing = timed_export()
        finally:
            tracer.uninstall()
        out["traced_setup_s"] = timing.wall_s
        out["spans"] = aggregate(tracer.spans)
    out["trace_sha256"] = sorted(digests)
    return out


def store_bytes(root: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*.json"))


def output_counters(rs, text: str) -> dict:
    """Exact counters read off the sweep's output."""
    counters = {
        "cells": len(rs),
        "sharding.transactions": 0,
        "experiments.ResultSet.dumps.bytes": len(text.encode("utf-8")),
    }
    for cell in rs:
        name = cell.key.method.name
        for key, value in (
            (f"core.repartitions.{name}", cell.num_repartitions),
            (f"core.moves.{name}", cell.total_moves),
            ("core.moves", cell.total_moves),
        ):
            counters[key] = counters.get(key, 0) + value
        if cell.execution is not None:
            counters["sharding.transactions"] += cell.execution.completed
    return counters


def do_sweep(args, workload) -> dict:
    from repro.experiments import ResultStore, run_experiment

    spec = workloads.experiment_spec(workload, str(trace_path(args.work, workload, args.seed)))
    store_root = args.work / f"store-{os.getpid()}"
    shutil.rmtree(store_root, ignore_errors=True)
    store = ResultStore(store_root)
    clock = HostClock()
    span_dir = args.work / f"spans-{os.getpid()}"
    tracer = None
    if args.trace:
        span_dir.mkdir()
        tracer = Tracer(span_dir, clock=clock.now)
        tracer.install()
    delivered = []

    def progress(_key, outcome):
        if outcome == "computed":
            delivered.append(clock.now())

    with clock.measure() as sweep:
        t0 = clock.now()
        rs = run_experiment(
            spec, jobs=workload.jobs,
            store=store if workload.store_in_sweep else None, progress=progress,
        )
        text = rs.dumps()
        t1 = clock.now()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    counters = output_counters(rs, text)
    if not workload.store_in_sweep:
        if tracer is not None:
            tracer.uninstall()
        for cell in rs:
            store.save(spec, cell)
        if tracer is not None:
            tracer.install()
    counters["experiments.store.bytes"] = store_bytes(store_root)

    labels = [key.label for key in rs.keys()]
    failures = checks.Failures(labels)
    resumes = []
    for _ in range(1 if tracer is not None else RESUME_REPEATS):
        with clock.measure() as resume:
            resumed = run_experiment(spec, jobs=workload.jobs, store=store)
            resumed_text = resumed.dumps()
        resumes.append(resume)
        failures.compare("resumed", rs, resumed, resumed_text == text)
    if tracer is not None:
        tracer.uninstall()     # the checks below are not part of the trace
    attempted = len(rs) * (1 + len(resumes))
    if args.reference:
        ref = run_experiment(spec, jobs=1)
        failures.compare("jobs=1 reference", rs, ref, ref.dumps() == text)
        attempted += len(rs)
    if workload.paper_orderings:
        checks.cut_below_hash(rs, spec, failures)
        if args.reference:
            attempted += reference_orderings(args, workload, failures)

    out = {
        "sweep_s": sweep.ref_s,
        "sweep_cpu_s": sweep.ref_cpu_s,
        "resume_times": [t.ref_s for t in resumes],
        "sweep_wall_s": sweep.wall_s,
        "sweep_raw_cpu_s": sweep.cpu_s,
        "resume_wall_times": [t.wall_s for t in resumes],
        "speed": sweep.speed,
        "peak_rss_mb": peak_kb / 1024.0,
        "chunk_skew_s": (max(delivered) - min(delivered)) if delivered else 0.0,
        "digest": checks.canonical_digest(text),
        "raw_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "counters": counters,
        "attempted": attempted,
        "labels": labels,
        "failed_cells": sorted(failures.cells),
        "failures": failures.messages,
        "provenance": provenance(),
    }
    if tracer is not None:
        out["trace"] = trace_report(tracer, span_dir, t0, t1, resumes[0].wall_s)
    shutil.rmtree(store_root, ignore_errors=True)
    shutil.rmtree(span_dir, ignore_errors=True)
    return out


def reference_orderings(args, workload, failures: checks.Failures) -> int:
    """Export the trace of ``DEFAULT_SEED``, sweep it and check the
    paper's Fig. 5 orderings on the output; returns the cells run."""
    from repro.ethereum import export
    from repro.experiments import run_experiment

    seed = workloads.DEFAULT_SEED
    path = args.work / f"orderings-{workload.trace}-{seed}.rct"
    export.export_workload_trace(workloads.workload_config(workload.trace, seed), path)
    spec = workloads.experiment_spec(workload, str(path))
    rs = run_experiment(spec, jobs=1)
    checks.paper_orderings(rs, spec, failures, where=f"seed {seed} trace")
    path.unlink()
    return len(rs)


def trace_report(tracer: Tracer, span_dir: pathlib.Path, t0: float, t1: float, resume_s: float) -> dict:
    """Per-span calls/self time over the sweep and the traced resume,
    merged across the parent and any pool workers, plus exact byte
    counters and the parts of the sweep no span covers."""
    batches = [(tracer.spans, tracer.bytes)] + read_worker_spans(span_dir)
    rows: dict = {}
    byte_counts: dict = {}
    busy = (t1 - t0) + resume_s
    for i, (spans, counted) in enumerate(batches):
        for name, row in aggregate(spans).items():
            acc = rows.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
            if i and name == WORKER_ROOT:    # a pool worker's busy time
                busy += row["total_s"]
        for name, value in counted.items():
            byte_counts[name] = byte_counts.get(name, 0) + value
    for row in rows.values():
        row["share"] = row["self_s"] / busy
    wait = rows.get("experiments.parallel.run_chunks_parallel", {}).get("self_s", 0.0)
    return {
        "spans": {name: rows.get(name, {"calls": 0, "self_s": 0.0, "share": 0.0}) for name in SPANS},
        "bytes": byte_counts,
        "wait_s": wait,
        "busy_s": busy,
        "uncovered_s": (t1 - t0) - covered(tracer.spans, t0, t1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "sweep"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="also make the once-per-run checks: the spec with jobs=1 "
                             "gives the same bytes; the Fig. 5 orderings hold on the "
                             "seed-42 trace")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    result = do_setup(args, workload) if args.step == "setup" else do_sweep(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
