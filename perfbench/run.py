"""Benchmark of the ``run_experiment`` sweep, end to end and per layer.

    python3 perfbench/run.py --workload warm-grid --seed 42 --seconds 10 --trace 0

Run from the root of a checkout.  The run

1. sets up: exports the workload's seeded synthetic trace (several
   times; ``setup_s`` is the median);
2. measures: starts ``perfbench/sweep.py`` in a fresh interpreter per
   sweep, for ``--seconds`` seconds and at least three sweeps, and
   reports medians, timed in reference seconds (``hostclock.py``);
3. with ``--trace 1``, adds one traced sweep and reports per-layer
   calls, self time and share plus exact counters instead of the
   end-to-end metrics;
4. checks the outputs and prints a table, then one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics`` as the last
   stdout line.  A record of the run goes to ``.perfbench_work/records``
   for ``perfbench/compare.py``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import SETUP_SPANS, SPANS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_SWEEPS = 3
#: The whole run, children included, ends within this many seconds.
DEADLINE_S = 170.0
WORK_DIR = ".perfbench_work"

METHODS = ("hash", "kl", "metis", "p-metis", "tr-metis", "fennel")

#: End-to-end metrics (name, unit), reported with --trace 0.
END_TO_END = (
    ("sweep_s", "s"),
    ("sweep_cpu_s", "s"),
    ("cell_rows_per_s", "rows/s"),
    ("setup_s", "s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Exact counters; every run of one seed must reproduce them.
COUNTERS = (
    ("rows", "count"),
    ("vertices", "count"),
    ("cells", "count"),
    ("core.moves", "count"),
    *((f"core.repartitions.{m}", "count") for m in METHODS),
    *((f"core.moves.{m}", "count") for m in METHODS),
    ("sharding.transactions", "count"),
    ("experiments.ResultSet.dumps.bytes", "bytes"),
    ("experiments.store.save.bytes", "bytes"),
    ("experiments.store.load_known.bytes", "bytes"),
)

#: Per-layer metrics (name, unit), reported with --trace 1.
PER_LAYER = (
    *((f"{span}.{field}", unit) for span in SPANS
      for field, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"))),
    *COUNTERS,
    ("experiments.parallel.chunk_skew_s", "s"),
    ("experiments.parallel.wait_s", "s"),
    ("trace.sweep_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.uncovered_share", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def source_provenance(root: pathlib.Path) -> dict:
    """The checkout's commit (when it is a git work tree) and a hash of
    every file under ``src/``, which identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None
        commit = ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


class Run:
    def __init__(self, args, root: pathlib.Path):
        self.args = args
        self.root = root
        self.workload = WORKLOADS[args.workload]
        # a fixed path: the trace's absolute path is part of the output
        # bytes, so it must not vary between runs of one seed
        self.work = root / WORK_DIR / f"{args.workload}-{args.seed}"
        self.started = time.perf_counter()

    def child(self, step: str, trace: bool = False, reference: bool = False) -> dict:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the measurement finished")
        cmd = [
            sys.executable, str(HERE / "sweep.py"), step,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--work", str(self.work),
        ]
        if trace:
            cmd.append("--trace")
        if reference:
            cmd.append("--reference")
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{step} step exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{step} step failed:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def measure(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            setup = self.child("setup", trace=self.args.trace)
            sweeps = []
            t0 = time.perf_counter()
            while len(sweeps) < MIN_SWEEPS or time.perf_counter() - t0 < self.args.seconds:
                once = bool(self.workload.reference) or self.workload.paper_orderings
                sweeps.append(self.child("sweep", reference=once and not sweeps))
            traced = self.child("sweep", trace=True) if self.args.trace else None
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return setup, sweeps, traced


def check_run(run: Run, setup: dict, sweeps, traced, failures: checks.Failures,
              labels) -> None:
    """Run-level checks across the steps of one run."""
    steps = sweeps + ([traced] if traced else [])
    backends = {s["provenance"]["backend"] for s in [setup] + steps}
    if len(backends) != 1:
        raise BenchError(f"steps ran under different kernel backends: {sorted(backends)}")
    for step in steps:
        for message in step["failures"]:
            failures.fail(message, step["failed_cells"])
    if len(setup["trace_sha256"]) != 1:
        failures.fail("repeated exports of one seed wrote different traces", labels)
    first = sweeps[0]
    for i, step in enumerate(steps[1:], 1):
        what = "traced sweep" if step is traced else f"sweep {i}"
        if step["raw_sha256"] != first["raw_sha256"]:
            failures.fail(f"{what} bytes differ from sweep 0", labels)
        if step["counters"] != first["counters"]:
            failures.fail(f"{what} counters differ from sweep 0", labels)
    if run.args.seed == DEFAULT_SEED:
        name = run.workload.reference or run.args.workload
        expected = checks.recorded_digest(name)
        if expected != first["digest"]:
            failures.fail(
                f"seed {DEFAULT_SEED} output digest {first['digest'][:12]} does not "
                f"match the recorded {name} digest {str(expected)[:12]}", labels)


def check_counter_record(run: Run, counters: dict, provenance: dict,
                         failures: checks.Failures, labels) -> None:
    """Counters must repeat exactly across runs of one seed and code."""
    record = run.root / WORK_DIR / "counters" / (
        f"{run.args.workload}-{run.args.seed}-{provenance['backend']}-"
        f"{provenance['source_sha256'][:16]}.json"
    )
    if record.exists():
        known = json.loads(record.read_text(encoding="utf-8"))
        differ = sorted(k for k in counters.keys() & known.keys() if counters[k] != known[k])
        if differ:
            failures.fail(f"counters differ from an earlier run of this seed: {differ}", labels)
        known.update(counters)
        counters = known
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counters, sort_keys=True), encoding="utf-8")


def end_to_end(setup: dict, sweeps) -> dict:
    median = statistics.median
    return {
        "sweep_s": median(s["sweep_s"] for s in sweeps),
        "sweep_cpu_s": median(s["sweep_cpu_s"] for s in sweeps),
        "cell_rows_per_s": median(
            setup["rows"] * s["counters"]["cells"] / s["sweep_s"] for s in sweeps
        ),
        "setup_s": median(setup["setup_times"]),
        "resume_s": median(t for s in sweeps for t in s["resume_times"]),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in sweeps),
    }


def per_layer(setup: dict, sweeps, traced: dict, counters: dict) -> dict:
    trace = traced["trace"]
    values = {}
    for span in SPANS:
        if span in SETUP_SPANS:
            row = setup["spans"].get(span, {"calls": 0, "self_s": 0.0})
            row = dict(row, share=row["self_s"] / setup["traced_setup_s"])
        else:
            row = trace["spans"][span]
        for field in ("calls", "self_s", "share"):
            values[f"{span}.{field}"] = row[field]
    values.update(counters)
    untraced = statistics.median(s["sweep_s"] for s in sweeps)
    values.update({
        "experiments.parallel.chunk_skew_s": statistics.median(s["chunk_skew_s"] for s in sweeps),
        "experiments.parallel.wait_s": trace["wait_s"],
        "trace.sweep_s": traced["sweep_s"],
        "trace.overhead_s": traced["sweep_s"] - untraced,
        "trace.uncovered_s": trace["uncovered_s"],
        "trace.uncovered_share": trace["uncovered_s"] / traced["sweep_wall_s"],
    })
    return values


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    width = max(len(name) for name in values)
    for name, value in values.items():
        print(f"  {name:<{width}}  {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a repro checkout",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        setup, sweeps, traced = run.measure()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    provenance = {**setup["provenance"], **source_provenance(root),
                  "seed": args.seed, "rows": setup["rows"], "vertices": setup["vertices"]}
    labels = sweeps[0]["labels"]
    failures = checks.Failures(labels)
    try:
        check_run(run, setup, sweeps, traced, failures, labels)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    counters = dict(sweeps[0]["counters"], rows=setup["rows"], vertices=setup["vertices"])
    if traced is not None:
        for name, value in traced["trace"]["bytes"].items():
            if name.startswith("experiments.store."):
                counters[f"{name}.bytes"] = value
        # call counts are exact too (place_new_vertices, part_graph, ...)
        spans = {**traced["trace"]["spans"], **setup["spans"]}
        counters.update((f"{span}.calls", spans[span]["calls"]) for span in SPANS)
    check_counter_record(run, counters, provenance, failures, labels)

    attempted = sum(s["attempted"] for s in sweeps + ([traced] if traced else []))
    failed = min(attempted, len(failures.cells))
    if traced is None:
        values, units = end_to_end(setup, sweeps), dict(END_TO_END)
    else:
        exact = {name: counters.get(name, 0) for name, _ in COUNTERS}
        values, units = per_layer(setup, sweeps, traced, exact), dict(PER_LAYER)
    print(f"workload {args.workload}  seed {args.seed}  sweeps {len(sweeps)}  "
          + "  ".join(f"{k}={v}" for k, v in provenance.items()))
    print_table("metrics:", values, units)
    if traced is None:
        print(f"  (reference seconds; raw wall: sweep "
              f"{statistics.median(s['sweep_wall_s'] for s in sweeps):.6g} s, set-up "
              f"{statistics.median(setup['setup_wall_times']):.6g} s, host speed "
              f"{statistics.median(s['speed'] for s in sweeps):.4g})")
    print(f"  error_rate  {failed / attempted:.6g} ratio  ({failed} of {attempted} cells)")
    for message in failures.messages:
        print(f"  FAILED: {message}")

    record_dir = root / WORK_DIR / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps({"workload": args.workload, "trace": args.trace, "provenance": provenance,
                    "metrics": values, "setup": setup, "sweeps": sweeps, "traced": traced}),
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": not failures.messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
