"""EXEC-SWEEP — execution cost of a cut, swept from a v3 trace.

An execution-enabled sweep (mode × partitioner × k) run end to end
from an exported rctrace v3 file through ``run_experiment``:
committed-transaction throughput next to the dynamic edge cut that
supposedly predicts it, for 2PC and state-migration handling.

Artifact: ``benchmarks/out/execution_sweep.txt``.
"""

import time

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.execution import (
    compute_execution,
    render_execution,
    render_throughput_vs_k,
)
from repro.experiments import ExperimentSpec, run_experiment
from repro.graph.io import write_columnar

SWEEP_METHODS = ("hash", "fennel", "metis")
SWEEP_KS = (2, 4, 8)
MODES = ("2pc", "migrate")


@pytest.mark.benchmark(group="execution-sweep")
def test_execution_sweep_from_trace(runner, out_dir, tmp_path):
    log = runner.workload.log
    trace = tmp_path / "bench.rct"
    write_columnar(log, trace, version=3)

    sections = []
    results = {}
    for mode in MODES:
        spec = ExperimentSpec(
            methods=SWEEP_METHODS, ks=SWEEP_KS, source=str(trace),
            execution=f"mode={mode}",
        )
        t0 = time.perf_counter()
        rs = run_experiment(spec, jobs=2)
        elapsed = time.perf_counter() - t0
        results[mode] = rs
        rows = compute_execution(rs)
        sections.append(render_execution(rows, mode=mode))
        if mode == MODES[-1]:
            sections.append(render_throughput_vs_k(rows))
        sections.append(f"[{mode} sweep: {len(spec.cells())} cells, "
                        f"jobs=2, {elapsed:.1f}s]")

    write_artifact(out_dir, "execution_sweep.txt", "\n\n".join(sections))

    # partition quality must show up as execution outcome: the
    # degenerate cut (hash) pays more cross-shard coordination than the
    # informed cuts at every k.  (Raw throughput is NOT monotone in cut
    # quality — hash's perfect balance can outrun a skewed low-cut
    # assignment under saturating arrivals; that tension is the point
    # of the figure, not an assertable ordering.)
    # Under 2PC the assignment is static, so the ordering is direct;
    # under migrate, dynamic co-location can erase a static-cut edge.
    for k in SWEEP_KS:
        worst = results["2pc"].get("hash", k).execution.multi_shard_ratio
        for method in ("fennel", "metis"):
            assert results["2pc"].get(method, k).execution.multi_shard_ratio <= worst
    # migrate mode must actually move state on the trace-backed path,
    # and co-location must shrink the recurring multi-shard population
    for method in SWEEP_METHODS:
        rep_m = results["migrate"].get(method, 4).execution
        assert rep_m.migrations > 0
        assert rep_m.multi_shard < results["2pc"].get(method, 4).execution.multi_shard
