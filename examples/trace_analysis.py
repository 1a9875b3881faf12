#!/usr/bin/env python
"""Working with traces as data: export, statistics, re-import, repartition.

The paper publishes its extracted Ethereum trace "in easily
understandable format ... for further analysis and benchmarking".  This
example exercises that workflow end to end with our format:

1. generate a history and export it as a trace file;
2. re-import the file and verify it rebuilds the identical graph;
3. print the descriptive statistics the calibration relies on
   (heavy-tailed degrees, activity concentration, calls per tx);
4. run a partitioning method directly on the re-imported trace —
   exactly what you would do with a real Ethereum trace dropped
   into the same format;
5. convert to the binary rctrace-v2 format and replay from the
   zero-copy mmap load — the fast path for repeated sweeps.

Run:  python examples/trace_analysis.py
"""

import tempfile
import time
from pathlib import Path

from repro import WorkloadConfig, generate_history, make_method, replay_method
from repro.graph.analytics import (
    compute_trace_stats,
    degree_distribution,
    powerlaw_tail_exponent,
    render_trace_stats,
)
from repro.graph.builder import build_graph, build_graph_columnar
from repro.graph.columnar import ColumnarLog
from repro.graph.io import load_columnar, read_trace, write_columnar, write_trace
from repro.graph.snapshot import HOUR


def main() -> None:
    print("generating history and exporting the trace...")
    history = generate_history(WorkloadConfig.small(seed=21))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ethereum_trace.txt.gz"
        n = write_trace(history.log, str(path))
        print(f"  wrote {n} interactions to {path.name} "
              f"({path.stat().st_size / 1024:.0f} KiB gzipped)")

        log = list(read_trace(str(path)))
        graph = build_graph(log)
        original = build_graph_columnar(history.log)
        assert graph.num_vertices == original.num_vertices
        assert graph.num_edges == original.num_edges
        print(f"  re-imported: {graph.num_vertices} vertices, "
              f"{graph.num_edges} edges — identical to the original\n")

        print(render_trace_stats(compute_trace_stats(graph, log)))
        alpha = powerlaw_tail_exponent(degree_distribution(graph))
        print(f"\n  degree power-law tail exponent (Hill): {alpha:.2f}")

        print("\npartitioning the imported trace (TR-METIS, k=4)...")
        result = replay_method(log, make_method("tr-metis", 4, seed=1),
                               metric_window=24 * HOUR)
        pts = [p for p in result.series.points if p.interactions > 0]
        cut = sum(p.dynamic_edge_cut for p in pts) / len(pts)
        print(f"  dynamic edge-cut={cut:.3f}  moves={result.total_moves}  "
              f"repartitions={len(result.events)}")

        print("\nconverting to binary rctrace v2 and replaying zero-copy...")
        rct = Path(tmp) / "ethereum_trace.rct"
        write_columnar(ColumnarLog(log), rct)
        t0 = time.perf_counter()
        mmapped = load_columnar(rct)          # O(1) mmap + verification
        t_load = time.perf_counter() - t0
        print(f"  {rct.name}: {rct.stat().st_size / 1024:.0f} KiB, "
              f"loaded {len(mmapped)} rows in {t_load * 1e3:.1f}ms "
              "(no parse, no boxing)")
        again = replay_method(mmapped, make_method("tr-metis", 4, seed=1),
                              metric_window=24 * HOUR)
        assert again.series == result.series   # bit-identical replay
        print("  replay off the mmap is bit-identical to the boxed one")

    print("\nAny trace in either format — including one extracted from the\n"
          "real chain — runs through the identical pipeline.")


if __name__ == "__main__":
    main()
