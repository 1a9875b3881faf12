"""ABL-PLACE — does the paper's new-vertex placement rule matter?

The paper places vertices appearing between repartitionings by
inspecting the transaction's other accounts and minimising edge-cut
(tie-break: balance).  This ablation replays R-METIS with three
placement rules — the paper's min-cut rule, hashing, and uniform
random — and compares the dynamic edge-cut each produces.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.render import ascii_table
from repro.core.placement import place_by_hash, place_randomly
from repro.core.replay import ReplayEngine
from repro.core.rmetis import RMetisPartitioner
from repro.graph.snapshot import HOUR

K = 4


class HashPlacedRMetis(RMetisPartitioner):  # reprolint: disable=RL008 -- ablation-only variant, constructed directly by the benchmark
    name = "r-metis+hash-place"

    def place_vertex(self, vertex, tx_endpoints, assignment):
        return place_by_hash(vertex, self.k)


class RandomPlacedRMetis(RMetisPartitioner):  # reprolint: disable=RL008 -- ablation-only variant, constructed directly by the benchmark
    name = "r-metis+random-place"

    def place_vertex(self, vertex, tx_endpoints, assignment):
        return place_randomly(self.k, self.rng)


@pytest.mark.benchmark(group="ablation-placement")
def test_placement_rule_ablation(benchmark, runner, out_dir):
    log = runner.workload.log

    def run_all():
        results = {}
        for cls in (RMetisPartitioner, HashPlacedRMetis, RandomPlacedRMetis):
            method = cls(K, seed=1)
            results[method.name] = ReplayEngine(
                log, method, metric_window=24 * HOUR
            ).run()
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    def mean_cut(res):
        pts = [p for p in res.series.points if p.interactions > 0]
        return sum(p.dynamic_edge_cut for p in pts) / len(pts)

    rows = [
        (name, f"{mean_cut(res):.3f}", res.total_moves)
        for name, res in results.items()
    ]
    write_artifact(
        out_dir, "ablation_placement.txt",
        ascii_table(["placement", "dyn edge-cut", "moves"], rows,
                    title=f"ABL-PLACE — R-METIS placement rules, k={K}"),
    )

    min_cut_rule = mean_cut(results["r-metis"])
    assert min_cut_rule < mean_cut(results["r-metis+hash-place"])
    assert min_cut_rule < mean_cut(results["r-metis+random-place"])
