"""FIG2 — early hub-contract subgraph (paper Fig. 2).

Regenerates the September/October-2015 ego subgraph around the busiest
early contract and checks the structural facts the paper states.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.fig2 import compute_fig2, contracts_without_incoming, render_fig2
from repro.graph.builder import build_graph_columnar


@pytest.mark.benchmark(group="fig2")
def test_fig2_subgraph(benchmark, runner, out_dir):
    log = runner.log

    report = benchmark.pedantic(
        compute_fig2, args=(log,), rounds=1, iterations=1
    )
    assert report is not None
    write_artifact(out_dir, "fig2_subgraph.txt", render_fig2(report))

    assert report.num_contracts >= 1
    assert report.num_accounts >= 1
    assert report.graph.num_edges >= report.graph.num_vertices - 1
    # the paper: no contract in the complete graph lacks an incoming edge
    assert contracts_without_incoming(build_graph_columnar(log)) == 0
