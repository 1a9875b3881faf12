"""FIG1 — Ethereum graph evolution (paper Fig. 1).

Regenerates the vertices/edges-per-month growth series and checks the
paper's shape: exponential growth to the attack, a burst inside the
attack window, superlinear growth afterwards.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.fig1 import attack_growth_factor, compute_fig1, render_fig1
from repro.ethereum.history import ATTACK_END, ATTACK_START


@pytest.mark.benchmark(group="fig1")
def test_fig1_growth(benchmark, runner, out_dir):
    log = runner.log  # generate outside the timed section

    points = benchmark.pedantic(
        compute_fig1, args=(log,), rounds=1, iterations=1
    )
    write_artifact(out_dir, "fig1_growth.txt", render_fig1(points))

    verts = [p.vertices for p in points]
    assert verts == sorted(verts), "vertex count must be monotone"
    assert attack_growth_factor(points) > 3.0, "attack burst missing"
    # superlinear tail: the last quarter of the timeline adds more
    # interactions than the first half
    quarter = len(points) // 4
    tail = points[-1].interactions - points[-quarter].interactions
    head = points[len(points) // 2].interactions
    assert tail > head
