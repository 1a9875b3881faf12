"""Tests for the figure-regeneration pipeline (computations + renderers).

These run on the shared *small* workload, so they both exercise the
analysis code and serve as integration tests of the whole stack.
"""

import math

import pytest

from repro.analysis.fig1 import attack_growth_factor, compute_fig1, render_fig1
from repro.analysis.fig2 import compute_fig2, contracts_without_incoming, render_fig2
from repro.analysis.fig3 import compute_fig3, render_fig3
from repro.analysis.fig4 import compute_fig4, median_table, render_fig4
from repro.analysis.fig5 import compute_fig5, hash_k8_multishard, render_fig5
from repro.analysis.runner import ExperimentRunner, config_for_scale
from repro.ethereum.history import ATTACK_END, ATTACK_START
from repro.graph.builder import build_graph_columnar
from repro.graph.columnar import ColumnarLog


class TestRunner:
    def test_config_for_scale(self):
        assert config_for_scale("tiny", 1).total_transactions < 1000
        with pytest.raises(ValueError):
            config_for_scale("galactic", 1)

    def test_replay_cached(self, small_runner):
        a = small_runner.replay("hash", 2, seed=1)
        b = small_runner.replay("hash", 2, seed=1)
        assert a is b

    def test_replay_kwargs_key_the_cache(self, small_runner):
        """Parameterised replays are distinct, first-class cache
        entries (MethodSpec keys) — not cache bypasses."""
        a = small_runner.replay("hash", 2, seed=1)
        b = small_runner.replay("hash", 2, seed=1, salt=3)
        assert a is not b
        assert small_runner.replay("hash", 2, seed=1, salt=3) is b


class TestFig1:
    def test_growth_monotone(self, small_workload):
        points = compute_fig1(small_workload.log)
        verts = [p.vertices for p in points]
        edges = [p.edges for p in points]
        assert verts == sorted(verts)
        assert edges == sorted(edges)

    def test_attack_jump(self, small_workload):
        points = compute_fig1(small_workload.log)
        factor = attack_growth_factor(points)
        assert factor > 3.0  # paper: order of magnitude at full scale

    def test_superlinear_post_attack(self, small_workload):
        points = compute_fig1(small_workload.log)
        post = [p for p in points if p.ts > ATTACK_END]
        growth = post[-1].interactions - post[0].interactions
        pre = [p for p in points if p.ts <= ATTACK_START]
        pre_growth = pre[-1].interactions - pre[0].interactions if len(pre) > 1 else 0
        assert growth > pre_growth

    def test_render(self, small_workload):
        out = render_fig1(compute_fig1(small_workload.log))
        assert "Fig. 1" in out
        assert "vertices (log)" in out

    def test_empty_workload(self):
        assert compute_fig1(ColumnarLog()) == []


class TestFig2:
    def test_subgraph_extracted(self, small_workload):
        report = compute_fig2(small_workload.log)
        assert report is not None
        assert report.graph.num_vertices > 2
        assert report.num_contracts >= 1
        assert report.center in report.graph

    def test_no_orphan_contracts_in_full_graph(self, small_workload):
        graph = build_graph_columnar(small_workload.log)
        assert contracts_without_incoming(graph) == 0

    def test_render(self, small_workload):
        out = render_fig2(compute_fig2(small_workload.log))
        assert "Fig. 2" in out
        assert "->" in out


class TestFig3:
    def test_summary_shapes(self, small_runner):
        data = compute_fig3(small_runner)
        s = data.summary()
        # hashing: balanced, ~50% cut, no moves
        assert 0.40 <= s["hash_static_cut"] <= 0.60
        assert s["hash_static_balance"] < 1.25
        assert s["hash_moves"] == 0
        # METIS: much lower cut, repartitions every two weeks, many moves
        assert s["metis_dynamic_cut"] < 0.6 * s["hash_dynamic_cut"]
        assert s["metis_repartitions"] >= 50
        assert s["metis_moves"] > 1000
        # the attack anomaly: post-attack dynamic balance well above 1
        assert s["metis_post_attack_dyn_balance"] > 1.3

    def test_render(self, small_runner):
        out = render_fig3(compute_fig3(small_runner))
        assert "(a) Hashing" in out and "(b) METIS" in out


class TestFig4:
    def test_cells_cover_methods_and_periods(self, small_runner):
        cells = compute_fig4(small_runner, k=2)
        methods = {c.method for c in cells}
        assert methods == {"hash", "kl", "metis", "p-metis", "tr-metis"}
        periods = {c.period for c in cells}
        assert len(periods) == 4

    def test_hash_zero_moves_everywhere(self, small_runner):
        cells = compute_fig4(small_runner, k=2)
        assert all(c.moves == 0 for c in cells if c.method == "hash")

    def test_metis_moves_dominate(self, small_runner):
        table = median_table(compute_fig4(small_runner, k=2))
        for period in {p for (_, p) in table}:
            metis = table[("metis", period)]["moves"]
            trm = table[("tr-metis", period)]["moves"]
            assert metis > trm

    def test_hash_worst_edge_cut(self, small_runner):
        table = median_table(compute_fig4(small_runner, k=2))
        for period in {p for (_, p) in table}:
            hash_cut = table[("hash", period)]["edge_cut"]
            for m in ("kl", "metis"):
                assert table[(m, period)]["edge_cut"] < hash_cut

    def test_render(self, small_runner):
        out = render_fig4(compute_fig4(small_runner, k=2))
        assert "Fig. 4" in out
        assert "moves per period" in out


class TestFig5:
    @pytest.fixture(scope="class")
    def rows(self, small_runner):
        return compute_fig5(small_runner)

    def test_covers_grid(self, rows):
        assert len(rows) == 5 * 3
        assert {r.k for r in rows} == {2, 4, 8}

    def test_edge_cut_worsens_with_k(self, rows):
        """Paper: 'dynamic edge-cut becomes worse as the number of
        shards increases' — for every method."""
        for method in {r.method for r in rows}:
            cuts = {r.k: r.dynamic_edge_cut for r in rows if r.method == method}
            assert cuts[2] < cuts[8]

    def test_hash_has_no_moves(self, rows):
        assert all(r.total_moves == 0 for r in rows if r.method == "hash")

    def test_hash_k8_headline(self, rows):
        """Paper §II-C: hashing at k=8 ⇒ ~88% multi-shard transactions."""
        ratio = hash_k8_multishard(rows)
        assert 0.80 <= ratio <= 0.95

    def test_metis_beats_hash_on_cut(self, rows):
        for k in (2, 4, 8):
            metis = next(r for r in rows if r.method == "metis" and r.k == k)
            hashr = next(r for r in rows if r.method == "hash" and r.k == k)
            assert metis.dynamic_edge_cut < hashr.dynamic_edge_cut

    def test_hash_beats_metis_on_balance(self, rows):
        wins = 0
        for k in (2, 4, 8):
            metis = next(r for r in rows if r.method == "metis" and r.k == k)
            hashr = next(r for r in rows if r.method == "hash" and r.k == k)
            if hashr.normalized_dynamic_balance < metis.normalized_dynamic_balance:
                wins += 1
        assert wins >= 2  # the tradeoff holds across shard counts

    def test_trmetis_moves_below_rmetis(self, rows):
        """Paper: TR-METIS dramatically reduces moves vs R-/P-METIS."""
        for k in (2, 4, 8):
            tr = next(r for r in rows if r.method == "tr-metis" and r.k == k)
            pm = next(r for r in rows if r.method == "p-metis" and r.k == k)
            assert tr.total_moves < pm.total_moves

    def test_render(self, rows):
        out = render_fig5(rows)
        assert "Fig. 5" in out
        assert "x-shard tx" in out
