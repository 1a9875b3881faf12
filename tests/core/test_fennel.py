"""Tests for the FENNEL-style streaming partitioner (extension)."""

import pytest

from repro.core.assignment import ShardAssignment
from repro.core.fennel import FennelPartitioner
from repro.core.registry import make_method
from repro.core.replay import replay_method
from repro.graph.builder import Interaction
from repro.graph.snapshot import DAY, HOUR


class TestPlacement:
    def test_follows_neighbors_when_balanced(self):
        m = FennelPartitioner(2, seed=1)
        a = ShardAssignment(2)
        a.assign(1, 0)
        a.assign(2, 1)
        a.assign(3, 0)
        # two co-endpoints on shard 0, one on shard 1, loads equalish
        a.assign(4, 1)
        assert m.place_vertex(99, [1, 3, 2, 99], a) == 0

    def test_load_penalty_overrides_weak_affinity(self):
        m = FennelPartitioner(2, seed=1, gamma=5.0)
        a = ShardAssignment(2)
        # shard 0 heavily overloaded but holds the single neighbor
        for v in range(20):
            a.assign(v, 0)
        a.assign(100, 1)
        shard = m.place_vertex(99, [0, 99], a)
        assert shard == 1  # penalty beats one neighbor

    def test_repeated_counterparty_counted_once(self):
        # counts balanced (2 vs 2) so only affinity decides; vertex 10
        # appears three times in the transaction's endpoint list but is
        # a single neighbor, so shard 1 (two distinct neighbors) wins.
        # Before the dedupe fix the triple-counted 10 dragged the
        # placement to shard 0.
        m = FennelPartitioner(2, seed=1)
        a = ShardAssignment(2)
        a.assign(10, 0)
        a.assign(13, 0)
        a.assign(11, 1)
        a.assign(12, 1)
        endpoints = [10, 10, 10, 11, 12, 99]
        assert m.place_vertex(99, endpoints, a) == 1

    def test_dedupe_preserves_self_exclusion(self):
        # the vertex being placed never counts toward its own affinity,
        # duplicated or not
        m = FennelPartitioner(2, seed=1)
        a = ShardAssignment(2)
        a.assign(1, 0)
        a.assign(2, 1)
        assert m.place_vertex(99, [99, 99, 1, 99], a) == 0

    def test_no_neighbors_goes_light(self):
        m = FennelPartitioner(3, seed=1)
        a = ShardAssignment(3)
        a.assign(1, 0)
        a.assign(2, 0)
        a.assign(3, 1)
        assert m.place_vertex(99, [99], a) == 2

    def test_never_repartitions(self):
        from ctx_helpers import make_ctx
        from tests.core.test_methods import two_communities

        m = FennelPartitioner(2)
        ctx = make_ctx(m, two_communities(), now=400 * DAY)
        assert m.maybe_repartition(ctx) is None


class TestReplayBehavior:
    def test_zero_moves(self, tiny_workload):
        result = replay_method(
            tiny_workload.log, FennelPartitioner(4, seed=1),
            metric_window=12 * HOUR,
        )
        assert result.total_moves == 0
        assert result.events == []

    def test_beats_hash_on_cut(self, small_workload):
        """The point of the extension: edge-aware streaming placement
        cuts far fewer edges than hashing at the same zero-move cost."""
        log = small_workload.log
        fennel = replay_method(log, make_method("fennel", 4, seed=1),
                               metric_window=24 * HOUR)
        hashing = replay_method(log, make_method("hash", 4, seed=1),
                                metric_window=24 * HOUR)

        def mean_cut(res):
            pts = [p for p in res.series.points if p.interactions > 0]
            return sum(p.dynamic_edge_cut for p in pts) / len(pts)

        assert mean_cut(fennel) < 0.8 * mean_cut(hashing)

    def test_balance_stays_bounded(self, small_workload):
        result = replay_method(
            small_workload.log, make_method("fennel", 4, seed=1),
            metric_window=24 * HOUR,
        )
        assert result.series.points[-1].static_balance < 1.5

    def test_registry_integration(self):
        m = make_method("fennel", 8, seed=2, gamma=2.0)
        assert isinstance(m, FennelPartitioner)
        assert m.gamma == 2.0
