"""Tests for 2PC sharded execution, migration and throughput accounting.

Each cost-model expectation is hand-computed on a tiny stream replayed
through the public ``replay`` entry point.
"""

import dataclasses

import pytest

from repro.ethereum.state import WorldState
from repro.graph.builder import Interaction
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig
from repro.sharding.throughput import LatencyStats


CFG = ShardedExecutionConfig(
    service_time=1.0, prepare_time=1.0, commit_time=0.5, network_rtt=2.0
)


def tx_stream(pairs):
    return [
        Interaction(timestamp=float(i), src=s, dst=d, tx_id=i)
        for i, (s, d) in enumerate(pairs)
    ]


def busy_times(report):
    """Seconds each shard spent executing (utilization x elapsed)."""
    return [u * report.elapsed for u in report.utilization]


class TestShardSets:
    def test_shard_set_sorted_distinct(self):
        # one transaction over vertices on shards 3, 0, 3: two distinct
        # shards each run one prepare and one commit
        ex = ShardedExecution(4, {1: 3, 2: 0, 3: 3}, CFG)
        stream = [
            Interaction(timestamp=0.0, src=1, dst=2, tx_id=0),
            Interaction(timestamp=0.0, src=2, dst=3, tx_id=0),
        ]
        rep = ex.replay(stream)
        assert rep.multi_shard == 1
        assert busy_times(rep) == pytest.approx([1.5, 0.0, 0.0, 1.5])

    def test_unassigned_ignored(self):
        ex = ShardedExecution(4, {1: 1}, CFG, strict=False)
        rep = ex.replay(tx_stream([(1, 99)]))
        assert rep.unassigned_endpoints == 1
        assert rep.single_shard == 1
        assert busy_times(rep) == pytest.approx([0.0, 1.0, 0.0, 0.0])


class TestSingleShardTx:
    def test_cost_is_one_service(self):
        ex = ShardedExecution(2, {1: 0, 2: 0}, CFG)
        rep = ex.replay(tx_stream([(1, 2)]))
        assert rep.completed == 1
        assert rep.latency.maximum == 1.0
        assert rep.single_shard == 1
        assert rep.multi_shard == 0


class TestMultiShardTx:
    def test_2pc_latency(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        rep = ex.replay(tx_stream([(1, 2)]))
        # prepare (1.0, parallel) + rtt (2.0) + commit (0.5) = 3.5
        assert rep.latency.maximum == pytest.approx(3.5)
        assert rep.multi_shard == 1

    def test_2pc_occupies_both_shards(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        rep = ex.replay(tx_stream([(1, 2)]))
        assert busy_times(rep) == pytest.approx([1.5, 1.5])  # prepare + commit

    def test_multi_shard_queues_behind_local_work(self):
        # a 10s local transaction keeps shard 1 busy; the cross-shard
        # one arrives at the same instant, right behind it
        cfg = dataclasses.replace(CFG, service_time=10.0)
        ex = ShardedExecution(2, {1: 0, 2: 1}, cfg)
        stream = [
            Interaction(timestamp=0.0, src=2, dst=2, tx_id=0),
            Interaction(timestamp=0.0, src=1, dst=2, tx_id=1),
        ]
        rep = ex.replay(stream, time_scale=1.0)
        # prepare on shard 1 starts at 10 -> done 11; rtt -> 13; commit 13.5
        assert rep.latency.maximum == pytest.approx(13.5)
        assert (rep.single_shard, rep.multi_shard) == (1, 1)

    def test_empty_shard_set_ignored(self):
        ex = ShardedExecution(2, {}, CFG, strict=False)
        rep = ex.replay(tx_stream([(1, 2)]))
        assert rep.completed == 0
        assert rep.unassigned_endpoints == 2


class TestReplay:
    def test_replay_counts_transactions(self):
        ex = ShardedExecution(2, {1: 0, 2: 1, 3: 0}, CFG)
        report = ex.replay(tx_stream([(1, 3), (1, 2), (2, 2)]), arrival_rate=100.0)
        assert report.completed == 3
        assert report.single_shard == 2  # (1,3) same shard, (2,2) single
        assert report.multi_shard == 1

    def test_report_ratios(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        report = ex.replay(tx_stream([(1, 2), (1, 1)]), arrival_rate=100.0)
        assert report.multi_shard_ratio == pytest.approx(0.5)
        assert report.throughput > 0
        assert 0 < report.mean_utilization <= 1.0

    def test_time_scale_replay(self):
        ex = ShardedExecution(2, {1: 0, 2: 0}, CFG)
        stream = tx_stream([(1, 2), (1, 2)])
        report = ex.replay(stream, time_scale=10.0)
        # arrivals at 0 and 10; each takes 1s
        assert report.elapsed == pytest.approx(11.0)

    def test_balanced_assignment_spreads_utilization(self):
        stream = tx_stream([(i % 4, i % 4) for i in range(40)])
        balanced = ShardedExecution(4, {0: 0, 1: 1, 2: 2, 3: 3}, CFG)
        rep = balanced.replay(stream, arrival_rate=100.0)
        assert rep.utilization_imbalance < 1.2

    def test_skewed_assignment_detected(self):
        stream = tx_stream([(1, 1) for _ in range(40)])
        skewed = ShardedExecution(4, {1: 2}, CFG)
        rep = skewed.replay(stream, arrival_rate=100.0)
        assert rep.utilization_imbalance == pytest.approx(4.0)


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.p99 == 0.0

    def test_percentiles(self):
        stats = LatencyStats.from_samples(list(range(1, 101)))
        assert stats.median == pytest.approx(50, abs=1)
        assert stats.p99 == pytest.approx(99, abs=1)
        assert stats.maximum == 100
        assert stats.mean == pytest.approx(50.5)


class TestMigration:
    """Migrate mode charges each moved vertex's serialized state."""

    CFG = ShardedExecutionConfig(
        service_time=1.0, mode="migrate", migration_bandwidth=1000.0
    )

    def test_cost_of_moves(self):
        state = WorldState()
        eoa = state.create_eoa()
        contract = state.create_contract((0,), initial_storage={i: i + 1 for i in range(10)})
        state.discard_journal()
        # tie between the shards -> target 0: the EOA moves off shard 1
        ex = ShardedExecution(
            2, {eoa.address: 1, contract.address: 0}, self.CFG, state=state
        )
        rep = ex.replay(tx_stream([(eoa.address, contract.address)]))
        seconds = eoa.state_bytes() / 1000.0
        assert rep.migrations == 1
        assert rep.migration_bytes == eoa.state_bytes()
        # serialize on the source, apply then execute on the target
        assert busy_times(rep) == pytest.approx([seconds + 1.0, seconds])

    def test_contract_storage_dominates(self):
        """The paper's point: moving a contract moves its whole storage."""
        state = WorldState()
        a, b, eoa = (state.create_eoa() for _ in range(3))
        fat = state.create_contract((0,), initial_storage={i: 1 for i in range(100)})
        state.discard_journal()

        def bytes_to_pull(mover):
            # two endpoints on shard 0 outvote the mover on shard 1
            asg = {a.address: 0, b.address: 0, mover.address: 1}
            ex = ShardedExecution(2, asg, self.CFG, state=state)
            stream = [
                Interaction(timestamp=0.0, src=a.address, dst=mover.address, tx_id=0),
                Interaction(timestamp=0.0, src=b.address, dst=mover.address, tx_id=0),
            ]
            return ex.replay(stream).migration_bytes

        # 100 slots x 64 bytes dwarf the ~40-byte account record
        assert bytes_to_pull(fat) > 30 * bytes_to_pull(eoa)

    def test_no_moves_no_cost(self):
        state = WorldState()
        eoa = state.create_eoa()
        other = state.create_eoa()
        state.discard_journal()
        ex = ShardedExecution(
            2, {eoa.address: 0, other.address: 0}, self.CFG, state=state
        )
        rep = ex.replay(tx_stream([(eoa.address, other.address)]))
        assert rep.migrations == 0
        assert rep.migration_bytes == 0
        assert rep.latency.maximum == 1.0
