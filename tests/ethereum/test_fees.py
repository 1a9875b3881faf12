"""Tests for resource metering and fee attribution."""

import pytest

from repro.ethereum.fees import (
    CALL_WIRE_BYTES,
    FeeSchedule,
    ResourceVector,
    ShardResourceAccounting,
    account_replay,
    meter_transaction,
)
from repro.ethereum.trace import CallKind, MessageCall, TransactionTrace
from repro.ethereum.transaction import Receipt


def trace_with_calls(pairs):
    trace = TransactionTrace(tx_id=0, timestamp=1.0)
    for depth, (src, dst) in enumerate(pairs):
        trace.record(MessageCall(
            kind=CallKind.CALL, caller=src, callee=dst, value=0,
            depth=depth, caller_is_contract=depth > 0, callee_is_contract=True,
        ))
    return trace


class TestResourceVector:
    def test_addition(self):
        total = ResourceVector(1, 2, 3) + ResourceVector(10, 20, 30)
        assert total == ResourceVector(11, 22, 33)

    def test_is_zero(self):
        assert ResourceVector().is_zero
        assert not ResourceVector(computation=1).is_zero


class TestFeeSchedule:
    def test_prices_components(self):
        schedule = FeeSchedule(computation_price=2, storage_price=3,
                               bandwidth_price=5, cross_shard_multiplier=1.0)
        fee = schedule.price(ResourceVector(10, 20, 30))
        assert fee == 10 * 2 + 20 * 3 + 30 * 5

    def test_cross_shard_multiplier(self):
        cheap = FeeSchedule(cross_shard_multiplier=1.0)
        dear = FeeSchedule(cross_shard_multiplier=4.0)
        usage = ResourceVector(bandwidth=100)
        assert dear.price(usage) == 4 * cheap.price(usage)


class TestMetering:
    def test_computation_from_receipt(self):
        receipt = Receipt(tx_id=0, success=True, gas_used=12345)
        usage = meter_transaction(receipt, trace_with_calls([(1, 2)]))
        assert usage.computation == 12345

    def test_bandwidth_counts_cross_shard_calls(self):
        receipt = Receipt(tx_id=0, success=True, gas_used=1)
        trace = trace_with_calls([(1, 2), (2, 3), (3, 4)])
        assignment = {1: 0, 2: 0, 3: 1, 4: 1}
        usage = meter_transaction(receipt, trace, assignment=assignment)
        # (2,3) crosses; (1,2) and (3,4) do not
        assert usage.bandwidth == CALL_WIRE_BYTES

    def test_no_assignment_no_bandwidth(self):
        receipt = Receipt(tx_id=0, success=True, gas_used=1)
        usage = meter_transaction(receipt, trace_with_calls([(1, 2)]))
        assert usage.bandwidth == 0

    def test_storage_bytes(self):
        receipt = Receipt(tx_id=0, success=True, gas_used=1)
        usage = meter_transaction(receipt, trace_with_calls([(1, 2)]),
                                  storage_delta_slots=3)
        assert usage.storage == 3 * 64

    def test_negative_storage_delta_clamped(self):
        receipt = Receipt(tx_id=0, success=True, gas_used=1)
        usage = meter_transaction(receipt, trace_with_calls([(1, 2)]),
                                  storage_delta_slots=-5)
        assert usage.storage == 0


class TestAccounting:
    def test_home_shard_gets_compute(self):
        acct = ShardResourceAccounting(k=2)
        acct.charge(ResourceVector(computation=100), home_shard=1)
        assert acct.per_shard[1].computation == 100
        assert acct.per_shard[0].computation == 0

    def test_bandwidth_split_across_touched(self):
        acct = ShardResourceAccounting(k=4)
        acct.charge(ResourceVector(bandwidth=120), home_shard=0,
                    touched_shards=[0, 2, 3])
        assert acct.per_shard[0].bandwidth == 40
        assert acct.per_shard[2].bandwidth == 40
        assert acct.per_shard[1].bandwidth == 0

    def test_fee_totals(self):
        schedule = FeeSchedule(computation_price=1, bandwidth_price=1,
                               cross_shard_multiplier=2.0)
        acct = ShardResourceAccounting(k=2, schedule=schedule)
        fee = acct.charge(ResourceVector(computation=10, bandwidth=5),
                          home_shard=0, touched_shards=[0, 1])
        assert fee == 10 + 5 * 2
        assert acct.total_fees == fee
        assert acct.cross_shard_fees == 10

    def test_invalid_home_shard(self):
        acct = ShardResourceAccounting(k=2)
        with pytest.raises(ValueError):
            acct.charge(ResourceVector(computation=1), home_shard=5)

    def test_fee_imbalance_eq2_shape(self):
        acct = ShardResourceAccounting(k=2)
        acct.charge(ResourceVector(computation=90), home_shard=0)
        acct.charge(ResourceVector(computation=10), home_shard=1)
        assert acct.fee_imbalance == pytest.approx(90 * 2 / 100)

    def test_cross_shard_fee_share_bounds(self):
        acct = ShardResourceAccounting(k=2)
        assert acct.cross_shard_fee_share == 0.0
        acct.charge(ResourceVector(computation=10, bandwidth=100),
                    home_shard=0, touched_shards=[0, 1])
        assert 0.0 < acct.cross_shard_fee_share < 1.0


class TestAccountReplay:
    def test_end_to_end_on_chain_traces(self, tiny_workload):
        """Fees over real executed traces: better partitioning -> lower
        cross-shard fee share."""
        from repro.core import make_method
        from repro.core.replay import replay_method
        from repro.ethereum.chain import Blockchain
        from repro.ethereum.workload import WorkloadConfig, WorkloadGenerator
        from repro.graph.snapshot import HOUR

        # regenerate with kept traces (the shared fixture drops them)
        gen = WorkloadGenerator(WorkloadConfig.tiny(seed=4))
        gen.chain._keep_traces = True
        result = gen.run()
        pairs = list(zip(result.chain.receipts, result.chain.traces))
        assert pairs

        log = result.log
        shares = {}
        for name in ("hash", "metis"):
            replay = replay_method(log, make_method(name, 4, seed=1),
                                   metric_window=24 * HOUR)
            acct = account_replay(pairs, replay.assignment.as_dict(), k=4)
            assert acct.transactions == len(pairs)
            shares[name] = acct.cross_shard_fee_share
        assert shares["metis"] < shares["hash"]
