"""Substrate micro-benchmarks: EVM-lite, workload generation, replay.

Not a paper artifact — these track the performance of the pieces every
figure depends on, so regressions surface here before they slow the
figure benches down.
"""

import pytest

from repro.core.hashing import HashPartitioner
from repro.core.replay import ReplayEngine
from repro.ethereum import contracts as programs
from repro.ethereum.evm import EVM
from repro.ethereum.state import WorldState
from repro.ethereum.transaction import Transaction
from repro.ethereum.workload import WorkloadConfig, generate_history
from repro.graph.builder import build_graph_columnar
from repro.graph.snapshot import HOUR


@pytest.mark.benchmark(group="substrate")
def test_evm_token_transfer_throughput(benchmark):
    world = WorldState()
    evm = EVM(world)
    sender = world.create_eoa(balance=10**15)
    recipient = world.create_eoa()
    token = world.create_contract(programs.token_code())
    world.discard_journal()
    counter = {"nonce": 0}

    def one_tx():
        tx = Transaction(
            tx_id=counter["nonce"], sender=sender.address, to=token.address,
            gas_limit=110_000, nonce=counter["nonce"],
            data=(recipient.address, 1),
        )
        counter["nonce"] += 1
        receipt, _ = evm.execute_transaction(tx, 1.0)
        assert receipt.success

    benchmark(one_tx)


@pytest.mark.benchmark(group="substrate")
def test_workload_generation_tiny(benchmark):
    result = benchmark.pedantic(
        lambda: generate_history(WorkloadConfig.tiny(seed=9)),
        rounds=1, iterations=1,
    )
    assert result.num_transactions > 500


@pytest.mark.benchmark(group="substrate")
def test_graph_build_throughput(benchmark, runner):
    log = runner.workload.log
    graph = benchmark.pedantic(lambda: build_graph_columnar(log), rounds=1, iterations=1)
    assert graph.num_vertices > 1000


@pytest.mark.benchmark(group="substrate")
def test_replay_hash_throughput(benchmark, runner):
    log = runner.workload.log
    result = benchmark.pedantic(
        lambda: ReplayEngine(log, HashPartitioner(8), metric_window=24 * HOUR).run(),
        rounds=1, iterations=1,
    )
    assert result.total_moves == 0
