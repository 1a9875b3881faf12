"""EXT-FEES — who pays for cross-shard traffic? (paper final remarks)

The paper closes by noting that computation, storage and bandwidth all
"play an important role in partitioning" and that "designing the
correct incentives is crucial".  This bench meters every executed
transaction along those three axes under each method's assignment and
reports the cross-shard fee share and the revenue imbalance across
shards — the economic mirror of edge-cut and balance.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.render import ascii_table
from repro.core.registry import PAPER_ORDER
from repro.ethereum.fees import account_replay
from repro.ethereum.workload import WorkloadGenerator

K = 4


def _traced_workload(scale_cfg):
    gen = WorkloadGenerator(scale_cfg)
    gen.chain._keep_traces = True
    return gen.run()


@pytest.mark.benchmark(group="fees")
def test_fee_attribution(benchmark, runner, out_dir):
    from repro.analysis.runner import config_for_scale
    from repro.core.replay import ReplayEngine
    from repro.core.registry import make_method
    from repro.graph.snapshot import HOUR

    # regenerate a tiny traced history (the shared workload drops traces)
    result = _traced_workload(config_for_scale("tiny", 42))
    pairs = list(zip(result.chain.receipts, result.chain.traces))
    log = result.log

    def run_all():
        out = {}
        for name in PAPER_ORDER:
            replay = ReplayEngine(
                log, make_method(name, K, seed=1), metric_window=24 * HOUR
            ).run()
            out[name] = account_replay(pairs, replay.assignment.as_dict(), k=K)
        return out

    accounts = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (name, f"{acct.cross_shard_fee_share:.3f}",
         f"{acct.fee_imbalance:.3f}", acct.total_fees)
        for name, acct in accounts.items()
    ]
    write_artifact(
        out_dir, "fees.txt",
        ascii_table(
            ["method", "cross-shard fee share", "fee imbalance (Eq.2)", "total fees"],
            rows, title=f"EXT-FEES — fee attribution under each method, k={K}",
        ),
    )

    # the economic mirror of Fig. 5: hashing maximises the cross-shard
    # fee share, METIS minimises it
    assert (accounts["metis"].cross_shard_fee_share
            < accounts["hash"].cross_shard_fee_share)
    for acct in accounts.values():
        assert acct.transactions == len(pairs)
        assert 0.0 <= acct.cross_shard_fee_share < 1.0
        assert acct.fee_imbalance >= 1.0
