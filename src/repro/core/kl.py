"""Method 2 — distributed Kernighan–Lin with a balance oracle (§II-C).

Periodically, "based on the transactions executed in the period, each
shard identifies vertices that if moved to other shards would minimize
edge-cuts.  Each shard sends to an oracle the selected vertices and ...
the oracle computes a k×k probability matrix ... the shards ...
exchange vertices with each other based on the probability matrix."

Gains are computed on the *period* graph (weighted by interaction
frequency), so the method chases dynamic edge-cut while the oracle's
pairwise swap rule keeps shards balanced — trading optimality for a
decentralised protocol, which is why the paper observes it "optimizes
for a local minima" and produces many moves across iterations.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro import kernels
from repro.core.base import PartitionMethod, ReplayContext
from repro.core.oracle import BalanceOracle, MoveProposal, apply_probability_matrix
from repro.graph.snapshot import REPARTITION_PERIOD


class KLPartitioner(PartitionMethod):
    name = "kl"

    def __init__(
        self,
        k: int,
        seed: int = 0,
        period: float = REPARTITION_PERIOD,
        rounds: int = 6,
        slack: float = 0.1,
        min_gain: int = 1,
        weighted_oracle: bool = True,
    ):
        """Args:
            period: seconds between repartitionings (paper: two weeks).
            rounds: KL iterations per repartitioning; each round
                recomputes gains after the previous round's exchanges.
            slack: oracle one-directional slack (0 = strict swaps).
            min_gain: smallest edge-cut improvement worth proposing.
            weighted_oracle: match activity weight (dynamic balance)
                rather than vertex counts between shard pairs.
        """
        super().__init__(k, seed)
        self.period = period
        self.rounds = rounds
        self.oracle = BalanceOracle(k, slack=slack, weighted=weighted_oracle)
        self.min_gain = min_gain

    def maybe_repartition(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        if ctx.elapsed_since_repartition < self.period:
            return None

        # local indices follow first appearance in the period and each
        # adjacency keeps its first-encounter order, so proposal order
        # and tie-breaks are fixed by the log alone
        csr = ctx.log_csr(ctx.log_period_start)
        if csr.num_vertices == 0:
            return None
        ids = csr.orig_ids or []
        local = {v: i for i, v in enumerate(ids)}
        # working copy of shard labels, local-indexed (-1 = unassigned:
        # skipped as proposer and excluded from neighbors' connectivity,
        # as the legacy shard-dict lookups did)
        shard: List[int] = [-1] * csr.num_vertices
        for i, v in enumerate(ids):
            s = ctx.assignment.shard_of(v)
            if s is not None:
                shard[i] = s

        kr = kernels.active()
        moved: Dict[int, int] = {}
        for _ in range(self.rounds):
            raw = kr.kl_proposals(csr, shard, self.k, self.min_gain)
            if not raw:
                break
            proposals = [
                MoveProposal(vertex=ids[i], src=s, dst=t, gain=g,
                             weight=csr.vwgt[i])
                for i, s, t, g in raw
            ]
            # current per-shard load of the period (activity weight):
            # the oracle uses it to drain overloaded shards
            loads = [
                float(w) for w in kr.part_weights(
                    csr, shard, self.k, skip_unassigned=True)
            ]
            prob = self.oracle.probability_matrix(proposals, loads=loads)
            budgets = self.oracle.allowed_matrix(proposals, loads=loads)
            accepted = apply_probability_matrix(
                proposals, prob, self.rng,
                budgets=budgets, weighted=self.oracle.weighted,
            )
            if not accepted:
                break
            for v, dst in accepted.items():
                shard[local[v]] = dst
                moved[v] = dst
        return moved or None
