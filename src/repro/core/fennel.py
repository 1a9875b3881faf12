"""Extension method — FENNEL-style streaming partitioning.

The paper's five methods either ignore edges (HASH) or periodically
*re*-partition (KL, METIS family), paying moves.  A natural sixth point
in the design space — and the one a blockchain could deploy most easily,
since accounts are placed exactly once, at creation — is single-pass
streaming partitioning à la FENNEL (Tsourakakis et al., WSDM 2014):

    place v on the shard maximising  |N(v) ∩ shard|  −  γ · load(shard)ᵠ

i.e. neighbor affinity minus a convex load penalty.  Like HASH it never
moves a vertex (zero moves, no repartitioning); unlike HASH it looks at
the edges available at placement time.

We stream over *transaction endpoints* (what is known when the vertex
first appears) plus the vertex's accumulated neighborhood if it was
placed earlier in the same window — faithful to the streaming model.

This method is an extension beyond the paper; benchmarks compare it
against the paper's five.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.assignment import ShardAssignment
from repro.core.base import PartitionMethod, ReplayContext


class FennelPartitioner(PartitionMethod):
    name = "fennel"

    def __init__(
        self,
        k: int,
        seed: int = 0,
        gamma: float = 1.5,
        power: float = 2.0,
    ):
        """Args:
            gamma: weight of the load penalty relative to affinity
                (units: "equivalent neighbors at 1x average load").
            power: exponent of the convex load penalty.

        The penalty is ``gamma * (load/avg_load)^power`` — a scale-free
        variant of FENNEL's alpha*gamma*n^(gamma-1): the original fixes
        its scale from the final |V| and |E|, which a streaming
        blockchain cannot know in advance, so we normalise by the
        running average load instead.
        """
        super().__init__(k, seed)
        self.gamma = gamma
        self.power = power
        # scratch for the batch placement path: one affinity buffer and
        # one seen-set reused across placements instead of fresh
        # allocations per vertex
        self._affinity_scratch = [0.0] * k
        self._seen_scratch: set = set()

    def place_vertex(
        self,
        vertex: int,
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> int:
        # affinity: *distinct* co-endpoints of the introducing
        # transaction that already live somewhere.  tx_endpoints lists
        # src/dst per interaction in the bucket, so a counterparty
        # repeated across the transaction's calls would otherwise be
        # counted once per call — FENNEL's |N(v) ∩ shard| is over the
        # neighbor set, not the call multiset.
        affinity = [0.0] * self.k
        shard_of = assignment.shard_of
        seen = set()
        add_seen = seen.add
        for other in tx_endpoints:
            if other == vertex or other in seen:
                continue
            add_seen(other)
            shard = shard_of(other)
            if shard is not None:
                affinity[shard] += 1.0

        counts = assignment.counts
        total = sum(counts)
        avg = max(total / self.k, 1.0)

        gamma = self.gamma
        power = self.power
        best_shard = 0
        best_score = float("-inf")
        for s, count in enumerate(counts):
            score = affinity[s] - gamma * (count / avg) ** power
            if score > best_score:
                best_score = score
                best_shard = s
        return best_shard

    def place_new_vertices(
        self,
        vertices: Sequence[int],
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> None:
        # batch form of place_vertex over one transaction bucket:
        # identical affinity/score arithmetic in identical order, but
        # the affinity buffer and the distinct-endpoint set are scratch
        # state zeroed between vertices rather than re-allocated.
        # Placements are sequential — each score sees the counts left
        # by the previous assign, exactly like the per-vertex path.
        k = self.k
        affinity = self._affinity_scratch
        seen = self._seen_scratch
        shard_of = assignment._map.get
        counts = assignment._counts
        gamma = self.gamma
        power = self.power
        touched: list = []
        for vertex in vertices:
            if vertex in assignment:
                continue
            seen.clear()
            add_seen = seen.add
            for other in tx_endpoints:
                if other == vertex or other in seen:
                    continue
                add_seen(other)
                shard = shard_of(other)
                if shard is not None:
                    affinity[shard] += 1.0
                    touched.append(shard)

            total = sum(counts)
            avg = max(total / k, 1.0)
            best_shard = 0
            best_score = float("-inf")
            for s, count in enumerate(counts):
                score = affinity[s] - gamma * (count / avg) ** power
                if score > best_score:
                    best_score = score
                    best_shard = s
            for s in touched:
                affinity[s] = 0.0
            del touched[:]
            assignment.assign(vertex, best_shard)

    def maybe_repartition(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        return None  # streaming: placement is final, like HASH
