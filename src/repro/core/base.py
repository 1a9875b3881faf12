"""Partition-method interface and the replay context it sees.

A :class:`PartitionMethod` answers two questions:

1. *Where does a brand-new vertex go?*  (:meth:`place_vertex`) — by
   default the paper's min-edge-cut / max-balance rule over the other
   accounts in the same transaction (§II-C, METIS bullet); HASH
   overrides it with the hash rule.
2. *Should the system repartition now, and into what?*
   (:meth:`maybe_repartition`) — called once per metric window with a
   :class:`ReplayContext`; returning a mapping triggers a
   repartitioning (vertices absent from the mapping keep their shard).

The replay engine owns all bookkeeping (assignment, metrics, move
counting); methods are pure decision logic, which keeps each of the
paper's five methods to a page.
"""

from __future__ import annotations

import abc
import dataclasses
import random
from typing import Dict, List, Mapping, Optional, Sequence

from repro import kernels
from repro.core.assignment import ShardAssignment
from repro.core.placement import place_by_min_cut
from repro.graph.builder import Interaction, build_graph_columnar
from repro.graph.columnar import ColumnarLog
from repro.graph.digraph import WeightedDiGraph
from repro.metis.graph import CSRGraph


@dataclasses.dataclass
class ReplayContext:
    """Everything a method may look at when making decisions.

    Attributes:
        now: end timestamp of the window just processed.
        k: number of shards.
        assignment: the live assignment (methods must not mutate it;
            they return proposed mappings instead).
        window_interactions: interactions of the window just processed.
        period_interactions: interactions since the last repartitioning
            (the R-METIS / TR-METIS / KL input).
        last_repartition_ts: when the last repartitioning happened
            (genesis if never).
        window_dynamic_edge_cut: dynamic edge-cut of the window just
            processed (TR-METIS trigger input).
        window_dynamic_balance: dynamic balance of the window just
            processed (TR-METIS trigger input).
        rng: the method's own seeded RNG.
        columnar_log: the :class:`ColumnarLog` the replay streams.
            Methods build their graphs from its dense columns
            (:meth:`log_csr`) instead of from boxed interactions.
        log_hi: rows ``[0, log_hi)`` of ``columnar_log`` are exactly
            the interactions replayed so far (the cumulative graph).
        log_period_start: first row of the current repartition period;
            rows ``[log_period_start, log_hi)`` are
            ``period_interactions``.
    """

    now: float
    k: int
    assignment: ShardAssignment
    window_interactions: Sequence[Interaction]
    period_interactions: Sequence[Interaction]
    last_repartition_ts: float
    window_dynamic_edge_cut: float
    window_dynamic_balance: float
    rng: random.Random
    columnar_log: ColumnarLog
    log_hi: int
    log_period_start: int
    _period_graph_cache: Optional[WeightedDiGraph] = None

    @property
    def period_graph(self) -> WeightedDiGraph:
        """Reduced graph of interactions since the last repartitioning,
        aggregated by the batch kernels straight from the log's dense
        columns (built on first access)."""
        if self._period_graph_cache is None:
            self._period_graph_cache = build_graph_columnar(
                self.columnar_log, self.log_period_start, self.log_hi)
        return self._period_graph_cache

    def log_csr(self, lo: int, unit_vertex_weights: bool = False) -> CSRGraph:
        """Undirected CSR graph of log rows ``[lo, log_hi)``.

        Edge weight u–v counts the interactions between u and v in
        either direction; self-interactions add no edge.  Vertices are
        numbered in first-appearance order and each adjacency keeps
        first-encounter order — the orders KL's and METIS's tie-breaks
        depend on.  Vertex weights are activity counts, or all 1 with
        ``unit_vertex_weights`` (the paper's METIS setup), floored at 1
        either way.
        """
        log = self.columnar_log
        first_seen, _upgrades, edge_weights, vertex_weights = (
            kernels.active().graph_batch(
                log.timestamps(), log.src_indices(), log.dst_indices(),
                log.src_kind_codes(), log.dst_kind_codes(), lo, self.log_hi))
        return CSRGraph.from_graph_batch(
            first_seen, edge_weights,
            {} if unit_vertex_weights else vertex_weights, log.vertex_id)

    @property
    def elapsed_since_repartition(self) -> float:
        return self.now - self.last_repartition_ts


@dataclasses.dataclass(frozen=True)
class RepartitionEvent:
    """One repartitioning, as recorded by the replay engine."""

    ts: float
    moves: int
    reassigned: int          # vertices covered by the method's proposal
    reason: str = "periodic"


class PartitionMethod(abc.ABC):
    """Base class of the five methods.

    Subclasses set :attr:`name` and implement :meth:`maybe_repartition`;
    HASH additionally overrides :meth:`place_vertex`.
    """

    #: Short method name used in figures and the registry.
    name: str = "abstract"

    def __init__(self, k: int, seed: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self.rng = random.Random(seed)
        # reused by the default batch placement path so the min-cut
        # rule does not allocate an affinity map per vertex
        self._mincut_scratch: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def begin_replay(self) -> None:
        """Hook called by the replay engine at the start of each run.

        Methods that accumulate per-replay state beyond their RNG (the
        warm-started METIS variants keep an incremental graph builder,
        a coarsening-ladder cache and the previous assignment) override
        this to drop it, so a method instance reused across engines
        never warm-starts one replay from another's state.  The base
        implementation is a no-op.
        """

    def place_vertex(
        self,
        vertex: int,
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> int:
        """Shard for a vertex appearing for the first time.

        ``tx_endpoints`` are all accounts involved in the transaction
        that introduced the vertex.  The default implements the paper's
        rule: pick the shard that minimises edge-cuts; ties maximise
        balance.
        """
        return place_by_min_cut(vertex, tx_endpoints, assignment)

    def place_new_vertices(
        self,
        vertices: Sequence[int],
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> None:
        """Place every not-yet-assigned vertex of one transaction bucket.

        The replay engine calls this with the bucket's first-seen
        vertices in appearance order instead of testing every endpoint
        per method.  Contract: placements happen sequentially in the
        given order, and placement rules may read the assignment's map
        and per-shard vertex *counts* but never the activity weights
        (the engine folds those in separately after placement).
        Subclasses with per-vertex scratch state override this; the
        default routes through :meth:`place_vertex`, feeding the
        min-cut rule a reused scratch map when it is not overridden.
        """
        if type(self).place_vertex is PartitionMethod.place_vertex:
            scratch = self._mincut_scratch
            for v in vertices:
                if v not in assignment:
                    assignment.assign(
                        v,
                        place_by_min_cut(v, tx_endpoints, assignment, scratch),
                    )
        else:
            for v in vertices:
                if v not in assignment:
                    assignment.assign(
                        v, self.place_vertex(v, tx_endpoints, assignment))

    @abc.abstractmethod
    def maybe_repartition(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        """Return a vertex → shard mapping to repartition, or None.

        The mapping need not cover every vertex: uncovered vertices keep
        their current shard (this is how R-METIS leaves dormant
        vertices alone).
        """

    def describe(self) -> str:
        """One-line human description, used by the experiment CLI."""
        return f"{self.name} (k={self.k}, seed={self.seed})"
