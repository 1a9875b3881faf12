"""The replay engine: stream history → placement → metrics → repartition.

This is the experimental harness of the paper.  It consumes the
time-ordered interaction log (from the workload generator or a trace
file), maintains the live shard assignment, and per metric window
(four hours in the paper):

1. groups the window's interactions by transaction and places
   newly-appearing vertices via the method's placement rule;
2. incrementally maintains the per-vertex activity weights and the
   static-metric counters, and accumulates per-window dynamic-metric
   counters;
3. records a :class:`~repro.metrics.series.MetricPoint`;
4. offers the method a chance to repartition; if it does, applies the
   proposal, counts the moves and resets the period buffer.

Static metrics are maintained incrementally (recomputed from scratch
only at repartitionings), so a full replay is O(interactions + windows
+ repartitions × |E|) rather than O(windows × |E|).

The streaming loop itself lives in
:mod:`repro.core.multireplay`, which fans one pass over the log out to
any number of methods; :class:`ReplayEngine` is its single-method
facade.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping, Optional, Sequence, Union

from repro.core.assignment import ShardAssignment
from repro.core.base import PartitionMethod, RepartitionEvent
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import METRIC_WINDOW
from repro.metrics.series import MetricSeries


@dataclasses.dataclass
class ReplayResult:
    """Everything a replay produced.

    The replayed graph is not part of it; build it from the log with
    :func:`~repro.graph.builder.build_graph` when a caller needs it.
    """

    method: str
    k: int
    series: MetricSeries
    assignment: ShardAssignment
    events: List[RepartitionEvent]

    @property
    def total_moves(self) -> int:
        return sum(e.moves for e in self.events)

    @property
    def num_repartitions(self) -> int:
        return sum(1 for e in self.events if e.moves or e.reassigned)


def apply_proposal(
    proposal: Mapping[int, int],
    assignment: ShardAssignment,
    log_index: Mapping[int, int],
    vertex_weight: Sequence[int],
) -> int:
    """Apply a repartition proposal; returns the move count.

    A moved vertex carries its activity weight to the new shard:
    ``vertex_weight[log_index[v]]``, the dense activity column of the
    rows streamed so far (zero for a vertex not streamed yet).
    """
    moves = 0
    n_streamed = len(vertex_weight)
    for v, shard in proposal.items():
        current = assignment.shard_of(v)
        if current is None:
            # method proposed a vertex the replay has not seen yet;
            # treat as a fresh placement (no move)
            assignment.assign(v, shard)
            continue
        if current != shard:
            dense = log_index.get(v)
            weight = (
                vertex_weight[dense]
                if dense is not None and dense < n_streamed else 0
            )
            assignment.move(v, shard, weight=weight)
            moves += 1
    return moves


class ReplayEngine:
    """Replays an interaction log through one partitioning method.

    This is the single-method special case of
    :class:`~repro.core.multireplay.MultiReplayEngine`: :meth:`run`
    delegates to the shared streaming loop with a one-method fan-out,
    so both paths stay bit-identical by construction.
    """

    def __init__(
        self,
        interactions: Union[Sequence[Interaction], ColumnarLog],
        method: PartitionMethod,
        metric_window: float = METRIC_WINDOW,
        end_ts: Optional[float] = None,
    ):
        """Args:
            interactions: the full, time-ordered interaction log (e.g.
                ``workload_result.builder.log``) or a
                :class:`~repro.graph.columnar.ColumnarLog`.
            method: the partitioning method under study.
            metric_window: sampling window width in seconds (paper: 4h).
            end_ts: replay horizon; defaults to one second past the
                last interaction.
        """
        from repro.core.multireplay import MultiReplayEngine

        self.method = method
        self.k = method.k
        self._engine = MultiReplayEngine(
            interactions, [method], metric_window=metric_window, end_ts=end_ts)

    # ------------------------------------------------------------------

    def run(self) -> ReplayResult:
        return self._engine.run()[0]


def replay_method(
    interactions: Union[Sequence[Interaction], ColumnarLog],
    method: PartitionMethod,
    metric_window: float = METRIC_WINDOW,
) -> ReplayResult:
    """Convenience one-call replay."""
    return ReplayEngine(interactions, method, metric_window=metric_window).run()
