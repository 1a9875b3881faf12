"""Cross-shard transaction execution: two-phase commit or state moves.

A transaction touches the set of shards hosting its endpoint vertices.
Single-shard transactions always cost one ``service_time`` slot on
their shard.  Multi-shard transactions are handled per the paper's two
solution classes (§I):

* ``mode="2pc"`` (class (a): Spanner / S-SMR) — the coordinating shard
  drives two-phase commit: every involved shard executes a *prepare*
  job, votes travel one network RTT, then every shard executes a
  *commit* job.  Cost per shard ≈ 2 service slots plus the vote RTT.

* ``mode="migrate"`` (class (b): Dynamic S-SMR [5]) — the vertices on
  minority shards *move* to the shard hosting the most endpoints
  (source and destination each pay the transfer time, which scales
  with the vertex's serialized state when a world state is supplied),
  after which the transaction executes locally.  Moves are sticky: the
  live assignment is updated, so later transactions benefit — or pay
  again when access patterns ping-pong.

The executor replays an interaction log through the batch engine
(:mod:`repro.sharding.batch`): each transaction arrives at its (scaled)
timestamp, its shard set is derived from a vertex → shard assignment,
and the report aggregates throughput and latency.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Optional

from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog, as_columnar
from repro.sharding.batch import (
    TransactionGroups,
    extract_transactions,
    run_columnar,
)
from repro.sharding.throughput import ThroughputReport


@dataclasses.dataclass(frozen=True)
class ShardedExecutionConfig:
    """Cost model of the sharded executor.

    Times are in simulated seconds; defaults approximate a permissioned
    deployment (1 ms execution, 5 ms inter-shard RTT).
    """

    service_time: float = 0.001      # single-shard execution slot
    prepare_time: float = 0.001      # per-shard prepare work (2PC phase 1)
    commit_time: float = 0.0005      # per-shard commit work (2PC phase 2)
    network_rtt: float = 0.005       # vote round-trip between shards
    warmup_fraction: float = 0.0     # ignore the first X of completions
    mode: str = "2pc"                # "2pc" or "migrate"
    migration_bandwidth: float = 50e6   # bytes/sec when a state is given
    migration_time_fixed: float = 0.002  # per-vertex move time otherwise

    def __post_init__(self) -> None:
        if self.mode not in ("2pc", "migrate"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if not self.service_time > 0:
            raise ValueError(f"service_time must be > 0, got {self.service_time}")
        for name in ("prepare_time", "commit_time", "network_rtt",
                     "migration_time_fixed"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not self.migration_bandwidth > 0:
            raise ValueError(
                f"migration_bandwidth must be > 0, got {self.migration_bandwidth}"
            )
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1], got {self.warmup_fraction}"
            )


class ShardedExecution:
    """Replays transactions against k shards under an assignment.

    In ``migrate`` mode the assignment is copied and mutated as state
    moves happen, so moves carry over from one replay to the next;
    pass ``state`` (a :class:`WorldState`) to charge per-vertex
    transfer times proportional to serialized account size.

    ``strict`` (the default) makes a replay that touches an endpoint
    with no shard assignment raise :class:`UnassignedVertexError`
    naming the vertex; ``strict=False`` counts such endpoints in
    ``unassigned_endpoints`` instead.
    """

    def __init__(
        self,
        k: int,
        assignment: Mapping[int, int],
        config: Optional[ShardedExecutionConfig] = None,
        state=None,
        strict: bool = True,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.config = config or ShardedExecutionConfig()
        self.assignment = (
            dict(assignment) if self.config.mode == "migrate" else assignment
        )
        self.state = state
        self.strict = strict

    def replay(
        self,
        interactions: Iterable[Interaction],
        time_scale: float = 0.0,
        arrival_rate: Optional[float] = None,
    ) -> ThroughputReport:
        """Replay an interaction log grouped into transactions.

        Accepts a :class:`ColumnarLog` as is, or any ``Interaction``
        sequence (interned into one first); see :meth:`replay_columnar`.
        """
        return self.replay_columnar(
            as_columnar(interactions),
            time_scale=time_scale,
            arrival_rate=arrival_rate,
        )

    def replay_columnar(
        self,
        log: ColumnarLog,
        lo: int = 0,
        hi: Optional[int] = None,
        time_scale: float = 0.0,
        arrival_rate: Optional[float] = None,
        *,
        groups: Optional[TransactionGroups] = None,
    ) -> ThroughputReport:
        """Replay rows ``[lo, hi)`` of a :class:`ColumnarLog`.

        Arrival process: either compress the original timestamps by
        ``time_scale`` (seconds of sim time per second of history), or —
        the default — open-loop arrivals at ``arrival_rate``
        transactions/second (deterministically spaced; rate defaults to
        80% of the single-shard capacity k/service).  Each call reports
        only its own rows.

        ``groups`` — :func:`~repro.sharding.batch.extract_transactions`
        of this very ``(log, lo, hi)`` — skips re-grouping the rows when
        one window replays under many assignments; groups of another
        log or window raise ``ValueError``.
        """
        if hi is None:
            hi = len(log)
        if not 0 <= lo <= hi <= len(log):
            raise ValueError(
                f"invalid row window [{lo}, {hi}) for a {len(log)}-row log"
            )
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        if arrival_rate is not None and not arrival_rate > 0:
            raise ValueError(f"arrival_rate must be > 0, got {arrival_rate}")
        if groups is None:
            groups = extract_transactions(log, lo, hi)
        elif groups.log is not log or (groups.lo, groups.hi) != (lo, hi):
            raise ValueError(
                f"transaction groups of rows [{groups.lo}, {groups.hi}) of "
                f"another log or window cannot replay rows [{lo}, {hi})"
            )
        return run_columnar(self, groups, time_scale, arrival_rate)
