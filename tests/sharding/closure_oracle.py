"""The closure-based sharded executor, kept as a test oracle.

``repro.sharding`` runs one engine: the flat-heap batch engine in
:mod:`repro.sharding.batch`.  It began as a bit-identical rewrite of
the original discrete-event simulator — a ``Simulator`` clock over an
``EventQueue``, one ``Shard`` FIFO per shard, and per-phase completion
closures in the coordinator.  That original engine lives on here,
self-contained (nothing imported from ``repro.sharding`` except the
report dataclasses), so the equivalence tests can keep comparing the
batch engine's reports against it with ``==``.

The code is a straight transliteration of the deleted modules, minus
argument validation (the product validates) and unused accessors.
:class:`ClosureExecution` keeps the original defaults, ``strict=False``
included.  Do not "fix" behaviour here: the oracle is the reference
the batch engine must reproduce.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationClockError, UnassignedVertexError
from repro.graph.builder import group_by_transaction
from repro.sharding.throughput import LatencyStats, ThroughputReport


# ----------------------------------------------------------------------
# event queue


@dataclasses.dataclass(order=True)
class ScheduledEvent:
    """One pending event; ordering is (time, seq)."""

    time: float
    seq: int
    callback: Callable[[], None] = dataclasses.field(compare=False)
    cancelled: bool = dataclasses.field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class EventQueue:
    """A deterministic min-heap of scheduled events."""

    def __init__(self) -> None:
        self._heap: List[ScheduledEvent] = []
        self._seq = 0

    def push(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        event = ScheduledEvent(time=time, seq=self._seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[ScheduledEvent]:
        """Next non-cancelled event, or None when drained."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)


# ----------------------------------------------------------------------
# simulation kernel


class Simulator:
    """A deterministic discrete-event simulation kernel."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationClockError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationClockError(f"cannot schedule at {time} < now {self._now}")
        return self._queue.push(time, callback)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final clock.

        When ``until`` is given, the clock ends at ``until`` even if the
        queue drains early (never rewinding a clock already past it);
        a ``max_events`` stop leaves the clock at the last event.
        """
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            next_time = self._queue.peek_time()
            if next_time is None:
                if until is not None and until > self._now:
                    self._now = until
                break
            if until is not None and next_time > until:
                if until > self._now:
                    self._now = until
                break
            event = self._queue.pop()
            assert event is not None
            self._now = event.time
            event.callback()
            self._processed += 1
            fired += 1
        return self._now


# ----------------------------------------------------------------------
# shard: a serial execution resource with a FIFO work queue


@dataclasses.dataclass
class _Job:
    service_time: float
    on_done: Callable[[], None]
    enqueued_at: float


class Shard:
    """One shard's execution engine."""

    def __init__(self, shard_id: int, sim: Simulator):
        self.shard_id = shard_id
        self.sim = sim
        self._queue: Deque[_Job] = deque()
        self._busy = False
        self.busy_time = 0.0
        self.jobs_done = 0
        self.total_queue_wait = 0.0

    def submit(self, service_time: float, on_done: Callable[[], None]) -> None:
        """Enqueue a job; ``on_done`` fires when it finishes executing."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        self._queue.append(_Job(service_time, on_done, self.sim.now))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        job = self._queue.popleft()
        self.total_queue_wait += self.sim.now - job.enqueued_at

        def finish() -> None:
            self.busy_time += job.service_time
            self.jobs_done += 1
            job.on_done()
            self._start_next()

        self.sim.schedule(job.service_time, finish)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent executing."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0


# ----------------------------------------------------------------------
# coordinator: 2PC or state moves, one closure per phase job


@dataclasses.dataclass
class _TxState:
    tx_id: int
    shards: Tuple[int, ...]
    arrived_at: float
    pending: int = 0
    phase: str = "prepare"


class ClosureExecution:
    """The original ``ShardedExecution``: replays transactions against
    k shards under an assignment, one simulator callback per event."""

    def __init__(self, k, assignment, config, state=None, strict=False):
        self.k = k
        self.config = config
        self.assignment = dict(assignment) if config.mode == "migrate" else assignment
        self.state = state
        self.strict = strict
        self.sim = Simulator()
        self.shards = [Shard(i, self.sim) for i in range(k)]
        self.latencies: List[float] = []
        self.completed = 0
        self.single_shard = 0
        self.multi_shard = 0
        self.migrations = 0
        self.migration_bytes = 0
        self.unassigned_endpoints = 0
        self._last_completion = 0.0

    def shard_set(self, endpoints) -> Tuple[int, ...]:
        shards: Set[int] = set()
        for v in endpoints:
            s = self.assignment.get(v)
            if s is not None:
                shards.add(s)
            else:
                self._note_unassigned(v)
        return tuple(sorted(shards))

    def _note_unassigned(self, vertex: int) -> None:
        if self.strict:
            raise UnassignedVertexError(vertex)
        self.unassigned_endpoints += 1

    def submit_endpoints(self, tx_id: int, endpoints: Sequence[int]) -> None:
        if self.config.mode == "migrate":
            self._submit_migrating(tx_id, endpoints)
        else:
            self.submit_transaction(tx_id, self.shard_set(endpoints))

    def submit_transaction(self, tx_id: int, shards: Tuple[int, ...]) -> None:
        if not shards:
            return
        cfg = self.config
        if len(shards) == 1:
            self.single_shard += 1
            state = _TxState(tx_id, shards, self.sim.now, pending=1, phase="commit")
            self.shards[shards[0]].submit(
                cfg.service_time, lambda st=state: self._phase_done(st)
            )
            return
        self.multi_shard += 1
        state = _TxState(tx_id, shards, self.sim.now, pending=len(shards), phase="prepare")
        for s in shards:
            self.shards[s].submit(
                cfg.prepare_time, lambda st=state: self._phase_done(st)
            )

    def _submit_migrating(self, tx_id: int, endpoints: Sequence[int]) -> None:
        placed = []
        for v in dict.fromkeys(endpoints):
            if v in self.assignment:
                placed.append(v)
            else:
                self._note_unassigned(v)
        if not placed:
            return
        shards = self.shard_set(placed)
        if len(shards) == 1:
            self.single_shard += 1
            state = _TxState(tx_id, shards, self.sim.now, pending=1, phase="commit")
            self.shards[shards[0]].submit(
                self.config.service_time, lambda st=state: self._phase_done(st)
            )
            return
        self.multi_shard += 1
        votes: Dict[int, int] = {}
        for v in placed:
            votes[self.assignment[v]] = votes.get(self.assignment[v], 0) + 1
        target = min(votes, key=lambda s: (-votes[s], s))
        movers = [v for v in placed if self.assignment[v] != target]
        jobs: List[Tuple[int, float]] = []
        for v in movers:
            seconds = self._migration_time(v)
            jobs.append((self.assignment[v], seconds))
            jobs.append((target, seconds))
            self.assignment[v] = target
            self.migrations += 1
        state = _TxState(
            tx_id, (target,), self.sim.now, pending=len(jobs), phase="migrate"
        )
        for shard, seconds in jobs:
            self.shards[shard].submit(
                seconds, lambda st=state: self._phase_done(st)
            )

    def _migration_time(self, vertex: int) -> float:
        if self.state is not None:
            acct = self.state.get_optional(vertex)
            if acct is not None:
                size = acct.state_bytes()
                self.migration_bytes += size
                return size / self.config.migration_bandwidth
        return self.config.migration_time_fixed

    def _phase_done(self, state: _TxState) -> None:
        state.pending -= 1
        if state.pending > 0:
            return
        if state.phase == "prepare":
            state.phase = "commit"
            state.pending = len(state.shards)

            def start_commits() -> None:
                for s in state.shards:
                    self.shards[s].submit(
                        self.config.commit_time,
                        lambda st=state: self._phase_done(st),
                    )

            self.sim.schedule(self.config.network_rtt, start_commits)
        elif state.phase == "migrate":
            state.phase = "commit"
            state.pending = 1
            self.shards[state.shards[0]].submit(
                self.config.service_time, lambda st=state: self._phase_done(st)
            )
        else:
            self.completed += 1
            self.latencies.append(self.sim.now - state.arrived_at)
            self._last_completion = self.sim.now

    def replay(self, interactions, time_scale=0.0, arrival_rate=None) -> ThroughputReport:
        txs = []
        for tx_id, bucket in group_by_transaction(interactions):
            endpoints = tuple(
                dict.fromkeys(e for it in bucket for e in (it.src, it.dst))
            )
            txs.append((tx_id, bucket[0].timestamp, endpoints))
        if time_scale > 0:
            base = txs[0][1] if txs else 0.0
            for tx_id, ts, endpoints in txs:
                self.sim.schedule_at(
                    (ts - base) * time_scale,
                    lambda t=tx_id, e=endpoints: self.submit_endpoints(t, e),
                )
        else:
            if arrival_rate is None:
                arrival_rate = 0.8 * self.k / self.config.service_time
            gap = 1.0 / arrival_rate
            for i, (tx_id, _ts, endpoints) in enumerate(txs):
                self.sim.schedule_at(
                    i * gap, lambda t=tx_id, e=endpoints: self.submit_endpoints(t, e)
                )
        self.sim.run()
        return self.report()

    def report(self) -> ThroughputReport:
        elapsed = max(self._last_completion, self.sim.now)
        lat = self.latencies
        skip = int(len(lat) * self.config.warmup_fraction)
        return ThroughputReport(
            k=self.k,
            completed=self.completed,
            single_shard=self.single_shard,
            multi_shard=self.multi_shard,
            elapsed=elapsed,
            throughput=self.completed / elapsed if elapsed > 0 else 0.0,
            latency=LatencyStats.from_samples(lat[skip:]),
            utilization=tuple(
                s.utilization(elapsed) if elapsed > 0 else 0.0 for s in self.shards
            ),
            migrations=self.migrations,
            migration_bytes=self.migration_bytes,
            unassigned_endpoints=self.unassigned_endpoints,
        )
