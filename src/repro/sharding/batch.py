"""The sharded executor's event engine, batched off columnar logs.

Both :class:`ShardedExecution` entry points run here (``replay`` interns
an ``Interaction`` list and delegates to ``replay_columnar``).  The
engine replays the cost model directly off ``ColumnarLog``'s dense
columns: one event loop, with no closures, serves both modes over a
flat ``(time, seq, shard, state)`` tuple heap (shard ``-1`` marks a
vote/commit event) and list-backed shard state.  Only the arrival step
branches on the mode; the event pop, the finish handler and the
vote/commit handler are shared.

Grouping rows into transactions (:func:`extract_transactions`) depends
on the log window alone, not on the assignment or the cost model, so a
caller replaying many assignments over one window groups once and
passes the :class:`TransactionGroups` to every replay:
:func:`repro.experiments.execution.attach_execution` does this once per
call, i.e. once per sweep (once per chunk in a parallel sweep).

It must stay bit-identical to the closure-based simulator it replaced
(one ``Simulator`` callback per arrival, one ``Shard`` closure per
phase job), which the tests keep as an oracle
(``tests/sharding/closure_oracle.py``) and compare reports against
with ``==``.  Equivalence hinges on three invariants:

* **Event order.**  Events are ordered by ``(time, seq)`` with ``seq``
  assigned at schedule time.  The oracle pre-schedules the n arrivals
  as seqs ``0..n-1``, so every runtime seq is ``>= n`` and an arrival
  wins every time tie.  Here arrivals are a cursor over transactions
  sorted by ``(time, index)``, taken while ``t_arrival <= heap[0].time``,
  and the runtime ``seq`` counter starts at ``n``.
* **Shard semantics.**  A finishing job runs its completion step
  (which may enqueue more work, including on the same shard), *then*
  the shard starts its next queued job.
* **Float order.**  Every arithmetic expression (``now + service``,
  ``now + rtt``, ``now - arrived_at``, warmup slicing) evaluates in the
  same order on the same values, so reports compare equal with ``==``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationClockError, UnassignedVertexError
from repro.sharding.throughput import LatencyStats, ThroughputReport

# tx phases (list layout: [pending, phase, arrived_at, shards])
_PH_PREPARE = 0
_PH_COMMIT = 1
_PH_MIGRATE = 2


class TransactionGroups(NamedTuple):
    """Rows ``[lo, hi)`` of ``log`` grouped into transactions.

    ``times`` and ``endpoints`` are parallel per-transaction lists:
    first-row timestamp and deduplicated endpoint tuple (dense indices,
    first-occurrence order — the order ``dict.fromkeys(src0, dst0,
    src1, dst1, ...)`` yields in the oracle).  Read-only: replays share
    one instance.
    """

    log: Any
    lo: int
    hi: int
    times: List[float]
    endpoints: List[Tuple[int, ...]]


def extract_transactions(log: Any, lo: int, hi: int) -> TransactionGroups:
    """Group rows ``[lo, hi)`` into transactions off the dense columns.

    Contiguity of tx_id rows is assumed, exactly as
    :func:`repro.graph.builder.group_by_transaction` does.
    """
    ts_col = log.timestamps()
    src = log.src_indices()
    dst = log.dst_indices()
    txc = log.tx_ids()

    times: List[float] = []
    endpoints: List[Tuple[int, ...]] = []
    a = lo
    while a < hi:
        tx = txc[a]
        b = a + 1
        while b < hi and txc[b] == tx:
            b += 1
        if b - a == 1:
            s0 = src[a]
            d0 = dst[a]
            eps = (s0,) if s0 == d0 else (s0, d0)
        else:
            eps = tuple(
                dict.fromkeys(
                    x for j in range(a, b) for x in (src[j], dst[j])
                )
            )
        times.append(ts_col[a])
        endpoints.append(eps)
        a = b
    return TransactionGroups(log, lo, hi, times, endpoints)


def run_columnar(
    ex: Any,
    groups: TransactionGroups,
    time_scale: float,
    arrival_rate: Optional[float],
) -> ThroughputReport:
    """Replay the transactions of ``groups`` through ``ex`` (a
    ``ShardedExecution``).

    Reads ``ex``'s config, assignment, state and ``strict`` flag; in
    migrate mode, moves are written back to ``ex.assignment``.  The
    report covers these rows only.
    """
    cfg = ex.config
    migrate = cfg.mode == "migrate"
    raw_ids = groups.log.vertex_ids()
    assignment = ex.assignment
    shard_of = [assignment.get(raw, -1) for raw in raw_ids]

    arr_time = groups.times
    arr_eps = groups.endpoints
    n = len(arr_time)
    if time_scale > 0:
        base = arr_time[0] if arr_time else 0.0
        arr_time = [(t - base) * time_scale for t in arr_time]
        for t in arr_time:
            if t < 0:
                raise SimulationClockError(f"cannot schedule at {t} < now 0.0")
        # a stable sort on time keeps ties in index order: (time, index)
        order = sorted(range(n), key=arr_time.__getitem__)
        arr_time = [arr_time[i] for i in order]
        arr_eps = [arr_eps[i] for i in order]
    else:
        if arrival_rate is None:
            arrival_rate = 0.8 * ex.k / cfg.service_time
        gap = 1.0 / arrival_rate
        arr_time = [i * gap for i in range(n)]

    # ---- engine state ------------------------------------------------
    k = ex.k
    heap: List[Tuple[float, int, int, Any]] = []
    seq = n  # arrivals own seqs 0..n-1, exactly as pre-scheduled events
    busy = [False] * k
    queues = [deque() for _ in range(k)]
    # a shard runs its jobs one at a time, and every started job finishes
    # before the heap drains, so charging a job's time when it starts
    # sums the same values in the same order as charging it on finish
    busy_time = [0.0] * k

    latencies: List[float] = []
    completed = 0
    single_shard = 0
    multi_shard = 0
    migrations = 0
    migration_bytes = 0
    unassigned = 0
    now = 0.0

    service_time = cfg.service_time
    prepare_time = cfg.prepare_time
    commit_time = cfg.commit_time
    network_rtt = cfg.network_rtt
    world_state = ex.state
    strict = ex.strict

    # ---- event loop --------------------------------------------------
    # An arrival or a vote/commit event leaves the jobs it submits for
    # ``state`` as ``targets`` (shards) and ``service`` (their time) to
    # the submit step at the bottom.  A finished job is handled whole in
    # its own branch: its shard starts the next queued job only after
    # the completion step has submitted its own work.
    ai = 0
    while True:
        if ai < n and (not heap or arr_time[ai] <= heap[0][0]):
            # arrival: ``<=`` is exact (t_arr, i) < (time, seq) order,
            # as arrivals own seqs 0..n-1 and every runtime seq is >= n
            now = arr_time[ai]
            eps = arr_eps[ai]
            ai += 1
            if migrate:
                placed = []
                votes = {}
                for v in eps:
                    home = shard_of[v]
                    if home >= 0:
                        placed.append(v)
                        votes[home] = votes.get(home, 0) + 1
                    elif strict:
                        raise UnassignedVertexError(raw_ids[v])
                    else:
                        unassigned += 1
                if not placed:
                    continue
                if len(votes) == 1:
                    single_shard += 1
                    state = [1, _PH_COMMIT, now, tuple(votes)]
                    targets = state[3]
                    service = service_time
                else:
                    multi_shard += 1
                    # most endpoints wins; ties go to the lowest shard id
                    target = -1
                    most = 0
                    for home, c in votes.items():
                        if c > most or (c == most and home < target):
                            target = home
                            most = c
                    jobs = []
                    for v in placed:
                        home = shard_of[v]
                        if home == target:
                            continue
                        seconds = cfg.migration_time_fixed
                        if world_state is not None:
                            acct = world_state.get_optional(raw_ids[v])
                            if acct is not None:
                                size = acct.state_bytes()
                                migration_bytes += size
                                seconds = size / cfg.migration_bandwidth
                        jobs.append((home, seconds))    # serialize at source
                        jobs.append((target, seconds))  # apply at target
                        shard_of[v] = target            # sticky move
                        assignment[raw_ids[v]] = target
                        migrations += 1
                    state = [len(jobs), _PH_MIGRATE, now, (target,)]
                    # move times differ per vertex: submit each job here
                    targets = ()
                    for j, service in jobs:
                        if busy[j]:
                            queues[j].append((service, state))
                        else:
                            busy[j] = True
                            busy_time[j] += service
                            heappush(heap, (now + service, seq, j, state))
                            seq += 1
            else:
                # 2pc: the distinct shards hosting the endpoints, sorted;
                # one or two assigned endpoints need no set or sort
                shards = None
                if len(eps) <= 2:
                    a = shard_of[eps[0]]
                    b = shard_of[eps[-1]]
                    if a >= 0 and b >= 0:
                        if a == b:
                            shards = (a,)
                        else:
                            shards = (a, b) if a < b else (b, a)
                if shards is None:
                    sset = set()
                    for v in eps:
                        home = shard_of[v]
                        if home >= 0:
                            sset.add(home)
                        elif strict:
                            raise UnassignedVertexError(raw_ids[v])
                        else:
                            unassigned += 1
                    if not sset:
                        continue
                    shards = tuple(sorted(sset))
                if len(shards) == 1:
                    single_shard += 1
                    state = [1, _PH_COMMIT, now, shards]
                    service = service_time
                else:
                    multi_shard += 1
                    state = [len(shards), _PH_PREPARE, now, shards]
                    service = prepare_time
                targets = shards
        elif heap:
            now, _, s, state = heappop(heap)
            if s < 0:
                # votes arrived: commit on every involved shard
                targets = state[3]
                service = commit_time
            else:  # a job finished on shard s
                pending = state[0]
                if pending > 1:
                    state[0] = pending - 1
                elif state[1] == _PH_COMMIT:
                    completed += 1
                    latencies.append(now - state[2])
                elif state[1] == _PH_PREPARE:
                    state[1] = _PH_COMMIT
                    state[0] = len(state[3])
                    heappush(heap, (now + network_rtt, seq, -1, state))
                    seq += 1
                else:  # _PH_MIGRATE: moves applied, execute on target
                    state[1] = _PH_COMMIT
                    state[0] = 1
                    j = state[3][0]
                    if busy[j]:
                        queues[j].append((service_time, state))
                    else:
                        busy[j] = True
                        busy_time[j] += service_time
                        heappush(heap, (now + service_time, seq, j, state))
                        seq += 1
                q = queues[s]  # start the next queued job
                if q:
                    service, state = q.popleft()
                    busy_time[s] += service
                    heappush(heap, (now + service, seq, s, state))
                    seq += 1
                else:
                    busy[s] = False
                continue
        else:
            break

        # submit: queue behind the running job, or start on an idle shard
        for j in targets:
            if busy[j]:
                queues[j].append((service, state))
            else:
                busy[j] = True
                busy_time[j] += service
                heappush(heap, (now + service, seq, j, state))
                seq += 1

    # ---- report: the clock stops at the last event ----------------
    elapsed = now
    skip = int(len(latencies) * cfg.warmup_fraction)
    return ThroughputReport(
        k=k,
        completed=completed,
        single_shard=single_shard,
        multi_shard=multi_shard,
        elapsed=elapsed,
        throughput=completed / elapsed if elapsed > 0 else 0.0,
        latency=LatencyStats.from_samples(latencies[skip:]),
        utilization=tuple(
            b / elapsed if elapsed > 0 else 0.0 for b in busy_time
        ),
        migrations=migrations,
        migration_bytes=migration_bytes,
        unassigned_endpoints=unassigned,
    )
