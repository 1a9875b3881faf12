"""The sharded executor's event engine, batched off columnar logs.

Both :class:`ShardedExecution` entry points run here (``replay`` interns
an ``Interaction`` list and delegates to ``replay_columnar``).  The
engine replays the cost model directly off ``ColumnarLog``'s dense
columns with a flat tuple heap and array-backed shard state: no
``Interaction`` boxing, no per-job closure allocation.

It must stay bit-identical to the closure-based simulator it replaced
(one ``Simulator`` callback per arrival, one ``Shard`` closure per
phase job), which the tests keep as an oracle
(``tests/sharding/closure_oracle.py``) and compare reports against
with ``==``.  Equivalence hinges on three invariants:

* **Event order.**  Events are ordered by ``(time, seq)`` with ``seq``
  assigned at schedule time, and all n arrivals precede every runtime
  event in ``seq`` (the oracle pre-schedules them as seqs ``0..n-1``),
  so arrivals win every time tie.  Here arrivals are a sorted cursor,
  popped while ``(t_arrival, i) < (heap[0].time, heap[0].seq)``, and the
  runtime ``seq`` counter starts at ``n``.
* **Shard semantics.**  A finishing job accrues busy time, runs its
  completion step (which may enqueue more work, including on the same
  shard), *then* the shard starts its next queued job.
* **Float order.**  Every arithmetic expression (``now + service``,
  ``now + rtt``, ``now - arrived_at``, warmup slicing) evaluates in the
  same order on the same values, so reports compare equal with ``==``.
"""

from __future__ import annotations

from array import array
from collections import deque
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

from repro.errors import SimulationClockError, UnassignedVertexError
from repro.sharding.throughput import LatencyStats, ThroughputReport

# heap event kinds; payload is a shard id (_FINISH) or a tx state (_COMMITS)
_FINISH = 0
_COMMITS = 1

# tx phases (list layout: [pending, phase, arrived_at, shards])
_PH_PREPARE = 0
_PH_COMMIT = 1
_PH_MIGRATE = 2


def extract_transactions(
    log: Any, lo: int, hi: int
) -> Tuple[List[float], List[Tuple[int, ...]]]:
    """Group rows ``[lo, hi)`` into transactions off the dense columns.

    Returns parallel lists: first-row timestamp and deduplicated
    endpoint tuple (dense indices, first-occurrence order — the same
    order ``dict.fromkeys(src0, dst0, src1, dst1, ...)`` yields in the
    oracle) per transaction.  Contiguity of tx_id rows is assumed,
    exactly as :func:`repro.graph.builder.group_by_transaction` does.
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
    return times, endpoints


def run_columnar(
    ex: Any,
    log: Any,
    lo: int,
    hi: int,
    time_scale: float,
    arrival_rate: Optional[float],
) -> ThroughputReport:
    """Replay ``log[lo:hi]`` through ``ex`` (a ``ShardedExecution``).

    Reads ``ex``'s config, assignment, state and ``strict`` flag; in
    migrate mode, moves are written back to ``ex.assignment``.  The
    report covers these rows only.
    """
    cfg = ex.config
    migrate = cfg.mode == "migrate"
    raw_ids = log.vertex_ids()
    assignment = ex.assignment
    shard_of = array("q", (assignment.get(raw, -1) for raw in raw_ids))

    arr_time, arr_eps = extract_transactions(log, lo, hi)
    n = len(arr_time)

    if time_scale > 0:
        base = arr_time[0] if arr_time else 0.0
        arr_time = [(t - base) * time_scale for t in arr_time]
        for t in arr_time:
            if t < 0:
                raise SimulationClockError(f"cannot schedule at {t} < now 0.0")
        order = sorted(range(n), key=lambda i: (arr_time[i], i))
    else:
        if arrival_rate is None:
            arrival_rate = 0.8 * ex.k / cfg.service_time
        gap = 1.0 / arrival_rate
        arr_time = [i * gap for i in range(n)]
        order = list(range(n))

    # ---- engine state ------------------------------------------------
    k = ex.k
    heap: List[Tuple[float, int, int, Any]] = []
    seq = n  # arrivals own seqs 0..n-1, exactly as pre-scheduled events
    busy = bytearray(k)
    queues = [deque() for _ in range(k)]
    current: List[Any] = [None] * k
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

    def submit(s: int, service: float, state: list) -> None:
        # queue behind the running job, or start at once on an idle shard
        nonlocal seq
        if busy[s]:
            queues[s].append((service, state))
        else:
            busy[s] = 1
            current[s] = (service, state)
            heappush(heap, (now + service, seq, _FINISH, s))
            seq += 1

    def phase_done(state: list) -> None:
        nonlocal seq, completed
        state[0] -= 1
        if state[0] > 0:
            return
        phase = state[1]
        if phase == _PH_PREPARE:
            state[1] = _PH_COMMIT
            state[0] = len(state[3])
            heappush(heap, (now + network_rtt, seq, _COMMITS, state))
            seq += 1
        elif phase == _PH_MIGRATE:
            state[1] = _PH_COMMIT
            state[0] = 1
            submit(state[3][0], service_time, state)
        else:
            completed += 1
            latencies.append(now - state[2])

    def migration_time(dense: int) -> float:
        nonlocal migration_bytes
        if world_state is not None:
            acct = world_state.get_optional(raw_ids[dense])
            if acct is not None:
                size = acct.state_bytes()
                migration_bytes += size
                return size / cfg.migration_bandwidth
        return cfg.migration_time_fixed

    def note_unassigned(dense: int) -> None:
        nonlocal unassigned
        if strict:
            raise UnassignedVertexError(raw_ids[dense])
        unassigned += 1

    def dispatch(i: int) -> None:
        nonlocal single_shard, multi_shard, migrations
        eps = arr_eps[i]
        if migrate:
            placed = []
            for v in eps:
                if shard_of[v] >= 0:
                    placed.append(v)
                else:
                    note_unassigned(v)
            if not placed:
                return
            shards = tuple(sorted({shard_of[v] for v in placed}))
            if len(shards) == 1:
                single_shard += 1
                state = [1, _PH_COMMIT, now, shards]
                submit(shards[0], service_time, state)
                return
            multi_shard += 1
            votes = {}
            for v in placed:
                s = shard_of[v]
                votes[s] = votes.get(s, 0) + 1
            target = min(votes, key=lambda s: (-votes[s], s))
            jobs: List[Tuple[int, float]] = []
            for v in placed:
                s = shard_of[v]
                if s == target:
                    continue
                seconds = migration_time(v)
                jobs.append((s, seconds))       # serialize at source
                jobs.append((target, seconds))  # apply at target
                shard_of[v] = target            # sticky move
                assignment[raw_ids[v]] = target
                migrations += 1
            state = [len(jobs), _PH_MIGRATE, now, (target,)]
            for s, seconds in jobs:
                submit(s, seconds, state)
            return
        # 2pc: the distinct shards hosting the endpoints, sorted
        sset = set()
        for v in eps:
            s = shard_of[v]
            if s >= 0:
                sset.add(s)
            else:
                note_unassigned(v)
        shards = tuple(sorted(sset))
        if not shards:
            return
        if len(shards) == 1:
            single_shard += 1
            state = [1, _PH_COMMIT, now, shards]
            submit(shards[0], service_time, state)
            return
        multi_shard += 1
        state = [len(shards), _PH_PREPARE, now, shards]
        for s in shards:
            submit(s, prepare_time, state)

    # ---- event loop --------------------------------------------------
    ai = 0
    while True:
        if ai < n:
            i = order[ai]
            t_arr = arr_time[i]
            if not heap or (t_arr, i) < (heap[0][0], heap[0][1]):
                now = t_arr
                ai += 1
                dispatch(i)
                continue
        if not heap:
            break
        t, _sq, kind, payload = heappop(heap)
        now = t
        if kind == _FINISH:
            s = payload
            service, state = current[s]
            busy_time[s] += service
            phase_done(state)
            q = queues[s]
            if q:
                service, state = q.popleft()
                current[s] = (service, state)
                heappush(heap, (now + service, seq, _FINISH, s))
                seq += 1
            else:
                busy[s] = 0
                current[s] = None
        else:  # _COMMITS: votes arrived, commit on every involved shard
            for s in payload[3]:
                submit(s, commit_time, payload)

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
