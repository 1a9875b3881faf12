"""Single-pass multi-method replay: one log stream, N method fan-outs.

Every figure and benchmark that compares partitioning methods replays
the *same* interaction log once per method.  All of that work except
the method's own decisions is identical across runs: the window
slicing, the transaction grouping, the per-vertex activity weights
and the distinct-edge detection do not depend on the method at all.

:class:`MultiReplayEngine` streams the log exactly once and maintains
the shared state a single time, fanning out only the per-method parts:

* the :class:`~repro.core.assignment.ShardAssignment` (placement is
  method- and history-dependent),
* the incremental static-cut counter (depends on the assignment),
* the per-window dynamic counters, the
  :class:`~repro.metrics.series.MetricSeries` and the repartition
  events.

For deterministic (seeded) methods the results are bit-identical to N
independent :class:`~repro.core.replay.ReplayEngine` runs — the single
engine is in fact implemented as a one-method fan-out, so there is
only one streaming loop in the codebase.

The engine streams a :class:`~repro.graph.columnar.ColumnarLog`; a
plain ``Sequence[Interaction]`` is interned into one up front, so every
method sees the same columnar context whatever the caller passed.
Window boundaries resolve by bisect, and ``Interaction`` rows
materialise only when a method reads them.

This engine is the execution substrate of the declarative experiment
API: :func:`repro.experiments.run.run_experiment` plans a (method × k
× seed) grid, shares one engine pass per worker, and serializes the
fan-out into a :class:`~repro.experiments.results.ResultSet` — prefer
that entry point for sweeps (parallelism, on-disk resume); construct
the engine directly for one-off method studies.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Union

from repro import kernels
from repro.core.assignment import ShardAssignment
from repro.core.base import PartitionMethod, RepartitionEvent, ReplayContext
from repro.core.replay import ReplayResult, apply_proposal
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog, as_columnar
from repro.graph.snapshot import METRIC_WINDOW
from repro.kernels import StreamState
from repro.metrics.series import MetricPoint, MetricSeries


class _LogView(Sequence):
    """Zero-copy, immutable view of ``log[start:stop]``.

    Period buffers always cover a contiguous suffix of the streamed
    log (they reset only at window boundaries), so every method's
    ``period_interactions`` can share the one log instead of holding
    its own boxed copy — rows materialise only when a method actually
    reads them.
    """

    __slots__ = ("_log", "_start", "_stop")

    def __init__(self, log, start: int, stop: int):
        self._log = log
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self):
        log = self._log
        for i in range(self._start, self._stop):
            yield log[i]

    def __getitem__(self, i):
        n = self._stop - self._start
        if isinstance(i, slice):
            start, stop, step = i.indices(n)
            return [self._log[self._start + j] for j in range(start, stop, step)]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return self._log[self._start + i]


class _MethodState:
    """Everything one method accumulates during the shared pass."""

    __slots__ = (
        "method", "k", "assignment", "series", "events",
        "static_cut", "total_moves", "last_repartition_ts", "period_start",
        "shard_arr",
    )

    def __init__(self, method: PartitionMethod, first_ts: float):
        self.method = method
        self.k = method.k
        self.assignment = ShardAssignment(method.k)
        self.series = MetricSeries(method=method.name, k=method.k)
        self.events: List[RepartitionEvent] = []
        self.static_cut = 0
        self.total_moves = 0
        self.last_repartition_ts = first_ts
        # index into the shared log where this method's current
        # repartition period begins
        self.period_start = 0
        # the assignment mirrored as a dense-index array (shard of the
        # vertex with dense index i) — the accounting kernels' input
        self.shard_arr = array("i")

    def result(self) -> ReplayResult:
        return ReplayResult(
            method=self.method.name,
            k=self.k,
            series=self.series,
            assignment=self.assignment,
            events=self.events,
        )


class MultiReplayEngine:
    """Replays an interaction log through many methods in one pass."""

    def __init__(
        self,
        interactions: Union[Sequence[Interaction], ColumnarLog],
        methods: Sequence[PartitionMethod],
        metric_window: float = METRIC_WINDOW,
        end_ts: Optional[float] = None,
    ):
        """Args:
            interactions: the full, time-ordered interaction log — a
                plain sequence or a :class:`ColumnarLog`.
            methods: the partitioning methods under study.  Must be
                distinct instances (each carries its own RNG and
                repartitioning state); methods may use different ``k``.
            metric_window: sampling window width in seconds (paper: 4h).
            end_ts: replay horizon; defaults to one second past the
                last interaction (the final-partial-window contract).
        """
        if metric_window <= 0:
            raise ValueError("metric_window must be positive")
        if len(set(map(id, methods))) != len(methods):
            raise ValueError("methods must be distinct instances")
        self.log = log = as_columnar(interactions)
        n = len(log)
        self.methods = list(methods)
        self.metric_window = metric_window
        self._first_ts = log.first_timestamp if n else 0.0
        if end_ts is None:
            # one full second past the last interaction: a naive +epsilon
            # is absorbed by float rounding at multi-year timestamps and
            # silently drops the final window
            end_ts = (log.last_timestamp + 1.0) if n else 0.0
        self.end_ts = end_ts

    # ------------------------------------------------------------------

    def run(self) -> List[ReplayResult]:
        """One pass over the log; results in ``methods`` order."""
        log = self.log
        n_log = len(log)
        metric_window = self.metric_window
        end_ts = self.end_ts

        # batch-kernel inputs: the raw dense columns and the shared
        # stream state (per-vertex activity weights, distinct-edge set)
        kr = kernels.active()
        stream = StreamState()
        vertex_weight = stream.vertex_weight
        src_col = log.src_indices()
        dst_col = log.dst_indices()
        tx_col = log.tx_ids()
        vertex_id = log.vertex_id

        for m in self.methods:
            m.begin_replay()
        states = [_MethodState(m, self._first_ts) for m in self.methods]
        distinct_edges = 0

        idx = 0
        window_start = self._first_ts if n_log else 0.0

        while window_start < end_ts:
            window_end = window_start + metric_window
            lo = idx
            idx = max(log.index_at(window_end), lo)

            # shared pass: one kernel call folds the window's activity
            # weights, finds never-seen-before edges and buckets the
            # first-seen vertices per transaction
            batch = kr.window_pass(src_col, dst_col, tx_col, lo, idx, stream)
            # static cut counts distinct *directed* edges, per the
            # paper's directed-graph formulation
            distinct_edges += len(batch.new_edges)
            stream.record_new_edges(batch.new_edges)

            # placement inputs, shared across methods: the raw endpoint
            # appearance list of each transaction bucket that introduced
            # at least one first-seen vertex (all other buckets skip the
            # placement loop entirely).  The buckets' new vertices, in
            # order, are the window's new dense indices.
            new_pairs: List = []
            group_inputs: List = []
            for g_lo, g_hi, new_dense in batch.placement_groups:
                endpoints: List[int] = []
                append_endpoint = endpoints.append
                for i in range(g_lo, g_hi):
                    append_endpoint(vertex_id(src_col[i]))
                    append_endpoint(vertex_id(dst_col[i]))
                new_raws = [vertex_id(d) for d in new_dense]
                new_pairs.extend(zip(new_dense, new_raws))
                group_inputs.append((new_raws, endpoints))

            window_rows = idx - lo
            window_view = _LogView(log, lo, idx)

            # fan-out: placement, accounting and the window close for
            # each method.  Placement first, bulk accounting second —
            # equivalent to an interleaved per-row walk because
            # placement rules read only the shard map and vertex counts,
            # never the activity weights accounting mutates.
            for st in states:
                method = st.method
                assignment = st.assignment
                k = st.k
                shard_map = assignment._map
                shard_arr = st.shard_arr
                if new_pairs:
                    shard_arr.extend([-1] * len(new_pairs))
                    place_new = method.place_new_vertices
                    for new_raws, endpoints in group_inputs:
                        place_new(new_raws, endpoints, assignment)
                    for dense, raw in new_pairs:
                        shard_arr[dense] = shard_map[raw]

                wcut, wtotal, load, weight_delta, static_delta = (
                    kr.account_window(src_col, dst_col, lo, idx,
                                      batch.new_edges, shard_arr, k))
                shard_weights = assignment._weights
                for shard in range(k):
                    shard_weights[shard] += weight_delta[shard]
                st.static_cut += static_delta

                # window close: metrics, repartition offer, series point
                dyn_cut = wcut / wtotal if wtotal else 0.0
                load_total = sum(load)
                dyn_balance = (
                    (max(load) * k / load_total) if load_total else 1.0
                )

                ctx = ReplayContext(
                    now=window_end,
                    k=k,
                    assignment=assignment,
                    window_interactions=window_view,
                    period_interactions=_LogView(log, st.period_start, idx),
                    last_repartition_ts=st.last_repartition_ts,
                    window_dynamic_edge_cut=dyn_cut,
                    window_dynamic_balance=dyn_balance,
                    rng=method.rng,
                    columnar_log=log,
                    log_hi=idx,
                    log_period_start=st.period_start,
                )
                proposal = method.maybe_repartition(ctx)
                if proposal is not None:
                    index_of = log._index()
                    moves = apply_proposal(
                        proposal, assignment, index_of, vertex_weight)
                    st.total_moves += moves
                    # resync the dense mirror for moved vertices, then
                    # recount the static cut over the accumulated
                    # distinct-edge arrays
                    n_streamed = len(shard_arr)
                    for raw in proposal:
                        dense = index_of.get(raw)
                        if dense is not None and dense < n_streamed:
                            shard_arr[dense] = shard_map[raw]
                    st.static_cut = kr.static_cut_count(
                        stream.esrc, stream.edst, shard_arr)
                    st.period_start = idx
                    st.last_repartition_ts = window_end
                    st.events.append(
                        RepartitionEvent(
                            ts=window_end,
                            moves=moves,
                            reassigned=len(proposal),
                            reason=method.name,
                        )
                    )

                st.series.append(
                    MetricPoint(
                        ts=window_start,
                        static_edge_cut=(
                            (st.static_cut / distinct_edges) if distinct_edges else 0.0
                        ),
                        dynamic_edge_cut=dyn_cut,
                        static_balance=assignment.static_balance(),
                        dynamic_balance=dyn_balance,
                        cumulative_moves=st.total_moves,
                        interactions=window_rows,
                    )
                )

            window_start = window_end

        return [st.result() for st in states]


def replay_methods(
    interactions: Union[Sequence[Interaction], ColumnarLog],
    methods: Sequence[PartitionMethod],
    metric_window: float = METRIC_WINDOW,
) -> List[ReplayResult]:
    """Convenience one-call multi-method replay (results in input order)."""
    return MultiReplayEngine(interactions, methods, metric_window=metric_window).run()
