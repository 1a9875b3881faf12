"""Method 3 — periodic full-graph METIS (§II-C).

Every ``period`` (two weeks in the paper), partition the *entire
cumulative graph* with the multilevel partitioner, edge weights set to
interaction counts and vertex weights to activity counts ("we aim to
reduce dynamic edge-cuts by assigning weights to the edges").

The pitfall the paper documents: METIS balances *vertex weight* but
after the 2016 attack most vertices are dead dummies, so one shard ends
up with nearly all the *live* vertices — dynamic balance ≈ k.  METIS
also freely relabels shards between runs ("it is not part of METIS
objectives to minimize the number of vertices that change shard"), so
raw move counts are huge; we deliberately do **not** align shard labels
between runs, to reproduce that behaviour honestly.

Warm mode (``warm=True``, off by default) is this reproduction's
incremental extension: the cumulative graph is accumulated
incrementally from the replayed log's dense indices
(:class:`~repro.metis.graph.ColumnarCSRBuilder`) and each repartition
warm-starts from the previous run's assignment
(``part_graph(warm_start=...)``), with a
:class:`~repro.metis.coarsen.LadderCache` amortising any cold restarts.
Note the shard-relabeling caveat: because a warm run *inherits* the
previous labels, its move counts are structurally small — it sidesteps
the relabeling pitfall the paper documents for cold METIS, so warm and
cold move counts are not comparable.  Warm mode therefore defaults off;
the paper figures use the cold path.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.base import PartitionMethod, ReplayContext
from repro.graph.snapshot import REPARTITION_PERIOD
from repro.metis import ColumnarCSRBuilder, LadderCache, part_graph


class MetisPartitioner(PartitionMethod):
    name = "metis"

    def __init__(
        self,
        k: int,
        seed: int = 0,
        period: float = REPARTITION_PERIOD,
        ubfactor: float = 1.05,
        ntrials: int = 4,
        warm: bool = False,
        warm_growth_threshold: float = 0.5,
    ):
        """Args:
            warm: enable warm-started incremental repartitioning.  Off
                by default — see the module docstring's shard-relabeling
                caveat.
            warm_growth_threshold: fall back to a cold multilevel run
                when more than this fraction of vertices are new since
                the previous repartitioning.
        """
        super().__init__(k, seed)
        self.period = period
        self.ubfactor = ubfactor
        self.ntrials = ntrials
        self.warm = warm
        self.warm_growth_threshold = warm_growth_threshold
        self._run = 0
        self._builder: Optional[ColumnarCSRBuilder] = None
        self._ladder_cache = LadderCache()
        self._prev_assignment: Optional[Dict[int, int]] = None

    def begin_replay(self) -> None:
        """Drop all warm state so a reused instance never warm-starts
        one replay from another's builder/cache/assignment, and rewind
        the run counter so every replay derives the same part_graph
        seed sequence (no-op for a fresh instance)."""
        self._run = 0
        self._builder = None
        self._ladder_cache = LadderCache()
        self._prev_assignment = None

    def maybe_repartition(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        if ctx.elapsed_since_repartition < self.period:
            return None
        if self.warm:
            return self._repartition_warm(ctx)
        csr = ctx.log_csr(0, unit_vertex_weights=True)
        if csr.num_vertices < self.k:
            return None
        self._run += 1
        result = part_graph(
            csr,
            self.k,
            seed=self.seed * 10_007 + self._run,
            ubfactor=self.ubfactor,
            ntrials=self.ntrials,
        )
        return result.assignment

    def _repartition_warm(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        log = ctx.columnar_log
        if (
            self._builder is None
            or self._builder.log is not log
            or ctx.log_hi < self._builder.rows_consumed
        ):
            # first repartition of this replay, or (defensively) state
            # that cannot belong to this run: a different log object,
            # or a row bound behind what was already consumed.  The
            # authoritative cross-replay reset is begin_replay() — this
            # guard only protects direct maybe_repartition() callers.
            self._builder = ColumnarCSRBuilder(log)
            self._ladder_cache = LadderCache()
            self._prev_assignment = None
        self._builder.advance(ctx.log_hi)
        if self._builder.num_vertices < self.k:
            return None
        csr = self._builder.snapshot(vertex_weights="unit")
        self._run += 1
        result = part_graph(
            csr,
            self.k,
            seed=self.seed * 10_007 + self._run,
            ubfactor=self.ubfactor,
            ntrials=self.ntrials,
            warm_start=self._prev_assignment,
            warm_cache=self._ladder_cache,
            warm_growth_threshold=self.warm_growth_threshold,
        )
        self._prev_assignment = result.assignment
        return result.assignment
