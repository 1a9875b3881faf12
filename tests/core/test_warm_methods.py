"""Warm-mode METIS methods through the replay engine.

The engine contracts:

* a plain-list replay is interned into a ColumnarLog up front, so it
  produces results bit-identical to a ColumnarLog-backed replay, with
  warm mode disabled (the default) and enabled alike;
* with warm mode enabled, repartitionings still happen on the paper
  cadence, proposals cover the cumulative (METIS) or window (R-METIS)
  vertex set, and the inherited-labels property shows up as far fewer
  moves than the cold run.
"""

import random

import pytest

from ctx_helpers import make_ctx

from repro.core.metis_method import MetisPartitioner
from repro.core.multireplay import MultiReplayEngine
from repro.core.rmetis import RMetisPartitioner
from repro.core.trmetis import TRMetisPartitioner
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import DAY

K = 2


def community_log(days=120, per_day=12, n_each=20, seed=0):
    """Two drifting communities, enough days for several periods."""
    rng = random.Random(seed)
    its = []
    tx = 0
    for d in range(days):
        for j in range(per_day):
            ts = d * DAY + j * 60.0
            c = rng.randrange(2)
            base = 0 if c == 0 else 100
            u = base + rng.randrange(n_each)
            v = base + rng.randrange(n_each)
            if rng.random() < 0.05:
                v = (100 - base) + rng.randrange(n_each)
            its.append(Interaction(ts, u, v, tx_id=tx))
            tx += 1
    return its


@pytest.fixture(scope="module")
def log():
    return community_log()


class TestColdEquivalence:
    @pytest.mark.parametrize("factory", [
        lambda: MetisPartitioner(K, seed=1),
        lambda: RMetisPartitioner(K, seed=1),
        lambda: TRMetisPartitioner(K, seed=1, consecutive=1, cooldown=7 * DAY),
    ])
    def test_columnar_replay_identical_to_list_replay(self, log, factory):
        """Satellite contract: warm disabled ⇒ the ColumnarLog path is
        bit-identical to the plain-sequence path."""
        mw = 24 * 3600.0
        via_list = MultiReplayEngine(list(log), [factory()], metric_window=mw).run()[0]
        via_clog = MultiReplayEngine(
            ColumnarLog(log), [factory()], metric_window=mw
        ).run()[0]
        assert via_list.series.points == via_clog.series.points
        assert via_list.events == via_clog.events
        assert via_list.assignment.as_dict() == via_clog.assignment.as_dict()

    def test_warm_list_input_matches_columnar_input(self, log):
        """warm=True on a plain list replay runs warm: a list and its
        ColumnarLog give identical results."""
        def methods():
            return [
                MetisPartitioner(K, seed=1, warm=True),
                RMetisPartitioner(K, seed=1, warm=True),
                TRMetisPartitioner(K, seed=1, consecutive=1, cooldown=7 * DAY,
                                   warm=True),
            ]

        mw = 24 * 3600.0
        via_list = MultiReplayEngine(list(log), methods(), metric_window=mw).run()
        via_clog = MultiReplayEngine(ColumnarLog(log), methods(), metric_window=mw).run()
        for a, b in zip(via_list, via_clog):
            assert a.events
            assert a.series.points == b.series.points
            assert a.events == b.events
            assert a.assignment.as_dict() == b.assignment.as_dict()


class TestWarmMetis:
    def test_warm_repartitions_and_covers_graph(self, log):
        mw = 24 * 3600.0
        clog = ColumnarLog(log)
        res = MultiReplayEngine(
            clog, [MetisPartitioner(K, seed=1, warm=True)], metric_window=mw
        ).run()[0]
        assert len(res.events) >= 3
        # the final assignment covers every vertex of the cumulative graph
        assert set(res.assignment.vertices()) == set(clog.vertex_ids())
        for p in res.series.points:
            assert p.static_balance >= 1.0

    def test_warm_moves_far_fewer_vertices(self, log):
        """Warm starts inherit labels, cold runs relabel freely — the
        shard-relabeling pitfall the paper documents shows up as a large
        move-count gap."""
        mw = 24 * 3600.0
        cold = MultiReplayEngine(
            ColumnarLog(log), [MetisPartitioner(K, seed=1)], metric_window=mw
        ).run()[0]
        warm = MultiReplayEngine(
            ColumnarLog(log), [MetisPartitioner(K, seed=1, warm=True)], metric_window=mw
        ).run()[0]
        assert len(warm.events) == len(cold.events)
        assert warm.total_moves < cold.total_moves

    @pytest.mark.parametrize("warm", [False, True])
    def test_reused_instance_is_bit_identical_across_replays(self, log, warm):
        """Regression: begin_replay() must drop all per-replay state
        (warm builder/cache/previous assignment *and* the run counter
        feeding part_graph seeds), so replaying the same ColumnarLog
        object through a reused method instance reproduces the first
        run exactly — no 'cannot rewind' crash, no leaked warm start,
        no drifted seed sequence."""
        mw = 24 * 3600.0
        clog = ColumnarLog(log)
        m = MetisPartitioner(K, seed=1, warm=warm)
        first = MultiReplayEngine(clog, [m], metric_window=mw).run()[0]
        second = MultiReplayEngine(clog, [m], metric_window=mw).run()[0]
        assert first.series.points == second.series.points
        assert first.events == second.events
        assert first.assignment.as_dict() == second.assignment.as_dict()

    def test_reused_instance_across_different_windows(self, log):
        """The leak case the row-bound guard alone cannot catch: the
        second replay's first repartition may land *beyond* the rows the
        first replay consumed.  begin_replay() must still reset, making
        the reused instance match a fresh one bit-for-bit."""
        clog = ColumnarLog(log)
        m = MetisPartitioner(K, seed=1, warm=True)
        MultiReplayEngine(clog, [m], metric_window=24 * 3600.0).run()
        reused = MultiReplayEngine(clog, [m], metric_window=30 * 24 * 3600.0).run()[0]
        fresh = MultiReplayEngine(
            clog, [MetisPartitioner(K, seed=1, warm=True)],
            metric_window=30 * 24 * 3600.0,
        ).run()[0]
        assert reused.series.points == fresh.series.points
        assert reused.assignment.as_dict() == fresh.assignment.as_dict()


class TestWarmRMetis:
    def test_warm_covers_only_window_vertices(self):
        # sparse workload: windows touch only a fraction of the vertex
        # set, so a regression to cumulative-graph partitioning (e.g.
        # start=0 instead of the period start) is visible in reassigned
        log = community_log(days=120, per_day=4, n_each=60, seed=3)
        mw = 24 * 3600.0
        clog = ColumnarLog(log)
        cold = MultiReplayEngine(
            clog, [RMetisPartitioner(K, seed=1)], metric_window=mw
        ).run()[0]
        warm = MultiReplayEngine(
            clog, [RMetisPartitioner(K, seed=1, warm=True)], metric_window=mw
        ).run()[0]
        assert warm.events
        # reduced-graph semantics preserved: both paths repartition the
        # same period windows (window contents are method-independent),
        # so each warm event reassigns exactly the vertex set the cold
        # event did — and strictly less than the whole cumulative graph
        assert [e.ts for e in warm.events] == [e.ts for e in cold.events]
        assert [e.reassigned for e in warm.events] == [
            e.reassigned for e in cold.events
        ]
        n_total = len(set(v for it in log for v in (it.src, it.dst)))
        assert all(e.reassigned < n_total for e in warm.events)
        assert warm.total_moves <= cold.total_moves

    def test_warm_trmetis_runs(self, log):
        mw = 24 * 3600.0
        clog = ColumnarLog(log)
        res = MultiReplayEngine(
            clog,
            [TRMetisPartitioner(K, seed=1, consecutive=1, cooldown=7 * DAY, warm=True)],
            metric_window=mw,
        ).run()[0]
        assert set(res.assignment.vertices()) == set(clog.vertex_ids())
        for p in res.series.points:
            assert p.static_balance >= 1.0


class TestWarmDirectCalls:
    def test_warm_metis_covers_every_logged_vertex(self, log):
        m = MetisPartitioner(K, seed=1, warm=True)
        proposal = m.maybe_repartition(make_ctx(m, log, now=30 * DAY))
        assert set(proposal) == {v for it in log for v in (it.src, it.dst)}

    def test_warm_rmetis_covers_only_period_vertices(self, log):
        m = RMetisPartitioner(K, seed=1, warm=True)
        ctx = make_ctx(m, log[:40], now=30 * DAY)
        ctx.assignment.assign(999, 0)   # streamed before the period
        proposal = m.maybe_repartition(ctx)
        assert set(proposal) == {v for it in log[:40] for v in (it.src, it.dst)}
