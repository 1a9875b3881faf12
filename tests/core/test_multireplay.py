"""Tests for the single-pass multi-method replay engine.

The load-bearing property: fanning N methods out of one shared log
stream must be *bit-identical* to N independent single-method replays.
"""

import pytest

from repro.core.base import PartitionMethod
from repro.core.multireplay import MultiReplayEngine, replay_methods
from repro.core.registry import make_method
from repro.core.replay import ReplayEngine
from repro.graph.builder import Interaction, build_graph
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import HOUR

ALL_METHODS = ["hash", "kl", "metis", "p-metis", "tr-metis", "fennel"]


def log_of(pairs, step=1.0, per_tx=1):
    out = []
    for i, (src, dst) in enumerate(pairs):
        out.append(
            Interaction(timestamp=i * step, src=src, dst=dst, tx_id=i // per_tx)
        )
    return out


class StaticMethod(PartitionMethod):  # reprolint: disable=RL008 -- test-local fixture method, never spec-reachable
    name = "static-test"

    def place_vertex(self, vertex, tx_endpoints, assignment):
        return vertex % self.k

    def maybe_repartition(self, ctx):
        return None


class RepartitionAfter(PartitionMethod):  # reprolint: disable=RL008 -- test-local fixture method, never spec-reachable
    """Fires a fixed proposal at the first window closing after ``after``."""

    name = "after-test"

    def __init__(self, k, after, proposal, seed=0):
        super().__init__(k, seed)
        self.after = after
        self.proposal = proposal
        self.fired_at = None

    def place_vertex(self, vertex, tx_endpoints, assignment):
        return vertex % self.k

    def maybe_repartition(self, ctx):
        if self.fired_at is None and ctx.now > self.after:
            self.fired_at = ctx.now
            return self.proposal
        return None


def assert_results_identical(single, multi):
    assert single.method == multi.method
    assert single.k == multi.k
    assert single.series.points == multi.series.points
    assert single.events == multi.events
    assert single.assignment.as_dict() == multi.assignment.as_dict()
    assert single.assignment.counts == multi.assignment.counts
    assert single.assignment.weights == multi.assignment.weights


class TestEquivalence:
    def test_all_deterministic_methods_match_single_runs(self, tiny_workload):
        """MultiReplayEngine == N x ReplayEngine for the full method set."""
        log = tiny_workload.builder.log
        mw = 24 * HOUR
        singles = [
            ReplayEngine(log, make_method(n, 4, seed=1), metric_window=mw).run()
            for n in ALL_METHODS
        ]
        multi = MultiReplayEngine(
            log, [make_method(n, 4, seed=1) for n in ALL_METHODS], metric_window=mw
        ).run()
        assert len(multi) == len(ALL_METHODS)
        for s, m in zip(singles, multi):
            assert_results_identical(s, m)

    def test_scripted_repartition_matches_single_run(self):
        """Fan-out stays identical through a late (final-window) repartition."""
        log = log_of([(1, 2), (3, 4), (5, 6), (7, 8)], step=1.0)

        def methods():
            # one method repartitions in the final partial window, one
            # mid-replay, one never — all fanned out of the same pass
            return [
                RepartitionAfter(2, after=3.5, proposal={1: 0, 3: 0}),
                RepartitionAfter(2, after=1.5, proposal={5: 1}),
                StaticMethod(2),
            ]

        singles = [
            ReplayEngine(log, m, metric_window=2.0).run() for m in methods()
        ]
        multi = MultiReplayEngine(log, methods(), metric_window=2.0).run()
        for s, m in zip(singles, multi):
            assert_results_identical(s, m)
        late = multi[0]
        assert len(late.events) == 1
        assert late.events[0].ts == pytest.approx(4.0)  # final window close
        assert late.total_moves == 2

    def test_mixed_shard_counts_in_one_pass(self, tiny_workload):
        log = tiny_workload.builder.log
        mw = 24 * HOUR
        specs = [("hash", 2), ("hash", 8), ("tr-metis", 2), ("tr-metis", 8)]
        singles = [
            ReplayEngine(log, make_method(n, k, seed=1), metric_window=mw).run()
            for n, k in specs
        ]
        multi = MultiReplayEngine(
            log, [make_method(n, k, seed=1) for n, k in specs], metric_window=mw
        ).run()
        for s, m in zip(singles, multi):
            assert_results_identical(s, m)

    def test_columnar_log_input_matches_list_input(self, tiny_workload):
        log = tiny_workload.builder.log
        mw = 24 * HOUR
        from_list = MultiReplayEngine(
            log, [make_method("tr-metis", 4, seed=1)], metric_window=mw
        ).run()
        from_columnar = MultiReplayEngine(
            ColumnarLog(log), [make_method("tr-metis", 4, seed=1)], metric_window=mw
        ).run()
        for s, m in zip(from_list, from_columnar):
            assert_results_identical(s, m)

    def test_weight_caches_consistent_with_graph(self, tiny_workload):
        graph = build_graph(tiny_workload.builder.log)
        for result in replay_methods(
            tiny_workload.builder.log,
            [make_method(n, 4, seed=1) for n in ("hash", "tr-metis")],
            metric_window=24 * HOUR,
        ):
            result.assignment.validate(graph)


class TestEngineContract:
    def test_empty_log(self):
        results = MultiReplayEngine([], [StaticMethod(2)], metric_window=10.0).run()
        assert len(results) == 1
        assert len(results[0].series) == 0
        assert results[0].total_moves == 0

    def test_no_methods(self):
        assert MultiReplayEngine(log_of([(1, 2)]), [], metric_window=10.0).run() == []

    def test_duplicate_method_instances_rejected(self):
        m = StaticMethod(2)
        with pytest.raises(ValueError):
            MultiReplayEngine(log_of([(1, 2)]), [m, m], metric_window=10.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            MultiReplayEngine([], [StaticMethod(2)], metric_window=0.0)

    def test_methods_see_identical_shared_inputs(self):
        """Window/period sequences handed to methods match the log order."""
        seen = {}

        class Recorder(StaticMethod):
            def __init__(self, k, tag):
                super().__init__(k)
                self.tag = tag

            def maybe_repartition(self, ctx):
                seen.setdefault(self.tag, []).append(
                    (list(ctx.window_interactions), list(ctx.period_interactions))
                )
                return None

        log = log_of([(1, 2), (3, 4), (5, 6)], step=1.0)
        MultiReplayEngine(
            log, [Recorder(2, "a"), Recorder(3, "b")], metric_window=2.0
        ).run()
        assert seen["a"] == seen["b"]
        windows, periods = zip(*seen["a"])
        assert [len(w) for w in windows] == [2, 1]
        assert periods[-1] == log  # period buffer accumulates the whole log
