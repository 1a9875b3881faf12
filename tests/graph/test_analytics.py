"""Tests for graph/trace analytics."""

import math

import pytest

from repro.graph.analytics import (
    compute_window_stats,
    render_window_stats,
    DegreeStats,
    compute_trace_stats,
    degree_distribution,
    powerlaw_tail_exponent,
    render_trace_stats,
)
from repro.graph.builder import Interaction, build_graph


class TestDegreeStats:
    def test_uniform_distribution(self):
        stats = DegreeStats.from_values([5] * 100)
        assert stats.gini == pytest.approx(0.0, abs=1e-9)
        assert stats.median == 5
        assert stats.mean == 5

    def test_concentrated_distribution(self):
        stats = DegreeStats.from_values([0] * 99 + [100])
        assert stats.gini > 0.9
        assert stats.top1pct_share == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DegreeStats.from_values([])

    def test_percentiles(self):
        stats = DegreeStats.from_values(list(range(1, 101)))
        assert stats.minimum == 1
        assert stats.maximum == 100
        assert stats.p99 == pytest.approx(99, abs=1)

    def test_gini_monotone_in_skew(self):
        even = DegreeStats.from_values([10, 10, 10, 10])
        skewed = DegreeStats.from_values([1, 1, 1, 37])
        assert skewed.gini > even.gini


class TestPowerlawExponent:
    def test_known_exponent_recovered(self):
        import random

        rng = random.Random(7)
        # sample from a discrete power law with alpha ~ 2.5 via inverse CDF
        alpha = 2.5
        samples = [
            max(2, int(2 * (1 - rng.random()) ** (-1 / (alpha - 1))))
            for _ in range(20000)
        ]
        est = powerlaw_tail_exponent(samples, xmin=2)
        assert 2.2 < est < 2.8

    def test_insufficient_tail_nan(self):
        assert math.isnan(powerlaw_tail_exponent([1, 1, 1], xmin=2))


class TestTraceStats:
    def make_log(self):
        return [
            Interaction(0.0, 1, 2, tx_id=0),
            Interaction(1.0, 1, 2, tx_id=1),
            Interaction(1.0, 2, 3, tx_id=1),
            Interaction(86400.0, 3, 3, tx_id=2),
        ]

    def test_counts(self):
        log = self.make_log()
        stats = compute_trace_stats(build_graph(log), log)
        assert stats.interactions == 4
        assert stats.transactions == 3
        assert stats.vertices == 3
        assert stats.self_loop_ratio == pytest.approx(0.25)
        assert stats.span_days == pytest.approx(1.0)

    def test_render(self):
        log = self.make_log()
        out = render_trace_stats(compute_trace_stats(build_graph(log), log))
        assert "interactions" in out
        assert "calls/tx" in out

    def test_workload_is_heavy_tailed(self, small_workload):
        graph = build_graph(small_workload.log)
        stats = compute_trace_stats(graph, small_workload.log)
        assert stats.degree.gini > 0.3
        assert stats.degree.top1pct_share > 0.10
        assert stats.calls_per_tx.maximum >= 3
        exponent = powerlaw_tail_exponent(degree_distribution(graph))
        assert 1.5 < exponent < 4.0  # plausible power-law band


class TestWindowStats:
    def make_columnar(self):
        from repro.graph.columnar import ColumnarLog

        return ColumnarLog([
            Interaction(0.0, 1, 2, tx_id=0),
            Interaction(10.0, 2, 3, tx_id=1),
            Interaction(95.0, 1, 4, tx_id=2),
            Interaction(205.0, 5, 1, tx_id=3),
        ])

    def test_counts_and_vertex_growth(self):
        windows = compute_window_stats(self.make_columnar(), 100.0)
        assert [w.interactions for w in windows] == [3, 0, 1]
        assert [w.distinct_vertices for w in windows] == [4, 4, 5]
        assert [w.new_vertices for w in windows] == [4, 0, 1]
        assert [w.start_ts for w in windows] == [0.0, 100.0, 200.0]

    def test_empty_log(self):
        from repro.graph.columnar import ColumnarLog

        assert compute_window_stats(ColumnarLog(), 100.0) == []

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            compute_window_stats(self.make_columnar(), 0.0)

    def test_render_elides_empty_runs(self):
        windows = compute_window_stats(self.make_columnar(), 10.0)
        out = render_window_stats(windows, 10.0)
        assert "empty window(s) elided" in out
        assert "per-window activity" in out

    def test_identical_on_v2_and_v3_sourced_columns(self, tmp_path):
        """The windowed scan runs on the ``max_index`` batch kernel;
        its output must not depend on which on-disk trace version the
        columns were loaded from, nor on the kernel backend."""
        from repro import kernels
        from repro.graph.io import load_columnar, write_columnar

        log = self.make_columnar()
        v2, v3 = tmp_path / "t2.rct", tmp_path / "t3.rct"
        write_columnar(log, v2, version=2)
        write_columnar(log, v3, version=3)
        expected = compute_window_stats(log, 100.0)
        for backend in kernels.available_backends():
            with kernels.using_backend(backend):
                assert compute_window_stats(load_columnar(v2), 100.0) == expected
                assert compute_window_stats(load_columnar(v3), 100.0) == expected


class TestWindowStatsGuards:
    def test_sub_resolution_window_rejected_not_hung(self):
        """A window below float resolution at the log's timestamp
        magnitude must raise, not spin forever."""
        from repro.graph.columnar import ColumnarLog

        log = ColumnarLog([
            Interaction(1e9, 1, 2, tx_id=0),
            Interaction(1e9 + 1.0, 2, 3, tx_id=1),
        ])
        with pytest.raises(ValueError, match="too small to advance"):
            compute_window_stats(log, 1e-13)

    def test_non_finite_span_rejected(self):
        from repro.graph.columnar import ColumnarLog

        log = ColumnarLog([
            Interaction(0.0, 1, 2, tx_id=0),
            Interaction(float("inf"), 2, 3, tx_id=1),
        ])
        with pytest.raises(ValueError, match="must be finite"):
            compute_window_stats(log, 100.0)


class TestWindowStatsEdgeCases:
    """The satellite grid: empty, single-row, window > span, and
    v3-trace-backed mmap columns must all resolve identically."""

    def test_empty_log_yields_no_windows(self):
        from repro.graph.columnar import ColumnarLog

        assert compute_window_stats(ColumnarLog(), 3600.0) == []

    def test_single_row_log_is_one_window(self):
        from repro.graph.columnar import ColumnarLog

        log = ColumnarLog([Interaction(12.5, 7, 9, tx_id=0)])
        windows = compute_window_stats(log, 3600.0)
        assert len(windows) == 1
        (w,) = windows
        assert w.start_ts == 12.5
        assert w.interactions == 1
        assert w.distinct_vertices == 2
        assert w.new_vertices == 2

    def test_window_larger_than_whole_span(self):
        from repro.graph.columnar import ColumnarLog

        log = ColumnarLog([
            Interaction(0.0, 1, 2, tx_id=0),
            Interaction(50.0, 2, 3, tx_id=1),
            Interaction(99.0, 3, 1, tx_id=2),
        ])
        windows = compute_window_stats(log, 1e6)
        assert len(windows) == 1
        assert windows[0].interactions == 3
        assert windows[0].distinct_vertices == 3

    def test_v3_mmap_columns_match_builder_columns(self, tmp_path):
        """Stats over a v3-sourced (decoded/mmap-backed) log are
        identical to stats over the builder-path log."""
        from repro.graph.columnar import ColumnarLog
        from repro.graph.io import load_columnar, write_columnar

        log = ColumnarLog([
            Interaction(float(i) * 10.0, i % 5, (i * 3) % 7, tx_id=i)
            for i in range(40)
        ])
        path = tmp_path / "t.rct"
        write_columnar(log, path, version=3)
        loaded = load_columnar(path)
        assert not loaded.is_writable
        assert (compute_window_stats(loaded, 60.0)
                == compute_window_stats(log, 60.0))
        # the same trace downgraded to v2 exercises the raw-mmap casts
        v2 = tmp_path / "t2.rct"
        write_columnar(log, v2, version=2)
        assert (compute_window_stats(load_columnar(v2), 60.0)
                == compute_window_stats(log, 60.0))
