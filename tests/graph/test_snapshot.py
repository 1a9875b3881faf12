"""Unit tests for the time constants and time windows over a log."""

import pytest

from repro.graph.analytics import compute_window_stats
from repro.graph.builder import Interaction, build_graph_columnar
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import (
    DAY,
    HOUR,
    METRIC_WINDOW,
    REPARTITION_PERIOD,
    WEEK,
)


def test_canonical_constants():
    assert METRIC_WINDOW == 4 * HOUR
    assert REPARTITION_PERIOD == 2 * WEEK
    assert WEEK == 7 * DAY


class TestWindowIndex:
    """The log as a time-window index: bisected spans, window graphs
    and per-window counts."""

    @pytest.fixture()
    def log(self):
        return ColumnarLog(
            Interaction(timestamp=float(i), src=i, dst=i + 1, tx_id=i)
            for i in range(20)
        )

    def test_span(self, log):
        assert log.first_timestamp == 0.0
        assert log.last_timestamp == 19.0

    def test_span_empty(self):
        log = ColumnarLog()
        assert log.first_timestamp == log.last_timestamp == float("-inf")
        assert compute_window_stats(log, 5.0) == []

    def test_windows_cover_span(self, log):
        ws = compute_window_stats(log, 5.0)
        assert ws[0].start_ts == 0.0
        assert ws[-1].start_ts + 5.0 > 19.0

    def test_graph_in_window(self, log):
        g = build_graph_columnar(log, log.index_at(5.0), log.index_at(10.0))
        assert g.num_edges == 5

    def test_cumulative_graph_until(self, log):
        g = build_graph_columnar(log, 0, log.index_at(10.0))
        assert g.num_edges == 10

    def test_per_window_counts_sum_to_total(self, log):
        ws = compute_window_stats(log, 6.0)
        assert sum(w.interactions for w in ws) == 20
