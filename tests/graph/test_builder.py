"""Unit tests for building graphs from interaction streams and logs."""

import pytest

from repro.graph.builder import (
    Interaction,
    build_graph,
    build_graph_columnar,
    group_by_transaction,
)
from repro.graph.columnar import ColumnarLog
from repro.graph.digraph import VertexKind


def mk(ts, src, dst, tx=0, src_kind=VertexKind.ACCOUNT, dst_kind=VertexKind.ACCOUNT):
    return Interaction(
        timestamp=ts, src=src, dst=dst, tx_id=tx, src_kind=src_kind, dst_kind=dst_kind
    )


class TestBuilder:
    """build_graph's weight conventions and the log's ordering contract."""

    def test_add_creates_vertices_and_edge(self):
        g = build_graph([mk(1.0, 1, 2)])
        assert 1 in g and 2 in g
        assert g.edge_weight(1, 2) == 1

    def test_edge_weight_is_interaction_count(self):
        g = build_graph(mk(float(i), 1, 2) for i in range(3))
        assert g.edge_weight(1, 2) == 3

    def test_vertex_weight_counts_participation(self):
        g = build_graph([mk(1.0, 1, 2), mk(2.0, 1, 3)])
        assert g.vertex_weight(1) == 2
        assert g.vertex_weight(2) == 1

    def test_self_interaction_counts_weight_once(self):
        g = build_graph([mk(1.0, 5, 5)])
        assert g.vertex_weight(5) == 1

    def test_out_of_order_rejected(self):
        log = ColumnarLog([mk(5.0, 1, 2)])
        with pytest.raises(ValueError, match="out-of-order"):
            log.append(mk(4.0, 2, 3))

    def test_equal_timestamps_allowed(self):
        log = ColumnarLog([mk(5.0, 1, 2)])
        log.append(mk(5.0, 2, 3))
        assert len(log) == 2

    def test_kinds_recorded(self):
        g = build_graph([mk(1.0, 1, 2, dst_kind=VertexKind.CONTRACT)])
        assert g.vertex_kind(2) is VertexKind.CONTRACT

    def test_first_seen_is_first_interaction_time(self):
        g = build_graph([mk(1.0, 1, 2), mk(9.0, 2, 1)])
        assert g.first_seen(1) == 1.0
        assert g.first_seen(2) == 1.0

    def test_add_many_returns_count(self):
        log = ColumnarLog()
        n = log.extend(mk(float(i), i, i + 1) for i in range(5))
        assert n == 5
        assert len(log) == 5

    def test_last_timestamp(self):
        log = ColumnarLog()
        assert log.last_timestamp == float("-inf")
        log.append(mk(3.0, 1, 2))
        assert log.last_timestamp == 3.0


class TestWindows:
    """Time windows of a log: bisected row ranges and their graphs."""

    @pytest.fixture()
    def log(self):
        return ColumnarLog(mk(float(i), i, i + 1, tx=i) for i in range(10))

    @staticmethod
    def window_graph(log, start, end):
        return build_graph_columnar(log, log.index_at(start), log.index_at(end))

    def test_interactions_between_half_open(self, log):
        got = log[log.index_at(2.0):log.index_at(5.0)]
        assert [it.timestamp for it in got] == [2.0, 3.0, 4.0]

    def test_interactions_between_empty(self, log):
        assert log[log.index_at(100.0):log.index_at(200.0)] == []

    def test_window_graph_only_window_edges(self, log):
        g = self.window_graph(log, 2.0, 4.0)
        assert g.num_edges == 2
        assert set(g.vertices()) == {2, 3, 4}

    def test_graph_as_of(self, log):
        g = build_graph_columnar(log, 0, log.index_at(3.0))
        assert g.num_edges == 3

    def test_window_graph_weights_restart(self, log):
        # cumulative weight of vertex 5 is 2 (as src and dst); in the
        # window [5, 6) it participates once as src and not as dst
        g = self.window_graph(log, 5.0, 6.0)
        assert g.vertex_weight(5) == 1


class TestGrouping:
    def test_group_by_transaction_contiguous(self):
        stream = [mk(1.0, 1, 2, tx=7), mk(1.0, 2, 3, tx=7), mk(2.0, 4, 5, tx=8)]
        groups = list(group_by_transaction(stream))
        assert [g[0] for g in groups] == [7, 8]
        assert len(groups[0][1]) == 2
        assert len(groups[1][1]) == 1

    def test_group_by_transaction_empty(self):
        assert list(group_by_transaction([])) == []

    def test_group_single(self):
        groups = list(group_by_transaction([mk(1.0, 1, 2, tx=3)]))
        assert groups == [(3, [mk(1.0, 1, 2, tx=3)])]


def test_build_graph_standalone():
    g = build_graph([mk(1.0, 1, 2), mk(2.0, 2, 3), mk(3.0, 1, 2)])
    assert g.num_vertices == 3
    assert g.edge_weight(1, 2) == 2
