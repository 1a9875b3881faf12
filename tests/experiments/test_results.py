"""CellResult / ResultSet: serialization round-trips and accessors."""

import dataclasses
import json

import pytest

from repro.core.base import RepartitionEvent
from repro.experiments import (
    CellKey,
    ExperimentSpec,
    MethodSpec,
    ResultSet,
    run_experiment,
)
from repro.metrics.series import MetricPoint
from repro.sharding.throughput import LatencyStats, ThroughputReport


@pytest.fixture(scope="module")
def spec():
    return ExperimentSpec(
        scale="tiny", workload_seed=42,
        methods=("hash", "metis", "tr-metis?cut_threshold=0.3"), ks=(2, 4),
    )


@pytest.fixture(scope="module")
def rs(spec, tiny_workload):
    return run_experiment(spec, workload=tiny_workload)


class TestRoundTrip:
    def test_loads_dumps_equality(self, rs):
        assert ResultSet.loads(rs.dumps()) == rs

    def test_round_trip_preserves_floats_exactly(self, rs):
        back = ResultSet.loads(rs.dumps())
        for key in rs.keys():
            assert back.cell(key).series.points == rs.cell(key).series.points

    def test_round_trip_preserves_int_vertex_ids(self, rs):
        back = ResultSet.loads(rs.dumps())
        for cell in back:
            assert all(isinstance(v, int) for v in cell.assignment)
            assert all(isinstance(s, int) for s in cell.assignment.values())

    def test_dumps_is_plain_json(self, rs):
        data = json.loads(rs.dumps())
        assert set(data) == {"spec", "cells"}
        assert len(data["cells"]) == len(rs)

    def test_parameterised_method_survives(self, rs):
        back = ResultSet.loads(rs.dumps())
        cell = back.get("tr-metis?cut_threshold=0.3", 2)
        assert dict(cell.key.method.params)["cut_threshold"] == 0.3


class TestAccessors:
    def test_get_by_string_or_spec(self, rs):
        by_str = rs.get("metis", 4)
        by_spec = rs.get(MethodSpec.parse("metis"), 4)
        assert by_str is by_spec

    def test_get_missing_raises_with_inventory(self, rs):
        with pytest.raises(KeyError, match="no result for"):
            rs.get("metis", 64)

    def test_iteration_follows_grid_order(self, rs, spec):
        assert [c.key for c in rs] == list(spec.cells())

    def test_mean_over_active_windows(self, rs):
        cell = rs.get("hash", 2)
        pts = [p for p in cell.series.points if p.interactions > 0]
        expect = sum(p.dynamic_edge_cut for p in pts) / len(pts)
        assert cell.mean("dynamic_edge_cut") == expect

    def test_to_assignment_rebuilds_counts_and_weights(self, rs):
        cell = rs.get("metis", 2)
        a = cell.to_assignment()
        assert a.as_dict() == cell.assignment
        assert a.weights == cell.shard_weights
        a.validate()

    def test_to_replay_result_bridge(self, rs):
        cell = rs.get("metis", 2)
        replay = cell.to_replay_result()
        assert replay.series is cell.series
        assert replay.total_moves == cell.total_moves
        assert replay.graph is None

    def test_live_replays_not_part_of_equality(self, rs):
        back = ResultSet.loads(rs.dumps())
        assert back == rs
        assert rs.replay(rs.keys()[0]) is not None      # computed in-process
        assert back.replay(back.keys()[0]) is None      # deserialized

    def test_merged_with(self, spec, rs, tiny_workload):
        key = CellKey(MethodSpec.parse("hash"), 2, 1)
        partial = run_experiment(spec, workload=tiny_workload, only=[key])
        merged = partial.merged_with(rs)
        assert len(merged) == len(rs)
        assert merged == rs


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


class TestFieldByFieldSerialization:
    """``to_dict`` writes each dataclass out field by field: a field
    added to one of them must appear in the JSON, in declaration order,
    and the bytes must stay those ``dataclasses.asdict`` produced."""

    @pytest.fixture(scope="class")
    def cell(self, rs):
        cell = dataclasses.replace(rs.get("metis", 2))
        cell.execution = ThroughputReport(
            k=2, completed=3, single_shard=2, multi_shard=1, elapsed=0.5,
            throughput=6.0, latency=LatencyStats.from_samples([0.1, 0.2, 0.4]),
            utilization=(0.25, 0.75), migrations=1, migration_bytes=64,
            unassigned_endpoints=0,
        )
        assert cell.series.points and cell.events
        return cell

    def test_metric_point_keys(self, cell):
        for point in cell.to_dict()["series"]["points"]:
            assert list(point) == field_names(MetricPoint)

    def test_repartition_event_keys(self, cell):
        for event in cell.to_dict()["events"]:
            assert list(event) == field_names(RepartitionEvent)

    def test_execution_keys(self, cell):
        execution = cell.to_dict()["execution"]
        assert list(execution) == field_names(ThroughputReport)
        assert list(execution["latency"]) == field_names(LatencyStats)

    def test_bytes_match_asdict(self, cell):
        data = cell.to_dict()
        assert json.dumps(data["series"]["points"]) == json.dumps(
            [dataclasses.asdict(p) for p in cell.series.points])
        assert json.dumps(data["events"]) == json.dumps(
            [dataclasses.asdict(e) for e in cell.events])
        assert json.dumps(data["execution"]["latency"]) == json.dumps(
            dataclasses.asdict(cell.execution.latency))
