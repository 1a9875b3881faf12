"""Serializable experiment results.

A :class:`CellResult` is the durable projection of one replay: the
metric series, the repartition events, the final vertex → shard map and
the per-shard activity weights — everything the figures, the sharded
simulator and the paper's tables consume, without the cumulative graph
(which is shared, large, and reproducible from the workload).

A :class:`ResultSet` maps a grid of
:class:`~repro.experiments.spec.CellKey` cells to their results, knows
the :class:`~repro.experiments.spec.ExperimentSpec` that produced it,
and round-trips through JSON: ``ResultSet.loads(rs.dumps()) == rs``.

Execution-enabled specs (:class:`ExperimentSpec` with an
:class:`~repro.experiments.spec.ExecutionSpec`) add an ``execution``
block to each serialized cell — the
:class:`~repro.sharding.throughput.ThroughputReport` of replaying the
cell's final assignment through the sharded executor (throughput,
latency percentiles, utilization, migrations; full schema in
``docs/execution.md``).  Plain cells serialize exactly as before; the
key is simply absent.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.assignment import ShardAssignment
from repro.core.base import RepartitionEvent
from repro.core.replay import ReplayResult
from repro.experiments.spec import CellKey, ExperimentSpec, MethodSpec
from repro.metrics.series import MetricPoint, MetricSeries
from repro.sharding.throughput import ThroughputReport


@dataclasses.dataclass
class CellResult:
    """One (method, k, seed) replay, in serializable form.

    ``execution`` is present only when the spec carried an
    :class:`~repro.experiments.spec.ExecutionSpec`: the throughput
    report of replaying the log through the sharded executor under
    this cell's final assignment.
    """

    key: CellKey
    series: MetricSeries
    events: List[RepartitionEvent]
    assignment: Dict[int, int]
    shard_weights: Tuple[int, ...]
    execution: Optional[ThroughputReport] = None

    # -- ReplayResult-compatible read surface --------------------------

    @property
    def method(self) -> str:
        return self.key.method.label

    @property
    def k(self) -> int:
        return self.key.k

    @property
    def seed(self) -> int:
        return self.key.seed

    @property
    def total_moves(self) -> int:
        return sum(e.moves for e in self.events)

    @property
    def num_repartitions(self) -> int:
        return sum(1 for e in self.events if e.moves or e.reassigned)

    def mean(self, column: str) -> float:
        """Mean of a metric column over active (non-empty) windows."""
        pts = [p for p in self.series.points if p.interactions > 0]
        if not pts:
            return 0.0
        return sum(getattr(p, column) for p in pts) / len(pts)

    def to_assignment(self) -> ShardAssignment:
        """Rebuild a live :class:`ShardAssignment` (counts re-derived)."""
        a = ShardAssignment(self.key.k)
        for v, s in self.assignment.items():
            a.assign(v, s)
        a._weights = list(self.shard_weights)
        return a

    # -- construction / serialization ----------------------------------

    @classmethod
    def from_replay(cls, key: CellKey, replay: ReplayResult) -> "CellResult":
        return cls(
            key=key,
            series=replay.series,
            events=list(replay.events),
            assignment=replay.assignment.as_dict(),
            shard_weights=tuple(replay.assignment.weights),
        )

    def to_replay_result(self) -> ReplayResult:
        """Back-compat bridge to the legacy result type."""
        return ReplayResult(
            method=self.key.method.name,
            k=self.key.k,
            series=self.series,
            assignment=self.to_assignment(),
            events=list(self.events),
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "key": self.key.to_dict(),
            "series": {
                "method": self.series.method,
                "k": self.series.k,
                "points": [
                    {
                        "ts": p.ts,
                        "static_edge_cut": p.static_edge_cut,
                        "dynamic_edge_cut": p.dynamic_edge_cut,
                        "static_balance": p.static_balance,
                        "dynamic_balance": p.dynamic_balance,
                        "cumulative_moves": p.cumulative_moves,
                        "interactions": p.interactions,
                    }
                    for p in self.series.points
                ],
            },
            "events": [
                {
                    "ts": e.ts,
                    "moves": e.moves,
                    "reassigned": e.reassigned,
                    "reason": e.reason,
                }
                for e in self.events
            ],
            # JSON object keys are strings; store as pairs to keep ints
            "assignment": [[v, s] for v, s in sorted(self.assignment.items())],
            "shard_weights": list(self.shard_weights),
        }
        if self.execution is not None:
            data["execution"] = self.execution.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellResult":
        series = MetricSeries(
            method=data["series"]["method"], k=int(data["series"]["k"])
        )
        for p in data["series"]["points"]:
            series.points.append(MetricPoint(**p))
        return cls(
            key=CellKey.from_dict(data["key"]),
            series=series,
            events=[RepartitionEvent(**e) for e in data["events"]],
            assignment={int(v): int(s) for v, s in data["assignment"]},
            shard_weights=tuple(int(w) for w in data["shard_weights"]),
            execution=(
                ThroughputReport.from_dict(data["execution"])
                if data.get("execution") is not None else None
            ),
        )


MethodArg = Union[str, MethodSpec]


class ResultSet:
    """Results of an experiment, keyed by (method spec, k, seed).

    Iteration yields :class:`CellResult` objects in the spec's grid
    order.  Equality compares the spec and every cell.
    """

    def __init__(self, spec: ExperimentSpec, cells: Dict[CellKey, CellResult]):
        self.spec = spec
        order = [k for k in spec.cells() if k in cells]
        # preserve any extra cells (merged sets) after the spec's grid
        order += [k for k in cells if k not in set(order)]
        self._cells: Dict[CellKey, CellResult] = {k: cells[k] for k in order}

    # -- mapping surface -----------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self._cells.values())

    def __contains__(self, key: CellKey) -> bool:
        return key in self._cells

    def keys(self) -> Tuple[CellKey, ...]:
        return tuple(self._cells)

    def items(self):
        return self._cells.items()

    def _key(self, method: MethodArg, k: int, seed: int) -> CellKey:
        return CellKey(method=MethodSpec.parse(method), k=k, seed=seed)

    def get(self, method: MethodArg, k: int, seed: int = 1) -> CellResult:
        """Cell lookup; ``method`` may be a spec or a method string."""
        key = self._key(method, k, seed)
        try:
            return self._cells[key]
        except KeyError:
            raise KeyError(
                f"no result for {key.label}; have: "
                f"{', '.join(c.label for c in self._cells) or '(empty)'}"
            ) from None

    def cell(self, key: CellKey) -> CellResult:
        return self._cells[key]

    # -- equality / serialization --------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.spec == other.spec and self._cells == other._cells

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ResultSet({self.spec.workload_id()}, "
            f"{len(self._cells)}/{len(self.spec.cells())} cells)"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "cells": [c.to_dict() for c in self._cells.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResultSet":
        cells = [CellResult.from_dict(c) for c in data["cells"]]
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            cells={c.key: c for c in cells},
        )

    def dumps(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def loads(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))

    def merged_with(self, other: "ResultSet") -> "ResultSet":
        """New set with ``other``'s cells added (other wins on clash)."""
        merged = dict(self._cells)
        merged.update(other._cells)
        return ResultSet(self.spec, merged)
