"""Bridge from experiment cells to the sharded-execution simulator.

After a cell's partition replay finishes, its final vertex → shard
assignment is fed through :class:`~repro.sharding.ShardedExecution`
under the grid's :class:`~repro.experiments.spec.ExecutionSpec`, and
the resulting throughput report is attached as ``cell.execution``.

Every cell replays through the batched ``replay_columnar`` engine.  A
plain interaction list is interned into a ``ColumnarLog``, and the
replayed rows are grouped into transactions, once per
:func:`attach_execution` call: the groups depend on the log window
only, so every cell of the call shares them.  Replays are strict: a
cell whose assignment misses a replayed endpoint raises
:class:`~repro.errors.UnassignedVertexError` instead of silently
dropping load (the assignment came from replaying this very log, so a
miss is a bug, not a degenerate input).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

from repro.experiments.spec import ExecutionSpec
from repro.graph.columnar import ColumnarLog, as_columnar
from repro.sharding.batch import TransactionGroups, extract_transactions
from repro.sharding.coordinator import ShardedExecution
from repro.sharding.throughput import ThroughputReport


def _window(log: ColumnarLog, execution: ExecutionSpec) -> Tuple[int, int]:
    """The ``(lo, hi)`` rows ``execution`` replays: ``max_rows`` caps
    the replay to the log tail."""
    lo = 0
    if execution.max_rows is not None:
        lo = max(0, len(log) - execution.max_rows)
    return lo, len(log)


def execute_assignment(
    log,
    k: int,
    assignment: Mapping[int, int],
    execution: ExecutionSpec,
    *,
    groups: Optional[TransactionGroups] = None,
) -> ThroughputReport:
    """Replay ``log`` through ``k`` shards under ``assignment``.

    ``log`` is a :class:`~repro.graph.columnar.ColumnarLog` or a
    sequence of :class:`~repro.graph.builder.Interaction`;
    ``execution.max_rows`` caps the replay to the log tail.  ``groups``
    are the replayed rows' transactions, when the caller already
    grouped them (see :meth:`ShardedExecution.replay_columnar`).
    """
    log = as_columnar(log)
    lo, hi = _window(log, execution)
    ex = ShardedExecution(k, assignment, execution.to_config())
    return ex.replay_columnar(
        log, lo, hi,
        time_scale=execution.time_scale,
        arrival_rate=execution.arrival_rate,
        groups=groups,
    )


def attach_execution(log, cells: Iterable, execution: ExecutionSpec) -> None:
    """Attach a throughput report to each
    :class:`~repro.experiments.results.CellResult`, in place.

    The replayed rows are grouped into transactions once, for all cells.
    """
    log = as_columnar(log)
    groups = extract_transactions(log, *_window(log, execution))
    for cell in cells:
        cell.execution = execute_assignment(
            log, cell.key.k, cell.assignment, execution, groups=groups
        )
