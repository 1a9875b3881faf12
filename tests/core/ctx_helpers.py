"""Build a :class:`ReplayContext` the way the replay engine does.

Method unit tests call ``maybe_repartition`` directly; this helper gives
them the engine's context shape: a :class:`ColumnarLog` of the
interactions, with every row replayed and one open period.
"""

from repro.core.assignment import ShardAssignment
from repro.core.base import ReplayContext
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import DAY


def make_ctx(
    method,
    interactions=(),
    now=20 * DAY,
    last_repartition=0.0,
    window_cut=0.0,
    window_balance=1.0,
    assignment=None,
):
    """Context over ``interactions`` as one window and one period.

    Without an ``assignment``, the log's vertices go round-robin over
    the shards in ascending id order.
    """
    log = ColumnarLog(interactions)
    if assignment is None:
        assignment = ShardAssignment(method.k)
        for i, v in enumerate(sorted(log.vertex_ids())):
            assignment.assign(v, i % method.k)
    return ReplayContext(
        now=now,
        k=method.k,
        assignment=assignment,
        window_interactions=list(interactions),
        period_interactions=list(interactions),
        last_repartition_ts=last_repartition,
        window_dynamic_edge_cut=window_cut,
        window_dynamic_balance=window_balance,
        rng=method.rng,
        columnar_log=log,
        log_hi=len(log),
        log_period_start=0,
    )
