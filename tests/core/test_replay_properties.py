"""Property-based tests: replay-engine invariants on random streams."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import PartitionMethod
from repro.core.hashing import HashPartitioner
from repro.core.replay import replay_method
from repro.graph.builder import Interaction, build_graph


@st.composite
def interaction_logs(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)),
            min_size=n, max_size=n,
        )
    )
    gap = draw(st.floats(min_value=0.1, max_value=5.0))
    per_tx = draw(st.integers(min_value=1, max_value=3))
    return [
        Interaction(timestamp=(i // per_tx) * gap, src=s, dst=d, tx_id=i // per_tx)
        for i, (s, d) in enumerate(pairs)
    ]


class ChaoticMethod(PartitionMethod):  # reprolint: disable=RL008 -- property-test stressor, never spec-reachable
    """Repartitions every window with a random proposal over seen
    vertices — a worst-case stress for engine bookkeeping."""

    name = "chaos"

    def maybe_repartition(self, ctx):
        vertices = list(ctx.assignment.vertices())
        if not vertices:
            return None
        picked = self.rng.sample(vertices, k=max(1, len(vertices) // 2))
        return {v: self.rng.randrange(self.k) for v in picked}


@given(interaction_logs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_every_seen_vertex_is_assigned(log, k):
    result = replay_method(log, HashPartitioner(k), metric_window=3.0)
    seen = {v for it in log for v in (it.src, it.dst)}
    assert set(result.assignment.vertices()) == seen


@given(interaction_logs(), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_metrics_always_in_bounds(log, k, seed):
    result = replay_method(log, ChaoticMethod(k, seed=seed), metric_window=3.0)
    for p in result.series.points:
        assert 0.0 <= p.static_edge_cut <= 1.0
        assert 0.0 <= p.dynamic_edge_cut <= 1.0
        assert 1.0 <= p.static_balance <= k + 1e-9
        assert 1.0 <= p.dynamic_balance <= k + 1e-9
    # the last point's static cut is the final assignment's cut over
    # the log graph's distinct directed non-self edges
    edges = [(s, d) for s, d, _w in build_graph(log).edges() if s != d]
    if edges:
        asg = result.assignment
        cut = sum(1 for s, d in edges if asg[s] != asg[d])
        assert result.series.points[-1].static_edge_cut == cut / len(edges)


@given(interaction_logs(), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_assignment_counters_stay_consistent(log, k, seed):
    """Counts and the activity weights moves carry match the log's
    graph, however often the assignment is shuffled."""
    result = replay_method(log, ChaoticMethod(k, seed=seed), metric_window=3.0)
    result.assignment.validate(build_graph(log))


@given(interaction_logs(), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_moves_accounting_consistent(log, k, seed):
    result = replay_method(log, ChaoticMethod(k, seed=seed), metric_window=3.0)
    assert result.total_moves == sum(e.moves for e in result.events)
    cums = [p.cumulative_moves for p in result.series.points]
    assert cums == sorted(cums)
    assert (cums[-1] if cums else 0) == result.total_moves


@given(interaction_logs(), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_windows_tile_the_log(log, k, seed):
    result = replay_method(log, ChaoticMethod(k, seed=seed), metric_window=3.0)
    assert sum(p.interactions for p in result.series.points) == len(log)
    starts = [p.ts for p in result.series.points]
    assert starts == sorted(starts)
