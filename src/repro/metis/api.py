"""Top-level METIS-like entry point.

:func:`part_graph` mirrors the shape of ``metis.part_graph`` from the
real library: give it a graph and k, get back a vertex → part map plus
cut and balance statistics.  It accepts either the domain-level
:class:`~repro.graph.undirected.UndirectedView` /
:class:`~repro.graph.digraph.WeightedDiGraph` or a raw
:class:`~repro.metis.graph.CSRGraph`.

Warm-started repartitioning
---------------------------

Periodic repartitioning (the paper's Methods 3–5) calls the partitioner
over and over on grown versions of the same graph.  ``warm_start=``
feeds the previous run's assignment back in: it is projected onto the
current graph, vertices new since the previous run are placed by
weighted neighbor majority, and boundary-focused refinement runs from
that projection — skipping coarsening and initial partitioning
entirely.  When the graph grew too much for the projection to be
trustworthy (``warm_growth_threshold``), the call falls back to a cold
multilevel run, optionally reusing a
:class:`~repro.metis.coarsen.LadderCache` so even cold restarts avoid
re-matching the unchanged prefix of the hierarchy.

Caveat (documented by the paper for full METIS): a *cold* run freely
relabels shards between periods — minimising moved vertices is not a
METIS objective — so successive cold assignments are only comparable
up to a part permutation.  A *warm* run, by contrast, inherits the
previous labels, which is precisely what makes its move counts small;
comparisons between warm and cold move counts therefore measure the
relabeling pitfall as much as the partition quality.

``warm_start=None`` (the default) is bit-identical to the pre-warm-start
behaviour of this function.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import PartitionError
from repro.graph.digraph import WeightedDiGraph
from repro.graph.undirected import UndirectedView
from repro.metis.coarsen import LadderCache
from repro.metis.graph import CSRGraph
from repro.metis.kway import (
    direct_kway_partition,
    kway_partition,
    warm_kway_partition,
)

GraphLike = Union[WeightedDiGraph, UndirectedView, CSRGraph]


@dataclasses.dataclass(frozen=True)
class PartGraphResult:
    """Outcome of :func:`part_graph`.

    Attributes:
        assignment: original vertex id → part (0..k-1).
        k: number of parts requested.
        edge_cut: total weight of cut edges (undirected, counted once).
        part_weights: vertex-weight sum per part — always length ``k``,
            with zeros for empty parts.
        warm: True when this result came from the warm-started
            (projection + boundary refinement) path.
    """

    assignment: Dict[int, int]
    k: int
    edge_cut: int
    part_weights: List[int]
    warm: bool = False

    def __post_init__(self) -> None:
        if len(self.part_weights) != self.k:
            raise PartitionError(
                f"part_weights must have length k={self.k}, "
                f"got {len(self.part_weights)}"
            )

    @property
    def balance(self) -> float:
        """max part weight × k / total weight (paper Eq. 2, weighted).

        With an empty part this correctly *rises* (an empty part means
        some other part carries more than total/k), never understates:
        the maximum over all parts includes the overweight ones.
        """
        total = sum(self.part_weights)
        if total == 0:
            return 1.0
        return max(self.part_weights) * self.k / total


def part_graph(
    graph: GraphLike,
    k: int,
    seed: int = 0,
    ubfactor: float = 1.05,
    targets: Sequence[float] = (),
    initial: str = "greedy",
    ntrials: int = 8,
    coarsen_to: Optional[int] = None,
    vertex_weights: str = "unit",
    scheme: str = "recursive",
    warm_start: Optional[Mapping[int, int]] = None,
    warm_cache: Optional[LadderCache] = None,
    warm_growth_threshold: float = 0.5,
) -> PartGraphResult:
    """Partition ``graph`` into ``k`` balanced parts minimising edge cut.

    Args:
        graph: directed blockchain graph, undirected view, or CSR graph.
        k: number of parts (>= 1).
        seed: RNG seed; identical inputs and seed give identical output.
        ubfactor: allowed imbalance (1.05 = parts may be 5% overweight).
        targets: optional per-part weight targets (defaults to equal).
        initial: coarsest-level bisection ("greedy" or "spectral").
        ntrials: greedy-growing restarts at the coarsest level.
        coarsen_to: stop coarsening at this size (default ``max(64, 8*k)``).
        vertex_weights: when converting a directed blockchain graph,
            "unit" (paper setup: balance vertex counts) or "activity"
            (balance accumulated activity).  Ignored for CSR input.
        scheme: "recursive" (pmetis-style recursive bisection, default)
            or "direct" (kmetis-style one-ladder direct k-way — faster
            for larger k at comparable quality).
        warm_start: previous assignment (original vertex id → part) to
            warm-start from; ``None`` (default) runs cold and is
            bit-identical to the pre-warm-start behaviour.  Entries with
            parts outside ``0..k-1`` are treated as unassigned.
        warm_cache: coarsening-ladder cache shared across successive
            runs on prefix-stable grown versions of the same graph;
            consulted (and updated) only when a cold multilevel run
            happens — either ``warm_start=None`` with a cache, or a
            warm call that fell back cold.  Cold runs with a cache use
            the direct (one-ladder) scheme, since a recursive bisection
            has no single ladder to cache.
        warm_growth_threshold: warm-start only when the fraction of
            vertices *not* covered by ``warm_start`` is at most this;
            beyond it the projection is mostly guesswork and a cold
            multilevel run gives better cuts.
    """
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if vertex_weights not in ("unit", "activity"):
        raise PartitionError(
            f"vertex_weights must be 'unit' or 'activity', got {vertex_weights!r}"
        )
    if scheme not in ("recursive", "direct"):
        raise PartitionError(
            f"scheme must be 'recursive' or 'direct', got {scheme!r}"
        )

    if isinstance(graph, WeightedDiGraph):
        csr = CSRGraph.from_digraph(
            graph, unit_vertex_weights=vertex_weights == "unit")
    elif isinstance(graph, UndirectedView):
        csr = CSRGraph.from_undirected(graph)
    elif isinstance(graph, CSRGraph):
        csr = graph
    else:
        raise PartitionError(f"unsupported graph type: {type(graph)!r}")

    n = csr.num_vertices
    if n == 0:
        return PartGraphResult(assignment={}, k=k, edge_cut=0, part_weights=[0] * k)

    ids = csr.orig_ids if csr.orig_ids is not None else list(range(n))
    rng = random.Random(seed)

    part: Optional[List[int]] = None
    warm = False
    if warm_start is not None:
        part0 = [-1] * n
        covered = 0
        get = warm_start.get
        for v in range(n):
            p = get(ids[v])
            if p is not None and 0 <= p < k:
                part0[v] = p
                covered += 1
        if covered and (n - covered) <= warm_growth_threshold * n:
            part = warm_kway_partition(
                csr, k, part0, targets=targets, ubfactor=ubfactor
            )
            warm = True

    if part is None:
        if warm_cache is not None:
            # cold restart inside a warm-mode pipeline: one-ladder direct
            # k-way so the coarsening hierarchy can be cached and the next
            # cold restart reuses its unchanged prefix
            part = direct_kway_partition(
                csr, k, rng, targets=targets, ubfactor=ubfactor,
                initial=initial, ntrials=ntrials, ladder_cache=warm_cache,
            )
        elif scheme == "direct":
            part = direct_kway_partition(
                csr, k, rng, targets=targets, ubfactor=ubfactor,
                initial=initial, ntrials=ntrials,
            )
        else:
            part = kway_partition(
                csr,
                k,
                rng,
                targets=targets,
                ubfactor=ubfactor,
                coarsen_to=coarsen_to if coarsen_to is not None else max(64, 8 * k),
                initial=initial,
                ntrials=ntrials,
            )

    assignment = {ids[v]: part[v] for v in range(n)}
    return PartGraphResult(
        assignment=assignment,
        k=k,
        edge_cut=csr.cut_of(part),
        part_weights=csr.part_weights(part, k),
        warm=warm,
    )
