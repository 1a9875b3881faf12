"""Compact CSR work-graph for the multilevel partitioner.

The partitioner operates on vertices renumbered to ``0..n-1`` with
adjacency in CSR (compressed sparse row) layout — the same representation
METIS uses — because the coarsening and refinement inner loops touch
every edge many times and dict-of-dict graphs are too slow for that.

``CSRGraph`` is immutable after construction.  ``from_undirected`` and
``from_digraph`` bridge from the domain-level graphs
(:class:`~repro.graph.undirected.UndirectedView`,
:class:`~repro.graph.digraph.WeightedDiGraph`) and keep the
original-vertex-id mapping.

The replay's methods never build a domain-level graph; their bridges
read a ColumnarLog's dense vertex indices straight into CSR arrays:

* :meth:`CSRGraph.from_graph_batch` collapses one ``graph_batch``
  aggregate of a row range — the KL and cold METIS-family input;
* :meth:`CSRGraph.from_columnar` builds the undirected interaction
  graph of any row range ``[start, stop)`` in one pass — the warm
  R-METIS / TR-METIS reduced-window input;
* :class:`ColumnarCSRBuilder` maintains the *cumulative* graph
  incrementally: each :meth:`~ColumnarCSRBuilder.advance` call folds in
  only the rows appended since the previous call, so periodic
  full-graph repartitioning pays O(new rows) per period instead of
  O(all rows) — the warm-started METIS hot path.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import kernels
from repro.errors import PartitionError
from repro.graph.undirected import UndirectedView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.graph.columnar import ColumnarLog


@dataclasses.dataclass
class CSRGraph:
    """Undirected weighted graph in CSR form.

    Attributes:
        xadj: index into adjncy/adjwgt; neighbors of v are
            ``adjncy[xadj[v]:xadj[v+1]]`` (length n+1).
        adjncy: concatenated neighbor lists (each undirected edge appears
            twice, once per endpoint).
        adjwgt: edge weights, parallel to adjncy.
        vwgt: vertex weights (length n).
        orig_ids: optional original vertex id per CSR index.
    """

    xadj: List[int]
    adjncy: List[int]
    adjwgt: List[int]
    vwgt: List[int]
    orig_ids: Optional[List[int]] = None

    @property
    def num_vertices(self) -> int:
        return len(self.vwgt)

    @property
    def num_edges(self) -> int:
        return len(self.adjncy) // 2

    @property
    def total_vertex_weight(self) -> int:
        return sum(self.vwgt)

    @property
    def total_edge_weight(self) -> int:
        """Sum of undirected edge weights (each edge counted once)."""
        return sum(self.adjwgt) // 2

    def neighbors(self, v: int) -> Iterator[Tuple[int, int]]:
        """Yield (neighbor, edge weight) pairs of v."""
        for i in range(self.xadj[v], self.xadj[v + 1]):
            yield self.adjncy[i], self.adjwgt[i]

    def degree(self, v: int) -> int:
        return self.xadj[v + 1] - self.xadj[v]

    def weighted_degree(self, v: int) -> int:
        return sum(self.adjwgt[self.xadj[v] : self.xadj[v + 1]])

    # ------------------------------------------------------------------

    @classmethod
    def from_undirected(cls, und: UndirectedView) -> "CSRGraph":
        """Build a CSR graph from an :class:`UndirectedView`.

        Vertices are renumbered in iteration order; the original ids are
        retained in ``orig_ids`` so partition vectors can be mapped back.
        """
        index: Dict[int, int] = {}
        orig_ids: List[int] = []
        for v in und.vertices():
            index[v] = len(orig_ids)
            orig_ids.append(v)
        n = len(orig_ids)
        xadj: List[int] = [0] * (n + 1)
        adjncy: List[int] = []
        adjwgt: List[int] = []
        vwgt: List[int] = [0] * n
        for v, idx in index.items():
            vwgt[idx] = und.vertex_weight(v)
        for idx, v in enumerate(orig_ids):
            for nbr, w in und.adjacency(v).items():
                adjncy.append(index[nbr])
                adjwgt.append(w)
            xadj[idx + 1] = len(adjncy)
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt, orig_ids=orig_ids)

    @classmethod
    def from_digraph(
        cls,
        digraph,
        min_vertex_weight: int = 1,
        unit_vertex_weights: bool = False,
    ) -> "CSRGraph":
        """Collapse a ``WeightedDiGraph`` straight to CSR in one pass.

        Fuses ``collapse_to_undirected`` + :meth:`from_undirected`
        without materialising the intermediate ``UndirectedView`` or
        re-walking it.  Every observable order is preserved exactly:
        vertices are renumbered in ``digraph.vertices()`` order, each
        adjacency keeps first-encounter order over ``digraph.edges()``,
        and reverse-direction weights merge on the first encounter of a
        pair — bit-identical CSR arrays to the two-step pipeline (the
        KL repartitioner depends on this for its tie-breaks).
        """
        index: Dict[int, int] = {}
        orig_ids: List[int] = []
        vwgt: List[int] = []
        for v in digraph.vertices():
            index[v] = len(orig_ids)
            orig_ids.append(v)
            vwgt.append(
                1 if unit_vertex_weights
                else max(min_vertex_weight, digraph.vertex_weight(v)))
        n = len(orig_ids)
        adj: List[Dict[int, int]] = [{} for _ in range(n)]
        for src, dst, w in digraph.edges():
            if src == dst:
                continue  # self-loops never cross shards; the collapse drops them
            si, di = index[src], index[dst]
            if di in adj[si]:
                # the reverse edge was already merged when we saw dst → src
                continue
            total = w + digraph.successors(dst).get(src, 0)
            adj[si][di] = total
            adj[di][si] = total
        xadj: List[int] = [0] * (n + 1)
        adjncy: List[int] = []
        adjwgt: List[int] = []
        for i in range(n):
            adjncy.extend(adj[i])
            adjwgt.extend(adj[i].values())
            xadj[i + 1] = len(adjncy)
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt, orig_ids=orig_ids)

    @classmethod
    def from_graph_batch(
        cls,
        first_seen,
        edge_weights,
        vertex_weights,
        vertex_id,
        min_vertex_weight: int = 1,
    ) -> "CSRGraph":
        """Collapse one ``graph_batch`` aggregate straight to CSR.

        Equivalent to ``build_graph_columnar`` → :meth:`from_digraph`
        without materialising the ``WeightedDiGraph``: ``first_seen``
        fixes the vertex order (the digraph's ``add_vertex`` order),
        ``edge_weights``'s packed-pair first-occurrence order fixes
        each successor order (the ``add_edge`` order), and the collapse
        then merges reverse pairs / drops self-loops exactly as
        :meth:`from_digraph` does — bit-identical CSR arrays, at a
        fraction of the inserts (and hashing *dense* log indices
        instead of raw vertex ids).  ``vertex_id`` maps dense indices
        to the raw ids recorded in ``orig_ids``.
        """
        n = len(first_seen)
        index: Dict[int, int] = {}
        orig_ids: List[int] = []
        vwgt: List[int] = []
        for r, (dense, _kind, _ts) in enumerate(first_seen):
            index[dense] = r
            orig_ids.append(vertex_id(dense))
            vwgt.append(max(min_vertex_weight, vertex_weights.get(dense, 0)))
        succ: List[Dict[int, int]] = [{} for _ in range(n)]
        shift, mask = kernels.PACK_SHIFT, kernels.PACK_MASK
        for packed, w in edge_weights.items():
            succ[index[packed >> shift]][index[packed & mask]] = w
        adj: List[Dict[int, int]] = [{} for _ in range(n)]
        for si in range(n):
            for di, w in succ[si].items():
                if si == di:
                    continue  # self-loops never cross shards
                if di in adj[si]:
                    continue  # reverse pair already merged
                total = w + succ[di].get(si, 0)
                adj[si][di] = total
                adj[di][si] = total
        xadj: List[int] = [0] * (n + 1)
        adjncy: List[int] = []
        adjwgt: List[int] = []
        for i in range(n):
            adjncy.extend(adj[i])
            adjwgt.extend(adj[i].values())
            xadj[i + 1] = len(adjncy)
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt, orig_ids=orig_ids)

    @classmethod
    def from_columnar(
        cls,
        log: "ColumnarLog",
        start: int = 0,
        stop: Optional[int] = None,
        vertex_weights: str = "unit",
    ) -> "CSRGraph":
        """Build the undirected interaction graph of log rows [start, stop).

        Reads the dense src/dst index columns directly — no
        ``Interaction`` boxing, no ``WeightedDiGraph`` and no
        ``collapse_to_undirected`` pass.  Semantics match that pipeline:
        edge weight u–v is the number of interactions between u and v in
        either direction, self-interactions contribute no edge, and
        ``vertex_weights`` is ``"unit"`` (all 1 — the paper's METIS
        setup) or ``"activity"`` (interaction appearances, floored at 1;
        a self-interaction counts its endpoint once).

        Vertices are the ones appearing in the range, numbered in
        first-appearance order; ``orig_ids`` maps back to raw vertex
        ids.  For ``start == 0`` the numbering coincides with the log's
        dense interning order.
        """
        _validate_vertex_weights(vertex_weights)  # fail before the scan
        if stop is None:
            stop = len(log)
        # batch kernel: the bucketing runs at distinct-row level in the
        # active backend; local numbering and adjacency order are
        # bit-identical to the old per-row fold (the kernel contract)
        xadj, adjncy, adjwgt, vwgt, dense_ids = kernels.active().csr_from_window(
            log.src_indices(), log.dst_indices(), start, stop, vertex_weights)
        orig_ids = [log.vertex_id(dense) for dense in dense_ids]
        return cls(
            xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt,
            orig_ids=orig_ids,
        )

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Sequence[Tuple[int, int, int]],
        vwgt: Optional[Sequence[int]] = None,
    ) -> "CSRGraph":
        """Build from an undirected edge list [(u, v, w), ...].

        Parallel edges are merged by weight; self-loops are rejected.
        Used by the tests and by the coarsener.
        """
        merged: Dict[Tuple[int, int], int] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop not allowed: {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + w

        adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), w in merged.items():
            adj[u].append((v, w))
            adj[v].append((u, w))

        xadj = [0] * (n + 1)
        adjncy: List[int] = []
        adjwgt: List[int] = []
        for v in range(n):
            for nbr, w in adj[v]:
                adjncy.append(nbr)
                adjwgt.append(w)
            xadj[v + 1] = len(adjncy)
        weights = list(vwgt) if vwgt is not None else [1] * n
        if len(weights) != n:
            raise ValueError(f"vwgt length {len(weights)} != n {n}")
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=weights)

    # ------------------------------------------------------------------

    def cut_of(self, part: Sequence[int]) -> int:
        """Total weight of edges whose endpoints are in different parts."""
        return kernels.active().cut_value(self, part)

    def part_weights(self, part: Sequence[int], k: int) -> List[int]:
        """Vertex-weight sum per part."""
        return kernels.active().part_weights(self, part, k)


class ColumnarCSRBuilder:
    """Incrementally accumulates a ColumnarLog's *cumulative* graph.

    The periodic full-graph METIS method partitions the cumulative
    interaction graph every period.  Rebuilding that graph from scratch
    costs O(total rows) per period; this builder keeps per-vertex
    adjacency accumulators keyed by the log's dense indices and folds in
    only the rows appended since the last :meth:`advance`, so a period
    costs O(new rows) plus an O(V + E) :meth:`snapshot` to emit the
    immutable CSR arrays the partitioner wants.

    Vertex v of every snapshot is dense index v of the log, so snapshots
    of a growing log are *prefix-stable*: an earlier snapshot's vertices
    keep their indices in every later snapshot.  Warm-started
    repartitioning (``part_graph(warm_start=...)``) and the coarsening
    ladder cache both rely on exactly this property.
    """

    __slots__ = ("log", "_upto", "_acc")

    def __init__(self, log: "ColumnarLog") -> None:
        self.log = log
        self._upto = 0                       # rows [0, _upto) consumed
        # backend accumulator captured at construction: flat packed-pair
        # folding instead of per-row dict updates (pure backend keeps
        # the reference dict-of-dicts; all emit identical snapshots)
        self._acc = kernels.active().CSRAccumulator()

    @property
    def rows_consumed(self) -> int:
        return self._upto

    @property
    def num_vertices(self) -> int:
        return self._acc.num_vertices

    def advance(self, upto: Optional[int] = None) -> int:
        """Fold in log rows [rows_consumed, upto); returns rows added."""
        if upto is None:
            upto = len(self.log)
        if upto < self._upto:
            raise ValueError(
                f"cannot rewind: already consumed {self._upto} rows, asked {upto}"
            )
        if upto > len(self.log):
            # reject before touching the accumulators: failing mid-loop
            # would leave rows half-folded and a retry would double-count
            raise ValueError(
                f"upto {upto} beyond log length {len(self.log)}"
            )
        self._acc.advance(
            self.log.src_indices(), self.log.dst_indices(), self._upto, upto)
        added = upto - self._upto
        self._upto = upto
        return added

    def snapshot(self, vertex_weights: str = "unit") -> CSRGraph:
        """Emit the cumulative graph of all consumed rows as a CSRGraph."""
        _validate_vertex_weights(vertex_weights)
        xadj, adjncy, adjwgt, vwgt, n = self._acc.snapshot(vertex_weights)
        # one bulk copy instead of n per-index method calls: dense
        # indices 0..n-1 are exactly the first n interned ids
        orig_ids = list(self.log.vertex_ids()[:n])
        return CSRGraph(
            xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt,
            orig_ids=orig_ids,
        )


def _validate_vertex_weights(vertex_weights: str) -> None:
    if vertex_weights not in ("unit", "activity"):
        raise PartitionError(
            f"vertex_weights must be 'unit' or 'activity', got {vertex_weights!r}"
        )
