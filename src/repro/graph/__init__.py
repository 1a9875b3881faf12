"""Graph substrate: the weighted directed "blockchain graph" of the paper.

The paper (§II-B) models Ethereum as a directed graph whose vertices are
accounts and smart contracts and whose edges are interactions produced by
transactions.  Vertex weights capture how often a vertex participates in
transactions; edge weights capture how often an interaction (caller →
callee) occurred.

Public surface:

* :class:`~repro.graph.digraph.WeightedDiGraph` — the graph container;
* :class:`~repro.graph.builder.Interaction` — one caller → callee event,
  and :func:`~repro.graph.builder.build_graph_columnar`, which folds a
  row range of a log into a graph;
* :class:`~repro.graph.columnar.ColumnarLog` — parallel-array log with
  interned vertex ids and O(log N) window slicing: the one interaction
  log, from the workload generator and trace files to the replays and
  figures;
* :mod:`~repro.graph.snapshot` — the experiments' time constants;
* :mod:`~repro.graph.undirected` — collapse to the weighted undirected
  graph fed to partitioners;
* :mod:`~repro.graph.io` — trace readers/writers in the paper's published
  dataset spirit;
* :mod:`~repro.graph.generators` — synthetic test graphs.
"""

from repro.graph.digraph import VertexKind, WeightedDiGraph
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.undirected import UndirectedView, collapse_to_undirected

__all__ = [
    "VertexKind",
    "WeightedDiGraph",
    "Interaction",
    "ColumnarLog",
    "UndirectedView",
    "collapse_to_undirected",
]
