"""Fig. 1 — Ethereum graph evolution (vertices and edges over time).

The paper plots the cumulative number of vertices (accounts + smart
contracts) and edges (distinct interactions) per month from Aug 2015 to
Dec 2017 on a log axis, with fork landmarks.  Expected reproduced
shape: exponential growth to the attack, an order-of-magnitude jump in
the attack window, superlinear growth afterwards.
"""

from __future__ import annotations

import dataclasses
from typing import List, Set, Tuple

from repro import kernels
from repro.analysis.render import ascii_table, sparkline
from repro.ethereum.history import ATTACK_END, ATTACK_START, landmarks, month_label
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import DAY


@dataclasses.dataclass(frozen=True)
class GrowthPoint:
    ts: float
    label: str
    vertices: int
    edges: int
    interactions: int


def compute_fig1(log: ColumnarLog, sample_days: float = 30.0) -> List[GrowthPoint]:
    """Cumulative graph size sampled every ``sample_days``.

    A sample at ``ts`` counts the rows before ``ts``; the last sample is
    the first one past the log's end.  Interning is in first-appearance
    order, so the distinct vertices of a prefix number its highest dense
    index + 1 (as in :func:`~repro.graph.analytics.compute_window_stats`);
    distinct edges are distinct dense ``(src, dst)`` pairs.
    """
    n = len(log)
    if n == 0:
        return []
    max_index = kernels.active().max_index
    src = log.src_indices()
    dst = log.dst_indices()
    step = sample_days * DAY
    last_ts = log.last_timestamp
    points: List[GrowthPoint] = []
    seen_max = -1
    seen_edges: Set[Tuple[int, int]] = set()
    lo = 0
    next_sample = log.first_timestamp + step
    while True:
        hi = log.index_at(next_sample) if next_sample <= last_ts else n
        seen_max = max(seen_max, max_index(src, dst, lo, hi))
        seen_edges.update(zip(src[lo:hi], dst[lo:hi]))
        lo = hi
        points.append(
            GrowthPoint(
                ts=next_sample,
                label=month_label(next_sample),
                vertices=seen_max + 1,
                edges=len(seen_edges),
                interactions=hi,
            )
        )
        if hi == n:
            return points
        next_sample += step


def attack_growth_factor(points: List[GrowthPoint]) -> float:
    """Vertex growth factor across the attack window (paper: ~10x)."""
    before = after = None
    for p in points:
        if p.ts <= ATTACK_START:
            before = p
        if after is None and p.ts >= ATTACK_END:
            after = p
    if before is None or after is None or before.vertices == 0:
        return float("nan")
    return after.vertices / before.vertices


def render_fig1(points: List[GrowthPoint]) -> str:
    rows = [
        (p.label, p.vertices, p.edges, p.interactions) for p in points
    ]
    out = [
        ascii_table(
            ["month", "# vertices", "# edges", "# interactions"],
            rows,
            title="Fig. 1 — Ethereum graph evolution (synthetic trace)",
        ),
        "",
        "vertices (log): " + sparkline([p.vertices for p in points], log=True),
        "edges    (log): " + sparkline([p.edges for p in points], log=True),
        "",
        f"attack-window vertex growth factor: {attack_growth_factor(points):.1f}x",
        "landmarks: " + ", ".join(l.label for l in landmarks()),
    ]
    return "\n".join(out)
