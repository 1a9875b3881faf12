"""Outside-in span tracer for the ``repro`` package.

The tracer never edits the package.  It wraps each traced function and
rebinds every ``repro.*`` module attribute that *is* the original
object, so ``from x import f`` bindings are caught too (for example
``apply_proposal`` in ``repro.core.multireplay`` and ``fm_refine`` in
``repro.metis.bisect``).  Methods are wrapped on their class, kernels
on the module ``repro.kernels.active()`` returns.

Spans ``(id, parent, name, start, end)`` stay in memory.  Fork-started
pool workers inherit the wrappers; each worker drops the spans it
inherited and writes its own to ``spans-<pid>.json`` when a chunk
ends.  ``aggregate`` turns spans into per-name calls and self time:
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (metric name, module, attribute path) of every traced function.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("ethereum.export_workload_trace", "repro.ethereum.export", "export_workload_trace"),
    ("ethereum.WorkloadGenerator.run", "repro.ethereum.workload", "WorkloadGenerator.run"),
    ("graph.io.ChunkedTraceWriter.close", "repro.graph.io", "ChunkedTraceWriter.close"),
    ("graph.io.load_trace_log", "repro.graph.io", "load_trace_log"),
    ("core.multireplay.run", "repro.core.multireplay", "MultiReplayEngine.run"),
    ("core.place_new_vertices", "repro.core.base", "PartitionMethod.place_new_vertices"),
    ("core.place_new_vertices", "repro.core.fennel", "FennelPartitioner.place_new_vertices"),
    ("core.apply_proposal", "repro.core.replay", "apply_proposal"),
    ("core.hash.maybe_repartition", "repro.core.hashing", "HashPartitioner.maybe_repartition"),
    ("core.kl.maybe_repartition", "repro.core.kl", "KLPartitioner.maybe_repartition"),
    ("core.metis.maybe_repartition", "repro.core.metis_method", "MetisPartitioner.maybe_repartition"),
    ("core.rmetis.maybe_repartition", "repro.core.rmetis", "RMetisPartitioner.maybe_repartition"),
    ("core.trmetis.maybe_repartition", "repro.core.trmetis", "TRMetisPartitioner.maybe_repartition"),
    ("core.fennel.maybe_repartition", "repro.core.fennel", "FennelPartitioner.maybe_repartition"),
    ("metis.part_graph", "repro.metis.api", "part_graph"),
    ("metis.warm_kway_partition", "repro.metis.kway", "warm_kway_partition"),
    ("metis.boundary_kway_refine", "repro.metis.refine", "boundary_kway_refine"),
    ("metis.rebalance_kway", "repro.metis.refine", "rebalance_kway"),
    ("metis.fm_refine", "repro.metis.refine", "fm_refine"),
    ("metis.greedy_graph_growing", "repro.metis.initial", "greedy_graph_growing"),
    ("metis.coarsen", "repro.metis.coarsen", "coarsen"),
    ("metis.CSRGraph.from_columnar", "repro.metis.graph", "CSRGraph.from_columnar"),
    ("metis.CSRGraph.from_graph_batch", "repro.metis.graph", "CSRGraph.from_graph_batch"),
    ("metis.CSRGraph.from_undirected", "repro.metis.graph", "CSRGraph.from_undirected"),
    ("metis.CSRGraph.from_digraph", "repro.metis.graph", "CSRGraph.from_digraph"),
    ("sharding.replay_columnar", "repro.sharding.coordinator", "ShardedExecution.replay_columnar"),
    ("experiments.ResultSet.dumps", "repro.experiments.results", "ResultSet.dumps"),
    ("experiments.store.save", "repro.experiments.store", "ResultStore.save"),
    ("experiments.store.load_known", "repro.experiments.store", "ResultStore.load_known"),
    ("experiments.parallel.run_chunks_parallel", "repro.experiments.parallel", "run_chunks_parallel"),
    ("experiments.parallel.replay_chunk", "repro.experiments.parallel", "replay_chunk"),
)

#: Kernels, wrapped on the active backend module.
KERNELS = ("window_pass", "account_window", "static_cut_count")

#: Span names whose per-layer metrics the benchmark reports.
SPANS = tuple(dict.fromkeys(
    [name for name, _, _ in FUNCTIONS if not name.startswith("experiments.parallel.")]
    + [f"kernels.{k}" for k in KERNELS]
))

#: Spans of the set-up step (the trace export), reported as shares of
#: one traced export rather than of the sweep.
SETUP_SPANS = (
    "ethereum.export_workload_trace",
    "ethereum.WorkloadGenerator.run",
    "graph.io.ChunkedTraceWriter.close",
)

#: The span a pool worker opens per chunk; its spans are flushed after it.
WORKER_ROOT = "experiments.parallel.replay_chunk"

Span = Tuple[int, int, str, float, float]


class Tracer:
    """Wraps the traced functions and records their spans."""

    def __init__(self, out_dir: pathlib.Path, clock: Callable[[], float] = time.perf_counter):
        self.out_dir = pathlib.Path(out_dir)
        self.clock = clock
        self.pid = self.parent_pid = os.getpid()
        self.spans: List[Span] = []
        self.bytes: Dict[str, int] = {}
        self._stack: List[int] = []
        self._next = 0
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def _enter_process(self) -> None:
        """A forked worker starts with its own, empty record."""
        self.pid = os.getpid()
        self.spans = []
        self.bytes = {}
        self._stack = []

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_process()
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if measure is not None:
                tracer.bytes[name] = tracer.bytes.get(name, 0) + measure(args, result)
            if name == WORKER_ROOT and not tracer._stack and tracer.pid != tracer.parent_pid:
                tracer.flush_worker()
            return result

        return traced

    def flush_worker(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans, "bytes": self.bytes}) + "\n")
        self.spans = []
        self.bytes = {}

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for _, module, _ in FUNCTIONS:
            importlib.import_module(module)
        importlib.import_module("repro.experiments.run")
        repro_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for name, module, path in FUNCTIONS:
            owner = importlib.import_module(module)
            if "." in path:
                cls_name, attr = path.split(".")
                self._wrap_method(name, getattr(owner, cls_name), attr)
            else:
                self._rebind(name, getattr(owner, path), repro_modules)
        from repro import kernels

        backend = kernels.active()
        for kernel in KERNELS:
            self._setattr(backend, kernel, self._wrap(f"kernels.{kernel}", getattr(backend, kernel)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _setattr(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _rebind(self, name: str, original: Callable, modules) -> None:
        wrapper = self._wrap(name, original, _MEASURES.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._setattr(module, attr, wrapper)

    def _wrap_method(self, name: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        measure = _MEASURES.get(name)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, measure))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(name, raw.__func__, measure))
        else:
            wrapped = self._wrap(name, raw, measure)
        self._setattr(cls, attr, wrapped)


def _save_bytes(args, path) -> int:
    return os.path.getsize(path)


def _load_bytes(args, loaded) -> int:
    store, spec = args[0], args[1]
    return sum(os.path.getsize(store.cell_path(spec, key)) for key in loaded)


def _dumps_bytes(args, text) -> int:
    return len(text.encode("utf-8"))


_MEASURES = {
    "experiments.store.save": _save_bytes,
    "experiments.store.load_known": _load_bytes,
    "experiments.ResultSet.dumps": _dumps_bytes,
}


def read_worker_spans(out_dir: pathlib.Path) -> List[Tuple[List[Span], Dict[str, int]]]:
    """Every (spans, bytes) batch the pool workers flushed."""
    batches = []
    for path in sorted(pathlib.Path(out_dir).glob("spans-*.json")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            batches.append(([tuple(s) for s in record["spans"]], record["bytes"]))
    return batches


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    child_time: Dict[int, float] = {}
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
    return out


def covered(spans: List[Span], lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` that some top-level span covers."""
    tops = sorted(
        (max(start, lo), min(end, hi))
        for _sid, parent, _name, start, end in spans
        if parent < 0 and end > lo and start < hi
    )
    total, reach = 0.0, lo
    for start, end in tops:
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
