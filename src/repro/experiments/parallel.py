"""Process-pool fan-out for independent experiment grid cells.

The single-pass :class:`~repro.core.multireplay.MultiReplayEngine`
already shares the log stream across every method in one process.  For
multi-core sweeps, the grid's cells are split into ``jobs`` balanced
chunks and each chunk replays in its own worker process — one shared
stream *per worker*.  Cells are independent by construction (each
method instance carries its own RNG and state), so the fan-out is
bit-identical to the sequential pass; only the shared per-window work
is repeated (once per worker instead of once).

The ``log`` handle every entry point takes is either an in-memory log
(shared with ``fork`` workers via copy-on-write, exactly as before) or
a :class:`~repro.experiments.source.LogSource` — a tiny picklable
value each worker resolves *itself* (for a
:class:`~repro.experiments.source.TraceSource`, an O(1) mmap of the
binary trace).  Source-handle fan-out therefore works under any
multiprocessing start method, not just ``fork``, and never moves log
bytes between processes.

Chunks are balanced with a longest-processing-time greedy using a
per-method cost model: the METIS family's periodic full-graph
repartitioning dominates five-method sweeps (~95% of wall-clock at
small scale pre-warm), so naive round-robin would leave most workers
idle behind one METIS-heavy chunk.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.results import CellResult
from repro.experiments.source import LogSource
from repro.experiments.spec import CellKey, ExecutionSpec
from repro.graph.columnar import ColumnarLog

#: Relative replay cost by method name (measured at small scale; the
#: exact values only matter ordinally for chunk balancing).
_METHOD_COST: Dict[str, float] = {
    "metis": 20.0,
    "r-metis": 6.0,
    "p-metis": 6.0,
    "tr-metis": 4.0,
    "kl": 2.0,
    "fennel": 1.0,
    "hash": 1.0,
}


def cell_cost(key: CellKey) -> float:
    """Heuristic relative cost of one grid cell."""
    base = _METHOD_COST.get(key.method.name, 3.0)
    if dict(key.method.params).get("warm"):
        base = max(1.0, base / 5.0)  # warm-started METIS amortises
    # repartitioning cost grows mildly with k (more parts to refine)
    return base * (1.0 + 0.05 * key.k)


def partition_cells(cells: Sequence[CellKey], jobs: int) -> List[List[CellKey]]:
    """Split cells into ≤ ``jobs`` chunks, balanced by estimated cost
    (longest-processing-time greedy; deterministic)."""
    jobs = max(1, min(jobs, len(cells)))
    if jobs == 1:
        return [list(cells)]
    order = sorted(
        range(len(cells)), key=lambda i: (-cell_cost(cells[i]), i)
    )
    chunks: List[List[CellKey]] = [[] for _ in range(jobs)]
    loads = [0.0] * jobs
    for i in order:
        target = min(range(jobs), key=lambda j: (loads[j], j))
        chunks[target].append(cells[i])
        loads[target] += cell_cost(cells[i])
    return [c for c in chunks if c]


def replay_chunk(
    log,
    window_seconds: float,
    keys: Sequence[CellKey],
    execution: Optional[ExecutionSpec] = None,
) -> List[CellResult]:
    """Replay one chunk of cells in a single shared pass (worker body).

    ``log`` may be an interaction log or a :class:`LogSource`, which
    the worker resolves here — for a trace source, by mmap-ing the
    file in its own address space.  Also used inline as the sequential
    fallback, so the parallel and sequential paths execute literally
    the same code.  When ``execution`` is given, each cell's final
    assignment additionally replays through the sharded executor and
    the report lands in ``cell.execution``.
    """
    from repro.core.multireplay import MultiReplayEngine

    if isinstance(log, LogSource):
        log = log.load()
    methods = [key.method.make(key.k, seed=key.seed) for key in keys]
    replays = MultiReplayEngine(log, methods, metric_window=window_seconds).run()
    cells = [
        CellResult.from_replay(key, replay) for key, replay in zip(keys, replays)
    ]
    if execution is not None:
        from repro.experiments.execution import attach_execution

        attach_execution(log, cells, execution)
    return cells


def _start_method() -> str:
    import multiprocessing

    # no allow_none: resolve (and fix) the platform default, so the
    # fork checks below see "fork" on Linux even before any pool exists
    return multiprocessing.get_start_method()


def _pool_can_run(chunks: Sequence[Sequence[CellKey]]) -> bool:
    """Whether worker processes could resolve every chunk's methods.

    Runtime :func:`~repro.core.registry.register_method` registrations
    live only in this interpreter; ``fork``-started workers inherit
    them, but ``spawn``/``forkserver`` workers re-import a fresh
    registry and would fail on ``key.method.make(...)``.
    """
    from repro.core.registry import is_builtin_method

    if all(is_builtin_method(k.method.name) for c in chunks for k in c):
        return True
    return _start_method() == "fork"


#: (log, window, execution) shared with fork-started workers via
#: copy-on-write inheritance, so the log is never pickled through the
#: call pipe.
_FORK_SHARED = None


def _forked_chunk(keys: Sequence[CellKey]) -> List[CellResult]:
    log, window_seconds, execution = _FORK_SHARED
    return replay_chunk(log, window_seconds, keys, execution)


def run_chunks_parallel(
    log,
    window_seconds: float,
    chunks: Sequence[Sequence[CellKey]],
    jobs: int,
    on_chunk: Optional[Callable[[List[CellResult]], None]] = None,
    execution: Optional[ExecutionSpec] = None,
) -> List[List[CellResult]]:
    """Run chunks over a process pool; results align with ``chunks``.

    ``on_chunk`` fires with each chunk's results *as it completes*
    (callers persist cells incrementally, so an interrupted sweep keeps
    every finished chunk).  A :class:`LogSource` handle is pickled to
    the workers as-is (bytes never cross the pipe; each worker opens
    its own mmap), independent of the start method.  For in-memory
    logs with the ``fork`` start method, workers inherit the log via
    copy-on-write instead of receiving a pickled copy per chunk.
    Falls back to in-process execution when a pool cannot be created
    (restricted sandboxes) or when workers could not resolve a
    runtime-registered custom method, and recomputes inline every chunk
    a crashed worker (OOM kill, segfault) left undelivered; results are
    identical either way.
    """
    results: List[Optional[List[CellResult]]] = [None] * len(chunks)
    source_handle = isinstance(log, LogSource)

    def run_inline(indices):
        # resolve a source once for all inline chunks (lazily, so a
        # fallback with nothing left to recompute never opens it)
        resolved = log
        for i in indices:
            if isinstance(resolved, LogSource):
                resolved = resolved.load()
            results[i] = replay_chunk(
                resolved, window_seconds, chunks[i], execution
            )
            if on_chunk is not None:
                on_chunk(results[i])

    forked = _start_method() == "fork" and not source_handle
    # a buffer-backed (mmap) ColumnarLog cannot be pickled to spawn/
    # forkserver workers — without fork's copy-on-write inheritance the
    # chunks must run inline (callers wanting parallel mmap fan-out on
    # those platforms pass a TraceSource, which each worker opens)
    unpicklable_log = (
        not source_handle
        and not forked
        and isinstance(log, ColumnarLog)
        and not log.is_writable
    )
    if jobs <= 1 or len(chunks) <= 1 or not _pool_can_run(chunks) or unpicklable_log:
        run_inline(range(len(chunks)))
        return results

    import concurrent.futures as futures
    from concurrent.futures.process import BrokenProcessPool

    global _FORK_SHARED
    try:
        if forked:
            _FORK_SHARED = (log, window_seconds, execution)
        try:
            with futures.ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as ex:
                if forked:
                    handles = {
                        ex.submit(_forked_chunk, list(c)): i
                        for i, c in enumerate(chunks)
                    }
                else:
                    handles = {
                        ex.submit(
                            replay_chunk, log, window_seconds, list(c), execution
                        ): i
                        for i, c in enumerate(chunks)
                    }
                for handle in futures.as_completed(handles):
                    i = handles[handle]
                    results[i] = handle.result()
                    if on_chunk is not None:
                        on_chunk(results[i])
        finally:
            if forked:
                _FORK_SHARED = None
    except (OSError, PermissionError, BrokenProcessPool):
        # recompute only what the pool did not deliver
        run_inline(i for i in range(len(chunks)) if results[i] is None)
    return results
