"""``run_experiment``: plan the grid, resume, fan out, collect.

The one entry point of the declarative experiment API::

    spec = ExperimentSpec(scale="small", methods=PAPER_ORDER, ks=(2, 4, 8))
    rs = run_experiment(spec, jobs=4, store=ResultStore("results/"))
    rs.get("metis", k=8).mean("dynamic_edge_cut")

Execution plan:

1. enumerate the grid cells (``spec.cells()``, optionally restricted
   with ``only=``);
2. load completed cells from the ``store`` — a resumed sweep
   re-executes *zero* finished cells;
3. replay the remaining cells: one shared
   :class:`~repro.core.multireplay.MultiReplayEngine` pass when
   ``jobs<=1``, else cost-balanced chunks over a process pool
   (:mod:`repro.experiments.parallel`), each chunk sharing one stream;
4. persist fresh cells to the store and return a
   :class:`~repro.experiments.results.ResultSet`.

Results are bit-identical to independent legacy
:class:`~repro.core.replay.ReplayEngine` runs for any ``jobs`` — the
engine's fan-out is the unit of equivalence, asserted in
``tests/experiments/test_run.py`` — and to the equivalent synthetic
replay when the spec names a trace file exported from that workload
(``tests/experiments/test_source.py``).

Trace-sourced specs (``spec.source``) never generate a workload: the
sequential path memory-maps the trace once, and the parallel path
ships the tiny :class:`~repro.experiments.source.TraceSource` value to
each worker, which opens the mmap itself — no fork inheritance, no
pickled logs, instant resume.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Optional, Sequence, Union

from repro.ethereum.workload import WorkloadResult, generate_history
from repro.experiments.parallel import partition_cells, replay_chunk, run_chunks_parallel
from repro.experiments.results import CellResult, ResultSet
from repro.experiments.spec import CellKey, ExperimentSpec
from repro.experiments.store import ResultStore

#: ``log=`` accepts a preloaded log (ColumnarLog or interaction
#: sequence) or a zero-arg callable producing one (lazy, like
#: ``workload=``).
LogLike = Union[Sequence, Callable[[], Sequence], None]


def run_experiment(
    spec: ExperimentSpec,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    workload: Union[WorkloadResult, Callable[[], WorkloadResult], None] = None,
    log: LogLike = None,
    only: Optional[Collection[CellKey]] = None,
    progress: Optional[Callable[[CellKey, str], None]] = None,
) -> ResultSet:
    """Run (or resume) an experiment; returns its :class:`ResultSet`.

    Args:
        spec: the declarative grid.
        jobs: worker processes; ``1`` replays every cell in one shared
            single-pass stream, ``N>1`` fans cost-balanced chunks out
            over a process pool (one shared stream per worker; for
            trace-sourced specs every worker mmaps the trace itself).
        store: optional on-disk store; completed cells are loaded
            instead of recomputed and fresh cells are persisted.
        workload: pre-generated workload matching the spec's scale and
            seed (e.g. a runner's memoised one), or a zero-arg callable
            producing it; generated/called on demand only when at
            least one cell must actually run (a fully-resumed sweep
            never pays for workload generation).  A workload whose
            config does not match the spec is rejected — its results
            would be silently persisted under the wrong store identity.
            Invalid for trace-sourced specs.
        log: preloaded interaction log (or a zero-arg callable
            producing one) to replay instead of resolving the spec's
            source — e.g. a :class:`~repro.graph.columnar.ColumnarLog`
            already mmap-ed by the caller.  The caller vouches that it
            matches the spec's source identity.  Mutually exclusive
            with ``workload``.
        only: restrict execution to this subset of ``spec.cells()``
            (callers with their own caches pass just their misses).
        progress: callback ``(cell, outcome)`` with outcome one of
            ``"loaded"`` / ``"computed"``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if workload is not None and log is not None:
        raise ValueError("pass either workload= or log=, not both")
    if workload is not None and spec.is_trace_sourced:
        raise ValueError(
            f"spec replays trace {spec.source.path!r}; pass log= (a "
            "preloaded log) instead of workload="
        )
    cells = spec.cells()
    if only is not None:
        wanted = set(only)
        unknown = wanted - set(cells)
        if unknown:
            raise ValueError(
                f"cells not in the spec's grid: "
                f"{', '.join(sorted(k.label for k in unknown))}"
            )
        cells = tuple(k for k in cells if k in wanted)

    done: Dict[CellKey, CellResult] = {}
    if store is not None:
        done = store.load_known(spec, cells)
        if progress is not None:
            for key in cells:
                if key in done:
                    progress(key, "loaded")
    pending = [k for k in cells if k not in done]

    if pending:
        if callable(log):
            log = log()
        if log is not None:
            handle = log
        elif spec.is_trace_sourced:
            # the source itself is the handle: the sequential path
            # loads it once below; the parallel path pickles it to the
            # workers, which open the mmap independently
            handle = spec.source
        else:
            if callable(workload):
                workload = workload()
            if workload is None:
                workload = generate_history(spec.workload_config())
            elif workload.config != spec.workload_config():
                raise ValueError(
                    f"workload config {workload.config} does not match the "
                    f"spec's {spec.workload_config()} ({spec.workload_id()}); "
                    "results would be stored under the wrong identity"
                )
            handle = workload.builder.log
        window = spec.window_seconds
        def collect(cell: CellResult) -> None:
            done[cell.key] = cell
            if store is not None:
                store.save(spec, cell)
            if progress is not None:
                progress(cell.key, "computed")

        if jobs == 1 or len(pending) == 1:
            # one shared stream for the whole remaining grid
            for cell in replay_chunk(handle, window, pending, spec.execution):
                collect(cell)
        else:
            # cells persist chunk-by-chunk as workers finish, so an
            # interrupted parallel sweep keeps every completed chunk
            chunks = partition_cells(pending, jobs)
            run_chunks_parallel(
                handle, window, chunks, jobs,
                on_chunk=lambda cells: [collect(c) for c in cells],
                execution=spec.execution,
            )

    return ResultSet(spec, done)


# re-exported convenience: one-call sequential chunk replay (used by
# benchmarks that want engine-level timing without pool overhead)
__all__ = ["run_experiment", "replay_chunk"]
