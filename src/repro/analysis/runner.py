"""Back-compat experiment facade over :mod:`repro.experiments`.

:class:`ExperimentRunner` keeps the call-style API the figures,
benchmarks and tests grew up with (``replay`` / ``replay_many`` /
``replay_grid``), but is now a thin memoising facade over the
declarative pipeline: every request becomes an
:class:`~repro.experiments.spec.ExperimentSpec` and executes through
:func:`~repro.experiments.run.run_experiment`, so the runner, the CLI
and standalone specs share one execution path (single-pass shared
streaming, optional process-pool fan-out, optional on-disk resume).

Parameterised replays are first-class now: ``method_kwargs`` become
part of the :class:`~repro.experiments.spec.MethodSpec` cache key, so
``replay("tr-metis", 2, cut_threshold=0.25)`` is memoised exactly like
the plain methods (the old behaviour silently bypassed the cache).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.replay import ReplayResult
from repro.ethereum.workload import WorkloadResult, generate_history
from repro.experiments.results import CellResult, ResultSet
from repro.experiments.run import run_experiment
from repro.experiments.source import SourceLike, TraceSource, as_log_source
from repro.experiments.spec import (  # re-exported for back-compat
    SCALES,
    CellKey,
    ExecutionSpec,
    ExperimentSpec,
    MethodSpec,
    config_for_scale,
)
from repro.experiments.store import ResultStore
from repro.graph.snapshot import HOUR

__all__ = ["SCALES", "config_for_scale", "ExperimentRunner"]

MethodLike = Union[str, MethodSpec]


class ExperimentRunner:
    """Memoising facade over workload generation and method replays."""

    def __init__(
        self,
        scale: str = "small",
        seed: int = 42,
        metric_window_hours: float = 24.0,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        source: Optional[SourceLike] = None,
        execution: Union[str, ExecutionSpec, None] = None,
    ):
        """Args:
            jobs: worker processes for uncached grid cells (1 =
                in-process single-pass streaming).
            store: optional on-disk :class:`ResultStore` so replays
                resume across runner instances and processes.
            source: replay a trace file (path or
                :class:`~repro.experiments.source.TraceSource`)
                instead of the synthetic ``scale``/``seed`` workload.
                Trace-backed runners have a :attr:`log` but no
                :attr:`workload` (there is no chain/state behind a
                trace), so figure drivers needing the substrate
                (fig1/fig2) require a synthetic runner.
            execution: optional :class:`ExecutionSpec` (or its string
                form, e.g. ``"mode=migrate"``); every spec this runner
                builds carries it, so cells gain throughput/latency
                reports from the sharded executor.
        """
        self.scale = scale
        self.seed = seed
        self.metric_window = metric_window_hours * HOUR
        self.jobs = jobs
        self.store = store
        self.source: Optional[TraceSource] = None
        if source is not None:
            source = as_log_source(source)
            if not isinstance(source, TraceSource):
                raise ValueError(
                    "runner source= takes a trace; spell synthetic "
                    "workloads through scale=/seed="
                )
            self.source = source
        self.execution: Optional[ExecutionSpec] = (
            ExecutionSpec.parse(execution) if execution is not None else None
        )
        self._workload: Optional[WorkloadResult] = None
        self._log = None
        self._cells: Dict[CellKey, CellResult] = {}
        self._replays: Dict[CellKey, ReplayResult] = {}

    @property
    def window_hours(self) -> float:
        return self.metric_window / HOUR

    @property
    def workload(self) -> WorkloadResult:
        if self.source is not None:
            raise ValueError(
                f"runner replays trace {self.source.path!r}; there is no "
                "synthetic workload (chain/state) behind it — use .log"
            )
        if self._workload is None:
            self._workload = generate_history(config_for_scale(self.scale, self.seed))
        return self._workload

    @property
    def log(self):
        """The interaction log replays stream (memoised).

        For trace-backed runners this opens the trace once (an O(1)
        mmap for binary rctrace files); otherwise it is the synthetic
        workload's boxed log.  A preloaded
        :class:`~repro.graph.columnar.ColumnarLog` can be injected by
        assigning ``runner._log`` (mirrors ``runner._workload``).
        """
        if self._log is None:
            if self.source is not None:
                self._log = self.source.load()
            else:
                self._log = self.workload.builder.log
        return self._log

    # -- declarative surface -------------------------------------------

    def spec(
        self,
        methods: Sequence[MethodLike],
        ks: Sequence[int],
        seeds: Sequence[int] = (1,),
    ) -> ExperimentSpec:
        """An :class:`ExperimentSpec` bound to this runner's workload."""
        return ExperimentSpec(
            scale=self.scale,
            workload_seed=self.seed,
            methods=tuple(methods),
            ks=tuple(ks),
            window_hours=self.window_hours,
            replay_seeds=tuple(seeds),
            source=self.source,
            execution=self.execution,
        )

    def run(self, spec: ExperimentSpec) -> ResultSet:
        """Execute a spec through the runner's memo.

        The spec must match the runner's workload identity (scale,
        seed, window) — the memoised cells are only valid for it.
        """
        own = self.spec(spec.methods, spec.ks, spec.replay_seeds)
        if spec != own:
            raise ValueError(
                f"spec workload {spec.workload_id()!r} does not match this "
                f"runner's {own.workload_id()!r}; use run_experiment() directly"
            )
        missing = [key for key in spec.cells() if key not in self._cells]
        if missing:
            # lazy handles: a fully-store-resumed run neither generates
            # the workload nor opens the trace; the memos still kick in
            # when a cell actually replays.  A trace-backed runner with
            # jobs>1 passes nothing at all — run_experiment hands the
            # spec's TraceSource to the workers, which mmap it
            # themselves (an mmap-backed log must not cross processes).
            if self.source is not None:
                handles = {} if self.jobs > 1 else {"log": lambda: self.log}
            else:
                handles = {"workload": lambda: self.workload}
            rs = run_experiment(
                spec,
                jobs=self.jobs,
                store=self.store,
                only=missing,
                **handles,
            )
            for key in missing:
                self._cells[key] = rs.cell(key)
        return ResultSet(spec, {key: self._cells[key] for key in spec.cells()})

    def results_for(
        self,
        methods: Sequence[MethodLike],
        ks: Sequence[int],
        seed: int = 1,
    ) -> ResultSet:
        """Grid results as a :class:`ResultSet` (the figures' entry)."""
        return self.run(self.spec(methods, ks, (seed,)))

    # -- legacy call-style surface -------------------------------------

    def _cell_key(self, method: MethodLike, k: int, seed: int, **kwargs) -> CellKey:
        spec = MethodSpec.parse(method)
        if kwargs:
            spec = MethodSpec(spec.name, spec.params + tuple(kwargs.items()))
        return CellKey(method=spec, k=k, seed=seed)

    def replay(
        self, method_name: MethodLike, k: int, seed: int = 1, **method_kwargs
    ) -> ReplayResult:
        """Replay the workload through a method (cached).

        ``method_kwargs`` are part of the cache key (via the method's
        :class:`MethodSpec`), so parameterised replays are memoised
        like everything else.  Returns the legacy
        :class:`ReplayResult` view of the cell.
        """
        key = self._cell_key(method_name, k, seed, **method_kwargs)
        if key not in self._cells:
            self.run(self.spec((key.method,), (k,), (seed,)))
        return self._replay_of(key)

    def replay_many(
        self, method_names: Sequence[MethodLike], k: int, seed: int = 1
    ) -> Dict[str, ReplayResult]:
        """Replay several methods at one shard count in a single pass.

        Uncached methods share one engine stream; returns name → result
        keyed by the names as given.
        """
        grid = self.replay_grid(method_names, (k,), seed=seed)
        return {m: grid[(m, k)] for m in method_names}

    def replay_grid(
        self, method_names: Sequence[MethodLike], ks: Sequence[int], seed: int = 1
    ) -> Dict[Tuple[MethodLike, int], ReplayResult]:
        """Replay a (method × shard-count) grid in a single pass.

        All uncached combinations fan out of one shared log stream (or
        a process pool when the runner was built with ``jobs > 1``).
        Returns (name, k) → result, keyed by the names as given.
        """
        self.run(self.spec(tuple(method_names), tuple(ks), (seed,)))
        return {
            (name, k): self._replay_of(self._cell_key(name, k, seed))
            for name in method_names
            for k in ks
        }

    def _replay_of(self, key: CellKey) -> ReplayResult:
        """The memoised :class:`ReplayResult` view of a computed cell."""
        if key not in self._replays:
            self._replays[key] = self._cells[key].to_replay_result()
        return self._replays[key]
