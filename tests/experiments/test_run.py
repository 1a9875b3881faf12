"""run_experiment: legacy bit-identity, parallel fan-out, resume.

The acceptance gate of the experiment-API redesign: spec-driven runs
must be bit-identical to independent legacy
:class:`~repro.core.replay.ReplayEngine` replays (the semantics every
figure was validated against), for any ``jobs``, and resumed runs must
re-execute zero completed cells.
"""

import multiprocessing
import os

import pytest

from repro.core.registry import PAPER_ORDER, make_method
from repro.core.replay import ReplayEngine
from repro.experiments import (
    CellKey,
    ExperimentSpec,
    MethodSpec,
    ResultStore,
    run_experiment,
)
from repro.graph.snapshot import HOUR


@pytest.fixture(scope="module")
def paper_spec():
    """The paper's five-method set at k=2 on the tiny workload."""
    return ExperimentSpec(
        scale="tiny", workload_seed=42, methods=tuple(PAPER_ORDER), ks=(2,),
        window_hours=24.0,
    )


@pytest.fixture(scope="module")
def paper_rs(paper_spec, tiny_workload):
    return run_experiment(paper_spec, workload=tiny_workload)


class TestBitIdentity:
    def test_matches_legacy_replay_engine(self, paper_spec, paper_rs, tiny_workload):
        """Every cell equals an independent legacy ReplayEngine run."""
        log = tiny_workload.builder.log
        for key in paper_spec.cells():
            legacy = ReplayEngine(
                log,
                make_method(key.method.name, key.k, seed=key.seed),
                metric_window=24 * HOUR,
            ).run()
            cell = paper_rs.cell(key)
            assert cell.series == legacy.series
            assert cell.events == list(legacy.events)
            assert cell.assignment == legacy.assignment.as_dict()
            assert cell.shard_weights == legacy.assignment.weights
            assert cell.total_moves == legacy.total_moves

    def test_matches_legacy_runner_grid(self, paper_spec, paper_rs, tiny_workload):
        """...and the runner facade returns the same data per cell."""
        from repro.analysis.runner import ExperimentRunner

        runner = ExperimentRunner(scale="tiny", seed=42, metric_window_hours=24.0)
        runner._workload = tiny_workload
        grid = runner.replay_grid(PAPER_ORDER, (2,), seed=1)
        for (name, k), replay in grid.items():
            cell = paper_rs.get(name, k)
            assert cell.series == replay.series
            assert cell.assignment == replay.assignment.as_dict()

    def test_parallel_identical_to_sequential(self, paper_spec, paper_rs, tiny_workload):
        par = run_experiment(paper_spec, jobs=2, workload=tiny_workload)
        assert par == paper_rs
        par3 = run_experiment(paper_spec, jobs=3, workload=tiny_workload)
        assert par3 == paper_rs


class TestRunPlanning:
    def test_only_restricts_cells(self, paper_spec, tiny_workload):
        key = CellKey(MethodSpec.parse("hash"), 2, 1)
        rs = run_experiment(paper_spec, workload=tiny_workload, only=[key])
        assert rs.keys() == (key,)

    def test_only_rejects_foreign_cells(self, paper_spec, tiny_workload):
        foreign = CellKey(MethodSpec.parse("hash"), 64, 1)
        with pytest.raises(ValueError, match="not in the spec's grid"):
            run_experiment(paper_spec, workload=tiny_workload, only=[foreign])

    def test_jobs_validated(self, paper_spec):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(paper_spec, jobs=0)

    def test_mismatched_workload_rejected(self, paper_spec):
        """A workload that does not match the spec must not replay (its
        results would be stored under the wrong identity)."""
        from repro.ethereum.workload import WorkloadConfig, generate_history

        wrong = generate_history(WorkloadConfig.tiny(seed=7))   # spec seed is 42
        with pytest.raises(ValueError, match="does not match the"):
            run_experiment(paper_spec, workload=wrong)

    def test_lazy_workload_not_generated_on_full_resume(self, paper_spec, tiny_workload, tmp_path):
        """With every cell in the store, a callable workload is never
        invoked — resumption costs no workload generation."""
        store = ResultStore(tmp_path / "results")
        first = run_experiment(paper_spec, workload=tiny_workload, store=store)

        def explode():
            raise AssertionError("workload generated on a fully-resumed run")

        second = run_experiment(paper_spec, workload=explode, store=store)
        assert second == first

    def test_callable_workload_used_when_cells_pending(self, paper_spec, tiny_workload):
        calls = []

        def provide():
            calls.append(1)
            return tiny_workload

        rs = run_experiment(paper_spec, workload=provide,
                            only=[paper_spec.cells()[0]])
        assert calls == [1]
        assert len(rs) == 1

    def test_distinct_replay_seeds_are_distinct_cells(self, tiny_workload):
        """Seeds must not collide: each (method, k, seed) is its own
        cell with its own independently-seeded method instance."""
        spec = ExperimentSpec(
            scale="tiny", methods=("metis",), ks=(2,), replay_seeds=(1, 2),
        )
        rs = run_experiment(spec, workload=tiny_workload)
        assert len(rs) == 2
        a = rs.get("metis", 2, seed=1)
        b = rs.get("metis", 2, seed=2)
        assert a.key != b.key
        # seeded METIS ntrials differ → assignments genuinely diverge
        assert a.assignment != b.assignment

    def test_progress_callback(self, paper_spec, tiny_workload):
        seen = []
        run_experiment(
            paper_spec, workload=tiny_workload,
            progress=lambda key, outcome: seen.append((key, outcome)),
        )
        assert [k for k, _ in seen] == list(paper_spec.cells())
        assert {o for _, o in seen} == {"computed"}


class TestResume:
    def test_resume_executes_zero_cells(self, paper_spec, tiny_workload, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "results")
        first = run_experiment(paper_spec, workload=tiny_workload, store=store)

        # poison the engine: any attempt to replay a cell now explodes
        import repro.core.multireplay as multireplay
        import repro.experiments.parallel as parallel

        def boom(*args, **kwargs):
            raise AssertionError("resumed run re-executed a cell")

        monkeypatch.setattr(multireplay, "MultiReplayEngine", boom)
        monkeypatch.setattr(parallel, "run_chunks_parallel", boom)

        outcomes = []
        second = run_experiment(
            paper_spec, workload=tiny_workload, store=store,
            progress=lambda key, outcome: outcomes.append(outcome),
        )
        assert second == first
        assert outcomes == ["loaded"] * len(paper_spec.cells())

    def test_partial_resume_completes_missing_cells(self, paper_spec, tiny_workload, tmp_path):
        store = ResultStore(tmp_path / "results")
        cells = paper_spec.cells()
        head, tail = cells[:2], cells[2:]
        run_experiment(paper_spec, workload=tiny_workload, store=store, only=head)
        outcomes = {}
        full = run_experiment(
            paper_spec, workload=tiny_workload, store=store,
            progress=lambda key, outcome: outcomes.__setitem__(key, outcome),
        )
        assert len(full) == len(cells)
        assert all(outcomes[k] == "loaded" for k in head)
        assert all(outcomes[k] == "computed" for k in tail)

    def test_store_ignores_corrupt_cell(self, paper_spec, tiny_workload, tmp_path):
        store = ResultStore(tmp_path / "results")
        run_experiment(paper_spec, workload=tiny_workload, store=store)
        key = paper_spec.cells()[0]
        store.cell_path(paper_spec, key).write_text("{not json", encoding="utf-8")
        assert store.load(paper_spec, key) is None
        rs = run_experiment(paper_spec, workload=tiny_workload, store=store)
        assert rs.cell(key).series.points  # recomputed cleanly

    def test_store_rejects_mismatched_key(self, paper_spec, tiny_workload, tmp_path):
        store = ResultStore(tmp_path / "results")
        rs = run_experiment(paper_spec, workload=tiny_workload, store=store)
        a, b = paper_spec.cells()[0], paper_spec.cells()[1]
        # masquerade: copy cell b's file over cell a's path
        store.cell_path(paper_spec, a).write_text(
            store.cell_path(paper_spec, b).read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert store.load(paper_spec, a) is None

    def test_concurrent_saves_of_one_cell_both_succeed(
            self, paper_spec, paper_rs, tmp_path, monkeypatch):
        """A second writer saving the same cell between the first
        writer's write and its rename must not pull the first writer's
        temp file away (a shared ``<cell>.json.tmp`` did)."""
        import os

        import repro.experiments.store as store_mod

        store = ResultStore(tmp_path / "results")
        cell = paper_rs.cell(paper_spec.cells()[0])
        real_replace = os.replace
        interleaved = []

        def replace(src, dst):
            if not interleaved:
                interleaved.append(src)
                store.save(paper_spec, cell)  # the second writer
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", replace)
        path = store.save(paper_spec, cell)
        assert interleaved
        assert store.load(paper_spec, cell.key) == cell
        assert [p.name for p in path.parent.iterdir()] == [path.name]


class TestCustomMethodsInPools:
    def test_runtime_registrations_run_inline_without_fork(self, tiny_workload, monkeypatch):
        """Runtime-registered methods only exist in this interpreter;
        without fork semantics the pool must be skipped, not crashed."""
        import multiprocessing

        import repro.experiments.parallel as parallel
        from repro.core.hashing import HashPartitioner
        from repro.core.registry import _FACTORIES, register_method

        class Custom(HashPartitioner):
            name = "custom-hash"

        register_method("custom-hash", Custom)
        try:
            spec = ExperimentSpec(
                scale="tiny", methods=("hash", "custom-hash"), ks=(2, 4),
            )
            chunks = [[k] for k in spec.cells()]
            monkeypatch.setattr(
                multiprocessing, "get_start_method", lambda allow_none=True: "spawn"
            )
            assert not parallel._pool_can_run(chunks)
            # ...and the full path still produces correct results inline
            rs = run_experiment(spec, jobs=2, workload=tiny_workload)
            assert len(rs) == 4
            # built-in-only grids may still pool under spawn
            builtin = [[k] for k in ExperimentSpec(scale="tiny").cells()]
            assert parallel._pool_can_run(builtin)
        finally:
            _FACTORIES.pop("custom-hash", None)


class TestIncrementalPersistence:
    def test_on_chunk_fires_per_completed_chunk(self, tiny_workload):
        import repro.experiments.parallel as parallel

        spec = ExperimentSpec(scale="tiny", methods=("hash", "fennel"), ks=(2, 4))
        chunks = parallel.partition_cells(list(spec.cells()), 2)
        delivered = []
        out = parallel.run_chunks_parallel(
            tiny_workload.builder.log, 24 * HOUR, chunks, 2,
            on_chunk=delivered.append,
        )
        assert len(delivered) == len(chunks)
        # every chunk's results were delivered exactly once, aligned
        assert sorted(c.key.label for r in delivered for c in r) == sorted(
            c.key.label for r in out for c in r
        )

    def test_parallel_cells_persist_as_chunks_finish(self, tiny_workload, tmp_path):
        """run_experiment saves through on_chunk (not after the whole
        grid), so finished chunks survive an interruption."""
        import repro.experiments.run as runmod

        spec = ExperimentSpec(scale="tiny", methods=("hash", "fennel"), ks=(2, 4))
        store = ResultStore(tmp_path / "results")
        seen_on_disk = []
        orig = runmod.run_chunks_parallel

        def spying(log, window, chunks, jobs, on_chunk=None, **kw):
            def wrapped(cells):
                on_chunk(cells)
                # immediately after each chunk lands, its cells must
                # already be on disk
                for c in cells:
                    seen_on_disk.append(store.load(spec, c.key) is not None)
            return orig(log, window, chunks, jobs, on_chunk=wrapped, **kw)

        runmod.run_chunks_parallel = spying
        try:
            run_experiment(spec, jobs=2, workload=tiny_workload, store=store)
        finally:
            runmod.run_chunks_parallel = orig
        assert seen_on_disk and all(seen_on_disk)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the crash is injected into fork-started workers")
    def test_crashed_worker_chunks_recompute_inline(
            self, tiny_workload, tmp_path, monkeypatch):
        """A worker that dies mid-chunk (OOM kill, segfault) breaks the
        pool; the sweep recomputes the undelivered chunks inline and
        stores every cell once."""
        import repro.experiments.parallel as parallel

        spec = ExperimentSpec(scale="tiny", methods=("hash", "fennel"), ks=(2, 4))
        expected = run_experiment(spec, jobs=1, workload=tiny_workload).dumps()

        parent = os.getpid()
        real_chunk = parallel.replay_chunk

        def crash_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return real_chunk(*args, **kwargs)

        monkeypatch.setattr(parallel, "replay_chunk", crash_in_worker)
        store = ResultStore(tmp_path / "results")
        saved = []
        real_save = store.save

        def save(spec_, cell):
            saved.append(cell.key)
            return real_save(spec_, cell)

        monkeypatch.setattr(store, "save", save)
        rs = run_experiment(spec, jobs=2, workload=tiny_workload, store=store)
        assert rs.dumps() == expected
        assert sorted(k.label for k in saved) == sorted(k.label for k in spec.cells())
