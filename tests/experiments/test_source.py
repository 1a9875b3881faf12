"""LogSource threading: trace-backed specs, runners and worker pools.

The acceptance gate of the trace-backed data layer: ``run_experiment``
over a trace-file :class:`TraceSource` must produce cell-for-cell
identical results to the same grid run from the equivalent in-memory
synthetic workload, for ``jobs`` ∈ {1, 2} — the binary format, the
zero-copy loader, the spec plumbing and the mmap-per-worker pool path
all sit between those two runs.
"""

import pytest

from repro.experiments import (
    ExperimentSpec,
    LogSource,
    ResultStore,
    SyntheticSource,
    TraceSource,
    run_experiment,
)
from repro.graph.columnar import ColumnarLog
from repro.graph.io import write_columnar, write_trace

METHODS = ("hash", "fennel", "metis")


@pytest.fixture(scope="module")
def trace_file(tiny_workload, tmp_path_factory):
    """The tiny workload exported as a binary rctrace v2 file."""
    path = tmp_path_factory.mktemp("traces") / "tiny.rct"
    write_columnar(ColumnarLog(tiny_workload.builder.log), path)
    return path


@pytest.fixture(scope="module")
def synthetic_rs(tiny_workload):
    spec = ExperimentSpec(scale="tiny", workload_seed=42,
                          methods=METHODS, ks=(2, 4))
    return run_experiment(spec, workload=tiny_workload)


class TestSourceValues:
    def test_synthetic_identity_matches_legacy_workload_id(self):
        spec = ExperimentSpec(scale="tiny", workload_seed=7)
        assert spec.workload_id() == "tiny-w7-win24h"
        assert spec.log_source == SyntheticSource(scale="tiny", seed=7)
        assert not spec.is_trace_sourced

    def test_trace_path_normalises_to_trace_source(self, trace_file):
        spec = ExperimentSpec(source=str(trace_file))
        assert spec.source == TraceSource(path=str(trace_file))
        assert spec.is_trace_sourced
        assert spec.workload_id().startswith("trace-tiny-")
        with pytest.raises(ValueError, match="no\\s+synthetic workload config"):
            spec.workload_config()

    def test_synthetic_source_normalises_into_scale_seed(self):
        spec = ExperimentSpec(source=SyntheticSource(scale="tiny", seed=9))
        assert spec.source is None
        assert (spec.scale, spec.workload_seed) == ("tiny", 9)
        assert spec == ExperimentSpec(scale="tiny", workload_seed=9)

    def test_spec_json_round_trips_source(self, trace_file):
        spec = ExperimentSpec(source=str(trace_file), methods=("hash",))
        data = spec.to_dict()
        assert data["source"] == {"kind": "trace", "path": str(trace_file)}
        assert ExperimentSpec.from_dict(data) == spec
        # synthetic specs keep their pre-source JSON shape
        plain = ExperimentSpec(scale="tiny")
        assert "source" not in plain.to_dict()
        assert ExperimentSpec.from_dict(plain.to_dict()) == plain

    def test_log_source_from_dict_dispatch(self, trace_file):
        assert LogSource.from_dict(
            {"kind": "synthetic", "scale": "tiny", "seed": 3}
        ) == SyntheticSource(scale="tiny", seed=3)
        assert LogSource.from_dict(
            {"kind": "trace", "path": str(trace_file)}
        ) == TraceSource(path=str(trace_file))
        with pytest.raises(ValueError, match="unknown log-source kind"):
            LogSource.from_dict({"kind": "quantum"})

    def test_trace_identities_distinguish_paths(self, tmp_path):
        a = TraceSource(path=str(tmp_path / "a.rct"))
        b = TraceSource(path=str(tmp_path / "b.rct"))
        assert a.identity != b.identity
        assert a.identity == TraceSource(path=str(tmp_path / "a.rct")).identity


class TestTraceBitIdentity:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_run_equals_synthetic_run(self, trace_file, synthetic_rs, jobs):
        """The acceptance criterion: same grid, trace-file source,
        jobs ∈ {1, 2} — cell-for-cell identical results."""
        spec = ExperimentSpec(source=str(trace_file), methods=METHODS, ks=(2, 4))
        rs = run_experiment(spec, jobs=jobs)
        assert rs.keys() == synthetic_rs.keys()
        for key in rs.keys():
            assert rs.cell(key) == synthetic_rs.cell(key), key.label

    def test_warm_synthetic_run_equals_trace_run(self, trace_file, tiny_workload):
        """Regression: a synthetic source hands the engine a plain
        Interaction list, on which warm METIS used to fall back to its
        cold path — the warm cells must equal the trace's."""
        methods = ("metis?warm=true", "p-metis?warm=true", "tr-metis?warm=true")
        synthetic = run_experiment(
            ExperimentSpec(scale="tiny", workload_seed=42, methods=methods, ks=(2,)),
            workload=tiny_workload,
        )
        traced = run_experiment(
            ExperimentSpec(source=str(trace_file), methods=methods, ks=(2,)))
        assert traced.keys() == synthetic.keys()
        for key in traced.keys():
            assert traced.cell(key) == synthetic.cell(key), key.label

    def test_text_trace_source_also_bit_identical(
        self, tiny_workload, synthetic_rs, tmp_path
    ):
        """Text v1 now carries repr-precision timestamps, so even the
        human-readable format round-trips into identical replays."""
        path = tmp_path / "tiny.txt"
        write_trace(tiny_workload.builder.log, path)
        spec = ExperimentSpec(source=str(path), methods=METHODS, ks=(2, 4))
        rs = run_experiment(spec)
        for key in rs.keys():
            assert rs.cell(key) == synthetic_rs.cell(key), key.label

    def test_workload_arg_rejected_for_trace_specs(self, trace_file, tiny_workload):
        spec = ExperimentSpec(source=str(trace_file), methods=("hash",))
        with pytest.raises(ValueError, match="pass log="):
            run_experiment(spec, workload=tiny_workload)

    def test_preloaded_log_short_circuits_source(self, trace_file, tiny_workload):
        """run_experiment(log=...) replays a caller-opened log without
        touching the source (the 'preloaded log' entry point)."""
        from repro.graph.io import load_columnar

        spec = ExperimentSpec(source=str(trace_file), methods=("hash",), ks=(2,))
        preloaded = load_columnar(trace_file)
        opened = []
        orig = TraceSource.load
        try:
            TraceSource.load = lambda self: opened.append(self) or orig(self)
            rs = run_experiment(spec, log=preloaded)
        finally:
            TraceSource.load = orig
        assert not opened
        direct = run_experiment(spec)
        assert rs.cell(spec.cells()[0]) == direct.cell(spec.cells()[0])

    def test_log_and_workload_mutually_exclusive(self, tiny_workload):
        spec = ExperimentSpec(scale="tiny", methods=("hash",))
        with pytest.raises(ValueError, match="not both"):
            run_experiment(spec, workload=tiny_workload,
                           log=tiny_workload.builder.log)


class TestTraceResume:
    def test_trace_sweep_resumes_without_opening_the_trace(
        self, trace_file, tmp_path, monkeypatch
    ):
        """With every cell stored, a resumed trace sweep neither loads
        the trace nor replays a cell — resume is instant."""
        spec = ExperimentSpec(source=str(trace_file), methods=("hash", "fennel"),
                              ks=(2,))
        store = ResultStore(tmp_path / "results")
        first = run_experiment(spec, store=store)

        def boom(self):
            raise AssertionError("resumed trace run re-opened the trace")

        monkeypatch.setattr(TraceSource, "load", boom)
        second = run_experiment(spec, store=store)
        assert second == first

    def test_store_keys_trace_and_synthetic_apart(
        self, trace_file, tiny_workload, tmp_path
    ):
        """The trace identity is part of the store layout, so the same
        grid from different sources never collides."""
        store = ResultStore(tmp_path / "results")
        synth = ExperimentSpec(scale="tiny", methods=("hash",), ks=(2,))
        trace = ExperimentSpec(source=str(trace_file), methods=("hash",), ks=(2,))
        run_experiment(synth, workload=tiny_workload, store=store)
        run_experiment(trace, store=store)
        key = synth.cells()[0]
        assert store.cell_path(synth, key) != store.cell_path(trace, key)
        assert store.cell_path(synth, key).exists()
        assert store.cell_path(trace, key).exists()


class TestRunnerFacadeWithTrace:
    def test_trace_runner_grid_matches_synthetic_runner(
        self, trace_file, tiny_workload
    ):
        from repro.analysis.runner import ExperimentRunner

        synth = ExperimentRunner(scale="tiny", seed=42, metric_window_hours=24.0)
        synth._workload = tiny_workload
        traced = ExperimentRunner(metric_window_hours=24.0, source=str(trace_file))
        g1 = synth.replay_grid(("hash", "fennel"), (2,))
        g2 = traced.replay_grid(("hash", "fennel"), (2,))
        for key in g1:
            assert g1[key].series == g2[key].series
            assert g1[key].assignment.as_dict() == g2[key].assignment.as_dict()

    def test_trace_runner_has_log_but_no_workload(self, trace_file):
        from repro.analysis.runner import ExperimentRunner

        runner = ExperimentRunner(source=str(trace_file))
        assert len(runner.log) > 0
        assert runner.log is runner.log          # memoised
        with pytest.raises(ValueError, match="no\\s+synthetic workload"):
            runner.workload

    def test_runner_rejects_synthetic_source_value(self):
        from repro.analysis.runner import ExperimentRunner

        with pytest.raises(ValueError, match="scale=/seed="):
            ExperimentRunner(source=SyntheticSource(scale="tiny", seed=1))


class TestFigureDriversWithTrace:
    def test_fig5_and_pitfall_run_from_a_trace(self, trace_file):
        """--source is advertised for fig5/pitfall: both drivers must
        work off runner.log instead of the synthetic workload."""
        from repro.analysis.fig5 import compute_fig5
        from repro.analysis.pitfall import compute_pitfall
        from repro.analysis.runner import ExperimentRunner

        runner = ExperimentRunner(metric_window_hours=24.0,
                                  source=str(trace_file))
        rows = compute_fig5(runner, ks=(2,), methods=("hash",))
        assert len(rows) == 1 and rows[0].method == "hash"
        pit = compute_pitfall(runner, k=2, methods=("hash",))
        assert {r.method for r in pit} == {"single-shard", "hash", "random"}
        assert all(r.throughput > 0 for r in pit)


class TestUnpicklableLogFanOut:
    def test_mmap_log_with_spawn_runs_inline(self, trace_file, monkeypatch):
        """A buffer-backed ColumnarLog cannot cross a spawn pool; the
        fan-out must fall back inline instead of raising a pickling
        TypeError."""
        import repro.experiments.parallel as parallel
        from repro.graph.io import load_columnar
        from repro.graph.snapshot import HOUR

        spec = ExperimentSpec(source=str(trace_file),
                              methods=("hash", "fennel"), ks=(2, 4))
        chunks = parallel.partition_cells(list(spec.cells()), 2)
        mmapped = load_columnar(trace_file)
        monkeypatch.setattr(parallel, "_start_method", lambda: "spawn")
        out = parallel.run_chunks_parallel(mmapped, 24 * HOUR, chunks, 2)
        cells = [c for chunk in out for c in chunk]
        assert sorted(c.key.label for c in cells) == sorted(
            k.label for k in spec.cells()
        )
        # ...and the TraceSource handle still fans out under any start
        # method (each worker opens the mmap itself)
        src = TraceSource(path=str(trace_file))
        out2 = parallel.run_chunks_parallel(src, 24 * HOUR, chunks, 2)
        assert [[c.key for c in chunk] for chunk in out2] == [
            [c.key for c in chunk] for chunk in out
        ]


class TestTracePathPinning:
    def test_relative_path_pinned_at_construction(self, trace_file, monkeypatch):
        """A TraceSource built from a relative path keeps its identity
        (and loadability) when the consumer's cwd changes — store
        resume must not silently recompute from another directory."""
        import os

        monkeypatch.chdir(trace_file.parent)
        src = TraceSource(path=trace_file.name)
        assert os.path.isabs(src.path)
        assert src == TraceSource(path=str(trace_file))
        pinned = src.identity
        monkeypatch.chdir(trace_file.parent.parent)
        assert src.identity == pinned
        assert len(src.load()) > 0            # loads from anywhere


class TestV3TraceSource:
    """Version-agnostic sniffing: a compressed v3 trace behaves exactly
    like its v2 twin behind TraceSource / ExperimentSpec."""

    @pytest.fixture(scope="class")
    def v3_trace_file(self, tiny_workload, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "tiny_v3.rct"
        write_columnar(ColumnarLog(tiny_workload.builder.log), path, version=3)
        return path

    def test_v3_loads_identical_to_v2(self, trace_file, v3_trace_file):
        v2_log = TraceSource(path=str(trace_file)).load()
        v3_log = TraceSource(path=str(v3_trace_file)).load()
        assert v3_log.identical(v2_log)

    def test_v3_is_smaller_than_v2(self, trace_file, v3_trace_file):
        assert v3_trace_file.stat().st_size < trace_file.stat().st_size

    def test_v3_sweep_is_cell_identical_to_synthetic(self, v3_trace_file,
                                                     synthetic_rs):
        spec = ExperimentSpec(source=str(v3_trace_file),
                              methods=METHODS, ks=(2, 4))
        rs = run_experiment(spec)
        assert set(rs.keys()) == set(synthetic_rs.keys())
        for key in synthetic_rs.keys():
            assert rs.cell(key) == synthetic_rs.cell(key)
