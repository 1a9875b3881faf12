"""ExperimentRunner facade: caching semantics over the experiment API.

Covers the redesign's back-compat contract: parameterised replays now
participate in the memo (the old kwargs path silently bypassed it),
replay seeds key the cache, and registry aliases share a factory but
not cache entries.
"""

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.core.replay import ReplayEngine
from repro.experiments import ResultStore
from repro.graph.snapshot import HOUR


@pytest.fixture()
def tiny_runner(tiny_workload):
    runner = ExperimentRunner(scale="tiny", seed=42, metric_window_hours=24.0)
    runner._workload = tiny_workload
    return runner


class TestParameterisedCaching:
    def test_kwargs_replays_are_cached(self, tiny_runner):
        a = tiny_runner.replay("hash", 2, seed=1, salt=3)
        b = tiny_runner.replay("hash", 2, seed=1, salt=3)
        assert a is b

    def test_kwargs_distinguish_cache_entries(self, tiny_runner):
        a = tiny_runner.replay("hash", 2, seed=1)
        b = tiny_runner.replay("hash", 2, seed=1, salt=3)
        assert a is not b

    def test_cached_parameterised_run_bit_identical_to_fresh(self, tiny_runner, tiny_workload):
        """Regression for the old kwargs wart: the memoised result of a
        parameterised replay must equal a fresh engine run exactly."""
        kwargs = dict(cut_threshold=0.3, balance_threshold=0.3)
        cached = tiny_runner.replay("tr-metis", 2, seed=1, **kwargs)
        assert tiny_runner.replay("tr-metis", 2, seed=1, **kwargs) is cached

        from repro.core.registry import make_method

        fresh = ReplayEngine(
            tiny_workload.builder.log,
            make_method("tr-metis", 2, seed=1, **kwargs),
            metric_window=24 * HOUR,
        ).run()
        assert cached.series == fresh.series
        assert list(cached.events) == list(fresh.events)
        assert cached.assignment.as_dict() == fresh.assignment.as_dict()

    def test_method_string_equivalent_to_kwargs(self, tiny_runner):
        a = tiny_runner.replay("tr-metis?cut_threshold=0.3", 2, seed=1,
                               balance_threshold=0.3)
        b = tiny_runner.replay("tr-metis", 2, seed=1,
                               cut_threshold=0.3, balance_threshold=0.3)
        assert a is b


class TestSeedHandling:
    def test_grid_seeds_do_not_collide(self, tiny_runner):
        g1 = tiny_runner.replay_grid(("metis",), (2,), seed=1)
        g2 = tiny_runner.replay_grid(("metis",), (2,), seed=2)
        assert g1[("metis", 2)] is not g2[("metis", 2)]
        # both survive in the memo (the second run must not evict or
        # overwrite the first)
        assert tiny_runner.replay("metis", 2, seed=1) is g1[("metis", 2)]
        assert tiny_runner.replay("metis", 2, seed=2) is g2[("metis", 2)]
        # seeded multilevel trials genuinely diverge
        assert (g1[("metis", 2)].assignment.as_dict()
                != g2[("metis", 2)].assignment.as_dict())

    def test_aliases_share_factory_but_not_cache_entries(self, tiny_runner):
        grid = tiny_runner.replay_grid(("p-metis", "r-metis"), (2,), seed=1)
        p, r = grid[("p-metis", 2)], grid[("r-metis", 2)]
        assert p is not r
        # same factory → same decisions, entry-for-entry
        assert p.series == r.series
        assert p.assignment.as_dict() == r.assignment.as_dict()


class TestFacadeOverSpecs:
    def test_results_for_shares_cells_with_replay(self, tiny_runner):
        rs = tiny_runner.results_for(("hash", "metis"), (2,), seed=1)
        replay = tiny_runner.replay("metis", 2, seed=1)
        assert rs.get("metis", 2).series is replay.series

    def test_run_rejects_foreign_spec(self, tiny_runner):
        from repro.experiments import ExperimentSpec

        foreign = ExperimentSpec(scale="tiny", workload_seed=7, methods=("hash",))
        with pytest.raises(ValueError, match="does not match this runner"):
            tiny_runner.run(foreign)

    def test_runner_with_store_resumes(self, tiny_workload, tmp_path):
        store = ResultStore(tmp_path / "results")
        r1 = ExperimentRunner(scale="tiny", seed=42, store=store)
        r1._workload = tiny_workload
        first = r1.replay("fennel", 2, seed=1)

        # a brand-new runner (fresh memo) loads from the store instead
        # of recomputing
        r2 = ExperimentRunner(scale="tiny", seed=42, store=store)
        r2._workload = tiny_workload
        second = r2.replay("fennel", 2, seed=1)
        assert second.series == first.series
        assert second.assignment.as_dict() == first.assignment.as_dict()

    def test_runner_parallel_jobs_match_sequential(self, tiny_workload):
        seq = ExperimentRunner(scale="tiny", seed=42)
        seq._workload = tiny_workload
        par = ExperimentRunner(scale="tiny", seed=42, jobs=2)
        par._workload = tiny_workload
        a = seq.results_for(("hash", "kl", "fennel"), (2, 4), seed=1)
        b = par.results_for(("hash", "kl", "fennel"), (2, 4), seed=1)
        assert a == b
