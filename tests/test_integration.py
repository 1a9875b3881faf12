"""End-to-end integration tests: the paper's qualitative claims.

Each test here corresponds to a sentence in the paper's §III results
discussion; together they are the "does the reproduction reproduce"
gate.  They run on the shared small workload via the cached runner.
"""

import pytest

from repro.ethereum.history import ATTACK_END
from repro.metrics.balance import normalized_balance


@pytest.fixture(scope="module")
def replays(small_runner):
    """All five methods at k=2 and k=8 (cached in the runner)."""
    out = {}
    for method in ("hash", "kl", "metis", "p-metis", "tr-metis"):
        for k in (2, 8):
            out[(method, k)] = small_runner.replay(method, k, seed=1)
    return out


def mean_metric(result, column, after=None):
    pts = [p for p in result.series.points if p.interactions > 0]
    if after is not None:
        pts = [p for p in pts if p.ts > after]
    return sum(getattr(p, column) for p in pts) / len(pts)


class TestPaperClaims:
    def test_hash_optimal_static_balance(self, replays):
        """'Hashing provides optimum static balance.'"""
        for k in (2, 8):
            final = replays[("hash", k)].series.points[-1]
            assert final.static_balance < 1.10

    def test_hash_50pct_cut_at_two_shards(self, replays):
        """'With two shards hashing leads to about 50% of transactions
        across shards.'"""
        cut = mean_metric(replays[("hash", 2)], "dynamic_edge_cut")
        assert 0.42 <= cut <= 0.58

    def test_hash_never_moves(self, replays):
        """'There are no moves since partitioning depends on vertex id
        only.'"""
        for k in (2, 8):
            assert replays[("hash", k)].total_moves == 0

    def test_metis_much_lower_cut_than_hash(self, replays):
        """'METIS provides a much lower edge-cut, both static and
        dynamic.'"""
        for k in (2, 8):
            metis = replays[("metis", k)]
            hashing = replays[("hash", k)]
            assert (mean_metric(metis, "dynamic_edge_cut")
                    < 0.75 * mean_metric(hashing, "dynamic_edge_cut"))
            assert (mean_metric(metis, "static_edge_cut")
                    < 0.75 * mean_metric(hashing, "static_edge_cut"))

    def test_metis_dynamic_balance_anomaly(self, replays):
        """'Notice that dynamic balance is near two ... after the
        September 2016 attack' (k=2)."""
        metis_bal = mean_metric(replays[("metis", 2)], "dynamic_balance",
                                after=ATTACK_END)
        hash_bal = mean_metric(replays[("hash", 2)], "dynamic_balance",
                               after=ATTACK_END)
        assert metis_bal > 1.45
        assert metis_bal > hash_bal + 0.2

    def test_metis_static_balance_still_good(self, replays):
        """'Although METIS statically balances the graph...'"""
        final = replays[("metis", 2)].series.points[-1]
        assert final.static_balance < 1.15

    def test_kl_reduces_cut_keeping_balance(self, replays):
        """'KL reduces dynamic edge-cuts while maintaining shards
        balanced.'  Balance compared over the post-attack bulk, as in
        the paper's Fig. 4 (early sparse windows are pure noise)."""
        kl = replays[("kl", 2)]
        hashing = replays[("hash", 2)]
        assert (mean_metric(kl, "dynamic_edge_cut")
                < mean_metric(hashing, "dynamic_edge_cut"))
        assert (mean_metric(kl, "dynamic_balance", after=ATTACK_END)
                < mean_metric(replays[("metis", 2)], "dynamic_balance",
                              after=ATTACK_END))

    def test_kl_many_moves(self, replays):
        """'The various iterations of the technique lead to a large
        number of vertices changing shards.'"""
        assert replays[("kl", 2)].total_moves > 200

    def test_rmetis_better_dynamic_balance_than_metis(self, replays):
        """'With this technique we managed to get a lower dynamic
        balance' (R-METIS vs METIS, post attack)."""
        rm = mean_metric(replays[("p-metis", 2)], "dynamic_balance",
                         after=ATTACK_END)
        metis = mean_metric(replays[("metis", 2)], "dynamic_balance",
                            after=ATTACK_END)
        assert rm < metis

    def test_trmetis_dramatic_move_reduction(self, replays):
        """'The result is a dramatic decrease in the number of moved
        vertices, without compromising edge-cuts and balance.'"""
        for k in (2, 8):
            tr = replays[("tr-metis", k)]
            rm = replays[("p-metis", k)]
            assert tr.total_moves < 0.8 * rm.total_moves
            # quality must not diverge much from R-METIS
            assert (mean_metric(tr, "dynamic_edge_cut")
                    <= mean_metric(rm, "dynamic_edge_cut") + 0.12)

    def test_metis_family_huge_moves(self, replays):
        """'The number of moves is large in the METIS algorithm, since
        the partitioner does not optimize for this aspect' + 'P-METIS
        and TR-METIS perform substantially fewer moves'."""
        for k in (2, 8):
            metis = replays[("metis", k)].total_moves
            pm = replays[("p-metis", k)].total_moves
            assert metis > 3 * pm

    def test_cut_worsens_with_shards(self, replays):
        """'In all techniques, dynamic edge-cut becomes worse as the
        number of shards increases.'"""
        for method in ("hash", "kl", "metis", "p-metis", "tr-metis"):
            assert (mean_metric(replays[(method, 8)], "dynamic_edge_cut")
                    > mean_metric(replays[(method, 2)], "dynamic_edge_cut"))

    def test_tradeoff_no_method_wins_both(self, replays):
        """'There is a clear compromise between edge-cut and balance,
        and no technique clearly stands out.'"""
        for k in (2, 8):
            best_cut = min(
                ("hash", "kl", "metis", "p-metis", "tr-metis"),
                key=lambda m: mean_metric(replays[(m, k)], "dynamic_edge_cut"),
            )
            best_bal = min(
                ("hash", "kl", "metis", "p-metis", "tr-metis"),
                key=lambda m: mean_metric(replays[(m, k)], "dynamic_balance"),
            )
            assert best_cut != best_bal


class TestCrossCutting:
    def test_all_methods_assign_every_vertex(self, replays, small_workload):
        n = small_workload.log.num_vertices
        for result in replays.values():
            assert len(result.assignment) == n
            result.assignment.validate()

    def test_series_lengths_agree(self, replays):
        lengths = {len(r.series) for r in replays.values()}
        assert len(lengths) == 1  # same windows for every method

    def test_moves_match_events(self, replays):
        for result in replays.values():
            assert result.total_moves == sum(e.moves for e in result.events)
            assert result.series.points[-1].cumulative_moves == result.total_moves

    def test_determinism_across_runs(self, small_workload):
        from repro.core import make_method
        from repro.core.replay import replay_method
        from repro.graph.snapshot import HOUR

        log = small_workload.log
        a = replay_method(log, make_method("tr-metis", 2, seed=5),
                          metric_window=24 * HOUR)
        b = replay_method(log, make_method("tr-metis", 2, seed=5),
                          metric_window=24 * HOUR)
        assert a.total_moves == b.total_moves
        assert a.assignment.as_dict() == b.assignment.as_dict()
        assert [p.dynamic_edge_cut for p in a.series.points] == [
            p.dynamic_edge_cut for p in b.series.points
        ]
