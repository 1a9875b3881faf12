"""Pinned golden digests of sharded-execution reports.

The digests below were captured from the two-engine implementation
(closure-based ``replay`` plus the batched ``replay_columnar``, proven
bit-identical to each other) immediately before the closure engine was
deleted and ``replay`` became an adapter onto the batch engine.  They
cover 2PC and migrate mode, k in {1, 2, 4}, every arrival process
(fixed rate, ``time_scale``, default rate), warmup 0 and 0.3, row
slices, an unassigned-endpoint run and state-sized migrations.  They
are deliberately brittle: any change to a report's value — a count, a
float's last bit — flips a digest and must be a conscious, documented
decision (re-capture with this file's helpers).
"""

import hashlib
import random

import pytest

from repro.ethereum.state import WorldState
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig

#: sha256 prefixes captured from the two-engine implementation
MATRIX_DIGEST = {
    "2pc": "ec9004679329cdfb",
    "migrate": "046a213a5fd643e4",
}
SLICES_DIGEST = "6378d13c6b054661"
UNASSIGNED_DIGEST = "9c007f6002797dfe"
STATE_DIGEST = "7c6118ad76dd5a0f"

RAW_BASE = 1000  # raw vertex ids offset so raw id != dense index


def _h(reports):
    text = "\n".join(repr(rep) for rep in reports)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stream(vertices, n_tx=300, seed=7):
    """Deterministic multi-row transaction stream over ``vertices``."""
    rng = random.Random(seed)
    out = []
    ts = 0.0
    for i in range(n_tx):
        ts += rng.random() * 0.05
        for _ in range(rng.randint(1, 4)):
            out.append(Interaction(
                timestamp=ts,
                src=rng.choice(vertices),
                dst=rng.choice(vertices),
                tx_id=i,
            ))
    return out


VERTICES = [RAW_BASE + v for v in range(40)]
STREAM = _stream(VERTICES)
LOG = ColumnarLog.from_interactions(STREAM)


def _cfg(mode, warmup=0.0, **extra):
    return ShardedExecutionConfig(
        service_time=0.01, prepare_time=0.008, commit_time=0.004,
        network_rtt=0.05, mode=mode, migration_time_fixed=0.03,
        warmup_fraction=warmup, **extra,
    )


def _assignment(k):
    return {v: i % k for i, v in enumerate(VERTICES)}


@pytest.mark.parametrize("mode", ["2pc", "migrate"])
def test_arrival_warmup_matrix_matches_digest(mode):
    reports = []
    for k in (1, 2, 4):
        for arrival in ({"arrival_rate": 120.0}, {"time_scale": 0.5}, {}):
            for warmup in (0.0, 0.3):
                ex = ShardedExecution(k, _assignment(k), _cfg(mode, warmup))
                reports.append(ex.replay(STREAM, **arrival))
    assert _h(reports) == MATRIX_DIGEST[mode]


def test_row_slices_match_digest():
    reports = []
    for mode in ("2pc", "migrate"):
        for lo, hi in ((0, len(LOG)), (10, 137), (57, 58), (5, 5), (400, 733)):
            ex = ShardedExecution(2, _assignment(2), _cfg(mode))
            reports.append(ex.replay_columnar(LOG, lo, hi, arrival_rate=150.0))
    assert _h(reports) == SLICES_DIGEST


def test_unassigned_endpoints_match_digest():
    partial = _assignment(2)
    del partial[RAW_BASE + 0]
    del partial[RAW_BASE + 1]
    reports = []
    for mode in ("2pc", "migrate"):
        ex = ShardedExecution(2, partial, _cfg(mode), strict=False)
        reports.append(ex.replay(STREAM, arrival_rate=100.0))
    assert reports[0].unassigned_endpoints > 0
    assert _h(reports) == UNASSIGNED_DIGEST


def test_state_sized_migration_matches_digest():
    state = WorldState()
    accounts = []
    for i in range(12):
        if i % 3 == 0:
            acct = state.create_contract(
                (i,), initial_storage={j: j + 1 for j in range(4 * i)}
            )
        else:
            acct = state.create_eoa(balance=i)
        accounts.append(acct.address)
    state.discard_journal()
    vertices = accounts + [max(accounts) + 1]   # one vertex with no account
    stream = _stream(vertices, n_tx=120, seed=3)
    reports = []
    for k in (2, 4):
        asg = {v: i % k for i, v in enumerate(vertices)}
        cfg = _cfg("migrate", migration_bandwidth=1000.0)
        ex = ShardedExecution(k, asg, cfg, state=state)
        reports.append(ex.replay(stream, arrival_rate=60.0))
    assert reports[0].migration_bytes > 0
    assert _h(reports) == STATE_DIGEST
