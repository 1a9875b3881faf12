"""KERNELS — per-kernel microloop gates + the paper-scale sweep.

Two claims are enforced here, matching the kernel layer's contract
(``src/repro/kernels``):

* **micro gates** — each kernel is timed at the call shape its callers
  make: the windowed kernels once per 24 h metric window across the
  log, the rest over the whole log or graph.  Every kernel a backend
  lists in its ``ACCELERATED`` set must beat the ``pure`` reference by
  >= 3x, and every other kernel the backend implements itself must at
  least match it (>= 1x): a backend vectorises a kernel only where that
  wins.  Kernels a backend takes from ``pure`` unchanged are reported
  as aliases and not timed twice.

* **paper-scale sweep** — the five-method fig5 grid
  (``PAPER_ORDER`` x k in {2, 4, 8}, warm METIS family) replayed from
  an exported v3 trace must produce byte-identical ``ResultSet``
  output under every installed backend, and the per-method wall-clock
  split lands in ``benchmarks/out/paper_scale_sweep.txt``.

Timing gates follow the house rule: asserted when the scale is
``medium``/``large`` or ``REPRO_BENCH_STRICT`` is set (single-round
small-scale timings on shared runners are noise); the measured table
is always written.
"""

import os
import time
from array import array

import pytest

from benchmarks.conftest import write_artifact
from repro import kernels
from repro.analysis.render import ascii_table
from repro.experiments.run import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.graph.columnar import ColumnarLog
from repro.graph.io import write_columnar
from repro.kernels import StreamState
from repro.metis.graph import CSRGraph

GATE = 3.0   # kernels a backend claims in ACCELERATED
FLOOR = 1.0  # every other kernel a backend implements itself
SWEEP_METHODS = (
    "hash", "kl", "metis?warm=true", "p-metis?warm=true", "tr-metis?warm=true",
)
SWEEP_KS = (2, 4, 8)
WINDOW_HOURS = 24.0


def _gating(bench_scale: str) -> bool:
    return bench_scale in ("medium", "large") or bool(
        os.environ.get("REPRO_BENCH_STRICT")
    )


def _best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def _best_pair(fn, backend: str, reps: int = 5):
    """Best-of process CPU seconds of ``fn`` under pure and ``backend``.

    The two backends alternate round by round, so drift in machine
    state (caches, neighbours on a shared host) hits both sides alike.
    """
    best = {"pure": float("inf"), backend: float("inf")}
    for _ in range(reps):
        for name in best:
            with kernels.using_backend(name):
                t0 = time.process_time()
                fn()
                best[name] = min(best[name], time.process_time() - t0)
    return best["pure"], best[backend]


def _metric_windows(clog: ColumnarLog):
    """``[lo, hi)`` row ranges of the replay's metric windows.

    The same walk ``MultiReplayEngine.run`` makes: ``WINDOW_HOURS``
    windows from the first timestamp up to one second past the last.
    """
    bounds = []
    if not len(clog):
        return bounds
    step = WINDOW_HOURS * 3600.0
    start, end = clog.first_timestamp, clog.last_timestamp + 1.0
    lo = 0
    while start < end:
        hi = max(clog.index_at(start + step), lo)
        bounds.append((lo, hi))
        lo = hi
        start += step
    return bounds


def _micro_loops(clog: ColumnarLog):
    """Name -> zero-arg microloop, per backend resolution at call time.

    Each loop times a kernel at the call shape its callers make — the
    unit the ACCELERATED speedup claims are made on.  The windowed
    kernels run once per 24 h metric window across the whole log, as
    ``MultiReplayEngine.run`` (``window_pass``, ``account_window``) and
    ``compute_window_stats`` (``max_index``) call them; the period
    builds (``graph_batch``, ``csr_from_window``) are timed over the
    same windows.  Cut recounts, CSR snapshots and the refinement
    kernels run over the whole log / whole graph, as cold starts,
    repartitions and refiners do.
    """
    ts, src, dst = clog.timestamps(), clog.src_indices(), clog.dst_indices()
    tx = clog.tx_ids()
    sk, dk = clog.src_kind_codes(), clog.dst_kind_codes()
    n = len(clog)
    k = 4
    shard = array("i", [(7 * v) % k for v in range(clog.num_vertices)])
    windows = _metric_windows(clog)

    with kernels.using_backend("pure"):
        kp = kernels.active()
        state = StreamState()
        window_new_edges = []
        for lo, hi in windows:
            batch = kp.window_pass(src, dst, tx, lo, hi, state)
            state.record_new_edges(batch.new_edges)
            window_new_edges.append(batch.new_edges)
        xadj, adjncy, adjwgt, vwgt, _ = kp.csr_from_window(src, dst, 0, n, "unit")
    graph = CSRGraph(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt)
    part = [shard[v] for v in range(graph.num_vertices)]
    part_holes = list(part)
    for v in range(0, len(part_holes), 7):
        part_holes[v] = -1
    bisect = [p % 2 for p in part]
    with kernels.using_backend("pure"):
        boundary = kernels.active().boundary_list(graph, part)

    def window_pass_loop():
        kr, stream = kernels.active(), StreamState()
        for lo, hi in windows:
            kr.window_pass(src, dst, tx, lo, hi, stream)

    def account_window_loop():
        kr = kernels.active()
        for (lo, hi), new_edges in zip(windows, window_new_edges):
            kr.account_window(src, dst, lo, hi, new_edges, shard, k)

    def per_window(name, cols, *tail):
        def loop():
            fn = getattr(kernels.active(), name)
            for lo, hi in windows:
                fn(*cols, lo, hi, *tail)
        return loop

    def acc_loop():
        acc = kernels.active().CSRAccumulator()
        acc.advance(src, dst, 0, n)
        return acc.snapshot("unit")

    kr = kernels.active  # resolved inside each lambda: current backend
    return {
        "window_pass": window_pass_loop,
        "account_window": account_window_loop,
        "static_cut_count": lambda: kr().static_cut_count(
            state.esrc, state.edst, shard),
        "max_index": per_window("max_index", (src, dst)),
        "CSRAccumulator": acc_loop,
        "csr_from_window": per_window("csr_from_window", (src, dst), "unit"),
        "graph_batch": per_window("graph_batch", (ts, src, dst, sk, dk)),
        "part_weights": lambda: kr().part_weights(graph, part, k),
        "boundary_list": lambda: kr().boundary_list(graph, part),
        "cut_value": lambda: kr().cut_value(graph, part),
        "unassigned_list": lambda: kr().unassigned_list(part_holes),
        # refinement batch kernels: boundary-row connectivity, FM seed
        # gains, whole-graph KL gather, FM gain bound
        "conn_matrix": lambda: kr().conn_matrix(graph, part, k, boundary),
        "gain_vector": lambda: kr().gain_vector(graph, bisect, boundary),
        "kl_proposals": lambda: kr().kl_proposals(graph, part, k, 1),
        "max_weighted_degree": lambda: kr().max_weighted_degree(graph),
    }


@pytest.mark.benchmark(group="kernels")
def test_kernel_micro_gates(runner, bench_scale, out_dir):
    clog = runner.workload.log
    loops = _micro_loops(clog)
    backends = [b for b in kernels.available_backends() if b != "pure"]
    with kernels.using_backend("pure"):
        pure = kernels.active()

    rows = []
    failures = []
    for backend in backends:
        with kernels.using_backend(backend):
            module = kernels.active()
        claimed = getattr(module, "ACCELERATED", frozenset())
        for name, fn in loops.items():
            if getattr(module, name) is getattr(pure, name):
                with kernels.using_backend("pure"):
                    t_pure = _best_of(fn)
                rows.append((name, backend, f"{t_pure * 1e3:.2f}",
                             "= pure", "", ""))
                continue
            t_pure, t = _best_pair(fn, backend)
            speedup = t_pure / t if t > 0 else float("inf")
            gate = GATE if name in claimed else FLOOR
            rows.append((
                name, backend, f"{t_pure * 1e3:.2f}", f"{t * 1e3:.2f}",
                f"{speedup:.2f}x", f">={gate:g}x",
            ))
            if speedup < gate:
                failures.append(f"{backend}:{name} {speedup:.2f}x < {gate:g}x")

    table = ascii_table(
        ("kernel", "backend", "pure ms", "backend ms", "speedup", "gate"),
        rows,
    )
    write_artifact(
        out_dir, "kernels_micro.txt",
        f"kernel microloops, scale={bench_scale}, rows={len(clog)}, "
        f"{WINDOW_HOURS:g} h metric windows, best-of-5 process CPU\n{table}",
    )
    if _gating(bench_scale):
        assert not failures, "; ".join(failures)


@pytest.mark.benchmark(group="kernels")
def test_paper_scale_sweep(runner, bench_scale, out_dir, tmp_path):
    """Five-method fig5 grid from an exported v3 trace, every backend.

    Byte-identity of the serialized ResultSet across backends is
    asserted unconditionally — it is the kernel layer's core contract.
    The artifact records the per-method wall-clock split and the
    per-backend grid totals.
    """
    trace = tmp_path / f"sweep_{bench_scale}.rct"
    clog = runner.workload.log
    write_columnar(clog, trace, version=3)
    spec = ExperimentSpec(
        methods=SWEEP_METHODS, ks=SWEEP_KS, window_hours=WINDOW_HOURS,
        source=str(trace),
    )

    # grid totals: interleaved rounds + best-of + process CPU time,
    # because a single sequential wall-clock pass per backend cannot
    # resolve a ~20% backend gap on a shared runner (order effects and
    # scheduler noise are the same magnitude)
    backends = list(kernels.available_backends())
    dumps = {}
    totals = {}
    for rnd in range(2):
        for backend in backends if rnd % 2 == 0 else reversed(backends):
            with kernels.using_backend(backend):
                t0 = time.process_time()
                text = run_experiment(spec).dumps()
                elapsed = time.process_time() - t0
            dumps.setdefault(backend, text)
            totals[backend] = min(totals.get(backend, elapsed), elapsed)
    reference = dumps["pure"]
    for backend, text in dumps.items():
        assert text == reference, (
            f"ResultSet under {backend} diverges from pure — "
            "kernel bit-identity contract broken"
        )

    # per-method split (shared-stream pass per method, all ks at once)
    split = []
    for method in SWEEP_METHODS:
        single = ExperimentSpec(
            methods=(method,), ks=SWEEP_KS, window_hours=WINDOW_HOURS,
            source=str(trace),
        )
        t0 = time.perf_counter()
        run_experiment(single)
        split.append((method, time.perf_counter() - t0))

    grid_cells = len(SWEEP_METHODS) * len(SWEEP_KS)
    lines = [
        f"paper-scale five-method sweep  (scale={bench_scale}, "
        f"rows={len(clog)}, v3 trace, k in {list(SWEEP_KS)}, "
        f"{grid_cells} cells, warm METIS)",
        "",
        "per-method wall-clock split (single-method pass over all ks):",
        ascii_table(
            ("method", "seconds", "share"),
            [
                (m, f"{s:.2f}", f"{100 * s / sum(s for _, s in split):.0f}%")
                for m, s in split
            ],
        ),
        "",
        "full-grid totals per kernel backend (best of 2 interleaved "
        "rounds,",
        "process CPU time; ResultSet byte-identical across all):",
        ascii_table(
            ("backend", "seconds", "vs pure"),
            [
                (b, f"{t:.2f}", f"{totals['pure'] / t:.2f}x")
                for b, t in totals.items()
            ],
        ),
        "",
        "note: numpy vectorises the cut recounts and the batched",
        "refinement kernels (conn_matrix / gain_vector / kl_proposals) that",
        "KL repartitioning and METIS refinement ride, and takes the",
        "per-window stream kernels from pure, so the whole-grid gap is the",
        "refiners' share; per-kernel speedups at each kernel's call shape",
        "are gated in kernels_micro.txt.  absolute seconds are",
        "machine-state dependent: compare backends within one run, not",
        "across recorded artifacts.",
    ]
    write_artifact(out_dir, "paper_scale_sweep.txt", "\n".join(lines))
