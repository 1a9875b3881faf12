"""The four benchmark workloads, as data.

Each workload names the synthetic trace it replays (a
``WorkloadConfig`` built from the run's seed), the sweep grid handed to
``run_experiment`` and how the sweep touches the on-disk store.  Sizes
are chosen so that one sweep takes a few seconds on a 2-core host; see
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

#: The seed whose canonical output digest is recorded in digests.json.
DEFAULT_SEED = 42

WARM_METHODS = (
    "hash", "kl", "metis?warm=true", "p-metis?warm=true", "tr-metis?warm=true",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    trace: str                       #: key into TRACES
    #: ``None``: the paper's methods as registered (``PAPER_ORDER``),
    #: so the METIS family runs cold
    methods: Optional[Tuple[str, ...]]
    ks: Tuple[int, ...]
    jobs: int = 1
    #: the timed sweep writes every cell into a fresh ResultStore;
    #: otherwise the store is filled after the sweep, outside the timing
    store_in_sweep: bool = False
    execution: Optional[str] = None
    #: name of a jobs=1 workload whose bytes this one must reproduce
    reference: Optional[str] = None
    #: check METIS against hash on the output, and once per run the
    #: paper's Fig. 5 orderings on the trace of DEFAULT_SEED
    paper_orderings: bool = False


#: Trace sizes as (total_transactions, step_hours), all over the full
#: 886-day timeline; "small" and "medium" match the named scales.
TRACES = {
    "cold": (800, 24.0),
    "small": (6_000, 24.0),
    "medium": (24_000, 8.0),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("warm-grid", "small", WARM_METHODS, (2, 4, 8)),
        Workload("cold-grid", "cold", None, (2, 4, 8),
                 paper_orderings=True),
        Workload("exec-stream", "medium", ("hash", "fennel"), (2, 4, 8, 16),
                 store_in_sweep=True, execution="2pc"),
        Workload("warm-grid-parallel", "small", WARM_METHODS, (2, 4, 8),
                 jobs=2, store_in_sweep=True, reference="warm-grid"),
    )
}


def workload_config(trace: str, seed: int):
    """The generator config of trace size ``trace`` at ``seed``."""
    from repro.ethereum.workload import WorkloadConfig

    transactions, step_hours = TRACES[trace]
    return WorkloadConfig(
        seed=seed, total_transactions=transactions, step_hours=step_hours
    )


def experiment_spec(workload: Workload, trace_path: str):
    """The ``ExperimentSpec`` of ``workload`` replaying ``trace_path``."""
    from repro.core.registry import PAPER_ORDER
    from repro.experiments import ExperimentSpec

    return ExperimentSpec(
        source=trace_path,
        methods=workload.methods or tuple(PAPER_ORDER),
        ks=workload.ks,
        execution=workload.execution,
    )
