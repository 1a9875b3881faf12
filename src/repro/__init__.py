"""repro — reproduction of "Challenges and Pitfalls of Partitioning
Blockchains" (Fynn & Pedone, DSN 2018).

The library models a blockchain as a weighted directed graph, generates
a calibrated synthetic Ethereum-like history on a real executable
substrate (EVM-lite + chain), partitions it with the paper's five
methods, and reproduces every figure of the paper's evaluation.

Quickstart::

    from repro import WorkloadConfig, generate_history, make_method, replay_method

    history = generate_history(WorkloadConfig.small())
    method = make_method("metis", k=2, seed=1)
    result = replay_method(history.log, method)
    print(result.series.points[-1], result.total_moves)

Package map (the README's "Layout" table has the full inventory):

* :mod:`repro.graph` — blockchain-graph substrate;
* :mod:`repro.ethereum` — accounts, EVM-lite, chain, synthetic workload;
* :mod:`repro.metis` — from-scratch multilevel partitioner;
* :mod:`repro.core` — the five partitioning methods + replay engine;
* :mod:`repro.metrics` — edge-cut / balance / moves (Eqs. 1-2);
* :mod:`repro.sharding` — sharded-execution discrete-event simulator;
* :mod:`repro.experiments` — declarative specs, parallel sweeps,
  serializable result sets;
* :mod:`repro.analysis` — figure regeneration.

Declarative sweeps::

    from repro import ExperimentSpec, run_experiment

    rs = run_experiment(ExperimentSpec(
        scale="small", methods=("hash", "metis"), ks=(2, 4, 8)), jobs=4)
    print(rs.get("metis", k=8).mean("dynamic_edge_cut"))
"""

from repro.core.multireplay import MultiReplayEngine, replay_methods
from repro.core.registry import available_methods, make_method, register_method
from repro.core.replay import ReplayEngine, ReplayResult, replay_method
from repro.ethereum.workload import WorkloadConfig, WorkloadResult, generate_history
from repro.experiments import (
    ExecutionSpec,
    ExperimentSpec,
    LogSource,
    MethodSpec,
    ResultSet,
    ResultStore,
    SyntheticSource,
    TraceSource,
    run_experiment,
)
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.io import load_columnar, load_trace_log, write_columnar
from repro.graph.digraph import VertexKind, WeightedDiGraph
from repro.metis import part_graph

__version__ = "1.2.0"

__all__ = [
    "WorkloadConfig",
    "WorkloadResult",
    "generate_history",
    "make_method",
    "available_methods",
    "register_method",
    "ExecutionSpec",
    "ExperimentSpec",
    "MethodSpec",
    "ResultSet",
    "ResultStore",
    "LogSource",
    "SyntheticSource",
    "TraceSource",
    "run_experiment",
    "load_columnar",
    "load_trace_log",
    "write_columnar",
    "ReplayEngine",
    "ReplayResult",
    "replay_method",
    "MultiReplayEngine",
    "replay_methods",
    "Interaction",
    "ColumnarLog",
    "WeightedDiGraph",
    "VertexKind",
    "part_graph",
    "__version__",
]
