"""Log sources: where an experiment's interaction log comes from.

Before this abstraction, every layer assumed the implicit contract
"scale string ⇒ regenerate the synthetic workload": each process paid
the dominant fixed cost of a sweep (EVM-lite execution of the whole
history) before replaying a single cell.  A :class:`LogSource` makes
the origin of the log explicit and serializable:

* :class:`SyntheticSource` — a named workload scale plus generator
  seed; :meth:`~SyntheticSource.load` runs the calibrated generator
  (:mod:`repro.ethereum.workload`).
* :class:`TraceSource` — a trace file (text v1 or binary rctrace
  v2/v3, version-agnostically sniffed); :meth:`~TraceSource.load`
  memory-maps binary traces into a
  :class:`~repro.graph.columnar.ColumnarLog` (zero-copy for v2,
  per-section streaming decode for compressed v3), so opening the
  log is O(1) instead of O(history).  Being a small picklable value,
  a ``TraceSource`` travels to worker processes which open the mmap
  *themselves* — parallel sweeps no longer depend on ``fork``
  inheritance of an in-memory log.

Sources round-trip through JSON (``LogSource.from_dict``) and expose a
stable :attr:`~LogSource.identity` used by
:meth:`~repro.experiments.spec.ExperimentSpec.workload_id` to key the
on-disk :class:`~repro.experiments.store.ResultStore`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
from typing import Any, Dict, Union

from repro.ethereum.workload import WorkloadConfig, WorkloadResult

#: Named workload scales; values are WorkloadConfig factory names.
#: ``large`` is the Ethereum-scale export tier (multi-million rows) —
#: sweep it from an exported trace, not by regenerating per process.
SCALES = ("tiny", "small", "medium", "large", "default")

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def config_for_scale(scale: str, seed: int) -> WorkloadConfig:
    """Workload config for a named scale (the CLI/runner vocabulary)."""
    if scale == "tiny":
        return WorkloadConfig.tiny(seed)
    if scale == "small":
        return WorkloadConfig.small(seed)
    if scale == "medium":
        return WorkloadConfig.medium(seed)
    if scale == "large":
        return WorkloadConfig.large(seed)
    if scale == "default":
        return WorkloadConfig(seed=seed)
    raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")


class LogSource:
    """Abstract origin of a time-ordered interaction log."""

    kind: str = ""

    def load(self):
        """The interaction log, as a :class:`ColumnarLog`."""
        raise NotImplementedError

    @property
    def identity(self) -> str:
        """Stable, filesystem-safe identity for store/cache keying."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "LogSource":
        """Rebuild a source from its serialized form (kind-dispatched)."""
        kind = data.get("kind")
        if kind == SyntheticSource.kind:
            return SyntheticSource(scale=data["scale"], seed=int(data["seed"]))
        if kind == TraceSource.kind:
            return TraceSource(path=data["path"])
        raise ValueError(f"unknown log-source kind {kind!r} in {data!r}")


@dataclasses.dataclass(frozen=True)
class SyntheticSource(LogSource):
    """The calibrated synthetic workload at a named scale + seed."""

    scale: str = "small"
    seed: int = 42
    kind = "synthetic"

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; choose from {SCALES}"
            )

    def workload_config(self) -> WorkloadConfig:
        return config_for_scale(self.scale, self.seed)

    def generate(self) -> WorkloadResult:
        """Run the generator (the expensive path a trace file skips)."""
        from repro.ethereum.workload import generate_history

        return generate_history(self.workload_config())

    def load(self):
        return self.generate().log

    @property
    def identity(self) -> str:
        return f"{self.scale}-w{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "scale": self.scale, "seed": self.seed}


@dataclasses.dataclass(frozen=True)
class TraceSource(LogSource):
    """A trace file on disk (text v1 or binary rctrace v2/v3)."""

    path: str
    kind = "trace"

    def __post_init__(self) -> None:
        # pin relative paths to the construction-time cwd: the path is
        # the source's *identity* (store keys, serialized specs), so it
        # must not drift with the consumer's working directory
        object.__setattr__(
            self, "path", os.path.abspath(os.fspath(self.path))
        )

    def load(self):
        """Open the trace as a :class:`ColumnarLog` (mmap for binary).

        Cheap by design: a binary trace maps in O(1) + verification, so
        worker processes call this themselves instead of inheriting a
        log from the parent.
        """
        from repro.graph.io import load_trace_log

        return load_trace_log(self.path)

    @property
    def identity(self) -> str:
        """``trace-<stem>-<hash8>`` — stable per absolute path.

        The hash covers the *pinned absolute path*, not the content:
        it keeps two same-named traces in different directories from
        colliding in a shared store, while a re-exported file at the
        same path keeps its identity (matching how a regenerated
        synthetic workload keeps ``scale-wseed``).
        """
        digest = hashlib.sha1(self.path.encode("utf-8")).hexdigest()[:8]
        stem = os.path.basename(self.path)
        for suffix in (".gz", ".rct", ".txt"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        stem = _SAFE.sub("_", stem).strip("_.") or "trace"
        return f"trace-{stem}-{digest}"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "path": self.path}


SourceLike = Union[str, os.PathLike, LogSource]


def as_log_source(value: SourceLike) -> LogSource:
    """Coerce a path / source into a :class:`LogSource`.

    Strings and path-likes become :class:`TraceSource` (named synthetic
    scales are spelled through ``ExperimentSpec(scale=...,
    workload_seed=...)`` or an explicit :class:`SyntheticSource`).
    """
    if isinstance(value, LogSource):
        return value
    if isinstance(value, (str, os.PathLike)):
        return TraceSource(path=os.fspath(value))
    raise TypeError(
        f"cannot interpret {value!r} as a log source (expected a trace "
        "path, TraceSource or SyntheticSource)"
    )
