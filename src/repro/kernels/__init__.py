"""Batch kernels for the replay/partitioning hot path.

The kernels operate directly on the dense columns
:class:`repro.graph.columnar.ColumnarLog` exposes (timestamps, interned
src/dst indices, transaction ids, kind codes) and return plain
python/array values the engine folds back into its data structures.
Every kernel is served by two interchangeable backends — see
:mod:`repro.kernels.backend` for selection — the ``pure`` reference
and ``numpy``, which vectorises the kernels where that wins and reuses
the ``pure`` functions elsewhere.  Both are bit-identical, including
every ordering the downstream graphs observe (``docs/kernels.md``
spells out the contract).

Hot-path callers grab the backend module once per window/pass::

    from repro import kernels
    kr = kernels.active()
    batch = kr.window_pass(ts, src, dst, tx, sk, dk, lo, hi, state)

This package deliberately imports nothing from the rest of ``repro``
(the graph/metis/core layers import *it*).
"""

from repro.kernels.backend import (
    ENV_VAR,
    active,
    available_backends,
    backend_name,
    set_backend,
    using_backend,
)
from repro.kernels.types import (
    PACK_MASK,
    PACK_SHIFT,
    GainBuckets,
    StreamState,
    WindowBatch,
)

__all__ = [
    "ENV_VAR",
    "GainBuckets",
    "PACK_MASK",
    "PACK_SHIFT",
    "StreamState",
    "WindowBatch",
    "active",
    "available_backends",
    "backend_name",
    "set_backend",
    "using_backend",
]
