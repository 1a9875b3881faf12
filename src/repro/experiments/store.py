"""On-disk result store: interrupted sweeps resume instead of recomputing.

Layout: one JSON file per grid cell, grouped per store identity — the
workload id plus, for execution-enabled specs, the execution axis::

    <root>/<scale>-w<seed>-win<hours>h/<method-label>--k<k>--s<seed>--<hash>.json
    <root>/<scale>-w<seed>-win<hours>h-exec-<mode>-<hash>/<...>.json

The filename embeds a short hash of the cell's canonical label, so
parameterised method variants that sanitize to the same prefix can
never collide.  Files are written atomically (tmp + rename): a sweep
killed mid-write never leaves a half cell behind, and a cell file
either loads cleanly or is treated as absent and recomputed.  Each
save writes its own temp file (``<cell>.json.<pid>-<n>.tmp``, never
matching ``*.json``), so concurrent writers of one cell cannot rename
each other's temp file away; the last rename wins.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import re
from typing import Dict, Iterable, Optional, Union

from repro.experiments.results import CellResult
from repro.experiments.spec import CellKey, ExperimentSpec

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: per-process save counter: with the pid, a temp name unique per save
_SAVES = itertools.count()


class ResultStore:
    """Directory-backed store of :class:`CellResult` files."""

    def __init__(self, root: Union[str, pathlib.Path]):
        self.root = pathlib.Path(root)

    # -- paths ---------------------------------------------------------

    def cell_path(self, spec: ExperimentSpec, key: CellKey) -> pathlib.Path:
        label = key.method.label
        digest = hashlib.sha1(label.encode("utf-8")).hexdigest()[:8]
        stem = _SAFE.sub("_", label).strip("_") or "method"
        name = f"{stem}--k{key.k}--s{key.seed}--{digest}.json"
        return self.root / spec.store_id() / name

    # -- IO ------------------------------------------------------------

    def load(self, spec: ExperimentSpec, key: CellKey) -> Optional[CellResult]:
        """The stored cell, or None if absent/corrupt (recompute then)."""
        path = self.cell_path(spec, key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            cell = CellResult.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        # the filename encodes the key, but verify: a hand-copied file
        # from another grid must not masquerade as this cell
        if cell.key != key:
            return None
        return cell

    def load_known(
        self, spec: ExperimentSpec, keys: Iterable[CellKey]
    ) -> Dict[CellKey, CellResult]:
        out: Dict[CellKey, CellResult] = {}
        for key in keys:
            cell = self.load(spec, key)
            if cell is not None:
                out[key] = cell
        return out

    def save(self, spec: ExperimentSpec, cell: CellResult) -> pathlib.Path:
        path = self.cell_path(spec, cell.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(_SAVES)}.tmp")
        tmp.write_text(json.dumps(cell.to_dict()), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultStore({str(self.root)!r})"
