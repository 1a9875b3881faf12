"""Kernel backend selection.

Two interchangeable backends implement the same kernel surface:

``pure``
    Per-row transliterations of the legacy loops; the bit-identity
    oracle the numpy backend is tested against, and the default when
    numpy is absent.
``numpy``
    Vectorised formulation over zero-copy views of the columns, for
    the kernels where that beats ``pure`` at the call shapes the
    callers make; the rest are the ``pure`` functions themselves.
    Optional — install with ``pip install .[numpy]``.

Selection: the ``REPRO_KERNEL_BACKEND`` environment variable
(``pure`` | ``numpy``), else ``numpy`` when importable, else ``pure``.
Resolution is lazy and cached; a pin that names an unknown backend or
one whose dependency is missing fails at resolution time.  Tests flip
backends with :func:`set_backend` / :func:`using_backend`.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from typing import List, Optional

ENV_VAR = "REPRO_KERNEL_BACKEND"

_MODULES = {
    "pure": "repro.kernels.pure",
    "numpy": "repro.kernels.numpykernels",
}

_active_name: Optional[str] = None
_active_module = None


def _numpy_usable() -> bool:
    try:
        importlib.import_module("numpy")
    except ImportError:
        return False
    return True


def _check_loadable(name: str, label: str) -> None:
    """Raise unless backend ``name`` is known and importable here."""
    if name not in _MODULES:
        raise ValueError(f"{label}: expected one of {sorted(_MODULES)}")
    if name == "numpy" and not _numpy_usable():
        raise ImportError(
            f"{label}: numpy is not importable; install the [numpy] "
            f"extra or pin {ENV_VAR}=pure"
        )


def backend_name() -> str:
    """Name of the active backend, resolving it on first use."""
    global _active_name
    if _active_name is None:
        requested = os.environ.get(ENV_VAR, "").strip().lower()
        if requested:
            _check_loadable(requested, f"{ENV_VAR}={requested!r}")
            _active_name = requested
        else:
            _active_name = "numpy" if _numpy_usable() else "pure"
    return _active_name


def active():
    """The active backend module (resolved lazily, cached)."""
    global _active_module
    if _active_module is None:
        _active_module = importlib.import_module(_MODULES[backend_name()])
    return _active_module


def set_backend(name: str) -> None:
    """Force a backend by name (``pure`` | ``numpy``)."""
    global _active_name, _active_module
    _check_loadable(name, f"kernel backend {name!r} (see {ENV_VAR})")
    _active_module = importlib.import_module(_MODULES[name])
    _active_name = name


@contextmanager
def using_backend(name: str):
    """Temporarily switch backends (test helper)."""
    global _active_name, _active_module
    prev_name, prev_module = _active_name, _active_module
    set_backend(name)
    try:
        yield _active_module
    finally:
        _active_name, _active_module = prev_name, prev_module


def available_backends() -> List[str]:
    """Backends importable in this environment, in preference order."""
    return ["pure", "numpy"] if _numpy_usable() else ["pure"]
