"""Backend selection and the numpy backend's kernel surface.

Two backends exist: the ``pure`` oracle and ``numpy``, which vectorises
only the kernels that beat ``pure`` at their real call shapes and takes
the rest from ``pure`` as the very same function objects.  These tests
pin that split, and check that a ``REPRO_KERNEL_BACKEND`` pin that
cannot be honoured fails at resolution time with a message naming the
variable.
"""

import sys

import pytest

from repro import kernels
from repro.kernels import backend, pure

#: kernels the numpy backend re-exports from ``pure`` unchanged
ALIASED = frozenset({
    "hem_matching", "max_index", "window_pass", "graph_batch",
    "account_window", "csr_from_window", "part_weights", "unassigned_list",
})


@pytest.fixture
def fresh_resolution(monkeypatch):
    """Unresolved backend state, restored after the test."""
    monkeypatch.setattr(backend, "_active_name", None)
    monkeypatch.setattr(backend, "_active_module", None)
    return monkeypatch


def test_numpy_surface_defines_only_what_it_accelerates():
    np_kernels = pytest.importorskip("repro.kernels.numpykernels")
    aliased = set()
    for name in np_kernels.__all__:
        obj = getattr(np_kernels, name)
        if obj is getattr(pure, name, None):
            aliased.add(name)
        else:
            assert getattr(obj, "__module__", np_kernels.__name__) == \
                np_kernels.__name__, f"{name} comes from {obj.__module__}"
    assert aliased == ALIASED
    defined = set(np_kernels.__all__) - aliased - {"ACCELERATED"}
    assert np_kernels.ACCELERATED <= defined


def test_numpy_pin_without_numpy_names_the_variable(fresh_resolution):
    fresh_resolution.setenv(kernels.ENV_VAR, "numpy")
    fresh_resolution.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError, match=kernels.ENV_VAR) as info:
        kernels.backend_name()
    assert "numpy is not importable" in str(info.value)
    with pytest.raises(ImportError, match="numpy is not importable"):
        kernels.set_backend("numpy")
    assert backend._active_name is None  # a failed switch changes nothing


def test_default_without_numpy_is_pure(fresh_resolution):
    fresh_resolution.delenv(kernels.ENV_VAR, raising=False)
    fresh_resolution.setitem(sys.modules, "numpy", None)
    assert kernels.backend_name() == "pure"
    assert kernels.available_backends() == ["pure"]


def test_stale_array_pin_names_the_variable_and_choices(fresh_resolution):
    fresh_resolution.setenv(kernels.ENV_VAR, "array")
    with pytest.raises(ValueError) as info:
        kernels.backend_name()
    message = str(info.value)
    assert kernels.ENV_VAR in message
    assert "['numpy', 'pure']" in message
    with pytest.raises(ValueError, match="'array'"):
        kernels.set_backend("array")
