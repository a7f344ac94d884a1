"""Backend registry: name -> :class:`~repro.core.backend.base.Backend`.

The built-in backends register on import; external code can add its
own with :func:`register_backend` (e.g. an experimental sampler) and
everything downstream -- the facade, the CLI, the compile cache --
picks it up by name.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.backend.backends import (
    AutoBackend,
    BaselineBackend,
    EnumerationBackend,
    JunctionTreeBackend,
    SegmentedBackend,
)
from repro.core.backend.base import Backend
from repro.errors import UnknownBackendError

__all__ = ["available_backends", "get_backend", "register_backend"]

_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register ``backend`` under its ``name``.

    Re-registering an existing name requires ``replace=True`` so typos
    do not silently shadow a built-in.
    """
    if not backend.name:
        raise ValueError("backend has no name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {backend.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a backend by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


for _backend in (
    AutoBackend(),
    JunctionTreeBackend(),
    SegmentedBackend(),
    EnumerationBackend(),
    BaselineBackend("pairwise"),
    BaselineBackend("local-cone"),
    BaselineBackend("independence"),
    BaselineBackend("monte-carlo"),
    BaselineBackend("simulation"),
):
    register_backend(_backend)
del _backend
