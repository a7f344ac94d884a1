"""Unified inference-backend layer.

One interface over every way this codebase answers "how often does
each line switch?":

- :class:`~repro.core.backend.base.Backend` + the registry
  (:func:`get_backend`, :func:`register_backend`,
  :func:`available_backends`),
- the serializable :class:`~repro.core.backend.base.CompiledModel`
  artifact (``save``/``load`` with a schema version),
- the :class:`~repro.core.backend.cache.CompileCache` keyed by netlist
  hash + backend + options + schema version,
- the facade (:func:`estimate`, :func:`compile_model`) everything else
  in the repo calls.

The light module (:mod:`base <repro.core.backend.base>`) and the
errors it re-exports from :mod:`repro.errors` import eagerly so the
engine layers can depend on them; the heavy ones (backends, registry, cache,
facade) load lazily on first attribute access to keep
``repro.bayesian`` / ``repro.core`` imports cycle-free.
"""

from __future__ import annotations

from repro.core.backend.base import (
    ARTIFACT_SCHEMA,
    ARTIFACT_SCHEMA_VERSION,
    Backend,
    CompiledModel,
    Method,
)
from repro.errors import (
    ArtifactSchemaError,
    CliqueBudgetExceeded,
    MemoryBudgetExceeded,
    UnknownBackendError,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactSchemaError",
    "Backend",
    "CacheEntry",
    "CliqueBudgetExceeded",
    "CompileCache",
    "CompiledModel",
    "MemoryBudgetExceeded",
    "Method",
    "UnknownBackendError",
    "available_backends",
    "circuit_fingerprint",
    "compile_fingerprint",
    "compile_model",
    "default_cache_dir",
    "estimate",
    "estimate_many",
    "get_backend",
    "input_structure_signature",
    "register_backend",
]

#: lazily-resolved attribute -> defining submodule (PEP 562)
_LAZY = {
    "CacheEntry": "repro.core.backend.cache",
    "CompileCache": "repro.core.backend.cache",
    "available_backends": "repro.core.backend.registry",
    "circuit_fingerprint": "repro.core.backend.cache",
    "compile_fingerprint": "repro.core.backend.cache",
    "compile_model": "repro.core.backend.facade",
    "default_cache_dir": "repro.core.backend.cache",
    "estimate": "repro.core.backend.facade",
    "estimate_many": "repro.core.backend.facade",
    "get_backend": "repro.core.backend.registry",
    "input_structure_signature": "repro.core.backend.cache",
    "register_backend": "repro.core.backend.registry",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
