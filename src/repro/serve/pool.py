"""In-memory pool of compiled models, one engine per model.

:class:`ModelPool` keeps hot :class:`~repro.core.backend.base.
CompiledModel` artifacts pinned in memory under an LRU policy, keyed by
the *compile-cache fingerprint* (:meth:`CompileCache.key_for`: netlist
hash + backend + options token + artifact schema version).  Reusing
the cache key means the resident pool, the on-disk cache, and a cold
``repro estimate`` all agree on what "the same compile" means.

A compiled artifact's propagation engine mutates preallocated
belief/message buffers in place, so two batches must never propagate
through one model at once.  The batcher guarantees that by
construction -- its lane key is the pool key and a lane runs one batch
at a time -- so a pooled model needs no replicas; the engine's
:class:`~repro.errors.ConcurrentPropagationError` guard is the
tripwire.

The pool publishes ``serve.pool.*`` counters/gauges into the global
``repro.obs`` registry when it is enabled.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.circuits.netlist import Circuit
from repro.core.backend.base import CompiledModel
from repro.core.backend.cache import CompileCache
from repro.core.backend.facade import compile_model
from repro.core.backend.registry import get_backend
from repro.errors import ReproError
from repro.obs.metrics import get_metrics

__all__ = ["ModelPool", "PooledModel", "PoolTimeout"]


class PoolTimeout(ReproError, TimeoutError):
    """A wait for another thread's compile of the same model exceeded
    its deadline."""


class PooledModel:
    """One resident compile: the model whose engine serves its lane.

    The batcher runs at most one batch per lane (lane key == pool key),
    so this one engine is never entered by two batches at once; the
    engine's own :class:`~repro.errors.ConcurrentPropagationError`
    guard is the tripwire should that ever break.
    """

    def __init__(self, key: str, model: CompiledModel):
        self.key = key
        self.model = model
        self.hits = 0
        registry = get_metrics()
        if registry.enabled:
            registry.counter("serve.pool.engines_created").inc(1)

    def describe(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "circuit": self.model.circuit.name,
            "backend": self.model.backend_name,
            "hits": self.hits,
            "engines_created": 1,
        }


class ModelPool:
    """LRU pool of compiled models keyed by compile-cache fingerprint.

    ``get()`` returns the resident :class:`PooledModel` for
    ``(circuit, backend, options)``, compiling through
    :func:`repro.core.backend.facade.compile_model` (and the on-disk
    compile cache, when one is configured) on a miss.  At most
    ``max_models`` compiles stay resident; the least recently used is
    evicted when the pool is full.

    Concurrent misses for the *same* key collapse into one compile: the
    first thread inserts a placeholder event, later threads wait on it
    instead of compiling the same circuit twice.
    """

    def __init__(
        self,
        cache: Optional[CompileCache] = None,
        max_models: int = 8,
    ):
        if max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {max_models}")
        self.cache = cache
        #: fingerprints come from CompileCache.key_for, which is a pure
        #: content hash; with no on-disk cache configured a detached
        #: instance still computes keys (it never touches the disk).
        self._keyer = cache if cache is not None else CompileCache()
        self.max_models = max_models
        self._entries: "OrderedDict[str, PooledModel]" = OrderedDict()
        self._pending: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self.evictions = 0

    def key_for(self, circuit: Circuit, backend: str = "auto", **options: Any) -> str:
        backend_obj = get_backend(backend)
        return self._keyer.key_for(
            circuit, backend_obj.name, None, backend_obj.cache_token(**options)
        )

    def get(
        self,
        circuit: Circuit,
        backend: str = "auto",
        timeout: Optional[float] = None,
        **options: Any,
    ) -> PooledModel:
        key = self.key_for(circuit, backend, **options)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    entry.hits += 1
                    self._publish("serve.pool.hits")
                    return entry
                pending = self._pending.get(key)
                if pending is None:
                    self._pending[key] = threading.Event()
                    break
            # Another thread is compiling this key; wait and re-check.
            if not pending.wait(timeout=timeout):
                raise PoolTimeout(
                    f"compile of {circuit.name!r} not finished after "
                    f"{timeout:.3f}s"
                )
        try:
            model = compile_model(
                circuit, backend=backend, cache=self.cache, **options
            )
            entry = PooledModel(key, model)
            with self._lock:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_models:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self.evictions += 1
                    self._publish("serve.pool.evictions")
                    if evicted_key == key:  # max_models == 0 guard
                        raise RuntimeError("evicted the entry being inserted")
            self._publish("serve.pool.misses")
            registry = get_metrics()
            if registry.enabled:
                registry.gauge("serve.pool.resident").set(len(self._entries))
            return entry
        finally:
            with self._lock:
                self._pending.pop(key).set()

    def _publish(self, name: str) -> None:
        registry = get_metrics()
        if registry.enabled:
            registry.counter(name).inc(1)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "resident": len(self._entries),
                "max_models": self.max_models,
                "evictions": self.evictions,
                "models": [e.describe() for e in self._entries.values()],
                "cache": self.cache.stats() if self.cache is not None else None,
            }
