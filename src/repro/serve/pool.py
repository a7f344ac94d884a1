"""In-memory model pool with per-model engine replicas.

Two layers, one invariant:

- :class:`ModelPool` keeps hot :class:`~repro.core.backend.base.
  CompiledModel` artifacts pinned in memory under an LRU policy, keyed
  by the *compile-cache fingerprint* (:meth:`CompileCache.key_for`:
  netlist hash + backend + options token + artifact schema version).
  Reusing the cache key means the resident pool, the on-disk cache,
  and a cold ``repro estimate`` all agree on what "the same compile"
  means.

- :class:`EnginePool` hands out *engine replicas* of one pooled model.
  A compiled artifact's propagation engine mutates preallocated
  belief/message buffers in place, so a model checked out by one
  request must never be visible to another
  (:class:`~repro.errors.ConcurrentPropagationError` is the tripwire
  for exactly that bug).  The master artifact is the first replica;
  the others are deserialized from its pickled bytes -- the same
  round-trip a compile-cache hit pays, a few ms, against tens of ms to
  seconds for a recompile -- and created lazily up to
  ``engines_per_model``; checkout blocks when all replicas are in
  flight.

Both layers publish ``serve.pool.*`` counters/gauges into the global
``repro.obs`` registry when it is enabled.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.circuits.netlist import Circuit
from repro.core.backend.base import CompiledModel
from repro.core.backend.cache import CompileCache
from repro.core.backend.facade import compile_model
from repro.core.backend.registry import get_backend
from repro.errors import ReproError
from repro.obs.metrics import get_metrics

__all__ = ["EnginePool", "ModelPool", "PooledModel", "PoolTimeout"]


class PoolTimeout(ReproError, TimeoutError):
    """An engine checkout (or model compile wait) exceeded its deadline."""


class EnginePool:
    """Replica checkout for one compiled model.

    ``checkout()`` returns a private :class:`CompiledModel` replica; the
    caller must ``checkin()`` it.  The master is the first replica (no
    idle copy beside the replicas); the rest are materialized lazily
    from its serialized bytes, never more than ``capacity`` at once.
    Further checkouts block until a replica is returned.
    """

    def __init__(self, master: CompiledModel, capacity: int = 2):
        if capacity < 1:
            raise ValueError(f"engine pool capacity must be >= 1, got {capacity}")
        self._master_bytes = master.to_bytes()
        self.capacity = capacity
        self._free: List[CompiledModel] = [master]
        self._created = 1
        self._cond = threading.Condition()
        registry = get_metrics()
        if registry.enabled:
            registry.counter("serve.pool.engines_created").inc(1)

    def checkout(self, timeout: Optional[float] = None) -> CompiledModel:
        with self._cond:
            while True:
                if self._free:
                    return self._free.pop()
                if self._created < self.capacity:
                    self._created += 1
                    break
                if not self._cond.wait(timeout=timeout):
                    raise PoolTimeout(
                        f"no engine replica free after {timeout:.3f}s "
                        f"(capacity {self.capacity}); raise "
                        "--engines-per-model or lower concurrency"
                    )
        # Deserialize outside the lock: it can take milliseconds and
        # other threads may be returning replicas meanwhile.
        try:
            replica = CompiledModel.from_bytes(self._master_bytes)
        except BaseException:
            with self._cond:
                self._created -= 1
                self._cond.notify()
            raise
        registry = get_metrics()
        if registry.enabled:
            registry.counter("serve.pool.engines_created").inc(1)
        return replica

    def checkin(self, replica: CompiledModel) -> None:
        with self._cond:
            self._free.append(replica)
            self._cond.notify()

    @property
    def created(self) -> int:
        return self._created


class PooledModel:
    """One resident compile: the master artifact plus its engine pool."""

    def __init__(self, key: str, model: CompiledModel, engines: int):
        self.key = key
        self.model = model
        self.engines = EnginePool(model, capacity=engines)
        self.hits = 0

    def describe(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "circuit": self.model.circuit.name,
            "backend": self.model.backend_name,
            "hits": self.hits,
            "engines_created": self.engines.created,
            "engine_capacity": self.engines.capacity,
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
        engines_per_model: int = 2,
    ):
        if max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {max_models}")
        self.cache = cache
        #: fingerprints come from CompileCache.key_for, which is a pure
        #: content hash; with no on-disk cache configured a detached
        #: instance still computes keys (it never touches the disk).
        self._keyer = cache if cache is not None else CompileCache()
        self.max_models = max_models
        self.engines_per_model = engines_per_model
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
            entry = PooledModel(key, model, self.engines_per_model)
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
                "engines_per_model": self.engines_per_model,
                "evictions": self.evictions,
                "models": [e.describe() for e in self._entries.values()],
                "cache": self.cache.stats() if self.cache is not None else None,
            }
