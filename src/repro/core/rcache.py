"""Fingerprint-keyed result cache and canonical scenario digests.

Real estimation traffic is skewed: power-sweep and synthesis loops
re-evaluate the *same* input statistics over and over.  Propagation is
a pure function of the installed potentials, so an exact repeat can be
answered from memory with results bitwise-identical to a fresh pass.
This module supplies the two halves of that reuse:

- :func:`scenario_digest` -- a canonical content hash of the input
  statistics a model induces for a circuit.  Two scenario specs that
  build the same per-input CPDs collide regardless of surface form
  (dict key order, ``-0.0`` vs ``0.0``, float-repr aliases, the order
  correlated groups were listed in); any perturbed probability changes
  the digest.
- :class:`ResultCache` -- a thread-safe LRU of ``(compile fingerprint,
  scenario digest) -> stored marginal table``.  The fingerprint half
  is the compile-cache content key (circuit + backend + options +
  artifact schema), so a cache entry can never survive anything that
  would have changed the compiled model.

:func:`input_cpd_signatures` exposes the per-input digests (and each
input's CPD parents) that :func:`scenario_digest` combines.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.estimator import SwitchingEstimate
from repro.obs.metrics import get_metrics

__all__ = [
    "ResultCache",
    "input_cpd_signatures",
    "scenario_digest",
]


def _cpd_digest(cpd) -> bytes:
    """Content hash of one CPD: variable, parents, float64 table bytes.

    The table is normalized with ``+ 0.0`` so ``-0.0`` and ``0.0``
    (distinct bit patterns, equal numbers, identical propagation
    results) hash alike.
    """
    table = np.ascontiguousarray(cpd.factor.values, dtype=np.float64) + 0.0
    h = hashlib.sha256()
    h.update(cpd.variable.encode())
    h.update(b"\x1f")
    for parent in cpd.parents:
        h.update(parent.encode())
        h.update(b"\x1f")
    h.update(b"\x1e")
    h.update(table.tobytes())
    return h.digest()


def input_cpd_signatures(
    circuit, input_model
) -> "Dict[str, Tuple[bytes, Tuple[str, ...]]]":
    """Per-input ``{name: (digest, parents)}`` for one scenario.

    Digests hash the CPD the model *induces* for each primary input of
    ``circuit`` (via ``input_cpds_trusted``), so any two specs that
    build the same tables -- whatever their surface form -- get equal
    digests.  The parents tuple names each input's correlation-chain
    predecessor (a chained member's CPD depends on its predecessors'
    CPDs too).
    """
    cpds = input_model.input_cpds_trusted(list(circuit.inputs))
    return {cpd.variable: (_cpd_digest(cpd), tuple(cpd.parents)) for cpd in cpds}


def scenario_digest(circuit, input_model) -> str:
    """Canonical content digest of one scenario against one circuit.

    Hashes every induced input CPD in sorted-variable order, so the
    digest is independent of spec dict ordering, correlated group
    listing order, and float spellings that decode to the same double.
    Member order *within* a correlated group is a different chain model
    (different CPD parent structure) and digests differently.
    """
    signatures = input_cpd_signatures(circuit, input_model)
    h = hashlib.sha256()
    for name in sorted(signatures):
        h.update(signatures[name][0])
    return h.hexdigest()


class _Entry:
    """One stored estimate, laid out compactly: its distributions over a
    copy of its ``(n, 4)`` float64 table, plus the replay scalars.  The
    copy is the entry's own, so a stored row does not keep the
    ``(K, n, 4)`` block of the call that produced it alive.  ``nbytes``
    is what the entry holds (:func:`sys.getsizeof` of each object it
    owns); the line tuple and the row index are shared by every result
    over the same lines (:func:`~repro.core.states.line_rows`) and are
    not counted."""

    __slots__ = (
        "rows", "method", "segments", "refine_iterations", "refine_delta", "nbytes",
    )

    def __init__(self, estimate) -> None:
        self.rows = estimate.distributions.over(estimate.table.copy())
        self.method = estimate.method
        self.segments = estimate.segments
        self.refine_iterations = estimate.refine_iterations
        self.refine_delta = estimate.refine_delta
        self.nbytes = (
            sys.getsizeof(self)
            + sys.getsizeof(self.rows)
            + sys.getsizeof(self.rows.table)
        )


class ResultCache:
    """Thread-safe LRU of stored switching estimates.

    Keys are ``(compile fingerprint, scenario digest)`` tuples; values
    are compact entries (one marginal table per estimate) plus the
    method fields a replay needs.  Tables are copied both into and out
    of the cache, so neither the producer's result block nor a
    consumer's mutations can corrupt a stored result -- a hit replays
    the bitwise-identical marginals of the propagation that filled it.
    ``bytes`` sums what the stored entries hold.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0

    # ------------------------------------------------------------------

    def get(self, key: Tuple[str, str]) -> Optional[SwitchingEstimate]:
        """The stored estimate for ``key``, replayed as a fresh
        :class:`~repro.core.estimator.SwitchingEstimate` over its own
        copy of the table and marked ``result_cache_hit=True``, or
        ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        registry = get_metrics()
        if registry.enabled:
            if entry is None:
                registry.counter("rcache.misses").inc(1)
            else:
                registry.counter("rcache.hits").inc(1)
        if entry is None:
            return None
        return SwitchingEstimate(
            distributions=entry.rows.over(entry.rows.table.copy()),
            compile_seconds=0.0,
            propagate_seconds=0.0,
            method=entry.method,
            segments=entry.segments,
            result_cache_hit=True,
            refine_iterations=entry.refine_iterations,
            refine_delta=entry.refine_delta,
        )

    def put(self, key: Tuple[str, str], estimate) -> None:
        """Store a copy of one :class:`SwitchingEstimate`'s table and
        the fields its replay needs."""
        entry = _Entry(estimate)
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= old.nbytes
            self._entries[key] = entry
            self.bytes += entry.nbytes
            while len(self._entries) > self.max_entries:
                _, dropped = self._entries.popitem(last=False)
                self.bytes -= dropped.nbytes
                self.evictions += 1
                evicted += 1
        registry = get_metrics()
        if registry.enabled:
            if evicted:
                registry.counter("rcache.evictions").inc(evicted)
            registry.gauge("rcache.bytes").set(float(self.bytes))
            registry.gauge("rcache.entries").set(float(len(self._entries)))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bytes": self.bytes,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }
