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

from repro.core.states import N_STATES, TransitionState
from repro.obs.metrics import get_metrics

__all__ = [
    "ResultCache",
    "input_cpd_signatures",
    "replay_estimate",
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


def replay_estimate(payload: "Dict[str, Any]"):
    """Materialize a stored cache payload as a fresh
    :class:`~repro.core.estimator.SwitchingEstimate` marked
    ``result_cache_hit=True`` (imported lazily to keep this module
    import-light under the estimator)."""
    from repro.core.estimator import SwitchingEstimate

    return SwitchingEstimate(
        distributions=payload["distributions"],
        compile_seconds=0.0,
        propagate_seconds=0.0,
        method=payload["method"],
        segments=payload["segments"],
        cache_hit=None,
        result_cache_hit=True,
        refine_iterations=payload["refine_iterations"],
        refine_delta=payload["refine_delta"],
    )


class _Entry:
    """One stored estimate, laid out compactly: the line names, one
    ``(n, 4)`` float64 marginal table and one ``(n,)`` activity array
    (row ``i`` of each belongs to ``lines[i]``), plus the replay
    scalars.  ``nbytes`` is what the entry holds (:func:`sys.getsizeof`
    of each object it owns); the line-name strings are the compiled
    model's and are not counted."""

    __slots__ = (
        "lines", "table", "activities", "mean_activity", "method",
        "segments", "refine_iterations", "refine_delta", "nbytes",
    )

    def __init__(self, estimate) -> None:
        self.lines = tuple(estimate.distributions)
        self.table = np.empty((len(self.lines), N_STATES))
        self.table[...] = list(estimate.distributions.values())
        # The same float64 sum ``switching_probability`` takes per line.
        self.activities = (
            self.table[:, TransitionState.X01] + self.table[:, TransitionState.X10]
        )
        self.mean_activity = float(np.mean(self.activities))
        self.method = estimate.method
        self.segments = estimate.segments
        self.refine_iterations = estimate.refine_iterations
        self.refine_delta = estimate.refine_delta
        self.nbytes = (
            sys.getsizeof(self)
            + sys.getsizeof(self.lines)
            + sys.getsizeof(self.table)
            + sys.getsizeof(self.activities)
            + sys.getsizeof(self.mean_activity)
        )


class ResultCache:
    """Thread-safe LRU of stored switching-estimate payloads.

    Keys are ``(compile fingerprint, scenario digest)`` tuples; values
    are compact entries (one marginal table and one activity array per
    estimate) plus the method fields a replay needs.  Arrays are copied
    both into and out of the cache, so neither the producer's engine
    buffers nor a consumer's mutations can corrupt a stored result -- a
    hit replays the bitwise-identical marginals of the propagation that
    filled it.  ``bytes`` sums what the stored entries hold.
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

    def get(
        self, key: Tuple[str, str], need_arrays: bool = True
    ) -> Optional[Dict[str, Any]]:
        """Stored payload for ``key`` (arrays copied), or ``None``.

        The payload is a dict of per-line views: ``activities`` maps
        each line to its float, and ``distributions`` (only when
        ``need_arrays``) maps each line to a ``(4,)`` row of one fresh
        copy of the stored table.  ``need_arrays=False`` is the serving
        hot path for ``detail`` modes that never touch the
        distributions.
        """
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
        view = {
            "activities": dict(zip(entry.lines, entry.activities.tolist())),
            "mean_activity": entry.mean_activity,
            "method": entry.method,
            "segments": entry.segments,
            "refine_iterations": entry.refine_iterations,
            "refine_delta": entry.refine_delta,
        }
        if need_arrays:
            view["distributions"] = dict(zip(entry.lines, entry.table.copy()))
        return view

    def put(self, key: Tuple[str, str], estimate) -> None:
        """Store one :class:`SwitchingEstimate`'s replayable payload.

        Alongside the bitwise marginal table, the rendered scalars a
        response needs (per-line switching activities, their mean) are
        computed once here so that every later hit replays stored
        floats instead of re-deriving them from the arrays.
        """
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
