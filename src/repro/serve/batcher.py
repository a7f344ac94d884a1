"""Dynamic batching: coalesce concurrent scenarios into one propagation.

The engine's batched sweep is the whole win of serving resident models:
PR 5 measured 2.3-12.3x scenarios/sec at K=64 versus looped single
queries.  A server only harvests that if *concurrent clients'* requests
-- each one scenario -- merge into one ``query_many`` call.  The
inference-server recipe applies, made work-conserving:

- Requests are grouped into *lanes*, one per pooled model (same
  compile-cache fingerprint => same lane => batchable).
- A fixed worker pool drains lanes.  A worker keeps its lane claimed
  until the batch's ``run_batch`` returns, so a lane runs at most one
  batch at a time: requests that arrive during a propagation form the
  lane's next batch, and a model's one engine is never entered by two
  batches at once.
- A worker claiming a lane lingers only for the company the lane's
  last batch had: from the claim, for at most ``linger_seconds``, it
  waits until the lane holds as many items as its last batch did
  (capped at ``max_batch``).  A fresh lane, or one whose last batch was
  a singleton, drains at once, so a lone request never waits for
  batch-mates that are not coming.

``max_batch=1`` degenerates to unbatched request-at-a-time serving
(the baseline ``bench_serving.py`` compares against).  The batcher
knows nothing about HTTP or estimation: it coalesces ``(lane key,
item)`` pairs and hands ``(key, [items])`` to the ``run_batch``
callable, fulfilling one :class:`concurrent.futures.Future` per item.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Tuple

from repro.obs.metrics import get_metrics

__all__ = ["BatchStats", "DynamicBatcher"]


@dataclass
class BatchStats:
    """Cumulative batcher accounting (also mirrored into ``repro.obs``).

    ``items`` counts batch *slots* (unique propagations); ``deduped``
    counts requests that piggybacked on an already-parked identical
    slot, so ``items + deduped`` is the number of requests served.
    """

    items: int = 0
    batches: int = 0
    full_batches: int = 0
    deduped: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, size: int, max_batch: int) -> None:
        with self.lock:
            self.items += size
            self.batches += 1
            if size >= max_batch:
                self.full_batches += 1
        registry = get_metrics()
        if registry.enabled:
            registry.counter("serve.batch.items").inc(size)
            registry.counter("serve.batch.batches").inc(1)
            registry.histogram("serve.batch.size").observe(float(size))

    def record_dedup(self) -> None:
        with self.lock:
            self.deduped += 1
        registry = get_metrics()
        if registry.enabled:
            registry.counter("serve.batcher.dedup").inc(1)

    def mean_batch_size(self) -> float:
        with self.lock:
            return self.items / self.batches if self.batches else 0.0


class _Slot:
    """One batch slot: an item plus every future waiting on its result."""

    __slots__ = ("item", "dedup_key", "futures", "born")

    def __init__(self, item: Any, dedup_key: Any) -> None:
        self.item = item
        self.dedup_key = dedup_key
        self.futures: List[Future] = [Future()]
        self.born = time.monotonic()


class _Lane:
    """Pending slots for one model key; drained by at most one worker.

    ``last_size`` is the size of the lane's last batch (1 for a fresh
    lane): how much company the next claim lingers for.  ``company``
    shares the batcher's lock and wakes the worker lingering on this
    lane when a slot arrives.
    """

    __slots__ = ("items", "claimed", "last_size", "company")

    def __init__(self, lock: threading.Lock) -> None:
        self.items: Deque[_Slot] = deque()
        self.claimed = False
        self.last_size = 1
        self.company = threading.Condition(lock)


class DynamicBatcher:
    """Worker pool + per-model lanes, one batch in flight per lane.

    Parameters
    ----------
    run_batch:
        ``run_batch(key, items) -> list[result]`` -- must return one
        result per item, in order.  An exception fails every future in
        the batch (each client sees the same typed error).  Calls for
        one key never overlap.
    max_batch:
        Scenario ceiling per propagation (engine memory scales with it).
    linger_seconds:
        The longest a claimed lane waits for as many items as its last
        batch had.  ``0`` batches only what has already queued up (under
        load batches still form, because requests queue while the
        lane's previous batch propagates).
    workers:
        Drain threads.  One is enough to saturate a single core with
        batched propagation; more overlap pickle/IO with compute and
        drain different lanes at once.
    """

    def __init__(
        self,
        run_batch: Callable[[str, List[Any]], List[Any]],
        max_batch: int = 16,
        linger_seconds: float = 0.002,
        workers: int = 2,
        name: str = "batcher",
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._run_batch = run_batch
        self.max_batch = max_batch
        self.linger_seconds = max(0.0, linger_seconds)
        self.stats = BatchStats()
        self._lanes: "OrderedDict[str, _Lane]" = OrderedDict()
        self._lock = threading.Lock()
        #: idle workers wait here for an unclaimed non-empty lane
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, key: str, item: Any, dedup_key: Any = None) -> "Future[Any]":
        """Enqueue one item for ``key``'s lane; resolves with its result.

        ``dedup_key`` (optional, hashable) enables single-flight
        coalescing: when an identical ``dedup_key`` is already *parked*
        in the lane -- submitted but not yet handed to a worker -- this
        request shares that slot and its one propagation fans out to
        every waiting future.  Slots already being propagated are never
        joined (their batch is in flight), so dedup only ever removes
        bitwise-identical duplicate work from a pending batch.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            lane = self._lanes.get(key)
            if lane is None:
                lane = self._lanes[key] = _Lane(self._lock)
            if dedup_key is not None:
                for slot in lane.items:
                    if slot.dedup_key == dedup_key:
                        future: "Future[Any]" = Future()
                        slot.futures.append(future)
                        self.stats.record_dedup()
                        return future
            slot = _Slot(item, dedup_key)
            lane.items.append(slot)
            # A claimed lane's worker is lingering on it (or propagating,
            # and takes the slot when it returns); an unclaimed lane
            # needs an idle worker.
            (lane.company if lane.claimed else self._idle).notify()
            return slot.futures[0]

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain pending lanes, join the workers."""
        with self._lock:
            self._closed = True
            self._idle.notify_all()
            for lane in self._lanes.values():
                lane.company.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _claim(self) -> "Tuple[str, _Lane] | None":
        """Next unclaimed non-empty lane, oldest head-of-line first."""
        best = None
        for key, lane in self._lanes.items():
            if lane.items and not lane.claimed:
                if best is None or lane.items[0].born < best[1].items[0].born:
                    best = (key, lane)
        if best is not None:
            best[1].claimed = True
        return best

    def _worker(self) -> None:
        while True:
            with self._lock:
                claimed = self._claim()
                while claimed is None:
                    if self._closed:
                        return
                    self._idle.wait(timeout=0.1)
                    claimed = self._claim()
                key, lane = claimed
                # Linger (releasing the lock) for as much company as the
                # lane's last batch had, never past the cap.
                want = min(lane.last_size, self.max_batch)
                deadline = time.monotonic() + self.linger_seconds
                while len(lane.items) < want and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    lane.company.wait(timeout=remaining)
                batch = [
                    lane.items.popleft()
                    for _ in range(min(self.max_batch, len(lane.items)))
                ]
                lane.last_size = len(batch)
            try:
                self._process(key, batch)
            finally:
                # Only now may the lane's next batch start: what queued
                # meanwhile is the next claim's batch.
                with self._lock:
                    lane.claimed = False

    def _process(self, key: str, batch: List[_Slot]) -> None:
        items = [slot.item for slot in batch]
        self.stats.record(len(items), self.max_batch)
        try:
            results = self._run_batch(key, items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"run_batch returned {len(results)} results for "
                    f"{len(items)} items"
                )
        except BaseException as exc:
            for slot in batch:
                for future in slot.futures:
                    if not future.cancelled():
                        future.set_exception(exc)
            return
        for slot, result in zip(batch, results):
            for future in slot.futures:
                if not future.cancelled():
                    future.set_result(result)
