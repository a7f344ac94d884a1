"""Counters, gauges and histograms for the observability layer.

Complements :mod:`repro.obs.trace`: spans say *where time went*,
metrics say *how much work was done* -- messages passed, FLOP
estimates, per-clique state-space sizes, peak factor bytes.

Same invariants as the tracer (DESIGN.md section 8):

- **Off by default.**  The process-global registry returned by
  :func:`get_metrics` starts disabled; while disabled every accessor
  returns shared null instruments whose mutators are no-ops, so
  instrumented hot paths cost one attribute check.  Producers that
  batch their updates (the propagation engine publishes one aggregated
  delta per propagation) should guard on ``registry.enabled`` and skip
  the call entirely.
- **Thread safety.**  Instrument creation and every mutation take a
  lock, so counters aggregated from ``SegmentedEstimator`` worker
  threads sum exactly as in a serial run.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Any, Dict, List

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "enable_metrics",
    "disable_metrics",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def to_value(self) -> int:
        return self._value


class Gauge:
    """Last/extreme/accumulated value of a quantity.

    ``set`` overwrites, ``set_max`` keeps the maximum seen (peak
    memory, largest clique), ``add`` accumulates (total state space
    across segment trees).
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_value(self) -> float:
        return self._value


class Histogram:
    """Streaming summary of observations with percentile estimates.

    Running aggregates (count/sum/min/max/mean) plus a bounded
    reservoir of :data:`Histogram.RESERVOIR_SIZE` samples for
    p50/p90/p99 -- observing stays O(1) and memory stays fixed no
    matter how many values stream through.  Until the reservoir fills,
    percentiles are exact; past that they are the standard
    uniformly-sampled estimate.  The reservoir RNG is seeded per
    instance, so a deterministic observation sequence yields a
    deterministic export (perf profiles embedding these summaries must
    be reproducible).
    """

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_samples", "_rng", "_lock")

    #: retained-sample cap; percentiles are exact below it.
    RESERVOIR_SIZE = 1024

    def __init__(self, name: str):
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._samples: List[float] = []
        self._rng = random.Random(0x9E3779B9)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._samples) < self.RESERVOIR_SIZE:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self.RESERVOIR_SIZE:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the
        retained samples; 0.0 when nothing was observed."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        rank = math.ceil(q / 100.0 * len(samples))
        return samples[min(len(samples) - 1, max(rank - 1, 0))]

    def to_value(self) -> Dict[str, float]:
        with self._lock:
            if self._count == 0:
                return {
                    "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
                }
            samples = sorted(self._samples)
            summary = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
            }
        for key, q in (("p50", 50.0), ("p90", 90.0), ("p99", 99.0)):
            rank = math.ceil(q / 100.0 * len(samples))
            summary[key] = samples[min(len(samples) - 1, max(rank - 1, 0))]
        return summary


class _NullInstrument:
    """Shared do-nothing stand-in returned while the registry is off."""

    __slots__ = ()

    name = ""
    value = 0
    count = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def to_value(self) -> int:
        return 0


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- control ------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every instrument (names re-create lazily)."""
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}

    # -- instruments --------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    # -- export -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time JSON-ready dump of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: v.to_value() for k, v in sorted(counters.items())},
            "gauges": {k: v.to_value() for k, v in sorted(gauges.items())},
            "histograms": {k: v.to_value() for k, v in sorted(histograms.items())},
        }


#: process-global registry; disabled until :func:`enable_metrics`.
_default_metrics = MetricsRegistry(enabled=False)


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry (no-op unless enabled)."""
    return _default_metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _default_metrics
    previous = _default_metrics
    _default_metrics = registry
    return previous


def enable_metrics(reset: bool = True) -> MetricsRegistry:
    """Enable the global registry (optionally clearing instruments)."""
    if reset:
        _default_metrics.reset()
    _default_metrics.enable()
    return _default_metrics


def disable_metrics() -> MetricsRegistry:
    """Disable the global registry (instruments are kept)."""
    _default_metrics.disable()
    return _default_metrics
