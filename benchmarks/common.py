"""Helpers shared by the benchmark runners.

The measurement methodology (scenario salting, timing loop) lives in
:mod:`repro.perf.collect`, so ``repro perf record`` and the runners can
never drift apart; every runner compiles through the default ``auto``
backend, the rule ``repro estimate`` and ``repro serve`` use.  Every
runner writes its report as one ``repro.perf/v2`` document
(:func:`write_document`): the same shape ``repro perf record --from``
stores and ``repro perf diff`` gates.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Callable, Dict, List, Optional

from repro.perf.collect import new_document, timed
from repro.perf.store import row

#: shortest timed sample: calls are repeated back to back up to this
MIN_SAMPLE_SECONDS = 0.010
#: salt stride between the calls of one sample (samples use salts 0..)
_CALL_SALT_STRIDE = 1000


def engine_counters(estimator) -> Dict[str, int]:
    """Cumulative engine work counters of a compiled estimator."""
    return estimator.propagation_counters().as_dict()


def per_call_samples(
    fn: Callable[[Any], Any], scenarios: Callable[[int], Any], repeats: int
) -> List[float]:
    """``repeats`` samples of ``fn``'s per-call seconds.

    ``scenarios(salt)`` builds one call's argument; a probe call sizes
    every sample to at least ``MIN_SAMPLE_SECONDS`` of back-to-back
    calls, so millisecond calls are not lost in timer and scheduler
    noise.  Call ``i`` of sample ``r`` uses salt
    ``r + _CALL_SALT_STRIDE * i``, so no call repeats another's work,
    and one-call samples time exactly salts ``0 .. repeats - 1``.
    """
    probe = timed(fn, scenarios(repeats + 3))
    calls = max(1, math.ceil(MIN_SAMPLE_SECONDS / max(probe, 1e-9)))
    samples = []
    for r in range(repeats):
        args = [scenarios(r + _CALL_SALT_STRIDE * i) for i in range(calls)]
        start = time.perf_counter()
        for arg in args:
            fn(arg)
        samples.append((time.perf_counter() - start) / calls)
    return samples


def parse_csv_names(spec: str) -> List[str]:
    """``"a, b,c"`` -> ``["a", "b", "c"]`` (empty entries dropped)."""
    return [name.strip() for name in spec.split(",") if name.strip()]


def stage_rows(
    circuit: str,
    fields: Dict[str, Any],
    stages: Dict[str, str],
    samples: Optional[Dict[str, List[float]]] = None,
    **key: Any,
) -> List[Dict[str, Any]]:
    """One row per measured field of a runner's per-point record, in
    ``stages`` order (metric name -> pipeline stage); ``None`` and
    absent fields are skipped."""
    samples = samples or {}
    return [
        row(circuit, stage, metric, fields[metric],
            samples=samples.get(metric), **key)
        for metric, stage in stages.items()
        if fields.get(metric) is not None
    ]


def write_document(
    path: str,
    benchmark: str,
    rows: List[Dict[str, Any]],
    config: Dict[str, Any],
) -> None:
    """Validate and write one runner's ``repro.perf/v2`` report."""
    document = new_document(benchmark, rows, config=config)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path} ({len(rows)} rows)")
