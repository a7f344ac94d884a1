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
from typing import Any, Dict, List, Optional

from repro.perf.collect import new_document
from repro.perf.store import row


def engine_counters(estimator) -> Dict[str, int]:
    """Cumulative engine work counters of a compiled estimator."""
    return estimator.propagation_counters().as_dict()


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
