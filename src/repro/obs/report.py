"""Export an instrumented run as JSON or as a human-readable tree/table.

The JSON form is the machine interface of the observability layer: CI
validates it, benchmark runners embed it, and future regression tooling
diffs it.  Its shape is versioned (:data:`SCHEMA`, :data:`SCHEMA_VERSION`)
and guarded by :func:`validate_report`, so the format cannot drift
silently -- bump the version when the shape changes.

Report shape (version 2; v2 added the p50/p90/p99 percentile fields to
histogram summaries)::

    {
      "schema": "repro.obs/v2",
      "schema_version": 2,
      "meta": {...},                      # free-form, str keys
      "spans": [                          # root spans, recursive
        {"name": str, "start": float, "duration": float,
         "attributes": {...}, "children": [...]},
      ],
      "metrics": {
        "counters": {name: int},
        "gauges": {name: float},
        "histograms": {name: {"count": int, "sum": float, "min": float,
                              "max": float, "mean": float, "p50": float,
                              "p90": float, "p99": float}},
      },
    }
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import Tracer, get_tracer

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "build_report",
    "validate_report",
    "check_span_containment",
    "render_report",
]

SCHEMA = "repro.obs/v2"
SCHEMA_VERSION = 2

#: histogram export keys, in rendering order
_HISTOGRAM_KEYS = ("count", "sum", "min", "max", "mean", "p50", "p90", "p99")


def build_report(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned report from a tracer + metrics registry.

    Defaults to the process-global instances; ``meta`` carries run
    context (circuit name, command line, ...).
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "spans": [span.to_dict() for span in tracer.roots],
        "metrics": metrics.snapshot(),
    }


def _fail(message: str) -> None:
    raise ValueError(f"invalid obs report: {message}")


def _validate_span(span: Any, path: str) -> None:
    if not isinstance(span, dict):
        _fail(f"{path} is not an object")
    for key, kind in (
        ("name", str),
        ("start", (int, float)),
        ("duration", (int, float)),
        ("attributes", dict),
        ("children", list),
    ):
        if key not in span:
            _fail(f"{path} is missing {key!r}")
        if not isinstance(span[key], kind):
            _fail(f"{path}.{key} has type {type(span[key]).__name__}")
    if span["duration"] < 0:
        _fail(f"{path}.duration is negative")
    for i, child in enumerate(span["children"]):
        _validate_span(child, f"{path}.children[{i}]")


def validate_report(report: Any) -> Dict[str, Any]:
    """Validate a report against the version-1 schema.

    Raises :class:`ValueError` with a pointed message on any drift;
    returns the report unchanged on success so calls can be inlined.
    """
    if not isinstance(report, dict):
        _fail("top level is not an object")
    if report.get("schema") != SCHEMA:
        _fail(f"schema is {report.get('schema')!r}, expected {SCHEMA!r}")
    if report.get("schema_version") != SCHEMA_VERSION:
        _fail(
            f"schema_version is {report.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if not isinstance(report.get("meta"), dict):
        _fail("meta is not an object")
    if not isinstance(report.get("spans"), list):
        _fail("spans is not a list")
    for i, span in enumerate(report["spans"]):
        _validate_span(span, f"spans[{i}]")
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        _fail("metrics is not an object")
    for family in ("counters", "gauges", "histograms"):
        table = metrics.get(family)
        if not isinstance(table, dict):
            _fail(f"metrics.{family} is not an object")
        for name, value in table.items():
            if not isinstance(name, str):
                _fail(f"metrics.{family} has a non-string key")
            if family == "histograms":
                if not isinstance(value, dict) or set(value) != set(_HISTOGRAM_KEYS):
                    _fail(f"metrics.histograms[{name!r}] has wrong keys")
                if any(not isinstance(value[k], (int, float)) for k in value):
                    _fail(f"metrics.histograms[{name!r}] has non-numeric fields")
            elif not isinstance(value, (int, float)):
                _fail(f"metrics.{family}[{name!r}] is not numeric")
    return report


def check_span_containment(report: Dict[str, Any], slack: float = 1e-6) -> None:
    """Assert every child span's interval lies inside its parent's.

    This is the cross-thread-safe consistency invariant: children may
    overlap each other (spans on different threads), but a parent never
    closes before its children do, so child intervals are contained in
    the parent interval up to clock ``slack``.  Raises :class:`ValueError`
    on violation.
    """

    def walk(span: Dict[str, Any], path: str) -> None:
        start = span["start"]
        end = start + span["duration"]
        for i, child in enumerate(span["children"]):
            child_path = f"{path} > {child['name']}"
            if child["start"] < start - slack:
                _fail(f"{child_path} starts before its parent")
            if child["start"] + child["duration"] > end + slack:
                _fail(f"{child_path} ends after its parent")
            walk(child, child_path)

    for span in report.get("spans", []):
        walk(span, span["name"])


def _span_lines(span: Dict[str, Any], depth: int, lines: List[str]) -> None:
    attrs = span["attributes"]
    shown = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    suffix = f"  [{shown}]" if shown else ""
    lines.append(
        f"{'  ' * depth}{span['name']:<{max(40 - 2 * depth, 8)}s}"
        f" {span['duration'] * 1e3:10.3f} ms{suffix}"
    )
    for child in span["children"]:
        _span_lines(child, depth + 1, lines)


def render_report(report: Dict[str, Any]) -> str:
    """Human rendering: span tree plus metrics tables."""
    from repro.analysis.tables import format_table

    lines: List[str] = []
    meta = report.get("meta", {})
    if meta:
        shown = ", ".join(f"{k}={meta[k]}" for k in sorted(meta))
        lines.append(f"run: {shown}")
        lines.append("")
    if report["spans"]:
        lines.append("Spans")
        lines.append("=====")
        for span in report["spans"]:
            _span_lines(span, 0, lines)
        lines.append("")
    metrics = report["metrics"]
    if metrics["counters"]:
        rows = [[k, v] for k, v in metrics["counters"].items()]
        lines.append(format_table(["counter", "value"], rows))
        lines.append("")
    if metrics["gauges"]:
        rows = [[k, v] for k, v in metrics["gauges"].items()]
        lines.append(format_table(["gauge", "value"], rows))
        lines.append("")
    if metrics["histograms"]:
        rows = [
            [k] + [v[key] for key in _HISTOGRAM_KEYS]
            for k, v in metrics["histograms"].items()
        ]
        lines.append(format_table(["histogram", *_HISTOGRAM_KEYS], rows))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
