"""Human rendering of perf history: trajectory tables and diff lines.

``render_log`` is the `repro perf log` view.  It renders the rows of
any ``repro.perf/v2`` document generically: one section per benchmark
kind (only documents of one kind measure the same thing), one table
per stage inside it, one line per ``(circuit, metric[key])`` row and
one column per recorded version (newest last), so a metric's
trajectory across SHAs reads left to right.  ``render_diff`` is the
one-line-per-record view of ``repro perf diff``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.tables import format_table
from repro.perf.store import key_suffix, row_id

__all__ = ["render_diff", "render_log", "version_label"]

_STATUS_FLAGS = {
    "ok": " ",
    "skipped": "~",
    "missing": "?",
    "regression": "!",
    "accuracy": "#",
}


def version_label(profile: Dict[str, Any]) -> str:
    """Column label for one recorded version: short SHA, ``*`` if the
    working tree was dirty when recorded."""
    git = profile.get("git", {})
    label = git.get("short") or git.get("sha", "?")[:10]
    return f"{label}*" if git.get("dirty") else label


def _kind_section(
    profiles: List[Dict[str, Any]],
    metric: Optional[str],
    circuit: Optional[str],
) -> List[str]:
    """Per-stage trajectory tables for documents of one kind."""
    stages: Dict[str, Dict[tuple, Dict[str, Any]]] = {}
    for profile in profiles:
        for entry in profile["rows"]:
            if metric is not None and entry["metric"] != metric:
                continue
            if circuit is not None and entry["circuit"] != circuit:
                continue
            stages.setdefault(entry["stage"], {}).setdefault(
                row_id(entry), entry
            )
    if not stages:
        return []
    values = [
        {row_id(entry): entry["value"] for entry in profile["rows"]}
        for profile in profiles
    ]
    headers = ["circuit", "metric"] + [version_label(p) for p in profiles]
    tables = []
    for stage, entries in stages.items():
        table_rows = [
            [entry["circuit"], entry["metric"] + key_suffix(entry["key"])]
            + [v.get(identity, "-") for v in values]
            for identity, entry in entries.items()
        ]
        title = f"stage {stage}"
        tables.append(format_table(headers, table_rows, precision=6, title=title))
    return tables


def render_log(
    profiles: List[Dict[str, Any]],
    metric: Optional[str] = None,
    circuit: Optional[str] = None,
) -> str:
    """Per-stage trajectory tables: rows are (circuit, metric), columns
    versions.

    ``profiles`` is oldest-first (the store's order); absent cells
    render as ``-`` (a quick recording covers fewer circuits than a
    full one).
    """
    if not profiles:
        return "perf log: no recorded profiles\n"
    kinds: Dict[str, List[Dict[str, Any]]] = {}
    for profile in profiles:
        kinds.setdefault(profile["benchmark"], []).append(profile)
    lines = []
    matched = False
    for kind, docs in kinds.items():
        lines.append(f"== {kind} ({len(docs)} version(s))")
        for profile in docs:
            fp = profile.get("fingerprint", {})
            lines.append(
                f"  {version_label(profile):>12s}  "
                f"{profile.get('recorded_at', '?')}"
                f"  machine {fp.get('digest', '?')}"
                + (f"  ({profile['note']})" if profile.get("note") else "")
            )
        tables = _kind_section(docs, metric, circuit)
        matched = matched or bool(tables)
        for table in tables:
            lines.extend(["", table])
        lines.append("")
    if not matched:
        wanted = f"metric {metric!r}" if metric else "the filters"
        lines.append(f"perf log: no measurements matching {wanted}")
    return "\n".join(lines) + "\n"


def render_diff(records: List[Dict[str, Any]]) -> str:
    """One line per compared record, worst problems flagged.

    Flags: ``!`` perf regression, ``#`` accuracy drift, ``~`` skipped
    (below the timing floor), ``?`` missing from the new side.
    """
    lines = []
    for record in records:
        flag = _STATUS_FLAGS.get(record["status"], "?")
        name = f"{record['stage']}/{record['metric']}"
        if record["status"] == "missing":
            lines.append(
                f"{flag} {record['key']:>16s}  {name}  (not in new document)"
                f"  missing"
            )
            continue
        lines.append(
            f"{flag} {record['key']:>16s}  {name}  "
            f"old {record['old']:12.6g}  new {record['new']:12.6g}  "
            f"x{record['ratio']:.3f}  {record['status']}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
