"""Append-only, schema-versioned store of performance profiles.

The store is a directory (``.repro-perf/`` by default, overridable via
``$REPRO_PERF_DIR``) holding one JSON-lines file, ``profiles.jsonl``:
one profile per line, append-only, newest last.  Append-only is the
point -- the perf trajectory of the repository is a *history*, and
``repro perf log`` renders it directly from this file.  A committed
baseline (:data:`BASELINE_FILE`, ``PERF_HISTORY.json``) carries the
same profiles wrapped in a ``{"profiles": [...]}`` document so CI can
diff a fresh recording against the last agreed-on numbers.

Document shape (``repro.perf/v2``) -- one shape for every benchmark
runner's ``BENCH_*.json``, every ``repro perf record`` profile and the
committed history::

    {
      "schema": "repro.perf/v2",
      "schema_version": 2,
      "benchmark": "profile",                  # or propagation/throughput/
                                               #    segmentation/serving
      "recorded_at": "2026-08-08T12:00:00Z",   # ISO-8601 UTC
      "note": "",                              # free-form provenance
      "git": {"sha": str, "short": str, "dirty": bool},
      "fingerprint": {..., "digest": str},     # see perf.fingerprint
      "config": {"repeats": 3, ...},           # the run's settings
      "obs": {"counters": ..., "gauges": ..., "histograms": ...},  # optional
      "rows": [
        {"circuit": "c17", "stage": "repeat",
         "metric": "repeat_estimate_min_seconds", "value": 0.0005,
         "samples": [0.0006, 0.0005], "key": {}},
        {"circuit": "c17", "stage": "batched",
         "metric": "batched_scenarios_per_sec", "value": 26451.0,
         "key": {"K": 64}},
        ...
      ],
    }

A row is one measured number.  ``(circuit, stage, metric, key)``
identifies it -- ``key`` holds the point's extra coordinates (batch
size, serving mode, refine level), empty when the circuit alone
identifies it -- and is unique within a document; ``samples`` carries
the raw observations behind ``value`` when there are several.

Corruption policy (mirrors the compile cache's corrupt-entry
eviction): a truncated or garbage line -- a byte-chopped file after a
crash mid-append -- is *skipped* with a :class:`UserWarning` and a
``perf.store.corrupt`` obs counter increment, never a crash.  The
profiles before the damage stay readable, which is all an append-only
log can promise.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import PerfProfileError
from repro.obs.metrics import get_metrics

__all__ = [
    "BASELINE_FILE",
    "BENCHMARK_KINDS",
    "DEFAULT_STORE_DIR",
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "PerfStore",
    "key_suffix",
    "load_profiles_file",
    "row",
    "row_id",
    "row_label",
    "validate_profile",
    "write_history",
]

PROFILE_SCHEMA = "repro.perf/v2"
PROFILE_SCHEMA_VERSION = 2

#: What produced a document: a ``repro perf record`` profile or one of
#: the four benchmark runners.  Only documents of one kind compare.
BENCHMARK_KINDS = ("profile", "propagation", "throughput", "segmentation", "serving")

_ROW_FIELDS = frozenset(("circuit", "stage", "metric", "value", "samples", "key"))

#: Environment variable overriding the default store directory.
STORE_DIR_ENV = "REPRO_PERF_DIR"

#: Default store directory, relative to the working directory (the
#: store is per-checkout state, like ``.git``, not per-user state).
DEFAULT_STORE_DIR = ".repro-perf"

#: The committed baseline document diffed against in CI.
BASELINE_FILE = "PERF_HISTORY.json"


def row(
    circuit: str,
    stage: str,
    metric: str,
    value: Any,
    samples: Optional[List[float]] = None,
    **key: Any,
) -> Dict[str, Any]:
    """One measurement row; keyword arguments become its ``key``."""
    entry = {
        "circuit": circuit,
        "stage": stage,
        "metric": metric,
        "value": value,
        "key": key,
    }
    if samples is not None:
        entry["samples"] = list(samples)
    return entry


def row_id(entry: Dict[str, Any]) -> Tuple:
    """The identity rows are matched on across documents."""
    return (
        entry["circuit"],
        entry["stage"],
        entry["metric"],
        tuple(sorted(entry["key"].items())),
    )


def key_suffix(key: Dict[str, Any]) -> str:
    """``""`` for an empty key, else ``"[k=v,...]"``."""
    if not key:
        return ""
    return "[" + ",".join(f"{k}={v}" for k, v in sorted(key.items())) + "]"


def row_label(entry: Dict[str, Any]) -> str:
    """``circuit`` or ``circuit[k=v,...]`` -- the human row name."""
    return entry["circuit"] + key_suffix(entry["key"])


def _fail(message: str) -> None:
    raise PerfProfileError(f"invalid perf profile: {message}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_row(i: int, entry: Any) -> None:
    if not isinstance(entry, dict):
        _fail(f"rows[{i}] is not an object")
    unknown = set(entry) - _ROW_FIELDS
    if unknown:
        _fail(f"rows[{i}] has unknown fields {sorted(unknown)}")
    for field in ("circuit", "stage", "metric"):
        if not isinstance(entry.get(field), str) or not entry[field]:
            _fail(f"rows[{i}].{field} is missing or not a string")
    # bool is an int subclass: pass/fail flags are numbers to the gate.
    if not isinstance(entry.get("value"), (int, float)):
        _fail(f"rows[{i}].value is neither a number nor a bool")
    samples = entry.get("samples")
    if samples is not None and not (
        isinstance(samples, list) and all(_is_number(v) for v in samples)
    ):
        _fail(f"rows[{i}].samples is not a list of numbers")
    key = entry.get("key")
    if not isinstance(key, dict) or not all(
        isinstance(v, str) or _is_number(v) for v in key.values()
    ):
        _fail(f"rows[{i}].key is not a flat object of strings and numbers")


def validate_profile(profile: Any) -> Dict[str, Any]:
    """Validate a document against the ``repro.perf/v2`` schema.

    Raises :class:`~repro.errors.PerfProfileError` on drift; returns
    the document unchanged on success so calls can be inlined.
    """
    if not isinstance(profile, dict):
        _fail("top level is not an object")
    if profile.get("schema") != PROFILE_SCHEMA:
        _fail(
            f"schema is {profile.get('schema')!r}, expected {PROFILE_SCHEMA!r}"
        )
    if profile.get("schema_version") != PROFILE_SCHEMA_VERSION:
        _fail(
            f"schema_version is {profile.get('schema_version')!r}, "
            f"expected {PROFILE_SCHEMA_VERSION}"
        )
    if profile.get("benchmark") not in BENCHMARK_KINDS:
        _fail(
            f"benchmark is {profile.get('benchmark')!r}, expected one of "
            f"{list(BENCHMARK_KINDS)}"
        )
    git = profile.get("git")
    if not isinstance(git, dict) or not isinstance(git.get("sha"), str):
        _fail("git.sha is missing or not a string")
    if not isinstance(git.get("dirty"), bool):
        _fail("git.dirty is missing or not a bool")
    fingerprint = profile.get("fingerprint")
    if not isinstance(fingerprint, dict) or not isinstance(
        fingerprint.get("digest"), str
    ):
        _fail("fingerprint.digest is missing or not a string")
    if not isinstance(profile.get("config"), dict):
        _fail("config is missing or not an object")
    rows = profile.get("rows")
    if not isinstance(rows, list) or not rows:
        _fail("rows is missing or empty (no measurements)")
    seen = set()
    for i, entry in enumerate(rows):
        _validate_row(i, entry)
        identity = row_id(entry)
        if identity in seen:
            _fail(
                f"rows[{i}] repeats {row_label(entry)} "
                f"{entry['stage']}/{entry['metric']}"
            )
        seen.add(identity)
    if "obs" in profile and not isinstance(profile["obs"], dict):
        _fail("obs is present but not an object")
    return profile


def _count_corrupt(detail: str) -> None:
    """A damaged entry: warn, count, move on (never crash)."""
    warnings.warn(
        f"perf store: skipping corrupt profile entry ({detail})",
        UserWarning,
        stacklevel=3,
    )
    registry = get_metrics()
    if registry.enabled:
        registry.counter("perf.store.corrupt").inc(1)


def default_store_dir() -> Path:
    """``$REPRO_PERF_DIR``, else ``.repro-perf`` in the working dir."""
    override = os.environ.get(STORE_DIR_ENV)
    if override:
        return Path(override)
    return Path(DEFAULT_STORE_DIR)


class PerfStore:
    """Append-only profile log under a store directory.

    Parameters
    ----------
    root:
        Store directory (created on first append).  Defaults to
        :func:`default_store_dir`.
    """

    FILENAME = "profiles.jsonl"

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_store_dir()

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------

    def append(self, profile: Dict[str, Any]) -> Path:
        """Validate and append one profile (one compact JSON line)."""
        validate_profile(profile)
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(profile, sort_keys=True, separators=(",", ":"))
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
        return self.path

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def profiles(
        self, fingerprint_digest: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Every readable profile, oldest first.

        Corrupt lines (truncated tail after a crash, garbage bytes) are
        skipped with a warning and a ``perf.store.corrupt`` counter
        increment.  ``fingerprint_digest`` filters to one machine.
        """
        if not self.path.is_file():
            return []
        found: List[Dict[str, Any]] = []
        with open(self.path, errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    profile = validate_profile(json.loads(line))
                except (json.JSONDecodeError, PerfProfileError) as exc:
                    _count_corrupt(f"{self.path}:{lineno}: {exc}")
                    continue
                if (
                    fingerprint_digest is not None
                    and profile["fingerprint"].get("digest")
                    != fingerprint_digest
                ):
                    continue
                found.append(profile)
        return found

    def resolve(self, ref: str) -> Dict[str, Any]:
        """Resolve a profile reference to one profile.

        ``ref`` is, in precedence order:

        - a path to a profile JSON, a ``{"profiles": [...]}`` history
          document (``PERF_HISTORY.json``), or a ``.jsonl`` log -- the
          *last* profile in the file wins,
        - ``"latest"`` -- the newest profile in this store,
        - a git SHA prefix -- the newest stored profile whose
          ``git.sha`` starts with it.
        """
        path = Path(ref)
        if path.is_file():
            profiles = load_profiles_file(path)
            if not profiles:
                raise PerfProfileError(f"{ref}: no readable profiles")
            return profiles[-1]
        profiles = self.profiles()
        if ref == "latest":
            if not profiles:
                raise PerfProfileError(
                    f"perf store {self.path} has no profiles; "
                    f"run `repro perf record` first"
                )
            return profiles[-1]
        matches = [p for p in profiles if p["git"]["sha"].startswith(ref)]
        if not matches:
            raise PerfProfileError(
                f"no stored profile matches ref {ref!r} "
                f"(store: {self.path}, {len(profiles)} profile(s))"
            )
        return matches[-1]


def load_profiles_file(
    path: os.PathLike, strict: bool = False
) -> List[Dict[str, Any]]:
    """Read profiles from a file of any supported shape, oldest first.

    Accepts a single document (a ``BENCH_*.json`` or one profile), a
    ``{"profiles": [...]}`` history document, a bare JSON list, or a
    ``.jsonl`` append log.  Corrupt entries are skipped with a warning
    (never a crash) unless ``strict``, which raises
    :class:`~repro.errors.PerfProfileError` on the first one instead.
    """
    path = Path(path)
    try:
        text = path.read_text(errors="replace")
    except OSError as exc:
        raise PerfProfileError(f"cannot read {path}: {exc}") from exc
    candidates: List[Any]
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        # JSON-lines (or a damaged document): recover line by line.
        candidates = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                candidates.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if strict:
                    raise PerfProfileError(f"{path}:{lineno}: {exc}") from exc
                _count_corrupt(f"{path}:{lineno}: {exc}")
    else:
        if isinstance(document, dict) and "profiles" in document:
            candidates = document["profiles"]
            if not isinstance(candidates, list):
                raise PerfProfileError(f"{path}: 'profiles' is not a list")
        elif isinstance(document, list):
            candidates = document
        else:
            candidates = [document]
    found: List[Dict[str, Any]] = []
    for i, candidate in enumerate(candidates):
        try:
            found.append(validate_profile(candidate))
        except PerfProfileError as exc:
            if strict:
                raise PerfProfileError(f"{path}[{i}]: {exc}") from exc
            _count_corrupt(f"{path}[{i}]: {exc}")
    return found


def write_history(path: os.PathLike, profiles: List[Dict[str, Any]]) -> Path:
    """Write the committed-baseline history document."""
    path = Path(path)
    for profile in profiles:
        validate_profile(profile)
    document = {
        "schema": PROFILE_SCHEMA,
        "schema_version": PROFILE_SCHEMA_VERSION,
        "profiles": profiles,
    }
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
