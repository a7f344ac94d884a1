"""Performance history: one measurement document, one regression gate.

The observability layer (:mod:`repro.obs`) answers *where did this run
spend its time*; this package answers *how has that changed across
versions*.  Every measurement -- a ``repro perf record`` profile, each
``benchmarks/bench_*.py`` runner's ``BENCH_*.json``, the committed
``PERF_HISTORY.json`` -- is one ``repro.perf/v2`` document: git SHA,
machine fingerprint, benchmark kind and run config at document level,
then a flat list of ``{circuit, stage, metric, value, samples?, key}``
rows.  Documents append to a store (``.repro-perf/profiles.jsonl``),
render as per-stage trajectories (``repro perf log``), and gate CI
through one statistical diff (``repro perf diff``, exit 1 on perf
regression / 2 on accuracy drift or non-comparable documents).

- :mod:`repro.perf.fingerprint` -- the machine identity timings are
  only comparable within,
- :mod:`repro.perf.store`       -- the ``repro.perf/v2`` schema and the
  append-only store + committed ``PERF_HISTORY.json`` baseline,
- :mod:`repro.perf.collect`     -- run the profile measurement suite and
  build documents,
- :mod:`repro.perf.diff`        -- the row gate: per-metric rules,
  noise band, floor, accuracy tolerance,
- :mod:`repro.perf.render`      -- trajectory tables and diff lines.
"""

from __future__ import annotations

from repro.errors import PerfDiffError, PerfProfileError
from repro.perf.collect import (
    DEFAULT_CIRCUITS,
    collect_profile,
    git_revision,
    measure_circuit,
    new_document,
)
from repro.perf.diff import GATE_RULES, compare_profiles, exit_code
from repro.perf.fingerprint import (
    fingerprint_digest,
    fingerprints_compatible,
    machine_fingerprint,
)
from repro.perf.render import render_diff, render_log, version_label
from repro.perf.store import (
    BASELINE_FILE,
    BENCHMARK_KINDS,
    DEFAULT_STORE_DIR,
    PROFILE_SCHEMA,
    PROFILE_SCHEMA_VERSION,
    PerfStore,
    load_profiles_file,
    row,
    validate_profile,
    write_history,
)

__all__ = [
    "BASELINE_FILE",
    "BENCHMARK_KINDS",
    "DEFAULT_CIRCUITS",
    "DEFAULT_STORE_DIR",
    "GATE_RULES",
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "PerfDiffError",
    "PerfProfileError",
    "PerfStore",
    "collect_profile",
    "compare_profiles",
    "exit_code",
    "fingerprint_digest",
    "fingerprints_compatible",
    "git_revision",
    "load_profiles_file",
    "machine_fingerprint",
    "measure_circuit",
    "new_document",
    "render_diff",
    "render_log",
    "row",
    "validate_profile",
    "version_label",
    "write_history",
]
