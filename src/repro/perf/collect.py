"""Collect a perf profile, and build the document every runner emits.

This module is the single home of the measurement methodology that
``repro perf record`` and the ``benchmarks/bench_*.py`` runners share:

- every model compiles through the default ``auto`` backend, the same
  rule ``repro estimate``, ``sweep`` and ``serve`` use: one exact
  junction tree whenever it fits, segmentation otherwise,
- the fixed input-probability sweep cycled through repeat-propagation,
- golden-ratio scenario salting (no two repeats install identical
  potentials, so every repeat times a propagation over statistics no
  earlier repeat -- and no duplicate collapse or result cache -- has
  seen),
- **min over repeats** as the primary statistic: the minimum is the
  least noise-contaminated observation of a deterministic code path's
  true cost (noise on a busy machine is strictly additive), so it is
  what version-to-version comparisons use.

:func:`collect_profile` runs the measurements live (with the obs
metrics registry enabled, so the profile carries FLOP estimates,
``factor_bytes``, support density and cache counters next to the
timings); :func:`new_document` wraps any runner's rows in the one
``repro.perf/v2`` document shape.  Accuracy is part of the profile,
not an afterthought: where the enumeration oracle is feasible the
worst per-line distribution error is recorded (``max_abs_error``), so
the regression gate catches a kernel that got *fast but wrong*.
"""

from __future__ import annotations

import subprocess
import time
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.circuits import suite
from repro.core.backend import compile_model
from repro.core.backend import estimate as facade_estimate
from repro.core.inputs import IndependentInputs
from repro.core.states import N_STATES
from repro.errors import PerfProfileError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.perf.fingerprint import machine_fingerprint
from repro.perf.store import (
    PROFILE_SCHEMA,
    PROFILE_SCHEMA_VERSION,
    row,
    validate_profile,
)

__all__ = [
    "DEFAULT_CIRCUITS",
    "PHI",
    "SWEEP",
    "collect_profile",
    "git_revision",
    "measure_circuit",
    "new_document",
    "repeat_cycles",
    "salted_scenarios",
    "timed",
]

#: Circuits profiled by default (the benchmark runners' suite).
DEFAULT_CIRCUITS = ["c17", "alu", "comp", "voter", "pcler8", "c432s"]

#: Input probabilities cycled through the repeat-propagation phase.
SWEEP = [0.2, 0.35, 0.5, 0.65, 0.8]

#: Golden-ratio increment: scenario probabilities fill (0.05, 0.95)
#: quasi-uniformly, and the per-repeat salt shifts the whole set so no
#: two repeats install identical potentials.
PHI = 0.6180339887498949

#: Enumeration-oracle budget on joint input states (4^k); circuits
#: whose input count fits record ``max_abs_error`` against the oracle.
DEFAULT_ORACLE_BUDGET = N_STATES ** 8


def timed(fn, *args) -> float:
    """Seconds for one call."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def salted_scenarios(k: int, salt: int) -> List[IndependentInputs]:
    """``k`` deterministic quasi-uniform scenarios, shifted by ``salt``."""
    return [
        IndependentInputs(0.05 + 0.9 * ((i * PHI + salt * 0.2718 + 0.041) % 1.0))
        for i in range(k)
    ]


def repeat_cycles(
    estimator, repeats: int, sweep: Sequence[float] = SWEEP
) -> List[float]:
    """Seconds per ``update_inputs`` + ``estimate`` cycle over ``sweep``."""
    cycle_seconds = []
    for i in range(repeats):
        model = IndependentInputs(sweep[i % len(sweep)])
        start = time.perf_counter()
        estimator.update_inputs(model)
        estimator.estimate()
        cycle_seconds.append(time.perf_counter() - start)
    return cycle_seconds


def git_revision(cwd: Optional[str] = None) -> Dict[str, Any]:
    """Current git SHA + dirty flag; degrades to ``"unknown"`` outside
    a repository (profiles stay recordable from exported tarballs)."""

    def _git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *args],
                capture_output=True,
                text=True,
                cwd=cwd,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout

    sha = (_git("rev-parse", "HEAD") or "unknown").strip() or "unknown"
    status = _git("status", "--porcelain")
    dirty = bool(status.strip()) if status is not None else False
    return {"sha": sha, "short": sha[:10], "dirty": dirty}


def measure_circuit(
    name: str,
    repeats: int = 3,
    batch_sizes: Iterable[int] = (64,),
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
) -> List[Dict[str, Any]]:
    """One circuit's measurement rows (see the store's document shape).

    Times the compile, the repeat-propagation fast path (min over
    ``repeats`` fresh-statistics cycles), and the batched sweep rate at
    each ``batch_sizes`` entry; records accuracy (``mean_activity`` at
    fair-coin inputs, plus ``max_abs_error`` against the enumeration
    oracle when ``4^inputs`` fits ``oracle_budget``).
    """
    circuit = suite.load_circuit(name)
    rows = [row(name, "circuit", "gates", circuit.num_gates)]

    start = time.perf_counter()
    model = compile_model(circuit)
    rows.append(
        row(name, "compile", "compile_seconds", time.perf_counter() - start)
    )
    estimator = model.estimator
    stats = estimator.support_stats()
    rows.append(
        row(name, "compile", "support_density", stats["support_density"])
    )
    rows.append(row(name, "compile", "sparse_cliques", stats["sparse_cliques"]))

    rows.append(
        row(name, "first_estimate", "first_estimate_seconds",
            timed(estimator.estimate))
    )
    cycles = repeat_cycles(estimator, repeats)
    rows.append(
        row(name, "repeat", "repeat_estimate_min_seconds", min(cycles),
            samples=cycles)
    )

    for k in batch_sizes:
        # Warm once outside timing so the one-time batch-engine
        # allocation is excluded (same protocol as bench_throughput).
        model.query_many(salted_scenarios(k, repeats + 1))
        best = min(
            timed(model.query_many, salted_scenarios(k, r))
            for r in range(repeats)
        )
        rows.append(
            row(name, "batched", "batched_scenarios_per_sec", k / best, K=k)
        )

    fair = IndependentInputs(0.5)
    estimator.update_inputs(fair)
    estimate = estimator.estimate()
    rows.append(row(name, "accuracy", "mean_activity", estimate.mean_activity()))

    if N_STATES ** len(circuit.inputs) <= oracle_budget:
        oracle = facade_estimate(
            circuit, fair, backend="enumeration", cache=None
        )
        worst = 0.0
        for line, dist in oracle.distributions.items():
            delta = float(abs(dist - estimate.distributions[line]).max())
            if delta > worst:
                worst = delta
        rows.append(row(name, "accuracy", "max_abs_error", worst))

    return rows


def new_document(
    benchmark: str,
    rows: List[Dict[str, Any]],
    config: Optional[Dict[str, Any]] = None,
    obs: Optional[Dict[str, Any]] = None,
    note: str = "",
) -> Dict[str, Any]:
    """Wrap measurement rows in a validated ``repro.perf/v2`` document
    stamped with the git revision and machine fingerprint."""
    if not rows:
        raise PerfProfileError("no measurements collected")
    document: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "schema_version": PROFILE_SCHEMA_VERSION,
        "benchmark": benchmark,
        "recorded_at": datetime.now(timezone.utc)
        .isoformat(timespec="seconds")
        .replace("+00:00", "Z"),
        "note": note,
        "git": git_revision(),
        "fingerprint": machine_fingerprint(),
        "config": dict(config or {}),
        "rows": rows,
    }
    if obs is not None:
        document["obs"] = obs
    return validate_profile(document)


def collect_profile(
    circuits: Optional[Sequence[str]] = None,
    repeats: int = 3,
    batch_sizes: Iterable[int] = (64,),
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
    note: str = "",
    quick: bool = False,
    progress=None,
) -> Dict[str, Any]:
    """Run the measurement suite and assemble one ``profile`` document.

    ``quick`` shrinks to the CI configuration (c17 only, 2 repeats,
    K=64) -- wide error bars, but enough for the wide-band CI gate.
    Measurements run under a private *enabled* metrics registry, so the
    profile's ``obs`` block carries the work counters (FLOP estimates,
    ``factor_bytes``, support density, cache hits) that explain the
    timings; the caller's registry is untouched.  ``progress`` is
    called with each circuit's name and rows as they complete.
    """
    if quick:
        circuits = ["c17"]
        repeats = min(repeats, 2)
        batch_sizes = (64,)
    names = list(circuits) if circuits else list(DEFAULT_CIRCUITS)
    batch_sizes = list(batch_sizes)
    registry = MetricsRegistry(enabled=True)
    previous = set_metrics(registry)
    try:
        cycle_histogram = registry.histogram("perf.repeat_cycle_seconds")
        rows: List[Dict[str, Any]] = []
        for name in names:
            circuit_rows = measure_circuit(
                name,
                repeats=repeats,
                batch_sizes=batch_sizes,
                oracle_budget=oracle_budget,
            )
            for entry in circuit_rows:
                for seconds in entry.get("samples", ()):
                    cycle_histogram.observe(seconds)
            rows.extend(circuit_rows)
            if progress is not None:
                progress(name, circuit_rows)
    finally:
        set_metrics(previous)
    config = {
        "circuits": names,
        "repeats": repeats,
        "batch_sizes": batch_sizes,
    }
    return new_document(
        "profile", rows, config=config, obs=registry.snapshot(), note=note
    )
