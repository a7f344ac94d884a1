"""Statistical comparison of two perf documents (the regression gate).

Exit-code contract (the CLI and CI both rely on it):

- ``0`` -- no significant change,
- ``1`` -- at least one *performance* metric regressed beyond the
  noise band,
- ``2`` -- an *accuracy* metric drifted, or the inputs are not
  comparable at all (mismatched benchmark kinds, different machines
  without ``force``, no common rows, or baseline rows missing from the
  new document without ``subset``).

Accuracy outranks speed: a kernel that got fast by getting wrong is a
worse failure than a slowdown, so any accuracy drift wins the exit
code even when every timing improved.

Every ``repro.perf/v2`` document -- a ``BENCH_*.json`` report, a
recorded profile, a ``PERF_HISTORY.json`` entry -- compares through
:func:`compare_profiles`: rows match on ``(circuit, stage, metric,
key)``, and :data:`GATE_RULES` picks each metric's rule.  Rows whose
metric has no rule are context (compile time, work counters) and are
not gated.

Noise band
----------

Time and rate metrics share one ratio rule.  Times are the **min over
repeats** (timing noise on a shared machine is additive, so the
minimum converges on the true cost from above) and regress when
``new > old * (1 + band)``; rates are judged on the inverted ratio and
regress when ``new < old / (1 + band)``, so a band of 1.0 flags a 2x
slowdown and a 2x rate drop alike.  Timing rows where both sides sit
below ``floor_seconds`` are skipped: sub-ms timings on a shared runner
are timer noise, not signal.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import PerfDiffError
from repro.perf.fingerprint import fingerprints_compatible
from repro.perf.store import row_id, row_label, validate_profile

__all__ = [
    "GATE_RULES",
    "PerfDiffError",
    "compare_profiles",
    "exit_code",
]

#: The gate rule of every gated metric:
#:
#: - ``time``  -- lower-is-better seconds, noise band and floor,
#: - ``rate``  -- higher-is-better, noise band on the inverted ratio,
#: - ``error`` -- growth beyond ``accuracy_atol`` is an accuracy failure,
#: - ``value`` -- *any* drift beyond ``accuracy_atol`` is an accuracy
#:   failure: the estimate itself changed between versions.
GATE_RULES: Dict[str, str] = {
    "repeat_estimate_min_seconds": "time",
    "batched_scenarios_per_sec": "rate",
    "scenarios_per_sec": "rate",
    "cache_hit_rate": "rate",
    "max_abs_error": "error",
    "max_abs_diff_vs_dense": "error",
    "max_abs_diff": "error",
    "mean_activity": "value",
    "bitwise_equal": "value",
}


def _judge(
    rule: str,
    old: float,
    new: float,
    noise_band: float,
    floor_seconds: float,
    accuracy_atol: float,
) -> Dict[str, Any]:
    if rule == "time":
        if old < floor_seconds and new < floor_seconds:
            return {"status": "skipped", "band": 0.0}
        slower = new > old * (1.0 + noise_band)
        return {"status": "regression" if slower else "ok", "band": noise_band}
    if rule == "rate":
        slower = new * (1.0 + noise_band) < old
        return {"status": "regression" if slower else "ok", "band": noise_band}
    drift = new - old if rule == "error" else abs(new - old)
    return {
        "status": "accuracy" if drift > accuracy_atol else "ok",
        "band": accuracy_atol,
    }


def _record(entry: Dict[str, Any], old: float, new: float, **verdict) -> Dict:
    return {
        "key": row_label(entry),
        "stage": entry["stage"],
        "metric": entry["metric"],
        "old": old,
        "new": new,
        "ratio": new / old if old else float("inf"),
        **verdict,
    }


def compare_profiles(
    old: Dict[str, Any],
    new: Dict[str, Any],
    noise_band: float = 0.25,
    floor_seconds: float = 0.001,
    accuracy_atol: float = 1e-6,
    force: bool = False,
    subset: bool = False,
) -> List[Dict[str, Any]]:
    """Row-by-row comparison of two ``repro.perf/v2`` documents.

    Returns one record per gated baseline row (``status`` in ``"ok"``
    / ``"regression"`` / ``"accuracy"`` / ``"skipped"`` /
    ``"missing"``).  Raises :class:`~repro.errors.PerfDiffError` when
    the two documents are not comparable: different benchmark kinds,
    different machines without ``force``, no gated row in common, or
    gated baseline rows absent from ``new`` -- unless ``subset``, which
    turns those into ``"missing"`` records (a quick run gated against a
    fuller baseline).
    """
    validate_profile(old)
    validate_profile(new)
    if old["benchmark"] != new["benchmark"]:
        raise PerfDiffError(
            f"benchmark kinds differ: old is {old['benchmark']!r}, "
            f"new is {new['benchmark']!r}"
        )
    if not force and not fingerprints_compatible(
        old["fingerprint"], new["fingerprint"]
    ):
        raise PerfDiffError(
            f"machine fingerprints differ "
            f"(old {old['fingerprint'].get('digest')!r} on "
            f"{old['fingerprint'].get('cpu_model')!r} x"
            f"{old['fingerprint'].get('cpu_count')}, "
            f"new {new['fingerprint'].get('digest')!r} on "
            f"{new['fingerprint'].get('cpu_model')!r} x"
            f"{new['fingerprint'].get('cpu_count')}); "
            f"cross-machine timings are not comparable -- pass force=True "
            f"(CLI: --force) to override"
        )
    new_rows = {row_id(entry): entry for entry in new["rows"]}
    records: List[Dict[str, Any]] = []
    missing: List[Dict[str, Any]] = []
    for entry in old["rows"]:
        rule = GATE_RULES.get(entry["metric"])
        if rule is None:
            continue
        other = new_rows.get(row_id(entry))
        if other is None:
            missing.append(entry)
            continue
        old_val = float(entry["value"])
        new_val = float(other["value"])
        verdict = _judge(
            rule, old_val, new_val, noise_band, floor_seconds, accuracy_atol
        )
        records.append(_record(entry, old_val, new_val, **verdict))
    if missing and not subset:
        names = [f"{row_label(e)} {e['stage']}/{e['metric']}" for e in missing]
        raise PerfDiffError(
            f"{len(missing)} baseline row(s) missing from the new document "
            f"(pass subset=True, CLI --subset, to allow): {names[:8]}"
        )
    nan = float("nan")
    for entry in missing:
        records.append(_record(entry, nan, nan, status="missing", band=0.0))
    if not any(r["status"] != "missing" for r in records):
        raise PerfDiffError("no comparable rows between the two documents")
    return records


def exit_code(records: List[Dict[str, Any]]) -> int:
    """Map diff records to the 0/1/2 exit-code contract."""
    if any(r["status"] == "accuracy" for r in records):
        return 2
    if any(r["status"] == "regression" for r in records):
        return 1
    return 0
