"""Shared fixtures: synthetic ``repro.perf/v2`` documents.

Diff/store/render tests run on hand-built documents (fast,
deterministic); only the CLI end-to-end tests record real ones.
"""

import copy

import pytest

from repro.perf.store import PROFILE_SCHEMA, PROFILE_SCHEMA_VERSION, row

BASE_FINGERPRINT = {
    "cpu_model": "Synthetic CPU",
    "cpu_count": 4,
    "blas": "openblas",
    "numpy": "2.0.0",
    "python": "3.12.0",
    "machine": "x86_64",
    "hostname_hash": "abc123def456",
    "digest": "feedfacefeedface",
}

#: stage of each synthetic metric (the profile kind's vocabulary)
_STAGES = {
    "gates": "circuit",
    "repeat_estimate_min_seconds": "repeat",
    "batched_scenarios_per_sec": "batched",
    "max_abs_error": "accuracy",
    "mean_activity": "accuracy",
}


def make_document(benchmark, rows, sha="a" * 40, note=""):
    """A well-formed document of any kind around the given rows."""
    return {
        "schema": PROFILE_SCHEMA,
        "schema_version": PROFILE_SCHEMA_VERSION,
        "benchmark": benchmark,
        "recorded_at": "2026-08-08T00:00:00Z",
        "note": note,
        "git": {"sha": sha, "short": sha[:10], "dirty": False},
        "fingerprint": copy.deepcopy(BASE_FINGERPRINT),
        "config": {},
        "rows": rows,
    }


def block_rows(circuit, block):
    """Rows for a flat ``{metric: value}`` block: ``{K: rate}`` tables
    become one ``K``-keyed row each, and
    ``repeat_estimate_seconds_samples`` rides on the min-time row."""
    samples = block.get("repeat_estimate_seconds_samples")
    rows = []
    for metric, value in block.items():
        if metric == "repeat_estimate_seconds_samples":
            continue
        stage = _STAGES[metric]
        if isinstance(value, dict):
            rows += [row(circuit, stage, metric, v, K=int(k)) for k, v in value.items()]
        elif metric == "repeat_estimate_min_seconds":
            rows.append(row(circuit, stage, metric, value, samples=samples))
        else:
            rows.append(row(circuit, stage, metric, value))
    return rows


def make_profile(sha="a" * 40, note="", **measurement_overrides):
    """One synthetic profile with a single well-formed c17 block."""
    block = {
        "gates": 6,
        "repeat_estimate_min_seconds": 0.010,
        "repeat_estimate_seconds_samples": [0.010, 0.011, 0.012],
        "batched_scenarios_per_sec": {"64": 20000.0},
        "max_abs_error": 1e-15,
        "mean_activity": 0.470170,
    }
    block.update(measurement_overrides)
    return make_document("profile", block_rows("c17", block), sha=sha, note=note)


@pytest.fixture
def profile():
    return make_profile()


@pytest.fixture
def profile_pair():
    """Two identical-measurement profiles at different SHAs."""
    return make_profile(sha="a" * 40), make_profile(sha="b" * 40)
