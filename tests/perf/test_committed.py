"""Every committed measurement document is one ``repro.perf/v2`` shape
that the store, the log and the gate all accept."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf.diff import compare_profiles, exit_code
from repro.perf.store import load_profiles_file

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = sorted(REPO_ROOT.glob("BENCH_*.json")) + [
    REPO_ROOT / "PERF_HISTORY.json"
]


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_document_validates(path):
    documents = load_profiles_file(path, strict=True)
    assert documents
    if path.name.startswith("BENCH_"):
        (document,) = documents
        assert document["benchmark"] == path.stem.split("_", 1)[1]


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_document_self_diffs_clean(path):
    document = load_profiles_file(path, strict=True)[-1]
    assert exit_code(compare_profiles(document, document)) == 0


def test_record_every_committed_document_then_log(capsys, tmp_path):
    store = str(tmp_path / "store")
    for path in COMMITTED:
        assert main(["perf", "record", "--from", str(path), "--store", store]) == 0
    capsys.readouterr()
    assert main(["perf", "log", "--store", store, "--all-machines"]) == 0
    out = capsys.readouterr().out
    assert "perf log: no measurements" not in out
    for kind in ("profile", "propagation", "throughput", "segmentation", "serving"):
        assert f"== {kind} " in out, kind
    assert "stage repeat" in out and "stage serve" in out
    assert "batched_scenarios_per_sec[K=64,sweep=dedup]" in out


def test_record_from_rejects_a_legacy_report(capsys, tmp_path):
    legacy = tmp_path / "BENCH_old.json"
    legacy.write_text(json.dumps({"benchmark": "propagation", "results": []}))
    store = str(tmp_path / "store")
    assert main(["perf", "record", "--from", str(legacy), "--store", store]) == 1
    assert "repro: error:" in capsys.readouterr().err
