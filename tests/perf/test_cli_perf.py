"""End-to-end ``repro perf record/log/diff`` against a fresh store."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf.fingerprint import machine_fingerprint

from repro.perf.store import row

from .conftest import make_document, make_profile

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "store")


def test_record_twice_then_diff_exits_zero(capsys, store):
    assert main(["perf", "record", "--quick", "--store", store]) == 0
    assert main(["perf", "record", "--quick", "--store", store]) == 0
    out = capsys.readouterr().out
    assert out.count("recorded profile") == 2

    assert main(["perf", "diff", "latest", "latest", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "-> ok" in out


def test_log_renders_trajectory_from_fresh_process(capsys, store):
    assert main(
        ["perf", "record", "--quick", "--store", store, "--note", "one"]
    ) == 0
    assert main(
        ["perf", "record", "--quick", "--store", store, "--note", "two"]
    ) == 0
    capsys.readouterr()

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "perf", "log", "--store", store],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "(one)" in proc.stdout and "(two)" in proc.stdout
    assert "c17" in proc.stdout
    assert "repeat_estimate_min_seconds" in proc.stdout
    assert "batched_scenarios_per_sec[K=64]" in proc.stdout
    # Two recorded versions -> two value columns after circuit/metric.
    header = next(
        line for line in proc.stdout.splitlines()
        if line.startswith("circuit")
    )
    assert len(header.split()) == 4


def test_log_metric_and_circuit_filters(capsys, store):
    assert main(["perf", "record", "--quick", "--store", store]) == 0
    capsys.readouterr()
    assert main(
        [
            "perf", "log", "--store", store,
            "--metric", "mean_activity", "--circuit", "c17",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "mean_activity" in out
    assert "repeat_estimate_min_seconds" not in out


def test_log_filters_foreign_machines(capsys, tmp_path):
    from repro.perf.store import PerfStore

    store = tmp_path / "store"
    mine = make_profile(sha="a" * 40, note="mine")
    mine["fingerprint"] = machine_fingerprint()
    foreign = make_profile(sha="b" * 40, note="foreign")
    PerfStore(store).append(mine)
    PerfStore(store).append(foreign)

    assert main(["perf", "log", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "(mine)" in out and "(foreign)" not in out

    assert main(["perf", "log", "--store", str(store), "--all-machines"]) == 0
    out = capsys.readouterr().out
    assert "(mine)" in out and "(foreign)" in out


class TestDiffExitCodes:
    """The 0/1/2 contract on synthetic profile files."""

    def _write(self, tmp_path, name, profile):
        path = tmp_path / name
        path.write_text(json.dumps(profile))
        return str(path)

    def test_identical_exits_zero(self, capsys, tmp_path, store):
        a = self._write(tmp_path, "a.json", make_profile(sha="a" * 40))
        b = self._write(tmp_path, "b.json", make_profile(sha="b" * 40))
        assert main(["perf", "diff", a, b, "--store", store]) == 0

    def test_slowdown_exits_one(self, capsys, tmp_path, store):
        a = self._write(tmp_path, "a.json", make_profile(sha="a" * 40))
        slow = make_profile(
            sha="b" * 40,
            repeat_estimate_min_seconds=0.020,
            repeat_estimate_seconds_samples=[0.020, 0.021, 0.022],
        )
        b = self._write(tmp_path, "b.json", slow)
        assert main(["perf", "diff", a, b, "--store", store]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_accuracy_drift_exits_two(self, capsys, tmp_path, store):
        a = self._write(tmp_path, "a.json", make_profile(sha="a" * 40))
        drift = make_profile(sha="b" * 40, max_abs_error=1e-3)
        b = self._write(tmp_path, "b.json", drift)
        assert main(["perf", "diff", a, b, "--store", store]) == 2
        assert "ACCURACY DRIFT" in capsys.readouterr().out

    def test_cross_machine_exits_two_unless_forced(
        self, capsys, tmp_path, store
    ):
        a = self._write(tmp_path, "a.json", make_profile(sha="a" * 40))
        other = make_profile(sha="b" * 40)
        other["fingerprint"]["digest"] = "0123456789abcdef"
        b = self._write(tmp_path, "b.json", other)
        assert main(["perf", "diff", a, b, "--store", store]) == 2
        assert "fingerprints differ" in capsys.readouterr().err
        assert main(["perf", "diff", a, b, "--store", store, "--force"]) == 0

    def test_unresolvable_ref_exits_two(self, capsys, store):
        assert main(["perf", "diff", "latest", "latest", "--store", store]) == 2
        assert "repro perf diff:" in capsys.readouterr().err


class TestIngestion:
    def _propagation_report(self):
        return make_document(
            "propagation",
            [
                row("c17", "circuit", "gates", 6),
                row("c17", "repeat", "repeat_estimate_min_seconds", 0.0006),
                row("c17", "accuracy", "mean_activity", 0.470170),
                row("c17", "accuracy", "max_abs_diff_vs_dense", 0.0),
            ],
        )

    def test_record_from_propagation_report(self, capsys, tmp_path, store):
        report = tmp_path / "BENCH_propagation.json"
        report.write_text(json.dumps(self._propagation_report()))
        assert main(
            [
                "perf", "record", "--store", store,
                "--from", str(report), "--note", "ingested",
            ]
        ) == 0
        assert "recorded profile" in capsys.readouterr().out

        from repro.perf.store import PerfStore

        (profile,) = PerfStore(store).profiles()
        assert profile["note"] == "ingested"
        assert profile["benchmark"] == "propagation"
        assert profile["rows"] == self._propagation_report()["rows"]

    def test_baseline_document_written_and_appended(
        self, capsys, tmp_path, store
    ):
        report = tmp_path / "BENCH_propagation.json"
        report.write_text(json.dumps(self._propagation_report()))
        baseline = tmp_path / "PERF_HISTORY.json"
        for _ in range(2):
            assert main(
                [
                    "perf", "record", "--store", store,
                    "--from", str(report),
                    "--baseline", str(baseline),
                ]
            ) == 0
        document = json.loads(baseline.read_text())
        assert document["schema"] == "repro.perf/v2"
        assert len(document["profiles"]) == 2

    def test_unreadable_report_exits_one(self, capsys, store):
        assert main(
            [
                "perf", "record", "--store", store,
                "--from", "/nonexistent/report.json",
            ]
        ) == 1
        assert "repro: error:" in capsys.readouterr().err
