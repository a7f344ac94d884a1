"""Tests of the benchmark itself.  Run from the repository root::

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import common
import compare
import layers

SPEC = json.loads(common.BENCHMARK_JSON.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=common.ROOT, timeout=170):
    """Run ``bench/run.py``; returns ``(status, stdout lines, seconds)``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout.splitlines(), time.perf_counter() - start


def check_output(lines, workload, declared):
    """Every declared metric is printed with its unit and in the result."""
    printed = {}
    for line in lines[:-1]:
        name, metric, value, unit = line.split()
        assert name == workload
        printed[metric] = (float(value), unit)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert printed[metric["name"]][1] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(workload):
    status, lines, seconds = run("--workload", workload, "--smoke", "--seed", "3")
    assert status == 0, lines
    result = check_output(lines, workload, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert seconds < 30


@pytest.mark.parametrize("workload", ["sweep-repeat", "serve-open"])
def test_traced_smoke_emits_every_layer_metric(workload):
    status, lines, _ = run("--workload", workload, "--smoke", "--trace", "1")
    assert status == 0, lines
    result = check_output(lines, workload, SPEC["per_layer"])
    # Layer self times plus the unattributed remainder cover the traced time.
    assert abs(result["metrics"]["trace.accounted_frac"]["value"] - 1.0) < 0.05


def test_seed_changes_timed_scenarios_not_check_set(tmp_path):
    digests = []
    for seed in (1, 2):
        out = tmp_path / f"{seed}.json"
        status, lines, _ = run("--workload", "sweep-distinct", "--smoke", "--seed", str(seed),
                               "--json", str(out))
        assert status == 0, lines
        digests.append(json.loads(out.read_text())["workloads"]["sweep-distinct"])
    assert digests[0]["timed_digest"] != digests[1]["timed_digest"]
    assert digests[0]["check_digest"] == digests[1]["check_digest"]


def edited_oracles(tmp_path, edit):
    oracles = common.load_oracles()
    edit(oracles["entries"]["c17/uniform"])
    path = tmp_path / "oracles.json"
    path.write_text(json.dumps(oracles))
    return str(path)


def test_perturbed_result_fails_the_run(tmp_path):
    def perturb(entry):
        line = sorted(entry["activity"])[0]
        entry["activity"][line] += 1e-6

    path = edited_oracles(tmp_path, perturb)
    status, lines, _ = run("--workload", "sweep-distinct", "--smoke", "--oracles", path)
    assert status == 1
    assert json.loads(lines[-1])["correct"] is False


def test_stale_oracle_is_refused(tmp_path):
    def restamp(entry):
        entry["key"] = "0" * 64

    path = edited_oracles(tmp_path, restamp)
    status, lines, _ = run("--workload", "serve-open", "--smoke", "--oracles", path)
    assert status == 2
    assert not any(line.startswith("{") for line in lines)


def test_checkout_without_the_program_fails(tmp_path):
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    status, lines, _ = run("--workload", "sweep-distinct", cwd=tmp_path, timeout=60)
    assert status != 0
    assert not any(line.startswith("{") for line in lines)


class FakeSpan:
    def __init__(self, name, start, end, children=(), **attributes):
        self.name, self.start, self.end = name, start, end
        self.children = list(children)
        self.attributes = attributes

    @property
    def duration(self):
        return self.end - self.start


def test_self_times_account_for_the_traced_time():
    setup = FakeSpan("bench.setup", 0.0, 10.0, [
        FakeSpan("bench.load", 0.0, 1.0),
        FakeSpan("bench.compile", 1.0, 6.0, [
            FakeSpan("backend.compile", 1.5, 6.0, [FakeSpan("compile.lidag", 2.0, 3.0)]),
        ]),
    ])
    query = FakeSpan("bench.round", 10.0, 14.0, [
        FakeSpan("backend.query_many", 10.0, 14.0, [
            FakeSpan("propagate.update_batch", 10.0, 11.0),
            FakeSpan("propagate.calibrate", 11.0, 13.0),
        ]),
    ], scenarios=4)
    phases = layers.summarize([setup, query], lambda n: "setup" if n == "bench.setup" else "query")
    assert phases["setup"]["layers"]["circuits.load_ms"] == pytest.approx(1.5)
    assert phases["setup"]["layers"]["core.lidag.build_ms"] == pytest.approx(1.0)
    assert phases["setup"]["segments"] == 1
    metrics = layers.layer_metrics(phases)
    assert metrics["bayesian.propagation.calibrate_ms"] == pytest.approx(1e3 * 2.0 / 4)
    assert metrics["core.backend.query_self_ms"] == pytest.approx(1e3 * 1.0 / 4)
    assert metrics["bayesian.propagation.update_frac"] == pytest.approx(1.0 / 4.0)
    assert metrics["core.segments.refine_frac"] == 0.0
    assert metrics["trace.wall_ms"] == pytest.approx(14e3)
    # bench.setup self (4 s) and backend.compile self (3.5 s) are unmapped
    assert metrics["trace.unattributed_ms"] == pytest.approx(7.5e3)
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0)


def fake_runs(values, metric="scenarios_per_s"):
    return [
        {"seed": seed, "workloads": {"sweep-distinct": {"reported": {metric: value}}}}
        for seed, value in enumerate(values)
    ]


@pytest.mark.parametrize("base, new, expected", [
    ([100, 101, 99, 100, 100], [100, 99, 101, 100, 100], "same"),
    ([100, 101, 99, 100, 100], [70, 71, 69, 70, 70], "regression"),
    ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "improved"),
    ([100, 150, 60, 100, 140], [95, 150, 60, 100, 140], "unresolved"),
])
def test_compare_verdicts(base, new, expected):
    rows = compare.compare(fake_runs(base), fake_runs(new))
    assert [row["verdict"] for row in rows] == [expected]
