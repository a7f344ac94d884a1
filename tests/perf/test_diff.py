"""The statistical gate: noise band, floor, coverage, exit codes."""

import pytest

from repro.errors import PerfDiffError
from repro.perf.diff import compare_profiles, exit_code
from repro.perf.store import row

from .conftest import block_rows, make_document, make_profile


def _statuses(records):
    return {(r["key"], r["metric"]): r["status"] for r in records}


class TestIdenticalProfiles:
    def test_identical_is_clean(self, profile_pair):
        old, new = profile_pair
        records = compare_profiles(old, new)
        assert exit_code(records) == 0
        assert all(r["status"] in ("ok", "skipped") for r in records)

    def test_same_profile_object(self, profile):
        assert exit_code(compare_profiles(profile, profile)) == 0


class TestTimeGate:
    def test_two_x_slowdown_exits_one(self):
        old = make_profile(sha="a" * 40)
        new = make_profile(
            sha="b" * 40,
            repeat_estimate_min_seconds=0.020,
            repeat_estimate_seconds_samples=[0.020, 0.021, 0.022],
        )
        records = compare_profiles(old, new)
        assert _statuses(records)[("c17", "repeat_estimate_min_seconds")] == (
            "regression"
        )
        assert exit_code(records) == 1

    def test_within_band_is_ok(self):
        old = make_profile(sha="a" * 40)
        new = make_profile(
            sha="b" * 40,
            repeat_estimate_min_seconds=0.0115,  # +15% < 25% band
            repeat_estimate_seconds_samples=[0.0115, 0.0116, 0.0117],
        )
        assert exit_code(compare_profiles(old, new)) == 0

    def test_dispersion_does_not_widen_the_band(self):
        # One band rule for every document: a noisy recording (median
        # 60% above min) gets no extra tolerance.
        old = make_profile(
            sha="a" * 40,
            repeat_estimate_min_seconds=0.010,
            repeat_estimate_seconds_samples=[0.010, 0.016, 0.018],
        )
        new = make_profile(
            sha="b" * 40,
            repeat_estimate_min_seconds=0.014,  # +40% > band 0.25
            repeat_estimate_seconds_samples=[0.014, 0.015, 0.015],
        )
        records = compare_profiles(old, new)
        status = _statuses(records)[("c17", "repeat_estimate_min_seconds")]
        assert status == "regression"
        (time_record,) = [
            r for r in records if r["metric"] == "repeat_estimate_min_seconds"
        ]
        assert time_record["band"] == pytest.approx(0.25)

    def test_sub_floor_rows_are_skipped(self):
        old = make_profile(
            sha="a" * 40,
            repeat_estimate_min_seconds=0.0002,
            repeat_estimate_seconds_samples=[0.0002, 0.0002],
        )
        new = make_profile(
            sha="b" * 40,
            repeat_estimate_min_seconds=0.0009,  # 4.5x, but timer noise
            repeat_estimate_seconds_samples=[0.0009, 0.0009],
        )
        records = compare_profiles(old, new, floor_seconds=0.001)
        assert _statuses(records)[("c17", "repeat_estimate_min_seconds")] == (
            "skipped"
        )
        assert exit_code(records) == 0


class TestRateGate:
    def test_rate_drop_exits_one(self):
        old = make_profile(sha="a" * 40)
        new = make_profile(
            sha="b" * 40, batched_scenarios_per_sec={"64": 10000.0}
        )
        records = compare_profiles(old, new)
        assert _statuses(records)[("c17[K=64]", "batched_scenarios_per_sec")] == (
            "regression"
        )
        assert exit_code(records) == 1

    def test_rate_judged_on_the_inverted_ratio(self):
        # At the CI band of 1.0 a rate regresses below old / 2: a 20x
        # drop must fire (``old * (1 - band)`` would be 0 and never
        # fire), a 1.9x drop must not.
        old = make_profile(sha="a" * 40)
        crash = make_profile(
            sha="b" * 40, batched_scenarios_per_sec={"64": 1000.0}
        )
        assert exit_code(compare_profiles(old, crash, noise_band=1.0)) == 1
        dip = make_profile(
            sha="b" * 40, batched_scenarios_per_sec={"64": 20000.0 / 1.9}
        )
        assert exit_code(compare_profiles(old, dip, noise_band=1.0)) == 0

    def test_rate_gain_is_ok(self):
        old = make_profile(sha="a" * 40)
        new = make_profile(
            sha="b" * 40, batched_scenarios_per_sec={"64": 40000.0}
        )
        assert exit_code(compare_profiles(old, new)) == 0


class TestAccuracyGate:
    def test_error_drift_exits_two(self):
        old = make_profile(sha="a" * 40)
        new = make_profile(sha="b" * 40, max_abs_error=1e-3)
        records = compare_profiles(old, new)
        assert _statuses(records)[("c17", "max_abs_error")] == "accuracy"
        assert exit_code(records) == 2

    def test_error_within_atol_is_ok(self):
        old = make_profile(sha="a" * 40)
        new = make_profile(sha="b" * 40, max_abs_error=5e-7)
        assert exit_code(compare_profiles(old, new)) == 0

    def test_mean_activity_drift_exits_two(self):
        old = make_profile(sha="a" * 40)
        new = make_profile(sha="b" * 40, mean_activity=0.471170)
        assert exit_code(compare_profiles(old, new)) == 2

    def test_accuracy_outranks_perf(self):
        old = make_profile(sha="a" * 40)
        new = make_profile(
            sha="b" * 40,
            repeat_estimate_min_seconds=0.050,
            repeat_estimate_seconds_samples=[0.050, 0.051],
            max_abs_error=1e-3,
        )
        assert exit_code(compare_profiles(old, new)) == 2

    def test_error_shrinking_is_never_flagged(self):
        old = make_profile(sha="a" * 40, max_abs_error=1e-3)
        new = make_profile(sha="b" * 40, max_abs_error=1e-15)
        assert exit_code(compare_profiles(old, new)) == 0


class TestCoverage:
    def test_missing_circuit_is_nonfailing(self):
        old = make_profile(sha="a" * 40)
        old["rows"] += block_rows("alu", {"repeat_estimate_min_seconds": 0.004})
        new = make_profile(sha="b" * 40)  # c17 only (a quick recording)
        records = compare_profiles(old, new, subset=True)
        assert _statuses(records)[("alu", "repeat_estimate_min_seconds")] == (
            "missing"
        )
        assert exit_code(records) == 0

    def test_ungated_rows_are_not_coverage(self):
        # Context rows (no gate rule) neither compare nor go missing.
        old = make_profile(sha="a" * 40)
        old["rows"] += block_rows("alu", {"gates": 74})
        records = compare_profiles(old, make_profile(sha="b" * 40))
        assert {r["key"] for r in records} == {"c17", "c17[K=64]"}

    def test_no_common_measurements_raises(self):
        old = make_profile(sha="a" * 40)
        old["rows"] = block_rows("alu", {"gates": 74})
        new = make_profile(sha="b" * 40)
        with pytest.raises(PerfDiffError, match="no comparable"):
            compare_profiles(old, new)


def _propagation(*circuits, seconds=0.5):
    return make_document(
        "propagation",
        [
            row(name, "repeat", "repeat_estimate_min_seconds", seconds)
            for name in circuits
        ],
    )


def _throughput(rate):
    return make_document(
        "throughput",
        [row("c17", "batched", "batched_scenarios_per_sec", rate, K=64)],
    )


class TestBenchDocumentCompare:
    """``BENCH_*.json`` reports gate through the same comparison."""

    def test_mismatched_kinds_raise(self):
        with pytest.raises(PerfDiffError, match="kinds differ"):
            compare_profiles(_propagation("c17"), _throughput(1000.0))

    def test_missing_rows_raise(self):
        old = _propagation("c17", "alu")
        new = _propagation("c17")
        with pytest.raises(PerfDiffError, match="missing"):
            compare_profiles(old, new)
        records = compare_profiles(old, new, subset=True)
        assert _statuses(records)[("alu", "repeat_estimate_min_seconds")] == (
            "missing"
        )

    def test_tuple_keys_and_regression(self):
        (record,) = compare_profiles(_throughput(1000.0), _throughput(400.0))
        assert record["key"] == "c17[K=64]"
        assert record["stage"] == "batched"
        assert record["status"] == "regression"

    def test_keys_distinguish_rows(self):
        # A sweep-tagged row is a different point than the plain one.
        old = _throughput(1000.0)
        old["rows"].append(
            row("c17", "batched", "batched_scenarios_per_sec", 50.0,
                K=64, sweep="dedup")
        )
        new = _throughput(1000.0)
        new["rows"].append(
            row("c17", "batched", "batched_scenarios_per_sec", 2.5,
                K=64, sweep="dedup")
        )
        records = compare_profiles(old, new, noise_band=1.0)
        assert _statuses(records)[("c17[K=64,sweep=dedup]",
                                   "batched_scenarios_per_sec")] == "regression"
        assert exit_code(records) == 1

    def test_flag_flip_is_accuracy(self):
        def flag(value):
            entry = row("c17", "accuracy", "bitwise_equal", value, K=64)
            return make_document("throughput", [entry])

        assert exit_code(compare_profiles(flag(True), flag(False))) == 2
