"""Sparse message kernels: support soundness, parity, and diagnostics.

Three guarantees ride on the compile-time support analysis:

1. **Soundness** -- no state with nonzero probability under *any*
   input model is ever outside the analyzed support (the property
   test calibrates a dense oracle engine and checks its beliefs
   against the sparse schedule's masks, over the differential fuzz
   generator's circuit/model mix).
2. **Parity** -- packed kernels produce the same marginals as the
   dense reductions, within float association-order noise (hard bound
   1e-12), across batch sizes and every exact backend.
3. **Invalidation** -- swapping a deterministic CPD for one with mass
   outside the recorded support drops the compiled state instead of
   silently truncating it.

Plus the observability/CI satellites: ``support_stats`` /
``jt.feasible_states`` gauges, and the ``repro perf diff`` regression
gate's exit codes on benchmark documents.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.bayesian.cpd import TabularCPD
from repro.bayesian.junction import JunctionTree
from repro.circuits import suite
from repro.core import IndependentInputs, SwitchingActivityEstimator
from repro.core.segments import SegmentedEstimator
from repro.cli import main as cli_main
from repro.core.estimator import exact_switching_by_enumeration
from repro.errors import PerfDiffError
from repro.perf import compare_profiles, new_document, row
from repro.testing import input_model_from_json, input_model_to_json, make_case



def _fuzz_case(seed, max_gates=20, max_inputs=5):
    circuit, spec = make_case(seed, max_gates=max_gates, max_inputs=max_inputs)
    return circuit, input_model_from_json(input_model_to_json(spec))


class TestSupportSoundness:
    """No nonzero-probability state is ever pruned."""

    @pytest.mark.parametrize("seed", range(8))
    def test_dense_beliefs_stay_inside_analyzed_support(self, seed):
        # All four input-model kinds rotate through the seeds, and
        # every fifth seed pins inputs to exact 0/1 probabilities, so
        # zero-mass states reach the analysis from both sides.
        circuit, model = _fuzz_case(seed)
        sparse = SwitchingActivityEstimator(
            circuit, model, kernel="sparse"
        ).compile()
        schedule = sparse._jt._schedule
        dense = SwitchingActivityEstimator(
            circuit, model, kernel="dense"
        ).compile()
        dense.estimate()
        engine = dense._jt._engine
        assert schedule.orders == dense._jt._schedule.orders
        checked = 0
        for idx, mask in enumerate(schedule.supports):
            if mask is None:
                continue
            outside = engine.belief(idx)[0][~mask]
            # Structural zeros are exact: every outside entry is a
            # product/sum chain through at least one exact 0.0.
            assert float(np.abs(outside).max(initial=0.0)) == 0.0
            checked += 1
        if circuit.num_gates >= 5:
            assert checked > 0, "analysis found no deterministic support"

    def test_support_tightens_only_from_determinism(self):
        # An estimator sees full support everywhere when the kernel is
        # dense (no masks are even computed).
        circuit = suite.load_circuit("c17")
        est = SwitchingActivityEstimator(circuit, kernel="dense").compile()
        schedule = est._jt._schedule
        assert all(mask is None for mask in schedule.supports)
        assert not schedule.sparse_cliques


class TestParity:
    """Packed kernels match the dense oracle and the enumeration oracle."""

    @pytest.mark.parametrize(
        "estimator",
        [
            pytest.param(SwitchingActivityEstimator, id="junction-tree"),
            pytest.param(SegmentedEstimator, id="segmented"),
        ],
    )
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_sparse_matches_dense_across_batch_sizes(self, estimator, k):
        circuit = suite.load_circuit("c17")
        ps = [0.0, 1.0, 0.5] + [0.05 + 0.9 * (i / max(k, 2)) for i in range(k)]
        models = [IndependentInputs(p) for p in ps[:k]]
        got = estimator(circuit, kernel="sparse").compile().estimate_many(models)
        ref = estimator(circuit, kernel="dense").compile().estimate_many(models)
        for sparse_est, dense_est in zip(got, ref):
            for line, dist in dense_est.distributions.items():
                np.testing.assert_allclose(
                    sparse_est.distributions[line], dist, atol=1e-12, rtol=0
                )

    def test_c17_auto_packs_nothing_and_equals_dense_bitwise(self):
        # No c17 clique reaches the pack rule's size floor, so "auto"
        # and "dense" run the same engine: any sparse_speedup away from
        # 1.0 on c17 is timing noise.
        circuit = suite.load_circuit("c17")
        auto = SwitchingActivityEstimator(circuit).compile()
        dense = SwitchingActivityEstimator(circuit, kernel="dense").compile()
        assert auto.support_stats()["sparse_cliques"] == 0
        for p in (0.5, 0.2, 0.9):
            auto.update_inputs(IndependentInputs(p))
            dense.update_inputs(IndependentInputs(p))
            got, ref = auto.estimate(), dense.estimate()
            for line, dist in ref.distributions.items():
                assert np.array_equal(got.distributions[line], dist), line

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_sparse_matches_enumeration_oracle(self, seed):
        circuit, model = _fuzz_case(seed, max_gates=15, max_inputs=4)
        oracle = exact_switching_by_enumeration(circuit, model)
        est = SwitchingActivityEstimator(circuit, model, kernel="sparse")
        result = est.estimate()
        for line, dist in oracle.items():
            np.testing.assert_allclose(
                result.distributions[line], dist, atol=1e-10, rtol=0
            )


class TestInvalidation:
    """A CPD with mass outside the recorded support drops the compile."""

    def _noisy_cpd(self, old):
        table = 0.9 * old.factor.values + 0.1 * (1.0 / old.cardinality)
        return TabularCPD(
            old.variable, old.cardinality, table, parents=old.parents
        )

    def test_noisy_gate_cpd_invalidates_and_stays_exact(self):
        circuit = suite.load_circuit("c17")
        est = SwitchingActivityEstimator(circuit, kernel="sparse").compile()
        jt = est._jt
        est.estimate()
        assert jt._mask_supports, "sparse compile recorded no masks"
        gate = next(iter(jt._mask_supports))

        noisy = self._noisy_cpd(jt._bn.cpd(gate))
        jt.update_cpds([noisy])
        # The offending node never contributes a mask again.
        assert gate in jt._mask_exclude

        jt.calibrate()
        oracle = JunctionTree.from_network(jt._bn, kernel="dense")
        oracle.calibrate()
        for line in circuit.lines:
            np.testing.assert_allclose(
                jt.marginal(line), oracle.marginal(line), atol=1e-12, rtol=0
            )
        # The re-analyzed schedule excludes the noisy node's mask but
        # keeps every other gate's.
        assert gate not in jt._mask_supports

    def test_unchanged_deterministic_cpds_keep_the_compile(self):
        circuit = suite.load_circuit("c17")
        est = SwitchingActivityEstimator(circuit, kernel="sparse").compile()
        jt = est._jt
        est.estimate()
        schedule = jt._schedule
        # Swapping input statistics (root CPDs carry no masks) must not
        # drop the compiled schedule.
        est.update_inputs(IndependentInputs(0.2))
        est.estimate()
        assert jt._schedule is schedule


class TestDiagnostics:
    def test_support_stats_shape(self):
        est = SwitchingActivityEstimator(suite.load_circuit("pcler8"))
        stats = est.support_stats()
        assert stats["kernel"] == "auto"
        assert 0 < stats["feasible_states"] < stats["total_states"]
        assert 0.0 < stats["support_density"] < 1.0
        assert 0 < stats["sparse_cliques"] <= stats["cliques"]

    def test_gauges_published_at_compile(self):
        obs.enable(reset=True)
        try:
            SwitchingActivityEstimator(suite.load_circuit("pcler8")).compile()
            gauges = obs.get_metrics().snapshot()["gauges"]
        finally:
            obs.disable()
            obs.reset()
        assert gauges["jt.feasible_states"] > 0
        assert 0.0 < gauges["jt.support_density"] < 1.0
        assert gauges["jt.sparse_cliques"] > 0
        assert gauges["jt.feasible_states"] < gauges["jt.total_states"]


def _prop_doc(seconds_by_circuit):
    return new_document(
        "propagation",
        [
            row(name, "repeat", "repeat_estimate_min_seconds", value)
            for name, value in seconds_by_circuit.items()
        ],
    )


def _thr_doc(rate_by_key):
    return new_document(
        "throughput",
        [
            row(name, "batched", "batched_scenarios_per_sec", value, K=k)
            for (name, k), value in rate_by_key.items()
        ],
    )


class TestBenchDiff:
    def test_ok_within_band(self):
        records = compare_profiles(
            _prop_doc({"c432s": 0.100}), _prop_doc({"c432s": 0.110}),
            noise_band=0.25,
        )
        assert [r["status"] for r in records] == ["ok"]

    def test_regression_detected_both_directions(self):
        slow = compare_profiles(
            _prop_doc({"c432s": 0.100}), _prop_doc({"c432s": 0.200}),
            noise_band=0.25,
        )
        assert slow[0]["status"] == "regression"
        fewer = compare_profiles(
            _thr_doc({("c17", 64): 1000.0}), _thr_doc({("c17", 64): 500.0}),
            noise_band=0.25,
        )
        assert fewer[0]["status"] == "regression"

    def test_sub_floor_timings_are_skipped(self):
        records = compare_profiles(
            _prop_doc({"c17": 0.0002}), _prop_doc({"c17": 0.0009}),
            noise_band=0.25, floor_seconds=0.001,
        )
        assert records[0]["status"] == "skipped"

    def test_mismatched_kinds_raise(self):
        with pytest.raises(PerfDiffError):
            compare_profiles(_prop_doc({"c17": 1.0}), _thr_doc({("c17", 1): 1.0}))

    def test_cli_exit_codes(self, tmp_path):
        old = tmp_path / "old.json"
        regressed = tmp_path / "new.json"
        old.write_text(json.dumps(_prop_doc({"c432s": 0.100})))
        regressed.write_text(json.dumps(_prop_doc({"c432s": 0.500})))
        store = str(tmp_path / "store")
        run = lambda a, b: cli_main(["perf", "diff", str(a), str(b), "--store", store])
        assert run(old, old) == 0
        assert run(old, regressed) == 1
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(_thr_doc({("c17", 1): 1.0})))
        assert run(old, broken) == 2
