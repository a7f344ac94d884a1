"""End-to-end observability: instrumented compile/propagate pipelines.

These tests exercise the real estimators with the global tracer and
metrics registry enabled, then assert the structural facts the
``repro stats`` CLI and CI schema check rely on: compile-phase spans
exist with nonzero durations, engine counters are published and sum
consistently, worker-thread aggregation matches serial runs, and the
segmentation gauges actually show segmentation shrinking cliques.
"""

import numpy as np
import pytest

from repro import obs
from repro.circuits import examples, generate
from repro.core import (
    IndependentInputs,
    SegmentedEstimator,
    SwitchingActivityEstimator,
)


@pytest.fixture
def enabled_obs():
    """Enable global tracer+metrics with fresh state; always disable after."""
    obs.enable(reset=True)
    try:
        yield
    finally:
        obs.disable()
        obs.reset()


def _counters():
    return obs.get_metrics().snapshot()["counters"]


class TestInstrumentedPipeline:
    def test_compile_spans_and_engine_counters(self, enabled_obs):
        estimator = SwitchingActivityEstimator(examples.c17())
        estimator.compile()
        estimator.estimate()

        tracer = obs.get_tracer()
        for name in (
            "compile.moralize",
            "compile.triangulate",
            "compile.cliques",
            "compile.schedule",
        ):
            spans = tracer.find(name)
            assert spans, f"missing span {name}"
            assert all(s.duration > 0 for s in spans)

        counters = _counters()
        assert counters["engine.messages"] > 0
        assert counters["engine.messages"] == (
            counters["engine.messages_collect"]
            + counters["engine.messages_distribute"]
        )
        assert counters["engine.propagations"] >= 1
        gauges = obs.get_metrics().snapshot()["gauges"]
        assert gauges["jt.max_clique_states"] > 0
        assert gauges["jt.total_states"] >= gauges["jt.max_clique_states"]
        assert gauges["engine.factor_bytes.peak"] > 0

    def test_repropagation_skips_clean_cliques(self, enabled_obs):
        estimator = SwitchingActivityEstimator(examples.c17())
        estimator.compile()
        estimator.estimate()
        estimator.update_inputs(IndependentInputs(0.3))
        estimator.estimate()
        counters = _counters()
        assert counters["engine.cliques_skipped"] > 0
        # Every clique is either skipped or repropagated on each pass.
        live = estimator.propagation_counters()
        assert counters["engine.cliques_repropagated"] == live.cliques_repropagated
        assert counters["engine.cliques_skipped"] == live.cliques_skipped

    def test_results_unchanged_by_instrumentation(self):
        baseline = SwitchingActivityEstimator(examples.c17()).estimate()
        obs.enable(reset=True)
        try:
            traced = SwitchingActivityEstimator(examples.c17()).estimate()
        finally:
            obs.disable()
            obs.reset()
        for line, value in baseline.activities.items():
            assert np.isclose(traced.activities[line], value)

    def test_disabled_obs_records_nothing(self):
        obs.disable()
        obs.reset()
        estimator = SwitchingActivityEstimator(examples.c17())
        result = estimator.estimate()
        assert result.mean_activity() > 0
        assert obs.get_tracer().roots == []
        assert obs.get_metrics().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        # The always-on engine counters still work without the registry.
        assert estimator.propagation_counters().messages > 0


class TestSegmentedAggregation:
    def test_parallel_counters_match_serial(self, enabled_obs):
        circuit = generate.random_layered_circuit(8, 40, seed=7)

        serial = SegmentedEstimator(circuit, max_gates_per_segment=10)
        serial.compile()
        serial.estimate()
        serial_live = serial.propagation_counters().as_dict()
        serial_published = dict(_counters())

        obs.reset()
        parallel = SegmentedEstimator(
            circuit, max_gates_per_segment=10, parallelism=2
        )
        parallel.compile()
        parallel.estimate()
        parallel_live = parallel.propagation_counters().as_dict()
        parallel_published = dict(_counters())

        assert parallel.num_segments == serial.num_segments > 1
        assert parallel_live == serial_live
        # Worker threads publish into the shared registry without losing
        # increments: the engine.* counter families agree exactly.
        engine = lambda d: {k: v for k, v in d.items() if k.startswith("engine.")}
        assert engine(parallel_published) == engine(serial_published)

    def test_parallel_level_spans_parent_segment_spans(self, enabled_obs):
        circuit = generate.random_layered_circuit(8, 40, seed=7)
        estimator = SegmentedEstimator(
            circuit, max_gates_per_segment=10, parallelism=2
        )
        estimator.compile()
        estimator.estimate()
        tracer = obs.get_tracer()
        levels = tracer.find("segmented.propagate.level")
        assert levels
        segment_spans = [
            child for level in levels for child in level.children
        ]
        assert segment_spans
        assert all(s.name == "segment.propagate_many" for s in segment_spans)


class TestSegmentationShrinksCliques:
    def test_max_clique_gauge_drops_under_segmentation(self, enabled_obs):
        # Wide reconvergent circuit: one monolithic BN needs big cliques.
        circuit = generate.random_layered_circuit(12, 80, seed=3, reach=0.2)

        whole = SwitchingActivityEstimator(
            circuit, max_clique_states=4 ** 12
        )
        whole.compile()
        monolithic_max = obs.get_metrics().snapshot()["gauges"][
            "jt.max_clique_states"
        ]

        obs.reset()
        segmented = SegmentedEstimator(circuit, max_gates_per_segment=8)
        segmented.compile()
        gauges = obs.get_metrics().snapshot()["gauges"]
        segmented_max = gauges["jt.max_clique_states"]

        assert segmented.num_segments > 1
        assert gauges["segmented.segments"] == segmented.num_segments
        assert 0 < segmented_max < monolithic_max
