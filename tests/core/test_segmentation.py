"""Tests for multi-BN segmentation."""

import numpy as np
import pytest

from repro.circuits import examples, generate
from repro.core import (
    IndependentInputs,
    SegmentedEstimator,
    SwitchingActivityEstimator,
)
from repro.core.segments import FixedMarginalInputs
from repro.core.states import N_STATES


class TestFixedMarginalInputs:
    def test_round_trip(self):
        dist = np.array([0.1, 0.2, 0.3, 0.4])
        model = FixedMarginalInputs({"a": dist})
        assert np.allclose(model.marginal_distribution("a"), dist)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            FixedMarginalInputs({"a": np.array([0.5, 0.5])})
        with pytest.raises(ValueError, match="sum"):
            FixedMarginalInputs({"a": np.array([0.5, 0.5, 0.5, 0.5])})
        model = FixedMarginalInputs({})
        with pytest.raises(KeyError):
            model.marginal_distribution("ghost")

    def test_sampling_matches(self):
        dist = np.array([0.7, 0.1, 0.1, 0.1])
        model = FixedMarginalInputs({"a": dist})
        rng = np.random.default_rng(0)
        states = model.sample_states(["a"], 50_000, rng)
        hist = np.bincount(states[:, 0], minlength=N_STATES) / 50_000
        assert np.allclose(hist, dist, atol=0.01)


class TestSegmentation:
    def test_single_segment_is_exact(self):
        """A circuit fitting one segment must match the single-BN path."""
        circuit = examples.c17()
        single = SwitchingActivityEstimator(circuit).estimate()
        seg = SegmentedEstimator(circuit, max_gates_per_segment=100)
        result = seg.estimate()
        assert seg.num_segments == 1
        assert result.method == "single-bn"
        for line in circuit.lines:
            assert np.allclose(
                result.distributions[line], single.distributions[line], atol=1e-10
            )

    def test_multi_segment_close_to_exact(self):
        circuit = generate.random_layered_circuit(8, 40, seed=7)
        single = SwitchingActivityEstimator(circuit, max_clique_states=None).estimate()
        seg = SegmentedEstimator(circuit, max_gates_per_segment=10, lookback=3)
        result = seg.estimate()
        assert seg.num_segments > 1
        assert result.method == "segmented"
        errors = [
            abs(result.switching(l) - single.switching(l)) for l in circuit.lines
        ]
        assert np.mean(errors) < 0.03

    def test_lookback_reduces_error(self):
        circuit = generate.random_layered_circuit(10, 60, seed=2)
        single = SwitchingActivityEstimator(circuit, max_clique_states=None).estimate()

        def mean_error(lookback):
            seg = SegmentedEstimator(
                circuit, max_gates_per_segment=12, lookback=lookback
            )
            result = seg.estimate()
            return np.mean(
                [abs(result.switching(l) - single.switching(l)) for l in circuit.lines]
            )

        assert mean_error(3) <= mean_error(0) + 1e-12

    def test_budget_splitting(self):
        """A tiny clique budget (with the enumeration fallback disabled)
        forces recursive segment splitting but the estimate completes."""
        circuit = generate.random_layered_circuit(8, 40, seed=3)
        seg = SegmentedEstimator(
            circuit,
            max_gates_per_segment=40,
            max_clique_states=4 ** 4,
            lookback=2,
            enum_input_states=0,
        )
        result = seg.estimate()
        assert seg.num_segments > 1
        assert set(result.distributions) == set(circuit.lines)

    def test_enumeration_fallback_absorbs_high_treewidth(self):
        """With the fallback enabled, the same circuit stays a single
        exact enumeration segment despite the tiny clique budget."""
        circuit = generate.random_layered_circuit(8, 40, seed=3)
        seg = SegmentedEstimator(
            circuit, max_gates_per_segment=40, max_clique_states=4 ** 5, lookback=2
        )
        result = seg.estimate()
        assert seg.num_segments == 1
        single = SwitchingActivityEstimator(circuit, max_clique_states=None).estimate()
        for line in circuit.lines:
            assert np.allclose(
                result.distributions[line], single.distributions[line], atol=1e-10
            )

    def test_enum_backend_exact_on_narrow_circuit(self):
        """backend='enum' with a wide-enough input budget is exact."""
        circuit = generate.random_layered_circuit(7, 30, seed=6)
        seg = SegmentedEstimator(circuit, backend="enum", enum_input_states=4 ** 7)
        result = seg.estimate()
        single = SwitchingActivityEstimator(circuit, max_clique_states=None).estimate()
        if seg.num_segments == 1:
            for line in circuit.lines:
                assert np.allclose(
                    result.distributions[line], single.distributions[line], atol=1e-10
                )
        else:  # partition cut the circuit: still close
            errors = [
                abs(result.switching(l) - single.switching(l)) for l in circuit.lines
            ]
            assert np.mean(errors) < 0.03

    def test_backend_validation(self):
        circuit = examples.c17()
        with pytest.raises(ValueError, match="backend"):
            SegmentedEstimator(circuit, backend="magic")
        with pytest.raises(ValueError, match="enum_input_states"):
            SegmentedEstimator(circuit, backend="enum", enum_input_states=0)

    def test_input_model_respected(self):
        circuit = examples.c17()
        model = IndependentInputs(0.9)
        seg = SegmentedEstimator(circuit, input_model=model, max_gates_per_segment=2)
        result = seg.estimate()
        single = SwitchingActivityEstimator(circuit, model).estimate()
        # Multi-segment c17 loses some correlation but stays close.
        for line in circuit.lines:
            assert abs(result.switching(line) - single.switching(line)) < 0.05

    def test_all_lines_reported(self):
        circuit = generate.random_layered_circuit(6, 25, seed=4)
        result = SegmentedEstimator(circuit, max_gates_per_segment=7).estimate()
        assert set(result.distributions) == set(circuit.lines)
        for dist in result.distributions.values():
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_segment_stats(self):
        circuit = generate.random_layered_circuit(6, 25, seed=4)
        seg = SegmentedEstimator(circuit, max_gates_per_segment=7)
        stats = seg.segment_stats()
        assert len(stats) == seg.num_segments
        assert all("max_clique_states" in s and "owned_gates" in s for s in stats)
        assert sum(s["owned_gates"] for s in stats) == circuit.num_gates

    def test_validation(self):
        circuit = examples.c17()
        with pytest.raises(ValueError):
            SegmentedEstimator(circuit, max_gates_per_segment=0)
        with pytest.raises(ValueError):
            SegmentedEstimator(circuit, lookback=-1)

    def test_repeated_estimates_are_stable(self):
        circuit = generate.random_layered_circuit(6, 25, seed=5)
        seg = SegmentedEstimator(circuit, max_gates_per_segment=8)
        first = seg.estimate()
        second = seg.estimate()
        for line in circuit.lines:
            assert np.allclose(
                first.distributions[line], second.distributions[line], atol=1e-12
            )
