"""Exactness and behaviour tests for the single-BN estimator."""

import numpy as np
import pytest

from repro.circuits import examples, generate
from repro.core import (
    IndependentInputs,
    SwitchingActivityEstimator,
    TemporalInputs,
    CorrelatedGroupInputs,
    exact_switching_by_enumeration,
)
from repro.errors import CliqueBudgetExceeded


def assert_matches_enumeration(circuit, model=None, atol=1e-10):
    estimator = SwitchingActivityEstimator(circuit, model)
    result = estimator.estimate()
    exact = exact_switching_by_enumeration(circuit, model)
    for line in circuit.lines:
        assert np.allclose(result.distributions[line], exact[line], atol=atol), line
    return result


class TestExactness:
    """The headline claim: single-BN estimates are exact."""

    def test_paper_circuit(self):
        assert_matches_enumeration(examples.paper_circuit())

    def test_c17(self):
        assert_matches_enumeration(examples.c17())

    def test_full_adder(self):
        assert_matches_enumeration(examples.full_adder_circuit())

    def test_reconvergent_constant(self):
        """y = AND(a, NOT a) is constant 0: switching must be exactly 0,
        the case independence-based estimators get wrong."""
        circuit = examples.reconvergent_circuit()
        result = assert_matches_enumeration(circuit)
        assert result.switching("y") == pytest.approx(0.0, abs=1e-12)

    def test_xor_chain(self):
        assert_matches_enumeration(examples.xor_chain_circuit(4))

    def test_biased_inputs(self):
        assert_matches_enumeration(examples.c17(), IndependentInputs(0.15))

    def test_temporal_inputs(self):
        assert_matches_enumeration(
            examples.c17(), TemporalInputs(p_one=0.5, activity=0.1)
        )

    def test_correlated_inputs(self):
        model = CorrelatedGroupInputs([("1", "2")], rho=0.7)
        assert_matches_enumeration(examples.paper_circuit(), model)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_small_circuits(self, seed):
        circuit = generate.random_layered_circuit(5, 14, seed=seed)
        assert_matches_enumeration(circuit)

    def test_per_input_probabilities(self):
        model = IndependentInputs({"1": 0.9, "2": 0.1, "3": 0.5, "6": 0.3, "7": 0.7})
        assert_matches_enumeration(examples.c17(), model)


class TestPaperNumbers:
    def test_or_gate_switching_fair_inputs(self):
        """OR of two fair independent inputs: P(out=1) = 3/4, temporally
        independent, so switching = 2 * 3/4 * 1/4 = 0.375."""
        estimator = SwitchingActivityEstimator(examples.paper_circuit())
        assert estimator.estimate().switching("5") == pytest.approx(0.375)

    def test_input_switching_is_half(self):
        estimator = SwitchingActivityEstimator(examples.c17())
        result = estimator.estimate()
        for name in ("1", "2", "3", "6", "7"):
            assert result.switching(name) == pytest.approx(0.5)


class TestApi:
    def test_compile_is_idempotent(self):
        estimator = SwitchingActivityEstimator(examples.c17())
        estimator.compile()
        jt = estimator.junction_tree
        estimator.compile()
        assert estimator.junction_tree is jt

    def test_estimate_reports_timings(self):
        result = SwitchingActivityEstimator(examples.c17()).estimate()
        assert result.compile_seconds > 0
        assert result.propagate_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.compile_seconds + result.propagate_seconds
        )
        assert result.method == "single-bn"
        assert result.segments == 1

    def test_update_inputs_fast_path(self):
        estimator = SwitchingActivityEstimator(examples.c17())
        estimator.estimate()
        estimator.update_inputs(IndependentInputs(0.9))
        result = estimator.estimate()
        exact = exact_switching_by_enumeration(examples.c17(), IndependentInputs(0.9))
        for line in ("22", "23"):
            assert np.allclose(result.distributions[line], exact[line], atol=1e-10)

    def test_update_inputs_does_not_recompile(self):
        estimator = SwitchingActivityEstimator(examples.c17())
        estimator.compile()
        jt = estimator.junction_tree
        estimator.update_inputs(IndependentInputs(0.2))
        assert estimator.junction_tree is jt

    def test_line_distribution(self):
        estimator = SwitchingActivityEstimator(examples.c17())
        dist = estimator.line_distribution("22")
        assert dist.shape == (4,)
        assert dist.sum() == pytest.approx(1.0)

    def test_clique_budget_enforced(self):
        circuit = generate.random_layered_circuit(12, 80, seed=1)
        estimator = SwitchingActivityEstimator(circuit, max_clique_states=64)
        with pytest.raises(CliqueBudgetExceeded):
            estimator.compile()

    def test_mean_activity(self):
        result = SwitchingActivityEstimator(examples.c17()).estimate()
        acts = list(result.activities.values())
        assert result.mean_activity() == pytest.approx(np.mean(acts))


class TestConditionalQueries:
    """Diagnostic (evidence-based) queries -- the BN capability the
    propagation-only methods lack."""

    def test_conditional_matches_brute_force(self):
        from repro.core.lidag import build_lidag

        circuit = examples.paper_circuit()
        estimator = SwitchingActivityEstimator(circuit)
        evidence = {"9": 1}  # output observed rising (x01)
        result = estimator.conditional_distribution("5", evidence)
        expected = build_lidag(circuit).brute_force_marginal("5", evidence)
        assert np.allclose(result, expected, atol=1e-10)

    def test_evidence_changes_posterior(self):
        circuit = examples.paper_circuit()
        estimator = SwitchingActivityEstimator(circuit)
        prior = estimator.estimate().switching("5")
        posterior = estimator.conditional_switching("5", {"9": 1})
        assert posterior != pytest.approx(prior, abs=1e-6)

    def test_evidence_is_local_to_the_call(self):
        circuit = examples.c17()
        estimator = SwitchingActivityEstimator(circuit)
        before = estimator.estimate().switching("22")
        estimator.conditional_switching("22", {"23": 2})
        after = estimator.estimate().switching("22")
        assert after == pytest.approx(before, abs=1e-12)

    def test_transition_state_values_accepted(self):
        from repro.core.states import TransitionState

        circuit = examples.c17()
        estimator = SwitchingActivityEstimator(circuit)
        dist = estimator.conditional_distribution(
            "10", {"22": TransitionState.X01}
        )
        assert dist.sum() == pytest.approx(1.0)

    def test_deterministic_backward_inference(self):
        """If the AND output rose, both inputs must end high."""
        from repro.circuits.netlist import Circuit, Gate
        from repro.circuits.gates import GateType
        from repro.core.states import TransitionState, signal_probability

        circuit = Circuit(
            "and2", ["a", "b"], [Gate("y", GateType.AND, ("a", "b"))]
        )
        estimator = SwitchingActivityEstimator(circuit)
        dist = estimator.conditional_distribution(
            "a", {"y": TransitionState.X01}
        )
        assert signal_probability(dist, "current") == pytest.approx(1.0)


class TestEnumerationOracle:
    def test_rejects_wide_circuits(self):
        circuit = generate.random_layered_circuit(16, 5, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            exact_switching_by_enumeration(circuit)

    def test_distributions_normalized(self):
        exact = exact_switching_by_enumeration(examples.c17())
        for dist in exact.values():
            assert dist.sum() == pytest.approx(1.0)
