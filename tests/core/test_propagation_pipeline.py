"""End-to-end regressions for the compiled propagation engine:
estimator outputs against the enumeration oracle, and repropagation
against fresh compiles.
"""

import numpy as np
import pytest

from repro.circuits import examples
from repro.core.estimator import (
    SwitchingActivityEstimator,
    exact_switching_by_enumeration,
)
from repro.core.inputs import IndependentInputs, TemporalInputs

SMALL_CIRCUITS = [
    examples.c17,
    examples.full_adder_circuit,
    examples.reconvergent_circuit,
    examples.xor_chain_circuit,
]


@pytest.mark.parametrize("build", SMALL_CIRCUITS, ids=lambda f: f.__name__)
def test_engine_matches_enumeration_oracle(build):
    circuit = build()
    model = IndependentInputs(0.4)
    estimate = SwitchingActivityEstimator(circuit, input_model=model).estimate()
    oracle = exact_switching_by_enumeration(circuit, model)
    for line in circuit.lines:
        assert np.allclose(
            estimate.distributions[line], oracle[line], atol=1e-10
        ), line


@pytest.mark.parametrize("build", SMALL_CIRCUITS, ids=lambda f: f.__name__)
def test_update_inputs_matches_fresh_compile(build):
    """``update_inputs`` + repropagation must track a fresh compile
    bitwise across an input-statistics sweep."""
    circuit = build()
    estimator = SwitchingActivityEstimator(circuit)
    estimator.estimate()
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        estimator.update_inputs(IndependentInputs(p))
        swept = estimator.estimate()
        fresh = SwitchingActivityEstimator(
            circuit, input_model=IndependentInputs(p)
        ).estimate()
        for line in circuit.lines:
            assert np.array_equal(
                swept.distributions[line], fresh.distributions[line]
            ), (line, p)


def test_update_inputs_with_temporal_model():
    circuit = examples.full_adder_circuit()
    estimator = SwitchingActivityEstimator(circuit)
    estimator.estimate()
    model = TemporalInputs(activity=0.3)
    estimator.update_inputs(model)
    swept = estimator.estimate()
    oracle = exact_switching_by_enumeration(circuit, model)
    for line in circuit.lines:
        assert np.allclose(swept.distributions[line], oracle[line], atol=1e-10)
