"""The strict validation pass: circuits, mutated circuits, input models."""

import numpy as np
import pytest

from repro.circuits.examples import c17
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit, Gate
from repro.core import validate as validate_module
from repro.core.backend import compile_model, estimate_many
from repro.core.inputs import (
    CorrelatedGroupInputs,
    IndependentInputs,
    InputModel,
    TraceInputs,
)
from repro.core.segments import FixedMarginalInputs
from repro.core.validate import (
    validate,
    validate_circuit,
    validate_input_model,
    validate_many,
)
from repro.errors import (
    CombinationalCycleError,
    DuplicateDefinitionError,
    InputModelError,
    UndefinedLineError,
    ValidationError,
)


class TestConstructionRejects:
    """Circuit.__init__ runs the declaration-level checks."""

    def test_duplicate_inputs(self):
        with pytest.raises(DuplicateDefinitionError, match="declared twice"):
            Circuit("bad", ["a", "a"], [Gate("y", GateType.NOT, ["a"])])

    def test_line_driven_twice(self):
        with pytest.raises(DuplicateDefinitionError, match="driven twice"):
            Circuit(
                "bad",
                ["a"],
                [Gate("y", GateType.NOT, ["a"]), Gate("y", GateType.BUF, ["a"])],
            )

    def test_input_driven_by_gate(self):
        with pytest.raises(DuplicateDefinitionError, match="driven by a gate"):
            Circuit("bad", ["a", "b"], [Gate("b", GateType.NOT, ["a"])])

    def test_undefined_operand(self):
        with pytest.raises(UndefinedLineError, match="undefined line"):
            Circuit("bad", ["a"], [Gate("y", GateType.AND, ["a", "ghost"])])

    def test_cycle(self):
        with pytest.raises(CombinationalCycleError, match="combinational cycle"):
            Circuit(
                "bad",
                ["a"],
                [Gate("y", GateType.AND, ["a", "z"]), Gate("z", GateType.NOT, ["y"])],
            )


class TestValidateCircuit:
    def test_well_formed_passes(self):
        validate_circuit(c17())

    def test_mutated_circuit_caught(self):
        """Post-construction mutation is caught by the facade re-check."""
        circuit = c17()
        circuit.gates["10"] = Gate("10", GateType.NAND, ["1", "ghost"])
        with pytest.raises(UndefinedLineError, match="ghost"):
            validate_circuit(circuit)

    def test_mutated_cycle_caught(self):
        # Rewire two gates to read each other -- a cycle the cached
        # topological order predates.
        circuit = c17()
        first, second = list(circuit.gates)[:2]
        circuit.gates[first] = Gate(first, GateType.NAND, ["1", second])
        circuit.gates[second] = Gate(second, GateType.NAND, ["1", first])
        with pytest.raises(CombinationalCycleError):
            validate_circuit(circuit)

    def test_facade_runs_validation(self):
        circuit = c17()
        circuit.gates["10"] = Gate("10", GateType.NAND, ["1", "ghost"])
        with pytest.raises(ValidationError):
            compile_model(circuit, backend="junction-tree")


class TestValidateInputModel:
    def test_independent_passes(self):
        validate(c17(), IndependentInputs(0.3))

    def test_non_model_rejected(self):
        with pytest.raises(InputModelError, match="must be an InputModel"):
            validate_input_model(c17(), {"1": 0.5})

    def test_missing_input_rejected(self):
        circuit = c17()
        partial = FixedMarginalInputs(
            {name: np.full(4, 0.25) for name in circuit.inputs[:-1]}
        )
        with pytest.raises(InputModelError, match="no statistics"):
            validate_input_model(circuit, partial)

    def test_unnormalized_marginal_rejected(self):
        circuit = c17()

        class Bad(InputModel):
            def marginal_distribution(self, name):
                return np.array([0.5, 0.5, 0.5, 0.5])

            def input_cpds(self, input_names):
                return []

            def sample_pairs(self, input_names, n_pairs, rng):
                raise NotImplementedError

        with pytest.raises(InputModelError, match="sums to"):
            validate_input_model(circuit, Bad())

    def test_non_finite_marginal_rejected(self):
        circuit = c17()

        class Bad(InputModel):
            def marginal_distribution(self, name):
                return np.array([np.nan, 0.5, 0.25, 0.25])

            def input_cpds(self, input_names):
                return []

            def sample_pairs(self, input_names, n_pairs, rng):
                raise NotImplementedError

        with pytest.raises(InputModelError, match="non-finite"):
            validate_input_model(circuit, Bad())

    def test_missing_cpd_rejected(self):
        circuit = c17()
        quarter = np.full(4, 0.25)

        class Bad(FixedMarginalInputs):
            def input_cpds(self, input_names):
                return super().input_cpds(list(input_names)[:-1])

        model = Bad({name: quarter for name in circuit.inputs})
        with pytest.raises(InputModelError, match="no CPD"):
            validate_input_model(circuit, model)

    def test_facade_rejects_bad_model(self):
        with pytest.raises(InputModelError):
            compile_model(c17(), {"not": "a model"}, backend="junction-tree")


class TestValidateMany:
    """A sweep validates its circuit once and its models as one stack."""

    def test_circuit_checked_once_per_sweep(self, monkeypatch):
        calls = []
        check = validate_module.validate_circuit
        monkeypatch.setattr(
            validate_module, "validate_circuit", lambda c: calls.append(c) or check(c)
        )
        models = [IndependentInputs(0.1 * k) for k in range(1, 9)]
        estimate_many(c17(), models, backend="junction-tree")
        assert len(calls) == 1

    def test_bad_row_is_named(self):
        models = [IndependentInputs(0.3), IndependentInputs(0.5), IndependentInputs(1.5)]
        with pytest.raises(InputModelError, match="scenario 2: p_one"):
            estimate_many(c17(), models, backend="junction-tree")

    def test_trace_missing_input_rejected(self):
        circuit = c17()
        trace = TraceInputs(np.zeros((4, 2), dtype=int), circuit.inputs[:2])
        with pytest.raises(InputModelError, match="no statistics"):
            validate_many(circuit, [IndependentInputs(0.5), trace])

    def test_third_party_model_keeps_the_cpd_check(self):
        circuit = c17()
        quarter = np.full(4, 0.25)

        class Bad(FixedMarginalInputs):
            def input_cpds(self, input_names):
                return super().input_cpds(list(input_names)[:-1])

        models = [IndependentInputs(0.5), Bad({name: quarter for name in circuit.inputs})]
        with pytest.raises(InputModelError, match="no CPD"):
            estimate_many(circuit, models, backend="junction-tree")

    def test_malformed_base_rejected(self):
        circuit = c17()

        class Half(InputModel):
            def marginal_distribution(self, name):
                return np.full(4, 0.125)

            def input_cpds(self, input_names):
                return []

            def sample_pairs(self, input_names, n_pairs, rng):
                raise NotImplementedError

        model = CorrelatedGroupInputs([circuit.inputs[:2]], 0.5, base=Half())
        with pytest.raises(InputModelError, match="sums to"):
            validate_many(circuit, [IndependentInputs(0.5), model])
