"""Tests for the support-enumeration segment backend."""

import itertools

import numpy as np
import pytest

from repro.circuits import examples, generate
from repro.core import (
    CorrelatedGroupInputs,
    IndependentInputs,
    TemporalInputs,
    exact_switching_by_enumeration,
)
from repro.core.enumeration import EnumerationSegment, SegmentTooWide
from repro.core.inputs import InputStack
from repro.core.segments import TreeBoundaryInputs
from repro.core.states import N_STATES


class TestExactness:
    def test_matches_oracle_independent(self):
        circuit = generate.random_layered_circuit(6, 25, seed=2)
        model = IndependentInputs(0.3)
        segment = EnumerationSegment(circuit, model)
        result = segment.estimate()
        exact = exact_switching_by_enumeration(circuit, model)
        for line in circuit.lines:
            assert np.allclose(result.distributions[line], exact[line], atol=1e-12)

    def test_matches_oracle_temporal(self):
        circuit = examples.c17()
        model = TemporalInputs(p_one=0.4, activity=0.2)
        result = EnumerationSegment(circuit, model).estimate()
        exact = exact_switching_by_enumeration(circuit, model)
        for line in circuit.lines:
            assert np.allclose(result.distributions[line], exact[line], atol=1e-12)

    def test_matches_oracle_tree_boundary(self):
        circuit = examples.c17()
        priors = {n: np.array([0.4, 0.1, 0.2, 0.3]) for n in circuit.inputs}
        parent_of = {"2": "1", "3": "2"}
        conditional = np.full((N_STATES, N_STATES), 0.1)
        np.fill_diagonal(conditional, 0.7)
        conditionals = {child: conditional for child in parent_of}
        model = TreeBoundaryInputs(priors, parent_of, conditionals)
        result = EnumerationSegment(circuit, model).estimate()
        exact = exact_switching_by_enumeration(circuit, model)
        for line in circuit.lines:
            assert np.allclose(result.distributions[line], exact[line], atol=1e-12)

    def test_method_label(self):
        result = EnumerationSegment(examples.c17(), IndependentInputs(0.5)).estimate()
        assert result.method == "enumeration"


def _brute_joint(circuit, model, a, b):
    """Pair joint by a per-assignment loop over the 4^n input states."""
    from repro.bayesian.network import BayesianNetwork
    from repro.core.cpt import output_transition

    input_bn = BayesianNetwork("inputs")
    for cpd in model.input_cpds(circuit.inputs):
        input_bn.add_cpd(cpd)
    weights = input_bn.joint_factor().permute(circuit.inputs).values
    joint = np.zeros((N_STATES, N_STATES))
    for assignment in itertools.product(range(N_STATES), repeat=circuit.num_inputs):
        states = dict(zip(circuit.inputs, assignment))
        for line in circuit.topological_order():
            gate = circuit.driver(line)
            if gate is not None:
                states[line] = int(
                    output_transition(gate.gate_type, [states[s] for s in gate.inputs])
                )
        joint[states[a], states[b]] += weights[assignment]
    return joint / joint.sum()


def _stacked(segment, models, lines, pairs=()):
    """``estimate_many_stacked`` over the models' stacked input tables."""
    inputs = segment.circuit.inputs
    tables, parents = InputStack(models, inputs).tables(inputs)
    return segment.estimate_many_stacked(tables, lines, pairs, parents)


def _pair(segment, model, a, b):
    _, joints, _ = _stacked(segment, [model], (), [(a, b)])
    return joints[(a, b)][0]


class TestPairJoint:
    """Pair joints through the stacked query."""

    def test_pair_joint_exact(self):
        circuit = examples.paper_circuit()
        model = IndependentInputs(0.5)
        segment = EnumerationSegment(circuit, model)
        joint = _pair(segment, model, "5", "6")
        # Lines 5 and 6 have disjoint fanin -> independent joint.
        result = segment.estimate()
        outer = np.outer(result.distributions["5"], result.distributions["6"])
        assert np.allclose(joint, outer, atol=1e-12)

    def test_dependent_pair(self):
        circuit = examples.paper_circuit()
        model = IndependentInputs(0.5)
        segment = EnumerationSegment(circuit, model)
        result = segment.estimate()
        joint = _pair(segment, model, "6", "8")  # both depend on line 4
        outer = np.outer(result.distributions["6"], result.distributions["8"])
        assert not np.allclose(joint, outer, atol=1e-6)
        assert joint.sum() == pytest.approx(1.0)

    def test_keep_lines_restriction(self):
        circuit = examples.c17()
        segment = EnumerationSegment(
            circuit, IndependentInputs(0.5), keep_lines={"22"}
        )
        with pytest.raises(KeyError):
            _pair(segment, IndependentInputs(0.5), "22", "23")
        with pytest.raises(KeyError):
            _stacked(segment, [IndependentInputs(0.5)], ["23"])
        assert list(segment.estimate().distributions) == ["22"]

    def test_pair_joint_autoestimates(self):
        # The stacked query needs no earlier estimate: the gate states
        # are built at construction.
        circuit = examples.c17()
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        joint = _pair(segment, IndependentInputs(0.5), "22", "23")
        assert joint.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "model",
        [
            IndependentInputs({"1": 0.2, "2": 0.7, "3": 0.4, "6": 0.9, "7": 0.55}),
            TemporalInputs(p_one=0.4, activity=0.2),
            CorrelatedGroupInputs([("1", "3", "6")], rho=0.6),
        ],
        ids=["independent", "temporal", "correlated"],
    )
    def test_matches_brute_force(self, model):
        circuit = examples.c17()
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        pairs = [("22", "23"), ("10", "19"), ("1", "22"), ("16", "16")]
        stacks, joints, _ = _stacked(segment, [model], circuit.lines, pairs)
        exact = exact_switching_by_enumeration(circuit, model)
        for line in circuit.lines:
            assert np.allclose(stacks[line][0], exact[line], atol=1e-12)
        for a, b in pairs:
            assert np.allclose(
                joints[(a, b)][0], _brute_joint(circuit, model, a, b), atol=1e-12
            )

    def test_stacked_rows_equal_single_calls_bitwise(self):
        circuit = generate.random_layered_circuit(6, 25, seed=2)
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        rng = np.random.default_rng(0)
        models = [
            IndependentInputs({n: float(p) for n, p in zip(circuit.inputs, rng.random(6))})
            for _ in range(4)
        ] + [TemporalInputs(p_one=0.3, activity=0.1)]
        lines = circuit.lines
        pairs = list(zip(lines[:-1], lines[1:]))
        stacks, joints, _ = _stacked(segment, models, lines, pairs)
        for j, model in enumerate(models):
            one, one_joints, _ = _stacked(segment, [model], lines, pairs)
            for line in lines:
                assert np.array_equal(stacks[line][j], one[line][0])
            for pair in pairs:
                assert np.array_equal(joints[pair][j], one_joints[pair][0])
        batch = segment.estimate_many(models)
        for j, model in enumerate(models):
            segment.update_inputs(model)
            single = segment.estimate()
            for line in lines:
                assert np.array_equal(batch[j].distributions[line], single.distributions[line])

    def test_pickle_rebuilds_states(self):
        import pickle

        circuit = examples.c17()
        segment = EnumerationSegment(circuit, IndependentInputs(0.3), keep_lines={"22", "23"})
        clone = pickle.loads(pickle.dumps(segment))
        assert clone._states.keys() == segment._states.keys()
        model = TemporalInputs(p_one=0.4, activity=0.2)
        pair = [("22", "23")]
        assert np.array_equal(
            _stacked(segment, [model], ["22"], pair)[1][pair[0]],
            _stacked(clone, [model], ["22"], pair)[1][pair[0]],
        )


class TestBudget:
    def test_too_wide_rejected(self):
        circuit = generate.random_layered_circuit(12, 20, seed=0)
        with pytest.raises(SegmentTooWide):
            EnumerationSegment(circuit, IndependentInputs(0.5), max_input_states=4 ** 8)

    def test_update_inputs_invalidates_cache(self):
        circuit = examples.c17()
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        first = segment.estimate()
        segment.update_inputs(IndependentInputs(0.9))
        second = segment.estimate()
        assert not np.allclose(
            first.distributions["22"], second.distributions["22"]
        )
        exact = exact_switching_by_enumeration(circuit, IndependentInputs(0.9))
        assert np.allclose(second.distributions["22"], exact["22"], atol=1e-12)

    def test_stats(self):
        circuit = examples.c17()
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        stats = segment.stats()
        assert stats["max_clique_states"] == N_STATES ** 5
