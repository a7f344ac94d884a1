"""Compiled install plans against a ``Factor``-fold reference.

``JunctionTree.update_tables_batch`` forms every per-scenario clique
potential from ``(K, ...)`` table stacks through a compiled plan:
gathers of the swapped tables, multiplied in the order a one-scenario
factor fold uses, times the clique's fixed 0/1 tables.  The contract is
bitwise: row ``k`` of an installed potential equals the dense product
of scenario ``k``'s CPDs (``tests.bayesian.util.reference_potential``),
read in the engine's storage layout, times the evidence indicators.
"""

import numpy as np
import pytest

from repro.bayesian import JunctionTree, TabularCPD
from repro.circuits import examples, suite
from repro.core import (
    CorrelatedGroupInputs,
    IndependentInputs,
    SwitchingActivityEstimator,
    TemporalInputs,
)
from repro.core.backend import compile_model
from repro.core.inputs import InputModel, InputStack
from repro.core.segments import TreeBoundaryInputs
from repro.core.states import N_STATES, independent_transition_distribution

from tests.bayesian.util import reference_potential, sprinkler_bn, storage_layout


def _evidence_indicator(jt, idx):
    """Dense 0/1 table of the evidence homed at clique ``idx``."""
    order = tuple(sorted(jt.cliques[idx]))
    table = np.ones(tuple(jt._cardinalities[v] for v in order))
    for var, state in jt._evidence.items():
        if jt._home_clique[var] != idx:
            continue
        axis = order.index(var)
        keep = np.zeros(jt._cardinalities[var])
        keep[state] = 1.0
        shape = [1] * len(order)
        shape[axis] = keep.size
        table = table * keep.reshape(shape)
    return table


def _assert_installed_equal_reference(jt, tables, cpd_sets):
    """Every per-scenario potential in the engine equals the reference
    fold of that scenario's CPDs, bitwise."""
    engine = jt._engine
    scatter = jt._batch_scatter
    stacked = {jt._cpd_assignment[var] for var in tables}
    assert stacked == jt._stacked
    for idx in stacked:
        rows = engine._psi[idx].reshape(engine.batch_size, -1)
        for k, cpds in enumerate(cpd_sets):
            row = k if scatter is None else scatter[k]
            dense = reference_potential(jt, idx, cpds) * _evidence_indicator(jt, idx)
            expect = storage_layout(jt, idx, dense)
            assert np.array_equal(rows[row], expect), (idx, k)


def _models(circuit):
    inputs = list(circuit.inputs)
    return [
        IndependentInputs(0.3),
        IndependentInputs({name: 0.1 + 0.8 * i / len(inputs) for i, name in enumerate(inputs)}),
        TemporalInputs(p_one=0.4, activity=0.3),
    ]


class TestPlansMatchTheFold:
    @pytest.mark.parametrize(
        "name,kernel", [("c17", "dense"), ("c17", "sparse"), ("alu", "auto")]
    )
    def test_circuit_inputs(self, name, kernel):
        circuit = suite.load_circuit(name)
        est = SwitchingActivityEstimator(circuit, kernel=kernel).compile()
        jt = est.junction_tree
        stack = InputStack(_models(circuit), circuit.inputs)
        tables, parents = stack.tables(circuit.inputs)
        jt.update_tables_batch(tables, len(stack), parents)
        if kernel != "dense":
            assert jt._stacked & set(jt._schedule.sparse_cliques), "no packed input clique"
        cpd_sets = [m.input_cpds_trusted(circuit.inputs) for m in stack.models]
        _assert_installed_equal_reference(jt, tables, cpd_sets)

    def test_correlated_chains(self):
        circuit = examples.c17()
        inputs = list(circuit.inputs)
        models = [
            CorrelatedGroupInputs([inputs[:3], inputs[3:]], rho=rho, base=base)
            for rho, base in (
                (0.3, IndependentInputs(0.4)),
                (0.8, TemporalInputs(p_one=0.5, activity=0.2)),
            )
        ]
        est = SwitchingActivityEstimator(circuit, models[0], kernel="sparse").compile()
        jt = est.junction_tree
        stack = InputStack(models, inputs)
        tables, parents = stack.tables(inputs)
        assert {tables[name].shape for name in parents} == {(2, N_STATES, N_STATES)}
        jt.update_tables_batch(tables, len(stack), parents)
        cpd_sets = [m.input_cpds_trusted(inputs) for m in models]
        _assert_installed_equal_reference(jt, tables, cpd_sets)

    def test_tree_boundary_conditionals_and_evidence(self):
        circuit = examples.c17()
        inputs = list(circuit.inputs)
        parent_of = {inputs[1]: inputs[0], inputs[2]: inputs[1]}
        uniform = {name: np.full(N_STATES, 0.25) for name in inputs}
        est = SwitchingActivityEstimator(
            circuit, TreeBoundaryInputs(uniform, parent_of), kernel="sparse"
        ).compile()
        jt = est.junction_tree
        rng = np.random.default_rng(5)
        k = 4
        tables = {}
        for name in inputs:
            shape = (k, N_STATES, N_STATES) if name in parent_of else (k, N_STATES)
            table = rng.random(shape) + 0.05
            tables[name] = table / table.sum(axis=-1, keepdims=True)
        parents = {child: (parent,) for child, parent in parent_of.items()}
        jt.update_tables_batch(tables, k, parents)
        # Evidence on a line homed in a clique that holds per-scenario
        # rows, and on one homed elsewhere.
        homed = next(v for v in circuit.lines if jt._home_clique[v] in jt._stacked)
        other = next(v for v in circuit.lines if jt._home_clique[v] not in jt._stacked)
        jt.set_evidence({homed: 1, other: 2})
        jt.update_tables_batch(tables, k, parents)
        cpd_sets = [
            [
                TabularCPD._trusted(name, tables[name][j], parents.get(name, ()))
                for name in inputs
            ]
            for j in range(k)
        ]
        _assert_installed_equal_reference(jt, tables, cpd_sets)

    def test_generic_network_keeps_the_fold_order(self):
        # Fixed CPDs that are not 0/1 multiply in fold order with the
        # swapped one.
        jt = JunctionTree.from_network(sprinkler_bn())
        cpd_sets = [[TabularCPD.prior("cloudy", [p, 1.0 - p])] for p in (0.2, 0.7, 0.9)]
        tables = {"cloudy": np.stack([s[0].factor.values for s in cpd_sets])}
        jt.set_evidence({"cloudy": 0, "wet": 1})
        jt.update_tables_batch(tables, len(cpd_sets))
        _assert_installed_equal_reference(jt, tables, cpd_sets)

    def test_duplicate_rows_share_one_engine_row(self):
        circuit = examples.c17()
        est = SwitchingActivityEstimator(circuit).compile()
        jt = est.junction_tree
        a, b = IndependentInputs(0.3), IndependentInputs(0.6)
        stack = InputStack([a, b, a, a, b], circuit.inputs)
        tables, parents = stack.tables(circuit.inputs)
        jt.update_tables_batch(tables, len(stack), parents)
        assert jt._engine.batch_size == 2
        assert jt._batch_scatter.tolist() == [0, 1, 0, 0, 1]
        cpd_sets = [m.input_cpds_trusted(circuit.inputs) for m in stack.models]
        _assert_installed_equal_reference(jt, tables, cpd_sets)


class TestPlanCache:
    def test_update_inputs_keeps_the_input_plans(self):
        circuit = suite.load_circuit("alu")
        est = SwitchingActivityEstimator(circuit).compile()
        est.estimate()
        plans = dict(est.junction_tree._plans)
        assert plans
        est.update_inputs(IndependentInputs(0.8))
        est.estimate()
        for key, plan in plans.items():
            assert est.junction_tree._plans[key] is plan

    def test_replaced_fixed_member_rebuilds_the_plan(self):
        jt = JunctionTree.from_network(sprinkler_bn())
        cpd_sets = [[TabularCPD.prior("cloudy", [p, 1.0 - p])] for p in (0.2, 0.7)]
        tables = {"cloudy": np.stack([s[0].factor.values for s in cpd_sets])}
        jt.update_tables_batch(tables, len(cpd_sets))
        idx = jt._cpd_assignment["cloudy"]
        fixed = next(n for n in jt._cpd_members[idx] if n != "cloudy")
        old = jt._bn.cpd(fixed)
        jt.update_cpds(
            [TabularCPD(fixed, 2, old.factor.values[..., ::-1], old.parents)]
        )
        assert (idx, frozenset({"cloudy"})) not in jt._plans
        jt.update_tables_batch(tables, len(cpd_sets))
        _assert_installed_equal_reference(jt, tables, cpd_sets)


class _OnlyCpds(InputModel):
    """A third-party model: CPDs only, no array builder."""

    def __init__(self, p):
        self.p = p

    def input_cpds(self, input_names):
        dist = independent_transition_distribution(self.p)
        return [TabularCPD.prior(name, dist) for name in input_names]

    def marginal_distribution(self, name):
        return independent_transition_distribution(self.p)

    def sample_pairs(self, input_names, n_pairs, rng):
        raise NotImplementedError


class TestThirdPartyModels:
    @pytest.mark.parametrize(
        "name,backend", [("c17", "junction-tree"), ("pcler8", "segmented")]
    )
    def test_model_with_only_input_cpds_answers(self, name, backend):
        circuit = suite.load_circuit(name)
        model = compile_model(circuit, backend=backend, cache=None)
        got = model.query_many([_OnlyCpds(0.3), _OnlyCpds(0.7)])
        expect = model.query_many([IndependentInputs(0.3), IndependentInputs(0.7)])
        for g, e in zip(got, expect):
            for line in circuit.lines:
                assert np.array_equal(g.distributions[line], e.distributions[line])

    def test_mismatched_chain_structure_is_rejected(self):
        circuit = examples.c17()
        inputs = list(circuit.inputs)
        est = SwitchingActivityEstimator(circuit).compile()
        with pytest.raises(ValueError, match="parents"):
            est.estimate_many([CorrelatedGroupInputs([inputs[:2]], rho=0.5)])
        with pytest.raises(ValueError, match="correlation structure"):
            InputStack(
                [IndependentInputs(0.5), CorrelatedGroupInputs([inputs[:2]], rho=0.5)],
                inputs,
            ).tables(inputs)


class TestNoisyReplacement:
    def test_noisy_gate_stack_invalidates_and_rebuilds_plans(self):
        circuit = suite.load_circuit("c17")
        est = SwitchingActivityEstimator(circuit, kernel="sparse").compile()
        jt = est.junction_tree
        est.estimate()
        schedule = jt._schedule
        gate = next(iter(jt._mask_supports))
        old = jt._bn.cpd(gate).factor.values
        noisy = np.stack([old, 0.9 * old + 0.1 / N_STATES])
        jt.update_tables_batch({gate: noisy}, 2, {gate: jt._bn.cpd(gate).parents})
        assert jt._schedule is not schedule
        assert gate in jt._mask_exclude and gate not in jt._mask_supports
        idx = jt._cpd_assignment[gate]
        plan = jt._plans[(idx, frozenset({gate}))]
        assert plan.size == jt._schedule.work_sizes[idx]
        batched = jt.marginals_batch(list(circuit.lines))
        for k in range(2):
            oracle = JunctionTree.from_network(jt._bn, kernel="dense")
            oracle.update_cpds(
                [TabularCPD(gate, N_STATES, noisy[k], jt._bn.cpd(gate).parents)]
            )
            for line in circuit.lines:
                np.testing.assert_allclose(
                    batched[line][k], oracle.marginal(line), atol=1e-12, rtol=0
                )


class TestPassSizes:
    def test_c432s_odd_passes_equal_single_queries(self, monkeypatch):
        """Batched-equals-single holds bitwise at odd pass sizes: 33
        rows and 11 rows."""
        from repro.bayesian import propagation

        circuit = suite.load_circuit("c432s")
        model = compile_model(circuit, cache=None)
        monkeypatch.setattr(
            propagation, "MEMORY_BUDGET_BYTES", 33 * model.row_bytes
        )
        assert model.rows_per_pass == 33
        rng = np.random.default_rng(11)
        models = [
            IndependentInputs(dict(zip(circuit.inputs, rng.uniform(0.05, 0.95, len(circuit.inputs)))))
            for _ in range(66)
        ]
        checks = (0, 32, 33, 65)
        many = model.query_many(models)
        monkeypatch.setattr(
            propagation, "MEMORY_BUDGET_BYTES", 11 * model.row_bytes
        )
        assert model.rows_per_pass == 11
        eleven = model.query_many(models[:33])
        for k in checks:
            one = model.query_many([models[k]])[0]
            for line in circuit.lines:
                assert np.array_equal(many[k].distributions[line], one.distributions[line])
                if k < 33:
                    assert np.array_equal(
                        eleven[k].distributions[line], one.distributions[line]
                    )


class TestNoPerScenarioObjects:
    @pytest.mark.parametrize("name", ["c17", "c432s"])
    def test_query_many_builds_no_factor_cpd_or_boundary_model(self, name, monkeypatch):
        """A sweep of in-repo models builds no ``Factor``, no
        ``TabularCPD`` and no boundary input model (c17 is one tree,
        c432s is segmented)."""
        from repro.bayesian.factor import Factor
        from repro.core.segments import boundary

        circuit = suite.load_circuit(name)
        model = compile_model(circuit, refine=1, cache=None)
        models = _models(circuit) * 3

        def forbidden(*args, **kwargs):
            raise AssertionError("per-scenario object built on the sweep path")

        for owner, attr in (
            (Factor, "__init__"),
            (Factor, "_unsafe"),
            (TabularCPD, "__init__"),
            (TabularCPD, "_trusted"),
            (boundary.FixedMarginalInputs, "__init__"),
            (boundary.TreeBoundaryInputs, "__init__"),
            (boundary.SegmentInputs, "__init__"),
        ):
            monkeypatch.setattr(owner, attr, forbidden)
        results = model.query_many(models)
        assert len(results) == len(models)
