"""Duplicate collapse at batch install: planner units and the bitwise contract.

``JunctionTree.update_tables_batch`` propagates one engine row per
distinct set of installed CPD tables and gathers rows back to K.  The
contract under test: a sweep with duplicates is bitwise-equal to a
*fresh* estimator given only the distinct scenarios, scattered back by
hand.
"""

import numpy as np
import pytest

from repro.bayesian import JunctionTree, TabularCPD, propagation
from repro.bayesian.junction import unique_rows
from repro.circuits import examples, generate, suite
from repro.core import (
    CorrelatedGroupInputs,
    IndependentInputs,
    SegmentedEstimator,
    SwitchingActivityEstimator,
)
from repro.core.backend import compile_model
from repro.core.backend import estimate_many as facade_estimate_many
from repro.errors import ZeroBeliefError

from tests.bayesian.util import sprinkler_bn


class TestUniqueRows:
    def test_unique_rows_collapses_duplicates(self):
        rows = np.array([[2.0, 0.5], [1.0, 0.5], [2.0, 0.5], [0.0, 1.0], [1.0, 0.5]])
        reps, scatter = unique_rows(rows)
        assert reps.tolist() == [0, 1, 3]
        assert scatter.tolist() == [0, 1, 0, 2, 1]

    def test_unique_rows_all_unique(self):
        reps, scatter = unique_rows(np.array([[3.0], [2.0], [1.0]]))
        assert reps.tolist() == [0, 1, 2]
        assert scatter.tolist() == [0, 1, 2]

    def test_unique_rows_compares_bytes(self):
        # -0.0 == 0.0 numerically, but the rows differ bytewise; equal
        # NaN payloads match.
        rows = np.array([[0.0, np.nan], [-0.0, np.nan], [0.0, np.nan]])
        reps, scatter = unique_rows(rows)
        assert reps.tolist() == [0, 1]
        assert scatter.tolist() == [0, 1, 0]


def _one_input_sweep(circuit, k, repeats_each=1, hot=None):
    """Only one input's p_one varies over ``k`` operating points; each
    point appears ``repeats_each`` times, interleaved (0, 1, .., 0, 1, ..)
    so duplicates are never adjacent."""
    hot = hot if hot is not None else list(circuit.inputs)[0]
    points = [
        IndependentInputs({hot: 0.1 + 0.8 * (i / max(1, k - 1))})
        for i in range(k)
    ]
    return [points[i] for _ in range(repeats_each) for i in range(k)], points


def _scattered_oracle(make_estimator, sweep, distinct):
    """Fresh estimator over ``distinct`` only, scattered onto ``sweep``."""
    rows = make_estimator().estimate_many(distinct)
    return [rows[distinct.index(model)] for model in sweep]


def _assert_bitwise(got, expected, lines):
    assert len(got) == len(expected)
    for k, (g, e) in enumerate(zip(got, expected)):
        for line in lines:
            assert np.array_equal(g.distributions[line], e.distributions[line]), (
                f"scenario {k} line {line}: deduped {g.distributions[line]} "
                f"!= oracle {e.distributions[line]}"
            )


class TestSingleBN:
    def test_duplicates_match_distinct_oracle(self):
        circuit = examples.c17()
        sweep, distinct = _one_input_sweep(circuit, 4, repeats_each=3)
        make = lambda: SwitchingActivityEstimator(circuit)  # noqa: E731
        got = make().estimate_many(sweep)
        _assert_bitwise(
            got, _scattered_oracle(make, sweep, distinct), circuit.lines
        )

    def test_correlated_groups_with_repeated_rho(self):
        # Correlated chains add input-to-input edges, so the estimator
        # is compiled with that structure; all swept models share it.
        circuit = examples.c17()
        names = list(circuit.inputs)
        distinct = [
            CorrelatedGroupInputs(
                [(names[0], names[1])], rho=rho, base=IndependentInputs(0.4)
            )
            for rho in (0.2, 0.5, 0.8)
        ]
        sweep = [distinct[i] for i in (0, 0, 1, 2, 1, 0)]
        make = lambda: SwitchingActivityEstimator(  # noqa: E731
            circuit, input_model=distinct[0]
        )
        got = make().estimate_many(sweep)
        _assert_bitwise(
            got, _scattered_oracle(make, sweep, distinct), circuit.lines
        )

    def test_engine_propagates_unique_rows_only(self):
        circuit = examples.c17()
        sweep, _ = _one_input_sweep(circuit, 4, repeats_each=2)
        assert len(sweep) == 8
        estimator = SwitchingActivityEstimator(circuit)
        estimator.estimate_many(sweep)
        assert estimator.propagation_counters().scenarios_propagated == 4

    def test_single_query_state_survives_dedup_sweep(self):
        circuit = examples.c17()
        estimator = SwitchingActivityEstimator(circuit)
        estimator.update_inputs(IndependentInputs(0.37))
        before = estimator.estimate()
        estimator.estimate_many(_one_input_sweep(circuit, 4, repeats_each=2)[0])
        after = estimator.estimate()
        for line in circuit.lines:
            assert np.array_equal(
                after.distributions[line], before.distributions[line]
            )


class TestSegmented:
    @pytest.mark.parametrize(
        "make_circuit,gates",
        [
            (lambda: suite.load_circuit("pcler8"), 8),
            (lambda: generate.random_layered_circuit(8, 40, seed=7), 10),
        ],
        ids=["pcler8", "layered"],
    )
    def test_duplicates_match_distinct_oracle(self, make_circuit, gates):
        circuit = make_circuit()
        sweep, distinct = _one_input_sweep(circuit, 3, repeats_each=2)
        make = lambda: SegmentedEstimator(  # noqa: E731
            circuit, max_gates_per_segment=gates
        )
        estimator = make()
        got = estimator.estimate_many(sweep)
        assert estimator.num_segments > 1
        _assert_bitwise(
            got, _scattered_oracle(make, sweep, distinct), circuit.lines
        )

    def test_refined_batch_matches_distinct_oracle(self):
        circuit = generate.random_layered_circuit(8, 40, seed=7)
        sweep, distinct = _one_input_sweep(circuit, 3, repeats_each=2)
        make = lambda: SegmentedEstimator(  # noqa: E731
            circuit, max_gates_per_segment=10, refine=1
        )
        got = make().estimate_many(sweep)
        _assert_bitwise(
            got, _scattered_oracle(make, sweep, distinct), circuit.lines
        )

    def test_segments_outside_the_change_cone_propagate_one_row(self):
        circuit = suite.load_circuit("pcler8")
        estimator = SegmentedEstimator(circuit, max_gates_per_segment=8)
        estimator.compile()
        cones = [
            {src for line in node.segment.lines for src in circuit.fanin_cone(line)}
            for node in estimator.graph.nodes
        ]
        # The input reaching the fewest (but some) segments leaves the
        # most outside.
        reach = {name: sum(name in c for c in cones) for name in circuit.inputs}
        hot = min((n for n in reach if reach[n]), key=reach.__getitem__)
        sweep, _ = _one_input_sweep(circuit, 4, repeats_each=2, hot=hot)
        estimator.estimate_many(sweep)
        rows = [
            node.estimator.propagation_counters().scenarios_propagated
            for node in estimator.graph.nodes
        ]
        outside = [r for r, cone in zip(rows, cones) if hot not in cone]
        inside = [r for r, cone in zip(rows, cones) if hot in cone]
        assert outside and inside
        assert outside == [1] * len(outside)
        assert max(inside) == 4


class TestFacade:
    def test_default_estimate_many_collapses_duplicates(self):
        circuit = suite.load_circuit("pcler8")
        sweep, distinct = _one_input_sweep(circuit, 3, repeats_each=2)
        options = dict(backend="segmented", cache=None, max_gates_per_segment=8)
        got = facade_estimate_many(circuit, sweep, **options)
        rows = facade_estimate_many(circuit, distinct, **options)
        expected = [rows[distinct.index(model)] for model in sweep]
        _assert_bitwise(got, expected, circuit.lines)


class TestDedupAcrossChunks:
    """A call that does not fit the memory budget collapses duplicates
    over the whole call before splitting, so copies that land in
    different passes are still propagated once."""

    @pytest.mark.parametrize(
        "make_circuit,backend,options",
        [
            (examples.c17, "junction-tree", {}),
            (lambda: suite.load_circuit("pcler8"), "segmented",
             {"max_gates_per_segment": 8}),
        ],
        ids=["c17-junction-tree", "pcler8-segmented"],
    )
    def test_duplicates_straddling_chunks_match_distinct_oracle(
        self, monkeypatch, make_circuit, backend, options
    ):
        circuit = make_circuit()
        # Copies of each point sit 4 apart: any caller-order split into
        # two-row passes would put them in different passes.
        sweep, distinct = _one_input_sweep(circuit, 4, repeats_each=3)
        model = compile_model(circuit, backend=backend, cache=None, **options)
        monkeypatch.setattr(
            propagation, "MEMORY_BUDGET_BYTES", 2 * model.row_bytes
        )
        got = model.query_many(sweep)
        monkeypatch.undo()
        oracle = compile_model(circuit, backend=backend, cache=None, **options)
        rows = oracle.query_many(distinct)
        expected = [rows[distinct.index(m)] for m in sweep]
        _assert_bitwise(got, expected, circuit.lines)
        trees = (
            [node.estimator for node in model.estimator.graph.nodes]
            if backend == "segmented"
            else [model.estimator]
        )
        propagated = [t.propagation_counters().scenarios_propagated for t in trees]
        assert max(propagated) == len(distinct) < len(sweep)


def _sprinkler_cpds(p):
    """sprinkler_bn root CPD sets; ``p=None`` puts zero mass on cloudy."""
    if p is None:
        return [TabularCPD._trusted("cloudy", np.zeros(2))]
    return [TabularCPD.prior("cloudy", [p, 1.0 - p])]


class _ZeroMassInputs(IndependentInputs):
    """A degenerate scenario: the first input's prior has zero mass."""

    def input_cpds_trusted(self, input_names):
        cpds = super().input_cpds_trusted(input_names)
        first = cpds[0]
        cpds[0] = TabularCPD._trusted(
            first.variable, np.zeros_like(first.factor.values), first.parents
        )
        return cpds


class TestZeroBeliefAfterDedup:
    def test_every_scenario_sharing_a_zero_row_is_reported(self):
        jt = JunctionTree.from_network(sprinkler_bn())
        jt.update_cpds_batch(
            [_sprinkler_cpds(p) for p in (0.3, None, 0.6, None, 0.3)]
        )
        with pytest.raises(ZeroBeliefError) as excinfo:
            jt.marginals_batch(["cloudy"])
        assert excinfo.value.batch_indices == (1, 3)
        assert "[1, 3]" in str(excinfo.value)

    def test_skip_zero_nan_fills_every_sharing_scenario(self):
        jt = JunctionTree.from_network(sprinkler_bn())
        jt.update_cpds_batch(
            [_sprinkler_cpds(p) for p in (0.3, None, 0.6, None, 0.3)]
        )
        out = jt.marginals_batch(["cloudy", "wet"], skip_zero=True)
        for row in (1, 3):
            assert np.isnan(out["wet"][row]).all()
        for row in (0, 2, 4):
            assert np.isfinite(out["wet"][row]).all()
        assert np.array_equal(out["wet"][0], out["wet"][4])

    def test_query_many_reports_both_caller_indices(self):
        model = compile_model(examples.c17(), backend="junction-tree")
        scenarios = [
            IndependentInputs(0.3),
            _ZeroMassInputs(0.5),
            IndependentInputs(0.6),
            _ZeroMassInputs(0.5),
        ]
        with pytest.raises(ZeroBeliefError) as excinfo:
            model.query_many(scenarios)
        assert excinfo.value.batch_indices == (1, 3)
