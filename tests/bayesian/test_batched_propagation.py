"""Tests for K-row propagation against one-row engines.

The engine's contract is *bitwise* agreement between row ``k`` of a
K-row propagation and a one-row (K=1) propagation over scenario
``k``'s potentials: every kernel (planned collect reduction,
masked-divide distribute, marginal reduction, normalization) operates
elementwise or reduces each row with the same arithmetic whatever the
row count.  These tests pin that contract at the engine level, plus the
per-row failure modes (per-scenario zero beliefs).
"""

import numpy as np
import pytest

from repro.bayesian import JunctionTree
from repro.bayesian.propagation import PropagationEngine
from repro.errors import ZeroBeliefError

from tests.bayesian.util import (
    random_bn,
    reference_potential,
    sprinkler_bn,
    storage_layout,
)


def _batched_engine_for(jt: JunctionTree, stacks, k=None):
    """A K-row engine over ``jt``'s schedule with per-clique stacks."""
    schedule = jt._ensure_schedule()
    if k is None:
        k = len(next(iter(stacks.values())))
    engine = PropagationEngine(schedule, batch_size=k)
    for idx in range(len(jt.cliques)):
        if idx in stacks:
            stack = stacks[idx]
        else:
            base = reference_potential(jt, idx)
            stack = np.broadcast_to(base, (k,) + base.shape)
        engine.potential_rows(idx)[...] = storage_layout(jt, idx, stack)
    return engine


def _single_run(jt: JunctionTree, overrides):
    """Fresh one-row engine over the same schedule with ``overrides``."""
    schedule = jt._ensure_schedule()
    engine = PropagationEngine(schedule, batch_size=1)
    for idx in range(len(jt.cliques)):
        if idx in overrides:
            values = overrides[idx]
        else:
            values = reference_potential(jt, idx)
        engine.potential_rows(idx)[...] = storage_layout(jt, idx, np.asarray(values)[None])
    engine.propagate()
    return engine


class TestBatchedBitwise:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_batched_rows_match_independent_single_runs(self, k):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        schedule = jt._ensure_schedule()
        # Vary the clique holding "cloudy" per scenario by scaling the
        # cloudy axis of its CPD-product table.
        idx, axis = schedule.variable_axis["cloudy"]
        base = reference_potential(jt, idx)
        shape = [1] * base.ndim
        shape[axis] = base.shape[axis]
        tables = []
        for i in range(k):
            p = 0.1 + 0.8 * i / max(k - 1, 1)
            scale = np.array([2.0 * p, 2.0 * (1.0 - p)]).reshape(shape)
            tables.append(base * scale)
        stack = np.stack(tables)

        engine = _batched_engine_for(jt, {idx: stack})
        engine.propagate()
        nodes = list(bn.nodes)
        batched = engine.marginals(nodes)

        for i in range(k):
            single = _single_run(jt, {idx: tables[i]})
            expect = single.marginals(nodes)
            for node in nodes:
                assert np.array_equal(batched[node][i], expect[node][0]), (
                    f"scenario {i}, node {node}"
                )

    def test_random_network_k1_matches_single(self):
        bn = random_bn(9, seed=21, max_parents=3)
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        engine = _batched_engine_for(jt, {}, k=1)
        engine.propagate()
        nodes = list(bn.nodes)
        batched = engine.marginals(nodes)
        single = _single_run(jt, {})
        expect = single.marginals(nodes)
        for node in nodes:
            assert batched[node].shape == expect[node].shape
            assert np.array_equal(batched[node], expect[node])

    def test_scenarios_propagated_counter_scales_with_batch(self):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        engine = _batched_engine_for(jt, {}, k=4)
        engine.propagate()
        assert engine.counters.scenarios_propagated == 4
        single = _single_run(jt, {})
        assert engine.counters.flops == 4 * single.counters.flops


class TestZeroBeliefIsolation:
    def _engine_with_zero_scenario(self):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        schedule = jt._ensure_schedule()
        idx, _ = schedule.variable_axis["cloudy"]
        base = reference_potential(jt, idx)
        stack = np.stack([base, np.zeros_like(base), base * 0.5])
        engine = _batched_engine_for(jt, {idx: stack})
        engine.propagate()
        return jt, engine, idx

    def test_strict_mode_names_the_offending_scenarios(self):
        _, engine, _ = self._engine_with_zero_scenario()
        with pytest.raises(ZeroBeliefError) as excinfo:
            engine.marginals(["cloudy"])
        assert excinfo.value.batch_indices == (1,)

    def test_skip_zero_isolates_batch_mates(self):
        jt, engine, idx = self._engine_with_zero_scenario()
        out = engine.marginals(["cloudy", "wet"], skip_zero=True)
        assert np.isnan(out["cloudy"][1]).all()
        assert np.isnan(out["wet"][1]).all()
        # Unaffected scenarios are bitwise-identical to solo runs.
        base = reference_potential(jt, idx)
        for i, table in ((0, base), (2, base * 0.5)):
            single = _single_run(jt, {idx: table})
            expect = single.marginals(["cloudy", "wet"])
            assert np.array_equal(out["cloudy"][i], expect["cloudy"][0])
            assert np.array_equal(out["wet"][i], expect["wet"][0])
