"""Tests for the compiled propagation engine.

The engine must agree with variable elimination, the independent exact
engine (evidence included), and with fresh recompilation after
dirty-clique updates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesian import BayesianNetwork, JunctionTree, TabularCPD
from repro.bayesian.elimination import posterior_marginals, variable_elimination
from repro.bayesian.propagation import PropagationSchedule

from tests.bayesian.util import random_bn, sprinkler_bn


class TestScheduleStructure:
    def test_messages_exist_both_directions(self):
        jt = JunctionTree.from_network(sprinkler_bn())
        schedule = PropagationSchedule(
            jt.cliques, jt.tree.edges, jt._cardinalities
        )
        for u, v in jt.tree.edges:
            assert (u, v) in schedule.messages
            assert (v, u) in schedule.messages
            assert schedule.messages[(u, v)].sep_vars == tuple(
                sorted(jt.cliques[u] & jt.cliques[v])
            )

    def test_canonical_orders_are_sorted(self):
        jt = JunctionTree.from_network(sprinkler_bn())
        schedule = PropagationSchedule(
            jt.cliques, jt.tree.edges, jt._cardinalities
        )
        for order in schedule.orders:
            assert list(order) == sorted(order)

    def test_every_variable_has_a_home(self):
        bn = random_bn(8, seed=3, max_parents=3)
        jt = JunctionTree.from_network(bn)
        schedule = PropagationSchedule(
            jt.cliques, jt.tree.edges, jt._cardinalities
        )
        for node in bn.nodes:
            idx, axis = schedule.variable_axis[node]
            assert schedule.orders[idx][axis] == node


class TestEngineMatchesReference:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 400))
    def test_marginals_match_elimination(self, seed):
        bn = random_bn(9, seed=seed, max_parents=3)
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        expected = posterior_marginals(bn)
        for node in bn.nodes:
            assert np.allclose(
                jt.marginal(node), expected[node].values, atol=1e-12
            )

    def test_batched_marginals_match_single_reads(self):
        bn = random_bn(10, seed=7, max_parents=3)
        jt = JunctionTree.from_network(bn)
        batched = jt.marginals(list(bn.nodes))
        for node in bn.nodes:
            assert np.allclose(batched[node], jt.marginal(node), atol=1e-15)

    def test_evidence_matches_elimination(self):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        evidence = {"wet": 1}
        jt.set_evidence(evidence)
        for node in ("cloudy", "rain", "sprinkler"):
            expected = variable_elimination(bn, [node], evidence).values
            assert np.allclose(jt.marginal(node), expected, atol=1e-12)
        joint = bn.joint_factor().marginal_onto(["wet"])
        assert jt.probability_of_evidence() == pytest.approx(
            float(joint.values[1]), abs=1e-12
        )

    def test_separators_agree_after_calibration(self):
        bn = random_bn(8, seed=11, max_parents=3)
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        assert jt.check_calibration()


class TestDirtyRepropagation:
    def test_update_cpds_matches_fresh_compile(self):
        """A CPD sweep over a calibrated tree must track a fresh
        compile to 1e-12 at every step."""
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        for p in np.linspace(0.05, 0.95, 9):
            jt.update_cpds([TabularCPD.prior("cloudy", [1 - p, p])])
            jt.calibrate()
            fresh_bn = BayesianNetwork()
            fresh_bn.add_cpd(TabularCPD.prior("cloudy", [1 - p, p]))
            for node in ("sprinkler", "rain", "wet"):
                fresh_bn.add_cpd(sprinkler_bn().cpd(node))
            fresh = JunctionTree.from_network(fresh_bn)
            fresh.calibrate()
            for node in fresh_bn.nodes:
                assert np.allclose(
                    jt.marginal(node), fresh.marginal(node), atol=1e-12
                )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200))
    def test_random_network_sweeps(self, seed):
        bn = random_bn(8, seed=seed, max_parents=3)
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        roots = [n for n in bn.nodes if not bn.parents(n)]
        rng = np.random.default_rng(seed)
        for _ in range(4):
            new_cpds = []
            for root in roots:
                k = bn.cardinality(root)
                probs = rng.dirichlet(np.ones(k))
                new_cpds.append(TabularCPD.prior(root, probs))
            jt.update_cpds(new_cpds)
            jt.calibrate()
            fresh = JunctionTree.from_network(bn)
            fresh.calibrate()
            for node in bn.nodes:
                assert np.allclose(
                    jt.marginal(node), fresh.marginal(node), atol=1e-12
                )

    def test_zero_probability_resurrection(self):
        """Moving a prior off an exact zero must rebuild the affected
        beliefs (the zero slices cannot be rescaled)."""
        bn = BayesianNetwork()
        bn.add_cpd(TabularCPD.prior("a", [1.0, 0.0]))
        bn.add_cpd(TabularCPD.deterministic("b", 2, ["a"], [2], lambda a: a))
        bn.add_cpd(TabularCPD.deterministic("c", 2, ["b"], [2], lambda b: 1 - b))
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        assert jt.marginal("c") == pytest.approx([0.0, 1.0])
        jt.update_cpds([TabularCPD.prior("a", [0.25, 0.75])])
        jt.calibrate()
        assert jt.marginal("b") == pytest.approx([0.25, 0.75])
        assert jt.marginal("c") == pytest.approx([0.75, 0.25])

    def test_evidence_cycle_dirty_tracking(self):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()  # engine built; subsequent updates take the dirty path
        jt.set_evidence({"wet": 1})
        expected = bn.brute_force_marginal("rain", {"wet": 1})
        assert np.allclose(jt.marginal("rain"), expected, atol=1e-10)
        jt.set_evidence({"cloudy": 0})
        expected = bn.brute_force_marginal("rain", {"wet": 1, "cloudy": 0})
        assert np.allclose(jt.marginal("rain"), expected, atol=1e-10)
        jt.clear_evidence()
        assert np.allclose(jt.marginal("rain"), [0.5, 0.5], atol=1e-10)

    def test_clean_propagate_is_noop(self):
        bn = random_bn(8, seed=5, max_parents=3)
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        first = {n: jt.marginal(n).copy() for n in bn.nodes}
        jt.calibrate()  # nothing dirty: must not move any number
        for node in bn.nodes:
            assert np.array_equal(jt.marginal(node), first[node])
