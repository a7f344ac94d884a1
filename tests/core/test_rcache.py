"""Result cache: canonical scenario digests, LRU semantics, facade reuse.

The digest contract: two scenario specs that induce the same per-input
CPDs must collide regardless of surface form (dict key order, float
spellings that decode to the same double, ``-0.0`` vs ``0.0``, the
order correlated groups were listed in), and any perturbed probability
must not.  The cache contract: a hit replays marginals bitwise-equal
to the propagation that filled it, insulated from mutation on either
side.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.bayesian.cpd import TabularCPD
from repro.circuits import suite
from repro.core.backend import estimate, estimate_many
from repro.core.inputs import CorrelatedGroupInputs, IndependentInputs
from repro.core.rcache import (
    ResultCache,
    _cpd_digest,
    input_cpd_signatures,
    scenario_digest,
)


@pytest.fixture(scope="module")
def c17():
    return suite.load_circuit("c17")


class TestScenarioDigest:
    def test_deterministic(self, c17):
        model = IndependentInputs(0.3)
        assert scenario_digest(c17, model) == scenario_digest(c17, model)

    def test_dict_key_order_is_canonical(self, c17):
        names = list(c17.inputs)
        forward = {name: 0.1 + 0.15 * i for i, name in enumerate(names)}
        backward = dict(reversed(list(forward.items())))
        assert list(forward) != list(backward)  # genuinely different order
        assert scenario_digest(c17, IndependentInputs(forward)) == \
            scenario_digest(c17, IndependentInputs(backward))

    def test_float_repr_aliases_collide(self, c17):
        # 0.1 + 0.2 and the literal 0.30000000000000004 are the same
        # double; 0.3 is a different double.
        alias_a = IndependentInputs(0.1 + 0.2)
        alias_b = IndependentInputs(0.30000000000000004)
        other = IndependentInputs(0.3)
        assert scenario_digest(c17, alias_a) == scenario_digest(c17, alias_b)
        assert scenario_digest(c17, alias_a) != scenario_digest(c17, other)

    def test_negative_zero_collides_with_zero(self):
        plus = TabularCPD.prior("a", np.array([0.5, 0.5, 0.0, 0.0]))
        minus = TabularCPD.prior("a", np.array([0.5, 0.5, -0.0, -0.0]))
        # Distinct bit patterns, equal numbers, identical propagation.
        assert _cpd_digest(plus) == _cpd_digest(minus)

    def test_correlated_group_listing_order_collides(self, c17):
        names = list(c17.inputs)
        g1, g2 = (names[0], names[1]), (names[2], names[3])
        listed = CorrelatedGroupInputs([g1, g2], rho=0.4)
        reversed_listing = CorrelatedGroupInputs([g2, g1], rho=0.4)
        assert scenario_digest(c17, listed) == \
            scenario_digest(c17, reversed_listing)

    def test_member_order_within_group_differs(self, c17):
        # (a, b) and (b, a) are different chain models: the copy edge
        # points the other way, so the induced CPDs differ.
        names = list(c17.inputs)
        chain = CorrelatedGroupInputs([(names[0], names[1])], rho=0.4)
        flipped = CorrelatedGroupInputs([(names[1], names[0])], rho=0.4)
        assert scenario_digest(c17, chain) != scenario_digest(c17, flipped)

    def test_perturbed_marginal_changes_digest(self, c17):
        base = IndependentInputs(0.3)
        nudged = IndependentInputs(0.3 + 1e-12)
        assert scenario_digest(c17, base) != scenario_digest(c17, nudged)

    def test_signatures_expose_parents(self, c17):
        names = list(c17.inputs)
        model = CorrelatedGroupInputs([(names[0], names[1])], rho=0.4)
        signatures = input_cpd_signatures(c17, model)
        assert signatures[names[1]][1] == (names[0],)
        assert signatures[names[0]][1] == ()


class TestResultCacheLRU:
    @staticmethod
    def _estimate(c17, p):
        return estimate(c17, IndependentInputs(p), backend="junction-tree",
                        cache=None)

    def test_round_trip_is_bitwise(self, c17):
        cache = ResultCache(max_entries=4)
        result = self._estimate(c17, 0.3)
        cache.put(("fp", "digest"), result)
        payload = cache.get(("fp", "digest"))
        assert payload is not None
        for line, dist in result.distributions.items():
            assert np.array_equal(payload["distributions"][line], dist)

    def test_copies_insulate_both_sides(self, c17):
        cache = ResultCache(max_entries=4)
        result = self._estimate(c17, 0.3)
        line = next(iter(result.distributions))
        expect = result.distributions[line].copy()
        cache.put(("fp", "digest"), result)
        result.distributions[line][:] = -1.0  # producer mutates after put
        first = cache.get(("fp", "digest"))
        first["distributions"][line][:] = -2.0  # consumer mutates a hit
        second = cache.get(("fp", "digest"))
        assert np.array_equal(second["distributions"][line], expect)

    def test_lru_evicts_least_recently_used(self, c17):
        cache = ResultCache(max_entries=2)
        result = self._estimate(c17, 0.3)
        cache.put(("fp", "a"), result)
        cache.put(("fp", "b"), result)
        assert cache.get(("fp", "a")) is not None  # refresh "a"
        cache.put(("fp", "c"), result)  # over capacity: "b" goes
        assert cache.get(("fp", "b")) is None
        assert cache.get(("fp", "a")) is not None
        assert cache.get(("fp", "c")) is not None
        assert cache.evictions == 1

    def test_stats_and_byte_accounting(self, c17):
        cache = ResultCache(max_entries=1)
        result = self._estimate(c17, 0.3)
        lines = len(result.distributions)
        cache.put(("fp", "a"), result)
        size = cache.bytes
        # One (n, 4) float64 table, one (n,) activity array and the
        # line tuple -- 48 B per line -- plus fixed object headers.
        assert 48 * lines < size <= 48 * lines + 512
        cache.put(("fp", "b"), result)  # evicts "a", same size
        assert cache.bytes == size
        cache.get(("fp", "b"))
        cache.get(("fp", "missing"))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["hit_rate"] == 0.5

    def test_bytes_match_traced_memory(self):
        """``bytes`` counts what the entries hold: storing N entries
        allocates about ``bytes`` (plus the LRU's own index)."""
        comp = suite.load_circuit("comp")
        result = estimate(comp, IndependentInputs(0.3), backend="auto",
                          cache=None)
        count = 200
        keys = [("fp", f"digest-{i}") for i in range(count)]
        cache = ResultCache(max_entries=count)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for key in keys:
                cache.put(key, result)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_entry = cache.bytes / count
        assert per_entry <= 48 * len(result.distributions) + 512
        assert 0.95 * per_entry <= traced / count <= per_entry + 256

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestCompactRoundTrip:
    """A hit rebuilt from the compact table equals the fresh estimate:
    arrays bitwise, activity floats exactly."""

    @pytest.mark.parametrize("name", ["c17", "comp", "c432s"])
    def test_get_matches_fresh_estimate(self, name):
        circuit = suite.load_circuit(name)
        fresh = estimate(circuit, IndependentInputs(0.3), backend="auto",
                         cache=None)
        cache = ResultCache()
        cache.put(("fp", "d"), fresh)
        full = cache.get(("fp", "d"))
        light = cache.get(("fp", "d"), need_arrays=False)
        assert "distributions" not in light
        assert list(full["distributions"]) == list(fresh.distributions)
        for line, dist in fresh.distributions.items():
            assert np.array_equal(full["distributions"][line], dist)
            assert full["distributions"][line].dtype == dist.dtype
        for payload in (full, light):
            assert list(payload["activities"]) == list(fresh.activities)
            assert payload["activities"] == fresh.activities
            assert payload["mean_activity"] == fresh.mean_activity()
            assert payload["method"] == fresh.method
            assert payload["segments"] == fresh.segments

    def test_facade_replay_is_bitwise(self):
        circuit = suite.load_circuit("comp")
        cache = ResultCache()
        first = estimate(circuit, IndependentInputs(0.3), backend="auto",
                         cache=None, result_cache=cache)
        again = estimate(circuit, IndependentInputs(0.3), backend="auto",
                         cache=None, result_cache=cache)
        assert again.result_cache_hit is True
        assert again.activities == first.activities
        assert again.mean_activity() == first.mean_activity()
        for line, dist in first.distributions.items():
            assert np.array_equal(again.distributions[line], dist)


class TestFacadeResultCache:
    def test_estimate_replays_bitwise(self, c17):
        cache = ResultCache()
        model = IndependentInputs(0.3)
        first = estimate(c17, model, backend="junction-tree", cache=None,
                         result_cache=cache)
        second = estimate(c17, IndependentInputs(0.3), backend="junction-tree",
                          cache=None, result_cache=cache)
        assert first.result_cache_hit is False
        assert second.result_cache_hit is True
        for line, dist in first.distributions.items():
            assert np.array_equal(second.distributions[line], dist)

    def test_no_cache_leaves_flag_unset(self, c17):
        result = estimate(c17, IndependentInputs(0.3),
                          backend="junction-tree", cache=None)
        assert result.result_cache_hit is None

    def test_options_change_the_fingerprint(self, c17):
        cache = ResultCache()
        model = IndependentInputs(0.3)
        estimate(c17, model, backend="junction-tree", cache=None,
                 result_cache=cache, heuristic="min_fill")
        other = estimate(c17, model, backend="junction-tree", cache=None,
                         result_cache=cache, heuristic="min_degree")
        # Same scenario, different compile options: distinct entries.
        assert other.result_cache_hit is False
        assert cache.stats()["entries"] == 2

    def test_estimate_many_propagates_only_misses(self, c17):
        cache = ResultCache()
        sweep_a = [IndependentInputs(0.2), IndependentInputs(0.4)]
        first = estimate_many(c17, sweep_a, backend="junction-tree",
                              cache=None, result_cache=cache)
        assert [r.result_cache_hit for r in first] == [False, False]
        sweep_b = [IndependentInputs(0.4), IndependentInputs(0.6)]
        second = estimate_many(c17, sweep_b, backend="junction-tree",
                               cache=None, result_cache=cache)
        assert [r.result_cache_hit for r in second] == [True, False]
        # The replayed scenario is bitwise-equal to its original result.
        for line, dist in first[1].distributions.items():
            assert np.array_equal(second[0].distributions[line], dist)
        # And the fresh oracle agrees with every returned scenario.
        oracle = estimate_many(c17, sweep_b, backend="junction-tree",
                               cache=None)
        for got, expect in zip(second, oracle):
            for line, dist in expect.distributions.items():
                assert np.array_equal(got.distributions[line], dist)

    def test_true_spec_builds_private_cache(self, c17):
        # result_cache=True is valid but private to the call: no hits
        # across calls, no error either.
        result = estimate(c17, IndependentInputs(0.3),
                          backend="junction-tree", cache=None,
                          result_cache=True)
        assert result.result_cache_hit is False
