"""Model-pool and engine-pool semantics (no HTTP involved)."""

import threading

import numpy as np
import pytest

from repro.circuits import suite
from repro.circuits.examples import c17
from repro.core.backend import compile_model
from repro.core.inputs import IndependentInputs
from repro.serve.pool import EnginePool, ModelPool, PoolTimeout


class TestEnginePool:
    def test_replicas_are_private_and_reusable(self):
        pool = EnginePool(compile_model(c17(), backend="junction-tree"), capacity=2)
        a = pool.checkout(timeout=5.0)
        b = pool.checkout(timeout=5.0)
        assert a is not b
        assert pool.created == 2
        pool.checkin(a)
        c = pool.checkout(timeout=5.0)
        assert c is a  # the freed replica is reused, not a third copy
        assert pool.created == 2
        pool.checkin(b)
        pool.checkin(c)

    def test_checkout_blocks_until_checkin(self):
        pool = EnginePool(compile_model(c17(), backend="junction-tree"), capacity=1)
        replica = pool.checkout(timeout=5.0)
        got = []

        def blocked():
            got.append(pool.checkout(timeout=10.0))

        thread = threading.Thread(target=blocked)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive() and not got  # still waiting
        pool.checkin(replica)
        thread.join(timeout=10.0)
        assert got == [replica]
        pool.checkin(got[0])

    def test_checkout_timeout_raises_pool_timeout(self):
        pool = EnginePool(compile_model(c17(), backend="junction-tree"), capacity=1)
        replica = pool.checkout(timeout=5.0)
        with pytest.raises(PoolTimeout):
            pool.checkout(timeout=0.05)
        pool.checkin(replica)

    def test_replica_results_match_master(self):
        """The master is the first replica; a deserialized one answers
        bitwise like it."""
        master = compile_model(c17(), backend="junction-tree")
        pool = EnginePool(master, capacity=2)
        assert pool.created == 1
        assert pool.checkout(timeout=5.0) is master
        replica = pool.checkout(timeout=5.0)
        assert replica is not master
        assert pool.created == 2
        scenario = IndependentInputs(0.3)
        expect = master.query(scenario)
        got = replica.query(scenario)
        for line, dist in expect.distributions.items():
            assert np.array_equal(dist, got.distributions[line])
        pool.checkin(replica)
        pool.checkin(master)

    def test_capacity_must_be_positive(self):
        master = compile_model(c17(), backend="junction-tree")
        with pytest.raises(ValueError):
            EnginePool(master, capacity=0)


class TestModelPool:
    def test_hit_returns_same_entry(self):
        pool = ModelPool(max_models=4)
        circuit = c17()
        first = pool.get(circuit, backend="junction-tree")
        second = pool.get(circuit, backend="junction-tree")
        assert first is second
        assert second.hits == 1

    def test_key_matches_compile_cache_fingerprint(self):
        """The resident pool and the on-disk cache agree on identity."""
        pool = ModelPool(max_models=4)
        circuit = c17()
        key = pool.key_for(circuit, backend="junction-tree")
        assert key == pool.key_for(circuit, backend="junction-tree")
        assert key != pool.key_for(circuit, backend="enumeration")
        entry = pool.get(circuit, backend="junction-tree")
        assert entry.key == key

    def test_options_split_entries(self):
        pool = ModelPool(max_models=4)
        circuit = c17()
        fill = pool.get(circuit, backend="junction-tree", heuristic="min_fill")
        degree = pool.get(circuit, backend="junction-tree", heuristic="min_degree")
        assert fill is not degree
        assert fill.key != degree.key

    def test_lru_eviction_counts(self):
        pool = ModelPool(max_models=2)
        names = ["c17", "pcler8", "comp"]
        entries = [pool.get(suite.load_circuit(n)) for n in names]
        assert pool.evictions == 1
        stats = pool.stats()
        assert stats["resident"] == 2
        resident = {m["circuit"] for m in stats["models"]}
        assert "c17" not in resident  # oldest went first
        # Re-requesting the evicted circuit recompiles a fresh entry.
        again = pool.get(suite.load_circuit("c17"))
        assert again is not entries[0]
        assert pool.evictions == 2

    def test_touch_refreshes_lru_order(self):
        pool = ModelPool(max_models=2)
        a = pool.get(suite.load_circuit("c17"))
        pool.get(suite.load_circuit("pcler8"))
        pool.get(suite.load_circuit("c17"))  # touch: c17 is now newest
        pool.get(suite.load_circuit("comp"))  # evicts pcler8, not c17
        assert pool.get(suite.load_circuit("c17")) is a
        assert pool.evictions == 1

    def test_concurrent_same_key_compiles_once(self):
        pool = ModelPool(max_models=4)
        circuit = suite.load_circuit("c17")
        results, failures = [], []
        barrier = threading.Barrier(4)

        def worker():
            try:
                barrier.wait(timeout=10.0)
                results.append(pool.get(circuit, timeout=30.0))
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures
        assert len({id(entry) for entry in results}) == 1

    def test_on_disk_cache_round_trip(self, tmp_path):
        from repro.core.backend.cache import CompileCache

        cache = CompileCache(tmp_path)
        pool = ModelPool(cache=cache, max_models=1)
        pool.get(c17(), backend="junction-tree")  # miss: compiles + stores
        pool.get(suite.load_circuit("pcler8"))  # evicts the c17 entry
        entry = pool.get(c17(), backend="junction-tree")  # disk hit
        assert entry.model.query(IndependentInputs(0.5)).mean_activity() > 0
        # The second c17 admission was served from disk, not recompiled.
        assert pool.stats()["cache"]["hits"] >= 1
