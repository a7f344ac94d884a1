"""Model-pool semantics (no HTTP involved)."""

import threading

import numpy as np
import pytest

from repro.circuits import suite
from repro.circuits.examples import c17
from repro.core.backend import compile_model
from repro.core.inputs import IndependentInputs
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.serve.pool import ModelPool, PoolTimeout


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

    def test_one_engine_per_model(self):
        """A pooled model is its compile: no replica is ever made, and
        it answers bitwise like a fresh compile."""
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            pool = ModelPool(max_models=4)
            entry = pool.get(c17(), backend="junction-tree")
            pool.get(c17(), backend="junction-tree")  # a hit makes none
        finally:
            set_metrics(previous)
        assert registry.counter("serve.pool.engines_created").value == 1
        assert [m["engines_created"] for m in pool.stats()["models"]] == [1]
        scenario = IndependentInputs(0.3)
        expect = compile_model(c17(), backend="junction-tree").query(scenario)
        got = entry.model.query(scenario)
        for line, dist in expect.distributions.items():
            assert np.array_equal(dist, got.distributions[line])

    def test_compile_wait_timeout_raises_pool_timeout(self, monkeypatch):
        """A thread waiting on another's compile of the same key gives
        up with the typed timeout."""
        import repro.serve.pool as pool_module

        started, release = threading.Event(), threading.Event()
        real_compile = pool_module.compile_model

        def slow_compile(*args, **kwargs):
            started.set()
            release.wait(timeout=10.0)
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(pool_module, "compile_model", slow_compile)
        pool = ModelPool(max_models=4)
        circuit = c17()
        first = threading.Thread(
            target=pool.get, args=(circuit,), kwargs={"backend": "junction-tree"}
        )
        first.start()
        try:
            assert started.wait(timeout=10.0)
            with pytest.raises(PoolTimeout):
                pool.get(circuit, backend="junction-tree", timeout=0.05)
        finally:
            release.set()
            first.join(timeout=30.0)

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
