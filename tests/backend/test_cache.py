"""On-disk compile cache: keys, hits, eviction, obs counters."""

import pytest

from repro.circuits import suite
from repro.circuits.examples import c17
from repro.core.backend import (
    CompileCache,
    circuit_fingerprint,
    compile_model,
    default_cache_dir,
    input_structure_signature,
)
from repro.core.backend.cache import CACHE_DIR_ENV
from repro.core.inputs import CorrelatedGroupInputs, IndependentInputs, TemporalInputs


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def test_circuit_fingerprint_is_structural():
    a = c17()
    b = c17()
    assert circuit_fingerprint(a) == circuit_fingerprint(b)
    other = suite.load_circuit("alu")
    assert circuit_fingerprint(a) != circuit_fingerprint(other)


def test_input_signature_tracks_structure_not_values():
    circuit = c17()
    # Same structure, different values: interchangeable at compile time.
    assert input_structure_signature(
        IndependentInputs(0.5), circuit
    ) == input_structure_signature(IndependentInputs(0.1), circuit)
    # Same within temporal models too: activity is a value, not an edge.
    assert input_structure_signature(
        TemporalInputs(p_one=0.5, activity=0.2), circuit
    ) == input_structure_signature(TemporalInputs(p_one=0.3, activity=0.4), circuit)
    # Correlation groups add edges: different compile, different key.
    correlated = CorrelatedGroupInputs(groups=[circuit.inputs[:2]], rho=0.5)
    assert input_structure_signature(
        correlated, circuit
    ) != input_structure_signature(IndependentInputs(0.5), circuit)


def test_miss_then_hit_with_identical_results(tmp_path):
    cache = CompileCache(tmp_path)
    circuit = c17()

    first = compile_model(circuit, backend="junction-tree", cache=cache)
    assert first.cache_hit is False
    assert cache.stats() == {"hits": 0, "misses": 1, "evictions": 0}

    second = compile_model(circuit, backend="junction-tree", cache=cache)
    assert second.cache_hit is True
    assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0}

    a = first.query()
    b = second.query()
    for line in a.distributions:
        assert b.switching(line) == pytest.approx(a.switching(line), abs=1e-12)


def test_key_changes_with_backend_options_and_inputs(tmp_path):
    cache = CompileCache(tmp_path)
    circuit = c17()
    base = cache.key_for(circuit, "junction-tree", None, "")
    assert cache.key_for(circuit, "segmented", None, "") != base
    assert cache.key_for(circuit, "junction-tree", None, "budget=4") != base
    correlated = CorrelatedGroupInputs(groups=[circuit.inputs[:2]], rho=0.5)
    assert cache.key_for(circuit, "junction-tree", correlated, "") != base
    # Value-only input changes reuse the same artifact.
    assert cache.key_for(circuit, "junction-tree", IndependentInputs(0.3), "") == (
        cache.key_for(circuit, "junction-tree", IndependentInputs(0.9), "")
    )


def test_different_budgets_do_not_collide(tmp_path):
    cache = CompileCache(tmp_path)
    circuit = c17()
    compile_model(
        circuit, backend="junction-tree", cache=cache, max_clique_states=4 ** 10
    )
    tight = compile_model(
        circuit, backend="junction-tree", cache=cache, max_clique_states=4 ** 5
    )
    assert tight.cache_hit is False
    assert len(cache.entries()) == 2


def test_entries_and_clear(tmp_path):
    cache = CompileCache(tmp_path)
    compile_model(c17(), backend="junction-tree", cache=cache)
    compile_model(
        suite.load_circuit("alu"), backend="junction-tree", cache=cache
    )
    entries = cache.entries()
    assert {e.circuit for e in entries} == {"c17", "alu"}
    assert all(e.backend == "junction-tree" for e in entries)
    assert all(e.size_bytes > 0 for e in entries)
    assert cache.clear() == 2
    assert cache.entries() == []


def test_corrupt_entry_is_evicted_and_recompiled(tmp_path):
    cache = CompileCache(tmp_path)
    circuit = c17()
    model = compile_model(circuit, backend="junction-tree", cache=cache)
    # Overwrite the artifact with garbage: the next get must miss,
    # evict, and the facade must recompile.
    path = next(tmp_path.glob("*.repro.pkl"))
    path.write_bytes(b"corrupted")
    again = compile_model(circuit, backend="junction-tree", cache=cache)
    assert again.cache_hit is False
    assert again.query().mean_activity() == pytest.approx(
        model.query().mean_activity(), abs=1e-12
    )


def test_cache_counters_reach_obs_metrics(tmp_path):
    from repro import obs

    obs.enable()
    try:
        cache = CompileCache(tmp_path)
        compile_model(c17(), backend="junction-tree", cache=cache)
        compile_model(c17(), backend="junction-tree", cache=cache)
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["counters"]["cache.misses"] == 1
        assert snapshot["counters"]["cache.hits"] == 1
    finally:
        obs.disable()
        obs.reset()


def test_cache_spec_accepts_path_and_bool(tmp_path):
    model = compile_model(c17(), backend="junction-tree", cache=tmp_path)
    assert model.cache_hit is False
    assert list(tmp_path.glob("*.repro.pkl"))
    uncached = compile_model(c17(), backend="junction-tree", cache=None)
    assert uncached.cache_hit is None


def test_v8_auto_artifact_misses_under_current_schema(tmp_path, monkeypatch):
    """An ``auto`` artifact keyed by schema v8 held alu segmented; the
    current schema must miss it and compile the exact tree instead."""
    from repro.core.backend import cache as cache_module
    from repro.core.backend.base import ARTIFACT_SCHEMA_VERSION
    from repro.core.backend.registry import get_backend

    assert ARTIFACT_SCHEMA_VERSION >= 9
    circuit = suite.load_circuit("alu")
    cache = CompileCache(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "ARTIFACT_SCHEMA", "repro.compiled/v8")
        stale_key = cache.key_for(
            circuit, "auto", None, get_backend("auto").cache_token()
        )
    stale = compile_model(circuit, backend="segmented", max_clique_states=4 ** 10)
    cache.put(stale_key, stale)

    model = compile_model(circuit, cache=cache)
    assert model.cache_hit is False
    assert model.query().method == "single-bn"


def test_v12_artifact_misses_under_current_schema(tmp_path, monkeypatch):
    """A v12 artifact's schedule stored every separator whole; under the
    current schema (packed separators) it must miss and recompile."""
    import numpy as np

    from repro.core.backend import cache as cache_module
    from repro.core.backend.base import ARTIFACT_SCHEMA_VERSION
    from repro.core.backend.registry import get_backend

    assert ARTIFACT_SCHEMA_VERSION >= 13
    circuit = suite.load_circuit("alu")
    cache = CompileCache(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "ARTIFACT_SCHEMA", "repro.compiled/v12")
        stale_key = cache.key_for(
            circuit, "auto", None, get_backend("auto").cache_token()
        )
    stale = compile_model(circuit, cache=None)
    messages = stale.estimator.junction_tree._schedule.messages.values()
    assert any(msg.live is not None for msg in messages)
    for msg in messages:  # the v12 layout: whole separators
        msg.live = None
    cache.put(stale_key, stale)

    model = compile_model(circuit, cache=cache)
    assert model.cache_hit is False
    schedule = model.estimator.junction_tree._schedule
    assert any(msg.live is not None for msg in schedule.messages.values())
    fresh = compile_model(circuit, cache=None).query()
    got = model.query()
    for line in circuit.lines:
        assert np.array_equal(got.distributions[line], fresh.distributions[line])
