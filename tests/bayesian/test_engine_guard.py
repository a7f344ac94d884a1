"""Reentrancy guard: one PropagationEngine, one thread at a time.

The engine's belief/message buffers are preallocated and mutated in
place, so two threads propagating through one engine silently corrupt
each other's results.  The guard turns that silent corruption into a
typed :class:`~repro.errors.ConcurrentPropagationError`; the serving
batcher, which runs one batch per model at a time, is the sanctioned
way to run concurrent queries (pinned by the bitwise regression test
below).
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.bayesian import JunctionTree
from repro.core.backend import compile_model
from repro.core.inputs import IndependentInputs
from repro.errors import ConcurrentPropagationError, PropagationError

from tests.bayesian.util import sprinkler_bn


def _calibrated_engine():
    jt = JunctionTree.from_network(sprinkler_bn())
    jt.calibrate()
    return jt._engine


class TestGuard:
    def test_concurrent_entry_raises_typed_error(self):
        """A second thread entering mid-propagation gets the typed error."""
        jt = JunctionTree.from_network(sprinkler_bn())
        jt.calibrate()
        engine = jt._engine
        entered = threading.Event()
        release = threading.Event()
        original = engine._absorb_from_parent

        def stalled(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            return original(*args, **kwargs)

        engine._absorb_from_parent = stalled
        # Re-installing a potential makes the next propagate() a pass.
        engine.set_potential(0, jt._clique_potential(0))
        failures = []

        def propagate():
            try:
                engine.propagate()
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        thread = threading.Thread(target=propagate)
        thread.start()
        try:
            assert entered.wait(timeout=10.0)
            with pytest.raises(ConcurrentPropagationError):
                engine.propagate()
            with pytest.raises(ConcurrentPropagationError):
                engine.marginals(["cloudy"])
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not failures
        # The guard is released afterwards: serial re-entry works.
        engine.marginals(["cloudy"])

    def test_concurrent_reads_of_calibrated_tree(self):
        """Reads of a calibrated tree take no guard: concurrent readers
        all see the same joint."""
        jt = JunctionTree.from_network(sprinkler_bn())
        jt.calibrate()
        expected = jt.joint_marginal_batch(["rain", "wet"])
        results, failures = [], []

        def reader():
            try:
                for _ in range(200):
                    results.append(jt.joint_marginal_batch(["rain", "wet"]))
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(results) == 8 * 200
        assert all(np.array_equal(got, expected) for got in results)

    def test_error_is_a_propagation_error(self):
        assert issubclass(ConcurrentPropagationError, PropagationError)

    def test_serial_reuse_is_unaffected(self):
        engine = _calibrated_engine()
        first = engine.marginals(["cloudy", "wet"])
        second = engine.marginals(["cloudy", "wet"])
        for node in first:
            assert np.array_equal(first[node], second[node])

    def test_engine_survives_pickling_with_fresh_guard(self):
        """The guard lock is dropped on pickle and recreated on load
        (compiled artifacts round-trip through the compile cache)."""
        engine = _calibrated_engine()
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._guard is not engine._guard
        out = clone.marginals(["cloudy"])
        assert np.array_equal(out["cloudy"], engine.marginals(["cloudy"])["cloudy"])


class TestEnginePoolBitwise:
    """Threads hammering compiled artifacts through the serving batcher
    must be bitwise-equal to running the same scenarios serially on a
    fresh compile -- the regression the guard exposed.  Each lane owns
    one model and runs one batch at a time, so two submitters per lane
    never put two threads inside one engine."""

    def test_two_threads_match_serial(self):
        from repro.circuits.examples import c17
        from repro.serve.batcher import DynamicBatcher

        circuit = c17()
        scenarios = [IndependentInputs(0.05 + 0.09 * i) for i in range(10)]

        serial_model = compile_model(circuit, backend="junction-tree")
        serial = []
        for scenario in scenarios:
            serial.append(serial_model.query(scenario))

        models = {
            lane: compile_model(circuit, backend="junction-tree")
            for lane in ("a", "b")
        }

        def run_batch(lane, items):
            return list(models[lane].query_many([scenarios[i] for i in items]))

        batcher = DynamicBatcher(
            run_batch, max_batch=2, linger_seconds=0.001, workers=2
        )
        results = [None] * (8 * len(scenarios))
        failures = []

        def submitter(offset):
            try:
                futures = []
                for i in range(offset, len(results), 4):
                    lane = "ab"[(i // 2) % 2]
                    futures.append(
                        (i, batcher.submit(lane, i % len(scenarios)))
                    )
                for i, future in futures:
                    results[i] = future.result(timeout=30.0)
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(k,)) for k in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            batcher.close()
        assert not failures
        assert batcher.stats.items == len(results)
        for i, got in enumerate(results):
            expect = serial[i % len(scenarios)]
            assert got is not None
            for line, dist in expect.distributions.items():
                assert np.array_equal(dist, got.distributions[line])
