"""Dynamic batcher coalescing, ordering, and failure semantics."""

import sys
import threading
import time

import pytest

from repro.serve.batcher import DynamicBatcher


def _echo_batcher(calls, **kwargs):
    lock = threading.Lock()

    def run_batch(key, items):
        with lock:
            calls.append((key, list(items)))
        return [(key, item) for item in items]

    return DynamicBatcher(run_batch, **kwargs)


class TestCoalescing:
    def test_single_item_round_trip(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=4, linger_seconds=0.0)
        try:
            assert batcher.submit("k", 1).result(timeout=5.0) == ("k", 1)
        finally:
            batcher.close()
        assert calls == [("k", [1])]

    def test_queued_burst_coalesces(self):
        """Items submitted while the worker is busy merge into one batch."""
        release = threading.Event()
        calls = []

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
            calls.append((key, list(items)))
            return list(items)

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=0.0, workers=1
        )
        try:
            plug = batcher.submit("k", "plug")  # occupies the lone worker
            time.sleep(0.05)
            futures = [batcher.submit("k", i) for i in range(5)]
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == list(range(5))
            plug.result(timeout=5.0)
        finally:
            batcher.close()
        sizes = [len(items) for _, items in calls if items != ["plug"]]
        assert sizes == [5]  # one coalesced batch, not five singletons

    def test_max_batch_caps_drain(self):
        release = threading.Event()
        calls = []

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
            calls.append(list(items))
            return list(items)

        batcher = DynamicBatcher(
            run_batch, max_batch=3, linger_seconds=0.0, workers=1
        )
        try:
            batcher.submit("k", "plug")
            time.sleep(0.05)
            futures = [batcher.submit("k", i) for i in range(7)]
            release.set()
            for future in futures:
                future.result(timeout=5.0)
        finally:
            batcher.close()
        sizes = [len(items) for items in calls if items != ["plug"]]
        assert all(size <= 3 for size in sizes)
        assert sum(sizes) == 7

    def test_lanes_do_not_mix(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=8, linger_seconds=0.05)
        try:
            fa = [batcher.submit("a", i) for i in range(3)]
            fb = [batcher.submit("b", i) for i in range(3)]
            for f in fa:
                assert f.result(timeout=5.0)[0] == "a"
            for f in fb:
                assert f.result(timeout=5.0)[0] == "b"
        finally:
            batcher.close()
        for key, items in calls:
            assert len(items) <= 3

    def test_results_keep_submission_order(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=16, linger_seconds=0.02)
        try:
            futures = [batcher.submit("k", i) for i in range(10)]
            assert [f.result(timeout=5.0)[1] for f in futures] == list(range(10))
        finally:
            batcher.close()

    def test_stats_accumulate(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=4, linger_seconds=0.0)
        try:
            for i in range(3):
                batcher.submit("k", i).result(timeout=5.0)
        finally:
            batcher.close()
        assert batcher.stats.items == 3
        assert batcher.stats.batches >= 1
        assert batcher.stats.mean_batch_size() > 0


class TestWorkConserving:
    def test_in_flight_batch_holds_its_lane(self):
        """No second batch of a lane starts while one propagates, even
        with a worker free; what queues meanwhile is one batch."""
        entered, release = threading.Event(), threading.Event()
        started = []

        def run_batch(key, items):
            started.append(list(items))
            if items == ["plug"]:
                entered.set()
                release.wait(timeout=10.0)
            return list(items)

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=0.002, workers=2
        )
        try:
            plug = batcher.submit("k", "plug")
            assert entered.wait(timeout=5.0)
            futures = [batcher.submit("k", i) for i in range(5)]
            time.sleep(0.1)  # the idle worker has had time to act
            assert started == [["plug"]]
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == list(range(5))
            plug.result(timeout=5.0)
        finally:
            release.set()
            batcher.close()
        assert started == [["plug"], [0, 1, 2, 3, 4]]

    def test_lone_request_on_fresh_lane_does_not_wait(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=16, linger_seconds=30.0)
        try:
            start = time.monotonic()
            assert batcher.submit("k", 1).result(timeout=10.0) == ("k", 1)
            assert time.monotonic() - start < 5.0
        finally:
            batcher.close()

    def test_linger_waits_for_last_batch_size_but_not_past_cap(self):
        cap = 1.0
        release = threading.Event()
        calls = []

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
            calls.append(list(items))
            return list(items)

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=cap, workers=1
        )
        try:
            # A batch of 3: queued behind a plug, drained together.
            plug = batcher.submit("k", "plug")
            time.sleep(0.05)
            first = [batcher.submit("k", name) for name in "abc"]
            release.set()
            for future in first:
                future.result(timeout=5.0)
            plug.result(timeout=5.0)
            assert calls[-1] == ["a", "b", "c"]

            # The next claim waits for 3 items, and they go out as one
            # batch well before the cap.
            start = time.monotonic()
            trio = [batcher.submit("k", "x")]
            for name in "yz":
                time.sleep(0.02)
                trio.append(batcher.submit("k", name))
            for future in trio:
                future.result(timeout=5.0)
            assert calls[-1] == ["x", "y", "z"]
            assert time.monotonic() - start < 0.8 * cap

            # A lone request after a batch of 3 waits out the cap, no
            # longer; after that singleton, the next drains at once.
            start = time.monotonic()
            batcher.submit("k", "w").result(timeout=10.0)
            waited = time.monotonic() - start
            assert 0.9 * cap <= waited < 3.0 * cap
            start = time.monotonic()
            batcher.submit("k", "v").result(timeout=10.0)
            assert time.monotonic() - start < 0.8 * cap
        finally:
            release.set()
            batcher.close()
        assert calls[-2:] == [["w"], ["v"]]


    def test_lanes_never_overlap_under_stress(self):
        """More workers than cores and a short switch interval: no two
        batches of one lane ever run at once, and every item resolves."""
        lock = threading.Lock()
        in_flight = {}
        overlaps = []

        def run_batch(key, items):
            with lock:
                in_flight[key] = in_flight.get(key, 0) + 1
                if in_flight[key] > 1:
                    overlaps.append(key)
            time.sleep(0.0005)
            with lock:
                in_flight[key] -= 1
            return [(key, item) for item in items]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        batcher = DynamicBatcher(
            run_batch, max_batch=4, linger_seconds=0.001, workers=6
        )
        try:
            results, failures = {}, []

            def submitter(offset):
                try:
                    for i in range(offset, 600, 8):
                        key = "abc"[i % 3]
                        got = batcher.submit(key, i).result(timeout=30.0)
                        results[i] = got
                except BaseException as exc:  # pragma: no cover - diagnostic
                    failures.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
            batcher.close()
        assert not failures
        assert not overlaps
        assert results == {i: ("abc"[i % 3], i) for i in range(600)}
        assert batcher.stats.items == 600


class TestSingleFlightDedup:
    def test_parked_duplicates_share_one_slot(self):
        """Identical parked scenarios run once and fan out one result."""
        release = threading.Event()
        calls = []

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
            calls.append(list(items))
            return list(items)

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=0.0, workers=1
        )
        try:
            plug = batcher.submit("k", "plug")  # occupies the lone worker
            time.sleep(0.05)
            futures = [
                batcher.submit("k", "same", dedup_key="digest-a")
                for _ in range(4)
            ]
            other = batcher.submit("k", "other", dedup_key="digest-b")
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == ["same"] * 4
            assert other.result(timeout=5.0) == "other"
            plug.result(timeout=5.0)
        finally:
            batcher.close()
        sizes = [len(items) for items in calls if items != ["plug"]]
        # Four duplicate submissions collapsed onto one slot: the batch
        # carried two items ("same" once, "other" once), not five.
        assert sum(sizes) == 2
        assert batcher.stats.deduped == 3
        assert batcher.stats.items == 3  # plug + 2 slots

    def test_no_dedup_without_key(self):
        release = threading.Event()
        calls = []

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
            calls.append(list(items))
            return list(items)

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=0.0, workers=1
        )
        try:
            plug = batcher.submit("k", "plug")
            time.sleep(0.05)
            futures = [batcher.submit("k", "same") for _ in range(3)]
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == ["same"] * 3
            plug.result(timeout=5.0)
        finally:
            batcher.close()
        sizes = [len(items) for items in calls if items != ["plug"]]
        assert sum(sizes) == 3  # identical payloads, but no key: no merge
        assert batcher.stats.deduped == 0

    def test_dedup_keys_do_not_cross_lanes(self):
        """A parked slot in lane "a" must not absorb lane "b" traffic."""
        release = threading.Event()
        calls = []

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
            calls.append((key, list(items)))
            return [(key, item) for item in items]

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=0.0, workers=1
        )
        try:
            plug = batcher.submit("a", "plug")
            time.sleep(0.05)
            fa = batcher.submit("a", "x", dedup_key="digest")
            fb = batcher.submit("b", "x", dedup_key="digest")
            release.set()
            assert fa.result(timeout=5.0) == ("a", "x")
            assert fb.result(timeout=5.0) == ("b", "x")
            plug.result(timeout=5.0)
        finally:
            batcher.close()
        assert batcher.stats.deduped == 0

    def test_dedup_failure_fans_out_to_every_waiter(self):
        class Boom(RuntimeError):
            pass

        release = threading.Event()

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
                return list(items)
            raise Boom("bad batch")

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=0.0, workers=1
        )
        try:
            plug = batcher.submit("k", "plug")
            time.sleep(0.05)
            futures = [
                batcher.submit("k", "same", dedup_key="digest")
                for _ in range(3)
            ]
            release.set()
            plug.result(timeout=5.0)
            for future in futures:
                with pytest.raises(Boom):
                    future.result(timeout=5.0)
        finally:
            batcher.close()


class TestFailureSemantics:
    def test_exception_fails_every_future_in_batch(self):
        class Boom(RuntimeError):
            pass

        def run_batch(key, items):
            raise Boom("bad batch")

        batcher = DynamicBatcher(run_batch, max_batch=4, linger_seconds=0.05)
        try:
            futures = [batcher.submit("k", i) for i in range(3)]
            for future in futures:
                with pytest.raises(Boom):
                    future.result(timeout=5.0)
        finally:
            batcher.close()

    def test_result_count_mismatch_is_an_error(self):
        def run_batch(key, items):
            return items[:-1]  # one short

        batcher = DynamicBatcher(run_batch, max_batch=4, linger_seconds=0.0)
        try:
            with pytest.raises(RuntimeError, match="results"):
                batcher.submit("k", 1).result(timeout=5.0)
        finally:
            batcher.close()

    def test_submit_after_close_raises(self):
        batcher = _echo_batcher([], max_batch=2, linger_seconds=0.0)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("k", 1)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            DynamicBatcher(lambda k, i: i, max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(lambda k, i: i, workers=0)
