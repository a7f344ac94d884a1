"""Timing protocol of the ``benchmarks/`` runners (``per_call_samples``)."""

import time

from benchmarks.common import MIN_SAMPLE_SECONDS, per_call_samples


def _recorder(pause=0.0):
    salts = []

    def fn(salt):
        salts.append(salt)
        if pause:
            time.sleep(pause)

    return fn, salts


def test_fast_calls_are_batched_into_long_samples():
    fn, salts = _recorder()
    samples = per_call_samples(fn, lambda salt: salt, repeats=3)
    calls, rest = divmod(len(salts) - 1, 3)  # one probe call, 3 samples
    assert rest == 0 and calls > 1
    # Every call of every sample answers a scenario set of its own.
    assert len(set(salts)) == len(salts)
    assert len(samples) == 3
    assert 0 < min(samples) < MIN_SAMPLE_SECONDS


def test_slow_calls_time_one_call_per_sample():
    fn, salts = _recorder(pause=MIN_SAMPLE_SECONDS)
    samples = per_call_samples(fn, lambda salt: salt, repeats=2)
    assert salts == [5, 0, 1]  # the probe, then salts 0 .. repeats - 1
    assert min(samples) >= MIN_SAMPLE_SECONDS
