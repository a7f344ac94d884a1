"""The ``serve-open`` workload: ``repro serve`` under open- and closed-loop load.

Runs as a fresh child of ``run.py``::

    PYTHONPATH=src python bench/serve_open.py --seed N --seconds S [--trace 0|1]
        [--smoke] [--oracles PATH]

Each set-up spawns ``python -m repro.cli serve --no-cache --port 0``
(the default configuration: result cache on, ``max_batch`` 16, 2 ms
linger) and ends when ``/healthz`` answers and one ``/estimate`` per
circuit has returned.  The last set-up's server then answers the check
set, an open loop of seeded Poisson arrivals at ``SERVE_RATE`` for
two thirds of ``--seconds``, and a closed loop on ``SERVE_SENDERS``
keep-alive connections for the rest.  Every request carries a distinct
scenario, so the result cache is probed but never hits.  The last
stdout line is one JSON object with the measured values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import common
import layers

from repro.serve.client import ServeClient, ServeRequestError

SETUPS = 3
#: closed-loop throughput is sampled per slice of this many seconds
SLICE = 0.5


def split_cpus():
    """``(server CPUs, load-generator CPUs)``, or ``(None, None)`` on one CPU.

    The server's threads share one interpreter lock; keeping the load
    generator off the server's core raised its closed-loop throughput
    from 75-115 to 125-160 req/s on a 2-vCPU VM.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


class Server:
    """One ``repro serve`` child process on a free port."""

    def __init__(self, traced: bool, cpus=None):
        argv = ["serve", "--no-cache", "--port", "0"]
        if traced:
            cmd = [sys.executable, str(common.BENCH_DIR / "serve_traced.py")] + argv
        else:
            cmd = [sys.executable, "-m", "repro.cli"] + argv
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.rusage = None
        line = self._readline(timeout=60.0)
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = ServeClient(match.group(1), timeout=30.0)

    def _readline(self, timeout: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                return ""
        return self.proc.stdout.readline()

    def stop(self) -> str:
        """SIGTERM, wait, and return what the server printed meanwhile."""
        if self.proc.returncode is not None:
            return ""
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(30.0, self.proc.kill)
        timer.start()
        try:
            output = self.proc.stdout.read()
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            self.proc.stdout.close()
        self.lifetime = time.perf_counter() - self.started
        return output


def answer_ok(response, circuit) -> bool:
    activities = response.get("activities", {})
    return len(activities) == len(circuit.lines) and all(
        0.0 <= a <= 1.0 for a in activities.values()
    )


def open_loop(client, requests, rate_schedule):
    """Send ``requests`` at their scheduled offsets from 2 sender threads.

    Returns per-request ``(circuit, scheduled, sent, done, ok)`` with
    times relative to the phase start; latency counts from ``scheduled``.
    """
    records = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            name, circuit, spec = requests[index]
            due = start + rate_schedule[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                ok = answer_ok(client.estimate(name, spec), circuit)
            except (ServeRequestError, OSError) as exc:
                print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                ok = False
            records[index] = (name, due - start, sent - start, time.perf_counter() - start, ok)

    for thread in start_threads(sender):
        thread.join()
    return records


def closed_loop(client, requests, seconds, toggle=None):
    """Back-to-back requests from 2 senders for ``seconds`` (or until
    ``requests`` run out).

    Returns ``(completed, failed, latencies, slices)``; ``slices`` holds
    ``(traced, completions)`` per ``SLICE`` seconds.  With ``toggle``
    the slices alternately pause and resume server-side tracing.
    """
    lock = threading.Lock()
    state = {"next": 0, "done": 0, "failed": 0, "latencies": []}
    deadline = time.perf_counter() + seconds

    def sender():
        while time.perf_counter() < deadline:
            with lock:
                if state["next"] >= len(requests):
                    return
                name, circuit, spec = requests[state["next"]]
                state["next"] += 1
            sent = time.perf_counter()
            try:
                ok = answer_ok(client.estimate(name, spec), circuit)
            except (ServeRequestError, OSError) as exc:
                print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                ok = False
            with lock:
                state["done" if ok else "failed"] += 1
                if ok:
                    state["latencies"].append(time.perf_counter() - sent)

    threads = start_threads(sender)
    slices = []
    traced = True
    while time.perf_counter() + SLICE <= deadline:
        before = state["done"]
        time.sleep(SLICE)
        slices.append((traced, state["done"] - before))
        if toggle is not None:
            traced = not traced
            toggle(traced)
    if toggle is not None:
        toggle(True)
    for thread in threads:
        thread.join()
    return state["done"], state["failed"], state["latencies"], slices


def start_threads(target):
    threads = [threading.Thread(target=target, daemon=True) for _ in range(common.SERVE_SENDERS)]
    for thread in threads:
        thread.start()
    return threads


def make_requests(rng, circuits, count):
    names = list(circuits)
    picks = rng.integers(0, len(names), count)
    return [
        (names[p], circuits[names[p]], common.random_specs(rng, circuits[names[p]].inputs, 1, start=i)[0])
        for i, p in enumerate(picks)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--oracles", default=str(common.ORACLES_PATH))
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    oracles = common.load_oracles(args.oracles)
    load_start = time.perf_counter()
    circuits = {name: common.load_circuit(name) for name in common.SERVE_CIRCUITS}
    load_ms = 1e3 * (time.perf_counter() - load_start)
    checks = {name: common.check_specs(c.inputs) for name, c in circuits.items()}
    try:
        entries = common.oracle_entries(oracles, circuits)
    except common.StaleOracle as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 3

    # Set-ups: spawn to ready, the last server is kept.
    setups = 1 if trace or args.smoke else SETUPS
    setup_seconds, answers = [], {}
    server = None
    server_cpus, client_cpus = split_cpus()
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)
    try:
        for index in range(setups):
            server = Server(traced=trace and index == setups - 1, cpus=server_cpus)
            server.client.health()
            for name, specs in checks.items():
                answers[name, "uniform"] = server.client.estimate(name, specs[0][1])
            setup_seconds.append(time.perf_counter() - server.started)
            if index < setups - 1:
                server.stop()
        print("READY", flush=True)

        # Check set (the uniform answers came from the set-up).
        attempted, failures, errors = 0, [], {}
        for name, specs in checks.items():
            for label, spec in specs[1:]:
                answers[name, label] = server.client.estimate(name, spec)
        for (name, label), response in answers.items():
            attempted += 1
            if not answer_ok(response, circuits[name]):
                failures.append(f"{name}/{label}: invalid activities")
            else:
                common.check_answer(
                    name, label, response["method"], response["activities"].__getitem__,
                    entries[name, label], errors, failures,
                )

        rng = np.random.default_rng([args.seed, 2])
        open_seconds = args.seconds * common.SERVE_OPEN_SHARE
        gaps = rng.exponential(1.0 / common.SERVE_RATE, int(common.SERVE_RATE * open_seconds * 2) + 10)
        schedule = np.cumsum(gaps)
        schedule = schedule[schedule < open_seconds] if not args.smoke else schedule[:40]
        opened = make_requests(rng, circuits, len(schedule))
        closed_seconds = 1.0 if args.smoke else args.seconds - open_seconds
        # Never reused, so the result cache never hits; enough for 2000 req/s.
        closed = make_requests(rng, circuits, int(2000 * closed_seconds))

        records = open_loop(server.client, opened, schedule)
        toggle = None
        if trace:
            def toggle(on):
                server.proc.send_signal(signal.SIGUSR2 if on else signal.SIGUSR1)
        completed, closed_failed, closed_latencies, slices = closed_loop(
            server.client, closed, closed_seconds, toggle
        )
    finally:
        output = server.stop() if server is not None else ""

    failed = sum(not ok for *_, ok in records) + closed_failed + len(failures)
    attempted += len(records) + completed + closed_failed
    latencies = {name: [] for name in circuits}
    for name, due, sent, done, ok in records:
        if ok:
            latencies[name].append(done - due)
    for message in failures[:10]:
        print(f"check: {message}", file=sys.stderr)

    result = {
        "workload": "serve-open",
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_seconds,
        "open_requests": len(records),
        "closed_slices": [n for _, n in slices],
        "timed_digest": hashlib.sha256(
            "".join(common.canonical(spec) for _, _, spec in opened).encode()
        ).hexdigest(),
        "check_digest": hashlib.sha256(
            "".join(common.canonical(spec) for specs in checks.values() for _, spec in specs).encode()
        ).hexdigest(),
        "open_latency": common.latency_detail(latencies),
        "slo_frac": sum(
            ok and done - due <= common.SERVE_SLO_SECONDS for _, due, _, done, ok in records
        ) / len(records),
        "metrics": {
            "peak_rss_mb": server.rusage.ru_maxrss / 1024.0,
            "scenarios_per_s": completed / closed_seconds,
            "latency_p50_ms": common.latency_p50_ms(latencies),
            **common.error_summary(errors),
        },
        "max_abs_error_by_circuit": {name: max(e) for name, e in errors.items()},
    }
    if trace:
        client_latencies = closed_latencies + [
            done - sent for _, _, sent, done, ok in records if ok
        ]
        result["per_layer"] = traced_layers(
            output, server, records, client_latencies, slices, circuits, rng, load_ms
        )
    print(json.dumps(result))
    return 0


def traced_layers(output, server, records, client_latencies, slices, circuits, rng, load_ms):
    """Per-layer metrics of the traced server and the load generator."""
    summary = None
    for line in output.splitlines():
        if line.startswith("BENCH-TRACE "):
            summary = json.loads(line[len("BENCH-TRACE "):])
    if summary is None:
        raise RuntimeError("traced server printed no BENCH-TRACE summary")
    per_layer = layers.layer_metrics(summary["phases"])
    snapshot = summary["metrics"]
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    work = {key[len("engine."):]: value for key, value in counters.items() if key.startswith("engine.")}
    per_layer.update(layers.work_metrics(work, counters.get("serve.requests.estimate", 0), gauges))
    lookups = counters.get("rcache.hits", 0) + counters.get("rcache.misses", 0)
    batches = counters.get("serve.batch.batches", 0)
    # Both p50s cover the open and closed phases alike; the server's
    # histogram also holds the few set-up and check requests.
    client_p50 = common.percentile(client_latencies, 50)
    endpoint_p50 = snapshot["histograms"].get("serve.latency.estimate", {}).get("p50", 0.0)
    traced = [n for on, n in slices if on]
    untraced = [n for on, n in slices if not on]
    cpu = server.rusage.ru_utime + server.rusage.ru_stime
    per_layer.update({
        "circuits.load_ms": load_ms / len(circuits),
        "workload.unique_frac": 1.0,
        "core.inputs.cpds_ms": common.cpds_ms(rng, circuits, dict.fromkeys(circuits, 1)),
        "serve.transport_frac": (client_p50 - endpoint_p50) / client_p50,
        "serve.batcher.mean_batch_size": counters.get("serve.batch.items", 0) / batches if batches else 0.0,
        "serve.batcher.batches": batches,
        "serve.batcher.dedup": counters.get("serve.batcher.dedup", 0),
        "serve.pool.engines_created": counters.get("serve.pool.engines_created", 0),
        "serve.pool.resident": gauges.get("serve.pool.resident", 0.0),
        "core.rcache.hit_rate": counters.get("rcache.hits", 0) / lookups if lookups else 0.0,
        "core.rcache.bytes": gauges.get("rcache.bytes", 0.0),
        "process.cpu_util": cpu / server.lifetime,
        "bench.client.late_frac": sum(
            sent - due > 1e-3 for _, due, sent, _, _ in records
        ) / len(records),
        "trace.overhead_frac": (
            statistics.median(untraced) / statistics.median(traced) - 1.0 if traced and untraced else 0.0
        ),
    })
    return per_layer


if __name__ == "__main__":
    sys.exit(main())
