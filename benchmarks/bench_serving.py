"""Serving throughput: dynamic batching vs. request-at-a-time vs. cached.

Emits ``BENCH_serving.json``, a ``repro.perf/v2`` document (kind
``serving``) with one row per metric keyed by ``mode`` and
``concurrency`` (plus ``workload`` on cached rows).  The resident server
(``repro.serve``) only earns its keep if concurrent clients' single
scenarios coalesce into one batched propagation; this runner measures
that end to end -- HTTP parsing, the batcher's linger window, engine
checkout, and the propagation itself -- by driving a live server with
closed-loop clients:

- ``unbatched`` rows -- the server runs with ``max_batch=1``, linger
  ``0``: every request is its own propagation (the PR 5 fast path
  behind an HTTP endpoint).
- ``batched`` rows -- the same server configured with the default
  ``max_batch``/linger; concurrent requests merge into ``query_many``
  sweeps.  The result cache is *off* in both modes so the rows measure
  batching alone.
- ``cached`` rows -- the batched configuration plus the
  fingerprint-keyed result cache, driven with a *skewed* scenario
  stream (``--cached-workload``, default ``zipf:1.1``): the
  synthesis-loop traffic shape where most requests revisit a small
  scenario universe.  Rows record the per-run ``cache_hit_rate`` and a
  ``bitwise_equal`` flag: a post-run cache *hit* for the hottest
  scenario is compared byte-for-byte against a fresh, uncached
  in-process propagation.
- ``speedup`` (batched rows) -- batched over unbatched scenarios/sec
  at the same concurrency.
- ``cached_speedup`` (cached rows) -- cached over *batched*
  scenarios/sec at the same concurrency: the reuse win on top of the
  batching win.

At concurrency 1 the two legacy modes should be within noise of each
other (a lone request never waits out the linger window); the batching
win appears as concurrency grows, and the caching win grows with the
stream's skew.  Latency percentiles are nearest-rank over every
request in the cell.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        [--circuits c17,comp,voter,alu] [--concurrency 1,4,16] \
        [--requests-per-client 20] [--max-batch 16] [--linger-ms 5] \
        [--cached-workload zipf:1.1] [--result-cache-entries 4096] \
        [--quick] [--output BENCH_serving.json]

``--quick`` shrinks the run to the CI smoke configuration (c17 only,
concurrency {1, 4}, 8 requests per client).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

try:  # package import (pytest benchmarks/, repo-root scripts)
    from benchmarks.common import parse_csv_names, stage_rows, write_document
except ImportError:  # direct execution: python benchmarks/bench_serving.py
    from common import parse_csv_names, stage_rows, write_document

from repro.serve import EstimationServer, ServerConfig, run_load
from repro.serve.client import ServeClient, scenario_spec

#: Serving is propagation-bound on these: comp/voter/alu have 5-7x raw
#: batch leverage at K=16, c17 shows the HTTP-bound small-circuit case.
DEFAULT_CIRCUITS = ["c17", "comp", "voter", "alu"]
DEFAULT_CONCURRENCY = [1, 4, 16]

#: the three server configurations a report covers
MODES = ("unbatched", "batched", "cached")

#: Pipeline stage of every per-cell field, in emission order.
STAGES = {
    "requests": "load",
    "errors": "load",
    "scenarios_per_sec": "serve",
    "p50_latency_seconds": "serve",
    "p99_latency_seconds": "serve",
    "speedup": "serve",
    "cached_speedup": "serve",
    "mean_batch_size": "batcher",
    "deduped_requests": "batcher",
    "cache_hit_rate": "cache",
    "bitwise_equal": "accuracy",
}


def _cache_counts(server: EstimationServer) -> Tuple[int, int]:
    """(hits, misses) so far, or (0, 0) when the cache is off."""
    if server.rcache is None:
        return 0, 0
    stats = server.rcache.stats()
    return int(stats["hits"]), int(stats["misses"])


def _verify_cached_bitwise(
    server: EstimationServer, circuit: str, salt: float
) -> bool:
    """Compare a cache *hit* for the hottest scenario against a fresh
    uncached propagation, byte for byte.

    The skewed workloads all hammer scenario id 0, so after a cached
    cell has run, requesting it again replays the stored marginals
    (``result_cache_hit`` must say so).  JSON serializes float64 via
    ``repr`` which round-trips exactly, so list equality here is
    bitwise equality of the underlying doubles.
    """
    from repro.circuits import suite
    from repro.core.backend import estimate as backend_estimate
    from repro.core.inputs import input_model_from_spec

    spec = scenario_spec(0, salt)
    client = ServeClient(server.address)
    payload = client.estimate(circuit, spec, detail="distributions")
    if payload.get("result_cache_hit") is not True:
        return False
    fresh = backend_estimate(
        suite.load_circuit(circuit),
        input_model_from_spec(spec),
        backend=server.config.backend,
        cache=None,
        **server.config.options,
    )
    oracle = {
        line: [float(v) for v in dist]
        for line, dist in fresh.distributions.items()
    }
    return payload["distributions"] == oracle


def bench_mode(
    mode: str,
    circuits: List[str],
    concurrency_levels: List[int],
    requests_per_client: int,
    max_batch: int,
    linger_ms: float,
    workers: int,
    repeats: int,
    cached_workload: str,
    result_cache_entries: int,
) -> List[Dict[str, object]]:
    """One server lifetime per mode; every (circuit, concurrency) cell
    runs against it so the model pool stays warm across cells."""
    if mode == "unbatched":
        config = ServerConfig(port=0, cache=None, max_batch=1, linger_ms=0.0,
                              workers=workers, result_cache_entries=0)
    elif mode == "batched":
        config = ServerConfig(port=0, cache=None, max_batch=max_batch,
                              linger_ms=linger_ms, workers=workers,
                              result_cache_entries=0)
    else:
        config = ServerConfig(port=0, cache=None, max_batch=max_batch,
                              linger_ms=linger_ms, workers=workers,
                              result_cache_entries=result_cache_entries)
    workload = cached_workload if mode == "cached" else "uniform"
    rows: List[Dict[str, object]] = []
    with EstimationServer(config) as server:
        for name in circuits:
            for concurrency in concurrency_levels:
                # Best of ``repeats`` runs per cell (the repo-wide
                # min-over-repeats idiom): closed-loop throughput on a
                # shared box is one-sided noise -- interference only
                # ever slows it down.  Each repeat's salt changes every
                # scenario, so a cached repeat never rides the previous
                # repeat's entries; its hit rate comes from the
                # hits/misses counter deltas it contributed itself.
                best = None
                best_hit_rate: Optional[float] = None
                best_salt = 0.0
                for r in range(repeats):
                    hits0, misses0 = _cache_counts(server)
                    report = run_load(
                        server.address,
                        name,
                        mode="closed",
                        concurrency=concurrency,
                        requests=concurrency * requests_per_client,
                        salt=float(r),
                        workload=workload,
                    )
                    if best is None or report.scenarios_per_sec > best.scenarios_per_sec:
                        best = report
                        best_salt = float(r)
                        if mode == "cached":
                            hits1, misses1 = _cache_counts(server)
                            lookups = (hits1 - hits0) + (misses1 - misses0)
                            best_hit_rate = (
                                (hits1 - hits0) / lookups if lookups else 0.0
                            )
                report = best
                row: Dict[str, object] = {
                    "circuit": name,
                    "mode": mode,
                    "concurrency": concurrency,
                    "requests": report.requests,
                    "errors": report.errors,
                    "scenarios_per_sec": report.scenarios_per_sec,
                    "p50_latency_seconds": report.p50_latency_seconds,
                    "p99_latency_seconds": report.p99_latency_seconds,
                }
                if mode == "cached":
                    row["workload"] = workload
                    row["cache_hit_rate"] = best_hit_rate
                    row["bitwise_equal"] = _verify_cached_bitwise(
                        server, name, best_salt
                    )
                rows.append(row)
                hit_note = (
                    f"  hit_rate {best_hit_rate:5.2f}"
                    if best_hit_rate is not None
                    else ""
                )
                print(
                    f"{name:>10s}  {mode:>9s}  c={concurrency:<3d} "
                    f"{report.scenarios_per_sec:9.1f}/s  "
                    f"p50 {report.p50_latency_seconds * 1e3:7.1f}ms  "
                    f"p99 {report.p99_latency_seconds * 1e3:7.1f}ms"
                    + hit_note
                    + (f"  errors={report.errors}" if report.errors else "")
                )
        batcher = server.batcher.stats
        for row in rows:
            if mode in ("batched", "cached"):
                row["mean_batch_size"] = batcher.mean_batch_size()
            if mode == "cached":
                row["deduped_requests"] = batcher.deduped
    return rows


def annotate_speedups(rows: List[Dict[str, object]]) -> None:
    """Attach ``speedup`` to batched rows (batched / unbatched rate)
    and ``cached_speedup`` to cached rows (cached / batched rate)."""
    unbatched = {
        (row["circuit"], row["concurrency"]): row["scenarios_per_sec"]
        for row in rows
        if row["mode"] == "unbatched"
    }
    batched = {
        (row["circuit"], row["concurrency"]): row["scenarios_per_sec"]
        for row in rows
        if row["mode"] == "batched"
    }
    for row in rows:
        if row["mode"] == "batched":
            base = unbatched.get((row["circuit"], row["concurrency"]))
            if base:
                row["speedup"] = row["scenarios_per_sec"] / base
                print(
                    f"{row['circuit']:>10s}  c={row['concurrency']:<3d} "
                    f"batching speedup {row['speedup']:5.2f}x"
                )
        elif row["mode"] == "cached":
            base = batched.get((row["circuit"], row["concurrency"]))
            if base:
                row["cached_speedup"] = row["scenarios_per_sec"] / base
                print(
                    f"{row['circuit']:>10s}  c={row['concurrency']:<3d} "
                    f"caching speedup {row['cached_speedup']:5.2f}x "
                    f"(hit_rate {row['cache_hit_rate']:.2f})"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--circuits", default=",".join(DEFAULT_CIRCUITS),
        help="comma-separated circuit names from the Table 1 suite",
    )
    parser.add_argument(
        "--concurrency", default=",".join(map(str, DEFAULT_CONCURRENCY)),
        help="comma-separated closed-loop client counts",
    )
    parser.add_argument(
        "--requests-per-client", type=int, default=20,
        help="requests each client issues per cell (default: 20)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=16,
        help="batched-mode scenario ceiling per propagation (default: 16)",
    )
    parser.add_argument(
        "--linger-ms", type=float, default=5.0,
        help="batched-mode linger window (default: 5.0)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="batch drain threads in both modes (default: 2)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="load runs per cell; the fastest is reported (default: 3)",
    )
    parser.add_argument(
        "--cached-workload", default="zipf:1.1",
        help="scenario stream for cached-mode rows (default: zipf:1.1)",
    )
    parser.add_argument(
        "--result-cache-entries", type=int, default=4096,
        help="result-cache capacity in cached mode (default: 4096)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: c17 only, concurrency {1, 4}, "
             "8 requests per client, 1 repeat",
    )
    parser.add_argument("--output", default="BENCH_serving.json")
    args = parser.parse_args(argv)
    if args.quick:
        circuits = ["c17"]
        concurrency_levels = [1, 4]
        requests_per_client = 8
        repeats = 1
    else:
        circuits = parse_csv_names(args.circuits)
        concurrency_levels = [
            int(c) for c in parse_csv_names(args.concurrency)
        ]
        requests_per_client = args.requests_per_client
        repeats = args.repeats
    if repeats < 1:
        parser.error("--repeats must be >= 1")
    if requests_per_client < 1:
        parser.error("--requests-per-client must be >= 1")
    if any(c < 1 for c in concurrency_levels):
        parser.error("--concurrency entries must be >= 1")
    if args.result_cache_entries < 1:
        parser.error("--result-cache-entries must be >= 1 (cached mode "
                     "needs a result cache)")

    cells: List[Dict[str, object]] = []
    for mode in MODES:
        cells.extend(
            bench_mode(
                mode, circuits, concurrency_levels, requests_per_client,
                args.max_batch, args.linger_ms, args.workers, repeats,
                args.cached_workload, args.result_cache_entries,
            )
        )
    annotate_speedups(cells)

    rows = []
    for cell in cells:
        key = {"mode": cell["mode"], "concurrency": cell["concurrency"]}
        if cell.get("workload"):
            key["workload"] = cell["workload"]
        rows += stage_rows(cell["circuit"], cell, STAGES, **key)
    config = {
        "circuits": circuits,
        "concurrency": concurrency_levels,
        "requests_per_client": requests_per_client,
        "repeats": repeats,
        "max_batch": args.max_batch,
        "linger_ms": args.linger_ms,
        "workers": args.workers,
        "cached_workload": args.cached_workload,
        "result_cache_entries": args.result_cache_entries,
    }
    write_document(args.output, "serving", rows, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
