"""Stdlib HTTP/JSON front end over the model pool and dynamic batcher.

Endpoints (all JSON):

- ``POST /estimate`` -- ``{"circuit": name-or-path, "scenario": spec,
  "backend"?: name, "options"?: {...}}``.  The scenario spec uses the
  :func:`repro.core.inputs.input_model_from_spec` vocabulary.  The
  request joins its model's batching lane and returns that scenario's
  switching estimate.
- ``POST /estimate_many`` -- same, with ``"scenarios": [spec, ...]``;
  the scenarios are fanned into the batcher together and the response
  carries one result per scenario, in order.
- ``GET /metrics`` -- a schema-valid ``repro.obs`` report: the global
  registry snapshot (including the ``serve.latency.*`` per-endpoint
  histograms with p50/p90/p99) with pool/batcher stats in ``meta``.
- ``GET /healthz`` -- liveness plus uptime and resident-model count.

Determinism contract: every engine propagation is a *full* pass, so
each batch is a pure function of its scenario potentials.  Responses
are therefore bitwise-identical to a cold ``facade.estimate`` no
matter how requests interleave, which batches they share, or what the
model served before (the concurrency stress test pins this).  A
``ZeroBeliefError`` inside a shared batch triggers a per-scenario
retry so one degenerate scenario fails alone, not its batch-mates.

Two reuse layers ride on that purity without weakening it: the
fingerprint-keyed result cache (``repro.core.rcache``) replays the
stored marginals of a previous full pass for an exact scenario repeat
(same pool key, same canonical scenario digest), and the batcher's
single-flight dedup merges concurrent identical requests into one
batch slot.  Both key on the canonical digest of the *induced input
CPDs*, the only scenario-dependent propagation inputs, so a hit or a
merged request returns exactly the bytes a fresh propagation would
have produced.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.circuits import suite
from repro.circuits.netlist import Circuit
from repro.core.backend.facade import check_options, resolve_cache
from repro.core.estimator import SwitchingEstimate
from repro.core.rcache import ResultCache, scenario_digest
from repro.core.inputs import InputModel, InputStack, input_model_from_spec
from repro.errors import ReproError, UnknownCircuitError, ZeroBeliefError
from repro.obs.metrics import enable_metrics, get_metrics
from repro.obs.report import build_report
from repro.serve.batcher import DynamicBatcher
from repro.serve.pool import ModelPool, PoolTimeout, PooledModel

__all__ = ["EstimationServer", "ServerConfig", "install_signal_handlers"]


@dataclass
class ServerConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8337
    backend: str = "auto"
    cache: Any = True
    max_models: int = 8
    max_batch: int = 16
    linger_ms: float = 2.0
    workers: int = 2
    request_timeout: float = 60.0
    #: LRU capacity of the fingerprint-keyed result cache (exact repeat
    #: scenarios replay stored marginals without propagating); 0 turns
    #: result caching off.
    result_cache_entries: int = 4096


class EstimationServer:
    """Owns the pool, the batcher, and the HTTP listener.

    ``start()`` binds the socket (``port=0`` picks a free one; the
    bound port is ``self.port``) and serves on a background thread;
    ``serve_forever()`` serves on the calling thread (the CLI path).
    ``close()`` drains and joins everything.
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        enable_metrics(reset=False)
        self.pool = ModelPool(
            cache=resolve_cache(self.config.cache),
            max_models=self.config.max_models,
        )
        self.batcher = DynamicBatcher(
            self._run_batch,
            max_batch=self.config.max_batch,
            linger_seconds=self.config.linger_ms / 1000.0,
            workers=self.config.workers,
        )
        self.rcache: Optional[ResultCache] = (
            ResultCache(max_entries=self.config.result_cache_entries)
            if self.config.result_cache_entries > 0
            else None
        )
        self.started = time.time()
        self._circuits: Dict[str, Circuit] = {}
        self._circuits_lock = threading.Lock()
        # Exact-spec digest memo: (pool key, canonical spec JSON) ->
        # scenario digest.  A spec that repeats byte-for-byte (the
        # skewed-traffic common case) skips rebuilding its induced
        # input CPDs; a differently-spelled equivalent spec misses the
        # memo, recomputes the canonical digest, and still collides at
        # the cache-key level.  Bounded FIFO, same order of size as the
        # result cache it fronts.
        self._digest_memo: "OrderedDict[Tuple[str, str], str]" = OrderedDict()
        self._digest_memo_lock = threading.Lock()
        self._digest_memo_limit = max(
            1024, 2 * self.config.result_cache_entries
        )
        handler = _make_handler(self)
        server_cls = type(
            "ReproHTTPServer",
            (ThreadingHTTPServer,),
            # Default accept backlog is 5; a 16-client closed-loop burst
            # of fresh connections overflows it and the retransmit shows
            # up as a spurious ~1s p99.
            {"request_queue_size": 128, "daemon_threads": True},
        )
        self.httpd = server_cls((self.config.host, self.config.port), handler)
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "EstimationServer":
        self._serving = True
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving = False

    def shutdown(self) -> None:
        self.httpd.shutdown()

    def close(self) -> None:
        # shutdown() blocks on the serve loop's exit handshake and
        # would hang forever if serve_forever never ran.
        if self._serving:
            self.httpd.shutdown()
            self._serving = False
        self.httpd.server_close()
        self.batcher.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "EstimationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request handling (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def _resolve_circuit(self, spec: str) -> Circuit:
        with self._circuits_lock:
            circuit = self._circuits.get(spec)
        if circuit is not None:
            return circuit
        if spec in suite.available_circuits():
            circuit = suite.load_circuit(spec)
        else:
            path = Path(spec)
            if path.suffix == ".bench" and path.is_file():
                from repro.circuits.bench import parse_bench_file

                circuit = parse_bench_file(path)
            else:
                raise UnknownCircuitError(
                    f"unknown circuit {spec!r}: not a suite name "
                    f"({', '.join(suite.available_circuits())}) and not a "
                    ".bench file on the server"
                )
        with self._circuits_lock:
            self._circuits[spec] = circuit
        return circuit

    def _parse_scenario(self, circuit: Circuit, spec: Any) -> InputModel:
        if not isinstance(spec, dict):
            raise ReproError(f"scenario must be a spec object, got {type(spec).__name__}")
        try:
            model = input_model_from_spec(spec)
        except ReproError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise ReproError(f"malformed scenario spec: {exc}") from None
        try:
            # A one-scenario build of the stack every batch builds, so
            # admission applies the batch's own validation: bad values
            # -- out-of-range p_one, infeasible activity, a trace
            # missing an input -- fail with a 400 here instead of
            # surfacing mid-propagation as a 500.
            InputStack([model], circuit.inputs)
        except (TypeError, ValueError, KeyError) as exc:
            raise ReproError(f"malformed scenario spec: {exc}") from None
        return model

    def _scenario_key(
        self, entry: PooledModel, scenario: InputModel, raw: Any
    ) -> Tuple[str, str]:
        """``(fingerprint, digest)`` result-cache key for one scenario.

        The digest half is memoized on the spec's canonical JSON bytes:
        skewed traffic repeats specs verbatim, and rebuilding the
        induced input CPDs per request would dominate the hit path on
        wide circuits.  A differently-spelled equivalent spec misses
        the memo, pays the canonical :func:`scenario_digest` once, and
        still collides at the cache-key level.
        """
        token = None
        if isinstance(raw, dict):
            try:
                token = json.dumps(raw, sort_keys=True, separators=(",", ":"))
            except (TypeError, ValueError):
                token = None
        if token is not None:
            memo_key = (entry.key, token)
            with self._digest_memo_lock:
                digest = self._digest_memo.get(memo_key)
            if digest is not None:
                return (entry.key, digest)
        digest = scenario_digest(entry.model.circuit, scenario)
        if token is not None:
            with self._digest_memo_lock:
                self._digest_memo[memo_key] = digest
                while len(self._digest_memo) > self._digest_memo_limit:
                    self._digest_memo.popitem(last=False)
        return (entry.key, digest)

    def _lookup(
        self, entry: PooledModel, scenario: InputModel, raw: Any, detail: str
    ) -> "Tuple[Optional[Tuple[str, str]], Optional[Dict[str, Any]]]":
        """Result-cache probe for one admitted scenario.

        Returns ``(key, stored payload)``; the key is ``None`` when
        result caching is off, the payload is ``None`` on a miss.  The
        key's fingerprint half is the pool entry's compile-cache key,
        so a cached result can never outlive anything that would have
        changed the compiled model.  Marginal arrays are only copied
        out when ``detail`` actually renders them.
        """
        if self.rcache is None:
            return None, None
        key = self._scenario_key(entry, scenario, raw)
        payload = self.rcache.get(key, need_arrays=(detail == "distributions"))
        return key, payload

    def _store(
        self, key: Optional[Tuple[str, str]], result: SwitchingEstimate
    ) -> None:
        if self.rcache is not None and key is not None:
            result.result_cache_hit = False
            self.rcache.put(key, result)

    def handle_estimate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        entry, scenarios, raw, detail = self._admit(payload, one=True)
        key, cached = self._lookup(entry, scenarios[0], raw[0], detail)
        if cached is not None:
            return self._cached_payload(entry, cached, detail)
        future = self.batcher.submit(
            entry.key,
            (entry, scenarios[0]),
            dedup_key=key[1] if key is not None else None,
        )
        result = future.result(timeout=self.config.request_timeout)
        if isinstance(result, BaseException):
            raise result
        self._store(key, result)
        return self._estimate_payload(entry, result, detail)

    def handle_estimate_many(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        entry, scenarios, raw, detail = self._admit(payload, one=False)
        slots: List[Tuple[Optional[Tuple[str, str]], Any, Any]] = []
        for scenario, raw_spec in zip(scenarios, raw):
            key, cached = self._lookup(entry, scenario, raw_spec, detail)
            if cached is not None:
                slots.append((key, None, cached))
            else:
                future = self.batcher.submit(
                    entry.key,
                    (entry, scenario),
                    dedup_key=key[1] if key is not None else None,
                )
                slots.append((key, future, None))
        deadline = time.monotonic() + self.config.request_timeout
        results = []
        for key, future, cached in slots:
            if cached is not None:
                results.append(self._cached_payload(entry, cached, detail))
                continue
            result = future.result(timeout=max(0.0, deadline - time.monotonic()))
            if isinstance(result, BaseException):
                results.append(
                    {"error": {"type": type(result).__name__, "message": str(result)}}
                )
            else:
                self._store(key, result)
                results.append(self._estimate_payload(entry, result, detail))
        return {"circuit": entry.model.circuit.name, "results": results}

    _DETAILS = ("mean", "activities", "distributions")

    def _admit(
        self, payload: Dict[str, Any], one: bool
    ) -> Tuple[PooledModel, List[InputModel], List[Any], str]:
        if not isinstance(payload, dict):
            raise ReproError("request body must be a JSON object")
        spec = payload.get("circuit")
        if not isinstance(spec, str) or not spec:
            raise ReproError('request is missing a "circuit" name')
        circuit = self._resolve_circuit(spec)
        if one:
            raw = [payload.get("scenario", {"kind": "independent", "p_one": 0.5})]
        else:
            raw = payload.get("scenarios")
            if not isinstance(raw, list) or not raw:
                raise ReproError('request needs a non-empty "scenarios" list')
        scenarios = [self._parse_scenario(circuit, s) for s in raw]
        detail = payload.get("detail", "activities")
        if detail not in self._DETAILS:
            raise ReproError(
                f"unknown detail {detail!r} ({'|'.join(self._DETAILS)})"
            )
        backend = payload.get("backend", self.config.backend)
        options = check_options(backend, payload.get("options", {}))
        entry = self.pool.get(
            circuit,
            backend=backend,
            timeout=self.config.request_timeout,
            **options,
        )
        return entry, scenarios, raw, detail

    def _cached_payload(
        self, entry: PooledModel, payload: Dict[str, Any], detail: str
    ) -> Dict[str, Any]:
        """Response for a result-cache hit, rendered from the stored
        floats (no estimate materialization, no activity recompute)."""
        response = {
            "circuit": entry.model.circuit.name,
            "backend": entry.model.backend_name,
            "method": payload["method"],
            "mean_activity": payload["mean_activity"],
            "result_cache_hit": True,
        }
        if detail in ("activities", "distributions"):
            response["activities"] = payload["activities"]
        if detail == "distributions":
            response["distributions"] = {
                line: [float(v) for v in dist]
                for line, dist in payload["distributions"].items()
            }
        return response

    def _estimate_payload(
        self, entry: PooledModel, estimate: SwitchingEstimate, detail: str
    ) -> Dict[str, Any]:
        payload = {
            "circuit": entry.model.circuit.name,
            "backend": entry.model.backend_name,
            "method": estimate.method,
            "mean_activity": float(estimate.mean_activity()),
        }
        if estimate.result_cache_hit is not None:
            payload["result_cache_hit"] = estimate.result_cache_hit
        if detail in ("activities", "distributions"):
            payload["activities"] = {
                line: float(p) for line, p in estimate.activities.items()
            }
        if detail == "distributions":
            payload["distributions"] = {
                line: [float(v) for v in dist]
                for line, dist in estimate.distributions.items()
            }
        return payload

    # ------------------------------------------------------------------
    # Batch execution (called from batcher worker threads)
    # ------------------------------------------------------------------

    def _run_batch(
        self, key: str, items: List[Tuple[PooledModel, InputModel]]
    ) -> List[Any]:
        # The batcher runs one batch per lane (lane key == pool key), so
        # no other thread is inside this model's engine.
        model = items[0][0].model
        scenarios = [scenario for _, scenario in items]
        try:
            return list(model.query_many(scenarios))
        except Exception:
            if len(scenarios) == 1:
                raise
            # One bad scenario (zero-mass belief, out-of-range
            # probability -- the propagation path validates lazily)
            # must not fail the batch it happened to share; re-run
            # each scenario alone and hand the error only to its own
            # requester.  Full passes are scenario-independent, so the
            # survivors' results are unchanged.
            results: List[Any] = []
            for scenario in scenarios:
                try:
                    results.extend(model.query_many([scenario]))
                except ReproError as exc:
                    results.append(exc)
            return results

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------

    def metrics_report(self) -> Dict[str, Any]:
        return build_report(
            meta={
                "kind": "repro-serve",
                "uptime_seconds": time.time() - self.started,
                "config": {
                    "backend": self.config.backend,
                    "max_batch": self.config.max_batch,
                    "linger_ms": self.config.linger_ms,
                    "workers": self.config.workers,
                    "max_models": self.config.max_models,
                    "result_cache_entries": self.config.result_cache_entries,
                },
                "pool": self.pool.stats(),
                "batcher": {
                    "items": self.batcher.stats.items,
                    "batches": self.batcher.stats.batches,
                    "full_batches": self.batcher.stats.full_batches,
                    "deduped": self.batcher.stats.deduped,
                    "mean_batch_size": self.batcher.stats.mean_batch_size(),
                },
                "result_cache": (
                    self.rcache.stats() if self.rcache is not None else None
                ),
            }
        )

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started,
            "resident_models": self.pool.stats()["resident"],
        }


def _make_handler(server: EstimationServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        # One send() per response: a buffered writer plus TCP_NODELAY.
        # Unbuffered wfile emits headers and body as separate small
        # segments, and Nagle holds the second one for the peer's
        # delayed ACK -- a flat ~40ms stall per request on loopback.
        wbufsize = 64 * 1024
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # request logging is the metrics registry's job

        # ---------------- helpers ----------------

        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _body(self) -> Dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                return json.loads(raw.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ReproError(f"request body is not valid JSON: {exc}")

        def _dispatch(self, endpoint: str, fn) -> None:
            registry = get_metrics()
            start = time.perf_counter()
            try:
                payload = fn()
            except PoolTimeout as exc:
                self._error(endpoint, 503, exc)
            except ReproError as exc:
                self._error(endpoint, 400, exc)
            except TimeoutError as exc:
                self._error(endpoint, 503, exc)
            except Exception as exc:  # pragma: no cover - defensive
                self._error(endpoint, 500, exc)
            else:
                registry.counter(f"serve.requests.{endpoint}").inc(1)
                registry.histogram(f"serve.latency.{endpoint}").observe(
                    time.perf_counter() - start
                )
                self._send_json(200, payload)

        def _error(self, endpoint: str, status: int, exc: BaseException) -> None:
            get_metrics().counter(f"serve.errors.{endpoint}").inc(1)
            self._send_json(
                status,
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
            )

        # ---------------- routes ----------------

        def do_GET(self) -> None:
            if self.path == "/metrics":
                self._dispatch("metrics", server.metrics_report)
            elif self.path == "/healthz":
                self._dispatch("healthz", server.health)
            else:
                self._send_json(
                    404, {"error": {"type": "NotFound", "message": self.path}}
                )

        def do_POST(self) -> None:
            if self.path == "/estimate":
                self._dispatch(
                    "estimate", lambda: server.handle_estimate(self._body())
                )
            elif self.path == "/estimate_many":
                self._dispatch(
                    "estimate_many",
                    lambda: server.handle_estimate_many(self._body()),
                )
            else:
                self._send_json(
                    404, {"error": {"type": "NotFound", "message": self.path}}
                )

    return Handler


def install_signal_handlers(server: EstimationServer) -> None:
    """SIGTERM/SIGINT -> stop accepting, drain, and return from
    ``serve_forever`` so the CLI can exit 0 (the CI smoke step sends
    SIGTERM and requires a clean shutdown)."""

    def _stop(signum, frame):
        # shutdown() blocks until serve_forever returns, which would
        # deadlock inside a handler running on the serving thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
