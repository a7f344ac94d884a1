"""The one front door of the estimation stack.

Every consumer -- CLI subcommands, the experiment scripts, benchmarks,
library users -- estimates switching activity through two functions::

    from repro import estimate

    result = estimate(circuit, inputs, backend="auto")

or, when the compile should be reused across queries or processes::

    from repro import compile_model

    model = compile_model(circuit, backend="junction-tree", cache=True)
    result = model.query(inputs)

``cache`` accepts ``None``/``False`` (no cache), ``True`` (the default
on-disk location), a directory path, or a
:class:`~repro.core.backend.cache.CompileCache` instance.

Both entry points run the :mod:`repro.core.validate` pass first, so a
malformed circuit or input model fails with a typed
:class:`~repro.errors.ReproError` before any backend work starts.
:func:`estimate` additionally supports *graceful degradation*: a
``fallback`` chain of backend names tried in order whenever a backend
raises a typed :class:`~repro.errors.CompileError` (or a
:class:`~repro.errors.PropagationError` at query time), plus an
optional wall-clock ``budget_seconds`` that, once exhausted, jumps
straight to the chain's last (cheapest) entry.  Every degradation step
increments the ``estimate.fallback`` obs counter and is surfaced on
``SwitchingEstimate.fallbacks``.
"""

from __future__ import annotations

import inspect
import os
import time
from typing import Any, Optional, Sequence, Tuple, Union

from repro.circuits.netlist import Circuit
from repro.core.backend.base import CompiledModel
from repro.core.backend.cache import CompileCache, compile_fingerprint
from repro.core.backend.registry import get_backend
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.rcache import ResultCache, scenario_digest
from repro.core.validate import validate as validate_pass
from repro.errors import (
    CompileError,
    FallbackExhausted,
    PropagationError,
    UnknownOptionError,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

__all__ = ["DEFAULT_FALLBACK_CHAIN", "compile_model", "estimate", "estimate_many"]

CacheSpec = Union[None, bool, str, os.PathLike, CompileCache]
FallbackSpec = Union[None, bool, str, Sequence[str]]
ResultCacheSpec = Union[None, bool, int, ResultCache]

#: The degradation ladder used by ``fallback=True``: exact single-BN
#: first, the segmented approximation next, and the cheap local-cone
#: baseline as the last resort that always compiles.
DEFAULT_FALLBACK_CHAIN: Tuple[str, ...] = (
    "junction-tree",
    "segmented",
    "local-cone",
)


def resolve_cache(cache: CacheSpec) -> Optional[CompileCache]:
    """Normalize the ``cache`` argument to a :class:`CompileCache`."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return CompileCache()
    if isinstance(cache, CompileCache):
        return cache
    return CompileCache(cache)


def resolve_result_cache(result_cache: ResultCacheSpec) -> Optional[ResultCache]:
    """Normalize the ``result_cache`` argument to a :class:`ResultCache`.

    ``None``/``False`` disable result caching, ``True`` builds a cache
    with the default capacity, an ``int`` sets ``max_entries``, and a
    :class:`ResultCache` instance is used as-is (share one across calls
    to actually get hits).
    """
    if result_cache is None or result_cache is False:
        return None
    if result_cache is True:
        return ResultCache()
    if isinstance(result_cache, ResultCache):
        return result_cache
    return ResultCache(max_entries=int(result_cache))


def _result_key(
    circuit: Circuit,
    backend: str,
    inputs: Optional[InputModel],
    options: dict,
    query_inputs: InputModel,
) -> Tuple[str, str]:
    """``(compile fingerprint, scenario digest)`` result-cache key.

    The fingerprint half is exactly the compile-cache content key of
    the *requested* backend and options, so anything that would have
    produced a different compiled model (circuit edit, backend or
    option change, input-structure change, artifact schema bump) also
    misses the result cache.
    """
    backend_obj = get_backend(backend)
    fingerprint = compile_fingerprint(
        circuit,
        backend_obj.name,
        inputs,
        backend_obj.cache_token(**options),
    )
    return fingerprint, scenario_digest(circuit, query_inputs)


def _replay_result(payload: dict, compiled_cache_hit: Optional[bool] = None):
    """Materialize a cached payload as a fresh :class:`SwitchingEstimate`."""
    from repro.core.rcache import replay_estimate

    result = replay_estimate(payload)
    result.cache_hit = compiled_cache_hit
    return result


def _resolve_chain(backend: str, fallback: FallbackSpec) -> Tuple[str, ...]:
    """The ordered list of backends :func:`estimate` may try."""
    if fallback is None or fallback is False:
        return (backend,)
    if fallback is True:
        extra = DEFAULT_FALLBACK_CHAIN
    elif isinstance(fallback, str):
        extra = (fallback,)
    else:
        extra = tuple(fallback)
    chain = [backend]
    for name in extra:
        if name not in chain:
            chain.append(name)
    return tuple(chain)


def _record_fallback(backend_name: str, reason: str) -> None:
    registry = get_metrics()
    if registry.enabled:
        registry.counter("estimate.fallback").inc(1)


def _compile_options(backend_name: str) -> Optional[frozenset]:
    """Option names a backend's ``compile`` accepts (None: any name)."""
    sig = inspect.signature(get_backend(backend_name).compile)
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()
    ):
        return None
    return frozenset(sig.parameters) - {"circuit", "inputs"}


def _supported_options(backend_name: str, options: dict) -> dict:
    """Restrict ``options`` to what a backend's ``compile`` accepts.

    Chain entries have different compile signatures (the junction-tree
    budget knob means nothing to the enumeration oracle); a degradation
    step must not die on a ``TypeError`` for an option that only
    applied to an earlier entry.
    """
    if not options:
        return options
    accepted = _compile_options(backend_name)
    if accepted is None:
        return options
    return {k: v for k, v in options.items() if k in accepted}


def check_options(backend_name: str, options: Any) -> dict:
    """Validate untrusted compile ``options`` against one backend.

    Raises :class:`~repro.errors.UnknownOptionError` when ``options`` is
    not a mapping or names a parameter the backend's ``compile`` does
    not take (a backend taking ``**options`` accepts any name).
    """
    if not isinstance(options, dict):
        raise UnknownOptionError(
            f"options must be an object, not {type(options).__name__}"
        )
    accepted = _compile_options(backend_name)
    unknown = sorted(set(options) - accepted) if accepted is not None else []
    if unknown:
        raise UnknownOptionError(
            f"backend {backend_name!r} does not accept option(s) "
            f"{', '.join(map(repr, unknown))}; it takes "
            f"{', '.join(sorted(accepted)) or 'none'}"
        )
    return options


def compile_model(
    circuit: Circuit,
    inputs: Optional[InputModel] = None,
    backend: str = "auto",
    cache: CacheSpec = None,
    validate: bool = True,
    **options: Any,
) -> CompiledModel:
    """Compile ``circuit`` with the named backend, via the cache if any.

    Returns a :class:`~repro.core.backend.base.CompiledModel` whose
    ``cache_hit`` attribute records how it was obtained (``None`` when
    no cache was consulted).  ``validate=False`` skips the strict
    validation pass (used internally when the caller already ran it).
    """
    backend_obj = get_backend(backend)
    if validate:
        validate_pass(circuit, inputs)
    cache_obj = resolve_cache(cache)
    key = None
    if cache_obj is not None:
        key = cache_obj.key_for(
            circuit,
            backend_obj.name,
            inputs,
            backend_obj.cache_token(**options),
        )
        model = cache_obj.get(key)
        if model is not None:
            model.cache_hit = True
            return model
    with get_tracer().span(
        "backend.compile",
        backend=backend_obj.name,
        circuit=circuit.name,
        cache="miss" if cache_obj is not None else "off",
    ):
        model = backend_obj.compile(circuit, inputs, **options)
    if cache_obj is not None:
        cache_obj.put(key, model)
        model.cache_hit = False
    return model


def estimate(
    circuit: Circuit,
    inputs: Optional[InputModel] = None,
    backend: str = "auto",
    cache: CacheSpec = None,
    fallback: FallbackSpec = None,
    budget_seconds: Optional[float] = None,
    validate: bool = True,
    result_cache: ResultCacheSpec = None,
    **options: Any,
):
    """Estimate switching activity in one call.

    Compiles (or cache-loads) a model and queries it with ``inputs``
    (default: independent fair-coin inputs, applied explicitly so a
    cached artifact never leaks the statistics it was compiled with).

    Parameters
    ----------
    result_cache:
        Optional :class:`~repro.core.rcache.ResultCache` (or ``True`` /
        max-entry count).  An exact repeat of a prior request -- same
        compile fingerprint, same canonical scenario digest -- replays
        the stored marginals bitwise-identically without propagating;
        the returned estimate carries ``result_cache_hit=True``.  Only
        clean results are stored: an estimate produced through a
        degradation step (``fallbacks`` nonempty, which may depend on
        ``budget_seconds`` wall-clock) is never cached.
    fallback:
        ``True`` for the default degradation chain
        (:data:`DEFAULT_FALLBACK_CHAIN`), or a backend name / sequence
        of names to try after ``backend``.  Each attempt that fails
        with a typed :class:`~repro.errors.CompileError` or
        :class:`~repro.errors.PropagationError` advances the chain;
        when every entry fails, :class:`~repro.errors.FallbackExhausted`
        is raised from the last failure.  Without ``fallback``, the
        first failure propagates unchanged.
    budget_seconds:
        Optional wall-clock budget.  Once exceeded, remaining chain
        entries are skipped and the *last* entry (the cheapest
        degradation) is used directly.
    """
    chain = _resolve_chain(backend, fallback)
    if validate:
        validate_pass(circuit, inputs)
    query_inputs = inputs if inputs is not None else IndependentInputs(0.5)
    rcache_obj = resolve_result_cache(result_cache)
    rkey = None
    if rcache_obj is not None:
        rkey = _result_key(circuit, backend, inputs, options, query_inputs)
        payload = rcache_obj.get(rkey)
        if payload is not None:
            return _replay_result(payload)
    start = time.perf_counter()
    events: list = []
    last_error: Optional[Exception] = None
    i = 0
    while i < len(chain):
        name = chain[i]
        is_last = i == len(chain) - 1
        if (
            not is_last
            and budget_seconds is not None
            and time.perf_counter() - start > budget_seconds
        ):
            events.append((name, "budget exhausted"))
            _record_fallback(name, "budget exhausted")
            i = len(chain) - 1
            continue
        try:
            opts = options if len(chain) == 1 else _supported_options(name, options)
            model = compile_model(
                circuit,
                inputs,
                backend=name,
                cache=cache,
                validate=False,
                **opts,
            )
            result = model.query(query_inputs)
        except (CompileError, PropagationError) as exc:
            if len(chain) == 1:
                raise
            last_error = exc
            reason = f"{type(exc).__name__}: {exc}"
            if is_last:
                raise FallbackExhausted(
                    f"{circuit.name}: every backend in the fallback chain "
                    f"{list(chain)} failed (last: {reason})"
                ) from last_error
            events.append((name, reason))
            _record_fallback(name, reason)
            i += 1
            continue
        result.fallbacks = tuple(events)
        result.cache_hit = model.cache_hit
        if rcache_obj is not None:
            result.result_cache_hit = False
            if not events:
                rcache_obj.put(rkey, result)
        return result
    raise FallbackExhausted(  # pragma: no cover - chain is never empty
        f"{circuit.name}: empty fallback chain"
    )


def estimate_many(
    circuit: Circuit,
    inputs_list: Sequence[InputModel],
    backend: str = "auto",
    cache: CacheSpec = None,
    batch_size: Optional[int] = None,
    validate: bool = True,
    result_cache: ResultCacheSpec = None,
    **options: Any,
):
    """Sweep K input-statistics scenarios against one compile.

    The batched counterpart of :func:`estimate`: the circuit is
    compiled (or cache-loaded) exactly once, then every scenario in
    ``inputs_list`` is queried through
    :meth:`~repro.core.backend.base.CompiledModel.query_many`, which
    the exact backends answer with a single vectorized propagation per
    batch.  Returns one ``SwitchingEstimate`` per scenario, in order.

    Every scenario must induce the same input-to-input edge structure
    as the first one (the structure is baked into the compile).
    ``batch_size`` chunks the sweep to bound propagation memory
    (``batch_size x`` the one-row engine footprint); ``None``
    propagates all K scenarios in one batch.  Duplicate scenarios
    within a batch are propagated once.
    ``result_cache`` replays exact repeats of previously answered
    scenarios (see :func:`estimate`) and propagates only the misses, in
    one batch.
    There is no fallback chain here -- a failing backend raises its
    typed error directly.
    """
    models = list(inputs_list)
    if not models:
        return []
    first = models[0]
    if validate:
        for model in models:
            validate_pass(circuit, model)
    rcache_obj = resolve_result_cache(result_cache)
    keys = None
    hits: dict = {}
    if rcache_obj is not None:
        backend_obj = get_backend(backend)
        fingerprint = compile_fingerprint(
            circuit,
            backend_obj.name,
            first,
            backend_obj.cache_token(**options),
        )
        keys = [(fingerprint, scenario_digest(circuit, m)) for m in models]
        for index, key in enumerate(keys):
            payload = rcache_obj.get(key)
            if payload is not None:
                hits[index] = _replay_result(payload)
        if len(hits) == len(models):
            return [hits[index] for index in range(len(models))]
    miss_indices = [i for i in range(len(models)) if i not in hits]
    compiled = compile_model(
        circuit,
        first,
        backend=backend,
        cache=cache,
        validate=False,
        **options,
    )
    results = compiled.query_many(
        [models[i] for i in miss_indices],
        batch_size=batch_size,
    )
    ordered = list(hits.get(i) for i in range(len(models)))
    for index, result in zip(miss_indices, results):
        result.cache_hit = compiled.cache_hit
        result.fallbacks = ()
        if rcache_obj is not None:
            result.result_cache_hit = False
            rcache_obj.put(keys[index], result)
        ordered[index] = result
    return ordered
