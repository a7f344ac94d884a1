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
There is one degradation rule, and it lives in the ``auto`` backend:
one junction tree when it fits, else one segmentation.  A typed
:class:`~repro.errors.CompileError` that ``auto`` (or any backend)
raises reaches the caller unchanged, as does a
:class:`~repro.errors.PropagationError` at query time; an option the
backend's ``compile`` does not take raises
:class:`~repro.errors.UnknownOptionError`.
"""

from __future__ import annotations

import inspect
import os
from typing import Any, Optional, Sequence, Tuple, Union

from repro.circuits.netlist import Circuit
from repro.core.backend.base import CompiledModel
from repro.core.backend.cache import CompileCache, compile_fingerprint
from repro.core.backend.registry import get_backend
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.rcache import ResultCache, scenario_digest
from repro.core.validate import validate as validate_pass
from repro.core.validate import validate_many
from repro.errors import UnknownOptionError
from repro.obs.trace import get_tracer

__all__ = ["compile_model", "estimate", "estimate_many"]

CacheSpec = Union[None, bool, str, os.PathLike, CompileCache]
ResultCacheSpec = Union[None, bool, int, ResultCache]


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


def _compile_options(backend_name: str) -> Optional[frozenset]:
    """Option names a backend's ``compile`` accepts (None: any name)."""
    sig = inspect.signature(get_backend(backend_name).compile)
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()
    ):
        return None
    return frozenset(sig.parameters) - {"circuit", "inputs"}


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
    An option the backend's ``compile`` does not take raises
    :class:`~repro.errors.UnknownOptionError`.
    """
    backend_obj = get_backend(backend)
    check_options(backend_obj.name, options)
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
    validate: bool = True,
    result_cache: ResultCacheSpec = None,
    **options: Any,
):
    """Estimate switching activity in one call.

    Compiles (or cache-loads) a model and queries it with ``inputs``
    (default: independent fair-coin inputs, applied explicitly so a
    cached artifact never leaks the statistics it was compiled with).
    A typed :class:`~repro.errors.CompileError` or
    :class:`~repro.errors.PropagationError` reaches the caller
    unchanged.

    Parameters
    ----------
    result_cache:
        Optional :class:`~repro.core.rcache.ResultCache` (or ``True`` /
        max-entry count).  An exact repeat of a prior request -- same
        compile fingerprint, same canonical scenario digest -- replays
        the stored marginals bitwise-identically without propagating;
        the returned estimate carries ``result_cache_hit=True``.  Every
        result is stored: it depends only on the key.
    """
    if validate:
        validate_pass(circuit, inputs)
    query_inputs = inputs if inputs is not None else IndependentInputs(0.5)
    rcache_obj = resolve_result_cache(result_cache)
    rkey = None
    if rcache_obj is not None:
        rkey = _result_key(circuit, backend, inputs, options, query_inputs)
        replay = rcache_obj.get(rkey)
        if replay is not None:
            return replay
    model = compile_model(
        circuit, inputs, backend=backend, cache=cache, validate=False, **options
    )
    result = model.query(query_inputs)
    result.cache_hit = model.cache_hit
    if rcache_obj is not None:
        result.result_cache_hit = False
        rcache_obj.put(rkey, result)
    return result


def estimate_many(
    circuit: Circuit,
    inputs_list: Sequence[InputModel],
    backend: str = "auto",
    cache: CacheSpec = None,
    validate: bool = True,
    result_cache: ResultCacheSpec = None,
    **options: Any,
):
    """Sweep K input-statistics scenarios against one compile.

    The batched counterpart of :func:`estimate`: the circuit is
    compiled (or cache-loaded) exactly once, then every scenario in
    ``inputs_list`` is queried through
    :meth:`~repro.core.backend.base.CompiledModel.query_many`, which
    the exact backends answer with one vectorized propagation per
    pass.  Returns one ``SwitchingEstimate`` per scenario, in order.

    Every scenario must induce the same input-to-input edge structure
    as the first one (the structure is baked into the compile).
    Duplicate scenarios are propagated once, and the model splits the
    rows into passes that fit its memory budget.
    ``result_cache`` replays exact repeats of previously answered
    scenarios (see :func:`estimate`) and propagates only the misses.
    A failing backend raises its typed error directly.
    """
    models = list(inputs_list)
    if not models:
        return []
    first = models[0]
    if validate:
        validate_many(circuit, models)
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
            replay = rcache_obj.get(key)
            if replay is not None:
                hits[index] = replay
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
    results = compiled.query_many([models[i] for i in miss_indices])
    ordered = list(hits.get(i) for i in range(len(models)))
    for index, result in zip(miss_indices, results):
        result.cache_hit = compiled.cache_hit
        if rcache_obj is not None:
            result.result_cache_hit = False
            rcache_obj.put(keys[index], result)
        ordered[index] = result
    return ordered
