"""Resident estimation service: hot models, dynamic batching, metrics.

Every ``repro estimate`` invocation pays process startup plus compile
(or compile-cache deserialization) before the first propagation.  This
package keeps the compiled half of the paper's *compile once,
re-propagate in milliseconds* bargain resident:

- :mod:`repro.serve.pool` -- an LRU-managed in-memory pool of
  :class:`~repro.core.backend.base.CompiledModel` artifacts keyed by
  the compile-cache fingerprint, one engine per model.
- :mod:`repro.serve.batcher` -- work-conserving dynamic batching:
  concurrent clients' scenarios for one model coalesce into a single
  batched ``query_many`` propagation.  Each model's lane runs one
  batch at a time (so no two in-flight batches ever share propagation
  buffers) and lingers, up to a cap, only for as many requests as its
  last batch had.
- :mod:`repro.serve.server` -- a stdlib-only HTTP/JSON front end
  (``http.server``) with a ``/metrics`` endpoint exporting the
  ``repro.obs`` registry plus per-endpoint latency histograms.
- :mod:`repro.serve.client` -- a matching client and a closed-/open-
  loop load generator feeding ``benchmarks/bench_serving.py``.

Start one with ``repro serve``; drive it with ``repro client``.
"""

from repro.serve.batcher import BatchStats, DynamicBatcher
from repro.serve.client import (
    LoadReport,
    ServeClient,
    run_load,
    workload_scenario_ids,
)
from repro.serve.pool import ModelPool, PooledModel
from repro.serve.server import EstimationServer, ServerConfig

__all__ = [
    "BatchStats",
    "DynamicBatcher",
    "EstimationServer",
    "LoadReport",
    "ModelPool",
    "PooledModel",
    "ServeClient",
    "ServerConfig",
    "run_load",
    "workload_scenario_ids",
]
