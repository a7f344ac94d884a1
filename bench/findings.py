"""Reproduce the accuracy and memory findings quoted in ``bench/README.md``.

From the repository root (about a minute, peak memory about 1.5 GB)::

    PYTHONPATH=src python bench/findings.py

Prints, against the committed oracles of the check set:

- voter: the ``auto`` backend (segmented above 60 gates) versus the
  single junction tree, which fits the clique budget;
- c432s: peak RSS after one single query, then after one K=64
  ``query_many``;
- c432s and layered500: ``refine=0`` versus ``refine=2`` median time of
  a single query, error, and the refinement's last boundary delta.
"""

from __future__ import annotations

import resource
import time

import common

import repro


def check(model, circuit, oracles):
    """Single queries of the check set: ``(largest |activity - oracle|,
    last estimate, median seconds per query)``."""
    worst, last, seconds = 0.0, None, []
    for label, spec in common.check_specs(circuit.inputs):
        entry = common.oracle_for(oracles, circuit, label, spec)
        start = time.perf_counter()
        last = model.query(common.spec_model(spec))
        seconds.append(time.perf_counter() - start)
        worst = max(worst, max(abs(last.switching(ln) - a) for ln, a in entry["activity"].items()))
    return worst, last, statistics.median(seconds)


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    oracles = common.load_oracles()

    voter = common.load_circuit("voter")
    for backend in ("auto", "junction-tree"):
        error, result, _ = check(repro.compile_model(voter, backend=backend), voter, oracles)
        print(f"voter {backend:<14} method={result.method:<10} max_abs_error={error:.4f}")

    c432s = common.load_circuit("c432s")
    model = repro.compile_model(c432s)
    uniform = common.spec_model(common.check_specs(c432s.inputs)[0][1])
    model.query(uniform)
    print(f"c432s auto peak RSS after one query:          {rss_mb():7.0f} MB")
    model.query_many([uniform] * common.SWEEP_K)
    print(f"c432s auto peak RSS after K={common.SWEEP_K} query_many: {rss_mb():7.0f} MB")
    del model

    for name in ("c432s", "layered500"):
        circuit = common.load_circuit(name)
        for refine in (0, common.REFINE_ITERATIONS):
            error, result, seconds = check(repro.compile_model(circuit, refine=refine), circuit, oracles)
            print(
                f"{name:<10} refine={refine} query={1e3 * seconds:7.1f} ms "
                f"max_abs_error={error:.4f} iterations={result.refine_iterations} "
                f"refine_delta={result.refine_delta:.3g}"
            )


if __name__ == "__main__":
    main()
