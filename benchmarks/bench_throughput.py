"""Multi-scenario sweep throughput: batched vs. looped, distinct vs. repeated.

Emits ``BENCH_throughput.json``, a ``repro.perf/v2`` document (kind
``throughput``).  The claim under test is that K input-statistics
queries against one compiled model should cost one batched pass (or
the few passes its memory budget allows), not K sequential
propagations; this runner measures exactly that
ratio, one row per metric keyed by ``K``:

- ``looped_scenarios_per_sec``  -- sequential ``update_inputs()`` +
  ``estimate()`` per scenario on a persistent compiled estimator: K
  separate K=1 batches through the same engine,
- ``batched_scenarios_per_sec`` -- one ``estimate_many()`` call
  propagating all K scenarios through the engine's leading batch axis,
- ``speedup``                   -- batched rate over looped rate,
- ``bitwise_equal``             -- whether the batched sweep's
  distributions match a looped full-propagation oracle bit for bit
  (checked outside the timed region on fresh compiles; a full pass is
  a pure function of the potentials, so equality is exact, not
  approximate).

Each circuit also gets one repeat-heavy point at K=64 (or the largest
configured K), keyed ``sweep=dedup`` next to ``K``: a
*low-Hamming sorted* sweep (every request perturbs only the first
primary input's statistics, and each of the K/4 operating points is
re-evaluated four times -- the synthesis-loop what-if shape) through
the default ``query_many``, which propagates each distinct scenario
once.  Repeat points carry:

- ``batched_scenarios_per_sec`` -- the point's canonical rate metric
  (scenarios/sec answered; the ``sweep`` key keeps it from colliding
  with plain batched rows),
- ``distinct_batched_scenarios_per_sec`` / ``dedup_speedup`` -- the
  plain batched row's rate at the same K (all scenarios distinct) and
  the ratio,
- ``bitwise_equal`` -- results vs. an oracle given only the distinct
  scenarios and scattered back, exact equality.

Each point's time is the minimum over ``--repeats`` samples of the
per-call time.  A sample times enough back-to-back calls to span at
least ``MIN_SAMPLE_SECONDS`` (10 ms), so sub-millisecond calls are not
lost in timer and scheduler noise; every call of every sample uses a
*different* deterministic scenario set, so no call times work an
earlier one already did (``per_call_samples`` in ``common.py``, shared
with ``bench_segmentation.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py \
        [--circuits c17,alu,comp,voter,pcler8,c432s] \
        [--batch-sizes 1,8,64,256] [--repeats 3] [--quick] \
        [--output BENCH_throughput.json]

``--quick`` shrinks the run to the CI smoke configuration (c17 only,
K in {1, 64}, 2 repeats).  Each circuit also records the compile-time
``support_density`` and ``sparse_cliques`` of the model it timed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

import numpy as np

try:  # package import (pytest benchmarks/, repo-root scripts)
    from benchmarks.common import (
        MIN_SAMPLE_SECONDS,
        parse_csv_names,
        per_call_samples,
        stage_rows,
        write_document,
    )
except ImportError:  # direct execution: python benchmarks/bench_throughput.py
    from common import (
        MIN_SAMPLE_SECONDS,
        parse_csv_names,
        per_call_samples,
        stage_rows,
        write_document,
    )

from repro.circuits import suite
from repro.core.backend import compile_model
from repro.core.inputs import IndependentInputs
from repro.perf.collect import DEFAULT_CIRCUITS, salted_scenarios

DEFAULT_BATCH_SIZES = [1, 8, 64, 256]

#: Pipeline stage of every per-point field, in emission order.
STAGES = {
    "gates": "circuit",
    "support_density": "compile",
    "sparse_cliques": "compile",
    "looped_seconds": "looped",
    "looped_scenarios_per_sec": "looped",
    "distinct_scenarios": "batched",
    "batched_seconds": "batched",
    "batched_scenarios_per_sec": "batched",
    "speedup": "batched",
    "distinct_batched_scenarios_per_sec": "batched",
    "dedup_speedup": "batched",
    "bitwise_equal": "accuracy",
    "max_abs_diff": "accuracy",
}


def _loop_sweep(estimator, models) -> None:
    for model in models:
        estimator.update_inputs(model)
        estimator.estimate()


#: golden-ratio increment for the repeat sweep's perturbed input
_PHI = 0.6180339887498949


def repeat_scenarios(circuit, k: int, salt: int, distinct: int = 0):
    """``k`` requests sweeping the *first* primary input, sorted, with
    each operating point re-evaluated ``k // distinct`` times.

    This is the skewed sweep-traffic shape of a synthesis loop scoring
    many candidates against few stimulus models: every scenario holds
    all inputs at the 0.5 default except ``circuit.inputs[0]``, whose
    ``p_one`` steps through ``distinct`` (default ``k // 4``) sorted
    low-discrepancy values, so exact repeats collapse at batch install.
    """
    if distinct <= 0:
        distinct = max(1, k // 4)
    hot = list(circuit.inputs)[0]
    values = sorted(
        0.05 + 0.9 * ((i * _PHI + salt * 0.2718 + 0.041) % 1.0)
        for i in range(distinct)
    )
    return [
        IndependentInputs({hot: values[(i * distinct) // k]})
        for i in range(k)
    ]


def _bitwise_check(circuit, k: int) -> Dict[str, object]:
    """Fresh-compile oracle: batched sweep vs. looped propagations.

    Every propagation is a full pass, a pure function of the installed
    potentials -- so the comparison is exact equality, and any
    difference is a real kernel divergence, not float noise.
    """
    models = salted_scenarios(k, salt=0)
    loop_model = compile_model(circuit)
    oracle = []
    for model in models:
        loop_model.estimator.update_inputs(model)
        oracle.append(loop_model.estimator.estimate())
    batch_model = compile_model(circuit)
    batched = batch_model.query_many(models)
    worst = 0.0
    equal = True
    for expect, got in zip(oracle, batched):
        for line, dist in expect.distributions.items():
            other = got.distributions[line]
            if not np.array_equal(dist, other):
                equal = False
                worst = max(worst, float(np.abs(dist - other).max()))
    return {"bitwise_equal": equal, "max_abs_diff": worst}


def bench_circuit(
    name: str,
    batch_sizes: List[int],
    repeats: int,
) -> List[Dict[str, object]]:
    circuit = suite.load_circuit(name)
    model = compile_model(circuit)
    estimator = model.estimator
    rows = stage_rows(
        name,
        {"gates": circuit.num_gates, **estimator.support_stats()},
        STAGES,
    )
    for k in batch_sizes:
        # Warm both paths once (outside timing) so one-time costs --
        # the batch engine allocation in particular -- are excluded.
        _loop_sweep(estimator, salted_scenarios(k, salt=repeats + 1))
        model.query_many(salted_scenarios(k, salt=repeats + 2))

        looped = min(per_call_samples(
            lambda models: _loop_sweep(estimator, models),
            lambda salt: salted_scenarios(k, salt=salt),
            repeats,
        ))
        batched = min(per_call_samples(
            model.query_many, lambda salt: salted_scenarios(k, salt=salt), repeats
        ))
        point: Dict[str, object] = {
            "looped_seconds": looped,
            "batched_seconds": batched,
            "looped_scenarios_per_sec": k / looped,
            "batched_scenarios_per_sec": k / batched,
            "speedup": looped / batched,
        }
        point.update(_bitwise_check(circuit, k))
        rows += stage_rows(name, point, STAGES, K=k)
        print(
            f"{name:>10s}  K={k:<4d} "
            f"looped {point['looped_scenarios_per_sec']:9.1f}/s  "
            f"batched {point['batched_scenarios_per_sec']:9.1f}/s  "
            f"speedup {point['speedup']:6.2f}x  "
            f"bitwise={'yes' if point['bitwise_equal'] else 'NO'}"
        )
    return rows


def _repeat_bitwise_check(circuit, k: int) -> Dict[str, object]:
    """Oracle for a repeated sweep: the distinct scenarios alone,
    scattered back to the sweep's order by hand, compared bitwise."""
    models = repeat_scenarios(circuit, k, salt=0)
    keys = [tuple(model.p_one.items()) for model in models]
    first: Dict[tuple, int] = {}
    for index, key in enumerate(keys):
        first.setdefault(key, index)
    reps = list(first.values())
    position = {key: row for row, key in enumerate(first)}
    scatter = [position[key] for key in keys]
    model = compile_model(circuit)
    rows = model.query_many([models[r] for r in reps])
    oracle = [rows[row] for row in scatter]
    got = model.query_many(models)
    worst = 0.0
    equal = True
    for expect, actual in zip(oracle, got):
        for line, dist in expect.distributions.items():
            other = actual.distributions[line]
            if not np.array_equal(dist, other):
                equal = False
                worst = max(worst, float(np.abs(dist - other).max()))
    return {"bitwise_equal": equal, "max_abs_diff": worst}


def bench_repeat_circuit(
    name: str,
    k: int,
    repeats: int,
    distinct_rate: float,
) -> List[Dict[str, object]]:
    """One repeat-heavy point: 4 copies of each of K/4 low-Hamming
    scenarios through the default ``query_many``."""
    circuit = suite.load_circuit(name)
    model = compile_model(circuit)

    # Warm once (outside timing), same protocol as the batched rows.
    model.query_many(repeat_scenarios(circuit, k, salt=repeats + 1))

    batched = min(per_call_samples(
        model.query_many,
        lambda salt: repeat_scenarios(circuit, k, salt=salt),
        repeats,
    ))
    rate = k / batched
    point: Dict[str, object] = {
        "distinct_scenarios": max(1, k // 4),
        "batched_seconds": batched,
        "batched_scenarios_per_sec": rate,
        "distinct_batched_scenarios_per_sec": distinct_rate,
        "dedup_speedup": rate / distinct_rate,
    }
    point.update(_repeat_bitwise_check(circuit, k))
    print(
        f"{name:>10s}  K={k:<4d} "
        f"repeat  {rate:9.1f}/s  "
        f"vs distinct {distinct_rate:9.1f}/s  "
        f"bitwise={'yes' if point['bitwise_equal'] else 'NO'}"
    )
    return stage_rows(name, point, STAGES, K=k, sweep="dedup")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--circuits", default=",".join(DEFAULT_CIRCUITS),
        help="comma-separated circuit names from the Table 1 suite",
    )
    parser.add_argument(
        "--batch-sizes", default=",".join(map(str, DEFAULT_BATCH_SIZES)),
        help="comma-separated scenario counts K",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: c17 only, K in {1, 64}, 2 repeats",
    )
    parser.add_argument("--output", default="BENCH_throughput.json")
    args = parser.parse_args(argv)
    if args.quick:
        circuits = ["c17"]
        batch_sizes = [1, 64]
        repeats = 2
    else:
        circuits = parse_csv_names(args.circuits)
        batch_sizes = [
            int(k) for k in parse_csv_names(args.batch_sizes)
        ]
        repeats = args.repeats
    if repeats < 1:
        parser.error("--repeats must be >= 1")
    if any(k < 1 for k in batch_sizes):
        parser.error("--batch-sizes entries must be >= 1")

    # Repeat rows need K > 1 to hold duplicates.  K=64 is the
    # canonical gated size (the committed c432s baseline row); fall
    # back to the largest configured batch when 64 is not in the sweep.
    repeat_k = 64 if 64 in batch_sizes else max(batch_sizes)

    rows: List[Dict[str, object]] = []
    for name in circuits:
        plain = bench_circuit(name, batch_sizes, repeats)
        rows += plain
        if repeat_k > 1:
            distinct_rate = next(
                r["value"]
                for r in plain
                if r["metric"] == "batched_scenarios_per_sec"
                and r["key"] == {"K": repeat_k}
            )
            rows += bench_repeat_circuit(name, repeat_k, repeats, distinct_rate)
    config = {
        "batch_sizes": batch_sizes,
        "repeats": repeats,
        "min_sample_seconds": MIN_SAMPLE_SECONDS,
    }
    write_document(args.output, "throughput", rows, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
