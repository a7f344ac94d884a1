"""Multi-scenario sweep throughput: batched vs. looped, distinct vs. repeated.

Emits ``BENCH_throughput.json`` (schema version 4).  PR 5's tentpole
claim is that K input-statistics queries against one compiled model
should cost one batched einsum pass, not K sequential propagations;
this runner measures exactly that ratio:

- ``looped_scenarios_per_sec``  -- sequential ``update_inputs()`` +
  ``estimate()`` per scenario on a persistent compiled estimator: K
  separate K=1 batches through the same engine, dirty-clique tracking
  and all,
- ``batched_scenarios_per_sec`` -- one ``estimate_many()`` call
  propagating all K scenarios through the engine's leading batch axis,
- ``speedup``                   -- batched rate over looped rate,
- ``bitwise_equal``             -- whether the batched sweep's
  distributions match a looped full-propagation oracle bit for bit
  (checked outside the timed region on fresh compiles; a full pass is
  a pure function of the potentials, so equality is exact, not
  approximate).

Each circuit also gets one repeat-heavy row at K=64 (or the largest
configured K), tagged ``"sweep": "delta"`` so ``repro perf diff`` keeps
matching it against rows recorded before duplicate collapse existed: a
*low-Hamming sorted* sweep (every request perturbs only the first
primary input's statistics, and each of the K/4 operating points is
re-evaluated four times -- the synthesis-loop what-if shape) through
the default ``query_many``, which propagates each distinct scenario
once.  Repeat rows carry:

- ``batched_scenarios_per_sec`` -- the row's canonical rate metric
  (scenarios/sec answered; the ``sweep`` tag in the row key keeps it
  from colliding with plain batched rows),
- ``distinct_batched_scenarios_per_sec`` / ``dedup_speedup`` -- the
  plain batched row's rate at the same K (all scenarios distinct) and
  the ratio,
- ``bitwise_equal`` -- results vs. a *fresh-compile* oracle given only
  the distinct scenarios and scattered back, exact equality.

Each timing repeat uses a *different* deterministic scenario set so
the skip-unchanged-potential fast path never turns a repeat into a
no-op; the minimum over repeats is reported (least noise).

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py \
        [--circuits c17,alu,comp,voter,pcler8,c432s] \
        [--batch-sizes 1,8,64,256] [--repeats 3] [--quick] \
        [--output BENCH_throughput.json] [--store .repro-perf]

``--quick`` shrinks the run to the CI smoke configuration (c17 only,
K in {1, 64}, 2 repeats).  ``--store DIR`` additionally records the
run into the perf profile store (see ``repro perf``), so the datapoint
joins the version trajectory without a separate ``repro perf record``
pass.

Since schema version 2 compiles are kernel-aware (``--kernel``, default
``auto`` -- the sparse message-kernel path) and every row records the
``kernel`` mode plus the compile-time ``support_density`` and
``sparse_cliques`` of the model it timed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict, List

import numpy as np

try:  # package import (pytest benchmarks/, repo-root scripts)
    from benchmarks.common import (
        DEFAULT_CIRCUITS,
        add_store_argument,
        compile_or_fallback,
        parse_csv_names,
        salted_scenarios,
        store_report,
        timed,
    )
except ImportError:  # direct execution: python benchmarks/bench_throughput.py
    from common import (
        DEFAULT_CIRCUITS,
        add_store_argument,
        compile_or_fallback,
        parse_csv_names,
        salted_scenarios,
        store_report,
        timed,
    )

from repro.bayesian.junction import group_scenarios
from repro.circuits import suite
from repro.core.inputs import IndependentInputs

DEFAULT_BATCH_SIZES = [1, 8, 64, 256]

#: Bump when the emitted JSON shape changes (v2: kernel-aware
#: compiles; rows carry ``kernel``, ``support_density`` and
#: ``sparse_cliques`` from the compile-time support analysis.
#: v3: low-Hamming ``"sweep": "delta"`` rows with ``delta_speedup``.
#: v4: those rows time the default ``query_many`` and carry
#: ``dedup_speedup`` against the distinct-scenario rate).
BENCH_SCHEMA_VERSION = 4


def _loop_sweep(estimator, models) -> None:
    for model in models:
        estimator.update_inputs(model)
        estimator.estimate()


#: golden-ratio increment for the repeat sweep's perturbed input
_PHI = 0.6180339887498949


def delta_scenarios(circuit, k: int, salt: int, distinct: int = 0):
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


def _bitwise_check(
    circuit, parallelism: int, k: int, kernel: str
) -> Dict[str, object]:
    """Fresh-compile oracle: batched sweep vs. looped full propagations.

    Both sides force complete propagations (``reset_propagation`` marks
    every clique dirty), making each result a pure function of the
    installed potentials -- so the comparison is exact equality, and
    any difference is a real kernel divergence, not float noise.
    """
    models = salted_scenarios(k, salt=0)
    loop_model, _ = compile_or_fallback(circuit, parallelism, kernel)
    oracle = []
    for model in models:
        loop_model.estimator.reset_propagation()
        loop_model.estimator.update_inputs(model)
        oracle.append(loop_model.estimator.estimate())
    batch_model, _ = compile_or_fallback(circuit, parallelism, kernel)
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
    parallelism: int,
    kernel: str = "auto",
) -> List[Dict[str, object]]:
    circuit = suite.load_circuit(name)
    model, method = compile_or_fallback(circuit, parallelism, kernel)
    estimator = model.estimator
    stats = (
        estimator.support_stats()
        if hasattr(estimator, "support_stats")
        else {"support_density": 1.0, "sparse_cliques": 0}
    )
    rows: List[Dict[str, object]] = []
    for k in batch_sizes:
        # Warm both paths once (outside timing) so one-time costs --
        # the batch engine allocation in particular -- are excluded.
        _loop_sweep(estimator, salted_scenarios(k, salt=repeats + 1))
        model.query_many(salted_scenarios(k, salt=repeats + 2))

        looped = min(
            timed(_loop_sweep, estimator, salted_scenarios(k, salt=r))
            for r in range(repeats)
        )
        batched = min(
            timed(model.query_many, salted_scenarios(k, salt=r))
            for r in range(repeats)
        )
        row: Dict[str, object] = {
            "circuit": name,
            "gates": circuit.num_gates,
            "method": method,
            "kernel": kernel,
            "support_density": stats["support_density"],
            "sparse_cliques": stats["sparse_cliques"],
            "batch_size": k,
            "looped_seconds": looped,
            "batched_seconds": batched,
            "looped_scenarios_per_sec": k / looped,
            "batched_scenarios_per_sec": k / batched,
            "speedup": looped / batched,
        }
        row.update(_bitwise_check(circuit, parallelism, k, kernel))
        rows.append(row)
        print(
            f"{name:>10s}  K={k:<4d} "
            f"looped {row['looped_scenarios_per_sec']:9.1f}/s  "
            f"batched {row['batched_scenarios_per_sec']:9.1f}/s  "
            f"speedup {row['speedup']:6.2f}x  "
            f"bitwise={'yes' if row['bitwise_equal'] else 'NO'}"
        )
    return rows


def _repeat_bitwise_check(
    circuit, parallelism: int, k: int, kernel: str
) -> Dict[str, object]:
    """Fresh-compile oracle for a repeated sweep: the distinct scenarios
    alone, scattered back to the sweep's order by hand.

    Both sides are *fresh* estimators: a reused one carries the
    documented 1-ULP dirty-path drift across sweeps, which would make
    the comparison measure that noise instead of the collapse.
    """
    models = delta_scenarios(circuit, k, salt=0)
    reps, scatter = group_scenarios(
        [tuple(model.p_one.items()) for model in models]
    )
    oracle_model, _ = compile_or_fallback(circuit, parallelism, kernel)
    rows = oracle_model.query_many([models[r] for r in reps])
    oracle = [rows[row] for row in scatter]
    fresh_model, _ = compile_or_fallback(circuit, parallelism, kernel)
    got = fresh_model.query_many(models)
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
    parallelism: int,
    kernel: str,
    distinct_rate: float,
) -> Dict[str, object]:
    """One repeat-heavy row: 4 copies of each of K/4 low-Hamming
    scenarios through the default ``query_many``."""
    circuit = suite.load_circuit(name)
    model, method = compile_or_fallback(circuit, parallelism, kernel)

    # Warm once (outside timing), same protocol as the batched rows.
    model.query_many(delta_scenarios(circuit, k, salt=repeats + 1))

    batched = min(
        timed(model.query_many, delta_scenarios(circuit, k, salt=r))
        for r in range(repeats)
    )
    rate = k / batched
    row: Dict[str, object] = {
        "circuit": name,
        "gates": circuit.num_gates,
        "method": method,
        "kernel": kernel,
        "batch_size": k,
        "sweep": "delta",
        "distinct_scenarios": max(1, k // 4),
        "batched_seconds": batched,
        "batched_scenarios_per_sec": rate,
        "distinct_batched_scenarios_per_sec": distinct_rate,
        "dedup_speedup": rate / distinct_rate,
    }
    row.update(_repeat_bitwise_check(circuit, parallelism, k, kernel))
    print(
        f"{name:>10s}  K={k:<4d} "
        f"repeat  {rate:9.1f}/s  "
        f"vs distinct {distinct_rate:9.1f}/s  "
        f"bitwise={'yes' if row['bitwise_equal'] else 'NO'}"
    )
    return row


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
        "--parallelism", type=int, default=0,
        help="worker threads for segmented circuits (0 = serial)",
    )
    parser.add_argument(
        "--kernel", default="auto", choices=("auto", "dense", "sparse"),
        help="message-kernel mode for every compile",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: c17 only, K in {1, 64}, 2 repeats",
    )
    parser.add_argument("--output", default="BENCH_throughput.json")
    add_store_argument(parser)
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
        plain = bench_circuit(
            name, batch_sizes, repeats, args.parallelism, args.kernel
        )
        rows.extend(plain)
        if repeat_k > 1:
            distinct_rate = next(
                r["batched_scenarios_per_sec"]
                for r in plain
                if r["batch_size"] == repeat_k
            )
            rows.append(
                bench_repeat_circuit(
                    name, repeat_k, repeats, args.parallelism, args.kernel,
                    distinct_rate,
                )
            )

    report = {
        "benchmark": "throughput",
        "schema_version": BENCH_SCHEMA_VERSION,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    if args.store:
        store_report(args.store, "throughput", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
