"""Propagation-engine benchmark: compile vs. propagate vs. marginal extraction.

Emits ``BENCH_propagation.json``, a ``repro.perf/v2`` document (kind
``propagation``) -- the perf trajectory datapoint.  The paper's
headline claim is the *compile once, re-propagate in milliseconds*
split; this runner times the phases separately, one row per metric and
stage, so regressions in any one of them are visible:

- ``compile`` -- ``compile_seconds`` (LIDAG + triangulation + junction
  tree(s)) plus the compile-time support analysis
  (``support_density``, ``feasible_states``, ``total_states``,
  ``sparse_cliques``) and ``segments`` for segmented circuits,
- ``first_estimate`` -- ``first_estimate_seconds``: first calibration
  + marginal read-off,
- ``repeat`` -- ``repeat_estimate_min_seconds``, the **primary
  metric**: the minimum over ``update_inputs`` + ``estimate()`` cycles
  with fresh input statistics (the least noise-contaminated
  observation of the fast path's true cost; every cycle is kept as the
  row's ``samples`` and the mean as ``repeat_estimate_seconds``), plus
  the engine work counters of the repeat phase alone,
- ``dense`` -- the same repeat timing with ``kernel="dense"``
  (``dense_repeat_estimate_min_seconds``) and ``sparse_speedup``
  (dense over primary),
- ``extract`` -- ``marginal_extraction_seconds``: reading every line's
  4-state marginal from an already calibrated tree (single-BN only),
- ``engine`` -- the always-on :class:`PropagationCounters` totals
  (messages passed, cliques skipped versus repropagated, FLOP
  estimate, scenarios, ``factor_bytes``), so timings can be
  *explained*, not just compared; the counters are plain integer adds
  inside the engine and do not perturb the timed phases,
- ``accuracy`` -- ``mean_activity`` and ``max_abs_diff_vs_dense``
  (worst per-line distribution delta between the primary and dense
  kernels across the sweep -- the recorded exactness evidence,
  expected at the 1e-15 association-order level, hard-bounded by
  1e-12).

Usage::

    PYTHONPATH=src python benchmarks/bench_propagation.py \
        [--circuits c17,alu,comp,voter,pcler8,c432s] [--repeats 5] \
        [--kernel auto|dense|sparse] [--output BENCH_propagation.json]

Gate a fresh run against the committed baseline with ``repro perf
diff BENCH_propagation.json NEW.json``; record it into the perf store
with ``repro perf record --from NEW.json``.

Compilation goes through the backend facade: the ``"junction-tree"``
backend first, falling back to ``"segmented"`` on
:class:`CliqueBudgetExceeded` (the c432 class), exactly as the CLI
does.  Phase timings run against the raw estimator under the artifact
so the numbers measure the engine, not the facade.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Dict, List

try:  # package import (pytest benchmarks/, repo-root scripts)
    from benchmarks.common import (
        compile_estimator,
        engine_counters,
        parse_csv_names,
        stage_rows,
        write_document,
    )
except ImportError:  # direct execution: python benchmarks/bench_propagation.py
    from common import (
        compile_estimator,
        engine_counters,
        parse_csv_names,
        stage_rows,
        write_document,
    )

from repro.circuits import suite
from repro.core.inputs import IndependentInputs
from repro.core.segments import SegmentedEstimator
from repro.perf.collect import DEFAULT_CIRCUITS, SWEEP, repeat_cycles
from repro.perf.store import row

#: Pipeline stage of every per-circuit field, in emission order.
STAGES = {
    "gates": "circuit",
    "lines": "circuit",
    "compile_seconds": "compile",
    "segments": "compile",
    "support_density": "compile",
    "feasible_states": "compile",
    "total_states": "compile",
    "sparse_cliques": "compile",
    "first_estimate_seconds": "first_estimate",
    "repeat_estimate_min_seconds": "repeat",
    "repeat_estimate_seconds": "repeat",
    "dense_repeat_estimate_min_seconds": "dense",
    "sparse_speedup": "dense",
    "marginal_extraction_seconds": "extract",
    "mean_activity": "accuracy",
    "max_abs_diff_vs_dense": "accuracy",
}

#: Engine-counter row names -> :class:`PropagationCounters` fields.
COUNTERS = {
    "messages_passed": "messages",
    "cliques_repropagated": "cliques_repropagated",
    "cliques_skipped": "cliques_skipped",
    "flop_estimate": "flops",
}


def _extract_marginals(estimator, lines: List[str]) -> float:
    """Seconds to read every line marginal from a calibrated tree in
    one :meth:`JunctionTree.marginals` sweep."""
    jt = estimator.junction_tree
    start = time.perf_counter()
    jt.marginals(lines)
    return time.perf_counter() - start


def _max_abs_diff(estimator_a, estimator_b) -> float:
    """Worst per-line distribution delta between two estimators' sweeps."""
    worst = 0.0
    for p in SWEEP:
        model = IndependentInputs(p)
        estimator_a.update_inputs(model)
        estimator_b.update_inputs(model)
        got = estimator_a.estimate().distributions
        ref = estimator_b.estimate().distributions
        for line, dist in ref.items():
            delta = float(abs(dist - got[line]).max())
            if delta > worst:
                worst = delta
    return worst


def bench_circuit(
    name: str, repeats: int, parallelism: int, kernel: str = "auto"
) -> List[Dict[str, object]]:
    circuit = suite.load_circuit(name)
    fields: Dict[str, object] = {
        "gates": circuit.num_gates,
        "lines": len(circuit.lines),
    }

    start = time.perf_counter()
    estimator, method = compile_estimator(circuit, parallelism, kernel)
    fields["compile_seconds"] = time.perf_counter() - start
    if method == "segmented":
        fields["segments"] = estimator.num_segments
    fields.update(estimator.support_stats())

    start = time.perf_counter()
    first = estimator.estimate()
    fields["first_estimate_seconds"] = time.perf_counter() - start
    after_first = engine_counters(estimator)

    cycle_seconds = repeat_cycles(estimator, repeats)
    fields["repeat_estimate_seconds"] = statistics.mean(cycle_seconds)
    fields["repeat_estimate_min_seconds"] = min(cycle_seconds)

    # Dense-kernel comparison over the same sweep: the speedup the
    # packed kernels buy, and the recorded evidence that they change
    # nothing (worst per-line delta, expected at float association-
    # order level).
    if kernel != "dense":
        dense, _ = compile_estimator(circuit, parallelism, "dense")
        dense.estimate()  # first calibration outside the timed region
        dense_cycles = repeat_cycles(dense, repeats)
        fields["dense_repeat_estimate_min_seconds"] = min(dense_cycles)
        fields["max_abs_diff_vs_dense"] = _max_abs_diff(estimator, dense)
    else:
        fields["dense_repeat_estimate_min_seconds"] = min(cycle_seconds)
        fields["max_abs_diff_vs_dense"] = 0.0
    fields["sparse_speedup"] = (
        fields["dense_repeat_estimate_min_seconds"]
        / fields["repeat_estimate_min_seconds"]
    )

    if not isinstance(estimator, SegmentedEstimator):
        fields["marginal_extraction_seconds"] = _extract_marginals(
            estimator, list(circuit.lines)
        )
    fields["mean_activity"] = first.mean_activity()

    print(
        f"{name:>10s}  {method:>9s}  "
        f"compile {fields['compile_seconds']:7.3f}s  "
        f"first {fields['first_estimate_seconds']:7.3f}s  "
        f"repeat(min) {fields['repeat_estimate_min_seconds']:7.3f}s  "
        f"dense(min) {fields['dense_repeat_estimate_min_seconds']:7.3f}s  "
        f"x{fields['sparse_speedup']:5.2f}  "
        f"density {fields['support_density']:5.3f}  "
        f"diff {fields['max_abs_diff_vs_dense']:.1e}"
    )
    rows = stage_rows(
        name, fields, STAGES,
        samples={"repeat_estimate_min_seconds": cycle_seconds},
    )

    # Cumulative totals, then repeat-phase deltas: the latter isolate
    # the dirty-clique fast path (the skipped count is the work the
    # engine *avoided* re-doing).
    totals = engine_counters(estimator)
    engine = {metric: totals[field] for metric, field in COUNTERS.items()}
    engine["scenarios_propagated"] = totals["scenarios_propagated"]
    engine["potentials_unchanged"] = totals["potentials_unchanged"]
    engine["factor_bytes"] = estimator.factor_bytes()
    repeat = {
        metric: totals[field] - after_first[field]
        for metric, field in COUNTERS.items()
    }
    rows += [row(name, "engine", metric, v) for metric, v in engine.items()]
    rows += [row(name, "repeat", metric, v) for metric, v in repeat.items()]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--circuits", default=",".join(DEFAULT_CIRCUITS),
        help="comma-separated circuit names from the Table 1 suite",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--parallelism", type=int, default=0,
        help="worker threads for segmented circuits (0 = serial)",
    )
    parser.add_argument(
        "--kernel", default="auto", choices=("auto", "dense", "sparse"),
        help="message-kernel mode for the primary run",
    )
    parser.add_argument("--output", default="BENCH_propagation.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    rows = []
    for name in parse_csv_names(args.circuits):
        rows += bench_circuit(name, args.repeats, args.parallelism, args.kernel)
    config = {
        "repeats": args.repeats,
        "parallelism": args.parallelism,
        "kernel": args.kernel,
    }
    write_document(args.output, "propagation", rows, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
