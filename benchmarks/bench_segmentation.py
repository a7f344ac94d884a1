"""Segment-graph scaling benchmark: error and time vs refine iterations.

Emits ``BENCH_segmentation.json``, a ``repro.perf/v2`` document (kind
``segmentation``) -- the scaling-tier perf datapoint.  DESIGN.md
section 14's claim is that iterative boundary refinement buys back
cut-induced error at a bounded propagation cost; this runner records
both sides of that trade per ``(circuit, refine)`` point, one row per
metric keyed by ``refine``:

- ``compile_seconds``              -- partition + per-segment compile
  (at ``refine > 0`` this includes glue-cone compilation),
- ``repeat_estimate_min_seconds``  -- minimum over ``--repeats``
  samples of the per-cycle time of ``update_inputs`` + ``estimate``
  (the primary regression metric; refinement cost is inside the
  estimate).  Each sample spans at least ``MIN_SAMPLE_SECONDS`` of
  back-to-back cycles over salted scenarios, the protocol
  ``bench_throughput.py`` uses, so millisecond points are not lost in
  timer and scheduler noise,
- ``max_abs_error``                -- worst per-line distribution entry
  vs. the exact enumeration oracle, on circuits whose input count fits
  the ``4^n`` budget (the ``refineA``/``refineB`` demo circuits),
- ``mean_activity``, ``refine_iterations``, ``refine_delta`` -- the
  estimate itself and the refinement's convergence telemetry.

Circuits come from the suite's scale tier (see
:mod:`repro.circuits.suite`): the enumeration-feasible refinement demos
always run; ``layered2k`` joins in the default configuration and
``layered10k`` under ``--full``.  ``--quick`` keeps only the demos (the
CI smoke configuration) and additionally *asserts* the refinement
contract: at the highest refine level the oracle error must be at most
half the unrefined error on every demo circuit.

Usage::

    PYTHONPATH=src python benchmarks/bench_segmentation.py \
        [--quick | --full] [--repeats 3] \
        [--output BENCH_segmentation.json]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

try:  # package import (pytest benchmarks/, repo-root scripts)
    from benchmarks.common import (
        MIN_SAMPLE_SECONDS,
        per_call_samples,
        stage_rows,
        write_document,
    )
except ImportError:  # direct execution
    from common import MIN_SAMPLE_SECONDS, per_call_samples, stage_rows, write_document

import numpy as np

from repro.circuits import suite
from repro.core.estimator import exact_switching_by_enumeration
from repro.core.inputs import IndependentInputs
from repro.core.segments import SegmentedEstimator
from repro.perf.collect import salted_scenarios

#: Pipeline stage of every per-point field, in emission order.
STAGES = {
    "gates": "circuit",
    "segments": "compile",
    "glue_edges": "compile",
    "compile_seconds": "compile",
    "repeat_estimate_min_seconds": "repeat",
    "refine_iterations": "refine",
    "refine_delta": "refine",
    "mean_activity": "accuracy",
    "max_abs_error": "accuracy",
}

#: Oracle input probability for the error measurement.
P_ONE = 0.4

#: Per-circuit configuration: estimator knobs, refine levels, and
#: whether the 4^inputs enumeration oracle is feasible.  The demo
#: circuits use deliberately small segments with no lookback, so their
#: cuts are lossy enough for refinement to have visible work to do.
_CONFIGS: List[Dict] = [
    {
        "circuit": "refineA",
        "kwargs": {"max_gates_per_segment": 10, "lookback": 0},
        "refine_levels": [0, 1, 2, 3],
        "oracle": True,
        "tier": "demo",
    },
    {
        "circuit": "refineB",
        "kwargs": {"max_gates_per_segment": 10, "lookback": 0},
        "refine_levels": [0, 1, 2, 3],
        "oracle": True,
        "tier": "demo",
    },
    {
        "circuit": "layered2k",
        "kwargs": {},
        "refine_levels": [0, 1, 2],
        "oracle": False,
        "tier": "default",
    },
    {
        "circuit": "layered10k",
        "kwargs": {},
        "refine_levels": [0, 2],
        "oracle": False,
        "tier": "full",
    },
]


def _oracle_error(result, oracle) -> float:
    """Worst per-line distribution entry vs. the enumeration oracle."""
    worst = 0.0
    for line, expected in oracle.items():
        got = result.distributions.get(line)
        if got is None:
            return float("inf")
        worst = max(worst, float(np.abs(np.asarray(got) - expected).max()))
    return worst


def bench_point(
    circuit,
    refine: int,
    kwargs: Dict,
    repeats: int,
    oracle: Optional[Dict],
) -> List[Dict[str, object]]:
    estimator = SegmentedEstimator(
        circuit,
        input_model=IndependentInputs(P_ONE),
        refine=refine,
        **kwargs,
    )
    start = time.perf_counter()
    estimator.compile()
    compile_seconds = time.perf_counter() - start

    result = estimator.estimate()
    point: Dict[str, object] = {
        "gates": circuit.num_gates,
        "segments": estimator.num_segments,
        "glue_edges": (
            len(estimator._refiner.edges) if estimator._refiner else 0
        ),
        "compile_seconds": compile_seconds,
        "mean_activity": result.mean_activity(),
        "refine_iterations": result.refine_iterations,
        "refine_delta": result.refine_delta,
    }
    if oracle is not None:
        point["max_abs_error"] = _oracle_error(result, oracle)

    def cycle(model):
        estimator.update_inputs(model)
        estimator.estimate()

    cycle_seconds = per_call_samples(
        cycle, lambda salt: salted_scenarios(1, salt)[0], repeats
    )
    point["repeat_estimate_min_seconds"] = min(cycle_seconds)
    err = (
        f"  err {point['max_abs_error']:.3e}" if "max_abs_error" in point else ""
    )
    print(
        f"{circuit.name:>10s}  refine={refine}  "
        f"segs {point['segments']:4d}  glue {point['glue_edges']:3d}  "
        f"compile {compile_seconds:7.2f}s  "
        f"repeat(min) {point['repeat_estimate_min_seconds']:7.3f}s  "
        f"it {point['refine_iterations']}  "
        f"delta {point['refine_delta']:.2e}{err}"
    )
    return stage_rows(
        circuit.name, point, STAGES,
        samples={"repeat_estimate_min_seconds": cycle_seconds},
        refine=refine,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true",
        help="CI smoke: enumeration-feasible demo circuits only, and "
             "assert the refinement accuracy contract (>= 2x error "
             "reduction at the highest refine level)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="also run layered10k (several minutes of compile)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", default="BENCH_segmentation.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    tiers = {"demo"}
    if not args.quick:
        tiers.add("default")
    if args.full:
        tiers.add("full")

    rows: List[Dict[str, object]] = []
    errors: Dict[str, Dict[int, float]] = {}
    for config in _CONFIGS:
        if config["tier"] not in tiers:
            continue
        circuit = suite.load_circuit(config["circuit"])
        oracle = (
            exact_switching_by_enumeration(circuit, IndependentInputs(P_ONE))
            if config["oracle"]
            else None
        )
        for refine in config["refine_levels"]:
            point_rows = bench_point(
                circuit,
                refine,
                config["kwargs"],
                args.repeats,
                oracle,
            )
            rows += point_rows
            for entry in point_rows:
                if entry["metric"] == "max_abs_error":
                    errors.setdefault(circuit.name, {})[refine] = entry["value"]

    # The refinement contract, asserted where the oracle is feasible:
    # refinement must at least halve the unrefined cut error.
    if args.quick:
        for name, by_refine in errors.items():
            base = by_refine[0]
            best_level = max(by_refine)
            refined = by_refine[best_level]
            assert refined <= base / 2, (
                f"{name}: refine={best_level} error {refined:.3e} is not "
                f"<= half the refine=0 error {base:.3e}"
            )
            print(
                f"{name}: refine={best_level} error {refined:.3e} vs "
                f"refine=0 {base:.3e} ({base / max(refined, 1e-300):.1f}x) -- ok"
            )

    run_config = {"repeats": args.repeats, "p_one": P_ONE,
                  "min_sample_seconds": MIN_SAMPLE_SECONDS,
                  "quick": args.quick, "full": args.full}
    write_document(args.output, "segmentation", rows, run_config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
