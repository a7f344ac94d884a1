"""Attribute traced time to the repository's layers.

A layer's self time is the time its spans were open minus the part
their child spans cover.  Spans come from ``repro.obs`` (the program's
own) and from the benchmark's ``bench.*`` spans around each public
call.  Spans this table does not name count as unattributed, so the
layers plus the unattributed remainder account for every traced
second.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

#: span name -> layer metric it is charged to
LAYER_OF = {
    # circuits + core.validate: netlist construction and the validate
    # pass compile_model runs before the backend (bench.compile self)
    "bench.load": "circuits.load_ms",
    "bench.compile": "circuits.load_ms",
    "compile.lidag": "core.lidag.build_ms",
    "estimator.compile": "bayesian.junction.compile_ms",
    "compile.junction_tree": "bayesian.junction.compile_ms",
    "compile.moralize": "bayesian.junction.compile_ms",
    "compile.cliques": "bayesian.junction.compile_ms",
    "compile.spanning_tree": "bayesian.junction.compile_ms",
    "compile.potentials": "bayesian.junction.compile_ms",
    "compile.triangulate": "bayesian.triangulate_ms",
    "compile.schedule": "bayesian.junction.schedule_ms",
    "segmented.compile": "core.segments.compile_ms",
    "segmented.compile.level": "core.segments.compile_ms",
    "segment.compile": "core.segments.compile_ms",
    "segmented.propagate": "core.segments.propagate_ms",
    "segmented.propagate_many": "core.segments.propagate_ms",
    "segmented.propagate.level": "core.segments.propagate_ms",
    "segment.propagate": "core.segments.propagate_ms",
    "segment.propagate_many": "core.segments.propagate_ms",
    "estimator.propagate_chain": "core.segments.propagate_ms",
    "segmented.refine": "core.segments.refine_ms",
    "segmented.refine.iteration": "core.segments.refine_ms",
    "propagate.update_batch": "bayesian.propagation.update_ms",
    "estimator.propagate": "bayesian.propagation.calibrate_ms",
    "estimator.propagate_many": "bayesian.propagation.calibrate_ms",
    "propagate.calibrate": "bayesian.propagation.calibrate_ms",
    "propagate.marginals": "bayesian.propagation.calibrate_ms",
    "backend.query": "core.backend.query_self_ms",
    "backend.query_many": "core.backend.query_self_ms",
}

#: layers paid once per set-up, reported for the traced run's set-up
SETUP_LAYERS = (
    "circuits.load_ms",
    "core.lidag.build_ms",
    "bayesian.junction.compile_ms",
    "bayesian.triangulate_ms",
    "bayesian.junction.schedule_ms",
    "core.segments.compile_ms",
)

#: layers paid per query, reported per scenario answered
QUERY_LAYERS = (
    "core.segments.propagate_ms",
    "bayesian.propagation.calibrate_ms",
    "core.backend.query_self_ms",
)

#: query layers only some workloads run, reported as their share of the
#: traced query time so a workload that skips them reads 0, not 0 ms
QUERY_SHARES = {
    "core.segments.refine_frac": "core.segments.refine_ms",
    "bayesian.propagation.update_frac": "bayesian.propagation.update_ms",
}


def _empty() -> dict:
    return {"wall": 0.0, "unattributed": 0.0, "layers": {},
            "scenarios": 0, "segments": 0, "glue_edges": 0, "refine": []}


def summarize(roots: Iterable, phase_of: Callable[[str], str]) -> Dict[str, dict]:
    """Per-phase totals (seconds) over finished ``repro.obs`` root spans.

    ``phase_of`` maps a root span's name to a phase label.  Each phase
    gets ``wall`` (summed root durations), ``layers`` (self time per
    layer), ``unattributed`` (self time of unmapped spans),
    ``scenarios`` (summed ``scenarios`` attribute of its roots),
    ``segments`` and ``glue_edges`` (summed over compiles; a single
    Bayesian network is one segment) and the ``refine`` iteration
    counts and final deltas of every boundary refinement.
    """
    phases: Dict[str, dict] = {}

    def walk(span, acc) -> None:
        covered = sum(child.duration for child in span.children)
        own = max(span.duration - covered, 0.0)
        layer = LAYER_OF.get(span.name)
        if layer is None:
            acc["unattributed"] += own
        else:
            acc["layers"][layer] = acc["layers"].get(layer, 0.0) + own
        if span.name == "backend.compile":
            segmented = [c for c in span.children if c.name == "segmented.compile"]
            acc["segments"] += int(segmented[0].attributes.get("segments", 1)) if segmented else 1
        elif span.name == "segmented.compile":
            acc["glue_edges"] += int(span.attributes.get("glue_edges", 0))
        elif span.name == "segmented.refine":
            acc["refine"].append(
                (int(span.attributes.get("iterations", 0)), float(span.attributes.get("delta", 0.0)))
            )
        for child in span.children:
            walk(child, acc)

    for root in roots:
        if not root.end:
            continue
        acc = phases.setdefault(phase_of(root.name), _empty())
        acc["wall"] += root.duration
        acc["scenarios"] += int(root.attributes.get("scenarios", 0))
        walk(root, acc)
    return phases


def layer_metrics(phases: Dict[str, dict]) -> Dict[str, float]:
    """Per-layer metrics from :func:`summarize` output of one traced run.

    Set-up layers are milliseconds for its one set-up, query layers
    milliseconds per scenario answered in the traced query phase (or a
    share of its time, see ``QUERY_SHARES``); the ``trace.*`` rows
    account for the whole traced time.
    """
    setup = phases.get("setup", _empty())
    query = phases.get("query", _empty())
    scenarios = max(query["scenarios"], 1)
    metrics = {layer: 1e3 * setup["layers"].get(layer, 0.0) for layer in SETUP_LAYERS}
    for layer in QUERY_LAYERS:
        metrics[layer] = 1e3 * query["layers"].get(layer, 0.0) / scenarios
    for share, layer in QUERY_SHARES.items():
        metrics[share] = query["layers"].get(layer, 0.0) / query["wall"] if query["wall"] else 0.0
    metrics["core.segments.count"] = setup["segments"]
    metrics["core.segments.glue_edges"] = setup["glue_edges"]
    refine = query["refine"]
    metrics["core.segments.refine_iterations"] = (
        sum(it for it, _ in refine) / len(refine) if refine else 0.0
    )
    metrics["core.segments.refine_delta"] = max((d for _, d in refine), default=0.0)
    wall = sum(p["wall"] for p in phases.values())
    attributed = sum(sum(p["layers"].values()) for p in phases.values())
    unattributed = sum(p["unattributed"] for p in phases.values())
    metrics["trace.wall_ms"] = 1e3 * wall
    metrics["trace.unattributed_ms"] = 1e3 * unattributed
    metrics["trace.accounted_frac"] = (attributed + unattributed) / wall if wall else 0.0
    return metrics


def work_metrics(work: Dict[str, float], scenarios: int, gauges: Dict[str, float]) -> Dict[str, float]:
    """Engine work per scenario answered, and the compile-time gauges.

    ``work`` holds propagation counter totals (``messages``, ``flops``,
    ``scenarios_propagated``, ``cliques_skipped``,
    ``cliques_repropagated``); ``gauges`` is a ``repro.obs`` registry
    snapshot's gauge table.
    """
    scenarios = max(scenarios, 1)
    touched = work.get("cliques_skipped", 0) + work.get("cliques_repropagated", 0)
    return {
        "bayesian.junction.total_states": gauges.get("jt.total_states", 0.0),
        "bayesian.junction.feasible_states": gauges.get("jt.feasible_states", 0.0),
        "bayesian.junction.sparse_cliques": gauges.get("jt.sparse_cliques", 0.0),
        "bayesian.propagation.factor_bytes_peak_mb": gauges.get("engine.factor_bytes.peak", 0.0) / 2**20,
        "bayesian.propagation.messages_per_scenario": work.get("messages", 0) / scenarios,
        "bayesian.propagation.flops_per_scenario": work.get("flops", 0) / scenarios,
        "bayesian.propagation.cliques_skipped_frac": (
            work.get("cliques_skipped", 0) / touched if touched else 0.0
        ),
        "core.sweep.passes_per_scenario": work.get("scenarios_propagated", 0) / scenarios,
    }
