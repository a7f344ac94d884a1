"""Ablations of the design choices called out in DESIGN.md section 5."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.metrics import error_statistics
from repro.baselines.simulation import simulate_switching
from repro.bayesian.junction import JunctionTree
from repro.circuits import suite
from repro.core.inputs import IndependentInputs, TemporalInputs
from repro.core.lidag import build_lidag
from repro.core.segments import SegmentedEstimator
from repro.experiments.table1 import make_estimator
from repro.obs.trace import get_tracer


def ablate_triangulation(
    names: Optional[Sequence[str]] = None,
) -> List[Dict[str, float]]:
    """min-fill vs. min-degree: fill-ins, largest clique, compile time."""
    wanted = list(names) if names else ["c17", "alu", "voter", "comp", "pcler8"]
    rows = []
    for name in wanted:
        circuit = suite.load_circuit(name)
        bn = build_lidag(circuit)
        for heuristic in ("min_fill", "min_degree"):
            with get_tracer().span(
                "ablation.triangulation", circuit=name, heuristic=heuristic
            ) as span:
                jt = JunctionTree.from_network(bn, heuristic=heuristic)
            seconds = span.duration
            stats = jt.stats()
            rows.append(
                {
                    "circuit": name,
                    "heuristic": heuristic,
                    "fill_ins": stats["fill_ins"],
                    "max_clique_states": stats["max_clique_states"],
                    "total_entries": stats["total_table_entries"],
                    "compile_s": seconds,
                }
            )
    return rows


def ablate_segmentation(
    name: str = "c880s",
    n_pairs: int = 50_000,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Boundary mode x lookback: accuracy/time of the segmentation knobs."""
    circuit = suite.load_circuit(name)
    sim = simulate_switching(
        circuit, n_pairs=n_pairs, rng=np.random.default_rng(seed)
    )
    rows = []
    configurations = [
        ("independent", 0, "auto"),
        ("independent", 1, "auto"),
        ("independent", 3, "auto"),
        ("tree", 0, "auto"),
        ("tree", 1, "auto"),
        ("tree", 3, "auto"),
        ("tree", 3, "jt"),
        ("tree", 3, "enum"),
    ]
    for boundary, lookback, backend in configurations:
        seg = SegmentedEstimator(
            circuit,
            max_gates_per_segment=60,
            lookback=lookback,
            boundary=boundary,
            backend=backend,
        )
        result = seg.estimate()
        stats = error_statistics(result.activities, sim.activities)
        rows.append(
            {
                "circuit": name,
                "boundary": boundary,
                "lookback": lookback,
                "backend": backend,
                "segments": seg.num_segments,
                "mu_abs_err": stats.mean_abs_error,
                "sigma_err": stats.std_error,
                "pct_err": stats.percent_error_of_means,
                "compile_s": result.compile_seconds,
                "propagate_s": result.propagate_seconds,
            }
        )
    return rows


def ablate_compile_vs_propagate(
    names: Optional[Sequence[str]] = None,
    n_statistics: int = 5,
) -> List[Dict[str, float]]:
    """The paper's advantage #3: re-propagation is tiny versus compile.

    Compile once, then re-estimate under ``n_statistics`` different
    input-probability settings; report compile time versus the mean
    per-propagation time.
    """
    wanted = list(names) if names else ["c17", "alu", "comp", "c432s", "c880s"]
    rows = []
    for name in wanted:
        circuit = suite.load_circuit(name)
        estimator = make_estimator(circuit)
        first = estimator.estimate()
        propagate_times = []
        for k in range(n_statistics):
            p = 0.2 + 0.6 * k / max(n_statistics - 1, 1)
            if hasattr(estimator, "update_inputs"):
                estimator.update_inputs(IndependentInputs(p))
            else:
                estimator.input_model = IndependentInputs(p)
            with get_tracer().span(
                "ablation.repropagate", circuit=name, p_one=p
            ) as span:
                estimator.estimate()
            propagate_times.append(span.duration)
        rows.append(
            {
                "circuit": name,
                "gates": circuit.num_gates,
                "compile_s": first.compile_seconds,
                "mean_propagate_s": float(np.mean(propagate_times)),
                "speedup": first.compile_seconds / max(np.mean(propagate_times), 1e-12),
            }
        )
    return rows


def ablate_input_models(
    name: str = "alu",
    n_pairs: int = 100_000,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Advantage #2: BN accuracy holds across input statistics models."""
    circuit = suite.load_circuit(name)
    models = [
        ("independent p=0.5", IndependentInputs(0.5)),
        ("independent p=0.2", IndependentInputs(0.2)),
        ("temporal a=0.1", TemporalInputs(p_one=0.5, activity=0.1)),
        ("temporal a=0.4", TemporalInputs(p_one=0.5, activity=0.4)),
    ]
    rows = []
    for label, model in models:
        estimator = make_estimator(circuit, model)
        result = estimator.estimate()
        sim = simulate_switching(
            circuit, model, n_pairs=n_pairs, rng=np.random.default_rng(seed)
        )
        stats = error_statistics(result.activities, sim.activities)
        rows.append(
            {
                "circuit": name,
                "input_model": label,
                "mean_activity": result.mean_activity(),
                "sim_mean_activity": sim.mean_activity(),
                "mu_abs_err": stats.mean_abs_error,
                "sigma_err": stats.std_error,
            }
        )
    return rows
