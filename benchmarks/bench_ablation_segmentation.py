"""Ablation: segmentation knobs (boundary mode and lookback).

Design choice from DESIGN.md section 5: how much correlation crosses a
segment cut.  ``boundary="independent"`` is the paper's preliminary
scheme; ``boundary="tree"`` carries a spanning forest of pairwise
boundary joints (the paper's stated future work); ``lookback`` controls
the duplicated upstream cone.
"""

import numpy as np
import pytest

from repro.analysis.metrics import error_statistics
from repro.baselines.simulation import simulate_switching
from repro.circuits import suite
from repro.core.segments import SegmentedEstimator

CIRCUIT = "c880s"
COLUMNS = [
    "boundary",
    "lookback",
    "segments",
    "mu_abs_err",
    "sigma_err",
    "pct_err",
]

_sim_cache = {}


def _ground_truth(circuit):
    if CIRCUIT not in _sim_cache:
        _sim_cache[CIRCUIT] = simulate_switching(
            circuit, n_pairs=50_000, rng=np.random.default_rng(0)
        ).activities
    return _sim_cache[CIRCUIT]


@pytest.mark.parametrize("boundary", ["independent", "tree"])
@pytest.mark.parametrize("lookback", [0, 3])
def test_segmentation_knobs(benchmark, boundary, lookback, report_rows):
    circuit = suite.load_circuit(CIRCUIT)
    sim_acts = _ground_truth(circuit)

    def run():
        seg = SegmentedEstimator(
            circuit,
            max_gates_per_segment=60,
            lookback=lookback,
            boundary=boundary,
        )
        return seg, seg.estimate()

    seg, result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = error_statistics(result.activities, sim_acts)
    report_rows.setdefault(
        f"Ablation: segmentation knobs ({CIRCUIT})", (COLUMNS, [])
    )[1].append(
        {
            "boundary": boundary,
            "lookback": lookback,
            "segments": seg.num_segments,
            "mu_abs_err": stats.mean_abs_error,
            "sigma_err": stats.std_error,
            "pct_err": stats.percent_error_of_means,
        }
    )
    assert stats.std_error < 0.1


def test_lookback_and_tree_improve_accuracy():
    """The extension must not be worse than the naive scheme."""
    circuit = suite.load_circuit(CIRCUIT)
    sim_acts = _ground_truth(circuit)

    def error(boundary, lookback):
        result = SegmentedEstimator(
            circuit,
            max_gates_per_segment=60,
            lookback=lookback,
            boundary=boundary,
        ).estimate()
        return error_statistics(result.activities, sim_acts).mean_abs_error

    naive = error("independent", 0)
    extended = error("tree", 3)
    assert extended <= naive + 1e-4
