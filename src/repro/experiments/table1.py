"""Table 1: accuracy and timing of BN estimation on the benchmark suite.

For each circuit, the experiment

1. simulates ``n_pairs`` random vector pairs for the ground truth,
2. compiles the circuit into one or more junction trees (Bayesian
   network compilation; timed as *compile*),
3. propagates the input statistics and reads all line marginals (timed
   as *update* -- the paper's column 6, which it emphasizes is tiny and
   size-independent relative to compilation),
4. reports the paper's error columns: mean error (signed), mean
   absolute error, standard deviation of the error, and the percent
   error between mean activities.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.metrics import error_statistics
from repro.baselines.simulation import simulate_switching
from repro.circuits import suite
from repro.circuits.netlist import Circuit
from repro.core.backend import compile_model
from repro.core.inputs import IndependentInputs, InputModel
from repro.obs.trace import get_tracer


def make_estimator(
    circuit: Circuit,
    input_model: Optional[InputModel] = None,
    max_gates_per_segment: int = 60,
    lookback: int = 3,
    max_clique_states: Optional[int] = None,
    boundary: str = "tree",
):
    """Single-BN estimator whenever one junction tree fits, segmented
    otherwise.

    Thin wrapper over the ``"auto"`` backend
    (:class:`repro.core.backend.backends.AutoBackend`), kept for
    callers that want the raw estimator object rather than the
    :class:`~repro.core.backend.base.CompiledModel` artifact.
    """
    return compile_model(
        circuit,
        input_model,
        backend="auto",
        max_gates_per_segment=max_gates_per_segment,
        lookback=lookback,
        max_clique_states=max_clique_states,
        boundary=boundary,
    ).estimator


def table1_row(
    name: str,
    circuit: Circuit,
    n_pairs: int = 100_000,
    seed: int = 0,
    input_model: Optional[InputModel] = None,
    **estimator_kwargs,
) -> Dict[str, float]:
    """One Table 1 row: error statistics and the compile/update split."""
    model = input_model if input_model is not None else IndependentInputs(0.5)
    compiled = compile_model(circuit, model, backend="auto", **estimator_kwargs)
    result = compiled.query()

    # Re-propagation with fresh statistics measures the paper's "update"
    # time: everything after compilation.
    with get_tracer().span("table1.update", circuit=name) as span:
        repeat = compiled.query()
    update_seconds = span.duration

    sim = simulate_switching(
        circuit, model, n_pairs=n_pairs, rng=np.random.default_rng(seed)
    )
    stats = error_statistics(repeat.activities, sim.activities)
    signed = np.array(
        [repeat.switching(l) - sim.switching(l) for l in circuit.lines]
    )
    return {
        "circuit": name,
        "gates": circuit.num_gates,
        "inputs": circuit.num_inputs,
        "segments": repeat.segments,
        "mu_err": float(signed.mean()),
        "mu_abs_err": stats.mean_abs_error,
        "sigma_err": stats.std_error,
        "pct_err": stats.percent_error_of_means,
        "total_s": result.compile_seconds + result.propagate_seconds,
        "update_s": update_seconds,
    }


def run_table1(
    names: Optional[Sequence[str]] = None,
    n_pairs: int = 100_000,
    seed: int = 0,
    **estimator_kwargs,
) -> List[Dict[str, float]]:
    """Run Table 1 over the named suite circuits (default: full suite)."""
    circuits = suite.benchmark_suite(list(names) if names else None)
    return [
        table1_row(name, circuit, n_pairs=n_pairs, seed=seed, **estimator_kwargs)
        for name, circuit in circuits.items()
    ]


TABLE1_COLUMNS = [
    "circuit",
    "gates",
    "segments",
    "mu_err",
    "sigma_err",
    "pct_err",
    "total_s",
    "update_s",
]
