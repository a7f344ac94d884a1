"""Zero-delay logic simulation -- the ground-truth estimator.

The paper validates its Bayesian-network estimates against logic
simulation with pseudo-random input streams; this module is that
reference.  Input vector *pairs* are drawn from the same
:class:`~repro.core.inputs.InputModel` the estimator uses, both cycles
are simulated, and per-line transition counts accumulate into empirical
4-state distributions.  Evaluation is vectorized over patterns and
processed in batches to bound memory on multi-thousand-line circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.states import N_STATES, LineResult


@dataclass
class SimulationResult(LineResult):
    """Empirical transition statistics from logic simulation."""

    #: number of vector pairs simulated
    n_pairs: int


def simulate_switching(
    circuit: Circuit,
    input_model: Optional[InputModel] = None,
    n_pairs: int = 100_000,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 16_384,
) -> SimulationResult:
    """Estimate per-line transition distributions by logic simulation.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    input_model:
        Input statistics; vector pairs are drawn from this model
        (default: independent fair coins, the paper's random streams).
    n_pairs:
        Total number of consecutive-cycle vector pairs.
    batch_size:
        Patterns evaluated per vectorized pass (memory knob).
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    model = input_model if input_model is not None else IndependentInputs(0.5)
    rng = rng or np.random.default_rng()

    counts = {line: np.zeros(N_STATES, dtype=np.int64) for line in circuit.lines}
    remaining = n_pairs
    while remaining > 0:
        batch = min(batch_size, remaining)
        prev_in, curr_in = model.sample_pairs(circuit.inputs, batch, rng)
        prev_vals = circuit.evaluate_vectors(prev_in)
        curr_vals = circuit.evaluate_vectors(curr_in)
        for line in circuit.lines:
            states = (prev_vals[line].astype(np.int64) << 1) | curr_vals[line]
            counts[line] += np.bincount(states, minlength=N_STATES)
        remaining -= batch

    distributions = {
        line: count.astype(np.float64) / n_pairs for line, count in counts.items()
    }
    return SimulationResult(distributions=distributions, n_pairs=n_pairs)


def simulate_sequential_switching(
    circuit: Circuit,
    state_map,
    input_model: Optional[InputModel] = None,
    n_cycles: int = 100_000,
    warmup: int = 256,
    n_walkers: int = 512,
    rng: Optional[np.random.Generator] = None,
) -> SimulationResult:
    """Ground truth for scan-converted *sequential* circuits.

    Runs ``n_walkers`` independent synchronous machines in parallel:
    each cycle draws fresh primary-input vectors from ``input_model``,
    evaluates the combinational core, feeds every next-state line back
    into its present-state line (``state_map``), and counts per-line
    transitions between consecutive cycles after a warm-up period.

    The per-cycle input draws are temporally independent (the random
    streams of the paper's experiments); states evolve with their true
    joint feedback dynamics, so this measures exactly what the fixpoint
    estimator of :mod:`repro.core.sequential` approximates.
    """
    if n_cycles < 2:
        raise ValueError("n_cycles must be >= 2")
    model = input_model if input_model is not None else IndependentInputs(0.5)
    rng = rng or np.random.default_rng()
    state_map = dict(state_map)
    true_inputs = [ln for ln in circuit.inputs if ln not in state_map]
    input_index = {name: j for j, name in enumerate(circuit.inputs)}

    matrix = np.zeros((n_walkers, circuit.num_inputs), dtype=np.uint8)
    # Random initial state, random initial inputs.
    for name in circuit.inputs:
        matrix[:, input_index[name]] = rng.integers(0, 2, n_walkers, dtype=np.uint8)

    counts = {line: np.zeros(N_STATES, dtype=np.int64) for line in circuit.lines}
    total_pairs = 0
    previous_values = None
    steps = max(2, (warmup + n_cycles) // n_walkers + 1)
    for step in range(steps):
        if true_inputs:
            _, fresh = model.sample_pairs(true_inputs, n_walkers, rng)
            for j, name in enumerate(true_inputs):
                matrix[:, input_index[name]] = fresh[:, j]
        # Copy: evaluate_vectors exposes input columns as views, and the
        # matrix is mutated in place for the next cycle.
        values = circuit.evaluate_vectors(matrix.copy())
        if previous_values is not None and step * n_walkers >= warmup:
            for line in circuit.lines:
                states = (previous_values[line].astype(np.int64) << 1) | values[line]
                counts[line] += np.bincount(states, minlength=N_STATES)
            total_pairs += n_walkers
        previous_values = values
        for present, nxt in state_map.items():
            matrix[:, input_index[present]] = values[nxt]

    distributions = {
        line: count.astype(np.float64) / max(total_pairs, 1)
        for line, count in counts.items()
    }
    return SimulationResult(distributions=distributions, n_pairs=total_pairs)
